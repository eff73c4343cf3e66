"""Dense references for the omega-circulant time coupling and its factors.

The step matrix C and the basis V = Gamma^{-1} F^* are formed entry by entry,
V^{-1} = F Gamma is applied with one inverse FFT, pack puts two columns of a
block into one complex column as from_eigenspace takes them, and
V diag(d) V^{-1} is rebuilt with the solver's own from_eigenspace as V.
Small sizes only.
"""

import numpy as np
import scipy.fft

from bhcp.circulant import CirculantDiagonalization, from_eigenspace


def step_matrix(size: int, omega: complex) -> np.ndarray:
    """Dense omega-circulant time coupling matrix.

    Unit diagonal, -1 on the first subdiagonal, -omega in the top-right
    corner. For size == 1 the corner and the diagonal coincide and the single
    entry is 1 - omega. omega = 0 is rejected: that degenerates to a plain
    lower bidiagonal Toeplitz matrix with no circulant factorization.
    """
    n = int(size)
    if n < 1:
        raise ValueError(f"matrix size must be at least 1, got {n}")
    if omega == 0:
        raise ValueError("omega must be nonzero")
    if n == 1:
        return np.array([[1.0 - omega]])
    mat = np.eye(n, dtype=np.result_type(omega, float))
    idx = np.arange(n - 1)
    mat[idx + 1, idx] = -1.0
    mat[0, n - 1] = -omega
    return mat


def dense_fourier(n: int) -> np.ndarray:
    """Unitary DFT matrix with positive exponent, F[j,k] = theta**(jk)/sqrt(n)."""
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)


def basis_matrix(diag: CirculantDiagonalization) -> np.ndarray:
    """Dense V = Gamma^{-1} F^*."""
    return dense_fourier(diag.size).conj() / diag.gamma[:, None]


def to_eigenspace(block: np.ndarray, diag: CirculantDiagonalization) -> np.ndarray:
    """V^{-1} @ block along the leading (time) axis, as a fresh complex block.

    The result is C-contiguous complex128 and owns its memory, so
    from_eigenspace can consume it.
    """
    block = np.asarray(block)
    gamma = diag.gamma.reshape((-1,) + (1,) * (block.ndim - 1))
    return scipy.fft.ifft(block * gamma, axis=0, norm="ortho")


def pack(block: np.ndarray) -> np.ndarray:
    """Packed form of a (size, n) block: column c is block[:, 2c] + i block[:, 2c+1].

    An odd n is padded with a zero column. The result is a fresh
    C-contiguous complex128 array of shape (size, ceil(n/2)).
    """
    block = np.asarray(block)
    odd = np.zeros((block.shape[0], (block.shape[1] + 1) // 2), dtype=block.dtype)
    odd[:, : block.shape[1] // 2] = block[:, 1::2]
    return np.ascontiguousarray(block[:, 0::2] + 1j * odd, dtype=np.complex128)


def reconstruct(diag: CirculantDiagonalization) -> np.ndarray:
    """V diag(d) V^{-1}, with V applied by from_eigenspace; should be C.

    C is real for the real omegas tested, so the columns of diag(d) V^{-1}
    can be packed two to a complex column.
    """
    coeffs = diag.eigenvalues[:, None] * to_eigenspace(np.eye(diag.size), diag)
    return from_eigenspace(pack(coeffs), diag, diag.size)
