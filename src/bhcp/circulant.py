"""Omega-circulant time-coupling matrices and their FFT diagonalization.

The all-at-once systems stack the states y^0..y^N of N backward Euler steps,
so the time direction has N+1 levels. For the fast-solvable method variants
the time coupling is an omega-circulant matrix C: ones on the diagonal, -1 on
the first subdiagonal, and -omega in the top-right corner. Such matrices
factor explicitly as

    C = V diag(d) V^{-1},   V = Gamma^{-1} F^*,   V^{-1} = F Gamma,

where F is the unitary DFT matrix, Gamma = diag(omega**(j/n)) with the
principal branch of the fractional power, and d_j = 1 - omega**(1/n) *
exp(2i pi j / n). Applying V or V^{-1} costs one FFT plus a diagonal scaling,
which is what makes the solver fast.

For real negative omega, the case of both circulant method kinds, the
eigenvalues come in conjugate pairs d_{n-1-j} = conj(d_j); the solver uses
this to do half of its spatial work. V, V^{-1}, to_eigenspace and
from_eigenspace act on time-major blocks, time on the leading axis, the
layout of a trajectory. from_eigenspace can consume a complex block and
return the real result in the block's own memory, which keeps the solver's
peak at the size of that block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .space import BATCH_BYTES


class ImaginaryResidueError(ArithmeticError):
    """A nominally real result came back with a non-negligible imaginary part."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform backward Euler partition of [0, horizon] into num_steps steps.

    The carried states are y^0..y^N at times 0, tau, ..., horizon, so there
    are n_levels = num_steps + 1 unknown time levels.
    """

    horizon: float
    num_steps: int

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError(f"time horizon must be positive, got {self.horizon}")
        if self.num_steps < 1:
            raise ValueError(f"need at least one time step, got {self.num_steps}")

    @property
    def tau(self) -> float:
        """Step size horizon / num_steps."""
        return self.horizon / self.num_steps

    @property
    def n_levels(self) -> int:
        """Number of carried time levels, num_steps + 1."""
        return self.num_steps + 1

    @property
    def times(self) -> np.ndarray:
        """All carried time levels 0, tau, ..., horizon, shape (n_levels,)."""
        return self.tau * np.arange(self.n_levels)


def step_matrix(size: int, omega: complex) -> np.ndarray:
    """Dense omega-circulant time coupling matrix, for tests and small cases.

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


@dataclass(frozen=True)
class CirculantDiagonalization:
    """Eigen-factorization C = V diag(eigenvalues) V^{-1} of a step matrix.

    ``gamma`` holds omega**(j/size) for j = 0..size-1 (principal branch), the
    diagonal of Gamma. V and its inverse are applied with one FFT each and
    are only formed densely in tests. The roundoff of the transform pair is
    amplified by cond(Gamma) = max(|omega|, 1/|omega|)**((size-1)/size), so
    tolerances downstream scale with that factor.
    """

    size: int
    omega: complex
    gamma: np.ndarray
    eigenvalues: np.ndarray

    def apply_inverse_basis(self, values: np.ndarray) -> np.ndarray:
        """Apply V^{-1} = F Gamma along the leading (time) axis."""
        values = self._time_major(values)
        gamma = self.gamma.reshape((-1,) + (1,) * (values.ndim - 1))
        return scipy.fft.ifft(values * gamma, axis=0, norm="ortho")

    def apply_basis(self, coeffs: np.ndarray) -> np.ndarray:
        """Apply V = Gamma^{-1} F^* along the leading (time) axis."""
        out = np.array(self._time_major(coeffs), dtype=np.complex128, order="C")
        for _ in self._apply_basis_in_place(out):
            pass
        return out

    def _apply_basis_in_place(self, block: np.ndarray):
        """Overwrite a C-contiguous complex128 block with V @ block.

        One FFT along the time axis, then Gamma^{-1} one batch of time levels
        at a time. Yields each batch as a (size-of-batch, rest) view right
        after scaling it, so a caller can finish with it while it is in
        cache; the block is final once the generator is exhausted.
        """
        fourier = scipy.fft.fft(block, axis=0, norm="ortho", overwrite_x=True)
        if not np.may_share_memory(fourier, block):
            # scipy may decline to work in place; the result still goes here.
            block[...] = fourier
        del fourier
        rows = block.reshape(self.size, -1)
        inverse_gamma = 1.0 / self.gamma[:, None]
        step = max(1, BATCH_BYTES // max(rows[0].nbytes, 1))
        for lo in range(0, self.size, step):
            batch = rows[lo : lo + step]
            batch *= inverse_gamma[lo : lo + step]
            yield batch

    def _time_major(self, block) -> np.ndarray:
        block = np.asarray(block)
        if block.ndim == 0 or block.shape[0] != self.size:
            raise ValueError(
                f"expected leading (time) axis {self.size}, got shape {block.shape}"
            )
        return block

    def basis_matrix(self) -> np.ndarray:
        """Dense V, for verification against the factored applications."""
        return self.apply_basis(np.eye(self.size))

    def reconstruct(self) -> np.ndarray:
        """Dense V diag(d) V^{-1}; should reproduce the step matrix."""
        return self.apply_basis(
            self.eigenvalues[:, None] * self.apply_inverse_basis(np.eye(self.size))
        )

    @property
    def condition_gamma(self) -> float:
        """Condition number of Gamma, the roundoff amplification factor."""
        scale = max(abs(self.omega), 1.0 / abs(self.omega))
        return scale ** ((self.size - 1) / self.size)


def diagonalize(size: int, omega: complex) -> CirculantDiagonalization:
    """Factor the size x size omega-circulant step matrix for FFT solves.

    omega may be any nonzero real or complex number; negative reals take the
    principal branch of omega**(1/size), so gamma walks the upper half plane.
    """
    n = int(size)
    if n < 1:
        raise ValueError(f"matrix size must be at least 1, got {n}")
    omega = complex(omega)
    if omega == 0:
        raise ValueError("omega must be nonzero")
    # Principal branch of omega**(j/n) via the principal log; gamma[1] is the
    # principal n-th root that enters the eigenvalue formula.
    gamma = np.exp(np.arange(n) * (np.log(omega) / n))
    root = gamma[1] if n > 1 else omega
    eigenvalues = 1.0 - root * np.exp(2j * np.pi * np.arange(n) / n)
    return CirculantDiagonalization(
        size=n, omega=omega, gamma=gamma, eigenvalues=eigenvalues
    )


def to_eigenspace(
    block: np.ndarray, diag: CirculantDiagonalization
) -> np.ndarray:
    """Map a time-major block into the circulant eigenbasis.

    ``block`` has shape (size, ...) with time on the leading axis; the
    result equals V^{-1} @ block and is complex.
    """
    return diag.apply_inverse_basis(block)


def from_eigenspace(
    block: np.ndarray,
    diag: CirculantDiagonalization,
    tol: float = 1e-8,
    *,
    overwrite: bool = False,
) -> np.ndarray:
    """Map a time-major block back from the eigenbasis; drop the imaginary residue.

    Computes V @ block along the leading (time) axis of ``block``, shape
    (size, ...). The systems and right-hand sides upstream are real, so the
    imaginary part must be roundoff; it is checked against
    tol * norm(result) and discarded.

    The transform works in a complex buffer, and the real result is built
    in the first half of that buffer's own memory, which is then shrunk in
    place. By default the buffer is a copy and ``block`` is left unchanged.
    With overwrite=True the buffer is ``block`` itself: it must be a
    C-contiguous complex128 array that owns its memory and has no views,
    and it is consumed (the result reuses its memory, so its contents and
    shape are undefined afterwards). That keeps the peak at the size of
    ``block``.

    Returns:
        The real part, C-contiguous, with the shape of ``block``.

    Raises:
        ImaginaryResidueError: imaginary norm above tol * result norm, which
            signals an upstream bug or hopeless conditioning, not roundoff.
        ValueError: the leading axis is not diag.size, or overwrite=True
            with a block that cannot be consumed in place.
    """
    block = diag._time_major(block)
    shape, size = block.shape, block.size
    if not overwrite:
        block = np.array(block, dtype=np.complex128, order="C")
    elif not (
        block.dtype == np.complex128
        and block.flags.c_contiguous
        and block.flags.owndata
    ):
        raise ValueError(
            "overwrite=True needs a C-contiguous complex128 array that owns "
            "its memory"
        )
    # Interleaved (real, imag) pairs. Each batch of levels is scaled, its
    # norms are taken, and its real parts are packed down to the front of
    # the buffer, which only overwrites levels that are already done.
    flat = block.reshape(-1).view(np.float64)
    real_sq = imag_sq = 0.0
    done = 0
    for batch in diag._apply_basis_in_place(block):
        pairs = batch.reshape(-1).view(np.float64)
        real, imag = pairs[0::2], pairs[1::2]
        real_sq += float(real @ real)
        imag_sq += float(imag @ imag)
        flat[done : done + real.size] = real
        done += real.size
    del flat, pairs, real, imag, batch
    scale = np.sqrt(real_sq + imag_sq)
    residue = np.sqrt(imag_sq)
    if residue > tol * max(scale, np.finfo(float).tiny):
        raise ImaginaryResidueError(
            f"imaginary residue {residue:.3e} exceeds {tol:.1e} of the result "
            f"norm {scale:.3e}"
        )
    # Give back the upper half. refcheck is off because the caller's own
    # reference to ``block`` would fail it; no view of the buffer is left.
    block.resize(((size + 1) // 2,), refcheck=False)
    return block.view(np.float64)[:size].reshape(shape)
