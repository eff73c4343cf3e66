"""Omega-circulant time-coupling matrices and their FFT diagonalization.

The all-at-once systems stack the states y^0..y^N of N backward Euler steps,
so the time direction has N+1 levels. For the fast-solvable method variants
the time coupling is an omega-circulant matrix C: ones on the diagonal, -1 on
the first subdiagonal, and -omega in the top-right corner. Such matrices
factor explicitly as

    C = V diag(d) V^{-1},   V = Gamma^{-1} F^*,   V^{-1} = F Gamma,

where F is the unitary DFT matrix, Gamma = diag(omega**(j/n)) with the
principal branch of the fractional power, and d_j = 1 - omega**(1/n) *
exp(2i pi j / n). Applying V costs one FFT plus a diagonal scaling, which is
what makes the solver fast; the solver never needs V^{-1}, since its
right-hand side lives on one time level only.

For real negative omega, the case of both circulant method kinds, the
eigenvalues come in conjugate pairs d_{n-1-j} = conj(d_j); the solver uses
this to do half of its spatial work. from_eigenspace applies V to a
time-major block, time on the leading axis, the layout of a trajectory. It
consumes a complex block and returns the real result in the block's own
memory, which keeps the solver's peak at the size of that block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .space import WORKERS, level_batches


# Bound on the imaginary residue of from_eigenspace, relative to the result.
IMAGINARY_TOL = 1e-8


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


@dataclass(frozen=True)
class CirculantDiagonalization:
    """Eigen-factorization C = V diag(eigenvalues) V^{-1} of a step matrix.

    ``gamma`` holds omega**(j/size) for j = 0..size-1 (principal branch), the
    diagonal of Gamma. V is applied with one FFT by from_eigenspace and is
    only formed densely in tests. The roundoff of the change of basis is
    amplified by cond(Gamma) = max(|omega|, 1/|omega|)**((size-1)/size), so
    tolerances downstream scale with that factor.
    """

    size: int
    omega: complex
    gamma: np.ndarray
    eigenvalues: np.ndarray

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




def from_eigenspace(
    block: np.ndarray, diag: CirculantDiagonalization
) -> np.ndarray:
    """Consume a time-major block in the eigenbasis; return the real V @ block.

    Computes V @ block along the leading (time) axis of ``block``, shape
    (size, ...): one FFT along that axis on scipy's workers, then one pass
    over batches of time levels in the calling thread that applies
    Gamma^{-1}, sums the squares and packs the real parts. The systems and
    right-hand sides upstream are real, so the imaginary part must be
    roundoff; it is checked against 1e-8 * norm(result) and discarded.

    ``block`` must be a C-contiguous complex128 array that owns its memory
    and has no views. It is consumed: the real result is built in the first
    half of its memory, which is then shrunk in place, so its contents and
    shape are undefined afterwards and the peak stays at the size of
    ``block``.

    Returns:
        The real part, C-contiguous, with the shape of ``block``.

    Raises:
        ImaginaryResidueError: imaginary norm above 1e-8 * result norm, which
            signals an upstream bug or hopeless conditioning, not roundoff.
        ValueError: the leading axis is not diag.size, or ``block`` cannot be
            consumed in place.
    """
    block = np.asarray(block)
    if block.ndim == 0 or block.shape[0] != diag.size:
        raise ValueError(
            f"expected leading (time) axis {diag.size}, got shape {block.shape}"
        )
    if not (
        block.dtype == np.complex128
        and block.flags.c_contiguous
        and block.flags.owndata
    ):
        raise ValueError(
            "from_eigenspace needs a C-contiguous complex128 array that owns "
            "its memory"
        )
    shape, size = block.shape, block.size
    fourier = scipy.fft.fft(
        block, axis=0, norm="ortho", overwrite_x=True, workers=WORKERS
    )
    if not np.may_share_memory(fourier, block):
        # scipy may decline to work in place; the result still goes here.
        block[...] = fourier
    del fourier
    rows = block.reshape(diag.size, -1)
    inverse_gamma = 1.0 / diag.gamma[:, None]
    # Interleaved (real, imag) pairs per level. The real parts of level j
    # are packed down into level j//2, which an ascending loop has already
    # scaled and summed; numpy buffers a copy that overlaps its own source.
    pairs = rows.view(np.float64)
    packed = block.reshape(-1).view(np.float64)[:size].reshape(shape[0], -1)
    real_sq = imag_sq = 0.0
    for lo, hi in level_batches(0, diag.size, rows[0].nbytes):
        rows[lo:hi] *= inverse_gamma[lo:hi]
        batch = pairs[lo:hi].reshape(-1)
        real, imag = batch[0::2], batch[1::2]
        real_sq += float(real @ real)
        imag_sq += float(imag @ imag)
        packed[lo:hi] = pairs[lo:hi, 0::2]
    del rows, pairs, packed, batch, real, imag
    scale = np.sqrt(real_sq + imag_sq)
    residue = np.sqrt(imag_sq)
    if residue > IMAGINARY_TOL * max(scale, np.finfo(float).tiny):
        raise ImaginaryResidueError(
            f"imaginary residue {residue:.3e} exceeds {IMAGINARY_TOL:.1e} of "
            f"the result norm {scale:.3e}"
        )
    # Give back the upper half. refcheck is off because the caller's own
    # reference to ``block`` would fail it; no view of the buffer is left.
    block.resize(((size + 1) // 2,), refcheck=False)
    return block.view(np.float64)[:size].reshape(shape)
