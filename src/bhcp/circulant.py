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
time-major block, time on the leading axis, the layout of a trajectory.
Since V x is real for the solver's eigenspace block x, two real columns ride
in each complex column of a packed block, x[:, 2c] + i x[:, 2c+1], with a
zero pad column for an odd column count (Cooley, Lewis & Welch 1970): one
FFT transforms both, and the packed result viewed as float64 already is the
real trajectory, in the block's own memory. pack_levels writes that block
from the solved first half of the levels, the second half being their
conjugates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .space import WORKERS, level_batches


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
    amplified by cond(Gamma) = max(|omega|, 1/|omega|)**((size-1)/size),
    which gamma_condition computes, so tolerances downstream scale with it.
    """

    size: int
    omega: complex
    gamma: np.ndarray
    eigenvalues: np.ndarray


def gamma_condition(size: int, omega: complex) -> float:
    """cond(Gamma) of the size x size omega-circulant, from its two numbers.

    Known before any work, so a solver can decide on it without factoring.
    """
    scale = max(abs(omega), 1.0 / abs(omega))
    return scale ** ((size - 1) / size)


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


def pack_levels(block: np.ndarray, lo: int, hi: int, rows: np.ndarray) -> None:
    """Write solved levels lo..hi-1 of an eigenspace block, and their mirrors.

    ``block`` is the packed form from_eigenspace consumes of an eigenspace
    block z of shape (size, n) with z[size-1-j] = conj(z[j]); ``rows`` holds
    the complex levels z[lo:hi], shape (hi-lo, n). With a, b the even and
    odd columns of z[j], level j goes to block[j] = a + i b and, below the
    middle level, its mirror to block[size-1-j] = conj(a - i b); an odd n
    puts z[j]'s last column in the pad column. The levels below
    ceil(size/2), in any batches, fill the whole block; batches of disjoint
    level ranges write disjoint rows, so threads may write them at once.
    """
    size, width = block.shape
    n = rows.shape[1]
    pairs = n // 2
    # Levels below `paired` have a mirror level; the middle one, if any, not.
    paired = size // 2
    # (level, column, re/im) views of the block and of the rows' columns
    packed = block.view(np.float64).reshape(size, width, 2)
    parts = rows.view(np.float64).reshape(hi - lo, n, 2)
    even, odd = parts[:, 0 : 2 * pairs : 2], parts[:, 1 : 2 * pairs : 2]
    # block[j] = a + i b
    np.subtract(even[..., 0], odd[..., 1], out=packed[lo:hi, :pairs, 0])
    np.add(even[..., 1], odd[..., 0], out=packed[lo:hi, :pairs, 1])
    if pairs < width:
        block[lo:hi, pairs] = rows[:, -1]
    mirrored = min(hi, paired) - lo
    if mirrored > 0:
        # block[size-1-j] = conj(a - i b), for j = lo .. lo+mirrored-1
        levels = slice(size - lo - 1, size - lo - mirrored - 1, -1)
        even, odd = even[:mirrored], odd[:mirrored]
        np.add(even[..., 0], odd[..., 1], out=packed[levels, :pairs, 0])
        np.subtract(odd[..., 0], even[..., 1], out=packed[levels, :pairs, 1])
        if pairs < width:
            np.conjugate(rows[:mirrored, -1], out=block[levels, pairs])


def from_eigenspace(
    block: np.ndarray, diag: CirculantDiagonalization, columns: int
) -> np.ndarray:
    """Consume a packed block in the eigenbasis; return the real V @ x.

    ``block`` packs a time-major eigenspace block x of shape (size, columns)
    whose image V @ x is real, two columns per complex column:
    block[:, c] = x[:, 2c] + i x[:, 2c+1], with x[:, columns] = 0 for an odd
    column count. V is applied along the leading (time) axis: one in-place
    FFT on scipy's workers, then one ascending pass over batches of time
    levels in the calling thread that applies Gamma^{-1} and, for an odd
    column count only, moves each level down over the pad of the levels
    before it. Column 2c of V @ x is then the real part of packed column c
    and column 2c+1 its imaginary part, so the float64 view of the block is
    the result. Nothing is checked for realness: the imaginary parts are data.

    ``block`` must be a C-contiguous complex128 array of shape
    (size, ceil(columns/2)). It is consumed: its contents are undefined
    afterwards and the result is a view of its memory.

    Returns:
        V @ x, float64, C-contiguous, shape (size, columns).

    Raises:
        ValueError: ``block`` has the wrong shape, dtype or layout.
    """
    block = np.asarray(block)
    shape = (diag.size, (columns + 1) // 2)
    if not (
        block.shape == shape
        and block.dtype == np.complex128
        and block.flags.c_contiguous
    ):
        raise ValueError(
            f"from_eigenspace needs a C-contiguous complex128 array of shape "
            f"{shape}, got {block.dtype} {block.shape}"
        )
    fourier = scipy.fft.fft(
        block, axis=0, norm="ortho", overwrite_x=True, workers=WORKERS
    )
    if not np.may_share_memory(fourier, block):
        # scipy may decline to work in place; the result still goes here.
        block[...] = fourier
    del fourier
    inverse_gamma = 1.0 / diag.gamma[:, None]
    floats = block.view(np.float64)
    flat = floats.reshape(-1)
    for lo, hi in level_batches(0, diag.size, block[0].nbytes):
        block[lo:hi] *= inverse_gamma[lo:hi]
        if columns % 2:
            # Levels below lo are packed already and levels from hi on are
            # untouched; reshape copies the batch before it moves down.
            flat[lo * columns : hi * columns] = floats[lo:hi, :columns].reshape(-1)
    return flat[: diag.size * columns].reshape(diag.size, columns)
