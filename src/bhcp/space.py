"""Uniform Dirichlet grids, the discrete Laplacian, and fast sine-spectral solves.

Everything here acts on interior-node vectors only: homogeneous Dirichlet
values are eliminated, so a grid with M subdivisions per edge carries
(M-1)**dim unknowns. The discrete Laplacian diagonalizes in the orthonormal
sine basis, which gives O(N log M) solves of (s*I - lap) for arbitrary
complex shifts s. Those shifted solves are the spatial kernel of every
solver in this package.

The module also holds the one split of a time-major space-time block into
batches of time levels, level_batches. shifted_solve spreads its batches
over all CPUs of the process with helper threads that live for one call;
those are the package's only threads, and every other batched pass walks
level_batches in the calling thread, in level order.
"""

from __future__ import annotations

import concurrent.futures
import functools
import os
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.sparse


# Target size of one batch of time levels when a solver works through a
# space-time block level by level: big enough to amortize per-call overhead,
# small enough that a batch's temporaries stay in cache and that each worker
# thread's malloc arena stays small.
BATCH_BYTES = 512 * 1024

# The CPUs this process may run on when it imports the package; level
# batches are spread over them.
WORKERS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)


def level_batches(start: int, stop: int, row_nbytes: int) -> list:
    """The (lo, hi) bounds of the batches of time levels covering [start, stop).

    Each batch holds at most BATCH_BYTES of rows of ``row_nbytes`` bytes (at
    least one row), in ascending order; the split depends on nothing else.
    """
    step = max(1, BATCH_BYTES // max(row_nbytes, 1))
    return [(lo, min(lo + step, stop)) for lo in range(start, stop, step)]


class SingularShiftError(ArithmeticError):
    """A shifted operator s*I - lap is numerically singular for this grid."""


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform mesh on (0, L)^dim with homogeneous Dirichlet boundaries.

    Attributes:
        dim: spatial dimension, 1 or 2.
        length: edge length L of the domain.
        num_cells: subdivisions M per edge, so the mesh width is h = L/M.
    """

    dim: int
    length: float
    num_cells: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not self.length > 0:
            raise ValueError(f"domain length must be positive, got {self.length}")
        if self.num_cells < 2:
            raise ValueError(f"need at least 2 cells per edge, got {self.num_cells}")

    @property
    def h(self) -> float:
        """Mesh width L/M."""
        return self.length / self.num_cells

    @property
    def n_interior(self) -> int:
        """Number of interior unknowns, (M-1)**dim."""
        return (self.num_cells - 1) ** self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        """Interior nodes per axis, (M-1,)*dim."""
        return (self.num_cells - 1,) * self.dim

    @property
    def axis_nodes(self) -> np.ndarray:
        """Interior node coordinates along one axis, shape (M-1,)."""
        return self.h * np.arange(1, self.num_cells)

    def interior_coords(self) -> tuple[np.ndarray, ...]:
        """Coordinates of all interior nodes, one flat array per axis.

        The flattening is C order with the first axis outermost; every
        flattened field in this package uses the same ordering.
        """
        axes = np.meshgrid(*[self.axis_nodes] * self.dim, indexing="ij")
        return tuple(axis.ravel() for axis in axes)


def build_grid(dim: int, length: float, num_cells: int) -> SpatialGrid:
    """Construct a uniform interior-only Dirichlet grid."""
    return SpatialGrid(dim=dim, length=length, num_cells=num_cells)


def _check_field(values, grid: SpatialGrid) -> np.ndarray:
    """``values`` as an array whose trailing axis holds one field of the grid."""
    values = np.asarray(values)
    if values.shape[-1] != grid.n_interior:
        raise ValueError(
            f"field has {values.shape[-1]} entries, grid has {grid.n_interior}"
        )
    return values


def grid_norm(values: np.ndarray, grid: SpatialGrid) -> float:
    """Discrete L2 norm, the vector 2-norm weighted by h**(dim/2).

    When the squares of finite values overflow, the norm is taken again of
    the values scaled by a power of two near 1/max|values|, which is exact.
    """
    values = _check_field(values, grid)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(values)
    if np.isinf(norm) and np.isfinite(values).all():
        scale = np.ldexp(1.0, -int(np.frexp(np.abs(values).max())[1]))
        norm = np.linalg.norm(values * scale) / scale
    return float(grid.h ** (grid.dim / 2.0) * norm)


def apply_laplacian(grid: SpatialGrid, values: np.ndarray) -> np.ndarray:
    """Finite difference Laplacian of fields on the grid's interior nodes.

    The (2*dim+1)-point stencil scaled by 1/h**2, with the Dirichlet zeros
    left out. It acts on the trailing axis of ``values``, so a whole stack
    of time slices is differentiated in one call.
    """
    values = _check_field(values, grid)
    field = values.reshape(values.shape[:-1] + grid.shape)
    out = (-2.0 * grid.dim) * field
    for axis in range(-grid.dim, 0):
        after = (slice(None),) * (-1 - axis)
        upper = (..., slice(1, None)) + after
        lower = (..., slice(None, -1)) + after
        out[upper] += field[lower]
        out[lower] += field[upper]
    out *= 1.0 / grid.h**2
    return out.reshape(values.shape)


@functools.lru_cache(maxsize=8)
def laplacian_matrix(grid: SpatialGrid) -> scipy.sparse.csr_matrix:
    """The stencil of apply_laplacian as a CSR matrix, cached per grid.

    The 1D matrix is tridiagonal; the 2D one is its Kronecker sum
    kron(lap1, I) + kron(I, lap1). Each matrix holds about 2*dim+1 fields,
    so fewer grids are kept than by laplacian_eigenvalues.
    """
    m = grid.num_cells - 1
    inv_h2 = 1.0 / grid.h**2
    lap1 = scipy.sparse.diags([inv_h2, -2.0 * inv_h2, inv_h2], [-1, 0, 1], shape=(m, m))
    eye = scipy.sparse.identity(m)
    terms = [
        functools.reduce(
            scipy.sparse.kron, [lap1 if a == axis else eye for a in range(grid.dim)]
        )
        for axis in range(grid.dim)
    ]
    return sum(terms[1:], terms[0]).tocsr()


@dataclass(frozen=True)
class SpatialSpectrum:
    """Sine-mode eigendecomposition of -lap on a grid.

    ``eigenvalues`` is the ascending spectrum of -lap (all positive).
    ``mode_eigenvalues`` holds the same values laid out to match the
    coefficient ordering of :meth:`transform`, which differs from ascending
    order in 2D (tensor outer sum, C order).

    The transform is the orthonormal DST-I per axis; it is involutory, so
    :meth:`transform` is also its own inverse.
    """

    grid: SpatialGrid
    eigenvalues: np.ndarray
    mode_eigenvalues: np.ndarray

    def transform(self, field: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Orthonormal sine transform along the trailing (space) axis.

        With ``overwrite`` the result goes into ``field`` itself, a float64 or
        complex128 array, and that array is returned.
        """
        field = _check_field(field, self.grid)
        out = field.reshape(field.shape[:-1] + self.grid.shape)
        for axis in range(-1, -self.grid.dim - 1, -1):
            # after the first pass the result is ours to overwrite either way
            out = scipy.fft.dst(
                out, type=1, norm="ortho", axis=axis, overwrite_x=overwrite or axis < -1
            )
        out = out.reshape(field.shape)
        if not overwrite:
            return out
        if not np.may_share_memory(out, field):
            # scipy may decline to work in place; the result still goes here.
            field[...] = out
        return field


@functools.lru_cache(maxsize=64)
def laplacian_eigenvalues(grid: SpatialGrid) -> SpatialSpectrum:
    """Eigenvalues of -lap with the matching sine-transform handles.

    1D eigenvalues are (4/h**2) sin(k pi / (2M))**2 for k = 1..M-1; the 2D
    spectrum is all pairwise sums. Results are cached per grid.
    """
    k = np.arange(1, grid.num_cells)
    mu1 = (4.0 / grid.h**2) * np.sin(k * np.pi / (2.0 * grid.num_cells)) ** 2
    mode_mu = functools.reduce(np.add.outer, [mu1] * grid.dim).ravel()
    return SpatialSpectrum(
        grid=grid,
        eigenvalues=np.sort(mode_mu),
        mode_eigenvalues=mode_mu,
    )


def _check_shifts(shifts: np.ndarray, spectrum: SpatialSpectrum) -> None:
    """Reject shifts s for which some |s + mu_k| is negligibly small.

    Rounded addition and abs are monotone in mu, so over the ascending
    spectrum the smallest |s + mu_k| sits at one of the two eigenvalues next
    to -Re s: the decision is that of a scan over all modes, in O(log M)
    per shift.
    """
    eigenvalues = spectrum.eigenvalues
    above = np.searchsorted(eigenvalues, -shifts.real)
    below = np.maximum(above - 1, 0)
    np.minimum(above, eigenvalues.size - 1, out=above)
    nearest = np.minimum(
        np.abs(shifts + eigenvalues[below]), np.abs(shifts + eigenvalues[above])
    )
    bad = nearest <= 1e-14 * np.abs(shifts)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise SingularShiftError(
            f"shift {j} ({shifts[j]}) lies within 1e-14*|s| of an eigenvalue "
            f"of the Laplacian; the shifted operator is numerically singular"
        )


def shifted_solve(
    grid: SpatialGrid, shifts: np.ndarray, rhs: np.ndarray, write
) -> None:
    """Solve (s*I - lap) x = rhs on the grid's interior nodes, for each shift s.

    ``shifts`` is a 1-D array of k shifts, taken as complex128. The
    solutions go to ``write`` batch by batch: write(lo, hi, rows) receives
    the complex solutions for shifts[lo:hi], one per row, in the scratch
    array of the thread that solved them, and must copy out what it keeps.
    The batches cover disjoint row ranges, and calls from different threads
    may overlap in time.

    The shifts are checked once and rhs is sine-transformed once; then each
    batch of rows divides those coefficients by (s + mu_k) in a scratch
    array of its thread, at most BATCH_BYTES, and transforms back in place,
    exact up to roundoff, O(k N log M). The batches are dealt round-robin
    into one share per CPU of the process (at most one per batch); the
    calling thread solves the first share and helper threads, started for
    this call only, the others. Every helper has finished when this returns
    or raises.

    Raises:
        SingularShiftError: some |s + mu_k| is below 1e-14*|s|; the message
            names the index of the first such shift.
    """
    rhs = np.asarray(rhs)
    if rhs.shape != (grid.n_interior,):
        raise ValueError(f"rhs must have shape ({grid.n_interior},), got {rhs.shape}")
    shifts = np.asarray(shifts, dtype=np.complex128)
    if shifts.ndim != 1:
        raise ValueError(f"shifts must be 1-D, got shape {shifts.shape}")
    spectrum = laplacian_eigenvalues(grid)
    _check_shifts(shifts, spectrum)
    coeffs = spectrum.transform(rhs)
    bounds = level_batches(0, shifts.size, grid.n_interior * shifts.itemsize)

    def solve_rows(share):
        rows_max = max((hi - lo for lo, hi in share), default=0)
        scratch = np.empty((rows_max, grid.n_interior), dtype=np.complex128)
        for lo, hi in share:
            rows = scratch[: hi - lo]
            np.add.outer(shifts[lo:hi], spectrum.mode_eigenvalues, out=rows)
            np.divide(coeffs, rows, out=rows)
            spectrum.transform(rows, overwrite=True)
            write(lo, hi, rows)

    workers = max(1, min(WORKERS, len(bounds)))
    # The pool starts a thread per submit only, so one share starts none; its
    # exit waits for the helpers, so none calls write after a raise.
    with concurrent.futures.ThreadPoolExecutor(max(1, workers - 1)) as pool:
        helpers = [
            pool.submit(solve_rows, bounds[w::workers]) for w in range(1, workers)
        ]
        solve_rows(bounds[::workers])
        for helper in helpers:
            helper.result()
