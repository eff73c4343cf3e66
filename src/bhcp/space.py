"""Uniform Dirichlet grids, the discrete Laplacian, and fast sine-spectral solves.

Everything here acts on interior-node vectors only: homogeneous Dirichlet
values are eliminated, so a grid with M subdivisions per edge carries
(M-1)**dim unknowns. The discrete Laplacian diagonalizes in the orthonormal
sine basis, which gives O(N log M) solves of (s*I - lap) for arbitrary
complex shifts s. Those shifted solves are the spatial kernel of every
solver in this package.

The module also holds the level-batch pool: every batched pass over a
time-major space-time block maps its batches of time levels through
map_level_batches, which runs them on all CPUs of the process.
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


@functools.cache
def _executor() -> concurrent.futures.ThreadPoolExecutor:
    return concurrent.futures.ThreadPoolExecutor(max_workers=WORKERS)


# A forked child has none of the parent's threads; it makes its own pool.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_executor.cache_clear)


def map_level_batches(fn, start: int, stop: int, row_nbytes: int) -> list:
    """Return [fn(lo, hi), ...] over batches of time levels covering [start, stop).

    Each batch holds at most BATCH_BYTES of rows of ``row_nbytes`` bytes (at
    least one row); the split depends on nothing else. The batches run on a
    thread pool with one worker per CPU of the process, inline when there is
    one CPU or one batch, so two calls of ``fn`` must never write to the same
    place, and ``fn`` must not use the pool itself (it could wait on its own
    worker). Results come back in batch order. Every batch has finished when
    this returns or raises; an exception is that of the first failed batch.
    """
    step = max(1, BATCH_BYTES // max(row_nbytes, 1))
    bounds = [(lo, min(lo + step, stop)) for lo in range(start, stop, step)]
    if WORKERS == 1 or len(bounds) <= 1:
        return [fn(lo, hi) for lo, hi in bounds]
    futures = [_executor().submit(fn, lo, hi) for lo, hi in bounds]
    concurrent.futures.wait(futures)
    return [future.result() for future in futures]


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
    def axis_nodes(self) -> np.ndarray:
        """Interior node coordinates along one axis, shape (M-1,)."""
        return self.h * np.arange(1, self.num_cells)

    def interior_coords(self) -> tuple[np.ndarray, ...]:
        """Coordinates of all interior nodes, one flat array per axis.

        In 2D the flattening is C order with the first axis outermost; every
        flattened field in this package uses the same ordering.
        """
        x = self.axis_nodes
        if self.dim == 1:
            return (x,)
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        return (x1.ravel(), x2.ravel())


def build_grid(dim: int, length: float, num_cells: int) -> SpatialGrid:
    """Construct a uniform interior-only Dirichlet grid."""
    return SpatialGrid(dim=dim, length=length, num_cells=num_cells)


def grid_norm(values: np.ndarray, grid: SpatialGrid) -> float:
    """Discrete L2 norm, the vector 2-norm weighted by h**(dim/2)."""
    values = np.asarray(values)
    if values.shape[-1] != grid.n_interior:
        raise ValueError(
            f"field has {values.shape[-1]} entries, grid has {grid.n_interior}"
        )
    return float(grid.h ** (grid.dim / 2.0) * np.linalg.norm(values))


class LaplacianOperator:
    """Finite difference Laplacian on interior nodes (Dirichlet boundaries).

    3-point stencil in 1D and 5-point stencil in 2D, scaled by 1/h**2. The
    operator acts on the trailing axis of an array, so a whole stack of time
    slices can be differentiated in one call. ``sparse()`` returns the
    explicit CSR form (cached).
    """

    def __init__(self, grid: SpatialGrid):
        self.grid = grid
        self._sparse = None

    def apply(self, values: np.ndarray) -> np.ndarray:
        grid = self.grid
        values = np.asarray(values)
        if values.shape[-1] != grid.n_interior:
            raise ValueError(
                f"field has {values.shape[-1]} entries, grid has {grid.n_interior}"
            )
        inv_h2 = 1.0 / grid.h**2
        if grid.dim == 1:
            out = -2.0 * values
            out[..., 1:] += values[..., :-1]
            out[..., :-1] += values[..., 1:]
            return out * inv_h2
        m = grid.num_cells - 1
        square = values.reshape(values.shape[:-1] + (m, m))
        out = -4.0 * square
        out[..., 1:, :] += square[..., :-1, :]
        out[..., :-1, :] += square[..., 1:, :]
        out[..., :, 1:] += square[..., :, :-1]
        out[..., :, :-1] += square[..., :, 1:]
        return (out * inv_h2).reshape(values.shape)

    __call__ = apply

    def sparse(self) -> scipy.sparse.csr_matrix:
        if self._sparse is None:
            m = self.grid.num_cells - 1
            inv_h2 = 1.0 / self.grid.h**2
            lap1 = scipy.sparse.diags(
                [inv_h2, -2.0 * inv_h2, inv_h2], [-1, 0, 1], shape=(m, m)
            )
            if self.grid.dim == 1:
                self._sparse = lap1.tocsr()
            else:
                eye = scipy.sparse.identity(m)
                self._sparse = (
                    scipy.sparse.kron(lap1, eye) + scipy.sparse.kron(eye, lap1)
                ).tocsr()
        return self._sparse


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
        grid = self.grid
        field = np.asarray(field)
        if field.shape[-1] != grid.n_interior:
            raise ValueError(
                f"field has {field.shape[-1]} entries, grid has {grid.n_interior}"
            )
        if grid.dim == 1:
            out = scipy.fft.dst(
                field, type=1, norm="ortho", axis=-1, overwrite_x=overwrite
            )
        else:
            m = grid.num_cells - 1
            square = field.reshape(field.shape[:-1] + (m, m))
            out = scipy.fft.dst(
                square, type=1, norm="ortho", axis=-1, overwrite_x=overwrite
            )
            # the first pass's result is ours to overwrite either way
            out = scipy.fft.dst(out, type=1, norm="ortho", axis=-2, overwrite_x=True)
            out = out.reshape(field.shape)
        if not overwrite:
            return out
        if not np.may_share_memory(out, field):
            # scipy may decline to work in place; the result still goes here.
            field[...] = out
        return field

    def mode(self, index) -> np.ndarray:
        """Orthonormal discrete sine mode as a flat interior-node vector.

        ``index`` is a 1-based mode number in 1D or a pair (k1, k2) in 2D.
        """
        m = self.grid.num_cells - 1
        j = np.arange(1, m + 1)
        if self.grid.dim == 1:
            k = int(index)
            if not 1 <= k <= m:
                raise ValueError(f"mode index {k} out of range 1..{m}")
            return np.sqrt(2.0 / (m + 1)) * np.sin(k * j * np.pi / (m + 1))
        k1, k2 = index
        if not (1 <= k1 <= m and 1 <= k2 <= m):
            raise ValueError(f"mode index {(k1, k2)} out of range 1..{m}")
        s1 = np.sqrt(2.0 / (m + 1)) * np.sin(k1 * j * np.pi / (m + 1))
        s2 = np.sqrt(2.0 / (m + 1)) * np.sin(k2 * j * np.pi / (m + 1))
        return np.outer(s1, s2).ravel()


@functools.lru_cache(maxsize=64)
def laplacian_eigenvalues(grid: SpatialGrid) -> SpatialSpectrum:
    """Eigenvalues of -lap with the matching sine-transform handles.

    1D eigenvalues are (4/h**2) sin(k pi / (2M))**2 for k = 1..M-1; the 2D
    spectrum is all pairwise sums. Results are cached per grid.
    """
    m = grid.num_cells - 1
    k = np.arange(1, m + 1)
    mu1 = (4.0 / grid.h**2) * np.sin(k * np.pi / (2.0 * grid.num_cells)) ** 2
    if grid.dim == 1:
        mode_mu = mu1
    else:
        mode_mu = np.add.outer(mu1, mu1).ravel()
    return SpatialSpectrum(
        grid=grid,
        eigenvalues=np.sort(mode_mu),
        mode_eigenvalues=mode_mu,
    )


def sine_transform(grid: SpatialGrid, field: np.ndarray) -> np.ndarray:
    """Orthonormal sine transform of an interior-node field; its own inverse."""
    return laplacian_eigenvalues(grid).transform(field)


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
    grid: SpatialGrid,
    shift: complex | np.ndarray,
    rhs: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Solve (s*I - lap) x = rhs on the grid's interior nodes, for each shift s.

    ``shift`` is one complex number or a 1-D array of k of them. The result
    has the shape of ``rhs`` for a single shift and shape (k, n_interior),
    one solution per row, for an array. It is real when every shift and the
    right-hand side are real, complex otherwise.

    The shifts are checked once and rhs is sine-transformed once; then each
    batch of rows divides those coefficients by (s + mu_k) and transforms
    back in place, exact up to roundoff, O(k N log M). The batches run on
    the level-batch pool, so this must not be called from inside a
    map_level_batches function.

    ``out``, allowed only with an array of shifts, receives the result and
    is returned; it must be a C-contiguous array of shape (k, n_interior)
    and the result's dtype.

    Raises:
        SingularShiftError: some |s + mu_k| is below 1e-14*|s|; the message
            names the index of the first such shift.
    """
    rhs = np.asarray(rhs)
    if rhs.shape != (grid.n_interior,):
        raise ValueError(f"rhs must have shape ({grid.n_interior},), got {rhs.shape}")
    shifts = np.asarray(shift)
    if shifts.ndim > 1:
        raise ValueError(f"shift must be a scalar or 1-D, got shape {shifts.shape}")
    real_data = not np.any(np.imag(shifts)) and not np.iscomplexobj(rhs)
    dtype = np.float64 if real_data else np.complex128
    shifts = np.atleast_1d(shifts.real if real_data else shifts).astype(dtype)
    shape = (shifts.size, grid.n_interior)
    if out is None:
        out = np.empty(shape, dtype=dtype)
    elif np.ndim(shift) != 1:
        raise ValueError("out is only accepted with a 1-D array of shifts")
    elif (
        not isinstance(out, np.ndarray)
        or out.shape != shape
        or out.dtype != dtype
        or not out.flags.c_contiguous
    ):
        raise ValueError(
            f"out must be a C-contiguous {np.dtype(dtype)} array of shape {shape}"
        )
    spectrum = laplacian_eigenvalues(grid)
    _check_shifts(shifts, spectrum)
    coeffs = spectrum.transform(rhs)

    def solve_rows(lo, hi):
        rows = out[lo:hi]
        np.add.outer(shifts[lo:hi], spectrum.mode_eigenvalues, out=rows)
        np.divide(coeffs, rows, out=rows)
        spectrum.transform(rows, overwrite=True)

    map_level_batches(solve_rows, 0, shifts.size, grid.n_interior * out.itemsize)
    return out if np.ndim(shift) else out[0]
