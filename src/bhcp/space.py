"""Uniform Dirichlet grids, the discrete Laplacian, and fast sine-spectral solves.

Everything here acts on interior-node vectors only: homogeneous Dirichlet
values are eliminated, so a grid with M subdivisions per edge carries
(M-1)**dim unknowns. The discrete Laplacian diagonalizes in the orthonormal
sine basis, which gives O(N log M) solves of (s*I - lap) for arbitrary
complex shifts s. Those shifted solves are the spatial kernel of every
solver in this package.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg


# Target size of one batch of time levels when a solver works through a
# space-time block level by level: big enough to amortize per-call overhead,
# small enough that a batch's temporaries stay in cache.
BATCH_BYTES = 2 * 1024**2


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

    def transform(self, field: np.ndarray) -> np.ndarray:
        """Orthonormal sine transform along the trailing (space) axis."""
        grid = self.grid
        field = np.asarray(field)
        if field.shape[-1] != grid.n_interior:
            raise ValueError(
                f"field has {field.shape[-1]} entries, grid has {grid.n_interior}"
            )
        if grid.dim == 1:
            return scipy.fft.dst(field, type=1, norm="ortho", axis=-1)
        m = grid.num_cells - 1
        square = field.reshape(field.shape[:-1] + (m, m))
        out = scipy.fft.dst(square, type=1, norm="ortho", axis=-1)
        out = scipy.fft.dst(out, type=1, norm="ortho", axis=-2)
        return out.reshape(field.shape)

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


def _check_shifts(shifts: np.ndarray, denominators: np.ndarray) -> None:
    """Reject shifts s for which some |s + mu_k| is negligibly small.

    Row j of ``denominators`` holds shifts[j] + mu_k over all modes k.
    """
    bad = np.min(np.abs(denominators), axis=1) <= 1e-14 * np.abs(shifts)
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
    backend: str = "spectral",
) -> np.ndarray:
    """Solve (s*I - lap) x = rhs on the grid's interior nodes, for each shift s.

    ``shift`` is one complex number or a 1-D array of k of them. The result
    has the shape of ``rhs`` for a single shift and shape (k, n_interior),
    one solution per row, for an array.

    The default backend transforms rhs once, divides its sine coefficients
    by (s + mu_k) for all shifts in one broadcast, and transforms all rows
    back in one batched call: exact up to roundoff, O(k N log M). The
    "banded" backend runs one direct banded/sparse elimination per shift
    (tridiagonal in 1D) and exists as an independent cross-check and for
    cost comparisons.

    The result is real when every shift and the right-hand side are real,
    complex otherwise.

    Raises:
        SingularShiftError: some |s + mu_k| is below 1e-14*|s|; the message
            names the index of the first such shift.
    """
    rhs = np.asarray(rhs)
    if rhs.shape != (grid.n_interior,):
        raise ValueError(f"rhs must have shape ({grid.n_interior},), got {rhs.shape}")
    if backend not in ("spectral", "banded"):
        raise ValueError(f"unknown backend {backend!r}")
    shifts = np.asarray(shift)
    if shifts.ndim > 1:
        raise ValueError(f"shift must be a scalar or 1-D, got shape {shifts.shape}")
    real_data = not np.any(np.imag(shifts)) and not np.iscomplexobj(rhs)
    shifts = np.atleast_1d(shifts).astype(np.float64 if real_data else np.complex128)
    spectrum = laplacian_eigenvalues(grid)
    denominators = np.add.outer(shifts, spectrum.mode_eigenvalues)
    _check_shifts(shifts, denominators)

    if backend == "spectral":
        np.divide(spectrum.transform(rhs), denominators, out=denominators)
        out = spectrum.transform(denominators)
    else:
        out = np.stack([_banded_solve(grid, s, rhs) for s in shifts])
        if real_data:
            out = out.real
    return out if np.ndim(shift) else out[0]


def _banded_solve(grid: SpatialGrid, shift: complex, rhs: np.ndarray) -> np.ndarray:
    rhs = rhs.astype(np.complex128)
    inv_h2 = 1.0 / grid.h**2
    m = grid.num_cells - 1
    if grid.dim == 1:
        bands = np.zeros((3, m), dtype=np.complex128)
        bands[0, 1:] = -inv_h2
        bands[1, :] = shift + 2.0 * inv_h2
        bands[2, :-1] = -inv_h2
        return scipy.linalg.solve_banded((1, 1), bands, rhs)
    matrix = (
        shift * scipy.sparse.identity(grid.n_interior, dtype=np.complex128)
        - LaplacianOperator(grid).sparse()
    ).tocsc()
    return scipy.sparse.linalg.splu(matrix).solve(rhs)
