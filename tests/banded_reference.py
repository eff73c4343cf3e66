"""Direct banded/sparse shifted solves, a cross-check for the spectral solver.

One elimination per shift, tridiagonal in 1D and sparse LU in 2D; it shares
nothing with the sine-transform path but the grid and the Laplacian stencil.
"""

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from bhcp.space import SpatialGrid, laplacian_matrix


def banded_solve(grid: SpatialGrid, shift: complex, rhs: np.ndarray) -> np.ndarray:
    """Solve (shift*I - lap) x = rhs on the grid's interior nodes, in complex."""
    rhs = np.asarray(rhs, dtype=np.complex128)
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
        - laplacian_matrix(grid)
    ).tocsc()
    return scipy.sparse.linalg.splu(matrix).solve(rhs)
