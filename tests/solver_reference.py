"""References the solvers are checked against: sine modes, marching, residuals.

Each is built from the package's public pieces by the plainest route: a mode
entry by entry from its sine formula, the forward recursion one real sine-space
step per time step, the operator as its two factors on the whole stacked
array, and the residual as the full vector rhs - A y. solve_shifts gathers
shifted_solve's batches into one array, for checks of its solutions.
"""

import functools

import numpy as np

from bhcp.circulant import TimeGrid
from bhcp.methods import AllAtOnceSystem
from bhcp.space import (
    SpatialGrid,
    apply_laplacian,
    laplacian_eigenvalues,
    shifted_solve,
)


def sine_mode(grid: SpatialGrid, index) -> np.ndarray:
    """Orthonormal discrete sine mode as a flat interior-node vector.

    ``index`` holds a 1-based mode number per axis: an int in 1D, a pair
    (k1, k2) in 2D.
    """
    m = grid.num_cells - 1
    numbers = np.atleast_1d(index)
    if numbers.shape != (grid.dim,):
        raise ValueError(f"mode index {index!r} needs {grid.dim} mode number(s)")
    if not all(1 <= k <= m for k in numbers):
        raise ValueError(f"mode index {index} out of range 1..{m}")
    j = np.arange(1, m + 1)
    factors = [
        np.sqrt(2.0 / (m + 1)) * np.sin(int(k) * j * np.pi / (m + 1))
        for k in numbers
    ]
    return functools.reduce(np.multiply.outer, factors).ravel()


def march_forward(
    initial: np.ndarray, timegrid: TimeGrid, grid: SpatialGrid
) -> np.ndarray:
    """Run the plain backward Euler recursion from a given initial state.

    Each step solves (I/tau - lap) y^n = y^{n-1}/tau in real arithmetic: a
    sine transform, a division by 1/tau + mu_k per mode, and the transform
    back. Marching the reconstructed initial state forward and plugging it
    into a method's final condition is an end-to-end consistency check that
    does not reuse the all-at-once machinery.
    """
    state = np.asarray(initial, dtype=float)
    spectrum = laplacian_eigenvalues(grid)
    inv_tau = 1.0 / timegrid.tau
    for _ in range(timegrid.num_steps):
        coeffs = spectrum.transform(state * inv_tau)
        state = spectrum.transform(coeffs / (inv_tau + spectrum.mode_eigenvalues))
    return state


def solve_shifts(grid: SpatialGrid, shifts, rhs) -> np.ndarray:
    """shifted_solve's solutions, one per shift, as rows of a (k, n) array."""
    shifts = np.asarray(shifts)
    out = np.empty((shifts.size, grid.n_interior), dtype=complex)

    def write(lo, hi, rows):
        out[lo:hi] = rows

    shifted_solve(grid, shifts, rhs, write)
    return out


def apply(system: AllAtOnceSystem, states: np.ndarray) -> np.ndarray:
    """Operator action K Y - switch * lap(Y) on stacked states, shape kept.

    Y is the (n_levels, n_space) view of ``states``; the switch is the
    system's per-level Laplacian flag.
    """
    states = np.asarray(states)
    mat = states.reshape(system.n_levels, system.n_space)
    switch = system.lap_levels[:, None]
    out = system.time_coupling @ mat - switch * apply_laplacian(system.grid, mat)
    return out.reshape(states.shape)


def residual(system: AllAtOnceSystem, states: np.ndarray) -> tuple[np.ndarray, float]:
    """Residual vector rhs - A y and its norm relative to the rhs.

    The rhs is zero off level 0, so its norm is taken over that level alone.
    """
    vec = system.rhs() - apply(system, np.asarray(states).ravel())
    level0 = system.condition_rhs()
    return vec, float(np.linalg.norm(vec) / np.linalg.norm(level0))
