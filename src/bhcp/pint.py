"""Direct all-at-once solver via FFT diagonalization of the time coupling.

Applies only to the circulant method kinds. Writing the system as
(1/tau) C⊗I - I⊗lap and factoring C = V diag(d) V^{-1} turns the coupled
solve into three steps on one time-major (n_levels, n_space) complex block:

- Step A rotates the right-hand side into the eigenbasis. It is nonzero only
  on level 0, and V^{-1} e_0 = 1/sqrt(N+1) because gamma_0 = 1, so every
  rotated level is the same field rhs_0 / sqrt(N+1): no time FFT is needed.
- Step B solves (d_j/tau - lap) x_j = that field for every level j. omega is
  a negative real for both circulant kinds, so d_{N-j} = conj(d_j), and with
  a real field x_{N-j} = conj(x_j). Only the first ceil((N+1)/2) levels are
  solved, by one call of space.shifted_solve that transforms the field once
  and writes its batches of levels straight into the block; one conjugating
  copy then fills in the other levels.
- Step C rotates back with one in-place FFT along the time axis plus the
  realness check (circulant.from_eigenspace), and builds the real trajectory
  in the block's own memory. The FFT runs on scipy's workers, the rest in
  the calling thread.

Step B's batches are the only work the package runs on threads of its own:
shifted_solve spreads them over the CPUs the process may run on for that one
call, and the result is bitwise the same as on one CPU.

The whole solver runs in O(n_space * n_levels * (log n_levels + log M)), and
its peak memory is the complex block, about two trajectories. A block over
BLOCK_BUDGET is refused before anything is allocated.
"""

from __future__ import annotations

import time

import numpy as np

from .circulant import diagonalize, from_eigenspace
from .methods import AllAtOnceSystem, SolveResult
from .space import shifted_solve

# Largest complex block, in bytes, that solve_pint allocates; bigger systems
# are refused as infeasible.
BLOCK_BUDGET = 2**31


def solve_pint(system: AllAtOnceSystem) -> SolveResult:
    """Solve a circulant-kind all-at-once system by FFT diagonalization.

    Records per-phase wall clock under timings["step_a"/"step_b"/"step_c"]
    plus their sum as "total"; step A includes the diagonalization of the
    time coupling. The returned trajectory is real; a non-roundoff imaginary
    residue in the back rotation raises instead of being silently dropped.

    When the (n_levels, n_space) complex block would exceed BLOCK_BUDGET
    bytes the solve is refused with status "infeasible", no trajectory and
    no timings, before any work.
    """
    if not system.method.kind.is_circulant:
        raise ValueError(
            f"{system.method.kind.value} has no circulant time coupling; "
            f"use the sparse baseline"
        )
    n_levels, n_space = system.n_levels, system.n_space
    block_nbytes = 16 * n_levels * n_space
    if block_nbytes > BLOCK_BUDGET:
        return SolveResult(
            system=system,
            trajectory=None,
            solver="pint",
            status="infeasible",
            message=f"block of {block_nbytes} bytes exceeds the budget {BLOCK_BUDGET}",
        )

    start = time.perf_counter()
    diag = diagonalize(n_levels, system.omega)
    field = system.condition_rhs() / np.sqrt(n_levels)
    t_a = time.perf_counter()

    block = np.empty((n_levels, n_space), dtype=np.complex128)
    shifts = diag.eigenvalues / system.timegrid.tau
    half = (n_levels + 1) // 2
    # The middle level of an odd level count is its own conjugate.
    paired = n_levels - half

    shifted_solve(system.grid, shifts[:half], field, out=block[:half])
    # Level N-j is the conjugate of level j; the two ranges do not overlap.
    np.conjugate(block[:paired][::-1], out=block[half:])
    t_b = time.perf_counter()

    trajectory = from_eigenspace(block, diag)
    t_c = time.perf_counter()

    timings = {
        "step_a": t_a - start,
        "step_b": t_b - t_a,
        "step_c": t_c - t_b,
        "total": t_c - start,
    }
    return SolveResult(
        system=system, trajectory=trajectory, solver="pint", timings=timings
    )
