"""Direct all-at-once solver via FFT diagonalization of the time coupling.

Applies only to the circulant method kinds. Writing the system as
(1/tau) C⊗I - I⊗lap and factoring C = V diag(d) V^{-1} turns the coupled
solve into three steps. The eigenspace block z they pass along, one level
z_j per time level, is complex, but V z is the real trajectory, so z lives in
one packed complex block W of shape (n_levels, ceil(n_space/2)), the size of
the trajectory; circulant holds its layout (pack_levels, from_eigenspace).

- Step A rotates the right-hand side into the eigenbasis. It is nonzero only
  on level 0, and V^{-1} e_0 = 1/sqrt(N+1) because gamma_0 = 1, so every
  rotated level is the same field rhs_0 / sqrt(N+1): no time FFT is needed.
- Step B solves (d_j/tau - lap) z_j = that field for every level j. omega is
  a negative real for both circulant kinds, so d_{N-j} = conj(d_j), and with
  a real field z_{N-j} = conj(z_j). Only the first ceil((N+1)/2) levels are
  solved, by one call of space.shifted_solve that transforms the field once;
  circulant.pack_levels writes each of its batches, and the mirror levels,
  into W from the solving thread's scratch. No shift s needs a check: for
  n = N+1 levels d_j = 1 - |omega|^(1/n) e^(i pi (2j+1)/n), so |s + mu_k|
  >= |s| if Re s >= 0 and |Im s| >= |s| sin(pi/n)/2 otherwise; BLOCK_BUDGET
  keeps n <= 2**27, so every |s + mu_k| is above 1e-8 |s|.
- Step C rotates back with one in-place FFT along the time axis and one
  pass that applies Gamma^{-1} (circulant.from_eigenspace); the float64 view
  of W is then the real trajectory. The FFT runs on scipy's workers, the
  rest in the calling thread.

Step B's batches are the only work the package runs on threads of its own:
shifted_solve spreads them over the CPUs the process may run on for that one
call, and the result is bitwise the same as on one CPU.

The whole solver runs in O(n_space * n_levels * (log n_levels + log M)), and
its peak memory is about one trajectory. After the overflow check every
solver shares, it refuses a block over BLOCK_BUDGET and a change of basis
whose roundoff bound cond(Gamma) * eps_mach is over ERROR_BOUND_LIMIT, all
before anything is allocated; SolveResult lists every solver's refusals.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from .circulant import diagonalize, from_eigenspace, gamma_condition, pack_levels
from .methods import AllAtOnceSystem, SolveResult, reuse
from .space import shifted_solve

# Largest packed block, in bytes, that solve_pint allocates; bigger systems
# are refused as infeasible.
BLOCK_BUDGET = 2**31

# Largest cond(Gamma) * eps_mach that solve_pint admits. The change of basis
# amplifies roundoff by cond(Gamma), and on every solved case of a sweep over
# alpha in [1e-12, 1e-7], both kinds, 1D and 2D, the trajectory's relative gap
# to the exact per-mode solve stayed under 0.42 of that bound. Past it the
# gap could exceed criterion 1's 1e-7, so such a solve is refused.
ERROR_BOUND_LIMIT = 1e-7


def solve_pint(
    system: AllAtOnceSystem, known: SolveResult | None = None
) -> SolveResult:
    """Solve a circulant-kind all-at-once system by FFT diagonalization.

    Records per-phase wall clock under timings["step_a"/"step_b"/"step_c"]
    plus their sum as "total"; step A includes the diagonalization of the
    time coupling. The returned trajectory is real.

    When ``known`` is a result for a bitwise equal system
    (AllAtOnceSystem.same_as), nothing is solved: the result shares its
    trajectory and is marked shared (methods.reuse).

    After the overflow check every solver shares, made before omega is
    formed, its own refusals come before any work: a complex block of shape
    (n_levels, ceil(n_space/2)) over BLOCK_BUDGET bytes, then a roundoff
    bound over ERROR_BOUND_LIMIT (SolveResult lists them).
    """
    shared = reuse(known, system)
    if shared is not None:
        return shared
    if not system.method.kind.is_circulant:
        raise ValueError(
            f"{system.method.kind.value} has no circulant time coupling; "
            f"use the sparse baseline"
        )
    overflow = system.overflow()
    if overflow is not None:
        return SolveResult.refused(system, "pint", "ill-conditioned", overflow)
    n_levels, n_space = system.n_levels, system.n_space
    width = (n_space + 1) // 2
    block_nbytes = 16 * n_levels * width
    if block_nbytes > BLOCK_BUDGET:
        return SolveResult.refused(
            system, "pint", "infeasible",
            f"block of {block_nbytes} bytes exceeds the budget {BLOCK_BUDGET}",
        )
    error_bound = gamma_condition(n_levels, system.omega) * np.finfo(float).eps
    if error_bound > ERROR_BOUND_LIMIT:
        return SolveResult.refused(
            system, "pint", "ill-conditioned",
            f"error bound cond(Gamma)*eps = {error_bound:.3e} exceeds "
            f"{ERROR_BOUND_LIMIT:.0e}",
        )

    start = time.perf_counter()
    diag = diagonalize(n_levels, system.omega)
    field = system.condition_rhs() / np.sqrt(n_levels)
    t_a = time.perf_counter()

    block = np.empty((n_levels, width), dtype=np.complex128)
    # the levels past the middle are the conjugates of those before it
    shifts = diag.eigenvalues[: (n_levels + 1) // 2] / system.timegrid.tau
    shifted_solve(system.grid, shifts, field, functools.partial(pack_levels, block))
    t_b = time.perf_counter()

    trajectory = from_eigenspace(block, diag, n_space)
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
