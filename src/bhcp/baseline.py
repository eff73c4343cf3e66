"""Reference solvers: a generic sparse LU and a per-mode closed form.

The sparse LU factors the explicit all-at-once matrix with no structure
exploitation; it is the honest comparator for the fast solver's speedup
claims and the only solver for the classic method kinds. A nonzero budget
guards it: past the budget it refuses as "infeasible" rather than grinding
(SolveResult lists every solver's refusals). SuperLU (scipy.sparse.linalg)
is imported by the first admitted solve, so a process that runs only the
pint solver or the oracle never loads it.

The spectral closed form eliminates the stepping rows per sine mode. With
rho = 1/(1 + tau*mu) the k-th mode of every level obeys yhat^n = rho^n *
yhat^0, and the final-condition row collapses to a scalar denominator per
mode. It is exact up to roundoff and serves as the oracle the real solvers
are validated against; it would be cheating to benchmark with it, so the CLI
only exposes it behind an explicit solver flag.
"""

from __future__ import annotations

import time

import numpy as np

from .circulant import TimeGrid
from .methods import AllAtOnceSystem, MethodKind, SolveResult, assemble, reuse
from .space import SpatialGrid, laplacian_eigenvalues, largest_eigenvalue

# Largest estimated nonzero count of the all-at-once matrix that
# solve_sparse_lu factors; bigger systems are refused as infeasible.
NNZ_BUDGET = 8_000_000


def solve_sparse_lu(
    system: AllAtOnceSystem,
    nnz_budget: int | None = None,
    known: SolveResult | None = None,
) -> SolveResult:
    """Direct LU solve of the explicit sparse all-at-once matrix.

    Works for all four method kinds. When ``known`` is a result for a
    bitwise equal system (AllAtOnceSystem.same_as), nothing is solved: the
    result shares its trajectory and is marked shared (methods.reuse).

    Its own refusals follow the overflow check every solver shares
    (SolveResult.refused). When the estimated nonzero count exceeds
    NNZ_BUDGET (or ``nnz_budget``, when given) the solve is refused as
    "infeasible" (the factorization would dwarf the fast solver's
    footprint at that scale); the estimate reads shapes only, so a refusal
    builds no matrix at all. A solution with a non-finite entry, which a
    tiny alpha's pint corner can give, is refused after the solve as
    "ill-conditioned". timings["total"] runs from entry, so it covers
    the estimate, the assembly of the matrix, its factorization and the
    finiteness check; the first admitted solve of a process also pays the
    import of scipy.sparse.linalg (about 0.1 s).
    """
    shared = reuse(known, system)
    if shared is not None:
        return shared
    start = time.perf_counter()
    overflow = system.overflow()
    if overflow is not None:
        return SolveResult.refused(system, "sparse-lu", "ill-conditioned", overflow)
    budget = NNZ_BUDGET if nnz_budget is None else nnz_budget
    estimate = system.estimated_nnz()
    if estimate > budget:
        return SolveResult.refused(
            system, "sparse-lu", "infeasible",
            f"estimated {estimate} nonzeros exceed the budget {budget}",
        )
    import scipy.sparse.linalg

    matrix = system.sparse().tocsc()
    rhs = system.rhs()
    factor = scipy.sparse.linalg.splu(matrix)
    solution = factor.solve(rhs)
    finite = np.isfinite(solution)
    if not finite.all():
        return SolveResult.refused(
            system, "sparse-lu", "ill-conditioned",
            f"LU solution has {finite.size - np.count_nonzero(finite)} "
            f"non-finite entries (alpha {system.method.alpha:.3e}, "
            f"tau {system.timegrid.tau:.3e})",
        )
    elapsed = time.perf_counter() - start
    return SolveResult(
        system=system,
        trajectory=solution.reshape(system.n_levels, system.n_space),
        solver="sparse-lu",
        timings={"total": elapsed},
    )


def solve_spectral_oracle(
    kind: MethodKind,
    alpha: float,
    grid: SpatialGrid,
    timegrid: TimeGrid,
    data: np.ndarray,
) -> SolveResult:
    """Closed-form per-mode solve of any of the four methods.

    The sine transform decouples the system into one scalar chain per mode;
    eliminating the stepping rows leaves yhat^0_k = ghat_k / D_k with a
    method-specific D_k, then the recurrence yhat^n_k = rho_k yhat^{n-1}_k
    rebuilds the whole trajectory. D_k is strictly positive for alpha > 0.
    After the overflow check every solver shares, made before any
    mode-sized array exists, its own refusal is "ill-conditioned" for a D_k
    past the largest float (the pint kinds' alpha*(1 + tau*mu_k) at alpha
    near it), whose quotient would read as zero (SolveResult.refused); it is
    decided at the largest eigenvalue alone, before the spectrum exists. The
    result carries the assembled system, which also checks the shape of
    ``data``, so residual checks are uniform across solvers.
    """
    system = assemble(kind, alpha, grid, timegrid, data)
    start = time.perf_counter()
    overflow = system.overflow()
    if overflow is not None:
        return SolveResult.refused(
            system, "spectral-oracle", "ill-conditioned", overflow
        )
    # A D_k overflows only through its alpha term, which does not fall as mu
    # grows, and the decay adds at most 1: the largest eigenvalue decides.
    top, _ = _denominators(kind, alpha, timegrid, largest_eigenvalue(grid))
    if not np.isfinite(top[0]):
        return SolveResult.refused(
            system, "spectral-oracle", "ill-conditioned",
            f"per-mode denominator D_k = {top[0]} overflows "
            f"(alpha {alpha:.3e}, tau {timegrid.tau:.3e})",
        )
    spectrum = laplacian_eigenvalues(grid)
    denom, rho = _denominators(kind, alpha, timegrid, spectrum.mode_eigenvalues)
    trajectory = np.empty((timegrid.n_levels, grid.n_interior))
    # Filled by the recurrence and transformed in place, so the trajectory
    # is the only full-size array.
    np.divide(spectrum.transform(system.data), denom, out=trajectory[0])
    for n in range(1, timegrid.n_levels):
        np.multiply(trajectory[n - 1], rho, out=trajectory[n])
    spectrum.transform(trajectory, overwrite=True)
    elapsed = time.perf_counter() - start
    return SolveResult(
        system=system,
        trajectory=trajectory,
        solver="spectral-oracle",
        timings={"total": elapsed},
    )


def _denominators(kind: MethodKind, alpha: float, timegrid: TimeGrid, mu):
    """The oracle's D_k and rho_k = 1/(1 + tau*mu_k) for the eigenvalues mu."""
    tau = timegrid.tau
    rho = 1.0 / (1.0 + tau * mu)
    decay = rho**timegrid.num_steps
    with np.errstate(over="ignore"):
        if kind is MethodKind.QBVM:
            denom = alpha + decay
        elif kind is MethodKind.MQBVM:
            denom = alpha * mu * rho + decay
        elif kind is MethodKind.PINT_QBVM:
            denom = alpha * (1.0 + tau * mu) + decay
        else:
            denom = alpha * (mu + 1.0 / tau) + decay
    return denom, rho
