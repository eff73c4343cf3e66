"""Reference solvers: a generic sparse LU and a per-mode closed form.

The sparse LU factors the explicit all-at-once matrix with no structure
exploitation; it is the honest comparator for the fast solver's speedup
claims and the only solver for the classic method kinds. A nonzero budget
guards it: past the budget it refuses with a structured "infeasible" result
rather than grinding. SuperLU (scipy.sparse.linalg) is imported by the first
admitted solve, so a process that runs only the pint solver or the oracle
never loads it.

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
from .methods import AllAtOnceSystem, MethodKind, MethodSpec, SolveResult
from .space import SpatialGrid, laplacian_eigenvalues

# Largest estimated nonzero count of the all-at-once matrix that
# solve_sparse_lu factors; bigger systems are refused as infeasible.
NNZ_BUDGET = 8_000_000


def solve_sparse_lu(
    system: AllAtOnceSystem, nnz_budget: int | None = None
) -> SolveResult:
    """Direct LU solve of the explicit sparse all-at-once matrix.

    Works for all four method kinds. Two refusals come first, each with no
    trajectory, no timings and a message. A system whose row 0 overflows
    (AllAtOnceSystem.overflow) is refused with status "ill-conditioned".
    When the estimated nonzero count exceeds NNZ_BUDGET (or ``nnz_budget``,
    when given) the solve is refused with status "infeasible" (the
    factorization would dwarf the fast solver's footprint at that scale);
    the estimate reads shapes only, so a refusal builds no matrix at all. timings["total"] runs from
    entry, so it covers the estimate, the assembly of the matrix and its
    factorization; the first admitted solve of a process also pays the
    import of scipy.sparse.linalg (about 0.1 s).
    """
    start = time.perf_counter()
    overflow = system.overflow()
    if overflow is not None:
        return SolveResult(
            system=system,
            trajectory=None,
            solver="sparse-lu",
            status="ill-conditioned",
            message=overflow,
        )
    budget = NNZ_BUDGET if nnz_budget is None else nnz_budget
    estimate = system.estimated_nnz()
    if estimate > budget:
        return SolveResult(
            system=system,
            trajectory=None,
            solver="sparse-lu",
            status="infeasible",
            message=f"estimated {estimate} nonzeros exceed the budget {budget}",
        )
    import scipy.sparse.linalg

    matrix = system.sparse().tocsc()
    rhs = system.rhs()
    factor = scipy.sparse.linalg.splu(matrix)
    solution = factor.solve(rhs)
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
    Two refusals, each with status "ill-conditioned", no trajectory and a
    message, cover what has no finite answer here: a system whose row 0
    overflows (AllAtOnceSystem.overflow), and a D_k past the largest float
    (the pint kinds' alpha*(1 + tau*mu_k) at alpha near it), whose quotient
    would read as zero. The result carries the assembled system, which also checks the
    shape of ``data``, so residual checks are uniform across solvers.
    """
    system = AllAtOnceSystem(MethodSpec(kind, alpha), grid, timegrid, data)
    start = time.perf_counter()
    spectrum = laplacian_eigenvalues(grid)
    mu = spectrum.mode_eigenvalues
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
    message = system.overflow()
    if message is None and not np.isfinite(denom.max()):
        message = (
            f"per-mode denominator D_k = {denom.max()} overflows "
            f"(alpha {alpha:.3e}, tau {tau:.3e})"
        )
    if message is not None:
        return SolveResult(
            system=system,
            trajectory=None,
            solver="spectral-oracle",
            status="ill-conditioned",
            message=message,
        )
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
