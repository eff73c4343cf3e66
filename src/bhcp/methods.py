"""The four regularization methods and their all-at-once space-time systems.

Each method recovers the initial state of a backward heat problem from final
data g by solving one coupled linear system in the stacked states
y = (y^0, ..., y^N). Rows 1..N are always the backward Euler steps
(y^n - y^{n-1})/tau - lap y^n = 0; the methods differ only in row 0, which
encodes the regularized final condition:

    qbvm         alpha y^0 + y^N = g
    mqbvm        -(alpha/tau)(y^1 - y^0) + y^N = g
    pint-qbvm    (I/tau - lap) y^0 + y^N/(tau alpha) = g/(tau alpha)
    pint-mqbvm   (I/tau - lap) y^0 + y^N/alpha = g/alpha

For the two pint kinds row 0 has the same diagonal block as every other row,
so the whole operator is (1/tau) C⊗I - I⊗lap with C an omega-circulant time
coupling (omega = -1/alpha resp. -tau/alpha) and the FFT direct solver
applies. The classic kinds break that structure and only the sparse baseline
can solve them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse

from .circulant import TimeGrid
from .space import SpatialGrid, apply_laplacian, laplacian_matrix, level_batches


class MethodKind(enum.Enum):
    """The four regularization methods; values double as CLI tokens."""

    QBVM = "qbvm"
    MQBVM = "mqbvm"
    PINT_QBVM = "pint-qbvm"
    PINT_MQBVM = "pint-mqbvm"

    @property
    def is_circulant(self) -> bool:
        """Whether the time coupling is omega-circulant (fast solver applies)."""
        return self in (MethodKind.PINT_QBVM, MethodKind.PINT_MQBVM)


@dataclass(frozen=True)
class MethodSpec:
    """A method kind plus its regularization parameter."""

    kind: MethodKind
    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")

    def condition_divisor(self, tau: float) -> float:
        """Factor the final-condition row is divided by in the stored system.

        The pint kinds store row 0 pre-divided (by tau*alpha resp. alpha) so
        that its diagonal block matches the stepping rows exactly; the
        classic kinds store the condition as written.
        """
        if self.kind is MethodKind.PINT_QBVM:
            return tau * self.alpha
        if self.kind is MethodKind.PINT_MQBVM:
            return self.alpha
        return 1.0

    def omega(self, tau: float) -> Optional[float]:
        """Corner parameter of the circulant time coupling; None for classics.

        Computed as -tau/condition_divisor so that the corner entry it implies,
        -omega/tau, is bit-identical to the stored coefficient 1/divisor. For
        pint-qbvm this equals -1/alpha up to one rounding, for pint-mqbvm
        -tau/alpha.
        """
        if not self.kind.is_circulant:
            return None
        return -tau / self.condition_divisor(tau)


class AllAtOnceSystem:
    """The coupled space-time operator and right-hand side of one method.

    The operator acts on stacked states (y^0, ..., y^N), flat length
    n_levels * n_space or equivalently shape (n_levels, n_space). It is held
    in factored form: a small sparse time-coupling matrix K plus a per-level
    Laplacian switch, never as the big Kronecker matrix. sparse() builds the
    explicit form on demand for the LU baseline, anew on each call.
    """

    def __init__(
        self,
        method: MethodSpec,
        grid: SpatialGrid,
        timegrid: TimeGrid,
        data: np.ndarray,
    ):
        data = np.asarray(data, dtype=float)
        if data.shape != (grid.n_interior,):
            raise ValueError(
                f"final data must have shape ({grid.n_interior},), got {data.shape}"
            )
        self.method = method
        self.grid = grid
        self.timegrid = timegrid
        self.data = data
        self.time_coupling, self.lap_levels = _time_coupling(method, timegrid)

    @property
    def n_levels(self) -> int:
        return self.timegrid.n_levels

    @property
    def n_space(self) -> int:
        return self.grid.n_interior

    @property
    def omega(self) -> Optional[float]:
        return self.method.omega(self.timegrid.tau)

    def condition_rhs(self) -> np.ndarray:
        """Right-hand side of the final-condition row: the scaled data.

        This is level 0 of rhs(), the only level that is not zero.
        """
        return self.data / self.method.condition_divisor(self.timegrid.tau)

    def overflow(self) -> Optional[str]:
        """Why the stored row 0 is not finite, or None when it is.

        A time-coupling coefficient overflows for mqbvm's alpha/tau at a huge
        alpha and for the pint corner 1/divisor at a tiny one; the condition
        right-hand side data/divisor overflows when max|data|/divisor does.
        That quotient is its largest entry, found from data.min() and
        data.max(), so no data-sized array is made. Every solver calls this
        first and refuses a system it names as "ill-conditioned".
        """
        if np.isfinite(self.time_coupling.data).all():
            largest = max(abs(self.data.min()), abs(self.data.max()))
            with np.errstate(over="ignore"):
                peak = largest / self.method.condition_divisor(self.timegrid.tau)
            if np.isfinite(peak):
                return None
            what = f"condition right-hand side max|g|/divisor = {peak}"
        else:
            coupling = self.time_coupling.tocoo()
            k = np.flatnonzero(~np.isfinite(coupling.data))[0]
            what = (
                f"time coupling coefficient K[{coupling.row[k]}, "
                f"{coupling.col[k]}] = {coupling.data[k]}"
            )
        return (
            f"{what} overflows (alpha {self.method.alpha:.3e}, "
            f"tau {self.timegrid.tau:.3e})"
        )

    def rhs(self) -> np.ndarray:
        """Stacked right-hand side: scaled data in block 0, zeros elsewhere."""
        out = np.zeros((self.n_levels, self.n_space))
        out[0] = self.condition_rhs()
        return out.ravel()

    def sparse(self) -> scipy.sparse.csr_matrix:
        """Explicit sparse form kron(K, I) - kron(diag(switch), lap)."""
        eye = scipy.sparse.identity(self.n_space, format="csr")
        switch = scipy.sparse.diags(self.lap_levels.astype(float))
        return (
            scipy.sparse.kron(self.time_coupling, eye)
            - scipy.sparse.kron(switch, laplacian_matrix(self.grid))
        ).tocsr()

    def estimated_nnz(self) -> int:
        """Upper bound on sparse() nonzeros, read from shapes only.

        A stencil row has at most 2*dim+1 entries, so no matrix is built
        and a solve this estimate refuses costs no assembly.
        """
        lap_nnz = self.n_space * (2 * self.grid.dim + 1)
        return int(
            self.time_coupling.nnz * self.n_space
            + int(np.count_nonzero(self.lap_levels)) * lap_nnz
        )


def _time_coupling(method: MethodSpec, timegrid: TimeGrid):
    """Small sparse time matrix K and the per-level Laplacian switch."""
    n_levels = timegrid.n_levels
    last = n_levels - 1
    tau = timegrid.tau
    alpha = method.alpha
    lap_levels = np.ones(n_levels, dtype=bool)

    if method.kind is MethodKind.QBVM:
        head_cols, head_vals = [0, last], [alpha, 1.0]
        lap_levels[0] = False
    elif method.kind is MethodKind.MQBVM:
        head_cols, head_vals = [0, 1, last], [alpha / tau, -alpha / tau, 1.0]
        lap_levels[0] = False
    else:
        # an np.float64 division, so an underflowed divisor gives an inf
        # corner, which overflow() reports, instead of raising
        with np.errstate(divide="ignore", over="ignore"):
            corner = np.float64(1.0) / method.condition_divisor(tau)
        head_cols, head_vals = [0, last], [1.0 / tau, corner]

    # row n >= 1 holds -1/tau at column n-1 and 1/tau at column n
    steps = np.arange(1, n_levels)
    rows = np.concatenate([np.zeros(len(head_cols), dtype=int), np.repeat(steps, 2)])
    cols = np.concatenate([head_cols, np.stack([steps - 1, steps], axis=1).ravel()])
    vals = np.concatenate([head_vals, np.tile([-1.0 / tau, 1.0 / tau], last)])
    coupling = scipy.sparse.csr_matrix(
        (vals, (rows, cols)), shape=(n_levels, n_levels)
    )
    # coo->csr sums duplicate entries, which handles N = 1 where the corner
    # column coincides with a first-row stencil column.
    return coupling, lap_levels


def assemble(
    kind: MethodKind,
    alpha: float,
    grid: SpatialGrid,
    timegrid: TimeGrid,
    data: np.ndarray,
) -> AllAtOnceSystem:
    """Build the all-at-once system of a method for given final data."""
    return AllAtOnceSystem(MethodSpec(kind, alpha), grid, timegrid, data)


@dataclass
class SolveResult:
    """Outcome of one all-at-once solve.

    ``trajectory`` has shape (n_levels, n_space); row 0 is the reconstructed
    initial state, the deliverable of the whole computation. ``timings`` maps
    phase names to wall-clock seconds ("total" on every completed solve;
    the fast solver adds "step_a"/"step_b"/"step_c"). ``status`` is "ok"
    for a completed solve, "infeasible" when a guarded solver refused the
    size, or "ill-conditioned" when any solver refused a system whose row 0
    overflows (AllAtOnceSystem.overflow) or the fast solver a change of
    basis whose roundoff bound is too large; on a refusal trajectory is
    None, timings is empty and message says why.
    """

    system: AllAtOnceSystem
    trajectory: Optional[np.ndarray]
    solver: str
    timings: dict = field(default_factory=dict)
    status: str = "ok"
    message: str = ""

    @property
    def initial_state(self) -> np.ndarray:
        if self.trajectory is None:
            raise ValueError(f"no solution available (status={self.status!r})")
        return self.trajectory[0]

    def residual_norm(self) -> float:
        """Relative residual ||rhs - A y|| / ||rhs||, nan for refused solves.

        Row 0, the final condition, is K[0] y minus the Laplacian of y^0 when
        that level carries it, minus the condition right-hand side. Rows 1..N
        are the backward Euler steps (y^n - y^{n-1})/tau - lap y^n, formed one
        batch of levels at a time, so no full-size array is made. The sign
        does not change the norm. Every row is scaled by one power of two,
        near 1/max|rhs|, before squaring, so the squares of a tiny or huge
        rhs neither underflow nor overflow; the scaling is exact and cancels
        in the ratio. Squares are summed by numpy's pairwise reduction, whose
        order depends on the shapes alone, never on the thread count. The
        weight of the discrete norm is uniform and cancels.
        """
        if self.trajectory is None:
            return float("nan")
        system = self.system
        y = self.trajectory
        level0 = system.condition_rhs()
        # 2**-k with 2**k just above max|rhs|, capped so it stays finite
        exponent = int(np.frexp(np.abs(level0).max())[1])
        scale = np.ldexp(1.0, min(-exponent, np.finfo(float).maxexp - 1))
        part = (system.time_coupling[0] @ y)[0]
        if system.lap_levels[0]:
            part -= apply_laplacian(system.grid, y[0])
        part -= level0
        part *= scale
        total = float(np.square(part, out=part).sum())
        tau = system.timegrid.tau
        for lo, hi in level_batches(1, system.n_levels, y[0].nbytes):
            part = np.subtract(y[lo:hi], y[lo - 1 : hi - 1])
            part /= tau
            part -= apply_laplacian(system.grid, y[lo:hi])
            part *= scale
            total += float(np.square(part, out=part).sum())
        level0 *= scale
        norm = float(np.square(level0, out=level0).sum())
        return float(np.sqrt(total / norm))
