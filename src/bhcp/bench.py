"""Experiment driver: noise sweeps over a method x mesh x solver matrix.

Reproduces the benchmark protocol end to end: sample the exact final data on
a grid, perturb it with seeded multiplicative noise, pick alpha from the
measured noise magnitude, solve with the requested solver, and score the
reconstructed initial state against the exact one in the weighted discrete
norm. Results serialize to a fixed-header CSV; optional per-run profile
files dump the reconstruction next to the truth for plotting.

Noise seeds are derived per (mesh, eps, repeat) cell, not per method, so
every method within a cell sees the same realization and the columns stay
comparable. Reruns with the same root seed reproduce everything but the wall_*
columns.
"""

from __future__ import annotations

import os
import struct
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import ProblemSpec, add_noise, get_problem
from .baseline import DEFAULT_NNZ_BUDGET, solve_sparse_lu, solve_spectral_oracle
from .circulant import TimeGrid
from .methods import MethodKind, SolveResult, alpha_rule, assemble
from .pint import solve_pint
from .space import SpatialGrid, build_grid

CSV_COLUMNS = (
    "method,example,dim,M,N,eps,seed,delta,alpha,error_l2,residual,"
    "wall_total_s,wall_stepA_s,wall_stepB_s,wall_stepC_s,status"
)

SOLVERS = ("pint", "sparse-lu", "spectral-oracle")

NAMED_ALPHA_RULES = (
    "auto",
    "delta",
    "tau-delta",
    "delta-over-sqrt-tau",
    "sqrt-tau-delta",
)


def resolve_alpha(
    rule: str,
    kind: MethodKind,
    delta: float,
    tau: float,
    fallback: float = 1e-12,
) -> float:
    """Turn an alpha-rule token into a concrete regularization parameter.

    "auto" applies the per-method default pairing (delta, or tau*delta for
    pint-mqbvm); the named rules are literal formulas applied to the measured
    delta regardless of method; "fixed:VALUE" bypasses delta entirely. All
    delta-based rules fall back to a tiny alpha on noise-free data.
    """
    if rule.startswith("fixed:"):
        value = float(rule.split(":", 1)[1])
        if value <= 0:
            raise ValueError(f"fixed alpha must be positive, got {value}")
        return value
    if rule == "auto":
        return alpha_rule(kind, delta, tau, fallback)
    if rule not in NAMED_ALPHA_RULES:
        raise ValueError(
            f"unknown alpha rule {rule!r}; choose from {NAMED_ALPHA_RULES} "
            f"or fixed:VALUE"
        )
    if delta == 0:
        return fallback
    if rule == "delta":
        return delta
    if rule == "tau-delta":
        return tau * delta
    if rule == "delta-over-sqrt-tau":
        return float(delta / np.sqrt(tau))
    return float(np.sqrt(tau) * delta)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment matrix: problem, methods, solver, meshes, noise levels.

    ``meshes`` holds (M, N) pairs: M subdivisions per spatial edge, N time
    steps. ``repeats`` runs each cell with that many independent noise draws
    (distinct derived seeds). The fast solver refuses classic method kinds at
    construction time since their systems are not circulant.
    """

    example: int
    methods: tuple
    solver: str
    meshes: tuple
    eps_values: tuple
    seed: int
    alpha_rule: str = "auto"
    repeats: int = 1
    profiles_dir: Optional[str] = None
    nnz_budget: int = DEFAULT_NNZ_BUDGET

    def __post_init__(self):
        if self.example not in (1, 2):
            raise ValueError(f"example must be 1 or 2, got {self.example}")
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}, got {self.solver!r}")
        if not self.methods:
            raise ValueError("need at least one method")
        for kind in self.methods:
            if self.solver == "pint" and not kind.is_circulant:
                raise ValueError(
                    f"the pint solver cannot handle {kind.value}; use sparse-lu"
                )
        for m, n in self.meshes:
            if m < 2 or n < 1:
                raise ValueError(f"bad mesh ({m}, {n})")
        if any(e < 0 for e in self.eps_values):
            raise ValueError("noise levels must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        # fail fast on a bad rule instead of erroring in every cell
        resolve_alpha(self.alpha_rule, self.methods[0], 1.0, 1.0)


@dataclass
class SolveReport:
    """One CSV row: a (method, mesh, eps, repeat) cell and its scores."""

    method: str
    example: int
    dim: int
    M: int
    N: int
    eps: float
    seed: int
    delta: float
    alpha: float
    error_l2: float
    residual: float
    wall_total_s: float
    wall_stepA_s: float
    wall_stepB_s: float
    wall_stepC_s: float
    status: str


def l2_error(
    reconstructed: np.ndarray, exact: np.ndarray, h: float, dim: int
) -> float:
    """Weighted discrete L2 error sqrt(h**dim * sum((y - z)**2))."""
    reconstructed = np.asarray(reconstructed)
    exact = np.asarray(exact)
    if reconstructed.shape != exact.shape:
        raise ValueError(f"shape mismatch: {reconstructed.shape} vs {exact.shape}")
    return float(np.sqrt(h**dim) * np.linalg.norm(reconstructed - exact))


def cell_seed(root_seed: int, m: int, n: int, eps: float, repeat: int) -> int:
    """Deterministic per-cell noise seed, independent of method and solver."""
    eps_bits = struct.unpack("<Q", struct.pack("<d", float(eps)))[0]
    seq = np.random.SeedSequence([root_seed, m, n, eps_bits, repeat])
    return int(seq.generate_state(1, np.uint64)[0])


def run_experiment(config: ExperimentConfig) -> list:
    """Run the full matrix and return one SolveReport per cell and method."""
    problem = get_problem(config.example)
    reports = []
    for m, n in config.meshes:
        grid = build_grid(problem.dim, problem.length, m)
        timegrid = TimeGrid(problem.horizon, n)
        clean = problem.final_on_grid(grid)
        exact_initial = problem.initial_on_grid(grid)
        for eps in config.eps_values:
            for repeat in range(config.repeats):
                seed = cell_seed(config.seed, m, n, eps, repeat)
                noisy = add_noise(clean, eps, seed, grid)
                for kind in config.methods:
                    reports.append(
                        _run_cell(
                            config, problem, kind, grid, timegrid,
                            noisy.values, noisy.delta, eps, seed,
                            exact_initial,
                        )
                    )
    return reports


def _solve(
    config: ExperimentConfig,
    kind: MethodKind,
    alpha: float,
    grid: SpatialGrid,
    timegrid: TimeGrid,
    data: np.ndarray,
) -> SolveResult:
    if config.solver == "spectral-oracle":
        return solve_spectral_oracle(kind, alpha, grid, timegrid, data)
    system = assemble(kind, alpha, grid, timegrid, data)
    if config.solver == "pint":
        return solve_pint(system)
    return solve_sparse_lu(system, nnz_budget=config.nnz_budget)


def _run_cell(
    config: ExperimentConfig,
    problem: ProblemSpec,
    kind: MethodKind,
    grid: SpatialGrid,
    timegrid: TimeGrid,
    data: np.ndarray,
    delta: float,
    eps: float,
    seed: int,
    exact_initial: np.ndarray,
) -> SolveReport:
    nan = float("nan")
    report = SolveReport(
        method=kind.value,
        example=problem.example,
        dim=grid.dim,
        M=grid.num_cells,
        N=timegrid.num_steps,
        eps=eps,
        seed=seed,
        delta=delta,
        alpha=nan,
        error_l2=nan,
        residual=nan,
        wall_total_s=nan,
        wall_stepA_s=nan,
        wall_stepB_s=nan,
        wall_stepC_s=nan,
        status="error",
    )
    try:
        alpha = resolve_alpha(config.alpha_rule, kind, delta, timegrid.tau)
        report.alpha = alpha
        result = _solve(config, kind, alpha, grid, timegrid, data)
        report.status = result.status
        if result.status != "ok":
            return report
        report.error_l2 = l2_error(
            result.initial_state, exact_initial, grid.h, grid.dim
        )
        report.residual = result.residual_norm()
        report.wall_total_s = result.timings.get("total", nan)
        report.wall_stepA_s = result.timings.get("step_a", nan)
        report.wall_stepB_s = result.timings.get("step_b", nan)
        report.wall_stepC_s = result.timings.get("step_c", nan)
        if config.profiles_dir is not None:
            emit_profile(
                profile_path(config.profiles_dir, report),
                grid,
                result.initial_state,
                exact_initial,
            )
    except Exception as exc:  # recorded per row so the sweep keeps going
        report.status = "error"
        print(
            f"bhcp: {kind.value} M={grid.num_cells} N={timegrid.num_steps} "
            f"eps={eps} failed: {exc}",
            file=sys.stderr,
        )
    return report


_INT_FIELDS = {"example", "dim", "M", "N", "seed"}
_STR_FIELDS = {"method", "status"}


def emit_csv(reports, path: str) -> None:
    """Write reports under the fixed header; floats keep full precision."""
    lines = [CSV_COLUMNS]
    for report in reports:
        cells = []
        for column in CSV_COLUMNS.split(","):
            value = getattr(report, column)
            cells.append(value if isinstance(value, str) else repr(value))
        lines.append(",".join(cells))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def parse_csv(path: str) -> list:
    """Read back what emit_csv wrote, reconstructing typed SolveReports."""
    with open(path) as handle:
        header = handle.readline().strip()
        if header != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header!r}")
        reports = []
        for line in handle:
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            kwargs = {}
            for column, cell in zip(CSV_COLUMNS.split(","), cells):
                if column in _STR_FIELDS:
                    kwargs[column] = cell
                elif column in _INT_FIELDS:
                    kwargs[column] = int(cell)
                else:
                    kwargs[column] = float(cell)
            reports.append(SolveReport(**kwargs))
    return reports


def profile_path(directory: str, report: SolveReport) -> str:
    """Canonical profile filename for one run."""
    name = (
        f"ex{report.example}_{report.method}_M{report.M}_N{report.N}"
        f"_eps{report.eps:g}_seed{report.seed}.txt"
    )
    return os.path.join(directory, name)


def emit_profile(
    path: str, grid: SpatialGrid, reconstructed: np.ndarray, exact: np.ndarray
) -> None:
    """Plot-ready dump: node coordinates, reconstruction, exact value."""
    coords = grid.interior_coords()
    columns = list(coords) + [np.asarray(reconstructed), np.asarray(exact)]
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        for row in zip(*columns):
            handle.write(" ".join(f"{value:.17g}" for value in row) + "\n")
