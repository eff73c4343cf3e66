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
from dataclasses import dataclass, fields
from typing import Optional, get_type_hints

import numpy as np

from .analysis import ProblemSpec, add_noise, get_problem
from .baseline import solve_sparse_lu, solve_spectral_oracle
from .circulant import TimeGrid
from .methods import MethodKind, SolveResult, assemble
from .pint import solve_pint
from .space import SpatialGrid, build_grid, grid_norm

SOLVERS = ("pint", "sparse-lu", "spectral-oracle")

# Alpha on noise-free data (delta = 0), where alpha = 0 would make the problem
# ill-posed again.
NOISE_FREE_ALPHA = 1e-12

# alpha from the measured noise norm delta and the time step tau, per rule.
# The default rule "auto" picks tau-delta for pint-mqbvm and delta otherwise.
ALPHA_RULES = {
    "delta": lambda delta, tau: delta,
    "tau-delta": lambda delta, tau: tau * delta,
    "delta-over-sqrt-tau": lambda delta, tau: float(delta / np.sqrt(tau)),
    "sqrt-tau-delta": lambda delta, tau: float(np.sqrt(tau) * delta),
}


def resolve_alpha(rule: str, kind: MethodKind, delta: float, tau: float) -> float:
    """Turn an alpha-rule token into a concrete regularization parameter.

    "auto" applies the per-kind pairing; the rules of ALPHA_RULES are
    literal formulas applied to the measured delta regardless of method;
    "fixed:VALUE" bypasses delta entirely and must be positive and finite.
    All delta-based rules give NOISE_FREE_ALPHA on noise-free data.
    """
    if rule.startswith("fixed:"):
        value = float(rule.split(":", 1)[1])
        if not 0 < value < np.inf:
            raise ValueError(f"fixed alpha must be positive and finite, got {value}")
        return value
    if rule == "auto":
        rule = "tau-delta" if kind is MethodKind.PINT_MQBVM else "delta"
    if rule not in ALPHA_RULES:
        raise ValueError(
            f"unknown alpha rule {rule!r}; choose from {('auto', *ALPHA_RULES)} "
            f"or fixed:VALUE"
        )
    if delta < 0:
        raise ValueError(f"noise magnitude must be nonnegative, got {delta}")
    if tau <= 0:
        raise ValueError(f"time step must be positive, got {tau}")
    if delta == 0:
        return NOISE_FREE_ALPHA
    return ALPHA_RULES[rule](delta, tau)


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
        # Multiplicative noise above 100% can flip the sign of the data.
        if not all(0 <= e <= 1 for e in self.eps_values):
            raise ValueError(
                f"noise levels must be finite and in [0, 1], got {self.eps_values}"
            )
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        # fail fast on a bad rule instead of erroring in every cell
        resolve_alpha(self.alpha_rule, self.methods[0], 1.0, 1.0)


@dataclass
class SolveReport:
    """One CSV row: a (method, mesh, eps, repeat) cell and its scores.

    The scores default to NaN and the status to "error", which is what a
    cell keeps when it fails before they are known. ``shared`` is 1 when
    the row took the previous row's answer for a bitwise equal system; its
    wall_total_s is then the time of that check and its wall_step*_s NaN.
    """

    method: str
    example: int
    dim: int
    M: int
    N: int
    eps: float
    seed: int
    delta: float
    alpha: float = np.nan
    error_l2: float = np.nan
    residual: float = np.nan
    wall_total_s: float = np.nan
    wall_stepA_s: float = np.nan
    wall_stepB_s: float = np.nan
    wall_stepC_s: float = np.nan
    shared: int = 0
    status: str = "error"


CSV_COLUMNS = ",".join(field.name for field in fields(SolveReport))


def cell_seed(root_seed: int, m: int, n: int, eps: float, repeat: int) -> int:
    """Deterministic per-cell noise seed, independent of method and solver."""
    eps_bits = struct.unpack("<Q", struct.pack("<d", float(eps)))[0]
    seq = np.random.SeedSequence([root_seed, m, n, eps_bits, repeat])
    return int(seq.generate_state(1, np.uint64)[0])


def run_experiment(config: ExperimentConfig) -> list:
    """Run the full matrix and return one SolveReport per cell and method.

    Every row calls its solver once. Within a noise draw the last answered
    row's result and report are kept, and the solver is handed that result:
    for a bitwise equal system it returns the same answer, marked shared,
    and the row copies error_l2 and residual from the kept report. The kept
    pair is dropped at the start of each draw and before any solve of a
    system it does not match, so at most one trajectory is alive.
    """
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
                last = []  # (result, report) of the last answered row
                for kind in config.methods:
                    reports.append(
                        _run_cell(
                            config, problem, kind, grid, timegrid,
                            noisy.values, noisy.delta, eps, seed,
                            exact_initial, last,
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
    last: list,
) -> SolveResult:
    if config.solver == "spectral-oracle":
        last.clear()  # the oracle never shares, so free the kept trajectory
        return solve_spectral_oracle(kind, alpha, grid, timegrid, data)
    system = assemble(kind, alpha, grid, timegrid, data)
    known = last[0] if last and last[0].system.same_as(system) else None
    if known is None:
        last.clear()  # so its trajectory is freed before a new one is made
    if config.solver == "pint":
        return solve_pint(system, known=known)
    return solve_sparse_lu(system, known=known)


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
    last: list,
) -> SolveReport:
    report = SolveReport(
        method=kind.value,
        example=problem.example,
        dim=grid.dim,
        M=grid.num_cells,
        N=timegrid.num_steps,
        eps=eps,
        seed=seed,
        delta=delta,
    )
    where = f"bhcp: {kind.value} M={grid.num_cells} N={timegrid.num_steps} eps={eps}"
    try:
        alpha = resolve_alpha(config.alpha_rule, kind, delta, timegrid.tau)
        report.alpha = alpha
        result = _solve(config, kind, alpha, grid, timegrid, data, last)
        report.status = result.status
        report.shared = int(result.shared)
        if result.status != "ok":
            print(f"{where} {result.status}: {result.message}", file=sys.stderr)
            return report
        if result.shared:
            report.error_l2, report.residual = last[1].error_l2, last[1].residual
        else:
            report.error_l2 = grid_norm(result.initial_state - exact_initial, grid)
            report.residual = result.residual_norm()
        report.wall_total_s = result.timings.get("total", np.nan)
        report.wall_stepA_s = result.timings.get("step_a", np.nan)
        report.wall_stepB_s = result.timings.get("step_b", np.nan)
        report.wall_stepC_s = result.timings.get("step_c", np.nan)
        if config.profiles_dir is not None:
            emit_profile(
                profile_path(config.profiles_dir, report),
                grid,
                result.initial_state,
                exact_initial,
            )
        last[:] = [result, report]
    except Exception as exc:  # recorded per row so the sweep keeps going
        report.status = "error"
        print(f"{where} failed: {exc}", file=sys.stderr)
    return report


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
    """Read back what emit_csv wrote, reconstructing typed SolveReports.

    Raises ValueError on a wrong header or on a row whose cell count is not
    the header's, naming the line.
    """
    columns = CSV_COLUMNS.split(",")
    with open(path) as handle:
        header = handle.readline().strip()
        if header != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header!r}")
        types = get_type_hints(SolveReport)
        reports = []
        for number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != len(columns):
                raise ValueError(
                    f"{path}, line {number}: {len(cells)} cells where the "
                    f"header has {len(columns)}"
                )
            kwargs = {
                column: types[column](cell) for column, cell in zip(columns, cells)
            }
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
