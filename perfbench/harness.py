"""Workloads, honest solve clocks and the oracle check of the bhcp benchmark.

A workload is a ``bhcp run`` sweep configuration. The benchmark drives it the
way ``bhcp run`` does, ``bench.run_experiment`` then ``bench.emit_csv``, in a
closed loop: one process, one caller, each sweep (and each cell inside it)
starting only after the previous one ended.

Solve time is taken from outside the solvers, at the call in ``bench``: the
clock starts when ``bench.assemble`` is entered and stops when
``bench.solve_pint`` or ``bench.solve_sparse_lu`` returns. So ``diagonalize``
is on the pint clock and ``sparse()`` is on the sparse-LU clock; both solvers'
own ``timings`` leave those out.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import bhcp
from bhcp import bench
from bhcp.baseline import solve_spectral_oracle
from bhcp.methods import MethodKind, assemble
from bhcp.space import laplacian_eigenvalues
from spans import patched

# Criterion 1's agreement tolerance between a solver and the spectral oracle.
ORACLE_RTOL = 1e-7

# error_l2_p50 is taken over the cells of a run's first ERROR_SWEEPS sweeps,
# which every untraced run makes, so that it depends on the seed only.
ERROR_SWEEPS = 3

# Stream number of the warm-up cell's seed; sweeps use streams 0, 1, 2, ...
WARMUP_STREAM = 2**32 - 1


@dataclass(frozen=True)
class Workload:
    """One sweep configuration; a run repeats it with fresh seeds."""

    name: str
    example: int
    methods: tuple
    solver: str
    mesh: tuple
    eps_values: tuple
    repeats: int
    why: str

    def config(self, root_seed, methods=None, eps_values=None, repeats=None):
        return bench.ExperimentConfig(
            example=self.example,
            methods=tuple(MethodKind(m) for m in (methods or self.methods)),
            solver=self.solver,
            meshes=(self.mesh,),
            eps_values=eps_values or self.eps_values,
            seed=root_seed,
            repeats=repeats or self.repeats,
        )

    def cells_per_sweep(self):
        return len(self.methods) * len(self.eps_values) * self.repeats


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pint-1d", 1, ("pint-qbvm",), "pint", (1024, 1024), (1e-1, 1e-3), 5,
            "criterion 4's 1D mesh; 1025 small shifted solves per cell, so "
            "per-call overhead dominates and no two cells share a system",
        ),
        Workload(
            "pint-2d", 2, ("pint-qbvm", "pint-mqbvm"), "pint", (192, 192),
            (1e-1, 1e-4), 1,
            "2D: the complex block exceeds L3 and half the cells duplicate "
            "another cell's system, so memory traffic and work sharing show",
        ),
        Workload(
            "lu-1d", 1, ("qbvm", "mqbvm", "pint-qbvm", "pint-mqbvm"), "sparse-lu",
            (256, 256), (1e-1, 1e-3), 1,
            "all four kinds on sparse LU at criterion 6's crossover mesh; runs "
            "no pint, circulant or spectral-solve code, so pint changes stay flat",
        ),
    )
}


def sweep_seed(seed, stream):
    """Root seed of a run's sweep number ``stream``; stream 0 is the seed itself."""
    if stream == 0:
        return seed
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


@dataclass
class CellRecord:
    """What the oracle check and the per-layer report need from one solve."""

    kind: MethodKind
    alpha: float
    grid: object
    timegrid: object
    data: np.ndarray
    solver: str
    status: str
    solve_s: float
    timings: dict
    initial: np.ndarray | None


class SolveClock:
    """Times each solve at its call in ``bench`` and keeps its inputs."""

    def __init__(self):
        self.records = []
        self._assemble_start = None

    def replacements(self):
        assemble_fn = bench.assemble

        def clocked_assemble(*args, **kwargs):
            self._assemble_start = time.perf_counter()
            return assemble_fn(*args, **kwargs)

        def clocked(solver):
            def run(system, *args, **kwargs):
                called = time.perf_counter()
                result = solver(system, *args, **kwargs)
                elapsed = time.perf_counter() - (self._assemble_start or called)
                self._assemble_start = None
                self.records.append(
                    CellRecord(
                        kind=system.method.kind,
                        alpha=system.method.alpha,
                        grid=system.grid,
                        timegrid=system.timegrid,
                        data=system.data,
                        solver=result.solver,
                        status=result.status,
                        solve_s=elapsed,
                        timings=dict(result.timings),
                        initial=(
                            result.initial_state.copy()
                            if result.status == "ok" else None
                        ),
                    )
                )
                return result

            return run

        return [
            (bench, "assemble", clocked_assemble),
            (bench, "solve_pint", clocked(bench.solve_pint)),
            (bench, "solve_sparse_lu", clocked(bench.solve_sparse_lu)),
        ]


def oracle_gap(record):
    """Relative distance of a cell's initial state from the spectral oracle's."""
    oracle = solve_spectral_oracle(
        record.kind, record.alpha, record.grid, record.timegrid, record.data
    ).initial_state
    return float(np.linalg.norm(record.initial - oracle) / np.linalg.norm(oracle))


def system_key(record):
    """Digest of the assembled operator and right-hand side of one cell."""
    system = assemble(
        record.kind, record.alpha, record.grid, record.timegrid, record.data
    )
    digest = hashlib.blake2b(repr((record.grid, record.timegrid)).encode())
    coupling = system.time_coupling
    for array in (coupling.data, coupling.indices, coupling.indptr,
                  system.lap_levels, system.rhs()):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@dataclass
class Phase:
    """Everything one measured phase (untraced or traced) produced.

    ``tracer`` is None for an untraced phase. ``records`` keeps the solve
    records of a traced phase for the per-layer report. The eigenvalue-cache
    counts cover only the timed part of the sweeps.
    """

    tracer: object = None
    seconds: float = 0.0
    sweeps: int = 0
    attempted: int = 0
    ok: int = 0
    failed: int = 0
    oracle_mismatches: int = 0
    unchecked: int = 0
    csv_mismatches: int = 0
    eig_hits: int = 0
    eig_lookups: int = 0
    sweep_rates: list = field(default_factory=list)
    solve_s: list = field(default_factory=list)
    early_error_l2: list = field(default_factory=list)
    records: list = field(default_factory=list)

    @property
    def cells_per_s(self):
        """Median over sweeps of the cells completed OK per sweep second."""
        return statistics.median(self.sweep_rates)


def measure(workload, seed, seconds, csv_path, phases, min_sweeps=1, extra_patches=()):
    """Run sweeps until each phase has ``seconds`` and ``min_sweeps`` of them.

    The phases take turns sweep by sweep, so a traced and an untraced phase
    see the same drift of the machine. Sweep k of the run uses root seed
    ``sweep_seed(seed, k)``. Only ``run_experiment`` and ``emit_csv`` are on
    the clock; after each sweep, off the clock, every solved cell is checked
    against the spectral oracle and the CSV is read back. A cell fails when
    its status is not "ok" (an error or an infeasible refusal) or when its
    initial state misses the oracle by more than ORACLE_RTOL.
    """
    stream = 0

    def done(phase):
        return phase.sweeps >= min_sweeps and phase.seconds >= seconds

    while not all(done(p) for p in phases):
        for phase in [p for p in phases if not done(p)]:
            config = workload.config(sweep_seed(seed, stream))
            stream += 1
            clock = SolveClock()
            # Each replacement list is built after the previous one is in
            # place, so spans wrap the clock and the clock wraps extra_patches.
            with patched(extra_patches), patched(clock.replacements()), patched(
                phase.tracer.replacements(bhcp) if phase.tracer is not None else ()
            ):
                eig_before = laplacian_eigenvalues.cache_info()
                start = time.perf_counter()
                reports = bench.run_experiment(config)
                bench.emit_csv(reports, csv_path)
                elapsed = time.perf_counter() - start
                eig_after = laplacian_eigenvalues.cache_info()
            phase.seconds += elapsed
            phase.sweeps += 1
            phase.sweep_rates.append(sum(r.status == "ok" for r in reports) / elapsed)
            phase.eig_hits += eig_after.hits - eig_before.hits
            phase.eig_lookups += (
                eig_after.hits + eig_after.misses - eig_before.hits - eig_before.misses
            )
            _check_sweep(phase, reports, clock.records, csv_path)
            if phase.tracer is not None:
                phase.records.extend(clock.records)


def _check_sweep(phase, reports, records, csv_path):
    ok_reports = [r for r in reports if r.status == "ok"]
    mismatches = sum(
        1 for r in records if r.initial is not None and not oracle_gap(r) <= ORACLE_RTOL
    )
    back = bench.parse_csv(csv_path)
    phase.csv_mismatches += sum(
        repr(a) != repr(b) for a, b in zip(back, reports)
    ) + abs(len(back) - len(reports))
    # An "ok" cell whose solve the clock did not see escaped the oracle check.
    phase.unchecked += len(ok_reports) - sum(r.initial is not None for r in records)
    phase.attempted += len(reports)
    phase.ok += len(ok_reports)
    phase.oracle_mismatches += mismatches
    phase.failed += len(reports) - len(ok_reports) + mismatches
    phase.solve_s.extend(r.solve_s for r in records)
    if phase.sweeps <= ERROR_SWEEPS:
        phase.early_error_l2.extend(r.error_l2 for r in ok_reports)


def warm_up(workload, seed, csv_path):
    """Build the grid and problem and run one cell at the workload's mesh.

    This fills the FFT plan caches and the ``laplacian_eigenvalues`` cache
    before anything is timed.
    """
    config = workload.config(
        sweep_seed(seed, WARMUP_STREAM),
        methods=workload.methods[:1],
        eps_values=workload.eps_values[:1],
        repeats=1,
    )
    reports = bench.run_experiment(config)
    bench.emit_csv(reports, csv_path)
    if reports[0].status != "ok":
        raise RuntimeError(f"warm-up cell ended with status {reports[0].status!r}")


def median(values):
    return statistics.median(values) if values else 0.0
