#!/usr/bin/env python3
"""Closed-loop sweep benchmark of bhcp, end to end and per layer.

Usage, from the repository root (nothing to build; the package is imported
from ``src/``):

    python3 perfbench/run.py --workload pint-1d --seed 1 --seconds 20 --trace 0
    python3 perfbench/selftest.py     # the benchmark's own checks, ~1 s

One process makes the calls ``bhcp run`` makes, ``bench.run_experiment`` and
then ``bench.emit_csv``, for the workload's sweep, again and again with root
seeds derived from ``--seed``, until ``--seconds`` of sweep time and (untraced)
at least three sweeps have passed. Before that it warms up with one cell at
the workload's mesh. BLAS runs single-threaded. After each sweep, off the
clock, every solved cell's initial state is checked against the spectral
oracle and the CSV is read back.

``--trace 0`` reports the end-to-end metrics of END_TO_END:

- cells_per_s: median over sweeps of cells completed OK per sweep second;
- solve_s_p50: median wall time of one solve, from ``assemble`` to the
  solver's return, so ``diagonalize`` and ``sparse()`` are on the clock;
- error_l2_p50: median reconstruction error over the first three sweeps,
  a function of the seed only;
- peak_rss_mb: peak resident memory of this process;
- setup_s: median over this process and two fresh ones of the time from the
  start of this script to the end of the warm-up cell.

``--trace 1`` alternates untraced and traced sweeps for ``--seconds / 2``
each and reports LAYER_METRICS, which also says which end-to-end metric
each one should move and on which workload, with the tracing overhead and
the isolation check. Lines starting with ``#`` are for people; the last line
of standard output is the JSON result. The full record, the CSV and the
spans go to ``.perfbench-out/``.
"""

import time

START = time.perf_counter()  # the set-up clock starts before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402

import machine  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
if not os.path.isfile(os.path.join(ROOT, "src", "bhcp", "__init__.py")):
    sys.exit(f"perfbench: no bhcp sources under {ROOT}/src")
machine.pin_threads()
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import spans  # noqa: E402
from bhcp.methods import assemble  # noqa: E402
from bhcp.pint import solve_pint  # noqa: E402

MIB = 1024**2

# Extra set-up samples taken in child processes; with the run's own that
# makes three, and setup_s is their median.
SETUP_CHILDREN = 2

# name, unit, better
END_TO_END = (
    ("cells_per_s", "1/s", "higher"),
    ("solve_s_p50", "s", "lower"),
    ("error_l2_p50", "1", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)

# name, unit, better, end-to-end metric it should move, where it should move
# (and where it should stay flat). Times ".s" are seconds per attempted cell
# of the traced phase.
LAYER_METRICS = (
    ("space.shifted_solve.calls", "calls/cell", "lower", "solve_s_p50", "pint-1d (1025/cell), pint-2d (193/cell); 0 on lu-1d"),
    ("space.shifted_solve.s", "s/cell", "lower", "solve_s_p50", "about half of a cell on pint-1d, 40% on pint-2d; 0 on lu-1d"),
    ("space.shifted_solve.us_per_call", "us", "lower", "solve_s_p50", "pint-1d (per-call overhead bound), pint-2d (transform bound)"),
    ("space.eig_cache.hit_ratio", "1", "higher", "solve_s_p50", "pint-*: stays about 1; 0 on lu-1d, which makes no lookups"),
    ("space.self.s", "s/cell", "lower", "solve_s_p50", "pint-*"),
    ("circulant.diagonalize.s", "s/cell", "lower", "solve_s_p50", "pint-*; 0 on lu-1d"),
    ("circulant.to_eigenspace.s", "s/cell", "lower", "solve_s_p50", "pint-2d most, then pint-1d; 0 on lu-1d"),
    ("circulant.from_eigenspace.s", "s/cell", "lower", "solve_s_p50", "pint-2d most, then pint-1d; 0 on lu-1d"),
    ("circulant.block_mb", "MiB", "lower", "peak_rss_mb", "all: complex space-time block of the mesh, the base of memory ratios"),
    ("circulant.block_over_l3", "1", "lower", "solve_s_p50", "all: above 1 on pint-2d only"),
    ("circulant.self.s", "s/cell", "lower", "solve_s_p50", "pint-*; 0 on lu-1d"),
    ("pint.solve_pint.s", "s/cell", "lower", "solve_s_p50", "pint-*; 0 on lu-1d"),
    ("pint.step_a.s", "s/cell", "lower", "solve_s_p50", "pint-*, as the solver reports it"),
    ("pint.step_b.s", "s/cell", "lower", "solve_s_p50", "pint-*, as the solver reports it"),
    ("pint.step_c.s", "s/cell", "lower", "solve_s_p50", "pint-*, as the solver reports it"),
    ("pint.unclocked.s", "s/cell", "lower", "solve_s_p50", "pint-*: wall time of solve_pint minus its own timings total"),
    ("pint.self.s", "s/cell", "lower", "solve_s_p50", "pint-*, largest share on pint-2d"),
    ("pint.peak_alloc_mb", "MiB", "lower", "peak_rss_mb", "pint-2d most (tracemalloc, one untimed solve)"),
    ("pint.trajectory_mb", "MiB", "lower", "peak_rss_mb", "pint-*: size of the real trajectory, the base of the ratio"),
    ("pint.peak_over_trajectory", "1", "lower", "peak_rss_mb", "pint-2d most"),
    ("methods.assemble.s", "s/cell", "lower", "cells_per_s", "all"),
    ("methods.residual_norm.s", "s/cell", "lower", "cells_per_s", "pint-* (about a tenth of a cell); small on lu-1d"),
    ("methods.sparse.s", "s/cell", "lower", "solve_s_p50", "lu-1d only"),
    ("methods.sparse_nnz", "count", "lower", "solve_s_p50", "lu-1d only; median per sparse() call"),
    ("methods.duplicate_system_share", "1", "higher", "cells_per_s", "0 on pint-1d, 0.5 on pint-2d, 0.25 on lu-1d"),
    ("methods.self.s", "s/cell", "lower", "cells_per_s", "all"),
    ("baseline.solve_sparse_lu.s", "s/cell", "lower", "solve_s_p50", "lu-1d only"),
    ("baseline.clocked.s", "s/cell", "lower", "solve_s_p50", "lu-1d only, as the solver reports it"),
    ("baseline.unclocked.s", "s/cell", "lower", "solve_s_p50", "lu-1d only: wall time minus the solver's own total"),
    ("baseline.refused", "count", "lower", "cells_per_s", "all: stays 0"),
    ("baseline.self.s", "s/cell", "lower", "solve_s_p50", "lu-1d only"),
    ("analysis.add_noise.s", "s/cell", "lower", "cells_per_s", "all, per-cell overhead"),
    ("analysis.on_grid.s", "s/cell", "lower", "cells_per_s", "all, per-cell overhead"),
    ("analysis.self.s", "s/cell", "lower", "cells_per_s", "all, per-cell overhead"),
    ("bench.emit_csv.s", "s/cell", "lower", "cells_per_s", "all, per-cell overhead"),
    ("bench.self.s", "s/cell", "lower", "cells_per_s", "all, per-cell overhead"),
    ("trace.overhead", "1", "lower", "cells_per_s", "all: untraced over traced cells_per_s, minus 1"),
    ("trace.cells_per_s", "1/s", "higher", "cells_per_s", "all: traced phase"),
    ("trace.untraced_cells_per_s", "1/s", "higher", "cells_per_s", "all: untraced phase of the traced run"),
    ("isolation.foreign_calls", "count", "lower", "solve_s_p50", "all: must be 0"),
)

# Spans a workload must not contain, by solver: sparse-LU sweeps never reach
# the spectral or circulant code, pint sweeps never build a sparse matrix.
FOREIGN_SPANS = {
    "sparse-lu": ("space.shifted_solve", "circulant.", "pint."),
    "pint": ("baseline.", "methods.sparse", "methods.estimated_nnz"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print the set-up seconds and exit (used for set-up samples)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_children(args):
    """Set-up seconds of fresh processes, run one after another."""
    samples = []
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only",
    ]
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end(phase, setup_samples):
    return {
        "cells_per_s": phase.cells_per_s,
        "solve_s_p50": harness.median(phase.solve_s),
        "error_l2_p50": harness.median(phase.early_error_l2),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": harness.median(setup_samples),
    }


def peak_alloc(record):
    """Peak bytes allocated during one untimed, untraced solve_pint call."""
    system = assemble(
        record.kind, record.alpha, record.grid, record.timegrid, record.data
    )
    tracemalloc.start()
    try:
        solve_pint(system)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def per_layer(workload, traced, untraced, l3):
    calls, seconds, layer_self = traced.tracer.totals()
    cells = traced.attempted

    def per_cell(value):
        return value / cells

    pint_cells = [r for r in traced.records if r.solver == "pint"]
    lu_cells = [r for r in traced.records if r.solver == "sparse-lu"]
    pint_clocked = {
        step: sum(r.timings.get(step, 0.0) for r in pint_cells)
        for step in ("step_a", "step_b", "step_c", "total")
    }
    lu_clocked = sum(r.timings.get("total", 0.0) for r in lu_cells)
    m, n = workload.mesh
    block_bytes = (m - 1) ** (2 if workload.example == 2 else 1) * (n + 1) * 16
    trajectory_mb = block_bytes / 2 / MIB if pint_cells else 0.0
    peak_mb = peak_alloc(pint_cells[0]) / MIB if pint_cells else 0.0
    keys = [harness.system_key(r) for r in traced.records]
    foreign = sum(
        count for name, count in calls.items()
        if name.startswith(FOREIGN_SPANS[workload.solver])
    )
    if workload.solver == "sparse-lu":
        foreign += traced.eig_lookups
    shifted_calls = calls.get("space.shifted_solve", 0)
    nnz = traced.tracer.samples.get("methods.sparse_nnz", [])
    metrics = {
        "space.shifted_solve.calls": per_cell(shifted_calls),
        "space.shifted_solve.s": per_cell(seconds["space.shifted_solve"]),
        "space.shifted_solve.us_per_call": (
            1e6 * seconds["space.shifted_solve"] / shifted_calls if shifted_calls else 0.0
        ),
        "space.eig_cache.hit_ratio": (
            traced.eig_hits / traced.eig_lookups if traced.eig_lookups else 0.0
        ),
        "circulant.diagonalize.s": per_cell(seconds["circulant.diagonalize"]),
        "circulant.to_eigenspace.s": per_cell(seconds["circulant.to_eigenspace"]),
        "circulant.from_eigenspace.s": per_cell(seconds["circulant.from_eigenspace"]),
        "circulant.block_mb": block_bytes / MIB,
        "circulant.block_over_l3": block_bytes / l3 if l3 else 0.0,
        "pint.solve_pint.s": per_cell(seconds["pint.solve_pint"]),
        "pint.step_a.s": per_cell(pint_clocked["step_a"]),
        "pint.step_b.s": per_cell(pint_clocked["step_b"]),
        "pint.step_c.s": per_cell(pint_clocked["step_c"]),
        "pint.unclocked.s": per_cell(seconds["pint.solve_pint"] - pint_clocked["total"]),
        "pint.peak_alloc_mb": peak_mb,
        "pint.trajectory_mb": trajectory_mb,
        "pint.peak_over_trajectory": peak_mb / trajectory_mb if pint_cells else 0.0,
        "methods.assemble.s": per_cell(seconds["methods.assemble"]),
        "methods.residual_norm.s": per_cell(seconds["methods.residual_norm"]),
        "methods.sparse.s": per_cell(seconds["methods.sparse"]),
        "methods.sparse_nnz": harness.median(nnz),
        "methods.duplicate_system_share": 1.0 - len(set(keys)) / len(keys) if keys else 0.0,
        "baseline.solve_sparse_lu.s": per_cell(seconds["baseline.solve_sparse_lu"]),
        "baseline.clocked.s": per_cell(lu_clocked),
        "baseline.unclocked.s": per_cell(seconds["baseline.solve_sparse_lu"] - lu_clocked),
        "baseline.refused": sum(r.status == "infeasible" for r in traced.records),
        "analysis.add_noise.s": per_cell(seconds["analysis.add_noise"]),
        "analysis.on_grid.s": per_cell(seconds["analysis.on_grid"]),
        "bench.emit_csv.s": per_cell(seconds["bench.emit_csv"]),
        "trace.overhead": untraced.cells_per_s / traced.cells_per_s - 1.0,
        "trace.cells_per_s": traced.cells_per_s,
        "trace.untraced_cells_per_s": untraced.cells_per_s,
        "isolation.foreign_calls": foreign,
    }
    for layer in spans.LAYERS:
        metrics[f"{layer}.self.s"] = per_cell(layer_self[layer])
    return metrics


def main(argv=None):
    args = parse_args(argv)
    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(harness.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    csv_path = stem + ".csv"

    harness.warm_up(workload, args.seed, csv_path)
    setup_samples = [time.perf_counter() - START]
    if args.setup_only:
        print(repr(setup_samples[0]))
        return 0

    record = {"workload": workload.name, "why": workload.why,
              "machine": machine.record(ROOT, args.seed)}
    if args.trace == 0:
        setup_samples += setup_children(args)
        phase = harness.Phase()
        phases = [phase]
        harness.measure(
            workload, args.seed, args.seconds, csv_path, phases,
            min_sweeps=harness.ERROR_SWEEPS,
        )
        metrics = end_to_end(phase, setup_samples)
        units = {name: unit for name, unit, _ in END_TO_END}
        record.update(
            setup_samples=setup_samples,
            solve_samples=len(phase.solve_s),
            sweep_rates=phase.sweep_rates,
        )
    else:
        tracer = spans.Tracer()
        untraced, traced = harness.Phase(), harness.Phase(tracer=tracer)
        phases = [untraced, traced]
        harness.measure(workload, args.seed, args.seconds / 2, csv_path, phases)
        metrics = per_layer(workload, traced, untraced, record["machine"]["l3_bytes"])
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
        tracer.write(stem + "-spans.csv")
        record.update(spans=len(tracer.spans), traced_cells=traced.attempted)
    correct = all(
        p.oracle_mismatches == 0 and p.unchecked == 0 and p.csv_mismatches == 0
        for p in phases
    )
    if args.trace == 1:
        correct = correct and metrics["isolation.foreign_calls"] == 0

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    record.update(
        result=result,
        failed_ratio=failed / attempted,
        oracle_mismatches=sum(p.oracle_mismatches for p in phases),
        unchecked=sum(p.unchecked for p in phases),
        csv_mismatches=sum(p.csv_mismatches for p in phases),
        sweeps=sum(p.sweeps for p in phases),
        measured_s=sum(p.seconds for p in phases),
    )
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=1)

    print(f"# machine {json.dumps(record['machine'])}")
    print(
        f"# {workload.name} seed={args.seed} trace={args.trace} "
        f"sweeps={record['sweeps']} measured_s={record['measured_s']:.3f} "
        f"attempted={attempted} failed={failed} failed_ratio={record['failed_ratio']:g}"
    )
    if args.trace == 0:
        print(f"# solve samples {record['solve_samples']}; set-up samples "
              + ", ".join(f"{s:.3f}" for s in setup_samples))
    moves = {name: f"  (moves {e2e}; {where})" for name, _, _, e2e, where in LAYER_METRICS}
    for name, entry in result["metrics"].items():
        print(f"# {name} {entry['value']:.6g} {entry['unit']}{moves.get(name, '')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
