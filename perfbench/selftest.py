#!/usr/bin/env python3
"""Self-test of the benchmark's own checks, on tiny meshes (a few seconds).

    python3 perfbench/selftest.py

Shows that a corrupted result, an error row and a refused solve are each
counted as failed, that a clean sweep counts none, that the isolation check
sees the spans it should and no others, and that BENCHMARK.json lists exactly
the workloads and metrics run.py reports. Exits 1 on the first failed check.
"""

import json
import os
import sys

import run  # sets up the import path and the thread environment first

import harness  # noqa: E402
import spans  # noqa: E402
from bhcp import bench  # noqa: E402

TINY_PINT = harness.Workload(
    "tiny-pint", 1, ("pint-qbvm",), "pint", (32, 32), (1e-1, 1e-3), 2, "self-test"
)
TINY_LU = harness.Workload(
    "tiny-lu", 1, ("qbvm", "pint-mqbvm"), "sparse-lu", (16, 16), (1e-2,), 1, "self-test"
)
CSV = os.path.join(run.OUT_DIR, "selftest.csv")


def check(ok, what):
    print(f"{'PASS' if ok else 'FAIL'} - {what}", flush=True)
    if not ok:
        sys.exit(1)


def sweep_once(workload, extra_patches=(), tracer=None):
    phase = harness.Phase(tracer=tracer)
    harness.measure(workload, 5, 1e-9, CSV, [phase], extra_patches=extra_patches)
    return phase


def first_call_only(change):
    """Replacement for a bench solver that applies ``change`` to its first call."""
    calls = []

    def patch(name):
        solver = getattr(bench, name)

        def patched_solver(system, *args, **kwargs):
            calls.append(name)
            if len(calls) == 1:
                return change(solver, system)
            return solver(system, *args, **kwargs)

        return [(bench, name, patched_solver)]

    return patch


def corrupt(solver, system):
    result = solver(system)
    result.trajectory[0] *= 1.0 + 1e-5
    return result


def explode(solver, system):
    raise FloatingPointError("injected failure")


def refuse(solver, system):
    return solver(system, nnz_budget=0)


def main():
    os.makedirs(run.OUT_DIR, exist_ok=True)
    cells = TINY_PINT.cells_per_sweep()

    clean = sweep_once(TINY_PINT)
    check(clean.attempted == cells and clean.failed == 0 and clean.ok == cells,
          f"clean sweep: {clean.failed} of {clean.attempted} cells failed")

    bad = sweep_once(TINY_PINT, first_call_only(corrupt)("solve_pint"))
    check(bad.oracle_mismatches == 1 and bad.failed == 1 and bad.ok == cells,
          f"a 1e-5 relative corruption of one initial state is counted "
          f"({bad.oracle_mismatches} oracle mismatch, {bad.failed} failed)")

    broken = sweep_once(TINY_PINT, first_call_only(explode)("solve_pint"))
    check(broken.failed == 1 and broken.ok == cells - 1,
          f"an error row is counted ({broken.failed} failed)")

    refused = sweep_once(TINY_LU, first_call_only(refuse)("solve_sparse_lu"))
    check(refused.failed == 1 and refused.ok == TINY_LU.cells_per_sweep() - 1,
          f"an infeasible refusal is counted ({refused.failed} failed)")

    for workload, foreign_rule in ((TINY_PINT, "sparse-lu"), (TINY_LU, "pint")):
        traced = sweep_once(workload, tracer=spans.Tracer())
        calls, _, _ = traced.tracer.totals()
        own = sum(n for name, n in calls.items()
                  if name.startswith(run.FOREIGN_SPANS[workload.solver]))
        other = sum(n for name, n in calls.items()
                    if name.startswith(run.FOREIGN_SPANS[foreign_rule]))
        check(own == 0 and other > 0,
              f"isolation on {workload.name}: {own} foreign calls, and the "
              f"other solver's rule would see {other}")

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    listed = [(w["name"], w["why"]) for w in spec["workloads"]]
    check(listed == [(w.name, w.why) for w in harness.WORKLOADS.values()],
          "BENCHMARK.json workloads match harness.WORKLOADS")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.LAYER_METRICS)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        check(listed == [row[:3] for row in table],
              f"BENCHMARK.json {key} matches run.py")


if __name__ == "__main__":
    main()
