"""Experiment driver: scoring, seeding, config validation, CSV and profiles."""

import collections
import importlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg

import bhcp
import bhcp.baseline
import bhcp.pint
from bhcp.bench import (
    ALPHA_RULES,
    CSV_COLUMNS,
    ExperimentConfig,
    SolveReport,
    cell_seed,
    emit_csv,
    emit_profile,
    parse_csv,
    profile_path,
    resolve_alpha,
    run_experiment,
)
from bhcp.methods import MethodKind
from bhcp.space import build_grid

PINT_KINDS = (MethodKind.PINT_QBVM, MethodKind.PINT_MQBVM)


def small_config(**overrides):
    base = dict(
        example=1,
        methods=PINT_KINDS,
        solver="pint",
        meshes=((16, 8),),
        eps_values=(1e-1,),
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def reports_equal(a, b, skip_wall=False):
    for column in CSV_COLUMNS.split(","):
        if skip_wall and column.startswith("wall_"):
            continue
        va, vb = getattr(a, column), getattr(b, column)
        if isinstance(va, float) and math.isnan(va):
            if not (isinstance(vb, float) and math.isnan(vb)):
                return False
        elif va != vb:
            return False
    return True


def test_resolve_alpha_auto_pairing():
    assert resolve_alpha("auto", MethodKind.PINT_QBVM, 1e-3, 0.1) == 1e-3
    assert resolve_alpha("auto", MethodKind.QBVM, 1e-3, 0.1) == 1e-3
    assert resolve_alpha("auto", MethodKind.MQBVM, 0.25, 0.5) == 0.25
    assert resolve_alpha("auto", MethodKind.PINT_MQBVM, 1e-3, 0.1) == pytest.approx(
        1e-4
    )
    assert resolve_alpha("auto", MethodKind.PINT_MQBVM, 1e-3, 1e-2) == pytest.approx(
        1e-5
    )


def test_resolve_alpha_named_rules():
    delta, tau = 1e-2, 0.25
    kind = MethodKind.PINT_QBVM
    assert resolve_alpha("delta", kind, delta, tau) == delta
    assert resolve_alpha("tau-delta", kind, delta, tau) == pytest.approx(tau * delta)
    assert resolve_alpha("delta-over-sqrt-tau", kind, delta, tau) == pytest.approx(
        delta / 0.5
    )
    assert resolve_alpha("sqrt-tau-delta", kind, delta, tau) == pytest.approx(
        0.5 * delta
    )
    # named rules apply the same formula to every method
    assert resolve_alpha("tau-delta", MethodKind.QBVM, delta, tau) == pytest.approx(
        tau * delta
    )


def test_resolve_alpha_fixed_and_fallback():
    assert resolve_alpha("fixed:0.05", MethodKind.QBVM, 1e-3, 0.1) == 0.05
    assert resolve_alpha("fixed:0.05", MethodKind.QBVM, 0.0, 0.1) == 0.05
    for rule in ("auto", *ALPHA_RULES):
        for kind in MethodKind:
            assert resolve_alpha(rule, kind, 0.0, 0.1) == 1e-12
    for rule in ("fixed:-1", "fixed:0", "fixed:nan", "fixed:inf", "best-guess"):
        with pytest.raises(ValueError):
            resolve_alpha(rule, MethodKind.QBVM, 1e-3, 0.1)


def test_resolve_alpha_rejects_bad_inputs():
    for rule in ("auto", *ALPHA_RULES):
        with pytest.raises(ValueError):
            resolve_alpha(rule, MethodKind.QBVM, -1e-3, 0.1)
        with pytest.raises(ValueError):
            resolve_alpha(rule, MethodKind.QBVM, 1e-3, 0.0)


def test_cell_seed_determinism_and_sensitivity():
    base = cell_seed(7, 16, 8, 0.1, 0)
    assert base == cell_seed(7, 16, 8, 0.1, 0)
    assert base != cell_seed(8, 16, 8, 0.1, 0)
    assert base != cell_seed(7, 32, 8, 0.1, 0)
    assert base != cell_seed(7, 16, 9, 0.1, 0)
    assert base != cell_seed(7, 16, 8, 0.2, 0)
    assert base != cell_seed(7, 16, 8, 0.1, 1)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(example=3),
        dict(solver="direct"),
        dict(methods=()),
        dict(methods=(MethodKind.QBVM,)),
        dict(meshes=((1, 8),)),
        dict(meshes=((8, 0),)),
        dict(eps_values=(-0.1,)),
        dict(seed=-1),
        dict(repeats=0),
        dict(alpha_rule="best-guess"),
        dict(alpha_rule="fixed:0"),
        dict(alpha_rule="fixed:nan"),
        dict(alpha_rule="fixed:inf"),
        dict(eps_values=(float("nan"),)),
        dict(eps_values=(1e-1, float("inf"))),
        dict(eps_values=(1.5,)),
        dict(eps_values=(1e-1, 1e308)),
    ],
)
def test_config_validation(overrides):
    with pytest.raises(ValueError):
        small_config(**overrides)


def test_classic_kinds_need_baseline_solver():
    # rejected with pint, fine with sparse-lu or the oracle
    small_config(methods=(MethodKind.QBVM,), solver="sparse-lu")
    small_config(methods=(MethodKind.MQBVM,), solver="spectral-oracle")
    with pytest.raises(ValueError):
        small_config(methods=(MethodKind.MQBVM,), solver="pint")


def test_run_experiment_row_contents():
    config = small_config()
    reports = run_experiment(config)
    assert len(reports) == 2
    assert all(r.status == "ok" for r in reports)
    for r in reports:
        assert (r.example, r.dim, r.M, r.N) == (1, 1, 16, 8)
        assert r.eps == 1e-1
        assert r.error_l2 >= 0 and np.isfinite(r.error_l2)
        assert r.residual <= 1e-6
        assert r.wall_total_s >= 0
    # same noise draw within a cell: methods share delta and seed
    assert len({r.delta for r in reports}) == 1
    assert len({r.seed for r in reports}) == 1
    by_method = {r.method: r for r in reports}
    tau = 1.0 / 8
    assert by_method["pint-qbvm"].alpha == by_method["pint-qbvm"].delta
    assert by_method["pint-mqbvm"].alpha == pytest.approx(
        tau * by_method["pint-mqbvm"].delta
    )


def test_run_experiment_noise_free_fallback():
    config = small_config(solver="spectral-oracle", eps_values=(0.0,))
    reports = run_experiment(config)
    assert all(r.status == "ok" for r in reports)
    for r in reports:
        assert r.delta == 0.0
        assert r.alpha == 1e-12
        # coarse time grid recovers little beyond the first mode, but the
        # error stays well under the data norm (~3.2)
        assert np.isfinite(r.error_l2)
        assert r.error_l2 <= 0.6


def test_run_experiment_deterministic_except_wall():
    config = small_config(eps_values=(1e-1, 1e-3), repeats=2)
    first = run_experiment(config)
    second = run_experiment(config)
    assert len(first) == len(second) == 8
    assert all(reports_equal(a, b, skip_wall=True) for a, b in zip(first, second))


def test_run_experiment_infeasible_rows(monkeypatch):
    monkeypatch.setattr(bhcp.baseline, "NNZ_BUDGET", 10)
    config = small_config(methods=(MethodKind.QBVM,), solver="sparse-lu")
    (report,) = run_experiment(config)
    assert report.status == "infeasible"
    assert math.isnan(report.error_l2)
    assert math.isnan(report.wall_total_s)


SHARED_CASES = {
    "pint-1d": dict(example=1, methods=PINT_KINDS, solver="pint", meshes=((64, 64),)),
    "pint-2d": dict(example=2, methods=PINT_KINDS, solver="pint", meshes=((16, 16),)),
    "sparse-lu": dict(
        example=1, methods=tuple(MethodKind), solver="sparse-lu", meshes=((16, 16),)
    ),
}


def capture_initial_states(monkeypatch):
    """Copies of the initial state of every bench solver call, in call order."""
    states = []
    for name in ("solve_pint", "solve_sparse_lu"):
        def capture(system, *args, solver=getattr(bhcp.bench, name), **kwargs):
            result = solver(system, *args, **kwargs)
            states.append(result.initial_state.copy())
            return result

        monkeypatch.setattr(bhcp.bench, name, capture)
    return states


@pytest.mark.parametrize("case", SHARED_CASES)
def test_shared_row_matches_a_solo_run_bitwise(monkeypatch, case):
    # under "auto" pint-mqbvm's system is pint-qbvm's, so its row takes the
    # answer of the row before it; a sweep of pint-mqbvm alone solves it
    states = capture_initial_states(monkeypatch)
    options = dict(SHARED_CASES[case], eps_values=(1e-1, 1e-3), seed=9)
    swept = run_experiment(ExperimentConfig(**options))
    swept_states = states[:]
    states.clear()
    alone = run_experiment(
        ExperimentConfig(**dict(options, methods=(MethodKind.PINT_MQBVM,)))
    )
    shared = [
        (row, state) for row, state in zip(swept, swept_states)
        if row.method == "pint-mqbvm"
    ]
    assert len(shared) == len(alone) == len(states) == 2
    for (row, state), solo, solo_state in zip(shared, alone, states):
        assert (row.shared, solo.shared, row.status, solo.status) == (1, 0, "ok", "ok")
        assert state.tobytes() == solo_state.tobytes()
        # repr round-trips a float exactly, so this compares error_l2 and
        # residual bitwise
        for column in CSV_COLUMNS.split(","):
            if column != "shared" and not column.startswith("wall_"):
                assert repr(getattr(row, column)) == repr(getattr(solo, column))


@pytest.mark.parametrize("rule, distinct", [("auto", 1), ("delta", 2)])
def test_each_row_calls_its_solver_once_and_each_system_is_solved_once(
    monkeypatch, rule, distinct
):
    # ``distinct`` is the number of different pint systems per noise draw
    calls = collections.Counter()
    for owner, name in (
        (bhcp.bench, "solve_pint"),
        (bhcp.bench, "solve_sparse_lu"),
        (bhcp.pint, "shifted_solve"),
        (scipy.sparse.linalg, "splu"),
    ):
        def count(*args, name=name, wrapped=getattr(owner, name), **kwargs):
            calls[name] += 1
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(owner, name, count)
    draws = 4  # two noise levels, two repeats
    options = dict(eps_values=(1e-1, 1e-3), repeats=2, alpha_rule=rule)
    pint = run_experiment(small_config(**options))
    assert calls == {"solve_pint": 2 * draws, "shifted_solve": distinct * draws}
    calls.clear()
    lu = run_experiment(
        small_config(methods=tuple(MethodKind), solver="sparse-lu", **options)
    )
    assert calls == {"solve_sparse_lu": 4 * draws, "splu": (2 + distinct) * draws}
    assert all(r.status == "ok" for r in pint + lu)
    assert [r.shared for r in pint] == [0, 2 - distinct] * draws
    assert [r.shared for r in lu] == [0, 0, 0, 2 - distinct] * draws


def traced_peak(config):
    tracemalloc.start()
    try:
        run_experiment(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_sweep_holds_at_most_one_trajectory():
    # the kept answer is dropped before a system it does not match is
    # solved, so two kinds with different systems ("delta") peak as one
    options = dict(
        example=2, solver="pint", meshes=((64, 64),), eps_values=(1e-1,), seed=3
    )
    one_kind = ExperimentConfig(methods=PINT_KINDS[:1], **options)
    run_experiment(one_kind)  # fills the spectrum and FFT plan caches
    one = traced_peak(one_kind)
    for rule in ("delta", "auto"):
        config = ExperimentConfig(methods=PINT_KINDS, alpha_rule=rule, **options)
        assert traced_peak(config) <= 1.1 * one, rule


EXTREME_ALPHAS = (5e-324, 1e-323, 1e-310, 1e-300, 1e-12, 1.0, 1e300, 1e308, 1.7e308)


def test_extreme_fixed_alphas_give_answers_or_refusals():
    # Every solver, every kind it solves, both examples (M=2, N=1 included),
    # eps at both ends: each row is ok with a finite residual or a
    # structured refusal. At the tiny alphas the pint corner 1/(tau*alpha)
    # overflows or its divisor underflows to 0, at the huge ones mqbvm's
    # alpha/tau overflows, and every solver refuses those rows.
    solvers = {
        "pint": PINT_KINDS,
        "sparse-lu": tuple(MethodKind),
        "spectral-oracle": tuple(MethodKind),
    }
    problems = ((1, ((8, 8), (2, 1))), (2, ((5, 4),)))
    count = 0
    for (solver, methods), (example, meshes), alpha in itertools.product(
        solvers.items(), problems, EXTREME_ALPHAS
    ):
        config = ExperimentConfig(
            example, methods, solver, meshes, (0.0, 0.1, 1.0), seed=3,
            alpha_rule=f"fixed:{alpha!r}",
        )
        for report in run_experiment(config):
            assert report.status in ("ok", "infeasible", "ill-conditioned"), report
            if report.status == "ok":
                assert math.isfinite(report.residual), report
            count += 1
    assert count == 810


def test_oracle_solver_error_decreases_under_refinement():
    # noise-free, negligible alpha: what is left is discretization error
    config = ExperimentConfig(
        example=2,
        methods=(MethodKind.PINT_QBVM,),
        solver="spectral-oracle",
        meshes=((16, 16), (32, 32), (64, 64)),
        eps_values=(0.0,),
        seed=0,
    )
    errors = [r.error_l2 for r in run_experiment(config)]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 0.05


def test_noise_monotonicity_on_2d_problem():
    config = ExperimentConfig(
        example=2,
        methods=(MethodKind.PINT_QBVM,),
        solver="pint",
        meshes=((32, 32),),
        eps_values=(1e-1, 1e-3),
        seed=11,
        repeats=5,
    )
    reports = run_experiment(config)
    medians = {
        eps: np.median([r.error_l2 for r in reports if r.eps == eps])
        for eps in (1e-1, 1e-3)
    }
    assert medians[1e-3] <= medians[1e-1]


def test_csv_round_trip(tmp_path):
    config = small_config(eps_values=(1e-1, 0.0))
    reports = run_experiment(config)
    path = str(tmp_path / "rows.csv")
    emit_csv(reports, path)
    with open(path) as handle:
        assert handle.readline().strip() == CSV_COLUMNS
    parsed = parse_csv(path)
    assert len(parsed) == len(reports)
    assert all(reports_equal(a, b) for a, b in zip(reports, parsed))
    row = parsed[0]
    assert isinstance(row.seed, int) and isinstance(row.M, int)
    assert isinstance(row.shared, int)
    assert isinstance(row.method, str) and isinstance(row.alpha, float)
    # eps = 0 gives alpha = NOISE_FREE_ALPHA, past the pint solver's
    # conditioning cut-off: a structured refusal, not an error row
    statuses = [row.status for row in parsed]
    assert statuses == ["ok", "ok", "ill-conditioned", "ill-conditioned"]
    # under "auto" pint-mqbvm's system is pint-qbvm's: its row is shared,
    # with the check's time and no step times
    assert [row.shared for row in parsed] == [0, 1, 0, 0]
    assert parsed[1].wall_total_s >= 0
    assert all(math.isnan(v) for v in (
        parsed[1].wall_stepA_s, parsed[1].wall_stepB_s, parsed[1].wall_stepC_s
    ))


def test_csv_header_is_fixed():
    assert CSV_COLUMNS == (
        "method,example,dim,M,N,eps,seed,delta,alpha,error_l2,residual,"
        "wall_total_s,wall_stepA_s,wall_stepB_s,wall_stepC_s,shared,status"
    )


def test_csv_round_trip_with_nan_columns(tmp_path, monkeypatch):
    monkeypatch.setattr(bhcp.baseline, "NNZ_BUDGET", 10)
    config = small_config(methods=(MethodKind.QBVM,), solver="sparse-lu")
    reports = run_experiment(config)
    path = str(tmp_path / "refused.csv")
    emit_csv(reports, path)
    parsed = parse_csv(path)
    assert parsed[0].status == "infeasible"
    assert parsed[0].shared == 0
    assert math.isnan(parsed[0].error_l2)
    assert reports_equal(reports[0], parsed[0])


def test_csv_empty_report_list(tmp_path):
    path = str(tmp_path / "empty.csv")
    emit_csv([], path)
    with open(path) as handle:
        assert handle.read() == CSV_COLUMNS + "\n"
    assert parse_csv(path) == []


def test_csv_header_check(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as handle:
        handle.write("method,example\n")
    with pytest.raises(ValueError):
        parse_csv(path)


@pytest.mark.parametrize(
    "mangle",
    [lambda row: row + ",extra", lambda row: row.rsplit(",", 2)[0]],
    ids=["extra-cell", "short-row"],
)
def test_csv_row_with_wrong_cell_count_is_rejected(tmp_path, mangle):
    path = str(tmp_path / "rows.csv")
    emit_csv(run_experiment(small_config(methods=PINT_KINDS[:1])), path)
    with open(path) as handle:
        header, row = handle.read().splitlines()
    with open(path, "w") as handle:
        handle.write(f"{header}\n{mangle(row)}\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_csv(path)


def test_profile_path_format(tmp_path):
    report = SolveReport(
        method="pint-qbvm", example=1, dim=1, M=64, N=32, eps=0.001, seed=42,
        delta=0.0, alpha=0.0, error_l2=0.0, residual=0.0, wall_total_s=0.0,
        wall_stepA_s=0.0, wall_stepB_s=0.0, wall_stepC_s=0.0, status="ok",
    )
    path = profile_path(str(tmp_path), report)
    assert os.path.basename(path) == "ex1_pint-qbvm_M64_N32_eps0.001_seed42.txt"


def test_emit_profile_columns(tmp_path):
    grid = build_grid(2, np.pi, 4)
    recon = np.arange(9.0)
    exact = np.arange(9.0) + 0.5
    path = str(tmp_path / "profiles" / "p.txt")
    emit_profile(path, grid, recon, exact)
    table = np.loadtxt(path)
    assert table.shape == (9, 4)
    x1, x2 = grid.interior_coords()
    assert np.array_equal(table[:, 0], x1)
    assert np.array_equal(table[:, 1], x2)
    assert np.array_equal(table[:, 2], recon)
    assert np.array_equal(table[:, 3], exact)


def test_profiles_from_run(tmp_path):
    # noise-free run on a fine mesh: the dumped reconstruction peaks near
    # the exact profile's peak value
    profiles = tmp_path / "profiles"
    config = ExperimentConfig(
        example=1,
        methods=(MethodKind.PINT_QBVM,),
        solver="pint",
        meshes=((64, 64),),
        eps_values=(0.0,),
        seed=3,
        alpha_rule="fixed:1e-6",
        profiles_dir=str(profiles),
    )
    (report,) = run_experiment(config)
    path = profile_path(str(profiles), report)
    assert os.path.exists(path)
    table = np.loadtxt(path)
    assert table.shape == (63, 3)
    assert np.array_equal(table[:, 0], build_grid(1, np.pi, 64).axis_nodes)
    peak = table[np.argmax(table[:, 2])]
    assert peak[0] == pytest.approx(np.pi / 2, abs=0.1)
    # first-order time stepping caps mode recovery, so the peak sits below
    # the exact value pi but well above the noise floor
    assert 2.4 <= peak[1] <= np.pi + 1e-9


def test_profile_peak_near_exact_on_fine_mesh(tmp_path):
    profiles = tmp_path / "profiles"
    config = ExperimentConfig(
        example=1,
        methods=(MethodKind.PINT_QBVM,),
        solver="spectral-oracle",
        meshes=((1024, 1024),),
        eps_values=(0.0,),
        seed=3,
        alpha_rule="fixed:1e-12",
        profiles_dir=str(profiles),
    )
    (report,) = run_experiment(config)
    table = np.loadtxt(profile_path(str(profiles), report))
    recon_peak = table[np.argmax(table[:, 1])]
    exact_peak = table[np.argmax(table[:, 2])]
    assert exact_peak[0] == pytest.approx(np.pi / 2, abs=1e-9)
    assert exact_peak[2] == pytest.approx(np.pi, abs=1e-2)
    assert recon_peak[0] == pytest.approx(np.pi / 2, abs=0.05)
    assert recon_peak[1] == pytest.approx(np.pi, abs=0.3)


def test_perfbench_selftest_passes():
    # The benchmark wraps functions of bench and pint by name from outside
    # the program; its self-test fails when one it needs is gone.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "selftest.py")],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


PER_LAYER_SCRIPT = """
import math, sys
import selftest  # imports run, which pins threads before numpy loads
from selftest import harness, run, spans
for workload in (selftest.TINY_PINT, selftest.TINY_LU):
    untraced, traced = harness.Phase(), harness.Phase(tracer=spans.Tracer())
    harness.measure(workload, 5, 1e-9, sys.argv[1], [untraced, traced])
    metrics = run.per_layer(workload, traced, untraced, 0)
    bad = [m[0] for m in run.LAYER_METRICS
           if not math.isfinite(metrics.get(m[0], math.nan))]
    assert not bad, (workload.name, bad)
"""


def test_benchmark_per_layer_report_is_finite(tmp_path):
    # The per-layer report also reads attributes of systems and results
    # (time_coupling, lap_levels, rhs(), timings, initial_state) that the
    # boundary check below cannot see. A child process, because importing
    # perfbench's run pins the thread environment of the whole process.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run(
        [sys.executable, "-c", PER_LAYER_SCRIPT, str(tmp_path / "sweep.csv")],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "perfbench")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


SHARED_ROWS_SCRIPT = """
import sys
import selftest  # imports run, which pins threads before numpy loads
from selftest import harness
from bhcp import bench
pair = harness.Workload(
    "tiny-pair", 1, ("pint-qbvm", "pint-mqbvm"), "pint", (32, 32), (1e-1, 1e-3),
    2, "shared rows",
)
phase = harness.Phase()
harness.measure(pair, 5, 1e-9, sys.argv[1], [phase])
shared = sum(row.shared for row in bench.parse_csv(sys.argv[1]))
counts = (phase.attempted, phase.ok, phase.unchecked, phase.oracle_mismatches,
          phase.failed, shared)
assert counts == (8, 8, 0, 0, 0, 4), counts
"""


def test_benchmark_checks_every_shared_row(tmp_path):
    # A shared row still goes through its bench solver call, where the
    # benchmark clocks it and keeps its initial state for the oracle check.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run(
        [sys.executable, "-c", SHARED_ROWS_SCRIPT, str(tmp_path / "sweep.csv")],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "perfbench")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_benchmark_traced_boundaries_exist(monkeypatch):
    # perfbench wraps these lookups from outside and silently skips a
    # missing one, whose spans would then read zero; a deletion must fail here
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    spans = importlib.import_module("spans")
    wrapped = {
        (owner, attr) for owner, attr, _ in spans.Tracer().replacements(bhcp)
    }
    bench, pint = bhcp.bench, bhcp.pint
    system, result = bhcp.methods.AllAtOnceSystem, bhcp.methods.SolveResult
    expected = {
        *((bench, attr) for attr in (
            "run_experiment", "emit_csv", "_run_cell", "_solve", "resolve_alpha",
            "cell_seed", "get_problem", "add_noise", "build_grid", "assemble",
            "solve_pint", "solve_sparse_lu",
        )),
        (bhcp.analysis.ProblemSpec, "_on_grid"),
        (bhcp.analysis, "grid_norm"),
        (pint, "diagonalize"),
        (pint, "from_eigenspace"),
        (pint, "shifted_solve"),
        (system, "rhs"),
        (system, "estimated_nnz"),
        (system, "sparse"),
        (result, "residual_norm"),
    }
    assert len(expected) == 21
    assert expected <= wrapped, sorted(
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in expected - wrapped
    )
