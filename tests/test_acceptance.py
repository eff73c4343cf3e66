"""Acceptance gate: one test per promised behavior, one PASS/FAIL line each.

Every test here exercises an end-to-end claim (solver agreement against
closed-form oracles, bound rates, benchmark error bands, speedup and
scaling) and prints a single scorecard line, so the test log doubles as an
acceptance report.
"""

import itertools
import math
import time

import numpy as np
import scipy.linalg
import scipy.optimize

from bhcp.analysis import (
    SpectralCoefficients,
    add_noise,
    get_problem,
    regularized_series,
    theorem1_bound,
)
from bhcp.baseline import solve_sparse_lu, solve_spectral_oracle
from bhcp.bench import ExperimentConfig, run_experiment
from bhcp.circulant import TimeGrid, diagonalize, gamma_condition
from bhcp.methods import MethodKind, assemble
from bhcp.pint import solve_pint
from bhcp.space import build_grid

from circulant_reference import reconstruct, step_matrix
from solver_reference import residual

ALPHAS = (1e-1, 1e-3, 1e-6)
HORIZON = 1.0


def report(num, ok, details):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {details}", flush=True)
    assert ok, details


def test_criterion_1_solver_agreement():
    cases = [
        (build_grid(1, np.pi, m), n, get_problem(1))
        for m, n in itertools.product((4, 8, 16), repeat=2)
    ]
    cases += [
        (build_grid(2, np.pi, m), n, get_problem(2)) for m, n in ((8, 8), (16, 16))
    ]
    worst = {"pint": 0.0, "sparse-lu": 0.0, "residual": 0.0}
    for grid, n, problem in cases:
        timegrid = TimeGrid(HORIZON, n)
        data = problem.final_on_grid(grid)
        for alpha, kind in itertools.product(ALPHAS, MethodKind):
            system = assemble(kind, alpha, grid, timegrid, data)
            oracle = solve_spectral_oracle(kind, alpha, grid, timegrid, data)
            scale = np.linalg.norm(oracle.trajectory)
            allowance = 1e-8 * max(1.0, 1.0 / alpha)
            solves = {"sparse-lu": solve_sparse_lu(system)}
            if kind.is_circulant:
                solves["pint"] = solve_pint(system)
            for label, result in solves.items():
                gap = np.linalg.norm(result.trajectory - oracle.trajectory) / scale
                worst[label] = max(worst[label], gap)
                rel = residual(system, result.trajectory)[1]
                worst["residual"] = max(worst["residual"], rel / allowance)
    ok = (
        worst["pint"] <= 1e-7
        and worst["sparse-lu"] <= 1e-7
        and worst["residual"] <= 1.0
    )
    report(
        1,
        ok,
        f"vs spectral oracle: pint {worst['pint']:.2e}, "
        f"sparse-lu {worst['sparse-lu']:.2e} (tol 1e-7); "
        f"residual/allowance {worst['residual']:.2e} (tol 1)",
    )


def test_criterion_2_diagonalization():
    recon_worst = eig_worst = 0.0
    for size in range(2, 17):
        for omega in (-1e4, -1.0, -1e-4, 2.0):
            diag = diagonalize(size, omega)
            matrix = step_matrix(size, omega)
            rel = np.linalg.norm(reconstruct(diag) - matrix) / np.linalg.norm(
                matrix
            )
            recon_worst = max(recon_worst, rel / gamma_condition(size, omega))
            dense = scipy.linalg.eigvals(matrix)
            cost = np.abs(diag.eigenvalues[:, None] - dense[None, :])
            rows, cols = scipy.optimize.linear_sum_assignment(cost)
            eig_worst = max(eig_worst, float(cost[rows, cols].max()))
    ok = recon_worst <= 1e-10 and eig_worst <= 1e-10
    report(
        2,
        ok,
        f"reconstruction error / cond(gamma) {recon_worst:.2e}, "
        f"eigenvalue multiset gap {eig_worst:.2e} (tol 1e-10 each)",
    )


def test_criterion_3_error_bound_and_rate():
    n_steps = 64
    tau = HORIZON / n_steps
    lam = 0.25 * np.arange(1, 2801)
    times = (HORIZON / 4, HORIZON / 2, HORIZON)
    deltas = 10.0 ** -np.arange(2.0, 8.0)

    def final_coeffs(initial_amplitudes):
        modes = dict(initial_amplitudes)
        values = np.zeros_like(lam)
        for index, amplitude in modes.items():
            values[index] = amplitude * math.exp(-HORIZON * lam[index])
        return values, np.array(sorted(modes)), np.sqrt(
            sum(a * a for a in modes.values())
        )

    problems = [
        final_coeffs({3: 1.0}),
        final_coeffs({0: 0.8, 3: 0.5, 8: 0.3}),
    ]
    bound_worst = slope_worst = 0.0
    for values, signal, e0 in problems:
        coeffs = SpectralCoefficients(lam, values, HORIZON)
        for kind in (MethodKind.PINT_QBVM, MethodKind.PINT_MQBVM):
            for t in times:
                exact = coeffs.state_amplitudes(t)
                errors = []
                for delta in deltas:
                    if kind is MethodKind.PINT_QBVM:
                        alpha = delta / e0
                        denom = alpha * (1.0 + tau * lam)
                    else:
                        alpha = tau * delta / e0
                        denom = alpha * (lam + 1.0 / tau)
                    # worst admissible perturbation: all of delta on the
                    # most-amplified mode, orthogonal to the signal
                    gain = np.exp(-t * lam) / (denom + np.exp(-HORIZON * lam))
                    gain[signal] = 0.0
                    noisy = values.copy()
                    noisy[np.argmax(gain)] += delta
                    approx = regularized_series(
                        kind, alpha, tau, t, SpectralCoefficients(lam, noisy, HORIZON)
                    )
                    error = np.linalg.norm(approx - exact)
                    bound = theorem1_bound(delta, e0, t, HORIZON, tau)
                    bound_worst = max(bound_worst, error / bound)
                    errors.append(error)
                slope = np.polyfit(np.log(deltas), np.log(errors), 1)[0]
                target = t / (HORIZON + tau)
                slope_worst = max(slope_worst, abs(slope - target) / target)
    ok = bound_worst <= 1.0 and slope_worst <= 0.10
    report(
        3,
        ok,
        f"error/bound {bound_worst:.3f} (tol 1), "
        f"slope deviation {100 * slope_worst:.1f}% (tol 10%)",
    )


def test_criterion_4_benchmark_1d_error_bands():
    seed = 20260814
    start = time.perf_counter()
    pq_rows = run_experiment(
        ExperimentConfig(
            example=1,
            methods=(MethodKind.PINT_QBVM,),
            solver="pint",
            meshes=((1024, 1024),),
            eps_values=(1e-1, 1e-3),
            seed=seed,
            repeats=5,
        )
    )
    qb_rows = run_experiment(
        ExperimentConfig(
            example=1,
            methods=(MethodKind.QBVM,),
            solver="spectral-oracle",
            meshes=((1024, 1024),),
            eps_values=(1e-1, 1e-3),
            seed=seed,
            repeats=5,
        )
    )
    elapsed = time.perf_counter() - start
    assert all(r.status == "ok" for r in pq_rows + qb_rows)

    def median(rows, eps):
        return float(np.median([r.error_l2 for r in rows if r.eps == eps]))

    pq1, pq3 = median(pq_rows, 1e-1), median(pq_rows, 1e-3)
    qb1, qb3 = median(qb_rows, 1e-1), median(qb_rows, 1e-3)
    ok = (
        0.4 <= pq1 <= 0.9
        and 0.15 <= pq3 <= 0.6
        and 0.9 <= qb1 <= 1.4
        and 0.9 <= qb3 <= 1.4
        and elapsed < 60.0
    )
    report(
        4,
        ok,
        f"median e_h over 5 seeds at (1024,1024): pint-qbvm {pq1:.3f} "
        f"(band 0.4..0.9) / {pq3:.3f} (band 0.15..0.6); qbvm {qb1:.3f}, "
        f"{qb3:.3f} (band 0.9..1.4); wall {elapsed:.1f}s (< 60s)",
    )


def test_criterion_5_benchmark_2d_error_and_refusal():
    seed = 4
    start = time.perf_counter()
    rows = run_experiment(
        ExperimentConfig(
            example=2,
            methods=(MethodKind.PINT_QBVM, MethodKind.PINT_MQBVM),
            solver="pint",
            meshes=((128, 128),),
            eps_values=(1e-1, 1e-4),
            seed=seed,
        )
    )
    elapsed = time.perf_counter() - start
    assert all(r.status == "ok" for r in rows)
    bands_ok = all(
        r.error_l2 <= (0.25 if r.eps == 1e-1 else 0.15) and r.wall_total_s < 60.0
        for r in rows
    )
    refused = run_experiment(
        ExperimentConfig(
            example=2,
            methods=(MethodKind.QBVM, MethodKind.PINT_QBVM),
            solver="sparse-lu",
            meshes=((128, 128),),
            eps_values=(1e-1,),
            seed=seed,
        )
    )
    refusal_ok = all(r.status == "infeasible" for r in refused)
    errs = {(r.method, r.eps): r.error_l2 for r in rows}
    ok = bands_ok and refusal_ok and elapsed < 120.0
    report(
        5,
        ok,
        "e_h at (128^2,128): "
        + ", ".join(
            f"{m} eps={e:g}: {v:.3f}" for (m, e), v in sorted(errs.items())
        )
        + f" (tol 0.25 / 0.15); wall {elapsed:.1f}s; sparse-lu refused: {refusal_ok}",
    )


def _timed_pint(system, repeats):
    solve_pint(system)
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        solve_pint(system)
        best = min(best, time.perf_counter() - start)
    return best


def _pint_system(m, n, alpha=1e-3):
    grid = build_grid(1, np.pi, m)
    data = get_problem(1).final_on_grid(grid)
    return assemble(MethodKind.PINT_QBVM, alpha, grid, TimeGrid(HORIZON, n), data)


def test_criterion_6_speedup_and_scaling():
    # head-to-head on the noisy 1D benchmark configuration
    grid = build_grid(1, np.pi, 1024)
    noisy = add_noise(get_problem(1).final_on_grid(grid), 1e-1, 123, grid)
    system = assemble(
        MethodKind.PINT_QBVM,
        noisy.delta,
        grid,
        TimeGrid(HORIZON, 1024),
        noisy.values,
    )
    t_pint = _timed_pint(system, 3)
    start = time.perf_counter()
    lu = solve_sparse_lu(system)
    t_lu = time.perf_counter() - start
    assert lu.status == "ok"
    speedup = t_lu / t_pint
    speedup_ok = t_pint <= 0.1 * t_lu

    # the advantage must already hold at (256,256)
    small = _pint_system(256, 256)
    t_pint_small = _timed_pint(small, 5)
    t_lu_small = math.inf
    for _ in range(2):
        start = time.perf_counter()
        solve_sparse_lu(small)
        t_lu_small = min(t_lu_small, time.perf_counter() - start)
    crossover_ok = t_pint_small < t_lu_small

    # quasi-linear growth: three doublings of both axes, then each alone,
    # against the N_x * N_t * log(N_t) work model
    def model(m, n):
        return m * n * math.log2(n)

    sweeps = {
        "MxN": ((512, 512), (1024, 1024), (2048, 2048), (4096, 4096)),
        "M": ((512, 256), (1024, 256), (2048, 256), (4096, 256)),
        "N": ((256, 512), (256, 1024), (256, 2048), (256, 4096)),
    }
    scaling = {}
    scaling_ok = True
    for label, meshes in sweeps.items():
        times = [
            _timed_pint(_pint_system(m, n), 5 if m * n <= 2**19 else 3)
            for m, n in meshes
        ]
        measured = times[-1] / times[0]
        modeled = model(*meshes[-1]) / model(*meshes[0])
        scaling[label] = measured / modeled
        scaling_ok = scaling_ok and 0.5 <= measured / modeled <= 2.0
    ok = speedup_ok and crossover_ok and scaling_ok
    report(
        6,
        ok,
        f"speedup at (1024,1024): {speedup:.0f}x (need >= 10x); crossover at "
        f"(256,256): pint {1e3 * t_pint_small:.1f}ms vs lu "
        f"{1e3 * t_lu_small:.1f}ms; growth/model over 3 doublings "
        + ", ".join(f"{k}: {v:.2f}" for k, v in scaling.items())
        + " (window 0.5..2)",
    )


def test_criterion_7_operator_identity():
    checked = 0
    for grid in (build_grid(1, np.pi, 16), build_grid(2, np.pi, 8)):
        timegrid = TimeGrid(HORIZON, 8)
        data = get_problem(grid.dim).final_on_grid(grid)
        for alpha in ALPHAS:
            first = assemble(MethodKind.PINT_QBVM, alpha, grid, timegrid, data)
            second = assemble(
                MethodKind.PINT_MQBVM, timegrid.tau * alpha, grid, timegrid, data
            )
            a, b = first.sparse(), second.sparse()
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data, b.data)
            assert np.array_equal(first.rhs(), second.rhs())
            assert first.method.omega(timegrid.tau) == second.method.omega(
                timegrid.tau
            )
            checked += 1
    report(
        7,
        checked == 6,
        f"pint-qbvm(alpha) == pint-mqbvm(tau*alpha) bitwise (operator, rhs, "
        f"omega) on {checked} grid/alpha combinations",
    )
