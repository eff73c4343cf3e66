"""Sparse LU baseline, the per-mode closed form, and forward marching."""

import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg

import bhcp.baseline
import bhcp.methods
from bhcp.baseline import NNZ_BUDGET, solve_sparse_lu, solve_spectral_oracle
from bhcp.circulant import TimeGrid
from bhcp.methods import AllAtOnceSystem, MethodKind, assemble
from bhcp.pint import solve_pint
from bhcp.space import (
    apply_laplacian,
    build_grid,
    laplacian_eigenvalues,
    laplacian_matrix,
)

from solver_reference import march_forward, residual, sine_mode

ALL_KINDS = tuple(MethodKind)


def make_system(kind, alpha=0.1, m=8, n=8, dim=1, seed=10):
    grid = build_grid(dim, np.pi, m)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(grid.n_interior)
    return assemble(kind, alpha, grid, TimeGrid(1.0, n), data)


def mode_denominator(kind, alpha, tau, mu, n_steps):
    rho = 1.0 / (1.0 + tau * mu)
    decay = rho**n_steps
    if kind is MethodKind.QBVM:
        return alpha + decay
    if kind is MethodKind.MQBVM:
        return alpha * mu * rho + decay
    if kind is MethodKind.PINT_QBVM:
        return alpha * (1.0 + tau * mu) + decay
    return alpha * (mu + 1.0 / tau) + decay


def test_sparse_lu_small_residual():
    result = solve_sparse_lu(make_system(MethodKind.QBVM))
    assert result.status == "ok"
    assert result.residual_norm() <= 1e-10
    assert result.timings["total"] > 0


def test_sparse_lu_total_includes_assembly(monkeypatch):
    sparse = AllAtOnceSystem.sparse

    def slow_sparse(self):
        time.sleep(0.02)
        return sparse(self)

    monkeypatch.setattr(AllAtOnceSystem, "sparse", slow_sparse)
    result = solve_sparse_lu(make_system(MethodKind.QBVM))
    assert result.status == "ok"
    assert result.timings["total"] >= 0.02


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("dim, m, n", [(1, 8, 8), (2, 6, 6)])
def test_sparse_lu_matches_oracle(kind, dim, m, n):
    system = make_system(kind, alpha=1e-2, m=m, n=n, dim=dim)
    lu = solve_sparse_lu(system).trajectory
    oracle = solve_spectral_oracle(
        kind, 1e-2, system.grid, system.timegrid, system.data
    ).trajectory
    assert np.linalg.norm(lu - oracle) <= 1e-9 * np.linalg.norm(oracle)


def test_sparse_lu_matches_pint():
    system = make_system(MethodKind.PINT_MQBVM, alpha=1e-3)
    lu = solve_sparse_lu(system).trajectory
    fast = solve_pint(system).trajectory
    assert np.linalg.norm(lu - fast) <= 1e-9 * np.linalg.norm(lu)


def test_sparse_lu_refuses_over_budget(monkeypatch):
    system = make_system(MethodKind.QBVM)
    # the per-call override is the form perfbench's self-test uses
    assert solve_sparse_lu(system, nnz_budget=0).status == "infeasible"
    monkeypatch.setattr(bhcp.baseline, "NNZ_BUDGET", 10)
    result = solve_sparse_lu(system)
    assert result.status == "infeasible"
    assert result.trajectory is None
    assert result.timings == {}
    assert "budget" in result.message
    assert np.isnan(result.residual_norm())
    with pytest.raises(ValueError):
        result.initial_state


def test_default_budget_admits_1d_benchmark_scale():
    grid = build_grid(1, np.pi, 1024)
    system = assemble(
        MethodKind.QBVM, 0.1, grid, TimeGrid(1.0, 1024), np.zeros(grid.n_interior)
    )
    assert system.estimated_nnz() <= NNZ_BUDGET


def test_default_budget_refuses_2d_benchmark_scale():
    grid = build_grid(2, np.pi, 128)
    system = assemble(
        MethodKind.QBVM, 0.1, grid, TimeGrid(1.0, 128), np.zeros(grid.n_interior)
    )
    assert system.estimated_nnz() > NNZ_BUDGET
    result = solve_sparse_lu(system)
    assert result.status == "infeasible"


def test_refused_sparse_lu_builds_nothing(monkeypatch):
    grid = build_grid(2, np.pi, 512)
    system = assemble(
        MethodKind.QBVM, 0.1, grid, TimeGrid(1.0, 512), np.zeros(grid.n_interior)
    )
    calls = []

    def counted(grid):
        calls.append(grid)
        return laplacian_matrix(grid)

    monkeypatch.setattr(bhcp.methods, "laplacian_matrix", counted)
    tracemalloc.start()
    try:
        result = solve_sparse_lu(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.status == "infeasible"
    assert calls == []
    assert peak < 1024**2


def test_sparse_lu_refuses_an_overflowing_coupling(monkeypatch):
    # mqbvm's row 0 holds alpha/tau, which overflows at alpha 1e308, tau 1/8;
    # the refusal comes before the nonzero estimate and any assembly
    def unreachable(self):
        raise AssertionError("a refused solve must build nothing")

    monkeypatch.setattr(AllAtOnceSystem, "estimated_nnz", unreachable)
    monkeypatch.setattr(AllAtOnceSystem, "sparse", unreachable)
    result = solve_sparse_lu(make_system(MethodKind.MQBVM, alpha=1e308))
    assert result.status == "ill-conditioned"
    assert result.trajectory is None
    assert result.timings == {}
    assert "K[0, 0] = inf overflows" in result.message
    assert "alpha 1.000e+308" in result.message


def test_sparse_lu_refuses_a_non_finite_solution():
    # at alpha 1e-300 the pint corner 1/(tau*alpha) is finite but the LU
    # solution overflows; the suite's warning filter would turn a numpy
    # warning into an error
    grid = build_grid(1, np.pi, 64)
    data = np.sin(grid.interior_coords()[0]) * np.exp(-1.0)
    system = assemble(MethodKind.PINT_QBVM, 1e-300, grid, TimeGrid(1.0, 64), data)
    result = solve_sparse_lu(system)
    assert result.status == "ill-conditioned"
    assert result.trajectory is None and result.timings == {}
    assert result.message.endswith(
        " non-finite entries (alpha 1.000e-300, tau 1.562e-02)"
    )


FOOTPRINT_SCRIPT = """
import sys
import bhcp.baseline
from bhcp import ExperimentConfig, MethodKind, run_experiment
from bhcp.circulant import TimeGrid
from bhcp.methods import assemble
from bhcp.space import build_grid

def loaded():
    return "scipy.sparse.linalg" in sys.modules

assert not loaded()
for solver, methods in (
    ("pint", (MethodKind.PINT_QBVM, MethodKind.PINT_MQBVM)),
    ("spectral-oracle", tuple(MethodKind)),
):
    config = ExperimentConfig(1, methods, solver, ((8, 8),), (0.1,), seed=1)
    for report in run_experiment(config):
        assert report.status == "ok" and report.residual < 1e-10, report
assert not loaded()
grid = build_grid(1, 3.0, 8)
system = assemble(MethodKind.QBVM, 0.1, grid, TimeGrid(1.0, 8), [1.0] * 7)
budget = bhcp.baseline.NNZ_BUDGET
bhcp.baseline.NNZ_BUDGET = 0
assert bhcp.baseline.solve_sparse_lu(system).status == "infeasible"
assert not loaded()
bhcp.baseline.NNZ_BUDGET = budget
assert bhcp.baseline.solve_sparse_lu(system).status == "ok"
assert loaded()
"""


def test_sparse_lu_stack_loads_on_the_first_admitted_solve():
    # a pint or oracle sweep, and a refused sparse-LU solve, leave SuperLU
    # unloaded; a fresh process is needed because this module imports it
    src = os.path.dirname(os.path.dirname(bhcp.baseline.__file__))
    subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT],
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=300,
    )


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_oracle_single_mode(kind):
    grid = build_grid(1, np.pi, 8)
    timegrid = TimeGrid(1.0, 8)
    spectrum = laplacian_eigenvalues(grid)
    k, alpha = 2, 0.05
    mode = sine_mode(grid, k)
    result = solve_spectral_oracle(kind, alpha, grid, timegrid, mode)
    denom = mode_denominator(
        kind, alpha, timegrid.tau, spectrum.eigenvalues[k - 1], timegrid.num_steps
    )
    assert np.allclose(result.initial_state, mode / denom, rtol=1e-13)


def test_oracle_matches_dense_solve():
    system = make_system(MethodKind.PINT_QBVM, alpha=0.1)
    dense = np.linalg.solve(system.sparse().toarray(), system.rhs())
    oracle = solve_spectral_oracle(
        MethodKind.PINT_QBVM, 0.1, system.grid, system.timegrid, system.data
    ).trajectory.ravel()
    assert np.linalg.norm(oracle - dense) <= 1e-11 * np.linalg.norm(dense)


def test_oracle_trajectory_decays_per_mode():
    grid = build_grid(1, np.pi, 8)
    timegrid = TimeGrid(1.0, 4)
    spectrum = laplacian_eigenvalues(grid)
    mode = sine_mode(grid, 3)
    result = solve_spectral_oracle(MethodKind.QBVM, 0.1, grid, timegrid, mode)
    rho = 1.0 / (1.0 + timegrid.tau * spectrum.eigenvalues[2])
    for n in range(timegrid.n_levels):
        assert np.allclose(
            result.trajectory[n], rho**n * result.trajectory[0], rtol=1e-12
        )


def test_oracle_tiny_alpha_amplifies_all_modes():
    # with alpha below every rho^N the oracle inverts the discrete decay
    grid = build_grid(1, np.pi, 8)
    timegrid = TimeGrid(1.0, 8)
    spectrum = laplacian_eigenvalues(grid)
    g = sine_mode(grid, 1) + 0.2 * sine_mode(grid, 5)
    result = solve_spectral_oracle(MethodKind.QBVM, 1e-12, grid, timegrid, g)
    rho = 1.0 / (1.0 + timegrid.tau * spectrum.eigenvalues)
    expected = spectrum.transform(spectrum.transform(g) / rho**8)
    assert np.allclose(result.initial_state, expected, rtol=1e-6)
    assert np.linalg.norm(result.initial_state) > np.linalg.norm(g)


@pytest.mark.parametrize("kind", [MethodKind.PINT_QBVM, MethodKind.PINT_MQBVM])
def test_oracle_refuses_an_overflowing_denominator(kind):
    # the stored row 0 is finite at alpha 1e308, but alpha*(1 + tau*mu_k)
    # passes the largest float for the high modes, whose quotients would
    # be zeroed and leave a relative residual of about 1
    grid = build_grid(1, np.pi, 8)
    data = np.random.default_rng(3).standard_normal(grid.n_interior)
    result = solve_spectral_oracle(kind, 1e308, grid, TimeGrid(1.0, 8), data)
    assert result.system.overflow() is None
    assert result.status == "ill-conditioned"
    assert result.trajectory is None and result.timings == {}
    assert result.message == (
        "per-mode denominator D_k = inf overflows (alpha 1.000e+308, tau 1.250e-01)"
    )


@pytest.mark.parametrize("kind", [MethodKind.PINT_QBVM, MethodKind.PINT_MQBVM])
def test_oracle_refuses_an_overflowing_denominator_before_any_work(kind):
    # decided at the largest eigenvalue, before the spectrum, rho or the
    # denominators exist
    grid = build_grid(2, np.pi, 256)
    data = np.random.default_rng(7).standard_normal(grid.n_interior)
    laplacian_eigenvalues.cache_clear()
    tracemalloc.start()
    try:
        result = solve_spectral_oracle(kind, 1e308, grid, TimeGrid(1.0, 8), data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * data.nbytes
    assert result.system.overflow() is None
    assert result.message == (
        "per-mode denominator D_k = inf overflows (alpha 1.000e+308, tau 1.250e-01)"
    )


@pytest.mark.parametrize(
    "kind, alpha", [(MethodKind.MQBVM, 1e308), (MethodKind.PINT_QBVM, 1e-323)]
)
def test_oracle_refuses_an_overflowing_row_0_before_any_work(kind, alpha):
    # mqbvm's alpha/tau and the pint corner 1/(tau*alpha) overflow; the
    # refusal comes before the spectrum, rho or the denominators exist
    grid = build_grid(2, np.pi, 256)
    timegrid = TimeGrid(1.0, 8)
    data = np.random.default_rng(6).standard_normal(grid.n_interior)
    laplacian_eigenvalues.cache_clear()
    tracemalloc.start()
    try:
        result = solve_spectral_oracle(kind, alpha, grid, timegrid, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * data.nbytes
    assert result.status == "ill-conditioned"
    assert result.trajectory is None and result.timings == {}
    assert result.message == result.system.overflow()
    assert np.isnan(result.residual_norm())


def test_oracle_validates_data_shape():
    grid = build_grid(1, np.pi, 8)
    with pytest.raises(ValueError):
        solve_spectral_oracle(
            MethodKind.QBVM, 0.1, grid, TimeGrid(1.0, 8), np.zeros(8)
        )


def test_oracle_peak_memory_is_the_trajectory():
    # The trajectory is filled and transformed in place, so no second
    # full-size array is live at any point.
    grid = build_grid(2, np.pi, 96)
    timegrid = TimeGrid(1.0, 96)
    data = np.random.default_rng(5).standard_normal(grid.n_interior)
    solve_spectral_oracle(MethodKind.PINT_QBVM, 1e-3, grid, timegrid, data)
    tracemalloc.start()
    try:
        result = solve_spectral_oracle(
            MethodKind.PINT_QBVM, 1e-3, grid, timegrid, data
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * result.trajectory.nbytes


def test_march_zero_stays_zero():
    grid = build_grid(1, np.pi, 8)
    out = march_forward(np.zeros(7), TimeGrid(1.0, 8), grid)
    assert not out.any()


def test_march_decays_eigenmode():
    grid = build_grid(1, np.pi, 8)
    timegrid = TimeGrid(1.0, 5)
    spectrum = laplacian_eigenvalues(grid)
    mode = sine_mode(grid, 2)
    rho = 1.0 / (1.0 + timegrid.tau * spectrum.eigenvalues[1])
    out = march_forward(mode, timegrid, grid)
    assert np.allclose(out, rho**5 * mode, atol=1e-12)


def test_march_single_step():
    grid = build_grid(1, np.pi, 8)
    timegrid = TimeGrid(1.0, 1)
    spectrum = laplacian_eigenvalues(grid)
    mode = sine_mode(grid, 1)
    rho = 1.0 / (1.0 + timegrid.tau * spectrum.eigenvalues[0])
    assert np.allclose(march_forward(mode, timegrid, grid), rho * mode, atol=1e-13)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_final_condition_consistency(kind):
    # reconstruct, march forward independently, plug into the method's
    # regularized final condition; proper solutions satisfy it to roundoff
    grid = build_grid(1, np.pi, 8)
    timegrid = TimeGrid(1.0, 8)
    tau = timegrid.tau
    alpha = 0.05
    rng = np.random.default_rng(20)
    g = rng.standard_normal(grid.n_interior)
    y0 = solve_spectral_oracle(kind, alpha, grid, timegrid, g).initial_state
    y1 = march_forward(y0, TimeGrid(tau, 1), grid)
    yn = march_forward(y0, timegrid, grid)
    if kind is MethodKind.QBVM:
        lhs = alpha * y0 + yn
    elif kind is MethodKind.MQBVM:
        lhs = -(alpha / tau) * (y1 - y0) + yn
    elif kind is MethodKind.PINT_QBVM:
        lhs = tau * alpha * (y0 / tau - apply_laplacian(grid, y0)) + yn
    else:
        lhs = alpha * (y0 / tau - apply_laplacian(grid, y0)) + yn
    assert np.linalg.norm(lhs - g) <= 1e-9 * np.linalg.norm(g)


def test_qbvm_solve_then_march():
    system = make_system(MethodKind.QBVM, alpha=0.1)
    y0 = solve_sparse_lu(system).initial_state
    yn = march_forward(y0, system.timegrid, system.grid)
    gap = np.linalg.norm(0.1 * y0 + yn - system.data)
    assert gap <= 1e-9 * np.linalg.norm(system.data)


def test_oracle_residual_in_assembled_system():
    system = make_system(MethodKind.PINT_MQBVM, alpha=1e-2)
    result = solve_spectral_oracle(
        MethodKind.PINT_MQBVM, 1e-2, system.grid, system.timegrid, system.data
    )
    _, rel = residual(system, result.trajectory)
    assert rel <= 1e-10
