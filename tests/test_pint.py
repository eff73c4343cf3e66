"""The 3-step FFT solver against baselines, plus its batched middle step."""

import tracemalloc

import numpy as np
import pytest

from bhcp.baseline import solve_sparse_lu, solve_spectral_oracle
from bhcp.circulant import TimeGrid, diagonalize, from_eigenspace, to_eigenspace
from bhcp.methods import MethodKind, assemble
from bhcp.pint import solve_pint
from bhcp.space import (
    SingularShiftError,
    build_grid,
    laplacian_eigenvalues,
    shifted_solve,
)


def pint_system(kind=MethodKind.PINT_QBVM, alpha=0.1, m=8, n=8, dim=1, seed=4):
    grid = build_grid(dim, np.pi, m)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(grid.n_interior)
    return assemble(kind, alpha, grid, TimeGrid(1.0, n), data)


def relative_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_matches_sparse_lu():
    system = pint_system()
    fast = solve_pint(system).trajectory
    slow = solve_sparse_lu(system).trajectory
    assert relative_gap(fast, slow) <= 1e-9


def test_matches_spectral_oracle():
    system = pint_system()
    fast = solve_pint(system).trajectory
    oracle = solve_spectral_oracle(
        system.method.kind, system.method.alpha, system.grid, system.timegrid,
        system.data,
    ).trajectory
    assert relative_gap(fast, oracle) <= 1e-9


@pytest.mark.parametrize("kind", [MethodKind.PINT_QBVM, MethodKind.PINT_MQBVM])
def test_matches_oracle_2d(kind):
    system = pint_system(kind, alpha=1e-2, m=6, n=5, dim=2)
    fast = solve_pint(system).trajectory
    oracle = solve_spectral_oracle(
        kind, 1e-2, system.grid, system.timegrid, system.data
    ).trajectory
    assert relative_gap(fast, oracle) <= 1e-9


def test_zero_data_gives_zero_solution():
    grid = build_grid(1, np.pi, 8)
    system = assemble(
        MethodKind.PINT_QBVM, 0.1, grid, TimeGrid(1.0, 8), np.zeros(7)
    )
    result = solve_pint(system)
    assert not result.trajectory.any()


@pytest.mark.parametrize("kind", [MethodKind.QBVM, MethodKind.MQBVM])
def test_rejects_classic_kinds(kind):
    with pytest.raises(ValueError):
        solve_pint(pint_system(kind))


def test_residual_scales_with_corner_size():
    system = pint_system(alpha=1e-3)
    result = solve_pint(system)
    assert result.residual_norm() <= 1e-8 * max(1.0, abs(system.omega))


def test_result_layout_and_timings():
    system = pint_system()
    result = solve_pint(system)
    assert result.status == "ok"
    assert result.solver == "pint"
    assert result.trajectory.shape == (system.n_levels, system.n_space)
    assert result.trajectory.dtype == np.float64
    assert result.trajectory.flags["C_CONTIGUOUS"]
    assert np.array_equal(result.initial_state, result.trajectory[0])
    assert np.array_equal(result.final_state, result.trajectory[-1])
    steps = [result.timings[k] for k in ("step_a", "step_b", "step_c")]
    assert all(t >= 0 for t in steps)
    assert result.timings["total"] == pytest.approx(sum(steps), abs=1e-9)


@pytest.mark.parametrize("kind", [MethodKind.PINT_QBVM, MethodKind.PINT_MQBVM])
@pytest.mark.parametrize(
    "dim, m, n", [(1, 12, 7), (1, 12, 8), (2, 6, 5), (2, 6, 6)]
)
def test_matches_per_level_banded_loop(kind, dim, m, n):
    # Reference: full time FFT of rhs, one banded solve per level with its own
    # eigenvalue, back FFT. It uses neither the closed-form step A nor the
    # conjugate fill, and n steps give n + 1 levels, so both parities run.
    system = pint_system(kind, alpha=1e-2, m=m, n=n, dim=dim)
    diag = diagonalize(system.n_levels, system.omega)
    rotated = to_eigenspace(
        system.rhs().reshape(system.n_levels, system.n_space), diag
    )
    solved = np.stack([
        shifted_solve(system.grid, d / system.timegrid.tau, level, backend="banded")
        for d, level in zip(diag.eigenvalues, rotated)
    ])
    expected = from_eigenspace(solved, diag)
    fast = solve_pint(system).trajectory
    assert relative_gap(fast, expected) <= 1e-13 * diag.condition_gamma


def test_repeat_calls_are_bitwise_identical():
    system = pint_system(alpha=1e-3, m=16, n=9)
    first = solve_pint(system).trajectory
    second = solve_pint(system).trajectory
    assert np.array_equal(first, second)


def test_peak_memory_is_the_complex_block():
    system = pint_system(m=128, n=64, dim=2)
    solve_pint(system)
    tracemalloc.start()
    try:
        trajectory = solve_pint(system).trajectory
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The complex block is twice the real trajectory, which then reuses its
    # memory; batch temporaries of step B and C add a few MiB on top.
    assert peak <= 3.0 * trajectory.nbytes


def test_step_b_single_column():
    # a one-element shift vector gives the scalar solve as its only row
    grid = build_grid(1, np.pi, 8)
    rng = np.random.default_rng(6)
    rhs = rng.standard_normal(7)
    out = shifted_solve(grid, np.array([2.0 + 1.0j]), rhs)
    assert out.shape == (1, 7)
    assert np.array_equal(out[0], shifted_solve(grid, 2.0 + 1.0j, rhs))


def test_step_b_sine_mode_closed_form():
    grid = build_grid(1, np.pi, 8)
    spectrum = laplacian_eigenvalues(grid)
    tau = 0.125
    diag = diagonalize(9, -4.0)
    shifts = diag.eigenvalues / tau
    k = 3
    mode = spectrum.mode(k)
    out = shifted_solve(grid, shifts, mode)
    mu = spectrum.eigenvalues[k - 1]
    expected = mode[None, :] / (shifts[:, None] + mu)
    assert np.allclose(out, expected, atol=1e-13)


def test_step_b_reports_failing_column():
    # vector-shift solves name the index of the offending shift
    grid = build_grid(1, np.pi, 8)
    mu1 = laplacian_eigenvalues(grid).eigenvalues[0]
    shifts = np.array([1.0, 2.0, -mu1, 4.0])
    with pytest.raises(SingularShiftError, match="shift 2 "):
        shifted_solve(grid, shifts, np.ones(7))
    with pytest.raises(SingularShiftError, match="shift 2 "):
        shifted_solve(grid, shifts, np.ones(7), backend="banded")


def test_step_b_shape_check():
    grid = build_grid(1, np.pi, 8)
    with pytest.raises(ValueError):
        shifted_solve(grid, np.ones((2, 3)), np.ones(7))
    with pytest.raises(ValueError):
        shifted_solve(grid, np.ones(3), np.ones((3, 7)))
