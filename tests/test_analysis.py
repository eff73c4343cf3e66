"""Series solutions, stability and error bounds, noise, benchmark problems."""

import math

import numpy as np
import pytest

from bhcp.analysis import (
    SpectralCoefficients,
    add_noise,
    error_bound,
    exact_solution_ex1,
    exact_solution_ex2,
    get_problem,
    regularized_series,
    stability_bound,
    theorem1_bound,
)
from bhcp.circulant import TimeGrid
from bhcp.methods import MethodKind
from bhcp.space import build_grid, grid_norm

from solver_reference import march_forward


def random_coefficients(rng, modes=20):
    lam = np.arange(1.0, modes + 1) ** 2
    b = rng.standard_normal(modes) * np.exp(-lam)
    return SpectralCoefficients(eigenvalues=lam, coefficients=b, horizon=1.0)


def test_ex1_peak_value():
    assert exact_solution_ex1(np.pi / 2, 0.0) == pytest.approx(np.pi, abs=1e-2)


def test_ex1_boundary_value():
    assert abs(exact_solution_ex1(0.0, 0.0)) <= 1e-3
    assert abs(exact_solution_ex1(np.pi, 0.0)) <= 1e-3


def test_ex1_initial_profile_matches_triangle():
    x = np.array([0.3, 1.0, np.pi / 2, 2.2, 3.0])
    triangle = np.pi - np.abs(2 * x - np.pi)
    assert np.allclose(exact_solution_ex1(x, 0.0), triangle, atol=1e-2)


def test_ex1_matches_fine_grid_forward_march():
    # independent oracle: march the triangle forward on a fine grid with two
    # step counts and Richardson-extrapolate the O(tau) error away
    grid = build_grid(1, np.pi, 1024)
    x = grid.axis_nodes
    triangle = np.pi - np.abs(2 * x - np.pi)
    coarse = march_forward(triangle, TimeGrid(1.0, 512), grid)
    fine = march_forward(triangle, TimeGrid(1.0, 1024), grid)
    extrapolated = 2.0 * fine - coarse
    idx = 255  # node at pi/4
    assert x[idx] == pytest.approx(np.pi / 4)
    assert extrapolated[idx] == pytest.approx(
        exact_solution_ex1(np.pi / 4, 1.0), abs=1e-4
    )


def test_ex2_closed_form():
    assert exact_solution_ex2(np.pi / 2, np.pi / 2, 0.0) == pytest.approx(1.0)
    x = np.linspace(0.3, 2.8, 7)
    assert np.allclose(
        exact_solution_ex2(x, x, 1.0), np.exp(-2) * np.sin(x) ** 2, rtol=1e-14
    )


def test_get_problem_lookup():
    assert get_problem(1).name == "ex1"
    assert get_problem(2).name == "ex2"
    with pytest.raises(ValueError):
        get_problem(3)


def test_problem_metadata():
    ex1, ex2 = get_problem(1), get_problem(2)
    assert (ex1.dim, ex1.horizon) == (1, 1.0)
    assert (ex2.dim, ex2.horizon) == (2, 1.0)
    assert ex1.e0 == pytest.approx(math.sqrt(np.pi**3 / 3))
    assert ex2.e0 == pytest.approx(np.pi / 2)


def test_initial_norm_within_stated_bound():
    # the implied initial norm stays below e0 and nearly saturates it; the
    # slack covers series truncation and underflow of the deepest modes
    for problem in (get_problem(1), get_problem(2)):
        norm = problem.series.initial_norm()
        assert norm <= problem.e0 * (1 + 1e-12)
        assert norm >= problem.e0 * (1 - 1e-5)


def test_series_reproduces_final_data_ex1():
    # orthonormal coefficients against the closed-form solution at the horizon
    problem = get_problem(1)
    x = np.array([0.5, 1.2, np.pi / 2, 2.5])
    k = np.sqrt(problem.series.eigenvalues)
    basis = np.sqrt(2 / np.pi) * np.sin(np.outer(x, k))
    series_value = basis @ problem.series.coefficients
    assert np.allclose(series_value, exact_solution_ex1(x, 1.0), atol=1e-12)


def test_series_reproduces_final_data_ex2():
    problem = get_problem(2)
    x1, x2 = 0.7, 1.9
    basis = (2 / np.pi) * np.sin(x1) * np.sin(x2)
    assert basis * problem.series.coefficients[0] == pytest.approx(
        exact_solution_ex2(x1, x2, 1.0), rel=1e-14
    )


def test_grid_sampling_validates_domain():
    with pytest.raises(ValueError):
        get_problem(1).final_on_grid(build_grid(2, np.pi, 8))
    with pytest.raises(ValueError):
        get_problem(2).initial_on_grid(build_grid(2, 1.0, 8))


def test_initial_profile_peak_on_grid():
    grid = build_grid(1, np.pi, 1024)
    values = get_problem(1).initial_on_grid(grid)
    assert values[511] == pytest.approx(np.pi, abs=1e-2)


def test_data_norm_matches_grid_quadrature():
    for which, dim in ((1, 1), (2, 2)):
        problem = get_problem(which)
        grid = build_grid(dim, np.pi, 256 if dim == 1 else 64)
        sampled = grid_norm(problem.final_on_grid(grid), grid)
        assert sampled == pytest.approx(problem.series.data_norm(), rel=1e-3)


def test_spectral_coefficients_validation():
    with pytest.raises(ValueError):
        SpectralCoefficients(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        SpectralCoefficients(np.array([-1.0, 2.0]), np.array([1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        SpectralCoefficients(np.array([1.0, 2.0]), np.array([1.0]), 1.0)


def test_state_amplitudes_endpoints():
    coeffs = random_coefficients(np.random.default_rng(1))
    assert np.allclose(
        coeffs.state_amplitudes(coeffs.horizon), coeffs.coefficients, rtol=1e-14
    )
    assert coeffs.initial_norm() >= coeffs.data_norm()


def test_single_mode_amplitude_value():
    coeffs = SpectralCoefficients(
        np.array([2.0]), np.array([math.exp(-2.0)]), horizon=1.0
    )
    amp = regularized_series(MethodKind.PINT_QBVM, 0.01, 0.01, 0.0, coeffs)
    expected = math.exp(-2) / (0.01 * (1 + 0.01 * 2.0) + math.exp(-2))
    assert amp[0] == pytest.approx(expected, rel=1e-12)
    assert amp[0] == pytest.approx(0.92992, abs=1e-5)


def test_mqbvm_denominator():
    coeffs = SpectralCoefficients(np.array([3.0]), np.array([0.5]), horizon=1.0)
    amp = regularized_series(MethodKind.MQBVM, 0.1, 0.7, 0.25, coeffs)
    expected = math.exp(-0.25 * 3) * 0.5 / (0.1 * 3 + math.exp(-3.0))
    assert amp[0] == pytest.approx(expected, rel=1e-13)


def test_pint_qbvm_with_zero_tau_reduces_to_qbvm():
    coeffs = random_coefficients(np.random.default_rng(2))
    a = regularized_series(MethodKind.PINT_QBVM, 0.03, 0.0, 0.4, coeffs)
    b = regularized_series(MethodKind.QBVM, 0.03, 0.9, 0.4, coeffs)
    assert np.array_equal(a, b)


def test_classic_kinds_ignore_tau():
    coeffs = random_coefficients(np.random.default_rng(3))
    for kind in (MethodKind.QBVM, MethodKind.MQBVM):
        a = regularized_series(kind, 0.03, 0.1, 0.4, coeffs)
        b = regularized_series(kind, 0.03, 5.0, 0.4, coeffs)
        assert np.array_equal(a, b)


def test_pint_pair_identity_modewise():
    # pint-qbvm at alpha and pint-mqbvm at tau*alpha share every denominator
    coeffs = random_coefficients(np.random.default_rng(4))
    alpha, tau = 3.7e-3, 0.02
    a = regularized_series(MethodKind.PINT_QBVM, alpha, tau, 0.3, coeffs)
    b = regularized_series(MethodKind.PINT_MQBVM, tau * alpha, tau, 0.3, coeffs)
    assert np.allclose(a, b, rtol=1e-15)


def test_amplitudes_vanish_for_large_alpha():
    coeffs = random_coefficients(np.random.default_rng(5))
    norms = [
        np.linalg.norm(regularized_series(MethodKind.PINT_QBVM, a, 0.01, 0.0, coeffs))
        for a in (1.0, 1e2, 1e4, 1e8)
    ]
    assert all(n1 > n2 for n1, n2 in zip(norms, norms[1:]))
    assert norms[-1] <= 1e-7 * coeffs.data_norm()


def test_regularized_series_input_guards():
    coeffs = random_coefficients(np.random.default_rng(6))
    with pytest.raises(ValueError):
        regularized_series(MethodKind.QBVM, 0.0, 0.1, 0.0, coeffs)
    with pytest.raises(ValueError):
        regularized_series(MethodKind.PINT_QBVM, 0.1, -0.1, 0.0, coeffs)
    with pytest.raises(ValueError):
        regularized_series(MethodKind.PINT_MQBVM, 0.1, 0.0, 0.0, coeffs)


def test_add_noise_no_noise():
    grid = build_grid(1, np.pi, 16)
    data = get_problem(1).final_on_grid(grid)
    noisy = add_noise(data, 0.0, 123, grid)
    assert np.array_equal(noisy.values, data)
    assert noisy.delta == 0.0


def test_add_noise_determinism():
    grid = build_grid(1, np.pi, 16)
    data = get_problem(1).final_on_grid(grid)
    a = add_noise(data, 0.1, 7, grid)
    b = add_noise(data, 0.1, 7, grid)
    c = add_noise(data, 0.1, 8, grid)
    assert np.array_equal(a.values, b.values)
    assert a.delta == b.delta
    assert not np.array_equal(a.values, c.values)


def test_add_noise_bounds():
    grid = build_grid(2, np.pi, 12)
    data = get_problem(2).final_on_grid(grid)
    eps = 0.1
    noisy = add_noise(data, eps, 99, grid)
    assert np.all(np.abs(noisy.values - data) <= eps * np.abs(data) + 1e-15)
    assert 0 < noisy.delta <= eps * grid_norm(data, grid)


def test_add_noise_rejects_negative_eps():
    grid = build_grid(1, np.pi, 8)
    with pytest.raises(ValueError):
        add_noise(np.ones(7), -0.1, 0, grid)


def test_bounds_reject_mqbvm():
    with pytest.raises(ValueError):
        stability_bound(MethodKind.MQBVM, 0.1, 0.1, 0.5, 1.0)
    with pytest.raises(ValueError):
        error_bound(MethodKind.MQBVM, 0.1, 0.1, 0.5, 1.0)


def test_bounds_guard_time_domain():
    with pytest.raises(ValueError):
        stability_bound(MethodKind.PINT_QBVM, 0.1, 0.1, 1.2, 1.0)
    with pytest.raises(ValueError):
        error_bound(MethodKind.PINT_QBVM, 0.1, 0.1, -0.1, 1.0)


def test_error_bound_at_initial_time_is_e0():
    assert error_bound(MethodKind.PINT_QBVM, 1e-4, 0.01, 0.0, 3.5) == 3.5
    assert error_bound(MethodKind.QBVM, 1e-4, 0.37, 0.0, 3.5) == 3.5


def test_bound_closed_forms():
    alpha, tau, t = 1e-4, 1e-2, 0.5
    s = t / (1.0 + tau)
    assert error_bound(MethodKind.PINT_QBVM, alpha, tau, t, 2.0) == pytest.approx(
        2.0 * alpha**s, rel=1e-13
    )
    assert stability_bound(MethodKind.PINT_MQBVM, alpha, tau, t, 2.0) == pytest.approx(
        2.0 * (tau / alpha) ** (1 - s), rel=1e-13
    )
    # qbvm is the tau = 0 specialization regardless of the tau argument
    assert stability_bound(MethodKind.QBVM, alpha, 0.37, t, 2.0) == pytest.approx(
        2.0 * (1 / alpha) ** (1 - t), rel=1e-13
    )


@pytest.mark.parametrize(
    "kind", [MethodKind.QBVM, MethodKind.PINT_QBVM, MethodKind.PINT_MQBVM]
)
def test_stability_bound_holds_on_random_series(kind):
    rng = np.random.default_rng(41)
    for _ in range(50):
        coeffs = random_coefficients(rng)
        alpha = 10.0 ** rng.uniform(-6, -0.5)
        tau = 10.0 ** rng.uniform(-3, -0.3)
        t = rng.uniform(0.0, 1.0)
        norm = np.linalg.norm(regularized_series(kind, alpha, tau, t, coeffs))
        bound = stability_bound(kind, alpha, tau, t, coeffs.data_norm())
        assert norm <= bound * (1 + 1e-12)


@pytest.mark.parametrize(
    "kind", [MethodKind.QBVM, MethodKind.PINT_QBVM, MethodKind.PINT_MQBVM]
)
def test_error_bound_holds_on_random_series(kind):
    rng = np.random.default_rng(43)
    for _ in range(50):
        coeffs = random_coefficients(rng)
        alpha = 10.0 ** rng.uniform(-6, -0.5)
        tau = 10.0 ** rng.uniform(-3, -0.3)
        t = rng.uniform(0.0, 1.0)
        regularized = regularized_series(kind, alpha, tau, t, coeffs)
        diff = np.linalg.norm(regularized - coeffs.state_amplitudes(t))
        bound = error_bound(kind, alpha, tau, t, coeffs.initial_norm())
        assert diff <= bound * (1 + 1e-12)


def test_theorem1_values():
    assert theorem1_bound(1e-3, 2.0, 0.0, 1.0, 0.01) == pytest.approx(
        math.sqrt(2) * 2.0
    )
    for t in (0.25, 0.5, 1.0):
        assert theorem1_bound(3.0, 3.0, t, 1.0, 0.01) == pytest.approx(
            math.sqrt(2) * 3.0
        )
    s = 1.0 / 1.01
    assert theorem1_bound(1e-3, 1.0, 1.0, 1.0, 0.01) == pytest.approx(
        math.sqrt(2) * 1e-3**s, rel=1e-13
    )


def test_theorem1_guards():
    with pytest.raises(ValueError):
        theorem1_bound(0.0, 1.0, 0.5, 1.0, 0.01)
    with pytest.raises(ValueError):
        theorem1_bound(1e-3, -1.0, 0.5, 1.0, 0.01)
    with pytest.raises(ValueError):
        theorem1_bound(1e-3, 1.0, 1.5, 1.0, 0.01)
