"""Method definitions, omega values, and all-at-once system assembly."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from bhcp.baseline import solve_sparse_lu, solve_spectral_oracle
from bhcp.bench import NOISE_FREE_ALPHA, resolve_alpha
from bhcp.circulant import TimeGrid
from bhcp.methods import MethodKind, MethodSpec, SolveResult, assemble
from bhcp.pint import solve_pint
from bhcp.space import BATCH_BYTES, build_grid, laplacian_matrix

from circulant_reference import step_matrix
from solver_reference import apply, residual

ALL_KINDS = tuple(MethodKind)


def small_system(kind, alpha=0.1, m=8, n=8, dim=1, seed=1):
    grid = build_grid(dim, np.pi, m)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(grid.n_interior)
    return assemble(kind, alpha, grid, TimeGrid(1.0, n), data)


def test_kind_tokens_and_circulant_flags():
    assert [k.value for k in ALL_KINDS] == ["qbvm", "mqbvm", "pint-qbvm", "pint-mqbvm"]
    assert not MethodKind.QBVM.is_circulant
    assert not MethodKind.MQBVM.is_circulant
    assert MethodKind.PINT_QBVM.is_circulant
    assert MethodKind.PINT_MQBVM.is_circulant


def test_alpha_rule_pairings():
    assert resolve_alpha("auto", MethodKind.PINT_MQBVM, 1e-3, 1e-2) == pytest.approx(
        1e-5
    )
    assert resolve_alpha("auto", MethodKind.PINT_QBVM, 0.5, 1e-2) == 0.5
    assert resolve_alpha("auto", MethodKind.QBVM, 0.25, 0.5) == 0.25
    assert resolve_alpha("auto", MethodKind.MQBVM, 0.25, 0.5) == 0.25


def test_alpha_rule_noise_free_fallback():
    assert NOISE_FREE_ALPHA == 1e-12
    assert resolve_alpha("auto", MethodKind.QBVM, 0.0, 0.1) == NOISE_FREE_ALPHA
    assert resolve_alpha("auto", MethodKind.PINT_MQBVM, 0.0, 0.1) == NOISE_FREE_ALPHA


def test_method_spec_validation_and_divisors():
    for alpha in (0.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            MethodSpec(MethodKind.QBVM, alpha)
    tau = 0.125
    assert MethodSpec(MethodKind.QBVM, 0.3).condition_divisor(tau) == 1.0
    assert MethodSpec(MethodKind.MQBVM, 0.3).condition_divisor(tau) == 1.0
    assert MethodSpec(MethodKind.PINT_QBVM, 0.3).condition_divisor(tau) == tau * 0.3
    assert MethodSpec(MethodKind.PINT_MQBVM, 0.3).condition_divisor(tau) == 0.3


def test_omega_values():
    tau = 0.125
    assert MethodSpec(MethodKind.QBVM, 0.3).omega(tau) is None
    assert MethodSpec(MethodKind.MQBVM, 0.3).omega(tau) is None
    assert MethodSpec(MethodKind.PINT_QBVM, 0.3).omega(tau) == pytest.approx(
        -1 / 0.3, rel=1e-15
    )
    assert MethodSpec(MethodKind.PINT_MQBVM, 0.3).omega(tau) == -tau / 0.3


def test_system_dimensions():
    system = small_system(MethodKind.QBVM)
    assert (system.n_levels, system.n_space) == (9, 7)
    assert system.omega is None


def test_rhs_layout():
    system = small_system(MethodKind.QBVM)
    rhs = system.rhs().reshape(9, 7)
    assert np.array_equal(rhs[0], system.data)
    assert not rhs[1:].any()
    tau = system.timegrid.tau
    pq = small_system(MethodKind.PINT_QBVM, alpha=0.1)
    assert np.array_equal(
        pq.rhs().reshape(9, 7)[0], pq.data / (tau * 0.1)
    )


def test_data_shape_is_validated():
    grid = build_grid(1, np.pi, 8)
    with pytest.raises(ValueError):
        assemble(MethodKind.QBVM, 0.1, grid, TimeGrid(1.0, 8), np.zeros(8))


def test_corner_block_action():
    # a vector living in the last time block lands in block 0 scaled by
    # 1/(tau*alpha) for pint-qbvm and 1/alpha for pint-mqbvm
    alpha = 0.2
    system = small_system(MethodKind.PINT_QBVM, alpha=alpha)
    tau = system.timegrid.tau
    states = np.zeros((system.n_levels, system.n_space))
    v = np.arange(1.0, system.n_space + 1)
    states[-1] = v
    out = apply(system, states)
    assert np.allclose(out[0], v / (tau * alpha), rtol=1e-15)

    system = small_system(MethodKind.PINT_MQBVM, alpha=alpha)
    states[-1] = v
    out = apply(system, states)
    assert np.allclose(out[0], v / alpha, rtol=1e-15)


def test_classic_first_rows():
    alpha = 0.3
    qbvm = small_system(MethodKind.QBVM, alpha=alpha)
    states = np.zeros((qbvm.n_levels, qbvm.n_space))
    states[0] = 1.0
    assert np.allclose(apply(qbvm, states)[0], alpha)

    mqbvm = small_system(MethodKind.MQBVM, alpha=alpha)
    tau = mqbvm.timegrid.tau
    states = np.zeros((mqbvm.n_levels, mqbvm.n_space))
    states[1] = 1.0
    assert np.allclose(apply(mqbvm, states)[0], -alpha / tau)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [1, 2, 8])
def test_time_coupling_matches_the_docstring_rows(kind, n):
    alpha = 0.3
    system = small_system(kind, alpha=alpha, n=n)
    tau = system.timegrid.tau
    expected = np.zeros((n + 1, n + 1))
    for level in range(1, n + 1):
        expected[level, level] = 1.0 / tau
        expected[level, level - 1] = -1.0 / tau
    # row 0 as written in the module docstring; at N = 1 mqbvm's two
    # entries in column 1 sum into one
    if kind is MethodKind.QBVM:
        expected[0, 0] += alpha
        expected[0, n] += 1.0
    elif kind is MethodKind.MQBVM:
        expected[0, 0] += alpha / tau
        expected[0, 1] -= alpha / tau
        expected[0, n] += 1.0
    elif kind is MethodKind.PINT_QBVM:
        expected[0, 0] += 1.0 / tau
        expected[0, n] += 1.0 / (tau * alpha)
    else:
        expected[0, 0] += 1.0 / tau
        expected[0, n] += 1.0 / alpha
    coupling = system.time_coupling
    assert coupling.has_canonical_format
    assert np.array_equal(coupling.toarray(), expected)
    assert list(system.lap_levels) == [kind.is_circulant] + [True] * n


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("alpha", [1e-1, 1e-3])
def test_sparse_matches_matrix_free(kind, alpha):
    system = small_system(kind, alpha=alpha)
    matrix = system.sparse()
    rng = np.random.default_rng(42)
    for _ in range(20):
        v = rng.standard_normal(system.n_levels * system.n_space)
        dense = matrix @ v
        err = np.linalg.norm(apply(system, v) - dense)
        assert err <= 1e-13 * np.linalg.norm(dense)


@pytest.mark.parametrize("kind", [MethodKind.PINT_QBVM, MethodKind.PINT_MQBVM])
def test_kronecker_identity(kind):
    # apply must equal (1/tau) (C ⊗ I) v - (I ⊗ lap) v built independently
    system = small_system(kind, alpha=0.05, m=5, n=4)
    tau = system.timegrid.tau
    c = step_matrix(system.n_levels, system.omega)
    eye_x = np.eye(system.n_space)
    eye_t = np.eye(system.n_levels)
    lap = laplacian_matrix(system.grid).toarray()
    big = np.kron(c, eye_x) / tau - np.kron(eye_t, lap)
    rng = np.random.default_rng(8)
    v = rng.standard_normal(system.n_levels * system.n_space)
    expected = big @ v
    assert np.linalg.norm(apply(system, v) - expected) <= 1e-13 * np.linalg.norm(
        expected
    )


def test_stepping_rows_identical_across_methods():
    rng = np.random.default_rng(14)
    v = rng.standard_normal(9 * 7)
    outputs = [
        apply(small_system(kind, alpha=0.07), v).reshape(9, 7) for kind in ALL_KINDS
    ]
    for other in outputs[1:]:
        assert np.array_equal(outputs[0][1:], other[1:])


def test_methods_agree_away_from_coupled_blocks():
    # a state supported on time blocks 2..N-1 cannot see row 0 of any method
    states = np.zeros((9, 7))
    rng = np.random.default_rng(15)
    states[2:-1] = rng.standard_normal((6, 7))
    outputs = [apply(small_system(kind, alpha=0.07), states) for kind in ALL_KINDS]
    for other in outputs[1:]:
        assert np.array_equal(outputs[0], other)


def test_pint_qbvm_equals_pint_mqbvm_at_rescaled_alpha():
    alpha = 0.05
    grid = build_grid(1, np.pi, 8)
    timegrid = TimeGrid(1.0, 8)
    tau = timegrid.tau
    rng = np.random.default_rng(2)
    data = rng.standard_normal(grid.n_interior)
    pq = assemble(MethodKind.PINT_QBVM, alpha, grid, timegrid, data)
    pm = assemble(MethodKind.PINT_MQBVM, tau * alpha, grid, timegrid, data)
    a, b = pq.sparse(), pm.sparse()
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(pq.rhs(), pm.rhs())
    assert pq.omega == pm.omega


def test_residual_of_zero_state_is_rhs():
    system = small_system(MethodKind.QBVM)
    vec, rel = residual(system, np.zeros(system.n_levels * system.n_space))
    assert np.array_equal(vec, system.rhs())
    assert rel == pytest.approx(1.0)


def test_residual_matches_dense_oracle():
    system = small_system(MethodKind.PINT_MQBVM, alpha=0.02)
    rng = np.random.default_rng(3)
    y = rng.standard_normal(system.n_levels * system.n_space)
    vec, rel = residual(system, y)
    dense_vec = system.rhs() - system.sparse().toarray() @ y
    assert np.allclose(vec, dense_vec, atol=1e-13 * np.linalg.norm(dense_vec))
    assert rel == pytest.approx(
        np.linalg.norm(dense_vec) / np.linalg.norm(system.rhs())
    )


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_residual_after_direct_solve(kind):
    system = small_system(kind, alpha=1e-3)
    y = scipy.sparse.linalg.spsolve(system.sparse().tocsc(), system.rhs())
    _, rel = residual(system, y)
    bound = 1e-8 * max(abs(system.omega or 0.0), 1.0)
    assert rel <= bound


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("dim, m", [(1, 12), (2, 6)])
def test_residual_norm_is_reference_norm_bitwise(kind, dim, m):
    # The name is kept so the suite's ids stay stable; the check is agreement
    # with the sparse-matrix residual within the roundoff of both. A row has
    # at most 8 terms, so either computed entry of rhs - A y is off by at most
    # about 4 eps (|A||y| + |b|), and the two norms differ by at most
    # 8 eps || |A||y| + |b| || / ||b||.
    system = small_system(kind, alpha=1e-2, m=m, n=7, dim=dim)
    results = [
        solve_sparse_lu(system),
        solve_spectral_oracle(kind, 1e-2, system.grid, system.timegrid, system.data),
        SolveResult(
            system=system,
            trajectory=np.random.default_rng(m).standard_normal(
                (system.n_levels, system.n_space)
            ),
            solver="random",
        ),
    ]
    if kind.is_circulant:
        results.append(solve_pint(system))
    matrix = system.sparse()
    rhs = system.rhs()
    rhs_norm = np.linalg.norm(rhs)
    for result in results:
        y = result.trajectory.ravel()
        reference = np.linalg.norm(rhs - matrix @ y) / rhs_norm
        magnitude = np.linalg.norm(abs(matrix) @ np.abs(y) + np.abs(rhs)) / rhs_norm
        gap = abs(result.residual_norm() - reference)
        assert gap <= 8 * np.finfo(float).eps * magnitude, result.solver


@pytest.mark.parametrize("kind", [MethodKind.QBVM, MethodKind.PINT_QBVM])
def test_residual_norm_memory_is_a_few_batches(kind):
    # 2D 128^2 x 128: a 16 MiB trajectory over 32 level batches. The norm is
    # summed batch by batch, so its peak does not grow with the trajectory;
    # only the last bits differ from the one-vector reference.
    system = small_system(kind, alpha=1e-2, m=128, n=128, dim=2)
    states = np.random.default_rng(8).standard_normal((system.n_levels, system.n_space))
    result = SolveResult(system=system, trajectory=states, solver="test")
    tracemalloc.start()
    try:
        norm = result.residual_norm()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * BATCH_BYTES < states.nbytes / 5
    assert norm == pytest.approx(residual(system, states)[1], rel=1e-13)


@pytest.mark.parametrize("alpha, magnitude", [(1e-300, 1.0), (1e300, 1e-300)])
def test_residual_norm_of_an_extreme_rhs(alpha, magnitude):
    # pint-mqbvm stores g/alpha in row 0, about 1e300 or 1e-300 here, whose
    # squares overflow or underflow. Scaling the data and states of that
    # magnitude by 2**s scales every row exactly, so the norm equals that of
    # an in-range copy. grid_norm, which would score such a row, is not used.
    system = small_system(MethodKind.PINT_MQBVM, alpha=alpha)
    shift = -int(np.frexp(np.abs(system.condition_rhs()).max())[1])
    in_range = assemble(
        MethodKind.PINT_MQBVM, alpha, system.grid, system.timegrid,
        np.ldexp(system.data, shift),
    )
    states = magnitude * np.random.default_rng(5).standard_normal(
        (system.n_levels, system.n_space)
    )
    norm = SolveResult(system, states, "test").residual_norm()
    expected = SolveResult(in_range, np.ldexp(states, shift), "test").residual_norm()
    assert np.isfinite(norm) and norm == expected
    solved = solve_sparse_lu(system).residual_norm()
    assert np.isfinite(solved) and solved <= 1e-6


def test_residual_norm_of_a_subnormal_rhs():
    # at alpha 1e308 pint-mqbvm's row 0, g/alpha, is below the smallest
    # normal float; the power-of-two scale is capped so that it stays finite
    grid = build_grid(1, np.pi, 8)
    data = 1e-3 * np.random.default_rng(1).standard_normal(grid.n_interior)
    system = assemble(MethodKind.PINT_MQBVM, 1e308, grid, TimeGrid(1.0, 8), data)
    assert np.abs(system.condition_rhs()).max() < np.finfo(float).tiny
    assert np.isfinite(solve_sparse_lu(system).residual_norm())


def test_overflow_names_an_underflowed_pint_corner():
    assert all(small_system(kind).overflow() is None for kind in ALL_KINDS)
    # tau*alpha underflows to 0 and 1/(tau*alpha) is inf, without a warning
    system = small_system(MethodKind.PINT_QBVM, alpha=5e-324)
    assert system.time_coupling[0, 8] == np.inf
    assert system.overflow() == (
        "time coupling coefficient K[0, 8] = inf overflows "
        "(alpha 4.941e-324, tau 1.250e-01)"
    )


@pytest.mark.parametrize("solver", ["pint", "sparse-lu", "spectral-oracle"])
def test_every_solver_refuses_an_overflowing_condition_rhs(solver):
    # the corner 1/alpha = 1e10 is finite, but g/alpha is about 1e310
    grid = build_grid(1, np.pi, 8)
    data = np.full(grid.n_interior, 1e300)
    data[3] = -2e300
    timegrid = TimeGrid(1.0, 8)
    kind = MethodKind.PINT_MQBVM
    if solver == "spectral-oracle":
        result = solve_spectral_oracle(kind, 1e-10, grid, timegrid, data)
    else:
        system = assemble(kind, 1e-10, grid, timegrid, data)
        result = (solve_pint if solver == "pint" else solve_sparse_lu)(system)
    assert result.status == "ill-conditioned"
    assert result.trajectory is None and result.timings == {}
    assert result.message == (
        "condition right-hand side max|g|/divisor = inf overflows "
        "(alpha 1.000e-10, tau 1.250e-01)"
    )


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("dim, m, n", [(1, 8, 8), (2, 6, 5), (2, 3, 4), (1, 2, 3)])
def test_estimated_nnz_bounds_actual(kind, dim, m, n):
    grid = build_grid(dim, np.pi, m)
    data = np.ones(grid.n_interior)
    system = assemble(kind, 0.1, grid, TimeGrid(1.0, n), data)
    assert system.estimated_nnz() >= system.sparse().nnz
    size = system.n_levels * system.n_space
    assert system.sparse().shape == (size, size)
