"""Grids, Laplacian spectra, sine transforms, shifted solves, the batch split."""

import os
import threading
import time
import warnings

import numpy as np
import pytest
import scipy.linalg

from bhcp import space
from bhcp.space import (
    BATCH_BYTES,
    SingularShiftError,
    SpatialGrid,
    SpatialSpectrum,
    apply_laplacian,
    build_grid,
    grid_norm,
    laplacian_eigenvalues,
    laplacian_matrix,
    level_batches,
    shifted_solve,
)

from banded_reference import banded_solve
from solver_reference import sine_mode, solve_shifts


@pytest.mark.parametrize(
    "dim, cells, expected",
    [(1, 2, 1), (1, 1024, 1023), (2, 64, 63**2), (2, 3, 4)],
)
def test_interior_count(dim, cells, expected):
    assert build_grid(dim, np.pi, cells).n_interior == expected


def test_grid_geometry():
    grid = build_grid(1, np.pi, 4)
    assert grid.h == pytest.approx(np.pi / 4)
    assert np.allclose(grid.axis_nodes, [np.pi / 4, np.pi / 2, 3 * np.pi / 4])


def test_interior_coords_2d_c_order():
    grid = build_grid(2, np.pi, 3)
    x1, x2 = grid.interior_coords()
    h = grid.h
    # first axis outermost: (h,h), (h,2h), (2h,h), (2h,2h)
    assert np.allclose(x1, [h, h, 2 * h, 2 * h])
    assert np.allclose(x2, [h, 2 * h, h, 2 * h])


@pytest.mark.parametrize("dim, cells", [(1, 2), (1, 9), (2, 3), (2, 7)])
def test_grid_shape_is_interior_nodes_per_axis(dim, cells):
    grid = build_grid(dim, np.pi, cells)
    assert grid.shape == (cells - 1,) * dim
    assert np.prod(grid.shape) == grid.n_interior
    assert all(x.shape == (grid.n_interior,) for x in grid.interior_coords())


@pytest.mark.parametrize("dim, length, cells", [(3, np.pi, 4), (1, 0.0, 4), (1, np.pi, 1)])
def test_grid_rejects_bad_parameters(dim, length, cells):
    with pytest.raises(ValueError):
        build_grid(dim, length, cells)


def test_grid_norm_weighting():
    grid = build_grid(1, np.pi, 4)
    ones = np.ones(grid.n_interior)
    assert grid_norm(ones, grid) == pytest.approx(np.sqrt(grid.h * 3))
    grid2 = build_grid(2, np.pi, 4)
    assert grid_norm(np.ones(9), grid2) == pytest.approx(grid2.h * 3.0)
    with pytest.raises(ValueError):
        grid_norm(np.ones(5), grid)


@pytest.mark.parametrize("dim", [1, 2])
def test_grid_norm_of_values_whose_squares_overflow(dim):
    # an error of 1e285, which a wrong answer can have, is finite; scaling
    # by a power of two makes the norm that of an in-range copy exactly
    grid = build_grid(dim, np.pi, 6)
    values = np.random.default_rng(2).standard_normal(grid.n_interior)
    shift = 950
    huge = grid_norm(np.ldexp(values, shift), grid)
    assert np.isfinite(huge)
    assert huge == grid.h ** (dim / 2.0) * np.ldexp(np.linalg.norm(values), shift)


@pytest.mark.parametrize("dim, cells", [(1, 9), (2, 6)])
def test_laplacian_matrix_is_cached_per_grid(dim, cells):
    grid = build_grid(dim, np.pi, cells)
    same = SpatialGrid(grid.dim, grid.length, grid.num_cells)
    assert laplacian_matrix(grid) is laplacian_matrix(same)
    assert laplacian_matrix(grid) is not laplacian_matrix(
        SpatialGrid(grid.dim, grid.length, grid.num_cells + 1)
    )


def test_smallest_eigenvalue_closed_form():
    grid = build_grid(1, np.pi, 2)
    spectrum = laplacian_eigenvalues(grid)
    assert spectrum.eigenvalues.shape == (1,)
    assert spectrum.eigenvalues[0] == pytest.approx(2.0 / grid.h**2, rel=1e-15)


def test_eigenvalues_match_dense_eigensolve_1d():
    grid = build_grid(1, np.pi, 4)
    mine = laplacian_eigenvalues(grid).eigenvalues
    dense = scipy.linalg.eigvalsh(-laplacian_matrix(grid).toarray())
    assert np.allclose(mine, dense, rtol=1e-12, atol=0)


def test_eigenvalues_match_dense_eigensolve_2d():
    grid = build_grid(2, np.pi, 5)
    mine = laplacian_eigenvalues(grid).eigenvalues
    dense = scipy.linalg.eigvalsh(-laplacian_matrix(grid).toarray())
    assert np.allclose(mine, dense, rtol=1e-12, atol=1e-12 * dense[-1])


def test_tensor_sum_smallest_eigenvalue():
    mu1 = laplacian_eigenvalues(build_grid(1, np.pi, 3)).eigenvalues[0]
    smallest2d = laplacian_eigenvalues(build_grid(2, np.pi, 3)).eigenvalues[0]
    assert smallest2d == pytest.approx(2.0 * mu1, rel=1e-15)


@pytest.mark.parametrize("dim, cells", [(1, 32), (2, 8)])
def test_negative_laplacian_positive_definite(dim, cells):
    grid = build_grid(dim, np.pi, cells)
    dense = -laplacian_matrix(grid).toarray()
    mu1 = laplacian_eigenvalues(grid).eigenvalues[0]
    assert scipy.linalg.eigvalsh(dense)[0] >= mu1 * (1 - 1e-10)


@pytest.mark.parametrize("dim, cells", [(1, 16), (2, 7)])
def test_transform_round_trip(dim, cells):
    grid = build_grid(dim, np.pi, cells)
    rng = np.random.default_rng(11)
    field = rng.standard_normal(grid.n_interior)
    transform = laplacian_eigenvalues(grid).transform
    back = transform(transform(field))
    assert np.allclose(back, field, atol=1e-12)


def test_transform_of_mode_is_unit_vector_1d():
    grid = build_grid(1, np.pi, 8)
    spectrum = laplacian_eigenvalues(grid)
    for k in (1, 3, 7):
        coeffs = spectrum.transform(sine_mode(grid, k))
        expected = np.zeros(grid.n_interior)
        expected[k - 1] = 1.0
        assert np.allclose(coeffs, expected, atol=1e-12)


def test_transform_of_mode_is_unit_vector_2d():
    grid = build_grid(2, np.pi, 5)
    spectrum = laplacian_eigenvalues(grid)
    m = grid.num_cells - 1
    coeffs = spectrum.transform(sine_mode(grid, (2, 3)))
    expected = np.zeros(grid.n_interior)
    expected[(2 - 1) * m + (3 - 1)] = 1.0
    assert np.allclose(coeffs, expected, atol=1e-12)


def test_mode_index_must_match_dimension():
    with pytest.raises(ValueError, match="1 mode number"):
        sine_mode(build_grid(1, np.pi, 8), (2, 3))
    with pytest.raises(ValueError, match="2 mode number"):
        sine_mode(build_grid(2, np.pi, 8), 3)
    with pytest.raises(ValueError, match="out of range"):
        sine_mode(build_grid(2, np.pi, 8), (2, 8))


@pytest.mark.parametrize("dim, cells", [(1, 16), (2, 8)])
def test_transform_diagonalizes_laplacian(dim, cells):
    # transform(lap x) must equal -mu * transform(x) coefficientwise
    grid = build_grid(dim, np.pi, cells)
    spectrum = laplacian_eigenvalues(grid)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(grid.n_interior)
    lhs = spectrum.transform(apply_laplacian(grid, x))
    rhs = -spectrum.mode_eigenvalues * spectrum.transform(x)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.linalg.norm(x)


@pytest.mark.parametrize("dim, cells", [(1, 9), (2, 6)])
def test_apply_matches_sparse(dim, cells):
    grid = build_grid(dim, np.pi, cells)
    rng = np.random.default_rng(3)
    batch = rng.standard_normal((4, grid.n_interior))
    dense = batch @ laplacian_matrix(grid).toarray().T
    assert np.allclose(apply_laplacian(grid, batch), dense, atol=1e-13 * grid.h**-2)


def test_shifted_solve_zero_rhs():
    grid = build_grid(1, np.pi, 8)
    assert np.array_equal(solve_shifts(grid, [1.5], np.zeros(7)), np.zeros((1, 7)))


def test_shifted_solve_eigenvector_case():
    grid = build_grid(1, np.pi, 8)
    spectrum = laplacian_eigenvalues(grid)
    s = 2.5
    for k in (1, 4):
        mode = sine_mode(grid, k)
        x = solve_shifts(grid, [s], mode)[0]
        assert np.allclose(x, mode / (s + spectrum.eigenvalues[k - 1]), atol=1e-14)


def test_shifted_solve_matches_dense_complex_lu():
    grid = build_grid(1, np.pi, 16)
    rng = np.random.default_rng(17)
    rhs = rng.standard_normal(15) + 1j * rng.standard_normal(15)
    s = 3.0 + 2.0j
    matrix = s * np.eye(15) - laplacian_matrix(grid).toarray()
    expected = np.linalg.solve(matrix, rhs)
    x = solve_shifts(grid, [s], rhs)[0]
    assert np.linalg.norm(x - expected) <= 1e-11 * np.linalg.norm(expected)


@pytest.mark.parametrize("dim, cells", [(1, 16), (2, 8)])
@pytest.mark.parametrize("shift", [4.0, 3.0 + 2.0j, -0.5 + 40.0j])
def test_backends_agree(dim, cells, shift):
    # the spectral solve against the banded/sparse reference in the tests
    grid = build_grid(dim, np.pi, cells)
    rng = np.random.default_rng(23)
    rhs = rng.standard_normal(grid.n_interior) + 1j * rng.standard_normal(
        grid.n_interior
    )
    a = solve_shifts(grid, [shift], rhs)[0]
    b = banded_solve(grid, shift, rhs)
    assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(a)


@pytest.mark.parametrize("dim, cells", [(1, 12), (2, 6)])
def test_shifted_solve_residual(dim, cells):
    grid = build_grid(dim, np.pi, cells)
    rng = np.random.default_rng(29)
    rhs = rng.standard_normal(grid.n_interior)
    s = 7.0
    x = solve_shifts(grid, [s], rhs)[0]
    residual = s * x - apply_laplacian(grid, x) - rhs
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs)


def test_shifted_solve_singular_shift_raises():
    grid = build_grid(1, np.pi, 8)
    mu1 = laplacian_eigenvalues(grid).eigenvalues[0]
    with pytest.raises(SingularShiftError):
        solve_shifts(grid, [-mu1], np.ones(7))


def test_shifted_solve_rejects_bad_inputs():
    grid = build_grid(1, np.pi, 8)
    with pytest.raises(ValueError):
        solve_shifts(grid, [1.0], np.ones(6))
    # one shift is a 1-D array of one
    with pytest.raises(ValueError, match="1-D"):
        shifted_solve(grid, 1.0, np.ones(7), lambda lo, hi, rows: None)


def test_shifted_solve_real_valued_complex_shifts_do_not_warn():
    # real shifts and real-valued complex ones are the same complex shifts
    grid = build_grid(1, np.pi, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = solve_shifts(grid, np.array([2.0 + 0.0j, 3.0 + 0.0j]), np.ones(7))
        empty = solve_shifts(grid, np.array([], dtype=complex), np.ones(7))
    assert np.array_equal(x, solve_shifts(grid, np.array([2.0, 3.0]), np.ones(7)))
    assert empty.shape == (0, 7)


def brute_force_singular(shifts, spectrum):
    """The full scan over every shift and mode, as the solver once did it."""
    denominators = np.add.outer(shifts, spectrum.mode_eigenvalues)
    return np.min(np.abs(denominators), axis=1) <= 1e-14 * np.abs(shifts)


def singular_check_shifts(spectrum, rng):
    mu = spectrum.eigenvalues
    steps = 1.0 + 1e-15 * np.arange(-12, 13)
    shifts = [
        -mu,
        -mu * (1.0 - 1e-15),
        -mu * (1.0 + 1e-15),
        -mu + 1e-300j,
        -mu + 1e-16j * mu,
        -mu + 1e-13j * mu,
        -np.outer(mu, steps).ravel(),
        -np.outer(mu, steps).ravel() + 1e-15j * np.repeat(mu, steps.size),
        -(mu[1:] + mu[:-1]) / 2,
        [0.0, 1.0, 1e6, -0.5 * mu[0], -2.0 * mu[-1], -1e300],
        rng.standard_normal(20) * mu[-1] + 1j * rng.standard_normal(20) * mu[0],
    ]
    return np.concatenate([np.asarray(s, dtype=complex) for s in shifts])


@pytest.mark.parametrize("dim, cells", [(1, 16), (1, 127), (2, 8), (2, 13)])
def test_singular_check_matches_full_scan(dim, cells):
    # 2D spectra repeat eigenvalues (mu_i + mu_j = mu_j + mu_i)
    grid = build_grid(dim, np.pi, cells)
    spectrum = laplacian_eigenvalues(grid)
    shifts = singular_check_shifts(spectrum, np.random.default_rng(cells))
    rhs = np.ones(grid.n_interior)
    for values in (shifts, shifts.real):
        expected = brute_force_singular(values, spectrum)
        assert expected.any() and not expected.all()
        for s, bad in zip(values, expected):
            if bad:
                with pytest.raises(SingularShiftError, match="^shift 0 "):
                    solve_shifts(grid, [s], rhs)
            else:
                solve_shifts(grid, [s], rhs)
        order = np.random.default_rng(dim).permutation(values.size)
        first = int(np.argmax(expected[order]))
        with pytest.raises(SingularShiftError, match=f"^shift {first} "):
            solve_shifts(grid, values[order], rhs)


@pytest.mark.parametrize(
    "shifts, rhs_dtype",
    [
        (np.linspace(1.0, 80.0, 80) + 1.0j, float),
        (np.linspace(1.0, 80.0, 80), float),
        (np.linspace(1.0, 80.0, 80), complex),
    ],
)
@pytest.mark.parametrize("dim, cells", [(1, 256), (2, 64)])
def test_shifted_solve_into_out(shifts, rhs_dtype, dim, cells):
    # A writer that copies each batch into a row range of a bigger block, as
    # step B's does, gets every level once, in ascending batches of at most
    # BATCH_BYTES, and the rows match one-shift solves.
    grid = build_grid(dim, np.pi, cells)
    rng = np.random.default_rng(31)
    rhs = rng.standard_normal(grid.n_interior).astype(rhs_dtype)
    if rhs_dtype is complex:
        rhs += 1j * rng.standard_normal(grid.n_interior)
    block = np.zeros((shifts.size + 3, grid.n_interior), dtype=complex)
    seen = []

    def write(lo, hi, rows):
        assert rows.nbytes <= max(BATCH_BYTES, rows[0].nbytes)
        seen.append((lo, hi))
        block[lo:hi] = rows

    assert shifted_solve(grid, shifts, rhs, write) is None
    assert not block[shifts.size :].any()
    assert sorted(seen) == level_batches(0, shifts.size, block[0].nbytes)
    for j in (0, shifts.size // 2, shifts.size - 1):
        one = solve_shifts(grid, shifts[j : j + 1], rhs)[0]
        assert np.allclose(block[j], one, rtol=0, atol=1e-14 * np.abs(one).max())


def test_level_batches_splits_in_order():
    # 10 levels of a third of a batch each: batches of 3, in order
    row = BATCH_BYTES // 3
    assert level_batches(5, 15, row) == [(5, 8), (8, 11), (11, 14), (14, 15)]
    # a level bigger than a batch still makes a batch of one
    assert level_batches(0, 2, 2 * BATCH_BYTES) == [(0, 1), (1, 2)]
    assert level_batches(3, 3, 8) == []


def four_batch_solve():
    """A 1D solve whose 128 complex rows split into four batches of 32."""
    grid = build_grid(1, np.pi, 1024)
    shifts = 1.0 + 1.0j + np.arange(128.0)
    assert len(level_batches(0, shifts.size, grid.n_interior * 16)) == 4
    return grid, shifts, np.ones(grid.n_interior)


def test_shifted_solve_finishes_every_batch_before_raising(monkeypatch):
    # The calling thread's share fails at once while the helper's share is
    # still sleeping; the error may only surface once the helper is done.
    grid, shifts, rhs = four_batch_solve()
    caller = threading.get_ident()
    helper_rows = []
    transform = SpatialSpectrum.transform

    def failing_transform(self, field, overwrite=False):
        if overwrite:
            if threading.get_ident() == caller:
                raise ValueError("caller's share")
            time.sleep(0.05)
            helper_rows.append(len(field))
        return transform(self, field, overwrite)

    monkeypatch.setattr(space, "WORKERS", 2)
    monkeypatch.setattr(SpatialSpectrum, "transform", failing_transform)
    with pytest.raises(ValueError, match="caller's share"):
        solve_shifts(grid, shifts, rhs)
    assert helper_rows == [32, 32]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_shifted_solve_works_in_a_forked_child(monkeypatch):
    # A solve with helper threads before the fork; the child starts its own.
    grid, shifts, rhs = four_batch_solve()
    monkeypatch.setattr(space, "WORKERS", 2)
    expected = solve_shifts(grid, shifts, rhs)
    pid = os.fork()
    if pid == 0:
        ok = False
        try:
            ok = np.array_equal(solve_shifts(grid, shifts, rhs), expected)
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            assert os.waitstatus_to_exitcode(status) == 0
            return
        time.sleep(0.05)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    pytest.fail("shifted_solve hung in a forked child")
