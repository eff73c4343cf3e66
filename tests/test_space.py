"""Grids, Laplacian spectra, sine transforms, and shifted solves."""

import numpy as np
import pytest
import scipy.linalg

from bhcp.space import (
    LaplacianOperator,
    SingularShiftError,
    build_grid,
    grid_norm,
    laplacian_eigenvalues,
    shifted_solve,
    sine_transform,
)


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


def test_smallest_eigenvalue_closed_form():
    grid = build_grid(1, np.pi, 2)
    spectrum = laplacian_eigenvalues(grid)
    assert spectrum.eigenvalues.shape == (1,)
    assert spectrum.eigenvalues[0] == pytest.approx(2.0 / grid.h**2, rel=1e-15)


def test_eigenvalues_match_dense_eigensolve_1d():
    grid = build_grid(1, np.pi, 4)
    mine = laplacian_eigenvalues(grid).eigenvalues
    dense = scipy.linalg.eigvalsh(-LaplacianOperator(grid).sparse().toarray())
    assert np.allclose(mine, dense, rtol=1e-12, atol=0)


def test_eigenvalues_match_dense_eigensolve_2d():
    grid = build_grid(2, np.pi, 5)
    mine = laplacian_eigenvalues(grid).eigenvalues
    dense = scipy.linalg.eigvalsh(-LaplacianOperator(grid).sparse().toarray())
    assert np.allclose(mine, dense, rtol=1e-12, atol=1e-12 * dense[-1])


def test_tensor_sum_smallest_eigenvalue():
    mu1 = laplacian_eigenvalues(build_grid(1, np.pi, 3)).eigenvalues[0]
    smallest2d = laplacian_eigenvalues(build_grid(2, np.pi, 3)).eigenvalues[0]
    assert smallest2d == pytest.approx(2.0 * mu1, rel=1e-15)


@pytest.mark.parametrize("dim, cells", [(1, 32), (2, 8)])
def test_negative_laplacian_positive_definite(dim, cells):
    grid = build_grid(dim, np.pi, cells)
    dense = -LaplacianOperator(grid).sparse().toarray()
    mu1 = laplacian_eigenvalues(grid).eigenvalues[0]
    assert scipy.linalg.eigvalsh(dense)[0] >= mu1 * (1 - 1e-10)


@pytest.mark.parametrize("dim, cells", [(1, 16), (2, 7)])
def test_transform_round_trip(dim, cells):
    grid = build_grid(dim, np.pi, cells)
    rng = np.random.default_rng(11)
    field = rng.standard_normal(grid.n_interior)
    back = sine_transform(grid, sine_transform(grid, field))
    assert np.allclose(back, field, atol=1e-12)


def test_transform_of_mode_is_unit_vector_1d():
    grid = build_grid(1, np.pi, 8)
    spectrum = laplacian_eigenvalues(grid)
    for k in (1, 3, 7):
        coeffs = spectrum.transform(spectrum.mode(k))
        expected = np.zeros(grid.n_interior)
        expected[k - 1] = 1.0
        assert np.allclose(coeffs, expected, atol=1e-12)


def test_transform_of_mode_is_unit_vector_2d():
    grid = build_grid(2, np.pi, 5)
    spectrum = laplacian_eigenvalues(grid)
    m = grid.num_cells - 1
    coeffs = spectrum.transform(spectrum.mode((2, 3)))
    expected = np.zeros(grid.n_interior)
    expected[(2 - 1) * m + (3 - 1)] = 1.0
    assert np.allclose(coeffs, expected, atol=1e-12)


@pytest.mark.parametrize("dim, cells", [(1, 16), (2, 8)])
def test_transform_diagonalizes_laplacian(dim, cells):
    # transform(lap x) must equal -mu * transform(x) coefficientwise
    grid = build_grid(dim, np.pi, cells)
    spectrum = laplacian_eigenvalues(grid)
    lap = LaplacianOperator(grid)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(grid.n_interior)
    lhs = spectrum.transform(lap.apply(x))
    rhs = -spectrum.mode_eigenvalues * spectrum.transform(x)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.linalg.norm(x)


@pytest.mark.parametrize("dim, cells", [(1, 9), (2, 6)])
def test_apply_matches_sparse(dim, cells):
    grid = build_grid(dim, np.pi, cells)
    lap = LaplacianOperator(grid)
    rng = np.random.default_rng(3)
    batch = rng.standard_normal((4, grid.n_interior))
    dense = batch @ lap.sparse().toarray().T
    assert np.allclose(lap.apply(batch), dense, atol=1e-13 * grid.h**-2)


def test_shifted_solve_zero_rhs():
    grid = build_grid(1, np.pi, 8)
    assert np.array_equal(shifted_solve(grid, 1.5, np.zeros(7)), np.zeros(7))


def test_shifted_solve_eigenvector_case():
    grid = build_grid(1, np.pi, 8)
    spectrum = laplacian_eigenvalues(grid)
    s = 2.5
    for k in (1, 4):
        mode = spectrum.mode(k)
        x = shifted_solve(grid, s, mode)
        assert np.allclose(x, mode / (s + spectrum.eigenvalues[k - 1]), atol=1e-14)


def test_shifted_solve_matches_dense_complex_lu():
    grid = build_grid(1, np.pi, 16)
    rng = np.random.default_rng(17)
    rhs = rng.standard_normal(15) + 1j * rng.standard_normal(15)
    s = 3.0 + 2.0j
    matrix = s * np.eye(15) - LaplacianOperator(grid).sparse().toarray()
    expected = np.linalg.solve(matrix, rhs)
    x = shifted_solve(grid, s, rhs)
    assert np.linalg.norm(x - expected) <= 1e-11 * np.linalg.norm(expected)


@pytest.mark.parametrize("dim, cells", [(1, 16), (2, 8)])
@pytest.mark.parametrize("shift", [4.0, 3.0 + 2.0j, -0.5 + 40.0j])
def test_backends_agree(dim, cells, shift):
    grid = build_grid(dim, np.pi, cells)
    rng = np.random.default_rng(23)
    rhs = rng.standard_normal(grid.n_interior) + 1j * rng.standard_normal(
        grid.n_interior
    )
    a = shifted_solve(grid, shift, rhs, backend="spectral")
    b = shifted_solve(grid, shift, rhs, backend="banded")
    assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(a)


@pytest.mark.parametrize("dim, cells", [(1, 12), (2, 6)])
def test_shifted_solve_residual(dim, cells):
    grid = build_grid(dim, np.pi, cells)
    lap = LaplacianOperator(grid)
    rng = np.random.default_rng(29)
    rhs = rng.standard_normal(grid.n_interior)
    s = 7.0
    x = shifted_solve(grid, s, rhs)
    assert np.linalg.norm(s * x - lap.apply(x) - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_shifted_solve_real_data_stays_real():
    grid = build_grid(1, np.pi, 8)
    x = shifted_solve(grid, 2.0, np.ones(7))
    assert not np.iscomplexobj(x)
    y = shifted_solve(grid, 2.0 + 1.0j, np.ones(7))
    assert np.iscomplexobj(y)


def test_shifted_solve_singular_shift_raises():
    grid = build_grid(1, np.pi, 8)
    mu1 = laplacian_eigenvalues(grid).eigenvalues[0]
    with pytest.raises(SingularShiftError):
        shifted_solve(grid, -mu1, np.ones(7))


def test_shifted_solve_rejects_bad_inputs():
    grid = build_grid(1, np.pi, 8)
    with pytest.raises(ValueError):
        shifted_solve(grid, 1.0, np.ones(6))
    with pytest.raises(ValueError):
        shifted_solve(grid, 1.0, np.ones(7), backend="cholesky")
