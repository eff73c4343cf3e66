"""Time grids, step matrices, and the FFT diagonalization of the coupling.

The dense step matrix and the factors V, V^{-1} come from
circulant_reference; from_eigenspace is checked against them on blocks
packed two real columns to a complex one, and pack_levels against that
packing of a whole mirrored block.
"""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from bhcp.circulant import (
    TimeGrid,
    diagonalize,
    from_eigenspace,
    gamma_condition,
    pack_levels,
)

from circulant_reference import (
    basis_matrix,
    dense_fourier,
    pack,
    reconstruct,
    step_matrix,
    to_eigenspace,
)

OMEGAS = (-1e4, -1.0, -1e-4, 2.0)


def test_timegrid_derived_quantities():
    tg = TimeGrid(1.0, 8)
    assert tg.tau == pytest.approx(0.125)
    assert tg.tau * tg.num_steps == pytest.approx(tg.horizon)
    assert tg.n_levels == 9


@pytest.mark.parametrize("horizon, steps", [(0.0, 4), (-1.0, 4), (1.0, 0)])
def test_timegrid_rejects_bad_parameters(horizon, steps):
    with pytest.raises(ValueError):
        TimeGrid(horizon, steps)


def test_step_matrix_small_cases():
    assert np.array_equal(step_matrix(2, 2.0), [[1.0, -2.0], [-1.0, 1.0]])
    assert np.array_equal(step_matrix(3, -1.0)[:, 0], [1.0, -1.0, 0.0])
    assert np.array_equal(step_matrix(1, 3.0), [[-2.0]])
    with pytest.raises(ValueError):
        step_matrix(4, 0.0)
    with pytest.raises(ValueError):
        step_matrix(0, 1.0)


def test_step_matrix_eigenvalues_size_two():
    dense = np.sort(np.linalg.eigvals(step_matrix(2, 2.0)).real)
    assert np.allclose(dense, [1 - np.sqrt(2), 1 + np.sqrt(2)], atol=1e-14)
    mine = np.sort(diagonalize(2, 2.0).eigenvalues.real)
    assert np.allclose(mine, dense, atol=1e-14)


def test_gamma_uses_principal_branch():
    diag = diagonalize(4, -1.0)
    assert np.allclose(diag.gamma, np.exp(1j * np.pi * np.arange(4) / 4), atol=1e-15)


def test_eigenvalues_from_scaled_first_column():
    # d = sqrt(n) * F * (gamma ∘ first column), computed densely
    for n, omega in [(4, -1.0), (8, 2.0), (5, -1e-4)]:
        diag = diagonalize(n, omega)
        first_col = step_matrix(n, omega)[:, 0]
        dense = np.sqrt(n) * dense_fourier(n) @ (diag.gamma * first_col)
        assert np.allclose(diag.eigenvalues, dense, atol=1e-12 * max(1, abs(omega)))


@pytest.mark.parametrize("omega", OMEGAS)
@pytest.mark.parametrize("size", [2, 3, 4, 8, 16])
def test_trace_is_preserved(size, omega):
    total = diagonalize(size, omega).eigenvalues.sum()
    assert abs(total - size) <= 1e-9 * size * max(1, abs(omega)) ** (1 / size)
    assert abs(total.imag) <= 1e-9 * size * max(1, abs(omega)) ** (1 / size)


def test_reconstruction_exact_small_case():
    diag = diagonalize(4, -1.0)
    assert np.max(np.abs(reconstruct(diag) - step_matrix(4, -1.0))) <= 1e-12


@pytest.mark.parametrize("omega", OMEGAS)
@pytest.mark.parametrize("size", [2, 3, 4, 8, 16])
def test_reconstruction_within_conditioning(size, omega):
    diag = diagonalize(size, omega)
    target = step_matrix(size, omega)
    err = np.linalg.norm(reconstruct(diag) - target)
    assert err <= 1e-10 * gamma_condition(size, omega) * np.linalg.norm(target)


@pytest.mark.parametrize("omega", [-1.0, 2.0, -1e2])
@pytest.mark.parametrize("size", [2, 4, 8])
def test_eigenvalue_multiset_matches_dense_eigensolve(size, omega):
    mine = diagonalize(size, omega).eigenvalues
    dense = np.linalg.eigvals(step_matrix(size, omega))
    # eigenvalues lie on a circle; match the two sets by optimal assignment
    cost = np.abs(mine[:, None] - dense[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-10 * max(1, abs(omega))


def test_eigenvector_relation():
    for n, omega in [(4, -1.0), (6, 2.0), (8, -1e-2)]:
        diag = diagonalize(n, omega)
        v = basis_matrix(diag)
        lhs = step_matrix(n, omega) @ v
        rhs = v * diag.eigenvalues
        tol = 1e-12 * gamma_condition(n, omega) * np.linalg.norm(v)
        assert np.linalg.norm(lhs - rhs) <= tol


def test_basis_and_inverse_basis_are_inverses():
    diag = diagonalize(6, -3.0)
    v = basis_matrix(diag)
    v_inv = to_eigenspace(np.eye(6), diag)
    assert np.allclose(v @ v_inv, np.eye(6), atol=1e-12 * gamma_condition(6, -3.0))


def test_to_eigenspace_matches_dense_product():
    diag = diagonalize(4, -0.7)
    v_inv = dense_fourier(4) @ np.diag(diag.gamma)
    rng = np.random.default_rng(7)
    column = rng.standard_normal((4, 1))
    assert np.allclose(to_eigenspace(column, diag), v_inv @ column, atol=1e-12)


def test_from_eigenspace_matches_dense_product():
    diag = diagonalize(4, -0.7)
    v = np.diag(1.0 / diag.gamma) @ dense_fourier(4).conj()
    rng = np.random.default_rng(9)
    column = rng.standard_normal((4, 1))
    coeffs = to_eigenspace(column, diag)
    dense = (v @ coeffs).real
    assert np.allclose(from_eigenspace(pack(coeffs), diag, 1), dense, atol=1e-12)


def test_omega_one_reduces_to_plain_dft():
    diag = diagonalize(8, 1.0)
    assert np.allclose(diag.gamma, np.ones(8))
    rng = np.random.default_rng(13)
    block = rng.standard_normal((8, 3))
    coeffs = pack(np.fft.ifft(block, axis=0, norm="ortho"))
    assert np.allclose(from_eigenspace(coeffs, diag, 3), block, atol=1e-13)


@pytest.mark.parametrize("omega", OMEGAS)
def test_round_trip(omega):
    diag = diagonalize(8, omega)
    rng = np.random.default_rng(21)
    block = rng.standard_normal((8, 5))
    back = from_eigenspace(pack(to_eigenspace(block, diag)), diag, 5)
    scale = max(abs(omega), 1 / abs(omega))
    assert np.linalg.norm(back - block) <= 1e-10 * scale * np.linalg.norm(block)


def test_round_trip_preserves_real_dtype_and_layout():
    diag = diagonalize(8, -2.0)
    block = np.arange(16.0).reshape(8, 2)
    back = from_eigenspace(pack(to_eigenspace(block, diag)), diag, 2)
    assert back.shape == block.shape
    assert back.dtype == np.float64
    assert back.flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("shape", [(9, 4), (9, 3), (9, 1)])
def test_from_eigenspace_overwrite_reuses_the_block(shape):
    # an odd column count leaves a pad column that the pass compacts out
    diag = diagonalize(9, -0.3)
    rng = np.random.default_rng(43)
    eigenspace = to_eigenspace(rng.standard_normal(shape), diag)
    expected = (basis_matrix(diag) @ eigenspace).real
    coeffs = pack(eigenspace)
    got = from_eigenspace(coeffs, diag, shape[1])
    assert np.shares_memory(got, coeffs)
    assert got.shape == shape
    assert got.flags["C_CONTIGUOUS"]
    assert np.allclose(got, expected, atol=1e-12)


def test_from_eigenspace_overwrite_rejects_borrowed_memory():
    # a strided view, a Fortran-ordered copy and a real array of the right
    # shape are refused: the float64 view of the block must be the result
    diag = diagonalize(8, -2.0)
    coeffs = pack(to_eigenspace(np.ones((8, 4)), diag))
    wide = pack(to_eigenspace(np.ones((8, 8)), diag))
    for bad in (wide[:, ::2], np.asfortranarray(coeffs), coeffs.real.copy()):
        with pytest.raises(ValueError):
            from_eigenspace(bad, diag, 4)


def test_imaginary_part_is_data():
    # Packed column c of the result is columns 2c and 2c+1 of V @ block, as
    # its real and imaginary parts; neither is checked or dropped.
    diag = diagonalize(8, 2.0)
    rng = np.random.default_rng(31)
    block = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    dense = basis_matrix(diag) @ block
    expected = np.stack([dense.real, dense.imag], axis=-1).reshape(8, 4)
    assert np.allclose(from_eigenspace(block.copy(), diag, 4), expected, atol=1e-12)


def test_transform_shape_checks():
    diag = diagonalize(8, 2.0)
    with pytest.raises(ValueError):
        from_eigenspace(np.zeros((7, 3), dtype=complex), diag, 6)
    for columns in (4, 7):
        with pytest.raises(ValueError):
            from_eigenspace(np.zeros((8, 3), dtype=complex), diag, columns)
    with pytest.raises(ValueError):
        diagonalize(8, 0.0)
    with pytest.raises(ValueError):
        diagonalize(0, 2.0)


def test_condition_gamma_formula():
    assert gamma_condition(16, -1e4) == pytest.approx(1e4 ** (15 / 16))
    assert gamma_condition(16, -1e-4) == pytest.approx(1e4 ** (15 / 16))
    assert gamma_condition(4, -1.0) == pytest.approx(1.0)


def mirrored_block(size, n, rng):
    """A complex (size, n) block z with z[size-1-j] = conj(z[j])."""
    z = rng.standard_normal((size, n)) + 1j * rng.standard_normal((size, n))
    for j in range(size // 2):
        z[size - 1 - j] = z[j].conj()
    return z


@pytest.mark.parametrize("size", [6, 7, 9])
@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("split", ["whole", "single", "straddle"])
def test_pack_levels_matches_packing_of_mirrored_block(size, n, split):
    # The solved levels 0..ceil(size/2)-1 in batches, in any order: one batch,
    # one level per batch, or a cut below `paired` = size // 2 so that one
    # batch holds both mirrored levels and, for an odd size, the middle one.
    z = mirrored_block(size, n, np.random.default_rng([size, n]))
    half = (size + 1) // 2
    cuts = {
        "whole": [0, half],
        "single": list(range(half + 1)),
        "straddle": [0, size // 2 - 1, half],
    }[split]
    block = np.full((size, (n + 1) // 2), np.nan, dtype=complex)
    for lo, hi in reversed(list(zip(cuts[:-1], cuts[1:]))):
        pack_levels(block, lo, hi, z[lo:hi].copy())
    assert np.array_equal(block, pack(z))
