import re

import numpy as np
import pytest

from hardyshift import (DimensionMismatch, NotAnalytic, ParamOutOfRange,
                        adjoint_on_circle, build_sigma,
                        diag_polys, from_poly_grid, identity, is_analytic,
                        TaylorPoly, VectorPoly, is_inner, matmul, toeplitz_adjoint_apply)
from hardyshift.laurent import LaurentMatrix, allclose

from conftest import matrix_action, random_columns, stacked


def eval_at(A, z):
    """Pointwise value of every entry at z."""
    return A.table @ z ** np.arange(A.min_pow, A.max_pow + 1, dtype=float)


def sampled_fourier(A, n_points=256):
    """Independent oracle: trapezoid Fourier coefficients from dense circle
    samples.  Returns a dict power -> coefficient matrix."""
    ts = 2 * np.pi * np.arange(n_points) / n_points
    zs = np.exp(1j * ts)
    samples = np.stack([eval_at(A, z) for z in zs])  # (n, rows, cols)
    out = {}
    half = n_points // 2
    for p in range(-half + 1, half):
        phases = np.exp(-1j * p * ts)
        out[p] = (samples * phases[:, None, None]).mean(axis=0)
    return out


def max_negative_mass_sampled(A):
    coeffs = sampled_fourier(A)
    return max(np.max(np.abs(mat)) for p, mat in coeffs.items() if p < 0)


def test_build_sigma_2_1_1_exact():
    sigma = build_sigma(2, 1, 1)
    expected = from_poly_grid([[[0], [0, 0, 1]], [[0, 1], [0]]])
    assert allclose(sigma, expected)


def test_build_sigma_3_1_1():
    sigma = build_sigma(3, 1, 1)
    expected = from_poly_grid([
        [[0], [0], [0, 0, 1]],
        [[0, 1], [0], [0]],
        [[0], [0, 1], [0]],
    ])
    assert allclose(sigma, expected)


def test_build_sigma_k2():
    sigma = build_sigma(2, 1, 2)
    expected = from_poly_grid([[[0], [0, 0, 0, 1]], [[0, 0, 1], [0]]])
    assert allclose(sigma, expected)


def test_build_sigma_param_validation():
    for bad in ((1, 1, 1), (3, 0, 1), (3, 3, 1), (3, 1, 0)):
        with pytest.raises(ParamOutOfRange):
            build_sigma(*bad)
    # a bool or a float is refused, not read as an integer
    for bad in ((2, True, 1), (True, 1, 1), (2, 1, True), (2.0, 1, 1), (3, 1.5, 1), (2, 1, 1.0)):
        with pytest.raises(ParamOutOfRange, match="m, gamma and k must be integers"):
            build_sigma(*bad)


def test_build_sigma_accepts_numpy_integers():
    assert allclose(build_sigma(np.int64(2), np.int32(1), np.uint8(1)), build_sigma(2, 1, 1))


def test_adjoint_involution_and_antihomomorphism(rng):
    def rand_matrix(rows, cols, band=4):
        tab = rng.standard_normal((rows, cols, 2 * band + 1)) \
            + 1j * rng.standard_normal((rows, cols, 2 * band + 1))
        return LaurentMatrix(rows, cols, -band, tab)

    A = rand_matrix(2, 3)
    B = rand_matrix(3, 2)
    assert allclose(adjoint_on_circle(adjoint_on_circle(A)), A, 1e-14)
    lhs = adjoint_on_circle(matmul(A, B))
    rhs = matmul(adjoint_on_circle(B), adjoint_on_circle(A))
    assert allclose(lhs, rhs, 1e-12)


def test_adjoint_examples():
    z = from_poly_grid([[[0, 1]]])
    adj = adjoint_on_circle(z)
    assert adj.min_pow == -1 and adj.table[0, 0, 0] == 1
    sig_adj = adjoint_on_circle(build_sigma(2, 1, 1))
    expected = LaurentMatrix(2, 2, -2, np.array(
        [[[0, 0], [0, 1]], [[1, 0], [0, 0]]], dtype=complex))
    assert allclose(sig_adj, expected)


def test_matmul_sigma_isometry():
    sigma = build_sigma(2, 1, 1)
    assert allclose(matmul(adjoint_on_circle(sigma), sigma), identity(2), 1e-15)


def test_matmul_identity(rng):
    tab = rng.standard_normal((2, 2, 5)) + 1j * rng.standard_normal((2, 2, 5))
    A = LaurentMatrix(2, 2, -2, tab)
    assert allclose(matmul(A, identity(2)), A, 1e-14)


def test_matmul_dimension_check():
    with pytest.raises(DimensionMismatch):
        matmul(identity(2), identity(3))


def test_theta_column_isometry():
    # (z, z)^T / sqrt(2): Theta* Theta = [1]
    theta = from_poly_grid([[[0, 2 ** -0.5]], [[0, 2 ** -0.5]]])
    prod = matmul(adjoint_on_circle(theta), theta)
    assert allclose(prod, identity(1), 1e-15)
    assert is_inner(theta, 1e-14)


def test_is_inner_rejects_non_isometry():
    theta = from_poly_grid([[[1]], [[1]]])
    assert not is_inner(theta, 1e-12)
    assert is_inner(from_poly_grid([[[0, 0, 1]], [[0]]]), 1e-14)
    # (1, 2)^T / sqrt(5)
    theta = from_poly_grid([[[5 ** -0.5]], [[2 * 5 ** -0.5]]])
    assert is_inner(theta, 1e-14)


@pytest.mark.parametrize("entries", [[[[1e200]], [[1e200]]],
                                     [[[1e200], [1e200]], [[1e200], [-1e200]]],
                                     [[[0, 1e155]], [[1e155]]]])
def test_is_inner_is_false_when_the_product_would_overflow(entries):
    # Θ*Θ has non-finite coefficients here; no warning may escape either
    assert is_inner(from_poly_grid(entries)) is False


def test_is_inner_verdicts_near_the_coefficient_bound():
    # a coefficient above 1 + tol fails before the product; just below, the
    # product decides, as before
    for c, tol, inner in ((1 + 4e-15, 1e-14, True), (1 + 2e-14, 1e-14, False),
                          (1 + 1e-9, 1e-8, True), (1 + 2e-8, 1e-8, False)):
        assert is_inner(from_poly_grid([[[c]]]), tol) is inner, (c, tol)


def test_is_inner_requires_analytic():
    bad = LaurentMatrix(1, 1, -1, np.array([[[1.0, 0.0]]], dtype=complex))
    with pytest.raises(NotAnalytic):
        is_inner(bad, 1e-12)


def test_is_analytic_reports_witness():
    bad = LaurentMatrix(1, 1, -1, np.array([[[1.0, 0.0]]], dtype=complex))
    chk = is_analytic(bad, 1e-10)
    assert not chk.ok
    assert chk.witness == pytest.approx(1.0)
    assert chk.location == (0, 0, -1)


def test_analyticity_agrees_with_sampling_oracle():
    sigma = build_sigma(2, 1, 1)
    theta = from_poly_grid([[[0, 2 ** -0.5]], [[0, 2 ** -0.5]]])
    prod = matmul(matmul(adjoint_on_circle(theta), sigma), theta)
    # exact check says analytic with witness 0, product (z + z^2)/2
    chk = is_analytic(prod, 1e-10)
    assert chk.ok
    assert max_negative_mass_sampled(prod) < 1e-8
    expected = from_poly_grid([[[0, 0.5, 0.5]]])
    assert allclose(prod, expected, 1e-15)

    # a genuinely non-analytic product is caught by both routes
    theta_bad = diag_polys([[0, 0, 0, 0, 1], [0, 1]])  # diag(z^4, z): j-k = 3
    prod_bad = matmul(matmul(adjoint_on_circle(theta_bad), sigma), theta_bad)
    chk_bad = is_analytic(prod_bad, 1e-10)
    assert not chk_bad.ok
    assert max_negative_mass_sampled(prod_bad) > 0.5


def test_apply_matrix_examples():
    # the matrix action on stacked component blocks of 17 coefficients
    sigma = build_sigma(2, 1, 1)
    X = stacked(VectorPoly([TaylorPoly([1], 16), TaylorPoly([0], 16)]))
    out = matrix_action(sigma, X)[:, 0]
    assert not out[:17].any()
    assert np.array_equal(out[17:], TaylorPoly([0, 1], 16).padded(17))

    F = VectorPoly([TaylorPoly([1], 16), TaylorPoly([1], 16), TaylorPoly([1], 16)])
    out = matrix_action(build_sigma(3, 1, 1), stacked(F))[:, 0]
    for block, want in zip(out.reshape(3, 17), ([0, 0, 1], [0, 1], [0, 1])):
        assert np.array_equal(block, TaylorPoly(want, 16).padded(17))


def test_apply_matrix_identity_and_isometry(rng):
    X = random_columns(rng, 2, 6, 32, 3)
    assert np.array_equal(matrix_action(identity(2), X), X)
    out = matrix_action(build_sigma(2, 1, 2), X)
    assert np.linalg.norm(out, axis=0) == pytest.approx(np.linalg.norm(X, axis=0), rel=1e-14)


def test_sigma_is_inner_for_all_small_parameters():
    for m in range(2, 7):
        for gamma in range(1, m):
            for k in range(1, 4):
                assert is_inner(build_sigma(m, gamma, k), 1e-14)


def _apply_matrix_by_convolution(A, F):
    """Reference: one convolution per entry, then the coefficients of
    powers 0..cap kept."""
    cap, lo = F.cap, A.min_pow
    comps = []
    for i in range(A.rows):
        acc = np.zeros(cap + 1, dtype=complex)
        for j, f in enumerate(F.components):
            seg = np.convolve(A.table[i, j], f.padded(cap + 1))
            keep = np.arange(seg.size) + lo
            inside = (keep >= 0) & (keep <= cap)
            acc[keep[inside]] += seg[inside]
        comps.append(acc)
    return np.concatenate(comps)


def _adjoint_apply_by_convolution(A, F):
    """Reference: one convolution per entry of the boundary adjoint, then
    the coefficients of powers 0..cap kept one by one."""
    Aadj, cap = adjoint_on_circle(A), F.cap
    comps = []
    for i in range(Aadj.rows):
        acc = np.zeros(cap + 1, dtype=complex)
        for j, f in enumerate(F.components):
            seg = np.convolve(Aadj.table[i, j], f.coeffs)
            for t in range(max(0, -Aadj.min_pow), seg.size):
                if Aadj.min_pow + t > cap:
                    break
                acc[Aadj.min_pow + t] += seg[t]
        comps.append(acc)
    return np.concatenate(comps)


def _random_laurent(rng, rows, cols, min_pow, width, scale=1.0):
    tab = scale * (rng.standard_normal((rows, cols, width))
                   + 1j * rng.standard_normal((rows, cols, width)))
    return LaurentMatrix(rows, cols, min_pow, tab)


def _matrix_cases(rng):
    """Block shift matrices, a random analytic matrix, and matrices with
    negative powers (some past the cap on either side)."""
    yield from (build_sigma(m, gamma, k) for m, gamma, k in [(2, 1, 1), (3, 1, 2), (4, 3, 1)])
    yield _random_laurent(rng, 3, 2, 0, 5)
    yield _random_laurent(rng, 2, 3, -3, 8)
    yield _random_laurent(rng, 2, 2, -30, 70)


def test_toeplitz_adjoint_apply_matches_convolution_loop(rng):
    from conftest import random_vector

    cap = 24
    for A in _matrix_cases(rng):
        Fs = [random_vector(rng, A.rows, deg, cap) for deg in (0, 5, cap)]
        X = np.column_stack([np.concatenate([c.padded(cap + 1) for c in F.components])
                             for F in Fs])
        got = toeplitz_adjoint_apply(A, X)
        assert got.shape == (A.cols * (cap + 1), len(Fs))
        for col, F in zip(got.T, Fs):
            assert np.max(np.abs(col - _adjoint_apply_by_convolution(A, F))) <= 1e-13


def test_apply_matrix_matches_convolution_loop(rng):
    from conftest import random_vector

    cap = 24
    for A in _matrix_cases(rng):
        # up to the cap, and past it, where the action cuts like the reference
        Fs = [random_vector(rng, A.cols, deg, cap) for deg in (0, 3, max(0, cap - A.max_pow), cap)]
        got = matrix_action(A, stacked(*Fs))
        assert got.shape == (A.rows * (cap + 1), len(Fs))
        for col, F in zip(got.T, Fs):
            assert np.max(np.abs(col - _apply_matrix_by_convolution(A, F))) <= 1e-13


@pytest.mark.parametrize("table", [
    np.array([[[1, np.inf]], [[0, 1]]]), np.array([[[np.nan, 1]], [[0, 1]]]),
    np.array([[[1, complex(0, -np.inf)]], [[0, 1]]]),
    np.array([[[True, False]], [[False, True]]]), np.array([[[1, None]], [[0, 1]]], dtype=object),
])
def test_constructor_rejects_non_finite_and_non_numeric_tables(table):
    with pytest.raises(ParamOutOfRange):
        LaurentMatrix(2, 1, 0, table)


@pytest.mark.parametrize("value", [0.5, True, "1"])
@pytest.mark.parametrize("field", ["rows", "cols", "min_pow"])
def test_constructor_rejects_non_integer_structure(field, value):
    # 0.5 made half-integer powers that is_analytic called analytic
    args = {"rows": 1, "cols": 1, "min_pow": 0, field: value}
    with pytest.raises(ParamOutOfRange, match=re.escape(f"{field} {value!r}")):
        LaurentMatrix(table=np.ones((1, 1, 2)), **args)


@pytest.mark.parametrize("value", [0.5, True, "1"])
def test_from_poly_grid_rejects_a_non_integer_min_pow(value):
    # True used to read as the power 1
    with pytest.raises(ParamOutOfRange, match=re.escape(f"min_pow {value!r}")):
        from_poly_grid([[[1.0, 2.0]]], min_pow=value)


def test_numpy_integer_structure_is_accepted():
    A = LaurentMatrix(np.int64(1), np.int64(2), np.int64(-1), np.ones((1, 2, 2)))
    assert (A.min_pow, A.max_pow) == (-1, 0)
    assert from_poly_grid([[[1.0, 2.0]]], min_pow=np.int64(3)).max_pow == 4
