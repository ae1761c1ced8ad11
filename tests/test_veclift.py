import numpy as np
import pytest

from hardyshift import (BudgetExceeded, OperatorSpec, TaylorPoly, VectorPoly, build_sigma,
                        diag_polys, from_poly_grid, identity, is_inner, lift, matmul,
                        t_m_apply)
from hardyshift.invariance import (ComplementModel, build_model_space, build_theta_range,
                                   _check_builder_input, _last_analytic_index,
                                   range_generators)
from hardyshift.laurent import LaurentMatrix
from hardyshift.subspaces import SpanSubspace, _null_combos, orthonormalize
from hardyshift.tolerances import ANALYTICITY_TOL, RANK_TOL
from hardyshift.veclift import fit_cap

from conftest import (allclose, matrix_action, model_space_frame, random_columns,
                      random_vector, stacked)

CAP = 128


def test_lift_basic_interleave():
    F = VectorPoly([TaylorPoly([1], CAP), TaylorPoly([1], CAP)])
    assert allclose(t_m_apply(F), TaylorPoly([1, 1], CAP))


def test_lift_hand_example():
    # (a + b z, c) with a=1, b=4, c=7 interleaves to 1 + 7z + 4z^2
    F = VectorPoly([TaylorPoly([1, 4], CAP), TaylorPoly([7], CAP)])
    assert allclose(t_m_apply(F), TaylorPoly([1, 7, 4], CAP))


def test_lift_m3_monomials():
    F = VectorPoly([TaylorPoly([1], CAP), TaylorPoly([0, 1], CAP), TaylorPoly([0, 1], CAP)])
    out = t_m_apply(F)
    expected = np.zeros(6)
    expected[0] = 1
    expected[4] = 1
    expected[5] = 1
    assert allclose(out, TaylorPoly(expected, CAP))


def test_invert_examples():
    # the inverse of the lift is the residue slicing: component l = f[l::m]
    f = lift(stacked(VectorPoly([TaylorPoly([1, 4], CAP), TaylorPoly([7], CAP)])), 2)[:, 0]
    assert np.array_equal(f[:4], [1, 7, 4, 0])
    assert np.array_equal(f[0::2][:2], [1, 4]) and np.array_equal(f[1::2][:2], [7, 0])

    f = np.zeros(6 * (CAP + 1), dtype=complex)
    f[5] = 1
    back = [f[l::3] for l in range(3)]
    assert not back[0].any() and not back[1].any()
    assert np.array_equal(np.flatnonzero(back[2]), [1])
    assert np.array_equal(lift(np.concatenate(back)[:, None], 3)[:, 0], f)


def test_roundtrip_exact(rng):
    for m in (2, 3, 5):
        X = random_columns(rng, m, 17, CAP, 4)
        Y = lift(X, m)
        back = np.concatenate([Y[l::m] for l in range(m)])
        assert np.array_equal(back, X)
        assert np.array_equal(lift(back, m), Y)


def test_isometry(rng):
    for m in (2, 3, 5):
        F = random_vector(rng, m, 20, CAP)
        norm = np.sqrt(sum(c.norm2() for c in F.components))
        assert t_m_apply(F).norm() == pytest.approx(norm, rel=1e-14)


def test_lift_is_a_row_permutation(rng):
    for m in (2, 3, 5):
        n = CAP + 1
        P = lift(np.eye(m * n), m)
        assert np.array_equal(P @ P.T, np.eye(m * n))  # a permutation matrix
        assert np.array_equal(np.flatnonzero(P[m * 7 + 1]), [n + 7])  # j = 7, l = 1
        X = random_columns(rng, m, CAP, CAP, 3)
        Y = lift(X, m)
        assert np.array_equal(Y, P @ X)  # exact: no arithmetic touches a value
        assert np.array_equal(np.sort_complex(Y.ravel()), np.sort_complex(X.ravel()))
        # isometric: the same values, summed in another order
        assert np.linalg.norm(Y, axis=0) == pytest.approx(np.linalg.norm(X, axis=0), rel=1e-14)
    with pytest.raises(ValueError):
        lift(np.zeros((7, 1)), 2)


def test_lift_equals_t_m_apply_column_by_column(rng):
    for m in (2, 3, 5):
        Fs = [random_vector(rng, m, CAP // m - 1, CAP) for _ in range(4)]
        Y = fit_cap(lift(stacked(*Fs), m), m, CAP)
        for y, F in zip(Y.T, Fs):
            assert np.array_equal(y, t_m_apply(F).padded(CAP + 1))


def test_shift_diagram_residual_zero(rng):
    # lift(S X) = S^m lift(X), exactly, on whole column matrices
    for m in (2, 3, 5):
        X = random_columns(rng, m, 15, CAP, 5)
        lhs = lift(OperatorSpec(1).apply(X, m), m)
        rhs = OperatorSpec(m).apply(lift(X, m))
        assert np.array_equal(lhs, rhs)


def test_budget_guard():
    # index of component 1 at degree 2 is 2*2 + 1 = 5 > cap 4
    small = VectorPoly([TaylorPoly([0], 4), TaylorPoly([0, 0, 1], 4)])
    with pytest.raises(BudgetExceeded):
        t_m_apply(small)
    # degree 2 in component 0 lands exactly on the cap
    ok = VectorPoly([TaylorPoly([0, 0, 1], 4), TaylorPoly([0], 4)])
    assert t_m_apply(ok).deg() == 4


def test_multiplication_correspondence(rng):
    # lift(Sigma X) equals the (k*m + gamma)-fold shift of lift(X)
    for m, gamma, k in ((2, 1, 1), (3, 2, 1), (5, 3, 2), (2, 1, 3), (3, 1, 2), (5, 1, 1)):
        X = random_columns(rng, m, 10, CAP, 4)
        lhs = lift(matrix_action(build_sigma(m, gamma, k), X), m)
        rhs = OperatorSpec(k * m + gamma).apply(lift(X, m))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


# -- the builders' frames against the index expressions written out -----------

def theta_range_inline(theta, m, cap):
    """build_theta_range with the lift written out as an index expression."""
    _check_builder_input(theta, m, ANALYTICITY_TOL, "range builder")
    last = _last_analytic_index(theta)
    label = f"T_{m}(Θ·H2) at cap {cap}"
    lifts = np.where(last >= 0, m * last + np.arange(m)[:, None], -1)
    ladder = (cap - m * theta.min_pow - int(lifts.max())) // m
    n = cap // m + 1
    gens = range_generators(theta, n - 1).reshape(m, n, -1, n)[..., : ladder + 1]
    lifted = gens.transpose(1, 0, 2, 3).reshape(m * n, -1)[: cap + 1]
    return orthonormalize(lifted, RANK_TOL, label=label, band=m * ladder)


def _square_inner(theta):
    return theta.rows == theta.cols and is_inner(theta, ANALYTICITY_TOL)


def _lift_inline(X, m, n_sub, cap):
    """Coefficient j of component l of every column of X, m blocks of
    n_sub rows, moves to index m*j + l of cap+1 rows."""
    j, l = np.divmod(np.arange(m * n_sub), m)  # row m*j + l of the result
    lifted = np.zeros((cap + 1, X.shape[1]), dtype=np.complex128)
    lifted[: m * n_sub] = X[l * n_sub + j]
    return lifted


def model_space_inline(theta, m, cap):
    """build_model_space with the lift written out as an index expression:
    for a square inner Θ the SVD null basis below deg Θ, for any other Θ
    the complement model of the nonzero cut range generators."""
    _check_builder_input(theta, m, ANALYTICITY_TOL, "model-space builder")
    comp_cap = (cap + 1) // m - 1
    label, n = f"T_{m}(K_Θ) at cap {cap}", m * (comp_cap + 1)
    if not _square_inner(theta):
        gens = range_generators(theta, comp_cap)
        lifted = _lift_inline(gens[:, np.abs(gens).max(axis=0, initial=0) > 0], m,
                              comp_cap + 1, cap)
        return ComplementModel(orthonormalize(lifted, RANK_TOL), n, label)
    n_sub = min(comp_cap, max(theta.max_pow - 1, 0)) + 1
    combos = _null_combos(np.conj(range_generators(theta, n_sub - 1).T), m * n_sub, RANK_TOL)[1]
    return SpanSubspace(_lift_inline(combos.T, m, n_sub, cap), cap, 1, RANK_TOL,
                        label=label, band=n - 1)


def _fields(model):
    """What a model-space builder's result holds: the frame, its band and
    label, or the complement frame, its drops, n and label."""
    if isinstance(model, ComplementModel):
        Q = model.complement
        return Q.matrix, (Q.dropped, model.n, model.label)
    return model.matrix, (model.band, model.label, model.dropped)


def _unitary_column_theta(rng, m):
    q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    table = np.zeros((m, 1, 3), dtype=complex)
    table[:, 0, 2] = q[:, 0]
    return LaurentMatrix(m, 1, 0, table)


def _builder_thetas(rng):
    # square inner, inner columns, then Θ that are not inner: the column
    # (1 + z, 1), whose lifted generators overlap, so its range takes CGS2;
    # 2·I and diag(z², 0), square, so their model spaces take the full-size
    # solve (K_Θ of diag(z², 0) holds all of component 1); the column
    # (1, 1), whose disjoint generators normalize to CGS2's frame bit for bit
    return [(diag_polys([[1], [0, 1], [0, 1]]), 3),
            (diag_polys([[0, 0, 1], [0, 1]]), 2),
            (from_poly_grid([[[5 ** -0.5]], [[2 * 5 ** -0.5]]]), 2),
            (_unitary_column_theta(rng, 5), 5),
            (from_poly_grid([[[1, 1]], [[1]]]), 2),
            (diag_polys([[2], [2]]), 2),
            (diag_polys([[0, 0, 1], [0]]), 2),
            (from_poly_grid([[[1]], [[1]]]), 2)]


@pytest.mark.parametrize("cap", [16, 48, 97])
def test_builder_frames_equal_the_inline_index_maps(rng, cap):
    for theta, m in _builder_thetas(rng):
        for build, inline in ((build_theta_range, theta_range_inline),
                              (build_model_space, model_space_inline)):
            (got, got_fields), (want, want_fields) = (_fields(build(theta, m, cap)),
                                                      _fields(inline(theta, m, cap)))
            assert np.array_equal(got, want)
            assert got_fields == want_fields


@pytest.mark.parametrize("cap", [16, 48, 97])
def test_model_space_frame_is_the_lifted_svd_null_basis(rng, cap):
    # K_Θ is the lifted SVD null basis of the cut range generators (the
    # oracle).  A square inner Θ solves below deg Θ: the same subspace, its
    # own orthonormal frame.  Any other Θ keeps the frame Q of the cut
    # generators instead: QQᴴ and the oracle's projector add up to the
    # identity on the first n coordinates, and to zero past them.
    for theta, m in _builder_thetas(rng):
        model, G = build_model_space(theta, m, cap), model_space_frame(theta, m, cap).matrix
        if isinstance(model, ComplementModel):
            F, n = model.complement.matrix, model.n
            unit = np.diag((np.arange(cap + 1) < n).astype(float))
            assert not _square_inner(theta) and not F[n:].any()
            assert np.max(np.abs(F @ F.conj().T + G @ G.conj().T - unit)) <= 1e-12
        else:
            F = model.matrix
            assert _square_inner(theta) and F.shape == G.shape
            assert np.max(np.abs(F @ F.conj().T - G @ G.conj().T)) <= 1e-12
        assert np.max(np.abs(F.conj().T @ F - np.eye(F.shape[1])), initial=0.0) <= 1e-14


def _product_of_factors(rng, m, count):
    """A product of count factors U·diag(z^a)·V, a in 0..2, and deg det."""
    theta, degree = identity(m), 0
    for _ in range(count):
        a = rng.integers(0, 3, size=m)
        unitary = [np.linalg.qr(rng.standard_normal((m, m))
                                + 1j * rng.standard_normal((m, m)))[0] for _ in range(2)]
        table = np.zeros((m, m, a.max() + 1), dtype=complex)
        for l, e in enumerate(a):
            table[:, :, e] += np.outer(unitary[0][:, l], unitary[1][l])
        theta, degree = matmul(theta, LaurentMatrix(m, m, 0, table)), degree + int(a.sum())
    return theta, degree


@pytest.mark.parametrize("cap", [48, 96, 192])
def test_inner_model_space_solves_below_deg_theta(cap):
    # K_Θ of a square inner Θ has dimension deg det Θ and lies in component
    # degree < deg Θ: the builder's frame is zero above it and spans what
    # the full-size solve spans, also for a Θ moved by 1e-13, well within
    # the inner test's tolerance
    rng = np.random.default_rng(cap)
    cases = [_product_of_factors(rng, int(rng.integers(2, 4)), count)
             for count in (1, 2, 3, 2, 3)]
    theta, degree = cases[-1]
    noise = rng.standard_normal(theta.table.shape) + 1j * rng.standard_normal(theta.table.shape)
    moved = LaurentMatrix(theta.rows, theta.cols, theta.min_pow, theta.table + 1e-13 * noise)
    assert is_inner(moved, ANALYTICITY_TOL)
    for theta, degree in cases + [(moved, degree)]:
        m = theta.rows
        F, G = build_model_space(theta, m, cap).matrix, model_space_frame(theta, m, cap).matrix
        assert F.shape[1] == G.shape[1] == degree
        assert not F[m * theta.max_pow:].any()
        assert np.max(np.abs(F @ F.conj().T - G @ G.conj().T)) <= 1e-12
