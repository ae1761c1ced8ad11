import numpy as np
import pytest

from hardyshift import (BlaschkeProduct, BudgetExceeded, DepthExhausted,
                        OperatorSpec, ParamOutOfRange, SpanSubspace, VectorPoly,
                        ZeroOnCircle, build_wold_frame, check_invariance,
                        check_near_invariance, orthonormalize, t_m_apply,
                        tail_bound, taylor_expand, toeplitz_apply,
                        transfer_subspace, u_apply)
from hardyshift import blaschke
from hardyshift.blaschke import _factor_chain, power_expansion, toeplitz_columns
from hardyshift.series import TaylorPoly, coshift_pow, inner_product, shift_pow, sub
from hardyshift.veclift import fit_cap

from conftest import allclose, monomial, random_taylor, stacked

CAP = 64
B_HALF = BlaschkeProduct(1.0, [0.5])
B_MIX = BlaschkeProduct(1.0, [0, 0.5])
B_Z2 = BlaschkeProduct(1.0, [0, 0])


def circle(n):
    return np.exp(2j * np.pi * np.arange(n) / n)


def test_taylor_expand_monomial():
    assert np.array_equal(taylor_expand(B_Z2, 8), np.eye(9)[2])
    assert tail_bound(B_Z2, 8) == 0.0


def test_taylor_expand_half_zero():
    e = taylor_expand(B_HALF, 8)
    want = [-0.5] + [3.0 / 2 ** (n + 1) for n in range(1, 9)]
    assert e.shape == (9,) and np.allclose(e, want, atol=1e-15)
    assert tail_bound(B_HALF, 64) < 1e-18


@pytest.mark.parametrize("zeros, cap", [([0.5, 0.5], 48), ([0.9] * 3, 64)])
def test_tail_bound_covers_repeated_zeros(zeros, cap):
    B = BlaschkeProduct(1.0, zeros)
    discarded = taylor_expand(B, 2000)[cap + 1:]
    assert np.max(np.abs(discarded)) <= tail_bound(B, cap)


def test_tail_bound_covers_random_zero_lists(rng):
    for _ in range(60):
        radii = 0.95 * rng.random(int(rng.integers(1, 5)))
        zeros = list(radii * np.exp(2j * np.pi * rng.random(radii.size)))
        zeros += zeros[: int(rng.integers(0, 3))]  # repeat some
        B = BlaschkeProduct(1.0, zeros)
        cap = int(rng.integers(B.degree, 160))
        discarded = taylor_expand(B, cap + 400)[cap + 1:]
        assert np.max(np.abs(discarded)) <= tail_bound(B, cap)


def test_unimodular_boundary_random_zeros(rng):
    zeros = 0.6 * (rng.random(3) - 0.5) + 0.5j * (rng.random(3) - 0.5)
    lam = np.exp(1j * rng.random())
    B = BlaschkeProduct(lam, zeros)
    vals = np.polynomial.polynomial.polyval(circle(64), taylor_expand(B, 256))
    assert np.max(np.abs(np.abs(vals) - 1)) < 1e-10


def test_constructor_validation():
    with pytest.raises(ParamOutOfRange):
        BlaschkeProduct(2.0, [0])
    with pytest.raises(ZeroOnCircle):
        taylor_expand(BlaschkeProduct(1.0, [1.0]), 8)
    with pytest.raises(BudgetExceeded):
        taylor_expand(B_MIX, 1)


@pytest.mark.parametrize("zeros", [[1.0], [0.5, -1j], [1 - 1e-13], [0, 2.0], [0.6 + 0.8j]])
def test_zero_on_or_outside_the_circle_refused_at_construction(zeros):
    with pytest.raises(ZeroOnCircle, match="strictly inside the disc"):
        BlaschkeProduct(1, zeros)
    assert BlaschkeProduct(1, [0.999]).degree == 1  # inside the margin


@pytest.mark.parametrize("lam, zeros, match", [
    (1.0, [], "at least one zero"),
    (complex(np.nan, 0), [0.5], "lambda"),
    (np.inf, [0.5], "lambda"),
    (1.0, [0.5, complex(np.nan, 0)], "finite"),
    (1.0, [complex(0, np.inf)], "finite"),
    (1, [True], "booleans"),
    (True, [0.5], "booleans"),
    (1.0, np.array([0.5, 0.0]) > 0.2, "booleans"),
])
def test_constructor_fails_closed(lam, zeros, match):
    with pytest.raises(ParamOutOfRange, match=match):
        BlaschkeProduct(lam, zeros)


def test_toeplitz_monomial_is_shift():
    f = TaylorPoly([1, 2, 3], CAP)
    assert allclose(toeplitz_apply(B_Z2, 1, False, f), shift_pow(f, 2))
    assert allclose(toeplitz_apply(B_Z2, 1, True, f), coshift_pow(f, 2))
    assert allclose(toeplitz_apply(B_Z2, 2, True, shift_pow(f, 4)), f)


def test_toeplitz_isometry_inner_symbol(rng):
    f = random_taylor(rng, 24, CAP)
    g = toeplitz_apply(B_HALF, 1, False, f)
    assert abs(g.norm() - f.norm()) < 1e-8
    # adjoint is a left inverse on the analytic side
    back = toeplitz_apply(B_HALF, 1, True, g)
    assert sub(back, f).norm() < 1e-8


def test_toeplitz_budget():
    with pytest.raises(BudgetExceeded):
        toeplitz_apply(B_Z2, 1, False, monomial(CAP, CAP))


def test_model_basis_monomial():
    # the model basis is layer 0 of the layer frame
    W = build_wold_frame(B_Z2, 16, 1)
    assert W.m == 2 and np.array_equal(W.matrix[:, : W.m], np.eye(17)[:, :2])


def test_model_basis_reproducing_kernel():
    W = build_wold_frame(B_HALF, CAP, 1)
    want = (np.sqrt(3) / 2) * (0.5 ** np.arange(CAP + 1))
    assert W.m == 1 and np.allclose(W.matrix[:, 0], want, atol=1e-15)


def test_model_basis_orthogonal_to_range():
    W = build_wold_frame(B_MIX, CAP, 1)
    assert W.m == 2
    basis = W.matrix[:, : W.m]
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(2))) < 1e-10
    # the images B z^j, j < CAP - 2, as columns
    bz = toeplitz_columns(B_MIX, 1, False, np.eye(CAP + 1)[:, : CAP - 2])
    assert np.max(np.abs(basis.conj().T @ bz)) < 1e-8


def test_wold_frame_orthonormal_at_adequate_cap():
    W = build_wold_frame(B_MIX, 96, depth=12)
    A = W.matrix[:, np.linalg.norm(W.matrix, axis=0) > 0.5]  # the nonzero layer vectors
    assert np.max(np.abs(A.conj().T @ A - np.eye(A.shape[1]))) < 1e-8


def _wold_frame_by_convolution(B, cap, depth):
    """Reference: each layer vector is B times the one a layer up, one
    truncated convolution per vector."""
    cols = list(_factor_chain(B, cap)[0].T)
    bexp = taylor_expand(B, cap)
    for _ in range(depth - 1):
        cols += [np.convolve(bexp, v)[: cap + 1] for v in cols[-B.degree:]]
    return np.column_stack(cols)


PRODUCT_FAMILIES = [
    [0.5], [0.3 + 0.2j, -0.6j], [0.4, -0.3 + 0.5j, 0.7],
    [0.5j, 0.5j],     # repeated zero
    [0, 0.5, -0.4j],  # a zero at the origin among off-origin zeros
    [0, 0],           # z^2: deep layers are cut at the cap, not refused
]


def _divide_geometric(arr, a, width):
    """Reference: division by (1 - conj(a) z), out[n] = arr[n] + conj(a) out[n-1]."""
    out = np.zeros(width, dtype=complex)
    out[: min(arr.size, width)] = arr[:width]
    for n in range(1, width):
        out[n] += np.conj(a) * out[n - 1]
    return out


def _mul_z_minus(arr, a, width):
    """Reference: multiplication by (z - a), cut to the width."""
    out = np.zeros(min(arr.size + 1, width), dtype=complex)
    out[: arr.size] -= a * arr[:width]
    out[1: arr.size + 1] += arr[: out.size - 1]
    return out


@pytest.mark.parametrize("cap", [24, 96, 384])
@pytest.mark.parametrize("zeros", PRODUCT_FAMILIES)
def test_factor_chain_matches_recurrence(cap, zeros):
    """Model basis and expansion against the recurrence of one division and
    one multiplication per factor."""
    B = BlaschkeProduct(np.exp(0.7j), zeros)
    width = cap + 1
    prefix, basis = np.ones(1, dtype=complex), []
    for a in B.zeros:
        basis.append(np.sqrt(1 - abs(a) ** 2) * _divide_geometric(prefix, a, width))
        prefix = _divide_geometric(_mul_z_minus(prefix, a, width), a, width)
    ref = np.column_stack(basis)
    got = _factor_chain(B, cap)[0]
    assert np.max(np.abs(got - ref)) <= 1e-13
    assert np.max(np.abs(taylor_expand(B, cap) - B.lam * prefix)) <= 1e-13
    W = build_wold_frame(B, cap, 2)
    assert np.max(np.abs(W.matrix[:, : B.degree] - ref)) <= 1e-13
    bref = np.convolve(B.lam * prefix, ref[:, 0])[:width]
    assert np.max(np.abs(W.matrix[:, B.degree] - bref)) <= 1e-13


@pytest.mark.parametrize("cap", [24, 96, 384])
@pytest.mark.parametrize("zeros", PRODUCT_FAMILIES)
def test_wold_frame_doubling_matches_per_layer_convolution(cap, zeros):
    B = BlaschkeProduct(np.exp(0.7j), zeros)
    m = B.degree
    for depth in (1, 2, 3, 5, 7, cap // m + 1, None):
        W = build_wold_frame(B, cap, depth)
        ref = _wold_frame_by_convolution(B, cap, W.depth)
        assert W.matrix.shape == ref.shape == (cap + 1, W.depth * m)
        assert np.max(np.abs(W.matrix - ref)) <= 1e-13
        assert not W.matrix.flags.writeable
    # column i*m + j is B^i e_j cut at the cap (W has the default depth)
    for i in sorted({0, 1, 2, W.depth // 2, W.depth - 1}):
        bi = power_expansion(B, i, cap) if i else np.ones(1)
        for j in range(m):  # the model basis is layer 0
            want = np.convolve(bi, W.matrix[:, j])[: cap + 1]
            assert np.max(np.abs(W.matrix[:, i * m + j] - want)) <= 1e-13


def test_wold_depth_past_the_cap_fails_closed():
    # layer depth-1 starts at degree (depth-1)·deg B, which must fit the cap
    assert build_wold_frame(B_HALF, 48, depth=49).depth == 49
    with pytest.raises(BudgetExceeded, match="depth 50 .*degree 1 .*cap 48"):
        build_wold_frame(B_HALF, 48, depth=50)
    assert build_wold_frame(B_MIX, CAP, depth=33).depth == 33
    with pytest.raises(BudgetExceeded, match="depth 34 .*degree 2 .*cap 64"):
        build_wold_frame(B_MIX, CAP, depth=34)
    # a constant has no layers; the default depth would divide by its degree
    with pytest.raises(ParamOutOfRange, match="at least one zero"):
        build_wold_frame(BlaschkeProduct(1.0, []), CAP)


def test_u_apply_monomial_case_equals_deinterleave(rng):
    W = build_wold_frame(B_Z2, CAP, depth=33)
    f = random_taylor(rng, 40, CAP)
    F, resid = u_apply(f, W)
    assert resid < 1e-12
    G = VectorPoly([TaylorPoly(f.padded(CAP + 1)[l::2], CAP) for l in range(2)])  # de-interleaved
    for a, b in zip(F.components, G.components):
        assert sub(a, b).norm() < 1e-12
    assert sub(t_m_apply(F), f).norm() < 1e-12


def test_u_apply_basis_vectors():
    W = build_wold_frame(B_MIX, CAP, depth=28)
    for j in range(W.m):
        F, resid = u_apply(TaylorPoly(W.matrix[:, j], CAP), W)
        assert resid < 1e-12
        for i, comp in enumerate(F.components):
            want = TaylorPoly([1.0 if i == j else 0.0], CAP)
            assert sub(comp, want).norm() < 1e-10


def test_u_apply_single_factor_layer():
    W = build_wold_frame(B_HALF, CAP, depth=20)
    f = TaylorPoly(W.matrix[:, W.m], CAP)  # truncation of B * e_1
    F, resid = u_apply(f, W)
    assert resid < 1e-8
    assert sub(F.components[0], monomial(1, CAP)).norm() < 1e-8


def test_u_roundtrip_and_unitarity(rng):
    W = build_wold_frame(B_MIX, CAP, depth=28)
    fs = [random_taylor(rng, 20, CAP) for _ in range(4)]
    imgs = [u_apply(f, W)[0] for f in fs]
    # back from the coordinates: W (W^H X) = X on the covered band
    X = np.column_stack([f.padded(CAP + 1) for f in fs])
    assert np.max(np.abs(W.matrix @ (W.matrix.conj().T @ X) - X)) < 1e-10
    from hardyshift.veclift import vec_inner

    for a in range(4):
        for b in range(4):
            assert abs(vec_inner(imgs[a], imgs[b])
                       - inner_product(fs[a], fs[b])) < 1e-8


def test_u_apply_depth_exhausted():
    W = build_wold_frame(B_Z2, CAP, depth=4)  # covers degrees < 8 only
    with pytest.raises(DepthExhausted):
        u_apply(monomial(20, CAP), W)


def test_u_apply_and_transfer_fail_closed_on_nan():
    with pytest.raises(ParamOutOfRange):  # refused before it reaches u_apply
        TaylorPoly([1, np.nan], CAP)
    frame = np.zeros((CAP + 1, 1), dtype=np.complex128)
    frame[:2, 0] = [1, np.nan]
    with pytest.raises(ParamOutOfRange):  # refused before it reaches the transfer
        SpanSubspace(frame, CAP, 1)


def conjugation_residuals(B, n, X, W):
    """Per column of X: || S^(m n) lift(U x) - lift(U T_B^n x) ||, with
    lift ∘ U the layer coordinates W^H x read in lifted order and cut to
    the cap.  Zero up to rounding on the covered band."""
    def lifted_coords(Y):
        C = W.matrix.conj().T @ Y
        assert np.max(np.linalg.norm(Y - W.matrix @ C, axis=0)) < 1e-8  # covered
        return fit_cap(C, W.m, W.cap)

    lhs = OperatorSpec(W.m * n).apply(lifted_coords(X))
    rhs = lifted_coords(toeplitz_columns(B, n, False, X))
    return np.linalg.norm(lhs - rhs, axis=0)


def test_check_conjugation_monomial_zero():
    W = build_wold_frame(B_Z2, CAP, depth=20)
    X = TaylorPoly([1, 2, 3, 4], CAP).padded(CAP + 1)[:, None]
    assert conjugation_residuals(B_Z2, 1, X, W).max() < 1e-14
    assert conjugation_residuals(B_Z2, 2, X, W).max() < 1e-14


def test_check_conjugation_mixed_zeros(rng):
    W = build_wold_frame(B_MIX, CAP, depth=28)
    X = np.column_stack([TaylorPoly([1], CAP).padded(CAP + 1),
                         random_taylor(rng, 12, CAP, scale=0.3).padded(CAP + 1)])
    for n in (1, 2):
        assert conjugation_residuals(B_MIX, n, X, W).max() < 1e-8


def test_conjugation_semigroup_law(rng):
    W = build_wold_frame(B_MIX, CAP, depth=28)
    f = random_taylor(rng, 10, CAP, scale=0.2)
    g1 = toeplitz_apply(B_MIX, 1, False, toeplitz_apply(B_MIX, 1, False, f))
    g2 = toeplitz_apply(B_MIX, 2, False, f)
    assert sub(g1, g2).norm() < 1e-10


def test_transfer_roundtrip_and_verdicts(rng):
    W = build_wold_frame(B_MIX, CAP, depth=28)
    M = orthonormalize(stacked(*(random_taylor(rng, 10, CAP) for _ in range(3))), label="M")
    N = transfer_subspace(M, W)
    # N is spanned by the layer coordinates C = W^H X, and W C = X again
    X = M.frame_matrix()
    C = W.matrix.conj().T @ X
    assert np.max(np.abs(W.matrix @ C - X)) < 1e-8
    Y = fit_cap(C, W.m, CAP)
    assert np.max(np.abs(N.matrix @ (N.matrix.conj().T @ Y) - Y)) < 1e-12
    # verdict transfer: random spans are generically non-invariant on both sides
    rep_toep = check_invariance(M, OperatorSpec(1, False, B_MIX))
    rep_shift = check_invariance(N, OperatorSpec(2))
    assert rep_toep.verdict == rep_shift.verdict == "FAIL"


def test_direct_toeplitz_invariance_of_deep_capped_range():
    # deep capped model of B^2 H^2: interior images stay inside at tolerance,
    # the top band is excluded by the support rule rather than failed
    gens = [toeplitz_apply(B_MIX, 2, False, monomial(j, CAP)) for j in range(61)]
    M = orthonormalize(stacked(*gens), label="B2H2")
    rep = check_invariance(M, OperatorSpec(1, False, B_MIX))
    assert rep.passed
    assert rep.untested  # the band exclusions are reported


def test_transfer_monomial_case_exact_pass_agreement():
    # for the pure-monomial product everything is exact: the capped model of
    # B^2 H^2 = z^4 H^2 transfers to itself and both verdicts PASS
    W = build_wold_frame(B_Z2, CAP, depth=33)
    gens = [monomial(4 + j, CAP) for j in range(CAP - 4 + 1)]
    M = orthonormalize(stacked(*gens), label="z4H2")
    direct = check_invariance(M, OperatorSpec(2, False, B_Z2))
    N = transfer_subspace(M, W)
    moved = check_invariance(N, OperatorSpec(4))
    assert direct.passed and moved.passed
    assert direct.verdict == moved.verdict


def test_transfer_near_invariance_agreement(rng):
    W = build_wold_frame(B_MIX, CAP, depth=28)
    for _ in range(3):
        M = orthonormalize(stacked(*(random_taylor(rng, 8, CAP) for _ in range(2))),
                           label="M")
        direct = check_near_invariance(M, OperatorSpec(1, True, B_MIX))
        moved = check_near_invariance(transfer_subspace(M, W),
                                      OperatorSpec(2, True))
        assert direct.verdict == moved.verdict


def test_transfer_zero_space():
    W = build_wold_frame(B_MIX, CAP, depth=20)
    from hardyshift.subspaces import SpanSubspace

    Z = SpanSubspace(np.zeros((CAP + 1, 0)), CAP, 1, label="zero")
    out = transfer_subspace(Z, W)
    assert out.dim == 0


def test_toeplitz_adjoint_matches_loop_formula(rng):
    for deg in (1, 2, 3):
        zeros = 0.8 * (rng.random(deg) - 0.5) + 0.8j * (rng.random(deg) - 0.5)
        B = BlaschkeProduct(np.exp(1j * rng.random()), zeros)
        f = random_taylor(rng, CAP, CAP)
        fc = f.padded(CAP + 1)
        for n in (1, 2):
            b = np.conj(power_expansion(B, n, CAP))
            want = np.array([np.dot(b[: CAP + 1 - j], fc[j:]) for j in range(CAP + 1)])
            got = toeplitz_apply(B, n, True, f).padded(CAP + 1)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_near_invariance_sees_range_members_near_the_cap(rng):
    # (z - a) r lies in B H^2 at every cap, but is no combination of the
    # truncated images B z^j, j <= cap - 1, when a is close to the circle
    a, cap = 0.95, 24
    B = BlaschkeProduct(1.0, [a])
    r = random_taylor(rng, 23, cap)
    M = orthonormalize(stacked(TaylorPoly(np.convolve([-a, 1.0], r.coeffs), cap)), label="M")
    rep = check_near_invariance(M, OperatorSpec(1, True, B))
    assert rep.verdict == "FAIL" and rep.tested == 1
    w = rep.witness  # (1, cap+1) coefficient blocks
    assert w.element.shape == w.image.shape == (1, cap + 1)
    assert abs(np.polynomial.polynomial.polyval(a, w.element[0])) < 1e-12
    assert np.array_equal(w.image.T, toeplitz_columns(B, 1, True, w.element.T))


def _truncated_range_meet(M, B, n):
    """M ∩ span{B^n z^j cut to the cap : j <= cap - n·deg(B)}."""
    from hardyshift.subspaces import intersect

    jmax = M.cap - n * B.degree
    R = orthonormalize(stacked(*(toeplitz_apply(B, n, False, monomial(j, M.cap))
                                 for j in range(jmax + 1))))
    return intersect(M, R)


@pytest.mark.parametrize("zeros, n", [
    ([0.4, -0.3 + 0.2j], 1),
    ([0.25j, 0.25j, -0.5], 2),
])
def test_toeplitz_range_meet_agrees_with_truncated_range(rng, zeros, n):
    from hardyshift.invariance import _toeplitz_range_meet

    cap = 96
    B = BlaschkeProduct(1.0, zeros)

    def vanishing(power):  # prod (z - a)^power over the zeros of B, times r
        p = random_taylor(rng, 12, cap).coeffs
        for a in list(zeros) * power:
            p = np.convolve(p, [-a, 1.0])
        return TaylorPoly(p, cap)

    # two members of B^n H^2, one of B H^2, and two generic polynomials
    gens = [vanishing(n), vanishing(n), vanishing(1)]
    M = orthonormalize(stacked(*gens, *(random_taylor(rng, 10, cap) for _ in range(2))))
    new = _toeplitz_range_meet(M, OperatorSpec(n, False, B))
    old = _truncated_range_meet(M, B, n)
    assert new.dim == old.dim == (3 if n == 1 else 2)
    P_new = new.matrix @ new.matrix.conj().T
    P_old = old.matrix @ old.matrix.conj().T
    assert np.linalg.norm(P_new - P_old, 2) <= 1e-10


def _no_work(*args, **kwargs):
    raise AssertionError("the expansion was computed")


@pytest.mark.parametrize("cap, depth", [(16, True), (16, 2.0), (16, 1.5), (16.0, None),
                                        (True, None), (16.0, 2)])
def test_wold_frame_refuses_a_non_integer_cap_or_depth_before_any_work(monkeypatch, cap, depth):
    monkeypatch.setattr(blaschke, "_factor_chain", _no_work)
    with pytest.raises(ParamOutOfRange, match="must be integers$"):
        build_wold_frame(B_HALF, cap, depth)


@pytest.mark.parametrize("n, cap, match", [
    (True, 8, "power must be an integer"), (2.0, 8, "power must be an integer"),
    (1.5, 8, "power must be an integer"), (2, 8.0, "cap must be an integer"),
    (2, True, "cap must be an integer"),
])
def test_power_expansion_refuses_a_non_integer_power_or_cap_before_any_work(monkeypatch, n,
                                                                            cap, match):
    monkeypatch.setattr(np, "convolve", _no_work)
    with pytest.raises(ParamOutOfRange, match=match):
        power_expansion(B_HALF, n, cap)


def test_numpy_integers_are_a_cap_depth_and_power():
    W = build_wold_frame(B_HALF, np.int64(16), np.int32(3))
    assert W.depth == 3 and np.array_equal(W.matrix, build_wold_frame(B_HALF, 16, 3).matrix)
    assert np.array_equal(power_expansion(B_HALF, np.int64(3), np.int32(8)),
                          power_expansion(B_HALF, 3, 8))


@pytest.mark.parametrize("cap", [2.5, True, "3"])
def test_tail_bound_refuses_a_cap_that_is_not_an_integer(cap):
    # 2.5 gave 0.177 (3.5 as the first cut degree), True read as cap 1
    with pytest.raises(ParamOutOfRange, match="cap must be an integer"):
        tail_bound(B_HALF, cap)


def test_tail_bound_takes_a_numpy_integer_cap():
    assert tail_bound(B_HALF, np.int64(8)) == tail_bound(B_HALF, 8) > 0
