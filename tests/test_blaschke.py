import numpy as np
import pytest

from hardyshift import (BlaschkeProduct, BudgetExceeded, DepthExhausted,
                        OperatorSpec, ParamOutOfRange, SpanSubspace, ZeroOnCircle,
                        build_wold_frame, check_conjugation, check_invariance,
                        check_near_invariance, model_basis, monomial,
                        orthonormalize, t_m_apply, t_m_invert,
                        tail_bound, taylor, taylor_expand, toeplitz_apply,
                        transfer_subspace, u_apply, u_invert)
from hardyshift.series import allclose, coshift_pow, inner_product, shift_pow, sub

from conftest import random_taylor

CAP = 64
B_HALF = BlaschkeProduct(1.0, [0.5])
B_MIX = BlaschkeProduct(1.0, [0, 0.5])
B_Z2 = BlaschkeProduct(1.0, [0, 0])


def circle(n):
    return np.exp(2j * np.pi * np.arange(n) / n)


def test_taylor_expand_monomial():
    assert allclose(taylor_expand(B_Z2, 8), monomial(2, 8))
    assert tail_bound(B_Z2, 8) == 0.0


def test_taylor_expand_half_zero():
    e = taylor_expand(B_HALF, 8)
    want = [-0.5] + [3.0 / 2 ** (n + 1) for n in range(1, 9)]
    assert np.allclose(e.coeffs, want, atol=1e-15)
    assert tail_bound(B_HALF, 64) < 1e-18


def test_unimodular_boundary_random_zeros(rng):
    zeros = 0.6 * (rng.random(3) - 0.5) + 0.5j * (rng.random(3) - 0.5)
    lam = np.exp(1j * rng.random())
    B = BlaschkeProduct(lam, zeros)
    e = taylor_expand(B, 256)
    vals = e.eval(circle(64))
    assert np.max(np.abs(np.abs(vals) - 1)) < 1e-10


def test_constructor_validation():
    with pytest.raises(ParamOutOfRange):
        BlaschkeProduct(2.0, [0])
    with pytest.raises(ZeroOnCircle):
        taylor_expand(BlaschkeProduct(1.0, [1.0]), 8)
    with pytest.raises(BudgetExceeded):
        taylor_expand(B_MIX, 1)


def test_toeplitz_monomial_is_shift():
    f = taylor([1, 2, 3], CAP)
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
    basis = model_basis(B_Z2, 16)
    assert allclose(basis[0], taylor([1], 16))
    assert allclose(basis[1], monomial(1, 16))


def test_model_basis_reproducing_kernel():
    basis = model_basis(B_HALF, CAP)
    want = (np.sqrt(3) / 2) * (0.5 ** np.arange(CAP + 1))
    assert np.allclose(basis[0].padded(CAP + 1), want, atol=1e-15)


def test_model_basis_orthogonal_to_range():
    basis = model_basis(B_MIX, CAP)
    assert len(basis) == 2
    gram = np.array([[inner_product(a, b) for b in basis] for a in basis])
    assert np.max(np.abs(gram - np.eye(2))) < 1e-10
    for e in basis:
        for j in range(CAP - 2):
            bz = toeplitz_apply(B_MIX, 1, False, monomial(j, CAP))
            assert abs(inner_product(e, bz)) < 1e-8


def test_wold_frame_orthonormal_at_adequate_cap():
    W = build_wold_frame(B_MIX, 96, depth=12)
    assert W.gram_defect() < 1e-8


def test_u_apply_monomial_case_equals_deinterleave(rng):
    W = build_wold_frame(B_Z2, CAP, depth=33)
    f = random_taylor(rng, 40, CAP)
    F, resid = u_apply(f, W)
    assert resid < 1e-12
    G = t_m_invert(f, 2)
    for a, b in zip(F.components, G.components):
        assert sub(a, b).norm() < 1e-12
    assert sub(t_m_apply(F), f).norm() < 1e-12


def test_u_apply_basis_vectors():
    W = build_wold_frame(B_MIX, CAP, depth=28)
    for j, e in enumerate(W.basis):
        F, resid = u_apply(e, W)
        assert resid < 1e-12
        for i, comp in enumerate(F.components):
            want = taylor([1.0 if i == j else 0.0], CAP)
            assert sub(comp, want).norm() < 1e-10


def test_u_apply_single_factor_layer():
    W = build_wold_frame(B_HALF, CAP, depth=20)
    f = W.layers[1][0]  # truncation of B * e_1
    F, resid = u_apply(f, W)
    assert resid < 1e-8
    assert sub(F.components[0], monomial(1, CAP)).norm() < 1e-8


def test_u_roundtrip_and_unitarity(rng):
    W = build_wold_frame(B_MIX, CAP, depth=28)
    fs = [random_taylor(rng, 20, CAP) for _ in range(4)]
    imgs = [u_apply(f, W)[0] for f in fs]
    for f, F in zip(fs, imgs):
        assert sub(u_invert(F, W), f).norm() < 1e-10
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
    W = build_wold_frame(B_Z2, CAP)
    with pytest.raises(DepthExhausted):
        u_apply(taylor([1, np.nan], CAP), W)
    frame = np.zeros((CAP + 1, 1), dtype=np.complex128)
    frame[:2, 0] = [1, np.nan]
    with pytest.raises(DepthExhausted):
        transfer_subspace(SpanSubspace(frame, CAP, 1), B_Z2, W, "to_shift")


def test_u_invert_and_transfer_to_toeplitz_depth():
    W = build_wold_frame(B_Z2, CAP, depth=4)
    with pytest.raises(DepthExhausted, match="layer 5"):
        u_invert(t_m_invert(monomial(11, CAP), 2), W)
    M = orthonormalize([monomial(11, CAP)])
    with pytest.raises(DepthExhausted, match="layer 5"):
        transfer_subspace(M, B_Z2, W, "to_toeplitz")


def test_check_conjugation_monomial_zero():
    W = build_wold_frame(B_Z2, CAP, depth=20)
    f = taylor([1, 2, 3, 4], CAP)
    assert check_conjugation(B_Z2, 1, f, W) < 1e-14
    assert check_conjugation(B_Z2, 2, f, W) < 1e-14


def test_check_conjugation_mixed_zeros(rng):
    W = build_wold_frame(B_MIX, CAP, depth=28)
    for f in (taylor([1], CAP), random_taylor(rng, 12, CAP, scale=0.3)):
        for n in (1, 2):
            assert check_conjugation(B_MIX, n, f, W) < 1e-8


def test_conjugation_semigroup_law(rng):
    W = build_wold_frame(B_MIX, CAP, depth=28)
    f = random_taylor(rng, 10, CAP, scale=0.2)
    g1 = toeplitz_apply(B_MIX, 1, False, toeplitz_apply(B_MIX, 1, False, f))
    g2 = toeplitz_apply(B_MIX, 2, False, f)
    assert sub(g1, g2).norm() < 1e-10


def test_transfer_roundtrip_and_verdicts(rng):
    W = build_wold_frame(B_MIX, CAP, depth=28)
    M = orthonormalize([random_taylor(rng, 10, CAP) for _ in range(3)], label="M")
    N = transfer_subspace(M, B_MIX, W, "to_shift")
    back = transfer_subspace(N, B_MIX, W, "to_toeplitz")
    for u in M.frame:
        from hardyshift.subspaces import project

        assert project(u, back).residual < 1e-8
    # verdict transfer: random spans are generically non-invariant on both sides
    rep_toep = check_invariance(M, OperatorSpec.toeplitz(B_MIX, 1))
    rep_shift = check_invariance(N, OperatorSpec.shift(2))
    assert rep_toep.verdict == rep_shift.verdict == "FAIL"


def test_direct_toeplitz_invariance_of_deep_capped_range():
    # deep capped model of B^2 H^2: interior images stay inside at tolerance,
    # the top band is excluded by the support rule rather than failed
    gens = [toeplitz_apply(B_MIX, 2, False, monomial(j, CAP)) for j in range(61)]
    M = orthonormalize(gens, label="B2H2")
    rep = check_invariance(M, OperatorSpec.toeplitz(B_MIX, 1))
    assert rep.passed
    assert rep.untested  # the band exclusions are reported


def test_transfer_monomial_case_exact_pass_agreement():
    # for the pure-monomial product everything is exact: the capped model of
    # B^2 H^2 = z^4 H^2 transfers to itself and both verdicts PASS
    W = build_wold_frame(B_Z2, CAP, depth=33)
    gens = [monomial(4 + j, CAP) for j in range(CAP - 4 + 1)]
    M = orthonormalize(gens, label="z4H2")
    direct = check_invariance(M, OperatorSpec.toeplitz(B_Z2, 2))
    N = transfer_subspace(M, B_Z2, W, "to_shift")
    moved = check_invariance(N, OperatorSpec.shift(4))
    assert direct.passed and moved.passed
    assert direct.verdict == moved.verdict


def test_transfer_near_invariance_agreement(rng):
    W = build_wold_frame(B_MIX, CAP, depth=28)
    for _ in range(3):
        M = orthonormalize([random_taylor(rng, 8, CAP) for _ in range(2)], label="M")
        direct = check_near_invariance(M, OperatorSpec.toeplitz_adjoint(B_MIX, 1))
        moved = check_near_invariance(transfer_subspace(M, B_MIX, W, "to_shift"),
                                      OperatorSpec.coshift(2))
        assert direct.verdict == moved.verdict


def test_transfer_zero_space():
    W = build_wold_frame(B_MIX, CAP, depth=20)
    from hardyshift.subspaces import SpanSubspace

    Z = SpanSubspace((), CAP, 1, label="zero")
    out = transfer_subspace(Z, B_MIX, W, "to_shift")
    assert out.dim == 0
    out = transfer_subspace(Z, B_MIX, W, "to_toeplitz")
    assert out.dim == 0


def test_toeplitz_adjoint_matches_loop_formula(rng):
    from hardyshift.blaschke import power_expansion

    for deg in (1, 2, 3):
        zeros = 0.8 * (rng.random(deg) - 0.5) + 0.8j * (rng.random(deg) - 0.5)
        B = BlaschkeProduct(np.exp(1j * rng.random()), zeros)
        f = random_taylor(rng, CAP, CAP)
        fc = f.padded(CAP + 1)
        for n in (1, 2):
            b = np.conj(power_expansion(B, n, CAP).padded(CAP + 1))
            want = np.array([np.dot(b[: CAP + 1 - j], fc[j:]) for j in range(CAP + 1)])
            got = toeplitz_apply(B, n, True, f).padded(CAP + 1)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_near_invariance_sees_range_members_near_the_cap(rng):
    # (z - a) r lies in B H^2 at every cap, but is no combination of the
    # truncated images B z^j, j <= cap - 1, when a is close to the circle
    a, cap = 0.95, 24
    B = BlaschkeProduct(1.0, [a])
    r = random_taylor(rng, 23, cap)
    M = orthonormalize([taylor(np.convolve([-a, 1.0], r.coeffs), cap)], label="M")
    rep = check_near_invariance(M, OperatorSpec.toeplitz_adjoint(B, 1))
    assert rep.verdict == "FAIL" and rep.tested == 1
    w = rep.witness
    assert abs(w.element.eval(np.array([a]))[0]) < 1e-12
    assert sub(w.image, toeplitz_apply(B, 1, True, w.element)).norm() == 0.0


def _truncated_range_meet(M, B, n):
    """M ∩ span{B^n z^j cut to the cap : j <= cap - n·deg(B)}."""
    from hardyshift.subspaces import intersect

    jmax = M.cap - n * B.degree
    R = orthonormalize([toeplitz_apply(B, n, False, monomial(j, M.cap))
                        for j in range(jmax + 1)])
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
        return taylor(p, cap)

    # two members of B^n H^2, one of B H^2, and two generic polynomials
    gens = [vanishing(n), vanishing(n), vanishing(1)]
    M = orthonormalize(gens + [random_taylor(rng, 10, cap) for _ in range(2)])
    new = _toeplitz_range_meet(M, OperatorSpec.toeplitz(B, n))
    old = _truncated_range_meet(M, B, n)
    assert new.dim == old.dim == (3 if n == 1 else 2)
    P_new = new.matrix @ new.matrix.conj().T
    P_old = old.matrix @ old.matrix.conj().T
    assert np.linalg.norm(P_new - P_old, 2) <= 1e-10
