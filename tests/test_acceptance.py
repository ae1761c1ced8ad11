"""Acceptance suite: one test per exit criterion, each at its stated
tolerance.  Expected values come from independent oracles computed inside
the tests (direct coefficient arithmetic, circle sampling, brute-force
Gram-Schmidt, membership pattern checks); quoted reference values are
audited against those oracles and the two that fail independent
verification are kept as strict expected-failure tests so the
discrepancies stay visible.
"""

import numpy as np
import pytest

from hardyshift import (BlaschkeProduct, MonomialSubspace, OperatorSpec, TaylorPoly,
                        VectorPoly, adjoint_on_circle, build_sigma,
                        build_theta_range, build_wold_frame, certify_theta,
                        check_invariance,
                        check_near_invariance, diag_polys, extract_kernels,
                        from_poly_grid, is_analytic, is_inner, lift,
                        matmul, orthonormalize, t_m_apply,
                        taylor_expand, transfer_subspace, u_apply,
                        verify_theorem_multi)
from hardyshift.laurent import allclose as mat_close
from hardyshift.series import inner_product, sub
from hardyshift.subspaces import project
from hardyshift.veclift import fit_cap

from conftest import matrix_action, monomial, random_columns, random_taylor, stacked
from test_blaschke import conjugation_residuals
from test_hitt import brute_force_kernel_oracle
from test_laurent import sampled_fourier

SQRT2, SQRT5, SQRT6, SQRT30 = map(np.sqrt, (2.0, 5.0, 6.0, 30.0))


# -- criterion 1: block shift matrix builder --------------------------------

def test_sigma_builder_exact_and_inner():
    sigma = build_sigma(2, 1, 1)
    expected = from_poly_grid([[[0], [0, 0, 1]], [[0, 1], [0]]])
    assert mat_close(sigma, expected, 0.0)
    for m in range(2, 7):
        for gamma in range(1, m):
            for k in range(1, 4):
                assert is_inner(build_sigma(m, gamma, k), 1e-14)


# -- criterion 2: lift laws on random column matrices ------------------------

def test_lift_laws_random(rng):
    cap = 128
    cases = [(2, 34), (3, 33), (5, 33)]
    for m, count in cases:
        X = random_columns(rng, m, 20, cap, count)  # one vector element per column
        lifted = lift(X, m)
        for x, y in zip(X.T, lifted.T):  # exact coefficient permutation
            assert np.array_equal(np.sort_complex(x), np.sort_complex(y))
        assert np.max(np.abs(np.linalg.norm(lifted, axis=0)
                             - np.linalg.norm(X, axis=0))) < 1e-13
        # the shift diagram: lift(S X) = S^m lift(X)
        assert np.array_equal(lift(OperatorSpec(1).apply(X, m), m),
                              OperatorSpec(m).apply(lifted))
        # the block shift law: lift(Sigma X) = S^(km+gamma) lift(X)
        for gamma in range(1, m):
            for k in (1, 2, 3):
                lhs = lift(matrix_action(build_sigma(m, gamma, k), X), m)
                rhs = OperatorSpec(k * m + gamma).apply(lifted)
                assert np.max(np.abs(lhs - rhs)) < 1e-12


# -- criterion 3: the diagonal analyticity window ----------------------------

def _window_theta(j, k, psi=None):
    unit = [1.0] if psi is None else list(psi)
    return diag_polys([[0.0] * j + unit, [0.0] * k + unit])


def test_diagonal_analyticity_window():
    sigma = build_sigma(2, 1, 1)
    for d in range(-3, 5):
        k = 3
        theta = _window_theta(k + d, k)
        chk = is_analytic(matmul(matmul(adjoint_on_circle(theta), sigma), theta),
                          1e-10)
        assert chk.ok == (-1 <= d <= 2), f"offset {d}"

    psi = taylor_expand(BlaschkeProduct(1.0, [0.5]), 64)
    for d in range(-3, 5):
        k = 3
        theta = _window_theta(k + d, k, psi)
        chk = is_analytic(matmul(matmul(adjoint_on_circle(theta), sigma), theta),
                          1e-8)
        assert chk.ok == (-1 <= d <= 2), f"offset {d} with automorphism factor"


# -- criterion 4: the rank-one column (1, 2)/sqrt(5) -------------------------

THETA12 = from_poly_grid([[[5 ** -0.5]], [[2 * 5 ** -0.5]]])


def _column_pattern_member(coeffs, tol=1e-12):
    """Membership oracle for {(1+2z) f(z^2)}: odd coefficient = twice the
    preceding even coefficient, pairwise."""
    c = np.asarray(coeffs, dtype=complex)
    if c.size % 2:
        c = np.append(c, 0.0)
    return bool(np.all(np.abs(c[1::2] - 2 * c[0::2]) <= tol))


def test_column_multiple_theta_audit(rng):
    cap = 64
    # the matrix-side conditions hold
    assert is_inner(THETA12, 1e-14)
    sigma = build_sigma(2, 1, 1)
    product = matmul(matmul(adjoint_on_circle(THETA12), sigma), THETA12)
    assert is_analytic(product, 1e-10).ok
    assert mat_close(product, from_poly_grid([[[0, 0.4, 0.4]]]), 1e-15)

    # membership pattern oracle: the square shift preserves the pattern,
    # the cube shift provably breaks it
    g0 = np.array([1, 2]) / SQRT5
    assert _column_pattern_member(g0)
    assert _column_pattern_member(np.concatenate([[0, 0], g0]))
    assert not _column_pattern_member(np.concatenate([[0, 0, 0], g0]))

    # the capped model fails S with a concrete witness
    M = build_theta_range(THETA12, 2, cap)
    rep = check_invariance(M, OperatorSpec(1))
    assert rep.verdict == "FAIL"
    assert rep.witness.residual == pytest.approx(np.sqrt(17) / 5, rel=1e-9)
    assert not _column_pattern_member(rep.witness.image[0], tol=1e-9)

    # pipeline stage audit: inner and analytic PASS, the square-shift
    # stages PASS, and the cube-shift stages FAIL with a witness that the
    # independent pattern oracle confirms
    pipe = verify_theorem_multi(THETA12, 2, [(1, 1)], cap)
    assert pipe.stage("theta_inner").passed
    assert pipe.stage("product_analytic_gamma1_k1").passed
    assert pipe.stage("range_invariant_S^2").passed
    cube = pipe.stage("range_invariant_S^3")
    assert cube.verdict == "FAIL"
    assert not _column_pattern_member(cube.data.witness.image[0], tol=1e-9)
    # random members confirm the oracle both ways
    for _ in range(10):
        h = random_taylor(rng, 12, cap)
        member = np.zeros(2 * 12 + 2, dtype=complex)
        member[0::2] = h.coeffs[:13]
        member[1::2] = 2 * h.coeffs[:13]
        assert _column_pattern_member(member)
        assert _column_pattern_member(np.concatenate([[0, 0], member]))
        assert project(TaylorPoly(member, cap).padded(cap + 1), M).residual < 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="quoted claim: the lifted range of (1,2)/sqrt(5) is invariant "
    "under both the square and the cube shift.  Three independent routes "
    "(coefficient pattern, lift correspondence, adjoint contradiction) show "
    "cube invariance fails: the analytic-product condition alone is not "
    "sufficient for matrices with fewer columns than rows.  Kept as a "
    "strict expected failure so the discrepancy stays visible.",
)
def test_column_multiple_theta_quoted_claim():
    pipe = verify_theorem_multi(THETA12, 2, [(1, 1)], 64)
    assert pipe.passed


# -- criteria 5-7: kernel-column worked examples -----------------------------

def test_kernel_example_degenerate(rng):
    cap = 48
    M = orthonormalize(stacked(TaylorPoly([1, 1], cap), TaylorPoly([0, 0, 1, 1], cap)))
    E = extract_kernels(M, 2)
    want0 = np.zeros(cap + 1, dtype=complex)
    want0[:2] = 1 / SQRT2
    assert np.max(np.abs(E[:, 0] - want0)) < 1e-10
    assert not E[:, 1].any()

    theta = from_poly_grid([[[0, 0, 1]], [[0]]])
    rep = certify_theta(M, 2, 1, 1, theta)
    assert rep.passed, [(s.name, s.verdict) for s in rep.stages]
    assert not np.any(rep.product.table)  # the product is identically zero


def test_kernel_example_two_entries():
    cap = 48
    M = orthonormalize(stacked(TaylorPoly([1, 1, 1], cap), TaylorPoly([0, 1, 2], cap)))
    E = extract_kernels(M, 2)
    assert np.max(np.abs(E[:3, 0] - np.array([5, 2, -1]) / SQRT30)) < 1e-10
    assert np.max(np.abs(E[:3, 1] - np.array([0, 1, 2]) / SQRT5)) < 1e-10

    theta = from_poly_grid([[[0, 1 / SQRT2]], [[0, 1 / SQRT2]]])
    rep = certify_theta(M, 2, 1, 1, theta)
    assert rep.passed, [(s.name, s.verdict) for s in rep.stages]
    # computed product equals (z + z^2)/2 at the coefficient level
    assert rep.product.min_pow == 1
    assert np.max(np.abs(rep.product.table[0, 0] - 0.5)) < 1e-14


def test_kernel_example_discrepancy_audit():
    cap = 48
    gens = ([1, 1], [0, 1, 1], [0, 0, 0, 1, 1])
    M = orthonormalize(stacked(*(TaylorPoly(g, cap) for g in gens)))
    E = extract_kernels(M, 2)
    # first entry matches the closed form (2 - z)(1 + z)/sqrt(6)
    assert np.max(np.abs(E[:3, 0] - np.array([2, 1, -1]) / SQRT6)) < 1e-10
    # second entry equals the independent brute-force Gram-Schmidt oracle
    oracle = brute_force_kernel_oracle(gens, m=2, cap=cap)
    for got, want in zip(E.T, oracle):
        assert np.max(np.abs(got - want)) < 1e-10
    # audit: the quoted value z(1 + 2z)/sqrt(2) differs from the oracle
    # output z(1 + z)/sqrt(2) and is not normalized
    quoted = np.zeros(cap + 1, dtype=complex)
    quoted[1], quoted[2] = 1 / SQRT2, 2 / SQRT2
    assert np.linalg.norm(oracle[1] - quoted) > 0.5
    assert abs(np.linalg.norm(quoted) - 1.0) > 0.5
    assert np.max(np.abs(oracle[1][1:3] - np.array([1, 1]) / SQRT2)) < 1e-10
    # certification still passes with the column (z^2, z^2)/sqrt(2)
    theta = from_poly_grid([[[0, 0, 1 / SQRT2]], [[0, 0, 1 / SQRT2]]])
    rep = certify_theta(M, 2, 1, 1, theta)
    assert rep.passed, [(s.name, s.verdict) for s in rep.stages]


# -- criterion 8: the arity-3 diagonal example --------------------------------

THETA3 = diag_polys([[1], [0, 1], [0, 1]])
PRODUCT_G1_ORACLE = from_poly_grid([
    [[0], [0], [0, 0, 0, 1]],
    [[1], [0], [0]],
    [[0], [0, 1], [0]],
])
PRODUCT_G1_QUOTED = from_poly_grid([
    [[0], [0], [0, 0, 0, 1]],
    [[1], [0], [0]],
    [[0], [0, 0, 1], [0]],
])
PRODUCT_G2 = from_poly_grid([
    [[0], [0, 0, 0, 1], [0]],
    [[0], [0], [0, 0, 1]],
    [[1], [0], [0]],
])


def _product_matrix(theta, m, gamma, k):
    return matmul(matmul(adjoint_on_circle(theta), build_sigma(m, gamma, k)), theta)


def test_arity3_diagonal_example(rng):
    cap = 48
    M = MonomialSubspace((3, 4, 5), cap, label="C+z3H2")
    for k in (3, 4, 5):
        assert check_invariance(M, OperatorSpec(k)).passed
    for k in (1, 2):
        assert check_invariance(M, OperatorSpec(k)).verdict == "FAIL"

    pipe = verify_theorem_multi(THETA3, 3, [(1, 1), (2, 1)], cap)
    assert pipe.passed, [(s.name, s.verdict) for s in pipe.stages]

    (g1, p1), (g2, p2) = pipe.products
    assert g1 == (1, 1) and g2 == (2, 1)
    # second product matches the quoted matrix coefficient-exactly
    assert mat_close(p2, PRODUCT_G2, 0.0)
    # first product matches the oracle matrix coefficient-exactly
    assert mat_close(p1, PRODUCT_G1_ORACLE, 0.0)

    # independent oracle 1: circle-sampled Fourier coefficients
    sampled = sampled_fourier(p1)
    for p, mat in sampled.items():
        lo, hi = PRODUCT_G1_ORACLE.min_pow, PRODUCT_G1_ORACLE.max_pow
        want = (PRODUCT_G1_ORACLE.table[:, :, p - lo]
                if lo <= p <= hi else np.zeros((3, 3)))
        assert np.max(np.abs(mat - want)) < 1e-8

    # independent oracle 2: the multiplication correspondence pins the
    # product entry (3, 2): lift(Theta P F) must equal S^4 lift(Theta F)
    def lifted(Y):
        return fit_cap(lift(Y, 3), 3, cap)

    X = random_columns(rng, 3, 6, cap, 5)
    lhs = lifted(matrix_action(THETA3, matrix_action(p1, X)))
    rhs = OperatorSpec(4).apply(lifted(matrix_action(THETA3, X)))
    assert np.max(np.linalg.norm(lhs - rhs, axis=0)) < 1e-12

    # audit: the quoted first matrix differs from the oracle at entry (3, 2)
    assert not mat_close(p1, PRODUCT_G1_QUOTED, 1e-6)
    X = stacked(VectorPoly([TaylorPoly([0], cap), TaylorPoly([1], cap), TaylorPoly([0], cap)]))
    bad = lifted(matrix_action(THETA3, matrix_action(PRODUCT_G1_QUOTED, X)))
    good = OperatorSpec(4).apply(lifted(matrix_action(THETA3, X)))
    assert np.linalg.norm(bad - good) > 0.5


@pytest.mark.xfail(
    strict=True,
    reason="quoted product matrix for the gamma=1 condition carries z^2 at "
    "entry (3,2); exact convolution, circle sampling and the lift "
    "correspondence all give z.  Kept as a strict expected failure so the "
    "discrepancy stays visible.",
)
def test_arity3_diagonal_quoted_first_product():
    p1 = _product_matrix(THETA3, 3, 1, 1)
    assert mat_close(p1, PRODUCT_G1_QUOTED, 1e-12)


# -- criterion 9: the two monomial semigroup audits ---------------------------

def test_monomial_semigroup_audit():
    cap = 48
    M1 = MonomialSubspace((2, 3), cap, label="M1")
    M2 = MonomialSubspace((3, 5), cap, label="M2")

    assert check_invariance(M1, OperatorSpec(2)).passed
    assert check_invariance(M1, OperatorSpec(3)).passed
    assert check_invariance(M1, OperatorSpec(1)).verdict == "FAIL"
    for k in (3, 5):
        assert check_invariance(M2, OperatorSpec(k)).passed
    for k in (1, 2, 4, 7):
        assert check_invariance(M2, OperatorSpec(k)).verdict == "FAIL"

    # near-invariance verdicts are whatever the definition-based check
    # computes; the quoted claims do not survive it, and the witnesses are
    # emitted (z^3 -> z for the square shift on M1)
    rep = check_near_invariance(M1, OperatorSpec(2, True))
    assert rep.verdict == "FAIL"
    assert rep.witness.element == 3 and rep.witness.image == 1
    rep = check_near_invariance(M1, OperatorSpec(3, True))
    assert rep.verdict == "FAIL" and rep.witness.element == 4
    rep = check_near_invariance(M1, OperatorSpec(1, True))
    assert rep.verdict == "FAIL"  # not nearly co-invariant for the plain shift
    for k, first_witness in ((3, 5), (5, 6)):
        rep = check_near_invariance(M2, OperatorSpec(k, True))
        assert rep.verdict == "FAIL" and rep.witness.element == first_witness

    # brute-force agreement: scan all monomials in the set
    exps = {int(e) for e in M1.exponents()}
    for k in (1, 2, 3):
        expected = all((e - k) in exps for e in exps if e >= k)
        assert check_near_invariance(M1, OperatorSpec(k, True)).passed == expected


# -- criterion 10: product-of-automorphisms suite -----------------------------

def test_blaschke_suite(rng):
    cap = 64
    # monomial product: lift after coordinates is the identity on P_64
    Bz2 = BlaschkeProduct(1.0, [0, 0])
    Wz2 = build_wold_frame(Bz2, cap, depth=33)
    probes = [monomial(d, cap) for d in range(cap + 1)]
    probes += [random_taylor(rng, cap, cap) for _ in range(5)]
    for f in probes:
        F, resid = u_apply(f, Wz2)
        assert resid < 1e-12
        assert sub(t_m_apply(F), f).norm() < 1e-12

    B = BlaschkeProduct(1.0, [0, 0.5])
    # boundary unimodularity of the degree-64 expansion at 128 samples
    vals = np.polynomial.polynomial.polyval(np.exp(2j * np.pi * np.arange(128) / 128),
                                            taylor_expand(B, cap))
    assert np.max(np.abs(np.abs(vals) - 1)) < 1e-9

    # unitarity on the covered band: Gram agreement before/after coordinates
    W = build_wold_frame(B, cap, depth=28)
    band = [monomial(d, cap) for d in range(25)]
    imgs = [u_apply(f, W)[0] for f in band]
    from hardyshift.veclift import vec_inner

    gram_before = np.array([[inner_product(a, b) for b in band] for a in band])
    gram_after = np.array([[vec_inner(a, b) for b in imgs] for a in imgs])
    assert np.max(np.abs(gram_before - gram_after)) < 1e-8

    # conjugation residuals at depth 28, on the layer matrix
    f = random_taylor(rng, 12, cap)
    X = np.column_stack([TaylorPoly([1], cap).padded(cap + 1), f.padded(cap + 1) / f.norm()])
    for n in (1, 2):
        assert conjugation_residuals(B, n, X, W).max() < 1e-8

    # verdict transfer on 20 random capped subspaces, n in {1, 2}
    for case in range(20):
        gens = [random_taylor(rng, 10, cap) for _ in range(2 + case % 2)]
        M = orthonormalize(stacked(*gens), label=f"R{case}")
        N = transfer_subspace(M, W)
        for n in (1, 2):
            direct = check_invariance(M, OperatorSpec(n, False, B))
            moved = check_invariance(N, OperatorSpec(2 * n))
            assert direct.verdict == moved.verdict
            near_direct = check_near_invariance(
                M, OperatorSpec(n, True, B))
            near_moved = check_near_invariance(N, OperatorSpec(2 * n, True))
            assert near_direct.verdict == near_moved.verdict


# -- criterion 11: the property suites run at 200+ cases ----------------------

def test_property_suites_configured():
    import test_properties as props

    suites = [
        props.test_shift_adjointness,
        props.test_gram_schmidt_orthonormality,
        props.test_projection_idempotent_and_orthogonal,
        props.test_hitt_reconstruction_and_parseval,
        props.test_pipeline_verdicts_stable_under_unitary_factor,
    ]
    for fn in suites:
        assert fn._hypothesis_internal_use_settings.max_examples >= 200
