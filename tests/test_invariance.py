import re

import numpy as np
import pytest

from hardyshift import invariance
from hardyshift import (BlaschkeProduct, BudgetExceeded, DimensionMismatch, MonomialSubspace,
                        SpanSubspace,
                        OperatorSpec, ParamOutOfRange,
                        build_model_space, build_theta_range, check_invariance,
                        check_near_invariance, diag_polys, from_poly_grid,
                        TaylorPoly, identity, orthonormalize, project,
                        verify_theorem_multi)

from conftest import model_space_frame, monomial, stacked

CAP = 48

M1 = MonomialSubspace((2, 3), CAP, label="M1")
M2 = MonomialSubspace((3, 5), CAP, label="M2")


def test_monomial_invariance_audit():
    assert check_invariance(M1, OperatorSpec(2)).passed
    assert check_invariance(M1, OperatorSpec(3)).passed
    rep = check_invariance(M1, OperatorSpec(1))
    assert rep.verdict == "FAIL"
    assert rep.witness.element == 0 and rep.witness.image == 1

    for k in (3, 5):
        assert check_invariance(M2, OperatorSpec(k)).passed
    for k in (1, 2, 4, 7):
        assert check_invariance(M2, OperatorSpec(k)).verdict == "FAIL"


def test_monomial_near_invariance_definition_based():
    # the definition-based check FAILs; z^3 is the first witness for (S^2)*
    rep = check_near_invariance(M1, OperatorSpec(2, True))
    assert rep.verdict == "FAIL"
    assert rep.witness.element == 3 and rep.witness.image == 1
    # accepting the isometry spec gives the same verdict
    rep2 = check_near_invariance(M1, OperatorSpec(2))
    assert rep2.verdict == "FAIL" and rep2.witness.element == 3

    rep = check_near_invariance(M2, OperatorSpec(3, True))
    assert rep.verdict == "FAIL" and rep.witness.element == 5


def test_monomial_near_invariance_brute_force_agreement():
    # oracle: scan every monomial in the set directly
    for M in (M1, M2):
        exps = set(int(e) for e in M.exponents())
        for k in (1, 2, 3, 4, 5):
            expected = all((e - k) in exps for e in exps if e >= k)
            rep = check_near_invariance(M, OperatorSpec(k, True))
            assert rep.passed == expected


def test_monomial_untested_band_and_budget():
    small = MonomialSubspace((1,), 4, label="small")
    rep = check_invariance(small, OperatorSpec(2))
    assert rep.passed and rep.untested
    with pytest.raises(BudgetExceeded):
        check_invariance(small, OperatorSpec(99))


def test_span_beurling_space_invariant():
    # capped model of z^2 H^2
    gens = [monomial(j, CAP) for j in range(2, CAP + 1)]
    M = orthonormalize(stacked(*gens), label="z2H2")
    for k in (1, 2, 3, 5):
        rep = check_invariance(M, OperatorSpec(k))
        assert rep.passed
        assert rep.untested  # the top band is excluded, and said so


def test_span_column_multiple_fails_s_with_witness():
    # capped span of (1 + 2z) f(z^2): orthonormal generators by construction
    gens = [TaylorPoly([0] * (2 * j) + [5 ** -0.5, 2 * 5 ** -0.5], CAP)
            for j in range((CAP - 1) // 2 + 1)]
    M = orthonormalize(stacked(*gens), label="(1+2z)f(z2)")
    rep = check_invariance(M, OperatorSpec(1))
    assert rep.verdict == "FAIL"
    # residual of the first failing image is sqrt(17)/5
    assert rep.witness.residual == pytest.approx(np.sqrt(17) / 5, rel=1e-9)
    assert check_invariance(M, OperatorSpec(2)).passed


def test_span_near_invariance_worked_example():
    M = orthonormalize(stacked(TaylorPoly([1, 1], CAP), TaylorPoly([0, 0, 1, 1], CAP)),
                       label="span{1+z, z2(1+z)}")
    assert check_near_invariance(M, OperatorSpec(2, True)).passed
    assert check_near_invariance(M, OperatorSpec(3, True)).passed
    rep = check_near_invariance(M, OperatorSpec(1, True))
    assert rep.verdict == "FAIL"
    # witness is the intersection frame vector z^2(1+z), normalized, as
    # one block of cap+1 coefficients
    w = rep.witness.element
    assert w.shape == (1, CAP + 1)
    want = np.zeros(CAP + 1)
    want[2:4] = 1 / np.sqrt(2)
    assert min(np.linalg.norm(w[0] - want), np.linalg.norm(w[0] + want)) < 1e-10


def test_invariant_implies_nearly_invariant_for_adjoint(rng):
    # monomial case: whenever S^k leaves the set invariant, the definition
    # check for near (S^k)*-invariance can only fail on exponents whose
    # down-shift already witnesses an invariance failure; for semigroups
    # containing their generators both verdicts agree on PASS cases.
    M = MonomialSubspace((1,), 30, label="full")
    for k in (1, 2, 3):
        assert check_invariance(M, OperatorSpec(k)).passed
        assert check_near_invariance(M, OperatorSpec(k, True)).passed


def test_build_theta_range_even_exponents():
    theta = from_poly_grid([[[0, 0, 1]], [[0]]])  # (z^2, 0)^T
    M = build_theta_range(theta, 2, CAP)
    assert M.dim > 0
    for u in M.frame_matrix().T:
        nz = np.flatnonzero(u)
        assert all(int(i) % 2 == 0 and int(i) >= 4 for i in nz)
    assert project(monomial(4, CAP).padded(CAP + 1), M).residual < 1e-10
    assert project(monomial(6, CAP).padded(CAP + 1), M).residual < 1e-10
    assert project(monomial(2, CAP).padded(CAP + 1), M).residual > 0.9


def test_build_theta_range_full_space():
    M = build_theta_range(identity(2), 2, 15)
    assert M.dim == 16  # all degrees 0..15
    assert project(monomial(7, 15).padded(16), M).residual < 1e-10


def test_build_theta_range_column_multiple():
    theta = from_poly_grid([[[5 ** -0.5]], [[2 * 5 ** -0.5]]])
    M = build_theta_range(theta, 2, CAP)
    f = TaylorPoly([1, 2, 0, 0, 3, 6], CAP)  # (1 + 2z)(1 + 3 z^4): pattern holds
    assert project(f.padded(CAP + 1), M).residual < 1e-10
    assert project(TaylorPoly([1, 1], CAP).padded(CAP + 1), M).residual > 0.1


def test_build_model_space_examples():
    theta = from_poly_grid([[[0, 0, 1]], [[0]]])  # (z^2, 0)^T
    N = model_space_frame(theta, 2, CAP)
    assert project(monomial(0, CAP).padded(CAP + 1), N).residual < 1e-10
    assert project(monomial(2, CAP).padded(CAP + 1), N).residual < 1e-10
    assert project(monomial(1, CAP).padded(CAP + 1), N).residual < 1e-10  # odd lift of (0, f)
    assert project(monomial(4, CAP).padded(CAP + 1), N).residual > 0.9
    # a column keeps the complement of K_Θ instead: z^4 lies in it, 1 does not
    Q = build_model_space(theta, 2, CAP).complement
    assert project(monomial(4, CAP).padded(CAP + 1), Q).residual < 1e-10
    assert project(monomial(0, CAP).padded(CAP + 1), Q).residual > 0.9

    assert build_model_space(identity(3), 3, CAP).dim == 0

    theta3 = diag_polys([[1], [0, 1], [0, 1]])
    N3 = build_model_space(theta3, 3, CAP)
    assert N3.dim == 2
    assert project(monomial(1, CAP).padded(CAP + 1), N3).residual < 1e-10
    assert project(monomial(2, CAP).padded(CAP + 1), N3).residual < 1e-10


def test_pipeline_family_passes():
    # diag(z^(k+1), z^k) with k = 1
    theta = diag_polys([[0, 0, 1], [0, 1]])
    rep = verify_theorem_multi(theta, 2, [(1, 1)], CAP)
    assert rep.passed, [(s.name, s.verdict) for s in rep.stages]


@pytest.mark.parametrize("conditions, match", [
    ([(0, 1)], "gamma must be in 1..1, got 0"),
    ([(2, 1)], "gamma must be in 1..1, got 2"),
    ([(1, 1), (1, 0)], "k must be >= 1, got 0"),
    ([], "at least one"),
    # a bool or a float is refused, not truncated to an integer
    ([(1.9, 1)], "m, gamma and k must be integers, got 2, 1.9, 1"),
    ([(True, True)], "m, gamma and k must be integers, got 2, True, True"),
    ([(1, 1.0)], "m, gamma and k must be integers, got 2, 1, 1.0"),
])
def test_bad_conditions_refused_before_any_frame(monkeypatch, conditions, match):
    def no_frame(*args, **kwargs):
        raise AssertionError("a frame was built")

    monkeypatch.setattr(invariance, "build_theta_range", no_frame)
    monkeypatch.setattr(invariance, "build_model_space", no_frame)
    theta = diag_polys([[0, 0, 1], [0, 1]])
    with pytest.raises(ParamOutOfRange, match=re.escape(match)):
        verify_theorem_multi(theta, 2, conditions, CAP)


def test_numpy_integer_conditions_give_the_python_integer_report():
    theta = diag_polys([[1], [0, 1]])
    want = verify_theorem_multi(theta, 2, [(1, 1)], CAP)
    got = verify_theorem_multi(theta, np.int64(2), [(np.int32(1), np.int64(1))], CAP)
    assert [(s.name, s.verdict) for s in got.stages] == [(s.name, s.verdict) for s in want.stages]
    assert got.verdict == "PASS"


@pytest.mark.parametrize("power", [True, False, 1.5, 2.0, "2", None])
def test_operator_power_must_be_an_integer(power):
    for star in (False, True):
        with pytest.raises(ParamOutOfRange, match="operator power must be an integer >= 1"):
            OperatorSpec(power, star)


def test_operator_power_accepts_numpy_integers():
    assert OperatorSpec(np.int64(2), True).describe() == "(S^2)*"


B_ORIGIN = BlaschkeProduct(1j, [0, 0])  # i·z², a pure monomial symbol
B_OFF = BlaschkeProduct(1.0, [0, 0.5])


# each kind of operator by its fields besides the power: star, and whether it has a symbol B
KINDS = {"shift": (False, False), "coshift": (True, False),
         "toeplitz": (False, True), "toeplitz_adjoint": (True, True)}
FULL = MonomialSubspace((1,), CAP)  # every exponent 0..cap


@pytest.mark.parametrize("kind, power, text, gain, order, off_order, partner", [
    ("shift", 1, "S^1", 1, 1, 1, "coshift"),
    ("shift", 3, "S^3", 3, 3, 3, "coshift"),
    ("coshift", 1, "(S^1)*", 0, 1, 1, "shift"),
    ("coshift", 3, "(S^3)*", 0, 3, 3, "shift"),
    ("toeplitz", 1, "T_B", 2, 2, None, "toeplitz_adjoint"),
    ("toeplitz", 3, "T_B^3", 6, 6, None, "toeplitz_adjoint"),
    ("toeplitz_adjoint", 1, "(T_B)*", 0, 2, None, "toeplitz"),
    ("toeplitz_adjoint", 3, "(T_B^3)*", 0, 6, None, "toeplitz"),
])
def test_operator_constructors_fix_their_structure(kind, power, text, gain, order, off_order,
                                                   partner):
    # the order is power * deg B whatever the zeros of B; the isometric
    # direction adds it to a degree (gain), and a monomial model reads it
    # only when every zero of B sits at the origin (off_order None: refused)
    for B, monomial_order in ((B_ORIGIN, order), (B_OFF, off_order)):
        def make(kind):
            star, symbolic = KINDS[kind]
            return OperatorSpec(power, star, B if symbolic else None)

        op = make(kind)
        assert op.describe() == text
        assert op.order == order
        assert op == make(kind) != make(partner) == OperatorSpec(power, not op.star, op.blaschke)
        if monomial_order is None:
            for check in (check_invariance, check_near_invariance):
                with pytest.raises(DimensionMismatch, match="shift-type operators only"):
                    check(FULL, op)
            continue
        assert check_invariance(FULL, op).tested == CAP + 1 - gain
        assert check_near_invariance(FULL, op).tested == CAP + 1 - monomial_order


def test_pipeline_analyticity_failure():
    # diag(z^(k+3), z^k) with k = 1: outside the analyticity window
    theta = diag_polys([[0, 0, 0, 0, 1], [0, 1]])
    rep = verify_theorem_multi(theta, 2, [(1, 1)], CAP)
    assert not rep.passed
    assert rep.stage("product_analytic_gamma1_k1").verdict == "FAIL"
    assert rep.stage("theta_inner").verdict == "PASS"


def test_pipeline_multi_condition():
    theta3 = diag_polys([[1], [0, 1], [0, 1]])
    rep = verify_theorem_multi(theta3, 3, [(1, 1), (2, 1)], CAP)
    assert rep.passed, [(s.name, s.verdict) for s in rep.stages]
    assert len(rep.products) == 2


def test_pipeline_verdict_unitary_stability(rng):
    # right-multiplying by a constant unitary must not change any verdict
    theta = diag_polys([[0, 0, 1], [0, 1]])
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    qmat = from_poly_grid([[[q[0, 0]], [q[0, 1]]], [[q[1, 0]], [q[1, 1]]]])
    from hardyshift import matmul

    rep1 = verify_theorem_multi(theta, 2, [(1, 1)], CAP)
    rep2 = verify_theorem_multi(matmul(theta, qmat), 2, [(1, 1)], CAP)
    assert [(s.name, s.verdict) for s in rep1.stages] == \
        [(s.name, s.verdict) for s in rep2.stages]


def test_invariance_versus_near_invariance_divergence():
    # shift invariance restricted to images of the set always survives the
    # adjoint (left inverse), but the definition-based near-invariance
    # check quantifies over the full operator range intersection, which is
    # strictly larger: the capped Beurling-type span shows the divergence,
    # and every FAIL witness lies outside the operator image of the span
    gens = [monomial(j, CAP) for j in range(2, CAP + 1)]
    M = orthonormalize(stacked(*gens), label="z2H2")
    for k in (1, 2, 3):
        assert check_invariance(M, OperatorSpec(k)).passed
    rep = check_near_invariance(M, OperatorSpec(1, True))
    assert rep.verdict == "FAIL"
    # witness is in the span and in the shift range, but not a shifted member
    w = TaylorPoly(rep.witness.element[0], CAP)
    assert project(w.padded(CAP + 1), M).residual < 1e-10
    assert abs(w.coeffs[0]) < 1e-10
    shifted_members = orthonormalize(
        stacked(*(monomial(j, CAP) for j in range(3, CAP + 1))), label="S(z2H2)")
    assert project(w.padded(CAP + 1), shifted_members).residual > 1e-2


def _range_generators_by_shift(theta, cap):
    """Reference: every shift j of every entry written out one at a time."""
    n = cap + 1
    live = [c for c in range(theta.cols) if np.any(theta.table[:, c])]
    wide = max(cap, theta.max_pow)
    out = np.zeros((theta.rows, n, len(live), n), dtype=np.complex128)
    for c, col in enumerate(live):
        for i in range(theta.rows):
            coefs = np.zeros(wide + 1, dtype=np.complex128)  # the analytic entry
            coefs[theta.min_pow: theta.max_pow + 1] = theta.table[i, col]
            coefs = coefs[:n]
            for j in range(n):
                out[i, j:, c, j] = coefs[: n - j]
    return out.reshape(theta.rows * n, len(live) * n)


@pytest.mark.parametrize("cap", [0, 3, 16])
def test_range_generators_equal_the_shift_loop(rng, cap):
    from hardyshift.invariance import range_generators
    from hardyshift.laurent import LaurentMatrix

    table = rng.standard_normal((3, 4, 6)) + 1j * rng.standard_normal((3, 4, 6))
    table[:, 1] = 0  # a zero column is not a generator
    table[2, 3] = 0  # a zero entry
    for theta in (LaurentMatrix(3, 4, 0, table), LaurentMatrix(3, 4, 14, table),
                  from_poly_grid([[[1, 0, 0, 0.5]], [[0, 1]]])):
        got = range_generators(theta, cap)
        assert np.array_equal(got, _range_generators_by_shift(theta, cap))


@pytest.mark.parametrize("cap", [6, 24])
def test_builders_ignore_negative_power_dust_within_tolerance(cap):
    # coefficients from z^-2 up: dust at z^-2 and z^-1 within the
    # analyticity tolerance, and a column of dust only (a zero column)
    dusty = [[[0, 1e-12, 1, 0.5], [3e-12, 2e-12, 0, 0]],
             [[1e-13, 0, 0, 0.3], [0, 1e-13, 0, 0]]]
    clean = [[[0, 0, *e[2:]] for e in row] for row in dusty]
    for cols in (slice(0, 1), slice(0, 2)):
        theta = from_poly_grid([row[cols] for row in clean], -2)
        dusted = from_poly_grid([row[cols] for row in dusty], -2)
        assert dusted.min_pow == -2 and theta.min_pow == 0
        want = build_theta_range(theta, 2, cap)
        got = build_theta_range(dusted, 2, cap, analytic_tol=1e-10)
        assert np.array_equal(got.frame_matrix(), want.frame_matrix())
        assert (got.label, got.effective_band) == (want.label, want.effective_band)
        want = build_model_space(theta, 2, cap)
        got = build_model_space(dusted, 2, cap, analytic_tol=1e-10)
        assert np.array_equal(got.complement.matrix, want.complement.matrix)
        assert (got.label, got.n) == (want.label, want.n)


@pytest.mark.parametrize("min_pow", [2 ** 62, 10 ** 20])
def test_builders_take_powers_of_any_size(min_pow):
    # Θ = z^min_pow (1, 0)^T: the lift degree 2·min_pow must not wrap
    # around in fixed-width integers and pass as an empty range
    theta = from_poly_grid([[[1]], [[0]]], min_pow)
    with pytest.raises(BudgetExceeded, match="cannot host a single column lift"):
        build_theta_range(theta, 2, 16)
    # dust at z^-min_pow only: Θ has no analytic part and acts as 0
    dust = from_poly_grid([[[1e-12]], [[0]]], -min_pow)
    zero = from_poly_grid([[[0]], [[0]]])
    got, want = build_theta_range(dust, 2, 16, analytic_tol=1e-10), build_theta_range(zero, 2, 16)
    assert np.array_equal(got.frame_matrix(), want.frame_matrix())
    got, want = build_model_space(dust, 2, 16, analytic_tol=1e-10), build_model_space(zero, 2, 16)
    assert np.array_equal(got.complement.matrix, want.complement.matrix)


def dense_effective_degree(M, gain, tol):
    """The whole-frame formula of the effective degree, kept and clipped frame vectors."""
    blocks = M.frame_matrix().reshape(M.arity, M.cap + 1, M.dim)
    tail = np.cumsum(np.abs(blocks[:, ::-1]) ** 2, axis=1)[:, ::-1]
    eff = np.sum(tail > (0.25 * tol) ** 2, axis=1).max(axis=0) - 1
    keep = eff + gain <= M.effective_band
    below = np.arange(M.cap + 1)[:, None] <= eff[keep]
    return eff, keep, np.where(below, blocks[:, :, keep], 0).reshape(len(M.matrix), -1)


@pytest.mark.parametrize("width", [4, None])
@pytest.mark.parametrize("arity", [1, 2])
def test_effective_degree_on_windows_is_the_whole_frame_formula(monkeypatch, rng, arity, width):
    # each component block: a support of random length (at most width) anywhere,
    # a tail of dust below tol/4, zero columns and zero blocks; one column ends
    # on the cap, and one is dust only
    cap, dim, tol = 60, 40, 1e-10
    blocks = np.zeros((arity, cap + 1, dim), dtype=complex)
    for j in range(2, dim):
        for c in range(arity):
            if rng.random() < 0.2:
                continue
            a = int(rng.integers(0, cap + 1))
            b = cap + 1 if j == dim - 1 else int(rng.integers(a, cap + 2))
            t = int(rng.integers(b, cap + 2))
            if width:
                a, b, t = max(a, t - width), max(b, t - width // 2), t
            blocks[c, a:t, j] = rng.standard_normal(t - a) + 1j * rng.standard_normal(t - a)
            blocks[c, b:t, j] *= 1e-12  # the dust, below tol/4
    blocks[:, 49:52, 1] = 1e-12  # dust only, high up: no effective degree, so it is kept
    M = SpanSubspace(blocks.reshape(arity * (cap + 1), dim), cap, arity, band=50)
    # M is no frame, so each check is let pass: its report lists every excluded vector
    clipped = []
    monkeypatch.setattr(invariance, "_first_failure", lambda M, op, X, tol: clipped.append(X))
    for gain in (1, 7):
        eff, keep, X = dense_effective_degree(M, gain, tol)
        assert 0 < np.count_nonzero(keep) < dim and keep[1]
        rep = check_invariance(M, OperatorSpec(gain), tol)
        assert clipped[-1].tobytes() == X.tobytes() and clipped[-1].shape == X.shape
        assert clipped[-1].flags.c_contiguous  # as the whole-frame formula leaves it
        assert rep.untested == tuple(f"frame[{i}] (support {eff[i]}) excluded: image exceeds "
                                     f"band 50" for i in np.flatnonzero(~keep))
