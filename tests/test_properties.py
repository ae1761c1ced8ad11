"""Property suites over randomized inputs (200+ cases each)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hardyshift import (NoConvergence, TaylorPoly, build_j_map, coshift_pow, diag_polys,
                        from_poly_grid, inner_product, matmul, mul,
                        orthonormalize, project, shift_pow, verify_theorem_multi)
from hardyshift.series import sub

from conftest import stacked

CAP = 64

finite = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False,
                   allow_infinity=False)


def complexes(max_len, min_len=1):
    return st.lists(st.tuples(finite, finite), min_size=min_len,
                    max_size=max_len).map(
        lambda pairs: np.array([complex(a, b) for a, b in pairs]))


@settings(max_examples=200, deadline=None)
@given(complexes(12), complexes(12), st.integers(min_value=0, max_value=8))
def test_shift_adjointness(fc, gc, k):
    f = TaylorPoly(fc, CAP)
    g = TaylorPoly(gc, CAP)
    lhs = inner_product(shift_pow(f, k), g)
    rhs = inner_product(f, coshift_pow(g, k))
    assert abs(lhs - rhs) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(complexes(10), min_size=1, max_size=5),
       st.integers(min_value=0, max_value=4))
# tiny magnitudes: unscaled norms lose accuracy to subnormal underflow
@example(coeff_lists=[np.array([4.29977152e-160j])], dup_index=0)
def test_gram_schmidt_orthonormality(coeff_lists, dup_index):
    gens = [TaylorPoly(c, CAP) for c in coeff_lists]
    if gens and dup_index < len(gens):
        gens.append(TaylorPoly(2 * coeff_lists[dup_index], CAP))  # forced rank drop
    M = orthonormalize(stacked(*gens))
    assert M.dim + len(M.dropped) == len(gens)
    frame = [TaylorPoly(c, CAP) for c in M.frame_matrix().T]
    for i, u in enumerate(frame):
        for j, v in enumerate(frame):
            want = 1.0 if i == j else 0.0
            assert abs(inner_product(u, v) - want) < 1e-10


@settings(max_examples=200, deadline=None)
@given(st.lists(complexes(10), min_size=1, max_size=4), complexes(14))
def test_projection_idempotent_and_orthogonal(coeff_lists, fc):
    M = orthonormalize(stacked(*(TaylorPoly(c, CAP) for c in coeff_lists)))
    f = TaylorPoly(fc, CAP)
    p1, r1, _ = project(f.padded(CAP + 1), M)
    p2, r2, _ = project(p1, M)
    p1, p2 = TaylorPoly(p1, CAP), TaylorPoly(p2, CAP)
    assert sub(p2, p1).norm() < 1e-12
    assert p1.norm() <= f.norm() + 1e-12
    for u in M.frame_matrix().T:
        assert abs(inner_product(sub(f, p1), TaylorPoly(u, CAP))) < 1e-10


def _compose_zm(coeffs, m):
    out = np.zeros(m * (len(coeffs) - 1) + 1, dtype=complex)
    out[::m] = coeffs
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=3),
       complexes(2),
       st.lists(complexes(5), min_size=1, max_size=3))
@example(m=2, head=np.array([1.67559365e-80j]), g_lists=[np.array([1.67559365e-80j])])
# a generator small beside the largest still spans its own direction
@example(m=2, head=np.array([0j]), g_lists=[np.array([1j, 0, 2.0 ** -24 * 1j])])
@example(m=2, head=np.array([0j]),
         g_lists=[np.array([1j]), np.array([0, 1j, 0, 2.0 ** -24 * 1j])])
@example(m=2, head=np.array([0j]), g_lists=[np.array([1j, 0, 1e-8j, 3.32506008e-11j])])
@example(m=2, head=np.array([0j]), g_lists=[np.array([1j, 0.125j, 1.35519516e-04j])])
# ... and is normalized at its own scale, clear of subnormal underflow
@example(m=2, head=np.array([0j]),
         g_lists=[np.array([1.12175858e-160j]), np.array([1j])])
@example(m=2, head=np.array([0j]),
         g_lists=[np.array([2.22507386e-313j]), np.array([2.97986513e-154j])])
# a direction kept with little of its norm left: its frame vector is made in
# extended precision, and the span decides rank no finer than the rounding
# of its generators moves that direction
@example(m=2, head=np.array([1j, 0.65625 + 0.25j]),
         g_lists=[np.array([0, 4j, 1e-8j]), np.array([1j, 1j])])
@example(m=2, head=np.array([1j, 1.65625j]),
         g_lists=[np.array([0, 1j]), np.array([0, 3j, 1e-8j])])
@example(m=2, head=np.array([1j, 0.75j]),
         g_lists=[np.array([0, 0.6875 + 1j, 2.5, 0.00390625])])
@example(m=2, head=np.array([1j, 0.75j]), g_lists=[np.array([0, 0, 1 + 2j, 0.00390625j])])
@example(m=2, head=np.array([1j, 1.5j]), g_lists=[np.array([0.25j, 1e-8j])])
@example(m=2, head=np.array([1.5j, 1j]),
         g_lists=[np.array([1j]), np.array([2j, 2.0 ** -24 * 1j])])
@example(m=2, head=np.array([2j, 2.5j]),
         g_lists=[np.array([0.5j, 1e-8j]), np.array([1j])])
@example(m=2, head=np.array([2j, 1.625j]),
         g_lists=[np.array([1.5j]), np.array([2j, 1.40326959e-07j])])
@example(m=2, head=np.array([1j, 1.5j]), g_lists=[np.array([1j, 1e-8j]), np.array([1j])])
@example(m=2, head=np.array([1j, 1.5j]),
         g_lists=[np.array([1j]), np.array([0, 3j, 0, 4j, 0.0390625j])])
@example(m=2, head=np.array([2j, 3.25]),
         g_lists=[np.array([2.5, 1.1920929e-07j]), np.array([1j])])
@example(m=2, head=np.array([1j, 1.25j]),
         g_lists=[np.array([1.767983154924491j, 0.03125j]),
                  np.array([0, 0, 2j, 2 + 3j, 0.046875j])])
# a direction whose rounding, EPS/r, would swamp the r that dropping it costs
@example(m=2, head=np.array([1j, 1.25j]), g_lists=[np.array([0.5j, 5.4541902e-10j])])
@example(m=2, head=np.array([1j, 0.96218527j]),
         g_lists=[np.array([0, 0, 2.75j, 0.00390625j])])
@example(m=2, head=np.array([3.375j, 0.96218527j]),
         g_lists=[np.array([0, 3.41015625j, 4j, 1.48694212e-08j]),
                  np.array([0, 4j, -1.5j])])
# a remainder of norm exactly tol is peeled, not left in the error
@example(m=2, head=np.array([0j]), g_lists=[np.array([1e-8j, 1j])])
@example(m=2, head=np.array([0j]), g_lists=[np.array([1j, 0, 1e-8j])])
# spans at the rank threshold that decompose faithfully
@example(m=2, head=np.array([1j, 1.5j]),
         g_lists=[np.array([1j]), np.array([1j, 2.0 ** -24 * 1j])])
@example(m=2, head=np.array([1j, 1j]), g_lists=[np.array([1j, 1e-8j]), np.array([1j])])
@example(m=2, head=np.array([1j, 1j]), g_lists=[np.array([1e-8j, 1j])])
@example(m=2, head=np.array([1 + 1j]), g_lists=[np.array([1e-8j, 1j])])
def test_hitt_reconstruction_and_parseval(m, head, g_lists):
    # span{g(z^m) e(z) : g in K} with deg(e) < m and K closed under the
    # backward shift is nearly co-invariant at arity m, so decomposition
    # must succeed with faithful accounting
    e = TaylorPoly(head[:m], CAP)
    if e.deg() < 0:
        e = TaylorPoly([1.0], CAP)
    gens = []
    for g in g_lists:
        for t in range(len(g)):  # close the coordinate span under S*
            tail = g[t:]
            if np.any(tail):
                gens.append(mul(TaylorPoly(_compose_zm(tail, m), CAP), e))
    if not gens:
        return
    M = orthonormalize(stacked(*gens))
    if M.dim == 0:
        return
    res = build_j_map(M, m)
    assert res.isometry_gap < 1e-8
    assert np.all(res.reconstruction_errors < 1e-8)
    assert np.all(res.parseval_gaps < 1e-8)
    assert res.costable.passed


# A known defect of the rank decision: span{z^4 + e z^8, z^2 + e z^6,
# 1 + e z^4, e z^2, e} has dimension 5, but orthonormalize drops the
# direction that costs about e^2, and the J-map space then fails the
# co-shift check at residual e.  Hypothesis draws these chains only on a
# few seeds (80 and 87 of seed_sweep.py); here they run every time.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the span's rank decision drops a chain direction")
@pytest.mark.parametrize("e", [1.1920929e-7, 1e-5])
def test_hitt_reconstruction_and_parseval_on_chains(e):
    test_hitt_reconstruction_and_parseval.hypothesis.inner_test(
        m=2, head=np.array([0j]), g_lists=[np.array([0, 0, 1j, 0, e * 1j])])


@settings(max_examples=200, deadline=None)
@given(st.lists(complexes(6), min_size=1, max_size=3))
@example(coeff_lists=[np.array([1j]), np.array([0, 8.97490639e-161j])])
def test_hitt_random_spans_never_silently_corrupt(coeff_lists):
    # arbitrary spans either decompose faithfully or raise the convergence
    # flag; a quiet wrong answer is the one forbidden outcome
    M = orthonormalize(stacked(*(TaylorPoly(c, CAP) for c in coeff_lists)))
    if M.dim == 0:
        return
    try:
        res = build_j_map(M, 2)
    except NoConvergence:
        return
    assert np.all(res.reconstruction_errors < 1e-8)
    assert np.all(res.parseval_gaps < 1e-8)


THETA_FAMILIES = [
    ("diag(z,z)", [[0, 1], [0, 1]]),
    ("diag(z^2,z)", [[0, 0, 1], [0, 1]]),
    ("diag(z^3,z)", [[0, 0, 0, 1], [0, 1]]),
    ("diag(z,z^2)", [[0, 1], [0, 0, 1]]),
]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=3),
       st.tuples(finite, finite, finite, finite),
       st.tuples(finite, finite, finite, finite))
def test_pipeline_verdicts_stable_under_unitary_factor(idx, re_parts, im_parts):
    _, diag = THETA_FAMILIES[idx]
    theta = diag_polys(diag)
    a = np.array(re_parts).reshape(2, 2) + 1j * np.array(im_parts).reshape(2, 2)
    a = a + 0.1 * np.eye(2)  # keep the QR factor well defined
    q, _ = np.linalg.qr(a)
    qmat = from_poly_grid([[[q[0, 0]], [q[0, 1]]], [[q[1, 0]], [q[1, 1]]]])
    base = verify_theorem_multi(theta, 2, [(1, 1)], 24)
    turned = verify_theorem_multi(matmul(theta, qmat), 2, [(1, 1)], 24)
    assert [(s.name, s.verdict) for s in base.stages] == \
        [(s.name, s.verdict) for s in turned.stages]
