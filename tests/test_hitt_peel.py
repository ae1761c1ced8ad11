"""The column peel of build_j_map against a one-vector reference loop.

The reference is the element-at-a-time recursion, written out here with
its own arithmetic on coefficient arrays: for one element, check
membership, then peel f_j = A(j)·E + z^m f_{j+1} with one ``np.vdot`` per
active kernel entry, the update summed in active-index order, the head
mass tested and the remainder co-shifted; then rebuild f from the rows,
with the part of z^(ml) E_i past the cap cut and counted.  The column
peel computes the same quantities as block products on one working
matrix, so it must agree with the reference on every frame vector up to
a stated bound (``BOUND``, absolute) on rows, residuals, reconstruction
errors and Parseval gaps, with identical shapes and iteration counts, and
raise the same error, with the same message, as the first failing vector
in frame order.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from hardyshift import (HardyShiftError, KernelColumn, NoConvergence, NotAMember,
                        ParamOutOfRange, build_j_map, extract_kernels, hitt_decompose,
                        TaylorPoly, orthonormalize)
from hardyshift.hitt import _peel
from hardyshift.subspaces import SpanSubspace

from conftest import stacked

CAP = 72
TOL = 1e-8
# Rounding differs from the reference (block products against one vdot
# per coordinate); the largest differences seen are about 2e-16.
BOUND = 1e-13


@dataclass
class Ref:
    rows: np.ndarray
    iterations: int
    residual: float
    reconstruction_error: float
    parseval_gap: float


class RefError(Exception):
    def __init__(self, kind, message, value):
        super().__init__(message)
        self.kind, self.message, self.value = kind, message, value


def ref_decompose(v, M, E, m, max_iter=None, tol=TOL):
    """One element (its cap+1 coefficients v), one peel at a time."""
    n = M.cap + 1
    if max_iter is None:
        max_iter = M.cap // m + 2
    F = M.frame_matrix()
    residual = float(np.linalg.norm(v - F @ (F.conj().T @ v)))
    if not residual <= tol:
        raise RefError(NotAMember,
                       f"element lies outside the span (residual {residual:.3e} > {tol:g})",
                       None)
    active = E.active_indices
    rows, norms, fj = [], [], v
    for _ in range(max_iter + 1):
        nrm = math.sqrt(float(np.sum(np.abs(fj) ** 2)))
        norms.append(nrm)
        if nrm < tol or nrm == 0.0:
            break
        row = np.zeros(m, dtype=complex)
        x = np.zeros(n, dtype=complex)
        for i in active:
            e = E.entries[:n, i]
            c = complex(np.vdot(e, fj))
            row[i] = c
            x = x + e * c
        rows.append(row)
        rem = fj + x * complex(-1.0)
        head = float(np.linalg.norm(rem[:m]))
        if not head <= tol:
            raise RefError(NoConvergence,
                           f"peel {len(rows) - 1} left head mass {head:.3e} below degree {m}; "
                           "the span is not nearly co-invariant at this cap", head)
        fj = np.concatenate([rem[m:], np.zeros(m, dtype=complex)])
    else:
        raise RefError(NoConvergence,
                       f"no convergence after {max_iter} peels (residual {norms[-1]:.3e})",
                       norms[-1])
    A = np.array(rows) if rows else np.zeros((0, m), dtype=complex)
    recon = np.zeros(n, dtype=complex)
    cut = 0.0
    for l in range(A.shape[0]):
        keep = max(0, n - m * l)
        for i in active:
            if A[l, i] != 0:
                cut += abs(A[l, i]) * float(np.linalg.norm(E.entries[keep:, i]))
                shifted = np.zeros(n, dtype=complex)
                shifted[m * l:] = E.entries[:keep, i]
                recon = recon + shifted * complex(A[l, i])
    gap = math.sqrt(float(np.sum(np.abs(v + recon * complex(-1.0)) ** 2)))
    recon_err = math.hypot(gap, cut)
    if not (recon_err < tol or recon_err == 0.0):
        raise RefError(NoConvergence,
                       f"reconstruction residual {recon_err:.3e} is not below {tol:g}", recon_err)
    parseval = abs(float(np.sum(np.abs(v) ** 2)) - float(np.sum(np.abs(A) ** 2)))
    return Ref(A, A.shape[0], norms[-1], recon_err, parseval)


def assert_same(dec, ref):
    assert dec.rows.shape == ref.rows.shape
    assert dec.iterations == ref.iterations
    assert np.max(np.abs(dec.rows - ref.rows), initial=0.0) <= BOUND
    assert abs(dec.residual - ref.residual) <= BOUND
    assert abs(dec.reconstruction_error - ref.reconstruction_error) <= BOUND
    assert abs(dec.parseval_gap - ref.parseval_gap) <= BOUND


def ref_error(M, E, m, j, max_iter=None):
    """The reference's error for frame vector j, None if it decomposes."""
    try:
        ref_decompose(np.ascontiguousarray(M.frame_matrix()[:, j]), M, E, m, max_iter)
    except RefError as err:
        return err
    return None


def first_ref_error(M, E, m, max_iter=None):
    errors = (ref_error(M, E, m, j, max_iter) for j in range(M.dim))
    return next((err for err in errors if err is not None), None)


def assert_raises_like(ref_err, call):
    with pytest.raises(ref_err.kind) as got:
        call()
    assert str(got.value) == ref_err.message
    if ref_err.kind is NoConvergence:
        assert abs(got.value.residual - ref_err.value) <= BOUND


def power_span(rng, m, nq, dim, cap=CAP):
    """span{z^(ml) q_i} with generic q_i of degree below m."""
    gens = []
    for _ in range(nq):
        q = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        for l in range(dim // nq):
            gens.append(TaylorPoly(np.concatenate([np.zeros(m * l), q]), cap))
    return orthonormalize(stacked(*gens), label="M")


def span(*coeff_lists, cap=CAP):
    return orthonormalize(stacked(*(TaylorPoly(c, cap) for c in coeff_lists)))


@pytest.mark.parametrize("m, nq, dim", [(2, 1, 30), (3, 1, 20), (3, 2, 22), (2, 1, 36)])
def test_column_peel_matches_reference_on_power_spans(m, nq, dim):
    rng = np.random.default_rng(100 * m + 10 * nq + dim)
    M = power_span(rng, m, nq, dim)
    res = build_j_map(M, m)
    assert len(res.decompositions) == M.dim == dim
    for dec, v in zip(res.decompositions, M.frame_matrix().T):
        ref = ref_decompose(np.ascontiguousarray(v), M, res.kernel, m)
        assert_same(dec, ref)
    assert res.costable.passed


@pytest.mark.parametrize("gens", [
    ([1, 1], [0, 0, 1, 1]),            # demo's degenerate kernel
    ([1, 1, 1], [0, 1, 2]),            # demo's two_dim span
    ([1, 1], [0, 1, 1], [0, 0, 0, 1, 1]),
])
def test_column_peel_matches_reference_on_small_spans(gens):
    M = span(*gens)
    res = build_j_map(M, 2)
    for j, dec in enumerate(res.decompositions):
        ref = ref_decompose(np.ascontiguousarray(M.frame_matrix()[:, j]), M, res.kernel, 2)
        assert_same(dec, ref)
        assert_same(hitt_decompose(TaylorPoly(M.frame_matrix()[:, j], CAP), M, res.kernel), ref)


def test_column_peel_matches_reference_with_dust_past_the_cap():
    M = span(*([0] * (2 * l) + [1, 1] for l in range(CAP // 2)))
    E = extract_kernels(M, 2)
    dusty = E.entries.copy()
    dusty[CAP, 0] = 1e-37
    E = KernelColumn(dusty, E.degenerate, 2)
    V = np.ascontiguousarray(M.frame_matrix().T)
    decomps, _ = _peel(V, M, E, None, TOL)
    assert len(decomps) == M.dim
    for dec, v in zip(decomps, V):
        ref = ref_decompose(v, M, E, 2)
        assert_same(dec, ref)
        assert_same(hitt_decompose(TaylorPoly(v, CAP), M, E), ref)
    assert decomps[-1].reconstruction_error < 1e-12


def test_dimension_zero_span_has_no_decompositions():
    M = orthonormalize(stacked(TaylorPoly([0], CAP), TaylorPoly([0, 0], CAP)), label="zero_span")
    assert M.dim == 0
    res = build_j_map(M, 2)
    assert res.decompositions == ()
    assert res.space.dim == 0
    assert res.space.label == "J_2(zero_span)"


def test_zero_element_takes_no_peel():
    M = span([1, 1], [0, 0, 1, 1])
    E = extract_kernels(M, 2)
    dec = hitt_decompose(TaylorPoly([0], CAP), M, E)
    assert dec.iterations == 0
    assert_same(dec, ref_decompose(np.zeros(CAP + 1, dtype=complex), M, E, 2))


def stray_span():
    # q, then z^11, z^2 q, z^3, z^4 q: the strays are frame vectors 1 and
    # 3; z^11 leaves head mass at peel 5 and z^3 already at peel 1
    q = [1.0, 0.5j]
    return span(q, [0] * 11 + [1], [0, 0] + q, [0, 0, 0, 1], [0] * 4 + q)


def test_first_failing_vector_in_frame_order_is_reported():
    M = stray_span()
    E = extract_kernels(M, 2)
    outcomes = [ref_error(M, E, 2, j) for j in range(M.dim)]
    assert [o is None for o in outcomes] == [True, False, True, False, True]
    assert outcomes[1].message.startswith("peel 5 ")
    assert outcomes[3].message.startswith("peel 1 ")
    assert_raises_like(first_ref_error(M, E, 2), lambda: build_j_map(M, 2))


@pytest.mark.parametrize("head", [0.7e-8, 1.5e-8])
def test_head_mass_near_tol_is_judged_like_the_reference(head):
    # span{q, z^2 q + eps z^3}: the second frame vector leaves head mass
    # about 0.8 eps at peel 1, here just below and just above tol
    q = np.array([1.0, 0.5j])
    eps = head / 0.8
    M = span(q, np.concatenate([[0, 0], q]) + eps * np.eye(4)[3])
    E = extract_kernels(M, 2)
    err = first_ref_error(M, E, 2)
    if head < TOL:
        assert err is None
        res = build_j_map(M, 2)
        for j, dec in enumerate(res.decompositions):
            ref = ref_decompose(np.ascontiguousarray(M.frame_matrix()[:, j]), M, E, 2)
            assert_same(dec, ref)
    else:
        assert err.message.startswith("peel 1 left head mass 1.5")
        assert_raises_like(err, lambda: build_j_map(M, 2))


def test_exhausted_max_iter_gives_the_reference_message():
    rng = np.random.default_rng(7)
    M = power_span(rng, 2, 1, 12)
    E = extract_kernels(M, 2)
    for max_iter in (0, 3):
        err = first_ref_error(M, E, 2, max_iter)
        assert err.message.startswith(f"no convergence after {max_iter} peels")
        V = np.ascontiguousarray(M.frame_matrix().T)
        assert_raises_like(err, lambda: _peel(V, M, E, max_iter, TOL))
        last = ref_error(M, E, 2, M.dim - 1, max_iter)
        assert_raises_like(last, lambda: hitt_decompose(TaylorPoly(V[-1], CAP), M, E, max_iter))


def test_non_member_gives_the_reference_message():
    M = span([1, 1])
    E = extract_kernels(M, 2)
    v = np.zeros(CAP + 1, dtype=complex)
    v[5] = 1.0
    with pytest.raises(RefError) as ref:
        ref_decompose(v, M, E, 2)
    assert_raises_like(ref.value, lambda: hitt_decompose(TaylorPoly(v, CAP), M, E))


@pytest.mark.parametrize("row", [0, 1, 3, CAP])
def test_nan_frame_column_fails_closed_wherever_it_sits(row):
    rng = np.random.default_rng(3)
    base = power_span(rng, 2, 1, 6).frame_matrix()
    for pos in range(base.shape[1]):
        F = base.copy()
        F[row, pos] = np.nan
        with pytest.raises(HardyShiftError):
            build_j_map(SpanSubspace(F, CAP, 1), 2)


def test_nan_element_or_kernel_fails_closed():
    rng = np.random.default_rng(4)
    M = power_span(rng, 2, 1, 6)
    E = extract_kernels(M, 2)
    f = M.frame_matrix()[:, 2].copy()
    f[9] = np.nan
    with pytest.raises(ParamOutOfRange):  # refused before it reaches the peel
        TaylorPoly(f, CAP)
    with pytest.raises(NoConvergence):  # a NaN remainder is never below tol
        _peel(f[None, :], M, E, None, TOL)
    bad = E.entries.copy()
    bad[1, 0] = np.nan
    E = KernelColumn(bad, E.degenerate, 2)
    for v in M.frame_matrix().T:
        with pytest.raises(NoConvergence):
            hitt_decompose(TaylorPoly(v, CAP), M, E)
    with pytest.raises(NoConvergence):
        _peel(np.ascontiguousarray(M.frame_matrix().T), M, E, None, TOL)


def ordered_power_span(rng, m, order, cap=CAP):
    """span{z^(ml) q} with the generators in the given order of l; the
    supports are disjoint, so frame vector j is z^(m·order[j]) q, scaled."""
    q = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return orthonormalize(stacked(*(TaylorPoly(np.concatenate([np.zeros(m * l), q]), cap)
                                    for l in order)))


@pytest.mark.parametrize("m, order", [
    (2, list(range(30))[::-1]),                     # reverse degree order
    (3, [9, 0, 14, 1, 13, 3, 7, 2, 11, 5]),  # converged columns between live ones
])
def test_columns_converging_out_of_order_match_the_reference(m, order):
    rng = np.random.default_rng(len(order))
    M = ordered_power_span(rng, m, order)
    res = build_j_map(M, m)
    # frame vector j needs order[j] + 1 peels, so the live columns are not
    # a prefix of the frame: the range must not skip one of them
    assert [d.iterations for d in res.decompositions] == [l + 1 for l in order]
    for dec, v in zip(res.decompositions, M.frame_matrix().T):
        assert_same(dec, ref_decompose(np.ascontiguousarray(v), M, res.kernel, m))


def test_converged_column_inside_the_live_range_keeps_its_remainder():
    # z^2 q + 5e-9 z^30 converges at peel 2 and leaves 5e-9 z^28, which
    # would reach the head at peel 14 if it were peeled on; z^40 q before it
    # and z^50 q after it are still live then
    q = [1.0, 0.5j]
    M = span([0] * 40 + q, q, [0, 0] + q + [0] * 26 + [5e-9], [0] * 50 + q)
    res = build_j_map(M, 2)
    assert [d.iterations for d in res.decompositions] == [21, 1, 2, 26]
    assert 4e-9 < res.decompositions[2].residual < TOL
    for dec, v in zip(res.decompositions, M.frame_matrix().T):
        assert_same(dec, ref_decompose(np.ascontiguousarray(v), M, res.kernel, 2))


def test_failing_column_between_live_columns_is_reported():
    # q, z^20 q, z^11, z^30 q, z^2 q: z^11 leaves head mass at peel 5, while
    # z^20 q before it and z^30 q after it still need peels
    q = [1.0, 0.5j]
    M = span(q, [0] * 20 + q, [0] * 11 + [1], [0] * 30 + q, [0, 0] + q)
    E = extract_kernels(M, 2)
    outcomes = [ref_error(M, E, 2, j) for j in range(M.dim)]
    assert [o is None for o in outcomes] == [True, True, False, True, True]
    assert outcomes[2].message.startswith("peel 5 ")
    assert_raises_like(first_ref_error(M, E, 2), lambda: build_j_map(M, 2))
    V = np.ascontiguousarray(M.frame_matrix().T)
    for j, dec in enumerate(_peel(V[:2], M, E, None, TOL)[0]):
        assert_same(dec, ref_decompose(V[j], M, E, 2))


@pytest.mark.parametrize("m, order", [(2, range(24)), (3, [9, 0, 14, 1, 13, 3, 7, 2, 11, 5])])
def test_one_column_peels_like_all_columns(m, order):
    M = ordered_power_span(np.random.default_rng(5), m, order)
    E = extract_kernels(M, m)
    V = np.ascontiguousarray(M.frame_matrix().T)
    whole, _ = _peel(V, M, E, None, TOL)
    for j, v in enumerate(V):
        assert_same(_peel(V[j:j + 1], M, E, None, TOL)[0][0], whole[j])
        assert_same(hitt_decompose(TaylorPoly(v, CAP), M, E), whole[j])


@pytest.mark.parametrize("degree", [CAP - 3, CAP])
def test_cut_past_the_cap_is_counted_like_the_reference(degree):
    # a kernel entry with 1e-10 near the cap: z^(ml) E_0 loses it past the
    # cap from the first peels on, and the cut bound shows in the error
    M = span(*([0] * (2 * l) + [1, 1] for l in range(CAP // 2)))
    E = extract_kernels(M, 2)
    dusty = E.entries.copy()
    dusty[degree, 0] = 1e-10
    E = KernelColumn(dusty, E.degenerate, 2)
    V = np.ascontiguousarray(M.frame_matrix().T)
    decomps, _ = _peel(V, M, E, None, TOL)
    for dec, v in zip(decomps, V):
        assert_same(dec, ref_decompose(v, M, E, 2))
    assert max(d.reconstruction_error for d in decomps) > 1e-11
