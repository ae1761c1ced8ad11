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

The peel has two paths: every step at once from the m-row blocks when the
kernel column's support d fits in the head (d <= m), and the step loop
otherwise.  ``on_path`` gives a kernel column for either path on the same
span (dust of 1e-30 in row m sends a column to the loop), so the failure
cases run on both, and ``peel_path`` records which path a call took.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from hardyshift import (NoConvergence, NotAMember, ParamOutOfRange, build_j_map,
                        extract_kernels, hitt_decompose, TaylorPoly, orthonormalize)
from hardyshift import hitt
from hardyshift.hitt import _peel, _peel_blocks, _peel_steps
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
    active = np.flatnonzero(E.any(axis=0))
    rows, norms, fj = [], [], v
    for _ in range(max_iter + 1):
        nrm = math.sqrt(float(np.sum(np.abs(fj) ** 2)))
        norms.append(nrm)
        if nrm < tol or nrm == 0.0:
            break
        row = np.zeros(m, dtype=complex)
        x = np.zeros(n, dtype=complex)
        for i in active:
            e = E[:n, i]
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
                cut += abs(A[l, i]) * float(np.linalg.norm(E[keep:, i]))
                shifted = np.zeros(n, dtype=complex)
                shifted[m * l:] = E[:keep, i]
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


def decompositions(m, P, iterations, *accounting):
    """Each element's decomposition out of whole-frame arrays: element j's
    rows A(l) are its first iterations[j] coordinates in each m-row block
    of column j of P, and ``accounting`` holds its residual,
    reconstruction error and Parseval gap."""
    blocks = P.reshape(m, -1, P.shape[1])  # block i: column i of the rows A(l)
    return [Ref(blocks[:, :it, j].T, it, *(float(a[j]) for a in accounting))
            for j, it in enumerate(iterations.tolist())]


def peel(V, M, E, max_iter=None):
    """``_peel`` on the rows of V, one decomposition per row."""
    return decompositions(E.shape[1], *_peel(V, M, E, max_iter, TOL))


def jmap_decompositions(res):
    return decompositions(res.kernel.shape[1], res.coords, res.iterations, res.residuals,
                          res.reconstruction_errors, res.parseval_gaps)


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
        got, want = got.value.residual, ref_err.value
        assert abs(got - want) <= BOUND or (math.isnan(got) and math.isnan(want))


PATHS = ("blocks", "steps")


def support(E):
    """d: the rows of the active kernel entries up to the last nonzero one."""
    Ea = E[:, E.any(axis=0)]
    return int(np.flatnonzero(Ea.any(axis=1)).max(initial=-1)) + 1


def on_path(E, path):
    """E for the block path (its support must fit in the head); for the
    step loop, E with 1e-30 of dust in row m of its first active entry,
    which moves the support past the head and no outcome."""
    m = E.shape[1]
    if path == "blocks":
        assert support(E) <= m
        return E
    dusty = E.copy()
    dusty[m, np.flatnonzero(E.any(axis=0))[0]] += 1e-30
    assert support(dusty) > m
    return dusty


@pytest.fixture
def peel_path(monkeypatch):
    """The paths the peel calls of a test took, in order."""
    taken = []
    for name, path in (("_peel_blocks", "blocks"), ("_peel_steps", "steps")):
        def spy(*args, _run=getattr(hitt, name), _path=path):
            taken.append(_path)
            return _run(*args)
        monkeypatch.setattr(hitt, name, spy)
    return taken


def peel_frame(M, E, max_iter=None):
    """``_peel`` on the frame vectors of M; each must match the reference,
    with its coordinate column holding its rows and zeros after them, or
    the call must raise the reference's first error."""
    m = E.shape[1]
    V = np.ascontiguousarray(M.frame_matrix().T)
    err = first_ref_error(M, E, m, max_iter)
    if err is not None:
        assert_raises_like(err, lambda: _peel(V, M, E, max_iter, TOL))
        return err
    P, *per_element = _peel(V, M, E, max_iter, TOL)
    decomps = decompositions(m, P, *per_element)
    assert len(decomps) == M.dim
    blocks = P.reshape(m, -1, M.dim)
    for j, (dec, v) in enumerate(zip(decomps, V)):
        assert_same(dec, ref_decompose(v, M, E, m, max_iter))
        assert not np.any(blocks[:, dec.iterations:, j])
    return decomps


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
    assert len(res.iterations) == M.dim == dim
    for dec, v in zip(jmap_decompositions(res), M.frame_matrix().T):
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
    for j, dec in enumerate(jmap_decompositions(res)):
        ref = ref_decompose(np.ascontiguousarray(M.frame_matrix()[:, j]), M, res.kernel, 2)
        assert_same(dec, ref)
        assert_same(hitt_decompose(TaylorPoly(M.frame_matrix()[:, j], CAP), M, res.kernel), ref)


def test_column_peel_matches_reference_with_dust_past_the_cap():
    M = span(*([0] * (2 * l) + [1, 1] for l in range(CAP // 2)))
    E = extract_kernels(M, 2)
    E = E.copy()
    E[CAP, 0] = 1e-37
    V = np.ascontiguousarray(M.frame_matrix().T)
    decomps = peel(V, M, E)
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
    assert res.iterations.size == res.coords.shape[1] == 0
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


def test_first_failing_vector_in_frame_order_is_reported(peel_path):
    M = stray_span()
    for path in PATHS:
        E = on_path(extract_kernels(M, 2), path)
        outcomes = [ref_error(M, E, 2, j) for j in range(M.dim)]
        assert [o is None for o in outcomes] == [True, False, True, False, True]
        assert outcomes[1].message.startswith("peel 5 ")
        assert outcomes[3].message.startswith("peel 1 ")
        assert peel_frame(M, E).message == outcomes[1].message
    assert_raises_like(first_ref_error(M, extract_kernels(M, 2), 2), lambda: build_j_map(M, 2))
    assert peel_path == ["blocks", "steps", "blocks"]


@pytest.mark.parametrize("head", [0.7e-8, 1.5e-8])
def test_head_mass_near_tol_is_judged_like_the_reference(head, peel_path):
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
        for j, dec in enumerate(jmap_decompositions(res)):
            ref = ref_decompose(np.ascontiguousarray(M.frame_matrix()[:, j]), M, E, 2)
            assert_same(dec, ref)
    else:
        assert err.message.startswith("peel 1 left head mass 1.5")
        assert_raises_like(err, lambda: build_j_map(M, 2))
    for path in PATHS:
        outcome = peel_frame(M, on_path(E, path))
        assert outcome.message == err.message if err else len(outcome) == M.dim
    assert peel_path == ["blocks", "blocks", "steps"]


def test_exhausted_max_iter_gives_the_reference_message():
    rng = np.random.default_rng(7)
    M = power_span(rng, 2, 1, 12)
    V = np.ascontiguousarray(M.frame_matrix().T)
    for path in PATHS:
        E = on_path(extract_kernels(M, 2), path)
        for max_iter in (0, 3):
            err = first_ref_error(M, E, 2, max_iter)
            assert err.message.startswith(f"no convergence after {max_iter} peels")
            assert_raises_like(err, lambda: _peel(V, M, E, max_iter, TOL))
            last = ref_error(M, E, 2, M.dim - 1, max_iter)
            assert_raises_like(last,
                               lambda: hitt_decompose(TaylorPoly(V[-1], CAP), M, E, max_iter))
        # enough peels for the first frame vectors only: the first one left is reported
        err = first_ref_error(M, E, 2, 8)
        assert err.message.startswith("no convergence after 8 peels")
        assert_raises_like(err, lambda: _peel(V, M, E, 8, TOL))


def test_non_member_gives_the_reference_message():
    M = span([1, 1])
    E = extract_kernels(M, 2)
    v = np.zeros(CAP + 1, dtype=complex)
    v[5] = 1.0
    with pytest.raises(RefError) as ref:
        ref_decompose(v, M, E, 2)
    assert_raises_like(ref.value, lambda: hitt_decompose(TaylorPoly(v, CAP), M, E))


@pytest.mark.parametrize("row", [0, 1, 3, CAP])
def test_nan_frame_column_is_refused_by_the_span(row):
    # a NaN frame never reaches the peel: the span refuses it at
    # construction (the peel's own NaN handling is pinned below)
    rng = np.random.default_rng(3)
    base = power_span(rng, 2, 1, 6).frame_matrix()
    for pos in range(base.shape[1]):
        F = base.copy()
        F[row, pos] = np.nan
        with pytest.raises(ParamOutOfRange):
            SpanSubspace(F, CAP, 1)


def test_nan_element_or_kernel_fails_closed():
    rng = np.random.default_rng(4)
    M = power_span(rng, 2, 1, 6)
    f = M.frame_matrix()[:, 2].copy()
    f[9] = np.nan
    with pytest.raises(ParamOutOfRange):  # refused before it reaches the peel
        TaylorPoly(f, CAP)
    for path in PATHS:
        E = on_path(extract_kernels(M, 2), path)
        with pytest.raises(NoConvergence):  # a NaN remainder is never below tol
            _peel(f[None, :], M, E, None, TOL)
        E = E.copy()
        E[1, 0] = np.nan
        assert (support(E) <= 2) == (path == "blocks")
        for v in M.frame_matrix().T:
            with pytest.raises(NoConvergence):
                hitt_decompose(TaylorPoly(v, CAP), M, E)
        assert peel_frame(M, E).message.startswith("peel 0 left head mass nan")


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("row", [0, 1, 3, 4, CAP])
def test_nan_frame_row_fails_at_the_first_step_that_reads_it(row, path):
    # the peel itself, past the span's own refusal of a NaN frame: each
    # column in turn carries a NaN in the given row.  Step s reads the rows
    # m·s .. m·s + max(d, m) - 1, so the NaN column fails at the first step
    # whose rows reach it (the reference's vdot spreads 0·NaN over all rows
    # at once, so it is no oracle here); the other columns converge
    rng = np.random.default_rng(3)
    M = power_span(rng, 2, 1, 6)
    E = on_path(extract_kernels(M, 2), path)
    step = max(0, (row - max(support(E), 2)) // 2 + 1)
    for pos in range(M.dim):
        V = np.ascontiguousarray(M.frame_matrix().T)
        V[pos, row] = np.nan
        with pytest.raises(NoConvergence) as got:
            _peel(V, M, E, None, TOL)
        assert str(got.value).startswith(f"peel {step} left head mass nan ")
        assert math.isnan(got.value.residual)
        assert len(_peel(np.delete(V, pos, axis=0), M, E, None, TOL)[1]) == M.dim - 1


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
    assert res.iterations.tolist() == [l + 1 for l in order]
    for dec, v in zip(jmap_decompositions(res), M.frame_matrix().T):
        assert_same(dec, ref_decompose(np.ascontiguousarray(v), M, res.kernel, m))


def test_converged_column_inside_the_live_range_keeps_its_remainder():
    # z^2 q + 5e-9 z^30 converges at peel 2 and leaves 5e-9 z^28, which
    # would reach the head at peel 14 if it were peeled on; z^40 q before it
    # and z^50 q after it are still live then
    q = [1.0, 0.5j]
    M = span([0] * 40 + q, q, [0, 0] + q + [0] * 26 + [5e-9], [0] * 50 + q)
    res = build_j_map(M, 2)
    assert res.iterations.tolist() == [21, 1, 2, 26]
    assert 4e-9 < res.residuals[2] < TOL
    for dec, v in zip(jmap_decompositions(res), M.frame_matrix().T):
        assert_same(dec, ref_decompose(np.ascontiguousarray(v), M, res.kernel, 2))
    for path in PATHS:
        peel_frame(M, on_path(res.kernel, path))


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("m", [2, 3])
def test_every_column_keeps_a_remainder_below_tol(m, path):
    # q, and z^(ml) q + 3e-9·z^(ml + 2m + 1) for l > 0, with disjoint
    # supports: each of these converges after l + 1 peels with 3e-9 left,
    # which later steps must neither peel nor count
    rng = np.random.default_rng(m)
    q = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    gens = []
    for l in (8, 0, 12, 4, 16):
        g = np.zeros(m * l + 3 * m, dtype=complex)
        g[m * l: m * l + m] = q
        g[m * l + 2 * m + 1] = 3e-9 if l else 0.0
        gens.append(g)
    M = span(*gens)
    E = on_path(extract_kernels(M, m), path)
    decomps = peel_frame(M, E)
    assert [d.iterations for d in decomps] == [9, 1, 13, 5, 17]
    assert all(0 < d.residual < TOL for j, d in enumerate(decomps) if j != 1)


def test_failing_column_between_live_columns_is_reported():
    # q, z^20 q, z^11, z^30 q, z^2 q: z^11 leaves head mass at peel 5, while
    # z^20 q before it and z^30 q after it still need peels
    q = [1.0, 0.5j]
    M = span(q, [0] * 20 + q, [0] * 11 + [1], [0] * 30 + q, [0, 0] + q)
    for path in PATHS:
        E = on_path(extract_kernels(M, 2), path)
        outcomes = [ref_error(M, E, 2, j) for j in range(M.dim)]
        assert [o is None for o in outcomes] == [True, True, False, True, True]
        assert outcomes[2].message.startswith("peel 5 ")
        peel_frame(M, E)
    E = extract_kernels(M, 2)
    assert_raises_like(first_ref_error(M, E, 2), lambda: build_j_map(M, 2))
    V = np.ascontiguousarray(M.frame_matrix().T)
    for j, dec in enumerate(peel(V[:2], M, E)):
        assert_same(dec, ref_decompose(V[j], M, E, 2))


@pytest.mark.parametrize("m, order", [(2, range(24)), (3, [9, 0, 14, 1, 13, 3, 7, 2, 11, 5])])
def test_one_column_peels_like_all_columns(m, order):
    M = ordered_power_span(np.random.default_rng(5), m, order)
    E = extract_kernels(M, m)
    V = np.ascontiguousarray(M.frame_matrix().T)
    whole = peel(V, M, E)
    for j, v in enumerate(V):
        assert_same(peel(V[j:j + 1], M, E)[0], whole[j])
        assert_same(hitt_decompose(TaylorPoly(v, CAP), M, E), whole[j])


@pytest.mark.parametrize("degree", [CAP - 3, CAP])
def test_cut_past_the_cap_is_counted_like_the_reference(degree):
    # a kernel entry with 1e-10 near the cap: z^(ml) E_0 loses it past the
    # cap from the first peels on, and the cut bound shows in the error
    M = span(*([0] * (2 * l) + [1, 1] for l in range(CAP // 2)))
    E = extract_kernels(M, 2)
    E = E.copy()
    E[degree, 0] = 1e-10
    V = np.ascontiguousarray(M.frame_matrix().T)
    decomps = peel(V, M, E)
    for dec, v in zip(decomps, V):
        assert_same(dec, ref_decompose(v, M, E, 2))
    assert max(d.reconstruction_error for d in decomps) > 1e-11


@pytest.mark.parametrize("gens, m, d", [
    (([1], [0, 0, 1], [0, 0, 0, 0, 1]), 2, 1),
    (([1, 0.5j], [0, 0, 0, 1, 0.5j], [0] * 6 + [1, 0.5j]), 3, 2),
    (([1, 0.5j], [0, 0, 1, 0.5j]), 2, 2),
    (([1, 2, 3], [0, 0, 0, 1, 2, 3]), 3, 3),
    (([1, 1, 1], [0, 1, 2]), 2, 3),                     # demo's two_dim span
    (([1, 1], [0, 1, 1], [0, 0, 0, 1, 1]), 2, 3),
], ids=["d1_m2", "d2_m3", "d2_m2", "d3_m3", "d3_m2", "d3_m2_three"])
def test_kernel_supports_around_the_head_take_their_path(gens, m, d, peel_path):
    M = span(*gens)
    E = extract_kernels(M, m)
    assert support(E) == d
    peel_frame(M, E)
    res = build_j_map(M, m)
    for j, dec in enumerate(jmap_decompositions(res)):
        v = np.ascontiguousarray(M.frame_matrix()[:, j])
        assert_same(dec, ref_decompose(v, M, E, m))
        assert_same(hitt_decompose(TaylorPoly(v, CAP), M, E), dec)
    assert set(peel_path) == {"blocks" if d <= m else "steps"}
    assert len(peel_path) == 2 + M.dim


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("row, dust",
                         [(0, 1e-37), (1, 1e-37), (1, 1e-17), (4, 1e-30), (CAP, 1e-37)])
def test_rounding_dust_past_the_head_takes_the_loop(m, row, dust, peel_path):
    # dust in row m + row of a kernel entry (the cap at most) moves the
    # support past the head
    M = power_span(np.random.default_rng(11 * m + row), m, 1, 18)
    E = extract_kernels(M, m)
    assert support(E) == m
    E = E.copy()
    E[min(m + row, CAP), 0] = dust
    decomps = peel_frame(M, E)
    assert len(decomps) == M.dim
    assert peel_path == ["steps"]


def step_inputs(M, m, max_iter):
    E = extract_kernels(M, m)
    active = np.flatnonzero(E.any(axis=0))
    d = support(E)
    assert d <= m
    limit = M.cap // m + 2 if max_iter is None else max_iter
    return np.ascontiguousarray(M.frame_matrix().T), E[:, active], active, d, m, limit, TOL


@pytest.mark.parametrize("case, m, max_iter", [
    ("power", 2, None), ("power", 3, None), ("ordered", 3, None), ("stray", 2, None),
    ("between", 2, None), ("power", 2, 0), ("power", 2, 3), ("power", 3, 9), ("power", 2, 200),
])
def test_block_path_agrees_with_the_step_loop(case, m, max_iter):
    # the same d <= m inputs through both paths: every column before the
    # first error agrees within BOUND, and the first error is the same
    q = [1.0, 0.5j]
    M = {"power": lambda: power_span(np.random.default_rng(m), m, 2, 24),
         "ordered": lambda: ordered_power_span(np.random.default_rng(9), m,
                                               [9, 0, 14, 1, 13, 3, 7, 2, 11, 5]),
         "stray": stray_span,
         "between": lambda: span(q, [0] * 20 + q, [0] * 11 + [1], [0] * 30 + q, [0, 0] + q),
         }[case]()
    args = step_inputs(M, m, max_iter)
    A, iterations, left, norm2, gaps, failed = _peel_blocks(*args)
    A2, iterations2, left2, norm22, gaps2, failed2 = _peel_steps(*args)
    def first_out(failed, iterations):  # the first element that fails or runs out
        return int(np.append(np.flatnonzero((failed >= 0) | (iterations > args[5])), M.dim)[0])

    first = first_out(failed2, iterations2)
    assert first_out(failed, iterations) == first
    upto = slice(0, first + 1)
    assert np.array_equal(failed[upto], failed2[upto])
    assert np.array_equal(iterations[:first], iterations2[:first])
    steps = A.shape[1]  # the block path stops at the step where every remainder is zero
    assert steps <= A2.shape[1] and not np.any(A2[:first, steps:])
    assert np.max(np.abs(A[:first] - A2[:first, :steps]), initial=0.0) <= BOUND
    for x, y in ((left, left2), (norm2, norm22), (gaps[:first], gaps2[:first])):
        assert np.max(np.abs(x[upto] - y[upto]), initial=0.0) <= BOUND
