import pathlib

import numpy as np
import pytest

from hardyshift import (LaurentMatrix, NoConvergence, NotAMember,
                        ParamOutOfRange, SpanSubspace, build_j_map, build_sigma, certify_theta,
                        diag_polys, extract_kernels, from_poly_grid, hitt_decompose,
                        TaylorPoly, identity, intersect_shifted, matmul,
                        ortho_complement_within, orthonormalize, toeplitz_adjoint_apply)
from hardyshift.invariance import range_generators
from hardyshift.problem import load_problem
from hardyshift.series import scale, shift_pow, sub
from hardyshift.subspaces import _null_combos
from hardyshift.tolerances import EXACT_TOL
from hardyshift.veclift import VectorPoly

from conftest import allclose, monomial, stacked

CAP = 48
DEMO = pathlib.Path(__file__).resolve().parent.parent / "problems" / "demo.json"

SQRT2 = np.sqrt(2.0)
SQRT5 = np.sqrt(5.0)
SQRT6 = np.sqrt(6.0)
SQRT30 = np.sqrt(30.0)


def span(*coeff_lists, label=""):
    return orthonormalize(stacked(*(TaylorPoly(c, CAP) for c in coeff_lists)), label=label)


def close_up_to_phase(f, g, tol=1e-10):
    return min(sub(f, g).norm(), sub(f, scale(g, -1)).norm()) < tol


def test_extract_kernels_degenerate_second_entry():
    M = span([1, 1], [0, 0, 1, 1])
    E = extract_kernels(M, 2)
    assert (~E.any(axis=0)).tolist() == [False, True]
    assert allclose(TaylorPoly(E[:, 0], CAP), TaylorPoly(np.array([1, 1]) / SQRT2, CAP),
                    1e-12)
    assert E.shape == (CAP + 1, 2) and not E[:, 1].any()


def test_extract_kernels_two_entries():
    M = span([1, 1, 1], [0, 1, 2])
    E = extract_kernels(M, 2)
    assert E.any(axis=0).all()
    assert allclose(TaylorPoly(E[:, 0], CAP),
                    TaylorPoly(np.array([5, 2, -1]) / SQRT30, CAP), 1e-12)
    assert allclose(TaylorPoly(E[:, 1], CAP), TaylorPoly(np.array([0, 1, 2]) / SQRT5, CAP),
                    1e-12)


def brute_force_kernel_oracle(gen_rows, m=2, cap=CAP):
    """Plain numpy re-derivation: project monomials onto
    M ⊖ (M ∩ z^m H^2), then classical Gram-Schmidt, no package calls."""
    G = np.zeros((len(gen_rows), cap + 1), dtype=complex)
    for i, row in enumerate(gen_rows):
        G[i, : len(row)] = row
    # orthonormal frame of the span
    q, r = np.linalg.qr(G.conj().T)
    rank = np.sum(np.abs(np.diag(r)) > 1e-10)
    frame = q[:, :rank]
    # intersection with z^m H^2: combinations with first m coefficients zero
    head = frame[:m, :]
    _, s, vh = np.linalg.svd(head)
    null = vh[np.sum(s > 1e-10):].conj().T
    inner_frame = frame @ null
    # complement within the span
    proj = frame @ frame.conj().T - inner_frame @ inner_frame.conj().T
    entries = []
    kept = []
    for i in range(m):
        e = np.zeros(cap + 1, dtype=complex)
        e[i] = 1
        w = proj @ e
        for u in kept:
            w = w - np.vdot(u, w) * u
        n = np.linalg.norm(w)
        if n < 1e-9:
            entries.append(np.zeros(cap + 1, dtype=complex))
        else:
            w = w / n
            lead = w[np.flatnonzero(np.abs(w) > 1e-12)[0]]
            w = w * np.conj(lead) / abs(lead)
            kept.append(w)
            entries.append(w)
    return entries


def test_extract_kernels_matches_brute_force_oracle():
    gens = ([1, 1], [0, 1, 1], [0, 0, 0, 1, 1])
    E = extract_kernels(orthonormalize(stacked(*(TaylorPoly(g, CAP) for g in gens))), 2)
    oracle = brute_force_kernel_oracle(gens)
    # first entry also matches the closed form (2 - z)(1 + z)/sqrt(6)
    assert allclose(TaylorPoly(E[:, 0], CAP),
                    TaylorPoly(np.array([2, 1, -1]) / SQRT6, CAP), 1e-12)
    for got, want in zip(E.T, oracle):
        assert np.max(np.abs(got - want)) < 1e-10
    # the oracle value is z(1 + z)/sqrt(2); the commonly quoted value
    # z(1 + 2z)/sqrt(2) is not even normalized, so flag the difference
    quoted = TaylorPoly(np.array([0, 1, 2]) / SQRT2, CAP)
    assert abs(quoted.norm() - 1.0) > 0.5
    assert sub(TaylorPoly(E[:, 1], CAP), quoted).norm() > 0.5
    assert allclose(TaylorPoly(E[:, 1], CAP), TaylorPoly(np.array([0, 1, 1]) / SQRT2, CAP),
                    1e-10)


def test_extract_kernels_all_zero_column():
    M = span([0, 0, 1, 1])  # inside z^2 H^2
    E = extract_kernels(M, 2)
    assert not E.any()


def test_hitt_decompose_two_rows():
    M = span([1, 1], [0, 0, 1, 1])
    E = extract_kernels(M, 2)
    f = TaylorPoly([1, 1, 1, 1], CAP)  # (1+z)(1+z^2)
    dec = hitt_decompose(f, M, E)
    assert dec.iterations == 2
    assert np.allclose(dec.rows[:, 0], [SQRT2, SQRT2])
    assert np.allclose(dec.rows[:, 1], 0)
    assert dec.reconstruction_error < 1e-12
    assert dec.parseval_gap < 1e-12


def test_hitt_decompose_kernel_entry_is_one_step():
    M = span([1, 1, 1], [0, 1, 2])
    E = extract_kernels(M, 2)
    dec = hitt_decompose(TaylorPoly(E[:, 0], CAP), M, E)
    assert dec.iterations == 1
    assert np.allclose(dec.rows, [[1, 0]])


def test_hitt_decompose_agrees_with_linear_solve_oracle(rng):
    M = span([1, 1], [0, 0, 1, 1])
    E = extract_kernels(M, 2)
    f = TaylorPoly(M.frame_matrix() @ np.array([0.3 - 1j, 2.2 + 0.5j]), CAP)
    dec = hitt_decompose(f, M, E)
    # oracle: least-squares solve of f = sum_l z^(2l) A(l).E in coefficients
    cols = []
    keys = []
    for l in range((CAP // 2) + 1):
        for i in np.flatnonzero(E.any(axis=0)):
            e = TaylorPoly(E[:, i], CAP)
            if e.deg() + 2 * l > CAP:
                continue
            cols.append(shift_pow(e, 2 * l).padded(CAP + 1))
            keys.append((l, i))
    A = np.column_stack(cols)
    sol, *_ = np.linalg.lstsq(A, f.padded(CAP + 1), rcond=None)
    recon = A @ sol
    assert np.linalg.norm(recon - f.padded(CAP + 1)) < 1e-10
    for (l, i), c in zip(keys, sol):
        got = dec.rows[l, i] if l < dec.rows.shape[0] else 0.0
        assert abs(got - c) < 1e-8


def test_hitt_decompose_rejects_non_members():
    M = span([1, 1])
    E = extract_kernels(M, 2)
    with pytest.raises(NotAMember):
        hitt_decompose(monomial(5, CAP), M, E)


def test_hitt_decompose_flags_uncaptured_mass():
    # span{z^2(1+z)} is not nearly co-invariant at arity 2: the peeled
    # remainder 1+z cannot be absorbed by an all-zero kernel column
    M = span([0, 0, 1, 1])
    E = extract_kernels(M, 2)
    with pytest.raises(NoConvergence):
        hitt_decompose(TaylorPoly(M.frame_matrix()[:, 0], CAP), M, E)


def test_hitt_decompose_counts_dust_past_the_cap():
    # rounding dust high up in a kernel entry must not trip the cap guard
    # of the reconstruction; the part past the cap goes into the error
    M = span(*([0] * (2 * l) + [1, 1] for l in range(CAP // 2)))
    E = extract_kernels(M, 2)
    dusty = E.copy()
    dusty[CAP, 0] = 1e-37
    dec = hitt_decompose(TaylorPoly(M.frame_matrix()[:, -1], CAP), M, dusty)  # from degree CAP - 1
    assert dec.reconstruction_error < 1e-12


def test_build_j_map_constants():
    M = span([1, 1, 1], [0, 1, 2])
    res = build_j_map(M, 2)
    assert res.space.dim == 2
    assert res.isometry_gap < 1e-12
    assert res.costable.passed
    # the coordinates of a 2-dim decomposable span are the constants in C^2
    for w in res.space.frame_matrix().T:
        assert all(TaylorPoly(c, CAP).deg() <= 0 for c in w.reshape(2, CAP + 1))


def test_build_j_map_monomial_coordinates():
    M = span([1, 1], [0, 0, 1, 1])
    res = build_j_map(M, 2)
    assert res.space.dim == 2
    # frame coordinates span {(a + b z, 0)}
    want0 = VectorPoly([TaylorPoly([1], CAP), TaylorPoly([0], CAP)])
    want1 = VectorPoly([TaylorPoly([0, 1], CAP), TaylorPoly([0], CAP)])
    gram = res.space.frame_matrix().T @ stacked(want0, want1).conj()
    u, s, vh = np.linalg.svd(gram)
    assert np.all(s > 1 - 1e-10)


def test_build_j_map_isometry_on_three_generators():
    M = span([1, 1], [0, 1, 1], [0, 0, 0, 1, 1])
    res = build_j_map(M, 2)
    assert res.space.dim == 3
    assert res.isometry_gap < 1e-10
    assert res.costable.passed


def test_certify_theta_degenerate_kernel():
    M = span([1, 1], [0, 0, 1, 1])
    theta = from_poly_grid([[[0, 0, 1]], [[0]]])  # (z^2, 0)^T
    rep = certify_theta(M, 2, 1, 1, theta)
    assert rep.passed
    # the conjugated product is identically zero
    assert not np.any(rep.product.table)


def test_certify_theta_two_entry_kernel():
    M = span([1, 1, 1], [0, 1, 2])
    theta = from_poly_grid([[[0, 1 / SQRT2]], [[0, 1 / SQRT2]]])
    rep = certify_theta(M, 2, 1, 1, theta)
    assert rep.passed
    assert rep.product.min_pow == 1
    assert np.allclose(rep.product.table[0, 0], [0.5, 0.5])


def test_certify_theta_fails_for_full_identity():
    # identity matrix leaves a zero model space; a nonzero span cannot sit in it
    M = span([1, 1, 1], [0, 1, 2])
    rep = certify_theta(M, 2, 1, 1, identity(2))
    assert not rep.passed
    assert rep.stage("coords_in_model_space").verdict == "FAIL"
    assert rep.stage("theta_inner").verdict == "PASS"


def _udv(rng, exponents):
    """U · diag(z^a) · V for seeded constant unitaries U and V."""
    m = len(exponents)

    def unitary():
        q = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
        return from_poly_grid([[[x] for x in row] for row in q])

    diag = diag_polys([[0] * a + [1] for a in exponents])
    return matmul(matmul(unitary(), diag), unitary())


def _with_dust(theta, dust):
    """theta plus a coefficient `dust` at power -1 of entry (0, 0)."""
    table = np.zeros((theta.rows, theta.cols, theta.table.shape[2] + theta.min_pow + 1),
                     dtype=complex)
    table[:, :, theta.min_pow + 1:] = theta.table
    table[0, 0, 0] = dust
    return LaurentMatrix(theta.rows, theta.cols, -1, table)


def certify_cases(rng):
    demo = load_problem(str(DEMO))
    two_dim = span([1, 1, 1], [0, 1, 2])
    cases = [(demo.subspaces["two_dim"], demo.matrices["col_zz"]),
             (two_dim, identity(2)),
             (two_dim, _with_dust(demo.matrices["col_zz"], 1e-11))]
    # span{z^(2l) q_i}: its coordinates pair with the range at both stages
    ladder = span(*([0] * (2 * l) + q for l in range(3) for q in ([1, 1], [0, 1, 2])))
    cases += [(ladder, _udv(rng, a)) for a in ((1, 1), (2, 1), (1, 3), (3, 3))]
    return cases


def test_certify_stages_equal_the_dense_range_pairing(rng):
    # P₊Θ*x by the column action against the dense pairing of x with every
    # cut range generator Θ z^j δ_i; the dust case pins that the
    # negative-power dust the inner test lets pass is dropped, not applied
    verdicts, worst = [], []
    for M, theta in certify_cases(rng):
        rep = certify_theta(M, 2, 1, 1, theta)
        assert rep.stage("theta_inner").passed
        gens = range_generators(theta, rep.jmap.space.cap)
        images = toeplitz_adjoint_apply(build_sigma(2, 1, 1), rep.jmap.coords)
        for name, X in (("coords_in_model_space", rep.jmap.space.frame_matrix()),
                        ("conclusion_orthogonal", images)):
            dense = float(np.max(np.abs(X.conj().T @ gens), initial=0.0))
            assert abs(rep.stage(name).data - dense) <= 1e-14, (name, theta)
            worst.append(rep.stage(name).data)
        verdicts.append(rep.passed)
    assert verdicts == [True, False, True, False, False, False, False]
    assert min(worst[6:]) > 0.01  # U·diag(z^a)·V: both stages pair with the range


def test_peel_stops_below_tol_and_at_an_exact_zero():
    # a remainder of norm exactly tol is peeled once more; a zero remainder
    # ends the peel even at tol 0
    M = span([1e-8, 0, 1], [1])
    res = build_j_map(M, 2)
    assert max(res.reconstruction_errors) < 1e-8
    exact = build_j_map(span([1], [0, 0, 1]), 2, tol=0.0)
    assert exact.reconstruction_errors.tolist() == [0.0, 0.0]


def kernel_from_complement(X, m, tol):
    """Kernel column from an orthonormal frame X of M ⊖ (M ∩ z^m H^2): the
    projections X X^H z^i, Gram-Schmidt twice in index order, the first
    coefficient above 1e-13 of each entry made real positive."""
    entries, kept = np.zeros((X.shape[0], m), dtype=complex), []
    for i in range(m):
        w = X @ X[i].conj()
        for _ in range(2):
            for u in kept:
                w = w - np.vdot(u, w) * u
        n = np.linalg.norm(w)
        if n >= tol:
            w = w / n
            lead = w[np.flatnonzero(np.abs(w) > 1e-13)[0]]
            entries[:, i] = w * np.conj(lead) / abs(lead)
            kept.append(entries[:, i])
    return entries


def kernel_split_cases(rng):
    """(label, M, m): random spans, a span inside z^m H^2, the empty span,
    heads of deficient rank, and block spans z^(m l) q_i."""
    def unit(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def columns(dim, deg, head=None):
        G = np.zeros((CAP + 1, dim), dtype=complex)
        G[: deg + 1] = unit(deg + 1, dim)
        if head is not None:
            G[: head.shape[0]] = head
        return orthonormalize(G)

    blocks = np.zeros((CAP + 1, 16), dtype=complex)
    for i, q in enumerate((unit(3), unit(3))):
        for l in range(8):
            blocks[3 * l: 3 * l + 3, 8 * i + l] = q
    return [
        ("generic m=2", columns(4, 8), 2),
        ("generic m=3", columns(7, 6), 3),
        ("dim below m", columns(2, 20), 3),
        ("inside z^m H^2", columns(5, 9, np.zeros((3, 5))), 3),
        ("empty", SpanSubspace(np.zeros((CAP + 1, 0)), CAP, 1), 2),
        ("head of rank 1", columns(5, 9, np.outer(unit(3), unit(5))), 3),
        ("z^(m l) q_i", orthonormalize(blocks), 3),
        ("two entries", span([1, 1, 1], [0, 1, 2]), 2),
        ("degenerate second entry", span([1, 1], [0, 0, 1, 1]), 2),
    ]


def projector(F):
    return F @ F.conj().T


def test_kernel_split_spans_the_complement_of_the_shifted_intersection(rng):
    # one SVD of the head block splits the coordinates into M ∩ z^m H^2 and
    # its complement in M; the two subspace operations are the oracle
    for label, M, m in kernel_split_cases(rng):
        F = M.frame_matrix()
        rows, null = _null_combos(F[:m], M.dim, M.rank_tol)
        assert rows.shape[0] + null.shape[0] == M.dim, label
        oracle = ortho_complement_within(M, intersect_shifted(M, m)).frame_matrix()
        gap = np.abs(projector(F @ rows.T) - projector(oracle))
        assert np.max(gap, initial=0.0) <= 1e-12, label
        inside = intersect_shifted(M, m).frame_matrix()
        gap = np.abs(projector(F @ null.T) - projector(inside))
        assert np.max(gap, initial=0.0) <= 1e-12, label
        E = extract_kernels(M, m)
        want = kernel_from_complement(oracle, m, max(M.rank_tol, EXACT_TOL))
        assert np.array_equal(E.any(axis=0), want.any(axis=0)), label
        assert np.max(np.abs(E - want)) <= 1e-12, label


@pytest.mark.parametrize("m, count", [(2, 1), (3, 1), (3, 2), (4, 3)])
def test_kernel_of_a_block_span_lies_below_degree_m(rng, m, count):
    # span{z^(m l) q_i}, q_i of degree below m: the kernel entries span the
    # q_i exactly, with no rounding dust at or past degree m, so the peel
    # reads m rows of the kernel column
    G = np.zeros((CAP + 1, count * 6), dtype=complex)
    for i in range(count):
        q = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        for l in range(6):
            G[m * l: m * l + m, 6 * i + l] = q
    E = extract_kernels(orthonormalize(G), m)
    assert E.any(axis=0).tolist() == [True] * count + [False] * (m - count)
    assert not E[m:].any()


@pytest.mark.parametrize("m", [2.0, 2.5, "2", True, np.float64(3)])
def test_kernel_arity_is_refused_unless_an_integer(m):
    # the span is never read: the arity is checked before any work
    for call in (extract_kernels, build_j_map):
        with pytest.raises(ParamOutOfRange, match="must be an integer"):
            call(None, m)


@pytest.mark.parametrize("max_iter", [2.0, 2.5, "3", True, False, -1])
def test_max_iter_is_refused_unless_a_nonnegative_integer(max_iter):
    M = span([1, 1], [0, 0, 1, 1])
    E = extract_kernels(M, 2)
    with pytest.raises(ParamOutOfRange, match="max_iter .* None or a nonnegative integer"):
        hitt_decompose(TaylorPoly([1, 1], CAP), M, E, max_iter)


def test_numpy_integers_are_an_arity_and_a_max_iter():
    M = span([1, 1], [0, 0, 1, 1])
    E = extract_kernels(M, np.int64(2))
    assert np.array_equal(E, extract_kernels(M, 2))
    assert len(build_j_map(M, np.int32(2)).iterations) == 2
    f = TaylorPoly([0, 0, 1, 1], CAP)
    dec = hitt_decompose(f, M, E, np.int64(5))
    assert dec.iterations == hitt_decompose(f, M, E, 5).iterations == 2
