import ast
import pathlib

import numpy as np
import pytest

from hardyshift import subspaces
from hardyshift import (MonomialSubspace, NotASubspaceOf, OutOfCap,
                        ParamOutOfRange, SpanSubspace, TaylorPoly, VectorPoly,
                        from_poly_grid, intersect, intersect_shifted, monomial_membership,
                        mul, ortho_complement_within, orthonormalize, project,
                        shift_pow)
from hardyshift.invariance import build_theta_range
from hardyshift.series import inner_product, scale, sub
from hardyshift.subspaces import _orthonormal_columns
from hardyshift.tolerances import EPS, RANK_TOL

from conftest import allclose, random_taylor, stacked

CAP = 32


def gram(columns):
    elements = [TaylorPoly(c, CAP) for c in columns]
    return np.array([[inner_product(a, b) for b in elements] for a in elements])


def test_orthonormalize_disjoint_support():
    M = orthonormalize(stacked(TaylorPoly([1, 1], CAP), TaylorPoly([0, 0, 1, 1], CAP)))
    assert M.dim == 2
    F = M.frame_matrix()
    assert allclose(TaylorPoly(F[:, 0], CAP), TaylorPoly(np.array([1, 1]) / np.sqrt(2), CAP),
                    1e-15)
    assert allclose(TaylorPoly(F[:, 1], CAP),
                    TaylorPoly(np.array([0, 0, 1, 1]) / np.sqrt(2), CAP), 1e-15)


def test_orthonormalize_drops_dependents():
    M = orthonormalize(stacked(TaylorPoly([1, 1], CAP), TaylorPoly([2, 2], CAP)))
    assert M.dim == 1
    assert M.dropped == (1,)


def test_orthonormalize_gram_after():
    M = orthonormalize(stacked(TaylorPoly([1, 1, 1], CAP), TaylorPoly([0, 1, 2], CAP)))
    # pre-orthonormalization Gram of the generators is [[3, 3], [3, 5]]
    assert np.allclose(gram(M.generators), [[3, 3], [3, 5]])
    assert np.max(np.abs(gram(M.frame_matrix().T) - np.eye(2))) < 1e-10


def test_frame_matrix_is_the_stored_read_only_array(rng):
    M = orthonormalize(stacked(*(random_taylor(rng, 5, CAP) for _ in range(3))))
    fm = M.frame_matrix()
    assert fm is M.frame_matrix()
    assert fm.shape == (CAP + 1, 3)
    assert not fm.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_span_refuses_a_non_finite_frame(bad):
    F = np.zeros((CAP + 1, 1), dtype=complex)
    F[[0, 3], 0] = [1.0, bad]
    with pytest.raises(ParamOutOfRange, match="non-finite"):
        SpanSubspace(F, CAP, 1)


@pytest.mark.parametrize("arity", [1, 2])
def test_orthonormalize_of_no_columns_is_the_empty_span(arity):
    M = orthonormalize(np.zeros((arity * (CAP + 1), 0)), 1e-7, label="E", band=5,
                       arity=arity)
    assert (M.dim, M.cap, M.arity, M.label, M.band, M.rank_tol) == (0, CAP, arity, "E", 5, 1e-7)
    assert M.frame_matrix().shape == (arity * (CAP + 1), 0)
    assert M.generators == () and M.dropped == ()


def test_empty_spans_take_the_general_path(rng):
    M = orthonormalize(stacked(*(random_taylor(rng, 6, CAP) for _ in range(3))),
                       label="M", band=9)
    Z = SpanSubspace(np.zeros((CAP + 1, 0)), CAP, 1, label="Z")
    C = ortho_complement_within(M, Z)  # the identity combination is exact
    assert np.array_equal(C.frame_matrix(), M.frame_matrix())
    assert (C.label, C.band) == ("M ⊖ Z", 9)
    for N, label, band in ((intersect(M, Z), "(M) ∩ (Z)", 9),
                           (intersect(Z, M), "(Z) ∩ (M)", None),
                           (ortho_complement_within(Z, Z), "Z ⊖ Z", None),
                           (intersect_shifted(Z, 2), "Z ∩ S^2H2", None)):
        assert (N.dim, N.cap, N.arity, N.label, N.band) == (0, CAP, 1, label, band)
        assert N.frame_matrix().shape == (CAP + 1, 0)


@pytest.mark.parametrize("arity", [0, -1, 2, 3])
def test_orthonormalize_checks_the_arity_before_any_work(monkeypatch, arity):
    def no_work(*args, **kwargs):
        raise AssertionError("the generators were orthonormalized")

    monkeypatch.setattr(subspaces, "_orthonormal_columns", no_work)
    monkeypatch.setattr(subspaces, "_cgs2", no_work)
    with pytest.raises(ParamOutOfRange, match=f"^7 rows do not stack {arity} component blocks$"):
        orthonormalize(np.eye(7)[:, :2], arity=arity)


@pytest.mark.parametrize("arity", [2.0, True, 1.5, "2"])
def test_orthonormalize_refuses_a_non_integer_arity_before_any_work(monkeypatch, arity):
    def no_work(*args, **kwargs):
        raise AssertionError("the generators were orthonormalized")

    monkeypatch.setattr(subspaces, "_orthonormal_columns", no_work)
    monkeypatch.setattr(subspaces, "_cgs2", no_work)
    with pytest.raises(ParamOutOfRange, match=f"^arity must be an integer, got {arity!r}$"):
        orthonormalize(np.eye(6)[:, :2], arity=arity)


@pytest.mark.parametrize("cap, arity", [(2, 2.0), (2, True), (2.0, 2), (True, 3)])
def test_span_refuses_a_non_integer_arity_or_cap(cap, arity):
    # each pair gives the matrix's 6 rows when read as numbers
    with pytest.raises(ParamOutOfRange, match="must be integers$"):
        SpanSubspace(np.eye(6)[:, :2], cap, arity)


def test_numpy_integers_are_an_arity_and_a_cap():
    M = orthonormalize(np.eye(6)[:, :2], arity=np.int64(2))
    assert (M.arity, M.cap, M.dim) == (2, 2, 2)
    assert SpanSubspace(np.eye(6)[:, :2], np.int32(2), np.uint8(2)).dim == 2


@pytest.mark.parametrize("gens, cap, exceptional", [
    ((2.5,), 10, ()), ((True,), 10, ()), ((2,), 10.0, ()), ((2,), True, ()),
    ((2,), 10, (3.7,)), ((2,), 10, (True,)),
])
def test_monomial_model_refuses_non_integers(gens, cap, exceptional):
    with pytest.raises(ParamOutOfRange, match="must be integers$"):
        MonomialSubspace(gens, cap, frozenset(exceptional))


@pytest.mark.parametrize("k", [True, 1.0, 1.5, "1"])
def test_intersect_shifted_refuses_a_non_integer_order_before_any_work(monkeypatch, k):
    M = orthonormalize(np.eye(9)[:, :3])

    def no_work(*args, **kwargs):
        raise AssertionError("the intersection was computed")

    monkeypatch.setattr(subspaces, "_null_span", no_work)
    with pytest.raises(ParamOutOfRange, match="shift order k must be an integer >= 1"):
        intersect_shifted(M, k)


def test_numpy_integers_are_monomial_model_parameters_and_a_shift_order():
    M = MonomialSubspace((np.int64(3), np.int32(2)), np.int64(10), frozenset({np.int64(1)}))
    assert M.exponents().tolist() == MonomialSubspace((2, 3), 10, frozenset({1})).exponents().tolist()
    S = orthonormalize(np.eye(9)[:, :3])
    assert intersect_shifted(S, np.int64(2)).dim == intersect_shifted(S, 2).dim == 1


def test_orthonormalize_rejects_non_finite_generators():
    with pytest.raises(ParamOutOfRange):
        orthonormalize(stacked(TaylorPoly([1, 0, 0, np.nan], CAP), TaylorPoly([0, 1], CAP)))
    with pytest.raises(ParamOutOfRange):
        orthonormalize(stacked(TaylorPoly([1, np.inf], CAP)))


def test_project_gram_solve_example():
    M = orthonormalize(stacked(TaylorPoly([1, 1, 1], CAP), TaylorPoly([0, 1, 2], CAP)))
    proj, residual, _ = project(TaylorPoly([1], CAP).padded(CAP + 1), M)
    assert allclose(TaylorPoly(proj, CAP), TaylorPoly(np.array([5, 2, -1]) / 6.0, CAP), 1e-12)
    assert residual == pytest.approx(np.sqrt(1 - 30 / 36), rel=1e-10)


def test_project_member_is_fixed(rng):
    M = orthonormalize(stacked(*(random_taylor(rng, 6, CAP) for _ in range(3))))
    f = M.frame_matrix() @ np.array([1.0, -2.0j, 0.5])
    proj, residual, _ = project(f, M)
    assert residual < 1e-12
    assert allclose(TaylorPoly(proj, CAP), TaylorPoly(f, CAP), 1e-12)


def test_project_disjoint_support_is_zero():
    M = orthonormalize(stacked(TaylorPoly([1, 1], CAP)))
    proj, residual, _ = project(TaylorPoly([0] * 5 + [1], CAP).padded(CAP + 1), M)
    assert TaylorPoly(proj, CAP).deg() < 0
    assert residual == pytest.approx(1.0)


def test_project_refuses_a_column_of_another_length():
    M = orthonormalize(stacked(TaylorPoly([1, 1], CAP)))
    for y in (np.ones(CAP), np.ones((CAP + 1, 1))):
        with pytest.raises(ValueError, match="column length"):
            project(y, M)


def test_projection_idempotent_and_contractive(rng):
    M = orthonormalize(stacked(*(random_taylor(rng, 8, CAP) for _ in range(4))))
    f = random_taylor(rng, 12, CAP)
    p1 = TaylorPoly(project(f.padded(CAP + 1), M).projection, CAP)
    p2 = TaylorPoly(project(p1.padded(CAP + 1), M).projection, CAP)
    assert sub(p2, p1).norm() < 1e-12
    assert p1.norm() <= f.norm() + 1e-12


def test_intersect_shifted_examples():
    M = orthonormalize(stacked(TaylorPoly([1, 1], CAP), TaylorPoly([0, 0, 1, 1], CAP)))
    N = intersect_shifted(M, 2)
    assert N.dim == 1
    got = TaylorPoly(N.frame_matrix()[:, 0], CAP)
    want = TaylorPoly(np.array([0, 0, 1, 1]) / np.sqrt(2), CAP)
    assert min(sub(got, want).norm(), sub(got, scale(want, -1)).norm()) < 1e-12

    M = orthonormalize(stacked(TaylorPoly([1, 1, 1], CAP), TaylorPoly([0, 1, 2], CAP)))
    assert intersect_shifted(M, 2).dim == 0

    M = orthonormalize(stacked(TaylorPoly([1, 1], CAP), TaylorPoly([0, 1, 1], CAP),
                               TaylorPoly([0, 0, 0, 1, 1], CAP)))
    N = intersect_shifted(M, 2)
    assert N.dim == 1
    assert project(TaylorPoly([0, 0, 0, 1, 1], CAP).padded(CAP + 1), N).residual < 1e-10


def test_intersect_shifted_validates_k():
    M = orthonormalize(stacked(TaylorPoly([1], CAP)))
    with pytest.raises(ParamOutOfRange):
        intersect_shifted(M, 0)


def test_rank_accounting(rng):
    M = orthonormalize(stacked(*(random_taylor(rng, 6, CAP) for _ in range(4))))
    inner = intersect_shifted(M, 3)
    comp = ortho_complement_within(M, inner)
    assert inner.dim + comp.dim == M.dim


def test_ortho_complement_examples():
    g1, g2 = stacked(TaylorPoly([1, 1], CAP), TaylorPoly([0, 0, 1, 1], CAP)).T
    M = orthonormalize(np.column_stack([g1, g2]))
    N = orthonormalize(g2[:, None])
    C = ortho_complement_within(M, N)
    assert C.dim == 1
    assert project(g1, C).residual < 1e-12
    assert ortho_complement_within(M, M).dim == 0
    first = SpanSubspace(M.frame_matrix()[:, :1], CAP, 1)
    assert ortho_complement_within(M, first).dim == 1


def test_ortho_complement_rejects_outsiders():
    M = orthonormalize(stacked(TaylorPoly([1, 1], CAP)))
    N = orthonormalize(stacked(TaylorPoly([0, 0, 1], CAP)))
    with pytest.raises(NotASubspaceOf):
        ortho_complement_within(M, N)


def test_intersect_general(rng):
    # span{e1, e2} ∩ span{e2, e3} = span{e2}
    e1, e2, e3 = stacked(TaylorPoly([1], CAP), TaylorPoly([0, 1], CAP),
                         TaylorPoly([0, 0, 1], CAP)).T
    A = orthonormalize(np.column_stack([e1, e2]))
    B = orthonormalize(np.column_stack([e2, e3]))
    C = intersect(A, B)
    assert C.dim == 1
    assert project(e2, C).residual < 1e-12


def test_vector_arity_spaces(rng):
    gens = [VectorPoly([random_taylor(rng, 4, CAP), random_taylor(rng, 4, CAP)])
            for _ in range(3)]
    M = orthonormalize(stacked(*gens), arity=2)
    assert M.arity == 2
    assert M.dim == 3
    inner = intersect_shifted(M, 1)
    # constants in both components are killed: two scalar constraints
    assert inner.dim == 1
    for w in inner.frame_matrix().T:
        for comp in w.reshape(2, CAP + 1):
            assert abs(comp[0]) < 1e-10


def test_monomial_membership_semigroups():
    M23 = MonomialSubspace((2, 3), 48)
    assert not monomial_membership(1, M23)
    assert monomial_membership(5, M23)
    assert monomial_membership(0, M23)

    M35 = MonomialSubspace((3, 5), 48)
    assert not monomial_membership(7, M35)
    assert monomial_membership(8, M35)

    full = MonomialSubspace((1,), 48)
    assert all(monomial_membership(e, full) for e in range(49))


def test_monomial_membership_brute_force_agreement():
    for a, b in ((2, 3), (3, 5), (3, 4), (4, 7)):
        M = MonomialSubspace((a, b), 60)
        reachable = {x * a + y * b for x in range(61) for y in range(61)}
        for e in range(61):
            assert monomial_membership(e, M) == (e in reachable)


def test_monomial_exceptional_and_bounds():
    M = MonomialSubspace((5,), 20, exceptional_exponents=frozenset({3}))
    assert monomial_membership(3, M)
    assert not monomial_membership(4, M)
    with pytest.raises(OutOfCap):
        monomial_membership(21, M)
    with pytest.raises(OutOfCap):
        monomial_membership(-1, M)
    with pytest.raises(ParamOutOfRange):
        MonomialSubspace((0,), 10)


def test_orthonormalize_leaves_a_matrix_input_unchanged(rng):
    G = 1e-300 * (rng.standard_normal((CAP + 1, 3)) + 1j * rng.standard_normal((CAP + 1, 3)))
    before = G.copy()
    M = orthonormalize(G)  # rescaled by a power of two inside, not in place
    assert M.dim == 3
    assert np.array_equal(G, before)


def test_near_dependent_generators_stay_orthonormal():
    # random rank-6 mixtures plus perturbations of size 1e-8.5 .. 1e-6:
    # the first pass leaves residuals of 1e-8.5 relative, the second pass
    # restores orthogonality to working precision
    rng = np.random.default_rng(1994)
    cap = 96
    base = rng.standard_normal((cap + 1, 6)) + 1j * rng.standard_normal((cap + 1, 6))
    mix = base @ (rng.standard_normal((6, 60)) + 1j * rng.standard_normal((6, 60)))
    noise = rng.standard_normal((cap + 1, 60)) + 1j * rng.standard_normal((cap + 1, 60))
    noise /= np.linalg.norm(noise, axis=0)
    G = mix + noise * 10.0 ** rng.uniform(-8.5, -6, 60) * np.linalg.norm(mix, axis=0)
    M = orthonormalize(G)
    assert M.dim > 6
    F = M.frame_matrix()
    assert np.max(np.abs(F.conj().T @ F - np.eye(M.dim))) <= 1e-14


def _mgs_reference(G, rank_tol):
    """Modified Gram-Schmidt with a second pass, one vector pair at a time:
    the loop orthonormalize ran before CGS2, kept as the reference.  A
    generator is dropped when its residual is below rank_tol times its
    own norm; no generator of the data below comes near that."""
    kept, dropped = [], []
    for idx, g in enumerate(G.T):
        w = g.copy()
        for _ in range(2):
            for u in kept:
                w -= np.vdot(u, w) * u
        nrm = np.linalg.norm(w)
        if nrm < rank_tol * np.linalg.norm(g):
            dropped.append(idx)
        else:
            kept.append(w / nrm)
    return np.column_stack(kept), tuple(dropped)


def test_cgs2_matches_the_modified_gram_schmidt_reference(rng):
    G = rng.standard_normal((CAP + 1, 8)) + 1j * rng.standard_normal((CAP + 1, 8))
    G[12:] = 0
    G = np.column_stack([G[:, :3], G[:, 0] - 2j * G[:, 2], G[:, 3:], 3 * G[:, 5]])
    M = orthonormalize(G)
    F, dropped = _mgs_reference(G, M.rank_tol)
    assert M.dropped == dropped == (3, 9)
    # one generator per column, dropped ones too: bench/tracing.py counts them
    assert np.array_equal(np.column_stack(M.generators), G)
    # the same basis up to rounding: the order of the sums changed
    assert np.max(np.abs(M.frame_matrix() - F)) <= 1e-13


def test_rank_is_decided_against_each_generators_own_norm():
    # 1 + e z^4, e z^2 and e span {1, z^2, z^4}: the constant keeps a
    # fraction e of its norm, above the rank tolerance, though its norm is
    # e times the largest
    e = 2.0 ** -24
    gens = stacked(TaylorPoly([1, 0, 0, 0, e], CAP), TaylorPoly([0, 0, e], CAP),
                   TaylorPoly([e], CAP))
    M = orthonormalize(gens)
    assert (M.dim, M.dropped) == (3, ())
    assert project(TaylorPoly([0, 0, 0, 0, 1], CAP).padded(CAP + 1), M).residual <= 1e-12
    # the unit generators have least singular value e / sqrt(2), so their
    # rounding moves the span by up to sqrt(2) EPS / e, and the span's rank
    # decisions read nothing finer
    assert M.rank_tol == pytest.approx(2 ** 0.5 * EPS / e, rel=1e-6)
    assert orthonormalize(gens[:, 1:]).rank_tol == RANK_TOL


def test_a_generator_kept_with_little_of_its_norm_left_keeps_its_direction():
    # e and (2 + d z^2) e span {e, z^2 e}; the second keeps a fraction of
    # about d of its norm, so its frame vector is off by about 2^-52/d,
    # 2e-8, in double precision and by about 2^-64/d, 2e-12, in extended
    d = 2.0 ** -24
    e = TaylorPoly([1.5, 1.0], CAP)
    M = orthonormalize(stacked(e, mul(TaylorPoly([2, 0, d], CAP), e)))
    assert M.dim == 2
    assert project(shift_pow(e, 2).padded(CAP + 1), M).residual <= 1e-10


def disjoint_columns(rng, count, scale=1.0):
    """count generators with disjoint supports of three coefficients each."""
    G = np.zeros((CAP + 1, count), dtype=complex)
    for j in range(count):
        G[3 * j: 3 * j + 3, j] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return G * scale


def test_orthogonal_generators_over_their_norms_are_the_frame(rng):
    G = disjoint_columns(rng, 6)
    G[:, 2] *= 1e-6  # orthogonality does not depend on the norms
    M = orthonormalize(G, 1e-9, label="D", band=7)
    assert np.array_equal(M.frame_matrix(), G / np.linalg.norm(G, axis=0))
    assert (M.dropped, M.rank_tol, M.label, M.band) == ((), 1e-9, "D", 7)
    assert np.array_equal(np.column_stack(M.generators), G)


def test_generators_off_orthogonal_by_1e_9_take_cgs2(rng):
    G = disjoint_columns(rng, 4)
    G[:, 1] += 1e-9 * G[:, 0]  # Gram entry about 1e-9, above EXACT_TOL
    M = orthonormalize(G)
    F = M.frame_matrix()
    assert np.max(np.abs(F.conj().T @ F - np.eye(4))) <= 1e-14
    # CGS2 took the first generator's direction out of the second
    assert abs(np.vdot(F[:, 0], F[:, 1])) <= 1e-16
    assert np.max(np.abs(F - G / np.linalg.norm(G, axis=0))) > 1e-10


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e200, "zero column"])
def test_orthogonal_generators_whose_norms_fail_the_test_take_cgs2(rng, scale):
    # a norm that under- or overflows, or is zero, fails the Gram test, and
    # CGS2's scale policy gives the frame and drops it always gave
    U = disjoint_columns(rng, 4)
    if scale == "zero column":
        U[:, 2] = 0
        G, dropped = U, (2,)
    else:
        G, dropped = U * scale, ()
    assert _orthonormal_columns(G) is None
    M = orthonormalize(G, 1e-9)
    kept = [j for j in range(4) if j not in dropped]
    want = U[:, kept] / np.linalg.norm(U[:, kept], axis=0)
    assert (M.dropped, M.rank_tol) == (dropped, 1e-9)
    assert np.max(np.abs(M.frame_matrix() - want)) <= 1e-15


@pytest.mark.parametrize("entries", [[[[1], [0]], [[0], [0, 1]]],  # inner: its own frame
                                     [[[1, 0.5], [0]], [[0], [0, 1]]]])  # CGS2
def test_range_builder_keeps_no_generators(entries):
    S = build_theta_range(from_poly_grid(entries), 2, CAP)
    assert S.dim > 0 and S.generators == () and S.dropped == ()
    assert S.frame_matrix().base is None  # no view into the lifted matrix


def test_subspaces_imports_nothing_from_the_element_modules():
    # a span is its matrix: nothing here builds or reads TaylorPoly or VectorPoly
    tree = ast.parse(pathlib.Path(subspaces.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "hardyshift." * (node.level > 0) + (node.module or "")
            imported.add(base)
            imported.update(f"{base.rstrip('.')}.{alias.name}" for alias in node.names)
    element_modules = ("hardyshift.series", "hardyshift.veclift")
    assert not [name for name in imported if name.startswith(element_modules)]
