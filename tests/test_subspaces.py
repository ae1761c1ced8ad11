import numpy as np
import pytest

from hardyshift import (EmptyInput, MonomialSubspace, NotASubspaceOf, OutOfCap,
                        ParamOutOfRange, SpanSubspace, intersect,
                        intersect_shifted, monomial_membership,
                        ortho_complement_within, orthonormalize, project,
                        taylor, vector)
from hardyshift.series import allclose, inner_product, sub

from conftest import random_taylor

CAP = 32


def gram(frame):
    return np.array([[inner_product(a, b) for b in frame] for a in frame])


def test_orthonormalize_disjoint_support():
    M = orthonormalize([taylor([1, 1], CAP), taylor([0, 0, 1, 1], CAP)])
    assert M.dim == 2
    assert allclose(M.frame[0], taylor(np.array([1, 1]) / np.sqrt(2), CAP), 1e-15)
    assert allclose(M.frame[1], taylor(np.array([0, 0, 1, 1]) / np.sqrt(2), CAP), 1e-15)


def test_orthonormalize_drops_dependents():
    M = orthonormalize([taylor([1, 1], CAP), taylor([2, 2], CAP)])
    assert M.dim == 1
    assert M.dropped == (1,)


def test_orthonormalize_gram_after():
    M = orthonormalize([taylor([1, 1, 1], CAP), taylor([0, 1, 2], CAP)])
    # pre-orthonormalization Gram of the generators is [[3, 3], [3, 5]]
    G = np.array([[inner_product(a, b) for b in M.generators] for a in M.generators])
    assert np.allclose(G, [[3, 3], [3, 5]])
    assert np.max(np.abs(gram(M.frame) - np.eye(2))) < 1e-10


def test_frame_matrix_is_the_stored_read_only_array(rng):
    M = orthonormalize([random_taylor(rng, 5, CAP) for _ in range(3)])
    fm = M.frame_matrix()
    assert fm is M.frame_matrix()
    assert fm.shape == (CAP + 1, 3)
    assert not fm.flags.writeable


def test_span_built_from_elements_gives_them_back(rng):
    frame = orthonormalize([random_taylor(rng, 5, CAP) for _ in range(2)]).frame
    M = SpanSubspace(frame, CAP, 1)
    assert all(allclose(got, want) for got, want in zip(M.frame, frame))
    F = vector([random_taylor(rng, 3, CAP), random_taylor(rng, 4, CAP)])
    V = SpanSubspace((F,), CAP, 2)
    assert all(allclose(a, b) for a, b in zip(V.frame[0].components, F.components))


def test_orthonormalize_empty_input():
    with pytest.raises(EmptyInput):
        orthonormalize([])


def test_orthonormalize_rejects_non_finite_generators():
    with pytest.raises(ParamOutOfRange):
        orthonormalize([taylor([1, 0, 0, np.nan], CAP), taylor([0, 1], CAP)])
    with pytest.raises(ParamOutOfRange):
        orthonormalize([taylor([1, np.inf], CAP)])


def test_project_gram_solve_example():
    M = orthonormalize([taylor([1, 1, 1], CAP), taylor([0, 1, 2], CAP)])
    proj, residual, _ = project(taylor([1], CAP), M)
    assert allclose(proj, taylor(np.array([5, 2, -1]) / 6.0, CAP), 1e-12)
    assert residual == pytest.approx(np.sqrt(1 - 30 / 36), rel=1e-10)


def test_project_member_is_fixed(rng):
    M = orthonormalize([random_taylor(rng, 6, CAP) for _ in range(3)])
    f = M.member_from_coords([1.0, -2.0j, 0.5])
    proj, residual, _ = project(f, M)
    assert residual < 1e-12
    assert allclose(proj, f, 1e-12)


def test_project_disjoint_support_is_zero():
    M = orthonormalize([taylor([1, 1], CAP)])
    proj, residual, _ = project(taylor([0] * 5 + [1], CAP), M)
    assert proj.is_zero()
    assert residual == pytest.approx(1.0)


def test_projection_idempotent_and_contractive(rng):
    M = orthonormalize([random_taylor(rng, 8, CAP) for _ in range(4)])
    f = random_taylor(rng, 12, CAP)
    p1 = project(f, M).projection
    p2 = project(p1, M).projection
    assert sub(p2, p1).norm() < 1e-12
    assert p1.norm() <= f.norm() + 1e-12


def test_intersect_shifted_examples():
    M = orthonormalize([taylor([1, 1], CAP), taylor([0, 0, 1, 1], CAP)])
    N = intersect_shifted(M, 2)
    assert N.dim == 1
    got = N.frame[0]
    want = taylor(np.array([0, 0, 1, 1]) / np.sqrt(2), CAP)
    assert min(sub(got, want).norm(), sub(got, (-1) * want).norm()) < 1e-12

    M = orthonormalize([taylor([1, 1, 1], CAP), taylor([0, 1, 2], CAP)])
    assert intersect_shifted(M, 2).dim == 0

    M = orthonormalize([taylor([1, 1], CAP), taylor([0, 1, 1], CAP),
                        taylor([0, 0, 0, 1, 1], CAP)])
    N = intersect_shifted(M, 2)
    assert N.dim == 1
    assert project(taylor([0, 0, 0, 1, 1], CAP), N).residual < 1e-10


def test_intersect_shifted_validates_k():
    M = orthonormalize([taylor([1], CAP)])
    with pytest.raises(ParamOutOfRange):
        intersect_shifted(M, 0)


def test_rank_accounting(rng):
    M = orthonormalize([random_taylor(rng, 6, CAP) for _ in range(4)])
    inner = intersect_shifted(M, 3)
    comp = ortho_complement_within(M, inner)
    assert inner.dim + comp.dim == M.dim


def test_ortho_complement_examples():
    g1 = taylor([1, 1], CAP)
    g2 = taylor([0, 0, 1, 1], CAP)
    M = orthonormalize([g1, g2])
    N = orthonormalize([g2])
    C = ortho_complement_within(M, N)
    assert C.dim == 1
    assert project(g1, C).residual < 1e-12
    assert ortho_complement_within(M, M).dim == 0
    first = SpanSubspace((M.frame[0],), CAP, 1)
    assert ortho_complement_within(M, first).dim == 1


def test_ortho_complement_rejects_outsiders():
    M = orthonormalize([taylor([1, 1], CAP)])
    N = orthonormalize([taylor([0, 0, 1], CAP)])
    with pytest.raises(NotASubspaceOf):
        ortho_complement_within(M, N)


def test_intersect_general(rng):
    # span{e1, e2} ∩ span{e2, e3} = span{e2}
    e1, e2, e3 = (taylor([1], CAP), taylor([0, 1], CAP), taylor([0, 0, 1], CAP))
    A = orthonormalize([e1, e2])
    B = orthonormalize([e2, e3])
    C = intersect(A, B)
    assert C.dim == 1
    assert project(e2, C).residual < 1e-12


def test_vector_arity_spaces(rng):
    gens = [vector([random_taylor(rng, 4, CAP), random_taylor(rng, 4, CAP)])
            for _ in range(3)]
    M = orthonormalize(gens)
    assert M.arity == 2
    assert M.dim == 3
    inner = intersect_shifted(M, 1)
    # constants in both components are killed: two scalar constraints
    assert inner.dim == 1
    for w in inner.frame:
        for comp in w.components:
            assert abs(comp.coeff(0)) < 1e-10


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
