"""The column checkers against a per-column reference loop.

The reference is the element-at-a-time algorithm, written out here with
its own arithmetic: for each frame vector in order, measure its effective
degree, exclude it if its image would pass the band, clip it, apply the
operator, project the image and stop at the first failure.
"""

import numpy as np
import pytest

from hardyshift import (BlaschkeProduct, BudgetExceeded, DimensionMismatch, OperatorSpec,
                        check_invariance, check_near_invariance,
                        intersect_shifted, orthonormalize, power_expansion,
                        taylor, vector)
from hardyshift.invariance import _canonical_pair, _toeplitz_range_meet
from hardyshift.subspaces import flatten_element

CAP = 40
B_OFF = BlaschkeProduct(1.0, [0.4, -0.3j])
B_MONO = BlaschkeProduct(1j, [0, 0])


def ref_effective_degree(c, mass_tol):
    tail = np.cumsum((np.abs(c) ** 2)[::-1])[::-1]
    keep = np.flatnonzero(tail > mass_tol ** 2)
    return int(keep[-1]) if keep.size else -1


def ref_apply(op, c, cap):
    """op on one component's coefficient vector of length cap+1."""
    if op.kind == "toeplitz" and all(z == 0 for z in op.blaschke.zeros):
        c = c * op.blaschke.lam ** op.power
        op = OperatorSpec.shift(op.power * op.blaschke.degree)
    k = op.power
    if op.kind == "coshift":
        return np.concatenate([c[k:], np.zeros(min(k, cap + 1))])
    if op.kind == "shift":
        nz = np.flatnonzero(c)
        if nz.size and nz[-1] + k > cap:
            raise BudgetExceeded("reference shift passes the cap")
        return np.concatenate([np.zeros(k), c])[: cap + 1]
    b = power_expansion(op.blaschke, k, cap).padded(cap + 1)
    if op.kind == "toeplitz":
        return np.convolve(b, c)[: cap + 1]
    return np.correlate(c, b, "full")[cap:]


def ref_image(op, u, arity, cap):
    comps = u.reshape(arity, cap + 1)
    return np.concatenate([ref_apply(op, c, cap) for c in comps])


def ref_residual(F, v):
    return float(np.linalg.norm(v - F @ (F.conj().T @ v)))


def ref_invariance(M, op, tol=1e-8):
    F = M.frame_matrix()
    n = M.cap + 1
    gain = op.formal_degree_gain()
    limit = M.effective_band
    untested, tested = [], 0
    for idx in range(M.dim):
        u = F[:, idx]
        eff = max(ref_effective_degree(c, 0.25 * tol) for c in u.reshape(M.arity, n))
        if gain and eff + gain > limit:
            untested.append(f"frame[{idx}] (support {eff}) excluded: image exceeds band {limit}")
            continue
        clipped = np.where(np.tile(np.arange(n), M.arity) <= eff, u, 0) if gain else u
        img = ref_image(op, clipped, M.arity, M.cap)
        tested += 1
        r = ref_residual(F, img)
        if not r <= tol:
            return (idx, u, img, r), tested, tuple(untested)
    if M.dim and tested == 0 and untested:
        raise BudgetExceeded("no testable band remains under the cap")
    return None, tested, tuple(untested)


def ref_near_invariance(M, op, tol=1e-8):
    T, Tstar = _canonical_pair(op)
    inside = intersect_shifted(M, T.power) if T.kind == "shift" else _toeplitz_range_meet(M, T)
    W = inside.frame_matrix()
    for idx in range(inside.dim):
        img = ref_image(Tstar, W[:, idx], M.arity, M.cap)
        r = ref_residual(M.frame_matrix(), img)
        if not r <= tol:
            return (idx, W[:, idx], img, r), idx + 1, ()
    return None, inside.dim, ()


def assert_same(rep, ref):
    witness, tested, untested = ref
    assert rep.tested == tested
    assert rep.untested == untested
    assert rep.verdict == ("PASS" if witness is None else "FAIL")
    if witness is None:
        assert rep.witness is None
        return
    idx, element, image, residual = witness
    assert rep.witness.note.split("[")[1].split("]")[0] == str(idx)
    assert np.array_equal(flatten_element(rep.witness.element, CAP), element)
    got = flatten_element(rep.witness.image, CAP)
    assert np.linalg.norm(got - image) <= 1e-12 * np.linalg.norm(image)
    assert rep.witness.residual == pytest.approx(residual, rel=1e-12)


def poly(coeffs):
    return taylor(coeffs, CAP)


def shifted(c, k):
    return np.concatenate([np.zeros(k), c])


def element(arity, coeffs_list):
    if arity == 1:
        return poly(coeffs_list[0])
    return vector([poly(c) for c in coeffs_list])


def spans(rng):
    """Random spans of arity 1 and 2 with a declared band 34.

    "broken" holds the first members of a family z^(2j) q, a member of
    degree 34 (excluded under S^2), a random breaker, the rest of the
    family and two more members of degree 36 and 38, so that band
    exclusions fall on both sides of the S^2 witness.  "stable" is the
    family up to degree 34 and passes S^2 with its top member excluded.
    """
    out = []
    for arity in (1, 2):
        q = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(arity)]
        family = [element(arity, [shifted(c, 2 * j) for c in q]) for j in range(17)]
        breaker = element(arity, [rng.standard_normal(5) + 1j * rng.standard_normal(5)
                                  for _ in range(arity)])
        gens = family[:2] + [family[16], breaker] + family[2:6] + [
            element(arity, [shifted(c, 34 + 2 * j) for c in q]) for j in (1, 2)]
        out.append(orthonormalize(gens, label=f"broken{arity}", band=34))
        out.append(orthonormalize(family, label=f"stable{arity}", band=34))
    return out


def operators(arity):
    ops = [OperatorSpec.shift(2), OperatorSpec.shift(3), OperatorSpec.coshift(2),
           OperatorSpec.coshift(1)]
    if arity == 1:
        ops += [OperatorSpec.toeplitz(B_OFF, 1), OperatorSpec.toeplitz_adjoint(B_OFF, 2),
                OperatorSpec.toeplitz(B_MONO, 1), OperatorSpec.toeplitz_adjoint(B_MONO, 1)]
    return ops


def test_check_invariance_matches_reference_loop(rng):
    verdicts = set()
    for M in spans(rng):
        for op in operators(M.arity):
            rep = check_invariance(M, op)
            assert_same(rep, ref_invariance(M, op))
            verdicts.add((rep.verdict, bool(rep.untested)))
    assert verdicts == {("PASS", True), ("FAIL", True), ("FAIL", False)}


def test_check_near_invariance_matches_reference_loop(rng):
    verdicts = set()
    for M in spans(rng):
        for op in operators(M.arity):
            rep = check_near_invariance(M, op)
            assert_same(rep, ref_near_invariance(M, op))
            verdicts.add(rep.verdict)
    assert verdicts == {"PASS", "FAIL"}


@pytest.mark.parametrize("arity", [1, 2])
def test_exclusions_after_the_witness_are_not_listed(rng, arity):
    M = spans(rng)[2 * (arity - 1)]
    rep = check_invariance(M, OperatorSpec.shift(2))
    assert rep.witness.note == "frame[3] image leaves the span"
    assert rep.tested == 3
    assert rep.untested == ("frame[2] (support 34) excluded: image exceeds band 34",)
    # frames 8 and 9 (degrees 36 and 38) are excluded too, after the witness
    eff = [max(ref_effective_degree(c, 0.25e-8) for c in u.reshape(arity, CAP + 1))
           for u in M.frame_matrix().T]
    assert [i for i, d in enumerate(eff) if d + 2 > 34] == [2, 8, 9]


def test_toeplitz_symbols_reject_vector_spans(rng):
    M = spans(rng)[2]
    for op in (OperatorSpec.toeplitz(B_OFF, 1), OperatorSpec.toeplitz_adjoint(B_MONO, 1)):
        for check in (check_invariance, check_near_invariance):
            with pytest.raises(DimensionMismatch):
                check(M, op)
