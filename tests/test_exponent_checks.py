"""The exponent-set checks against the per-exponent loops they replace.

The reference is the exponent-at-a-time algorithm, written out here: for
each exponent in increasing order, skip or exclude it by the checker's
domain rule, map z^e to its image, test membership with
``monomial_membership`` and stop at the first non-member.  Both sides
must agree on the whole report (check, operator, verdict, witness
element, image and note, ``tested``, ``untested``, payload types) and on
the errors they raise.
"""

import json

import numpy as np
import pytest

from hardyshift import (BlaschkeProduct, BudgetExceeded, DimensionMismatch,
                        MonomialSubspace, OperatorSpec, check_invariance,
                        check_near_invariance, monomial_membership)
from hardyshift.invariance import CheckReport, Witness
from hardyshift.report import check_payload


def _order(op):
    if op.blaschke is None:
        return op.power
    if any(z != 0 for z in op.blaschke.zeros):
        raise DimensionMismatch("monomial subspaces support shift-type operators only")
    return op.power * op.blaschke.degree


def ref_invariance(M, op):
    order = _order(op)
    untested, tested, witness = [], 0, None
    if not op.star:
        top = M.cap - order
        skipped = [int(e) for e in M.exponents() if e > top]
        if skipped:
            untested.append(f"exponents above {top} excluded (image would exceed cap {M.cap})")
        testable = [int(e) for e in M.exponents() if e <= top]
        if not testable and skipped:
            raise BudgetExceeded("no testable exponent band remains under the cap")
        for e in testable:
            tested += 1
            if not monomial_membership(e + order, M):
                witness = Witness(e, e + order, 1.0,
                                  f"z^{e} maps to z^{e + order} outside the set")
                break
    else:
        for e in (int(x) for x in M.exponents()):
            tested += 1
            if e - order < 0:
                continue  # the adjoint sends it to 0, always a member
            if not monomial_membership(e - order, M):
                witness = Witness(e, e - order, 1.0,
                                  f"z^{e} maps to z^{e - order} outside the set")
                break
    return CheckReport("invariance", op.describe(), M.label or "M",
                       "FAIL" if witness else "PASS", witness, tuple(untested), tested)


def ref_near_invariance(M, op):
    T, Tstar = (OperatorSpec(op.power, star, op.blaschke) for star in (False, True))
    order = _order(T)
    tested, witness = 0, None
    for e in (int(x) for x in M.exponents()):
        if e < order:
            continue  # z^e is not in T(H^2)
        tested += 1
        if not monomial_membership(e - order, M):
            witness = Witness(e, e - order, 1.0,
                              f"z^{e} lies in the range but maps to z^{e - order} outside")
            break
    return CheckReport("near-invariance", Tstar.describe(), M.label or "M",
                       "FAIL" if witness else "PASS", witness, (), tested)


def _outcome(fn, M, op):
    try:
        rep = fn(M, op)
    except (BudgetExceeded, DimensionMismatch) as exc:
        return type(exc), str(exc)
    # the payload must serialize as it did: plain ints, tuples of str
    return rep, json.dumps(check_payload(rep))


def assert_same(M, op):
    for fn, ref in ((check_invariance, ref_invariance),
                    (check_near_invariance, ref_near_invariance)):
        got, want = _outcome(fn, M, op), _outcome(ref, M, op)
        assert got == want, (M, op, fn.__name__)
        if isinstance(got[0], CheckReport):
            assert type(got[0].tested) is int
            assert type(got[0].untested) is tuple


def _operators(order_max: int):
    """Every monomial operator kind at the given order, plus one off-origin
    Toeplitz symbol, which monomial models refuse."""
    ops = [OperatorSpec(order_max), OperatorSpec(order_max, True),
           OperatorSpec(order_max, False, BlaschkeProduct(1.0, [0.0])),
           OperatorSpec(order_max, True, BlaschkeProduct(1j, [0.0]))]
    d = 2 + order_max % 2
    if order_max % d == 0:
        B = BlaschkeProduct(-1.0, [0.0] * d)
        ops += [OperatorSpec(order_max // d, False, B),
                OperatorSpec(order_max // d, True, B)]
    return ops + [OperatorSpec(1, False, BlaschkeProduct(1.0, [0.0, 0.5]))]


@pytest.mark.parametrize("M", [
    MonomialSubspace((2, 3), 48, label="M1"),
    MonomialSubspace((3, 5), 48, label="M2"),
    MonomialSubspace((3, 4, 5), 24, label="C+z3H2"),
    MonomialSubspace((1,), 0),
    MonomialSubspace((7,), 5, frozenset({2, 5})),
    MonomialSubspace((4, 6), 30, frozenset({1, 9, 30})),
], ids=lambda M: f"{M.semigroup_generators}-{M.cap}")
@pytest.mark.parametrize("order", [1, 2, 3, 5, 6, 24, 25, 47, 48, 49, 60, 10 ** 30])
def test_exponent_checks_match_the_per_exponent_loops(M, order):
    for op in _operators(order):
        assert_same(M, op)


@pytest.mark.parametrize("seed", range(8))
def test_random_semigroup_models_match_the_per_exponent_loops(seed):
    rng = np.random.default_rng([seed, 9])
    for _ in range(25):
        cap = int(rng.integers(0, 61))
        gens = tuple(int(g) for g in rng.integers(1, 16, size=rng.integers(1, 4)))
        exc = frozenset(int(e) for e in rng.integers(0, cap + 1, size=rng.integers(0, 5)))
        M = MonomialSubspace(gens, cap, exc)
        for order in {1, int(rng.integers(1, cap + 2)), cap, cap + 1, cap + 7} - {0}:
            for op in _operators(order):
                assert_same(M, op)


def test_the_band_and_the_raises_are_as_before():
    M = MonomialSubspace((2, 3), 10, label="M")
    rep = check_invariance(M, OperatorSpec(4))
    assert rep.untested == ("exponents above 6 excluded (image would exceed cap 10)",)
    assert rep.tested == 6 and rep.passed  # exponents 0 and 2..6
    with pytest.raises(BudgetExceeded, match="no testable exponent band"):
        check_invariance(M, OperatorSpec(11))
    # nothing of the set lies in the range: a PASS with nothing tested
    rep = check_near_invariance(M, OperatorSpec(11, True))
    assert rep.passed and rep.tested == 0 and rep.untested == ()
    # the adjoint of an order past the cap sends everything to 0
    rep = check_invariance(M, OperatorSpec(10 ** 30, True))
    assert rep.passed and rep.tested == M.exponents().size
    for fn in (check_invariance, check_near_invariance):
        with pytest.raises(DimensionMismatch, match="shift-type operators only"):
            fn(M, OperatorSpec(1, False, BlaschkeProduct(1.0, [0.3])))


def test_witnesses_are_the_first_non_members():
    M = MonomialSubspace((2, 3), 48, label="M1")
    rep = check_invariance(M, OperatorSpec(1))
    assert rep.witness == Witness(0, 1, 1.0, "z^0 maps to z^1 outside the set")
    assert rep.tested == 1
    rep = check_invariance(M, OperatorSpec(2, True))
    assert rep.witness == Witness(3, 1, 1.0, "z^3 maps to z^1 outside the set")
    assert rep.tested == 3  # z^0 maps to the zero element, z^2 to z^0
    rep = check_near_invariance(M, OperatorSpec(2))
    assert rep.operator == "(S^2)*"
    assert rep.witness == Witness(3, 1, 1.0,
                                  "z^3 lies in the range but maps to z^1 outside")
    assert rep.tested == 2  # 0 lies outside the range
