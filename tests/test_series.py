import numpy as np
import pytest

from hardyshift import (BudgetExceeded, ParamOutOfRange, TaylorPoly, coshift_pow,
                        inner_product, mul, shift_pow)
from hardyshift.series import add, scale, sub

from conftest import allclose, monomial, random_taylor

CAP = 32


def test_inner_product_parseval_pair():
    f = TaylorPoly([1, 1], CAP)
    assert inner_product(f, f) == pytest.approx(2.0)


def test_inner_product_monomial_orthogonality():
    assert inner_product(monomial(2, CAP), monomial(3, CAP)) == 0


def test_inner_product_mixed():
    # direct coefficient sum: 0*1 + 1*1 + 2*1 = 3
    f = TaylorPoly([1, 1, 1], CAP)
    g = TaylorPoly([0, 1, 2], CAP)
    assert inner_product(f, g) == pytest.approx(3.0)


def test_inner_product_conjugate_symmetric(rng):
    f = random_taylor(rng, 7, CAP)
    g = random_taylor(rng, 5, CAP)
    assert inner_product(f, g) == pytest.approx(np.conj(inner_product(g, f)))


def test_shift_pow_monomials():
    assert allclose(shift_pow(TaylorPoly([1], CAP), 3), monomial(3, CAP))
    assert allclose(shift_pow(TaylorPoly([1, 1], CAP), 2), TaylorPoly([0, 0, 1, 1], CAP))


def test_shift_isometry(rng):
    f = random_taylor(rng, 10, CAP)
    assert shift_pow(f, 5).norm() == pytest.approx(f.norm())


def test_shift_budget_guard():
    with pytest.raises(BudgetExceeded):
        shift_pow(monomial(30, CAP), 3)
    # zero polynomial shifts freely
    assert shift_pow(TaylorPoly([0], CAP), 100).deg() < 0


def test_coshift_examples():
    assert allclose(coshift_pow(monomial(3, CAP), 2), monomial(1, CAP))
    assert coshift_pow(TaylorPoly([5], CAP), 1).deg() < 0


def test_coshift_left_inverse(rng):
    f = random_taylor(rng, 9, CAP)
    assert allclose(coshift_pow(shift_pow(f, 4), 4), f)


def test_mul_examples():
    one_plus = TaylorPoly([1, 1], CAP)
    one_minus = TaylorPoly([1, -1], CAP)
    assert allclose(mul(one_plus, one_minus), TaylorPoly([1, 0, -1], CAP))
    # (1+z)(2+5z^2) = 2 + 2z + 5z^2 + 5z^3
    assert allclose(mul(one_plus, TaylorPoly([2, 0, 5], CAP)),
                    TaylorPoly([2, 2, 5, 5], CAP))


def test_mul_identity(rng):
    f = random_taylor(rng, 12, CAP)
    assert allclose(mul(f, TaylorPoly([1], CAP)), f)


def test_mul_budget_guard():
    with pytest.raises(BudgetExceeded):
        mul(monomial(20, CAP), monomial(20, CAP))
    # multiplying by zero never needs budget
    assert mul(monomial(30, CAP), TaylorPoly([0], CAP)).deg() < 0


def test_shift_adjointness(rng):
    f = random_taylor(rng, 8, CAP)
    g = random_taylor(rng, 14, CAP)
    lhs = inner_product(shift_pow(f, 3), g)
    rhs = inner_product(f, coshift_pow(g, 3))
    assert abs(lhs - rhs) < 1e-12


def test_parseval_identity(rng):
    f = random_taylor(rng, 11, CAP)
    ip = inner_product(f, f)
    assert abs(ip.imag) < 1e-14
    assert ip.real == pytest.approx(f.norm2())


def test_deg_and_trailing_zeros():
    f = TaylorPoly([1, 0, 0], CAP)
    assert f.deg() == 0
    assert TaylorPoly([0], CAP).deg() == -1


def test_add_sub_scale(rng):
    f = random_taylor(rng, 6, CAP)
    g = random_taylor(rng, 9, CAP)
    assert allclose(sub(add(f, g), g), f, 1e-15)
    assert scale(f, 2).norm() == pytest.approx(2 * f.norm())


@pytest.mark.parametrize("cap", [1.5, True, False, 2.0, np.float64(3), "2"])
def test_taylor_poly_refuses_a_non_integer_cap(cap):
    with pytest.raises(ParamOutOfRange, match="^cap must be a nonnegative integer"):
        TaylorPoly([1, 2], cap)


def test_taylor_poly_cap_is_a_nonnegative_integer():
    with pytest.raises(ParamOutOfRange, match="^cap must be a nonnegative integer, got -1$"):
        TaylorPoly([1], -1)
    assert TaylorPoly([1, 2], np.int64(1)).coeffs.size == 2


def test_coeffs_are_immutable():
    f = TaylorPoly([1, 2], CAP)
    with pytest.raises(ValueError):
        f.coeffs[0] = 5.0


def test_mul_commutative_associative(rng):
    f = random_taylor(rng, 6, CAP)
    g = random_taylor(rng, 7, CAP)
    h = random_taylor(rng, 5, CAP)
    assert allclose(mul(f, g), mul(g, f), 1e-12)
    assert allclose(mul(mul(f, g), h), mul(f, mul(g, h)), 1e-12)


@pytest.mark.parametrize("coeffs", [
    [np.nan], [1, np.inf], [0, complex(0, -np.inf)], np.array([1.0, np.nan]),
    np.array([True]), [True, False], np.array([1, None], dtype=object), ["1"],
])
def test_constructor_rejects_non_finite_and_non_numeric_coefficients(coeffs):
    with pytest.raises(ParamOutOfRange):
        TaylorPoly(coeffs, 8)
