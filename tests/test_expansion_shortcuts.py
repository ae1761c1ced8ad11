"""The factor chain and the power expansion against their full-width
loops: skipping the product at a zero at the origin, trimming the base
of a power and stopping at a zero power leave every value unchanged.
Past the power cap // deg B + 1, binary powering agrees with the loop
up to rounding, and a huge power returns at once."""

import math

import numpy as np
import pytest

from hardyshift import BlaschkeProduct, build_wold_frame, taylor_expand
from hardyshift.blaschke import _factor_chain, power_expansion

from conftest import time_limit
from test_blaschke import PRODUCT_FAMILIES


def full_factor_chain(B, cap):
    """One full cut convolution per zero, as written before the shortcut."""
    E = np.empty((cap + 1, B.degree), dtype=np.complex128)
    p = np.zeros(cap + 1, dtype=np.complex128)
    p[0] = 1.0
    for k, a in enumerate(B.zeros):
        g = np.convolve(p, np.cumprod(np.r_[1.0, np.full(cap, a.conjugate())]))[: cap + 1]
        E[:, k] = math.sqrt(1.0 - abs(a) ** 2) * g
        p = np.r_[0.0, g[:-1]] - a * g
    return E, p


def full_power(B, n, cap):
    base = B.lam * full_factor_chain(B, cap)[1]
    acc = base
    for _ in range(n - 1):
        acc = np.convolve(acc, base)[: cap + 1]
    return acc


FAMILIES = PRODUCT_FAMILIES + [[0], [0, 0], [0, 0, 0]]


@pytest.mark.parametrize("cap", [24, 96, 384])
@pytest.mark.parametrize("zeros", FAMILIES)
def test_shortcuts_leave_every_value_unchanged(cap, zeros):
    B = BlaschkeProduct(np.exp(0.7j), zeros)
    E, p = full_factor_chain(B, cap)
    got_E, got_p = _factor_chain(B, cap)
    assert np.array_equal(got_E, E) and np.array_equal(got_p, p)
    assert np.array_equal(taylor_expand(B, cap), B.lam * p)
    assert np.array_equal(build_wold_frame(B, cap, 1).matrix, E)  # the model basis
    for n in (1, 2, 3, 5, cap // len(zeros) + 1):
        assert np.array_equal(power_expansion(B, n, cap), full_power(B, n, cap))


def test_a_monomial_power_past_the_cap_is_zero_at_once():
    # the full loop would take 10^20 convolutions
    B = BlaschkeProduct(1.0, [0, 0])
    got = power_expansion(B, 10 ** 20, 24)
    assert got.shape == (25,) and not got.any()


def test_a_huge_power_of_a_zero_near_the_circle_returns_at_once():
    # the loop would take 10^20 convolutions, through subnormal values
    with time_limit(1.0):
        got = power_expansion(BlaschkeProduct(1.0, [0.99]), 10 ** 20, 64)
    assert np.all(np.isfinite(got)) and np.all(np.abs(got) <= 1.0)


@pytest.mark.parametrize("cap", [24, 96, 384])
@pytest.mark.parametrize("zeros", FAMILIES)
def test_binary_powering_agrees_with_the_loop(cap, zeros):
    B = BlaschkeProduct(np.exp(0.7j), zeros)
    top = cap // len(zeros) + 1
    for n in (top + 1, 2 * top + 1, 4 * top):
        assert np.max(np.abs(power_expansion(B, n, cap) - full_power(B, n, cap))) <= 1e-12
