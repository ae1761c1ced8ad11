"""The one Toeplitz kernel, ``series.toeplitz_product``, against the product
with its (cap+1)² window view: long symbol windows multiply by zero-padded
FFT within a rounding bound and without wrap-around, short windows keep the
view's product bit for bit, and zeros stay exact zeros."""

import numpy as np
import pytest

from hardyshift import BlaschkeProduct, taylor_expand
from hardyshift import series
from hardyshift.series import toeplitz_product, toeplitz_view

CAPS = [48, 384, 1536]
COLUMNS = [1, 3, 8, 70]
# Blaschke products of degree 1 to 3 with zeros up to 0.95, and Gaussian symbols
ZEROS = [[0.95], [0.9j, -0.5 + 0.1j], [0.95, -0.7 + 0.3j, 0.2j]]
SYMBOLS = [f"blaschke{d}" for d in (1, 2, 3)] + ["gauss"]


def gauss(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def symbol(kind, cap, rng):
    if kind == "gauss":
        return gauss(rng, cap + 1)
    return taylor_expand(BlaschkeProduct(np.exp(0.7j), ZEROS[int(kind[-1]) - 1]), cap)


def columns(rng, cap, p, rows):
    """p Gaussian columns whose rows from ``rows`` on are zero."""
    X = np.zeros((cap + 1, p), dtype=np.complex128)
    X[:rows] = gauss(rng, rows, p)
    return X


def reference(b, adjoint, X):
    d = int(np.flatnonzero(X.any(axis=1))[-1]) + 1
    return toeplitz_view(b, adjoint)[:, :d] @ X[:d]


def assert_within_bound(got, want, b, X):
    """Each column within 1e-14·|b|·|x|, the scale of the FFT's rounding."""
    bound = 1e-14 * np.linalg.norm(b) * np.linalg.norm(X, axis=0)
    assert got.shape == want.shape
    assert np.all(np.linalg.norm(got - want, axis=0) <= bound)


@pytest.fixture
def fft_lengths(monkeypatch):
    """The transform lengths the kernel asks for: one per FFT product."""
    asked, length = [], series._fft_length
    monkeypatch.setattr(series, "_fft_length", lambda size: asked.append(size) or length(size))
    return asked


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("kind", SYMBOLS)
def test_the_product_matches_the_view_product(kind, adjoint, cap, rng, fft_lengths):
    b = symbol(kind, cap, rng)
    for rows in (cap + 1, (2 * cap) // 3):  # full columns, and trailing zero rows
        X = columns(rng, cap, max(COLUMNS), rows)
        want = reference(b, adjoint, X)
        for p in COLUMNS:
            assert_within_bound(toeplitz_product(b, adjoint, X[:, :p]), want[:, :p], b, X[:, :p])
    # the FFT runs from cap 384 on; at cap 48 every product is the view's
    assert bool(fft_lengths) == (cap > 48)


@pytest.mark.parametrize("cap", [384, 1536])
@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("kind", SYMBOLS)
def test_nothing_wraps_around(kind, adjoint, cap, rng, fft_lengths):
    # the product at cap c is the first c+1 rows of the one at cap 2c+1,
    # whose symbol runs on and whose columns are zero past row c
    b = symbol(kind, 2 * cap + 1, rng)
    X = columns(rng, 2 * cap + 1, 8, cap + 1)
    short = toeplitz_product(b[: cap + 1], adjoint, X[: cap + 1])
    assert_within_bound(short, toeplitz_product(b, adjoint, X)[: cap + 1], b, X)
    assert len(fft_lengths) == 2


def short_windows(cap, rng):
    """λz^k, a degree-3 polynomial, and a short run after leading zeros."""
    monomial = np.zeros(cap + 1, dtype=np.complex128)
    monomial[5] = np.exp(0.3j)
    cubic = np.zeros(cap + 1, dtype=np.complex128)
    cubic[:4] = gauss(rng, 4)
    late = np.zeros(cap + 1, dtype=np.complex128)
    run = min(series._FFT_WINDOW - 1, cap + 1 - cap // 2)
    late[cap // 2: cap // 2 + run] = gauss(rng, run)
    return [monomial, cubic, late]


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("adjoint", [False, True])
def test_short_windows_keep_the_view_product_bit_for_bit(adjoint, cap, rng, fft_lengths):
    X = columns(rng, cap, 8, cap + 1)
    for b in short_windows(cap, rng):
        for p in (1, 3, 8):
            got = toeplitz_product(b, adjoint, X[:, :p])
            assert np.array_equal(got, reference(b, adjoint, X[:, :p]))
    # so do few rows under a long symbol
    b = symbol("gauss", cap, rng)
    X = columns(rng, cap, 3, min(cap + 1, series._FFT_WINDOW - 1))
    assert np.array_equal(toeplitz_product(b, adjoint, X), reference(b, adjoint, X))
    assert not fft_lengths


@pytest.mark.parametrize("adjoint", [False, True])
def test_the_fft_starts_at_the_window_size(adjoint, rng, fft_lengths):
    # a symbol window and rows of exactly _FFT_WINDOW; one less is the view's
    cap, size = 384, series._FFT_WINDOW
    b = np.zeros(cap + 1, dtype=np.complex128)
    b[10: 10 + size] = gauss(rng, size)
    X = columns(rng, cap, 3, size)
    assert_within_bound(toeplitz_product(b, adjoint, X), reference(b, adjoint, X), b, X)
    assert len(fft_lengths) == 1


@pytest.mark.parametrize("adjoint", [False, True])
def test_zeros_give_exact_zeros(adjoint, rng):
    cap = 384
    b, X = symbol("gauss", cap, rng), columns(rng, cap, 3, cap + 1)
    for out in (toeplitz_product(b, adjoint, np.zeros_like(X)),
                toeplitz_product(np.zeros(cap + 1, dtype=np.complex128), adjoint, X)):
        assert out.shape == X.shape and not out.any()
