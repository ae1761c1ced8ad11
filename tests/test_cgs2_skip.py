"""CGS2 does not project a row whose nonzero coefficients meet those of no
earlier row: its products are exact zeros, so the frame, the drops and r
equal those of the loop that projects every row, bit for bit."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardyshift import subspaces
from hardyshift.subspaces import _cgs2, orthonormalize
from hardyshift.tolerances import EPS, EXACT_TOL

from reference import cgs2

N = 40


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def same(rows, threshold):
    """_cgs2 against the reference loop, with np.array_equal and on the bits
    (signed zeros too); returns the result."""
    got, want = _cgs2(rows, threshold), cgs2(rows, threshold)
    assert np.array_equal(got[0], want[0])
    assert got[0].shape == want[0].shape
    assert np.array_equal(bits(got[0]), bits(want[0]))
    assert np.array_equal(got[1], want[1]) and got[1] == want[1]
    assert np.array_equal(got[2], want[2])
    return got


def band(rng, lo, width, n=N):
    row, width = np.zeros(n, dtype=complex), min(width, n - lo)
    row[lo:lo + width] = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    return row


def test_disjoint_banded_rows(rng):
    rows = np.array([band(rng, 4 * i, 4) for i in range(10)])
    frame, dropped, r = same(rows, 1e-10)
    # every row is its own direction: the frame is the rows over their norms
    assert dropped == () and abs(r - 1.0) <= EPS
    assert np.max(np.abs(frame - (rows / np.linalg.norm(rows, axis=1)[:, None]).T)) <= 4 * EPS


def test_interleaved_overlapping_rows(rng):
    # bands of width 6 every 3 rows overlap their neighbours; between them,
    # rows on their own coefficients
    rows = np.array([band(rng, 3 * i, 6) if i % 2 else band(rng, 3 * i + 1, 1)
                     for i in range(12)])
    same(rows, 1e-10)


def test_zero_rows(rng):
    rows = np.array([band(rng, 0, 5), np.zeros(N), band(rng, 8, 3), np.zeros(N),
                     band(rng, 2, 9)])
    assert same(rows, 1e-10)[1] == (1, 3)


def test_dropped_rows(rng):
    a, b = band(rng, 0, 6), band(rng, 10, 6)
    rows = np.array([a, b, 2j * a, a - 3 * b, band(rng, 20, 4)])
    assert same(rows, 1e-10)[1] == (2, 3)


def test_a_row_that_meets_only_a_dropped_row(rng):
    # row 1 is dropped under the absolute threshold; row 2 meets only its support
    rows = np.array([band(rng, 0, 4), 1e-12 * band(rng, 10, 2), band(rng, 11, 5)])
    assert same(rows, 1e-10)[1] == (1,)
    rows[1] = rows[0] * 0.5  # dropped, on row 0's support
    rows[2] = band(rng, 3, 4)  # meets row 0 and the dropped row
    assert same(rows, 1e-10)[1] == (1,)


def near_dependent_rows(rng):
    """Row 2 keeps a fraction of about 1e-7 of its norm, so r < EPS/EXACT_TOL and
    the pass runs again in clongdouble; rows 1, 3 and 4 are skipped in both."""
    a = band(rng, 0, 6)
    return np.array([a, band(rng, 10, 3), a + 1e-7 * band(rng, 6, 2), band(rng, 20, 5),
                     band(rng, 30, 4)])


def test_rows_that_take_the_extended_pass(rng):
    rows = near_dependent_rows(rng)
    assert same(rows, 1e-9 * np.linalg.norm(rows, axis=1))[2] < EPS / EXACT_TOL


def reference_orthonormalize(columns):
    """orthonormalize(columns) with the reference loop in place of _cgs2, and
    the r that _cgs2 returned to orthonormalize(columns) itself."""
    returned = []

    def spy(rows, threshold):
        returned.append(_cgs2(rows, threshold))
        return returned[-1]

    with mock.patch.object(subspaces, "_cgs2", spy):
        M = orthonormalize(columns)
    with mock.patch.object(subspaces, "_cgs2", cgs2):
        R = orthonormalize(columns)
    assert M.dropped == R.dropped and M.rank_tol == R.rank_tol
    assert np.array_equal(M.matrix, R.matrix)
    assert np.array_equal(bits(M.matrix), bits(R.matrix))
    return M, returned[0][2] if returned else None


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e200])
def test_scaled_rows_that_take_the_extended_pass(rng, scale):
    # orthonormalize brings each generator to [0.5, 1) by a power of two first
    M, r = reference_orthonormalize(near_dependent_rows(rng).T * scale)
    assert M.dim == 5 and r < EPS / EXACT_TOL


def test_orthonormalize_of_a_banded_span_takes_the_reference_frame(rng):
    # the file path: generators z^(ml) q in disjoint blocks, off orthogonal by
    # 1e-9 so that they take CGS2, and one stray monomial
    q = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    G = np.zeros((N, 12), dtype=complex)
    for j in range(11):
        G[2 * j: 2 * j + 2, j] = q
    G[:2, 1:11] += 1e-9 * q[:, None]
    G[23, 11] = 1.0
    M, r = reference_orthonormalize(G)
    assert M.dim == 12 and r is not None


@st.composite
def banded_rows(draw):
    """Rows on random windows, some zero, some copies or combinations of earlier
    ones, with signed zeros."""
    count = draw(st.integers(1, 10))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    rows = np.zeros((count, 24), dtype=complex)
    for i in range(count):
        kind = draw(st.sampled_from(["band", "band", "zero", "copy", "near"]))
        if kind == "band" or (i == 0 and kind != "zero"):
            lo = draw(st.integers(0, 23))
            rows[i] = band(rng, lo, draw(st.integers(1, 6)), 24)
        elif kind in ("copy", "near"):
            j = draw(st.integers(0, i - 1))
            rows[i] = rows[j] * (1 + 2j)
            if kind == "near":
                rows[i, draw(st.integers(0, 23))] += draw(st.sampled_from([1e-3, 1e-7, 1e-12]))
    zeros = rows == 0
    rows.real[zeros & (rng.random(rows.shape) < 0.5)] = -0.0
    rows.imag[zeros & (rng.random(rows.shape) < 0.5)] = -0.0
    return rows


@settings(max_examples=300, deadline=None)
@given(banded_rows(), st.sampled_from(["absolute", "relative"]))
def test_random_banded_rows_give_the_reference_bits(rows, kind):
    norms = np.linalg.norm(rows, axis=1)
    same(rows, 1e-9 * (norms if kind == "relative" else np.max(norms)))


@settings(max_examples=100, deadline=None)
@given(banded_rows(), st.sampled_from([1.0, 1e-300, 1e200]))
def test_random_banded_generators_give_the_reference_frame(rows, scale):
    reference_orthonormalize(rows.T * scale)
