"""Each array's support is read once: a span's column windows come from one
scan of its frame, or from ``orthonormalize``'s Gram test, a shift image's
are moved from its span's, and a Laurent table's live slices and entries
are one mask.  Each is checked against a fresh scan or the loop formula it
replaced, exactly."""

from dataclasses import replace

import numpy as np
import pytest

from hardyshift import (BlaschkeProduct, OperatorSpec, SpanSubspace, build_model_space,
                        build_theta_range, build_wold_frame, check_invariance, diag_polys,
                        from_poly_grid, intersect, intersect_shifted, matmul,
                        ortho_complement_within, orthonormalize, subspaces, transfer_subspace,
                        verify_theorem_multi)
from hardyshift.invariance import ComplementModel
from hardyshift.laurent import LaurentMatrix
from hardyshift.subspaces import _gram_gap, _orthonormal_columns, _windows

from conftest import model_space_frame

COLUMN = from_poly_grid([[[0.6]], [[0, 0.8]]])  # (0.6, 0.8z): not square, so a ComplementModel


def assert_scanned(windows, A):
    """The windows equal a fresh scan of A."""
    (lo, width), (lo0, width0) = windows, _windows(A)
    assert np.array_equal(lo, lo0) and np.array_equal(width, width0)


def disjoint(n, d):
    """d orthogonal columns, column j on rows 2j and 2j + 1."""
    X = np.zeros((n, d), dtype=complex)
    X[2 * np.arange(d), np.arange(d)] = 1j
    X[2 * np.arange(d) + 1, np.arange(d)] = -2.0
    return X


def spans_of_every_builder(rng):
    X = np.zeros((200, 80), dtype=complex)
    for j in range(80):
        X[2 * j: 2 * j + 5, j] = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    cgs2 = orthonormalize(X)
    W = build_wold_frame(BlaschkeProduct(1.0, [0.5, -0.3j]), 191)
    return {
        "gram": orthonormalize(disjoint(385, 190)),  # Gram path, scanned by the test
        "narrow gram": orthonormalize(disjoint(97, 10)),  # too narrow for a scanned test
        "cgs2": cgs2,
        "inner svd": build_model_space(diag_polys([[0, 1], [1]]), 2, 191),
        "svd": model_space_frame(COLUMN, 2, 191),
        "complement": build_model_space(COLUMN, 2, 191).complement,
        "transfer": transfer_subspace(orthonormalize(X[:192, :15]), W),
        "range": build_theta_range(diag_polys([[1], [0, 1], [0, 1]]), 3, 192),
        "intersect_shifted": intersect_shifted(cgs2, 3),
        "intersect": intersect(cgs2, cgs2),
        "ortho_complement_within": ortho_complement_within(cgs2, intersect_shifted(cgs2, 9)),
    }


def test_a_span_of_every_builder_has_the_windows_of_its_frame(rng):
    spans = spans_of_every_builder(rng)
    assert spans["gram"].dim == 190 and spans["cgs2"].dropped == ()
    for name, span in spans.items():
        assert_scanned(span.windows(), span.matrix)
        copy = replace(span, label=f"{name} again", generators=())
        assert copy.windows is span.windows
        assert_scanned(copy.windows(), copy.matrix)


def test_a_span_is_scanned_at_most_once_and_the_gram_test_hands_its_scan_over(monkeypatch):
    scans = []
    monkeypatch.setattr(subspaces, "_windows", lambda A: scans.append(A.shape) or _windows(A))
    M = orthonormalize(disjoint(385, 190))  # the Gram test scans the generators over norms
    assert scans == [(385, 190)]
    M.windows(), replace(M, label="M").windows()
    for power in (1, 2, 5):  # forward shifts: the images' windows are moved, not scanned
        assert check_invariance(M, OperatorSpec(power)).verdict == "FAIL"
    assert scans == [(385, 190)]
    N = orthonormalize(disjoint(385, 40))  # too narrow for a scanned Gram test
    assert scans == [(385, 190)]
    N.windows(), N.windows()
    assert scans == [(385, 190), (385, 40)]


@pytest.fixture
def checked_windows(monkeypatch):
    """Every product that is handed windows checks them against fresh scans of its
    factors; returns the list of (F columns, Y columns) products that were handed them."""
    handed, pairs = [], subspaces._window_pairs

    def window_pairs(F, Y, win_f=None, win_y=None):
        if min(F.shape[1], Y.shape[1]) >= 64:
            if win_f:
                assert_scanned(win_f(), F)
            if win_y and Y is not F:
                assert_scanned(win_y(), Y)
                handed.append((F.shape[1], Y.shape[1]))
        return pairs(F, Y, win_f, win_y)

    monkeypatch.setattr(subspaces, "_window_pairs", window_pairs)
    return handed


def banded_with_dust(rng, cap, dim):
    """Columns on random windows with a tail of dust below tol/4 above each,
    zero columns, a dust-only column and columns that end on the cap."""
    X = np.zeros((cap + 1, dim), dtype=complex)
    for j in range(4, dim):
        a = int(rng.integers(0, cap - 8))
        t = cap + 1 if j >= dim - 3 else a + int(rng.integers(1, 9))
        b = int(rng.integers(a, t + 1))
        X[a:t, j] = rng.standard_normal(t - a) + 1j * rng.standard_normal(t - a)
        X[b:t, j] *= 1e-12
    X[100:103, 2] = 1e-12  # dust only: no effective degree, cleared to zero
    return X


@pytest.mark.parametrize("gain", [1, 7, 40])
def test_moved_image_windows_are_those_of_the_image(rng, checked_windows, gain):
    X = banded_with_dust(rng, 240, 120)
    M = SpanSubspace(X, 240, 1, band=200)
    check_invariance(M, OperatorSpec(gain), 1e-10)
    [(d, kept)] = checked_windows
    assert d == 120 and 64 <= kept <= 117  # the columns that end on the cap are excluded


def test_complement_images_cut_at_n_are_scanned(checked_windows):
    model = build_model_space(COLUMN, 2, 191)
    assert isinstance(model, ComplementModel)
    lo, width = model.complement.windows()
    for k in (1, 2, 5):
        assert np.any(lo + width + k > model.n)  # the cut columns take the fallback
        check_invariance(model, OperatorSpec(k, True))
    assert len(checked_windows) == 3


def test_complement_images_that_stay_under_n_are_moved(checked_windows):
    frame = np.vstack([disjoint(140, 70), np.zeros((10, 70))]) / np.sqrt(5)
    frame[:, 9] = 0  # a zero column: its image is zero, with no window to move
    span = SpanSubspace(frame, 149, 1)
    lo, width = span.windows()
    for k in (1, 4, 10):
        assert np.all(lo + width + k <= 150)
        check_invariance(ComplementModel(span, 150, "P"), OperatorSpec(k, True))
    assert checked_windows == [(70, 70)] * 3


def test_a_zero_column_is_one_off_the_identity_in_the_gram_test():
    X = disjoint(385, 190) / np.sqrt(5)
    X[:, 5] = 0
    assert _gram_gap(X) == (1.0, 1.0) and _orthonormal_columns(X) is None


def test_the_pipeline_hands_over_windows_that_a_scan_would_give(checked_windows):
    rep = verify_theorem_multi(diag_polys([[1], [0, 1], [0, 1]]), 3, [(1, 1), (2, 1)], 192)
    assert rep.passed and len(checked_windows) >= 3
    count = len(checked_windows)
    verify_theorem_multi(COLUMN, 2, [(1, 1)], 192)  # its model space is a ComplementModel
    assert len(checked_windows) > count


# -- Laurent tables ---------------------------------------------------------


def trimmed_by_loop(table, min_pow):
    """The trimming loop: drop all-zero slices from each end, keeping one."""
    lo, hi = 0, table.shape[2]
    while hi - lo > 1 and not np.any(table[:, :, lo]):
        lo += 1
    while hi - lo > 1 and not np.any(table[:, :, hi - 1]):
        hi -= 1
    return table[:, :, lo:hi], min_pow + lo


def product_by_loop(A, B):
    """The product loop: each entry's live terms, convolved and summed in t order."""
    width = A.table.shape[2] + B.table.shape[2] - 1
    tab = np.zeros((A.rows, B.cols, width), dtype=np.complex128)
    for i in range(A.rows):
        for j in range(B.cols):
            acc = np.zeros(width, dtype=np.complex128)
            for t in range(A.cols):
                if np.any(A.table[i, t]) and np.any(B.table[t, j]):
                    acc += np.convolve(A.table[i, t], B.table[t, j])
            tab[i, j] = acc
    return tab, A.min_pow + B.min_pow


def assert_trims_as_the_loop(table, min_pow):
    L = LaurentMatrix(table.shape[0], table.shape[1], min_pow, table)
    want, pow0 = trimmed_by_loop(table, min_pow)
    assert L.table.shape == want.shape and L.table.tobytes() == want.tobytes()
    assert L.min_pow == pow0 and type(L.min_pow) is int


def random_table(rng, rows, cols, width, zero=0.4):
    tab = rng.standard_normal((rows, cols, width)) + 1j * rng.standard_normal((rows, cols, width))
    tab[rng.random((rows, cols)) < zero] = 0  # zero entries anywhere
    return tab


@pytest.mark.parametrize("min_pow", [0, -3, 7, 10 ** 30])
def test_trimming_is_the_loop(rng, min_pow):
    tab = random_table(rng, 2, 3, 9)
    tab[:, :, :2] = tab[:, :, -3:] = 0  # zero slices at both ends
    tab[:, :, 4] = 0  # and one inside, which stays
    cases = [tab, tab[:, :, 2:4], tab[:, :, 3:6],  # live at one end
             tab[:, :, 1:4].copy(),  # a single live slice ...
             np.zeros((2, 3, 5), complex),  # an all-zero table keeps its last slice
             np.zeros((2, 3, 1), complex), np.zeros((2, 3, 0), complex),  # width 0
             np.zeros((0, 3, 4), complex)]
    cases[3][:, :, [0, 2]] = 0
    cases[3][0, 0, 1] = -0.0 + 1e-300j  # ... of one tiny entry, beside a signed zero
    for table in cases:
        assert_trims_as_the_loop(table, min_pow)


def test_trimming_a_table_live_in_one_entry_at_every_position(rng):
    for i, j, t in np.ndindex(2, 2, 4):
        tab = np.zeros((2, 2, 4), complex)
        tab[i, j, t] = rng.standard_normal()
        assert_trims_as_the_loop(tab, -2)


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 2), (3, 3, 4), (3, 1, 5)])
def test_matmul_is_the_loop(rng, shape):
    rows, inner, cols = shape
    for trial in range(5):
        A = LaurentMatrix(rows, inner, -1, random_table(rng, rows, inner, 4))
        B = LaurentMatrix(inner, cols, 2, random_table(rng, inner, cols, 3, zero=0.5))
        tab, min_pow = product_by_loop(A, B)
        want = LaurentMatrix(rows, cols, min_pow, tab)
        got = matmul(A, B)
        assert got.table.tobytes() == want.table.tobytes() and got.min_pow == want.min_pow


def test_matmul_with_a_zero_entry_at_every_position(rng):
    A0, B0 = random_table(rng, 2, 3, 3, zero=0), random_table(rng, 3, 2, 2, zero=0)
    for (i, t), (s, j) in zip(np.ndindex(2, 3), np.ndindex(3, 2)):
        a, b = A0.copy(), B0.copy()
        a[i, t] = 0
        b[s, j] = 0
        A, B = LaurentMatrix(2, 3, 0, a), LaurentMatrix(3, 2, -4, b)
        tab, min_pow = product_by_loop(A, B)
        got = matmul(A, B)
        assert got.table.tobytes() == LaurentMatrix(2, 2, min_pow, tab).table.tobytes()
    zero = LaurentMatrix(3, 2, 5, np.zeros((3, 2, 4), complex))
    for B in (zero, LaurentMatrix(3, 2, 1, B0)):
        got = matmul(LaurentMatrix(2, 3, 0, np.zeros((2, 3, 1), complex)), B)
        tab, min_pow = product_by_loop(LaurentMatrix(2, 3, 0, np.zeros((2, 3, 1))), B)
        want = LaurentMatrix(2, 2, min_pow, tab)
        assert got.table.tobytes() == want.table.tobytes() and got.min_pow == want.min_pow
