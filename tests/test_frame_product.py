"""The frame product kernel: column windows where the overlapping column
pairs cost at most the size of the right factor, the one dense product
everywhere else."""

import numpy as np
import pytest

from hardyshift import subspaces
from hardyshift.invariance import build_theta_range
from hardyshift.laurent import diag_polys
from hardyshift.subspaces import (_gram_gap, _orthonormal_columns, _residual_rows, _window_pairs,
                                 frame_distance)

SCAN = 64  # the fewest columns on either side of a scanned product
BLOCK = 64  # rows per block of the block-sparse kind


def unit_columns(X):
    norms = np.linalg.norm(X, axis=0)
    return X / np.where(norms == 0, 1, norms)


def banded(rng, n, d, width=4, arity=1):
    """Lifted-generator-like columns: in each of arity stacked component
    blocks, column j is supported on width rows from an offset that grows
    with j."""
    rows = n // arity
    X = np.zeros((arity, rows, d), dtype=complex)
    for j in range(d):
        start = min(j * max(rows - width, 0) // max(d - 1, 1), max(rows - width, 0))
        X[:, start:start + width, j] = (rng.standard_normal((arity, min(width, rows)))
                                        + 1j * rng.standard_normal((arity, min(width, rows))))
    return unit_columns(X.reshape(arity * rows, d))


def block_sparse(rng, n, d):
    """Random entries on a random fifth of the (row block, column) pairs;
    the second row block is all zero when there is one."""
    keep = rng.random((-(-n // BLOCK), d)) < 0.2
    if len(keep) > 1:
        keep[1] = False
    mask = np.repeat(keep, BLOCK, axis=0)[:n]
    X = (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))) * mask
    return unit_columns(X)


def dense(rng, n, d):
    return unit_columns(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))


KINDS = {"banded": banded, "block_sparse": block_sparse, "dense": dense}


def shifted(F):
    """S F: every column one row down, the last row dropped, as a check applies S."""
    Y = np.zeros_like(F)
    Y[1:] = F[:-1]
    return Y


def dense_distance(F, Y):
    C = F.conj().T @ Y
    R = F @ C
    R -= Y
    return C, np.sqrt(np.sum(np.abs(R) ** 2, axis=0))


def window_work(F, Y):
    """(pairs, W): the column pairs of F and Y whose windows overlap, each
    window W rows from the column's first nonzero row (moved up to end by
    the last row), W the widest column of either."""
    n = len(F)

    def spans(A):
        nz = A != 0  # a NaN is nonzero as well
        live = nz.any(axis=0)
        first = np.where(live, nz.argmax(axis=0), 0)
        last = np.where(live, n - 1 - nz[::-1].argmax(axis=0), -1)
        return first, last - first + 1, live

    (lo_f, w_f, live_f), (lo_y, w_y, live_y) = spans(F), spans(Y)
    W = max(w_f.max(), w_y.max(), 1)
    lo_f, lo_y = np.minimum(lo_f, n - W), np.minimum(lo_y, n - W)
    pairs = live_f[:, None] & live_y & (np.abs(lo_f[:, None] - lo_y) < W)
    return np.count_nonzero(pairs), W


def takes_windows(F, Y):
    """Whether the kernel's rule multiplies Fᴴ Y at column windows: both
    factors have at least SCAN columns, and the window work, pairs × W, is
    at most the size of Y."""
    if min(F.shape[1], Y.shape[1]) < SCAN:
        return False
    pairs, W = window_work(F, Y)
    return pairs * W <= Y.size


def assert_rows_agree(F, Y):
    """_residual_rows against the dense formula, as assert_agrees (relative
    to rows of norm above 1, which a factor that is no frame can give)."""
    rows, rows0 = _residual_rows(F, Y), np.linalg.norm(F @ (F.conj().T @ Y) - Y, axis=1)
    if takes_windows(F, Y):
        assert np.all(np.abs(rows - rows0) <= 1e-14 * np.maximum(rows0, 1))
    else:
        assert np.array_equal(rows, rows0)


def assert_agrees(F, Y):
    """frame_distance against the dense formula: to 1e-14 on the window
    path, bit for bit on the dense one."""
    C, res = frame_distance(F, Y)
    C0, res0 = dense_distance(F, Y)
    assert C.shape == C0.shape and res.shape == res0.shape
    if takes_windows(F, Y):
        assert np.max(np.abs(C - C0), initial=0.0) <= 1e-14
        assert np.max(np.abs(res - res0), initial=0.0) <= 1e-14
    else:
        assert np.array_equal(C, C0) and np.array_equal(res, res0)


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 385])
@pytest.mark.parametrize("p", [0, 1, 70])
def test_frame_distance_agrees_with_the_dense_formula(rng, kind, n, p):
    d = min(n, 96)
    F = KINDS[kind](rng, n, d)
    Y = KINDS[kind](rng, n, p)
    if p <= d:  # columns partly in the span
        Y[: n // 2] += F[: n // 2, :p]
    assert_agrees(F, Y)
    assert_rows_agree(F, Y)


def test_the_window_path_is_taken_on_banded_frames_only(rng):
    F = banded(rng, 385, 96)
    assert takes_windows(F, shifted(F)) and _window_pairs(F, shifted(F)) is not None
    for kind in ("block_sparse", "dense"):  # a window spans about all rows
        F = KINDS[kind](rng, 385, 96)
        assert not takes_windows(F, F) and _window_pairs(F, F) is None


@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("kind", ["banded", "block_sparse"])
def test_stacked_frames_agree_with_the_dense_formula(rng, arity, kind):
    n = arity * 129
    F = KINDS[kind](rng, n, 120)
    assert_agrees(F, shifted(F))
    assert_rows_agree(F, shifted(F))


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("n", [1, 64, 129, 385])
def test_gram_test_agrees_with_the_dense_formula(rng, kind, n):
    X = KINDS[kind](rng, n, min(n, 120))
    D = np.abs(X.conj().T @ X - np.eye(X.shape[1]))
    gap0, bound0 = np.max(D, initial=0.0), np.max(np.sum(D, axis=1), initial=0.0)
    if takes_windows(X, X):
        gap, bound = _gram_gap(X)
        assert abs(gap - gap0) <= 1e-14 and abs(bound - bound0) <= 1e-14 * max(bound0, 1)
    else:
        assert _gram_gap(X) == (gap0, bound0)
    assert (_orthonormal_columns(X) is not None) == (bound0 < subspaces.EXACT_TOL)


def test_orthogonal_banded_generators_pass_the_gram_test_on_the_window_path():
    X = np.zeros((385, 190), dtype=complex)
    X[2 * np.arange(190), np.arange(190)] = 1j
    X[2 * np.arange(190) + 1, np.arange(190)] = -2.0
    assert takes_windows(X, X)
    frame, windows = _orthonormal_columns(X)
    assert np.array_equal(frame, X / np.sqrt(5))


def test_the_range_frame_of_diag_1_z_z_takes_the_window_path():
    F = build_theta_range(diag_polys([[1], [0, 1], [0, 1]]), 3, 384).frame_matrix()
    assert F.shape == (385, 381)
    assert np.count_nonzero(F) == 381
    Y = shifted(F)
    assert takes_windows(F, Y) and _window_pairs(F, Y) is not None
    assert_agrees(F, Y)
    assert_rows_agree(F, Y)
    assert _window_pairs(F, F) is not None and _gram_gap(F) == (0.0, 0.0)


def test_tiny_products_are_not_scanned(monkeypatch, rng):
    def scan(A):
        raise AssertionError("a tiny product was scanned")

    monkeypatch.setattr(subspaces, "_windows", scan)
    # fewer than SCAN columns on either side; p = 3 as in the Wold layer products
    for n, d, p in [(385, 63, 64), (385, 381, 3), (385, 381, 0), (385, 200, 63)]:
        F, Y = banded(rng, n, d), banded(rng, n, p)
        C, res = frame_distance(F, Y)
        C0, res0 = dense_distance(F, Y)
        assert np.array_equal(C, C0) and np.array_equal(res, res0)
    X = banded(rng, 385, 63)
    assert _gram_gap(X)[0] == np.max(np.abs(X.conj().T @ X - np.eye(63)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_a_non_finite_image_where_the_frame_is_zero_still_fails(rng, bad):
    # far from every window: row 350, where no frame column is nonzero
    F = banded(rng, 385, 200)
    F[320:] = 0
    # near: the first row past the image of column 7 where no frame column is nonzero
    G = banded(rng, 385, 100, width=2)
    gaps = np.flatnonzero(~np.any(G != 0, axis=1))
    row = gaps[gaps > np.flatnonzero(G[:, 7])[-1] + 1][0]
    for F, r in ((F, 350), (G, row)):
        Y = shifted(F)
        Y[r, 7] = bad
        if r == row:
            assert _window_pairs(F, Y) is not None
        with np.errstate(invalid="ignore"):  # inf·0 is NaN, as in the dense product
            C, res = frame_distance(F, Y)
        assert np.all(np.isfinite(np.delete(C, 7, axis=1)))
        assert not np.isfinite(res[7])  # the residual carries the bad entry ...
        assert np.all(np.isfinite(np.delete(res, 7)))  # ... and no other column's does


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_entry_counts_as_nonzero(rng, bad):
    A = banded(rng, 385, 200)
    B = np.zeros((385, 70), dtype=complex)
    B[:, 1:] = banded(rng, 385, 69)
    B[100, 0] = bad  # column 0 of B is otherwise zero
    assert takes_windows(A, B) and _window_pairs(A, B) is not None
    meets = np.flatnonzero(A[100] != 0)
    with np.errstate(invalid="ignore"):
        C, res = frame_distance(A, B)
    assert meets.size and not np.any(np.isfinite(C[meets, 0]))
    assert not np.isfinite(res[0]) and np.all(np.isfinite(res[1:]))
    X = A.copy()
    X[100, meets[0]] = bad
    assert takes_windows(X, X)
    with np.errstate(invalid="ignore"):
        assert np.all(np.isnan(_gram_gap(X)))
        assert _orthonormal_columns(X) is None


def test_a_zero_column_pairs_with_nothing(rng):
    F = banded(rng, 385, 200)
    F[:, 5] = 0
    Y = shifted(F)
    Y[:, 9] = 0
    assert takes_windows(F, Y) and len(_window_pairs(F, Y)[0]) == window_work(F, Y)[0]
    assert_agrees(F, Y)
    assert_rows_agree(F, Y)
    C, res = frame_distance(F, Y)
    assert not np.any(C[5]) and not np.any(C[:, 9]) and res[9] == 0.0
    assert takes_windows(F, F)
    assert _gram_gap(F)[0] == np.max(np.abs(F.conj().T @ F - np.eye(200))) == 1.0


def test_a_column_that_reaches_the_last_row(rng):
    # the last columns end on the last row, so their windows are moved up
    F = banded(rng, 385, 150, width=3)
    F[-2:, -1] = [0.6, 0.8]
    F[-1, -2], F[:-1, -2] = 1.0, 0.0
    Y = np.zeros((385, 80), dtype=complex)
    Y[:, :79] = shifted(F)[:, -79:]  # the last of them on the last row too
    Y[-1, 79] = 1.0
    assert takes_windows(F, Y)
    assert_agrees(F, Y)
    assert_rows_agree(F, Y)
    assert takes_windows(F, F)
    assert abs(_gram_gap(F)[0] - np.max(np.abs(F.conj().T @ F - np.eye(150)))) <= 1e-14


def test_width_one_windows(rng):
    rows = rng.permutation(382)[:300]
    F = np.zeros((385, 300), dtype=complex)
    F[rows, np.arange(300)] = np.exp(2j * np.pi * rng.random(300))
    Y = np.roll(F, 3, axis=0)  # no column wraps round
    Y[:, ::2] = F[:, ::2]
    assert takes_windows(F, Y) and _window_pairs(F, Y)[-1] == 1  # W
    assert_agrees(F, Y)
    assert_rows_agree(F, Y)
    assert _gram_gap(F)[0] <= 1e-15 and _orthonormal_columns(F) is not None


@pytest.mark.parametrize("width, windowed", [(4, True), (5, False)])
def test_a_frame_over_the_pair_budget_goes_dense(rng, width, windowed):
    # 64 columns on the same width rows: 64 × 64 pairs, so the window work
    # 64 · 64 · width exceeds Y's 256 × 64 entries from width 5 on
    F = np.zeros((256, 64), dtype=complex)
    F[:width] = dense(rng, width, 64)
    Y = shifted(F)
    assert takes_windows(F, Y) == windowed
    assert (_window_pairs(F, Y) is not None) == windowed
    assert_agrees(F, Y)
    assert_rows_agree(F, Y)
