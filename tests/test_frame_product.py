"""The frame product kernel: blocked where a banded frame halves the work,
the one dense product everywhere else."""

import numpy as np
import pytest

from hardyshift import subspaces
from hardyshift.invariance import build_theta_range
from hardyshift.laurent import diag_polys
from hardyshift.subspaces import _frame_product, _orthonormal_columns, frame_distance

BLOCK = subspaces._BLOCK


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


def dense_distance(F, Y):
    C = F.conj().T @ Y
    R = F @ C
    R -= Y
    return C, np.sqrt(np.sum(np.abs(R) ** 2, axis=0))


def takes_blocks(A, B, adjoint):
    """Whether the kernel's rule sends Aᴴ B (or A B) down the blocked path."""
    n, p = A.shape[0], B.shape[1]
    if n < 2 * BLOCK or (A.shape[1] if adjoint else n) * p < BLOCK ** 2:
        return False
    starts = range(0, n, BLOCK)
    cols_a = [np.count_nonzero(np.any(A[s:s + BLOCK] != 0, axis=0)) for s in starts]
    cols_b = ([np.count_nonzero(np.any(B[s:s + BLOCK] != 0, axis=0)) for s in starts]
              if adjoint else [p] * len(starts))
    return 2 * BLOCK * np.dot(cols_a, cols_b) <= n * A.shape[1] * p


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 385])
@pytest.mark.parametrize("p", [0, 1, 70])
def test_frame_distance_agrees_with_the_dense_formula(rng, kind, n, p):
    d = min(n, 96)
    F = KINDS[kind](rng, n, d)
    Y = KINDS[kind](rng, n, p)
    if p <= d:  # columns partly in the span
        Y[: n // 2] += F[: n // 2, :p]
    C, res = frame_distance(F, Y)
    C0, res0 = dense_distance(F, Y)
    assert C.shape == (d, p) and res.shape == (p,)
    if takes_blocks(F, Y, True) or takes_blocks(F, C0, False):
        assert np.max(np.abs(C - C0), initial=0.0) <= 1e-14
        assert np.max(np.abs(res - res0), initial=0.0) <= 1e-14
    else:  # bit for bit the dense products
        assert np.array_equal(C, C0) and np.array_equal(res, res0)


@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("kind", ["banded", "block_sparse"])
def test_stacked_frames_take_the_blocked_path(rng, arity, kind):
    n = arity * 129
    F = KINDS[kind](rng, n, 120)
    Y = np.roll(F, 1, axis=0)  # a shifted frame, as a check applies
    assert takes_blocks(F, Y, True)
    C, res = frame_distance(F, Y)
    C0, res0 = dense_distance(F, Y)
    assert np.max(np.abs(C - C0)) <= 1e-14
    assert np.max(np.abs(res - res0)) <= 1e-14


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("n", [1, 64, 129, 385])
def test_gram_test_agrees_with_the_dense_formula(rng, kind, n):
    X = KINDS[kind](rng, n, min(n, 120))
    G, G0 = _frame_product(X, X, True), X.conj().T @ X
    if takes_blocks(X, X, True):
        assert np.max(np.abs(G - G0)) <= 1e-14
    else:
        assert np.array_equal(G, G0)
    decided = np.max(np.abs(G0 - np.eye(len(G0))), initial=0.0) <= subspaces.EXACT_TOL
    assert (_orthonormal_columns(X) is not None) == decided


def test_orthogonal_banded_generators_pass_the_gram_test_on_the_blocked_path():
    X = np.zeros((385, 190), dtype=complex)
    X[2 * np.arange(190), np.arange(190)] = 1j
    X[2 * np.arange(190) + 1, np.arange(190)] = -2.0
    assert takes_blocks(X, X, True)
    frame = _orthonormal_columns(X)
    assert frame is not None and np.array_equal(frame, X / np.sqrt(5))


def test_the_range_frame_of_diag_1_z_z_takes_the_blocked_path():
    F = build_theta_range(diag_polys([[1], [0, 1], [0, 1]]), 3, 384).frame_matrix()
    assert F.shape == (385, 381)
    assert np.count_nonzero(F) / F.size < 0.01
    Y = np.zeros_like(F)
    Y[1:] = F[:-1]
    assert takes_blocks(F, Y, True)
    C, res = frame_distance(F, Y)
    C0, res0 = dense_distance(F, Y)
    assert np.max(np.abs(C - C0)) <= 1e-14 and np.max(np.abs(res - res0)) <= 1e-14


def test_tiny_products_are_not_scanned(monkeypatch, rng):
    def scan(A):
        raise AssertionError("a tiny product was scanned")

    monkeypatch.setattr(subspaces, "_block_columns", scan)
    # fewer than two blocks of rows, or fewer than BLOCK² output entries
    for n, d, p in [(127, 100, 100), (385, 63, 64), (385, 381, 0)]:
        F, Y = banded(rng, n, d), banded(rng, n, p)
        assert np.array_equal(_frame_product(F, Y, True), F.conj().T @ Y)
    F, C = banded(rng, 385, 200), rng.standard_normal((200, 10))
    assert np.array_equal(_frame_product(F, C, False), F @ C)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_a_non_finite_image_where_the_frame_is_zero_still_fails(rng, bad):
    F = banded(rng, 385, 200)
    F[320:] = 0  # the last two row blocks meet no frame column
    Y = np.roll(F, 1, axis=0)
    Y[350, 7] = bad
    assert takes_blocks(F, Y, True)
    C, res = frame_distance(F, Y)
    assert np.all(np.isfinite(C))  # no block multiplies the bad entry ...
    assert not np.isfinite(res[7])  # ... but the residual still carries it
    assert np.all(np.isfinite(np.delete(res, 7)))


@pytest.mark.parametrize("adjoint", [True, False])
@pytest.mark.parametrize("extra, blocked", [(0, True), (1, False)])
def test_blocks_are_taken_at_half_the_dense_work_or_less(rng, adjoint, extra, blocked):
    # row blocks 0 and 1 of A use every column, so blocks cost half the
    # dense work; one more column in block 2 costs more than half
    A = np.zeros((4 * BLOCK, BLOCK), dtype=complex)
    A[: 2 * BLOCK] = dense(rng, 2 * BLOCK, BLOCK)
    A[2 * BLOCK, :extra] = 1.0
    B = dense(rng, len(A) if adjoint else BLOCK, BLOCK)
    # the dense product spreads 0·NaN over its whole column, blocks keep it
    # to the blocks of A that meet the NaN's row
    B[3 * BLOCK if adjoint else 0, 0] = np.nan
    out = _frame_product(A, B, adjoint)
    probe = out[:, 0] if adjoint else out[3 * BLOCK:, 0]
    assert np.all(np.isfinite(probe)) == blocked
    finite = np.isfinite(out[:, 1:])
    assert np.all(finite) and np.max(np.abs(out[:, 1:] - (
        A.conj().T @ B if adjoint else A @ B)[:, 1:])) <= 1e-14


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_entry_counts_as_nonzero(rng, bad):
    A = banded(rng, 385, 200)
    B = np.zeros((385, 70), dtype=complex)
    B[:, 1:] = banded(rng, 385, 69)
    B[100, 0] = bad  # column 0 of B is otherwise zero
    assert takes_blocks(A, B, True)
    meets = np.flatnonzero(np.any(A[BLOCK: 2 * BLOCK] != 0, axis=0))
    C = np.zeros((200, 70), dtype=complex)
    C[:, 1:] = rng.standard_normal((200, 69))
    C[meets[0], 0] = bad
    with np.errstate(invalid="ignore"):  # inf·0 is NaN, as in the dense product
        out, out_c = _frame_product(A, B, True), _frame_product(A, C, False)
    assert meets.size and not np.any(np.isfinite(out[meets, 0]))
    assert not np.all(np.isfinite(out_c[BLOCK: 2 * BLOCK, 0]))
