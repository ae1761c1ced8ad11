"""Finite subspace models: orthonormal span frames and monomial exponent sets.

A SpanSubspace is a degree-capped numerical model; every verdict computed
on one is only meaningful "at truncation cap", and builders record that in
the label.  A MonomialSubspace is exact combinatorics: membership of an
exponent is decided by dynamic programming over the semigroup generators
plus a finite exceptional set.

Orthogonal generators over their norms are their own frame; any other
frame is built by one kernel, ``_cgs2``: classical Gram-Schmidt with one
reorthogonalization, in input order; rank drops are recorded.  A span
stores its one read-only frame matrix, and every operation here uses it.

Range frames are banded (a lifted generator Θ·z^j δ_i has at most m·(deg Θ + 1)
nonzero coefficients), so the membership residual and the Gram test multiply only
the column pairs whose windows overlap (``_window_pairs``), unless that work exceeds
the size of the right factor, and add a residual straight into each column's window.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import NotASubspaceOf, OutOfCap, ParamOutOfRange, _is_integer
from .tolerances import EPS, EXACT_TOL, MEMBERSHIP_TOL, RANK_TOL

__all__ = [
    "SpanSubspace",
    "MonomialSubspace",
    "orthonormalize",
    "project",
    "Projection",
    "frame_distance",
    "intersect_shifted",
    "intersect",
    "ortho_complement_within",
    "monomial_membership",
]


@dataclass(frozen=True, eq=False)
class SpanSubspace:
    """Orthonormal frame spanning a capped model of a subspace.

    ``matrix`` is the frame: a read-only array of shape
    (arity*(cap+1), dim) whose columns are the frame vectors, arity
    component blocks of cap+1 coefficients stacked.  A complex array passed
    in is owned by the span and made read-only, not copied.  A non-finite
    entry, or an arity or cap that is not an integer (a bool is not one),
    raises ParamOutOfRange.

    ``band`` is the highest degree the model actually represents: None for
    an exact finite-dimensional space, a value below the cap for truncated
    models of infinite-dimensional spaces (the builders set it).  Checkers
    must not draw verdicts from images above the band.
    """

    matrix: np.ndarray
    cap: int
    arity: int
    rank_tol: float = RANK_TOL
    generators: tuple = ()
    dropped: tuple = ()
    label: str = ""
    band: object = None

    def __post_init__(self) -> None:
        if not (_is_integer(self.arity) and _is_integer(self.cap)):
            raise ParamOutOfRange(f"arity {self.arity!r} and cap {self.cap!r} must be integers")
        n = self.arity * (self.cap + 1)
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != n:
            raise ValueError(f"frame matrix must have {n} rows, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ParamOutOfRange("frame matrix has non-finite coefficients")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def effective_band(self) -> int:
        return self.cap if self.band is None else min(self.cap, int(self.band))

    def frame_matrix(self) -> np.ndarray:
        """The stored frame matrix; shape (arity*(cap+1), dim)."""
        return self.matrix

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.label!r}" if self.label else ""
        return f"SpanSubspace(dim={self.dim}, arity={self.arity}, cap={self.cap}{tag})"


def _cgs2(rows: np.ndarray, threshold) -> tuple:
    """CGS2 ("twice is enough") over the rows, in order: each row is
    projected off the vectors kept so far twice, w -= Q (Qᴴ w), and is
    dropped when the norm left is below its threshold (one, or one per
    row), else normalized and kept.  Returns the frame matrix, the dropped
    row indices and r, the least fraction of its norm a kept row had left.
    A frame vector is off by about EPS/r, so when r < EPS/EXACT_TOL the
    pass is done again in extended precision (2⁻⁶⁴/r off on x86-64) and
    rounded once.  Then r becomes the least singular value of the kept
    rows scaled to unit norm, if smaller: rounding each row by EPS moves
    their span by up to EPS over it."""
    threshold = np.broadcast_to(threshold, len(rows)).tolist()
    norms = np.linalg.norm(rows, axis=1)
    for dtype in (np.complex128, np.clongdouble):
        Q = np.empty(rows.shape, dtype)  # kept vectors as rows
        r, dropped, least = 0, [], 1.0
        for idx, g in enumerate(rows.astype(dtype, copy=False)):
            w = g.copy()
            for _ in range(2):
                w -= (Q[:r] @ w.conj()).conj() @ Q[:r]
            nrm = float(np.linalg.norm(w))
            if nrm < threshold[idx] or nrm == 0.0:
                dropped.append(idx)
            else:
                Q[r] = w / nrm
                least = min(least, nrm / norms[idx])
                r += 1
        if least >= EPS / EXACT_TOL:
            break
    else:
        kept = np.delete(np.arange(len(rows)), dropped)
        unit = rows[kept] / norms[kept, None]
        least = min(least, float(np.linalg.svd(unit, compute_uv=False)[-1]))
    return np.ascontiguousarray(Q[:r].T, dtype=np.complex128), tuple(dropped), least


def _windows(A: np.ndarray) -> tuple:
    """Each column's first nonzero row and its width to its last (0 for a zero column),
    a NaN or infinity being nonzero; A's float view is tested, a third of the cost of a
    complex != 0, and an entry's two part tests read as one uint16."""
    nz = (np.ascontiguousarray(A, np.complex128).view(np.float64) != 0).view(np.uint16) != 0
    lo = nz.argmax(axis=0)
    live = nz[lo, np.arange(A.shape[1])]
    return lo, np.where(live, len(A) - nz[::-1].argmax(axis=0) - lo, 0)


def _window_pairs(F: np.ndarray, Y: np.ndarray):
    """Each column of F and Y lies in the W rows from its first nonzero one (moved up
    to end by the last row), W the widest; the pairs (pi, pj) whose windows overlap are
    multiplied on F's window rows, to G, and the rest are exact zeros.  Returns (pi, pj,
    rows, F's entries there, G, lo_y, W), or None for the one dense product: when a factor
    has fewer than 64 columns (a scan costs about what it saves) or pairs × W > Y.size."""
    n, p = Y.shape
    if min(F.shape[1], p) < 64:
        return None
    lo_f, w_f = _windows(F)
    lo_y, w_y = (lo_f, w_f) if Y is F else _windows(Y)
    W = int(max(w_f.max(), w_y.max(), 1))
    lo_f, lo_y = np.minimum(lo_f, n - W), np.minimum(lo_y, n - W)
    order = np.flatnonzero(w_f)[np.argsort(lo_f[w_f > 0], kind="stable")]  # live columns
    first = np.searchsorted(lo_f[order], lo_y - W, "right")
    count = np.where(w_y > 0, np.searchsorted(lo_f[order], lo_y + W) - first, 0)
    if count.sum() * W > n * p:
        return None
    pj = np.repeat(np.arange(p), count)
    pi = order[np.arange(pj.size) + np.repeat(first + count - np.cumsum(count), count)]
    rows = lo_f[pi, None] + np.arange(W)
    Fw = F[rows, pi[:, None]]
    return pi, pj, rows, Fw, np.einsum("kw,kw->k", Fw.conj(), Y[rows, pj[:, None]]), lo_y, W


def _gram_gap(X: np.ndarray) -> float:
    """max |Xᴴ X - I|, on the window pairs of X when ``_window_pairs`` takes them."""
    if (pairs := _window_pairs(X, X)) is None:
        return float(np.max(np.abs(X.conj().T @ X - np.eye(X.shape[1])), initial=0.0))
    diag = pairs[0] == pairs[1]  # a zero column pairs with nothing: its Gram entry is 0
    return float(np.max(np.abs(pairs[4] - diag), initial=float(diag.sum() < X.shape[1])))


def _residual(F: np.ndarray, Y: np.ndarray) -> tuple:
    """(Fᴴ Y, R, starts): R is F Fᴴ Y - Y, column j on rows starts[j] on, the only ones
    that can be nonzero; each pair's F[:, i] (Fᴴ Y)[i, j] is added straight into those
    3W - 2 rows (or n), so no n × d product is formed.  Dense, R is the whole residual."""
    n, d, p = F.shape[0], F.shape[1], Y.shape[1]
    if (pairs := _window_pairs(F, Y)) is None:
        C = F.conj().T @ Y
        return C, F @ C - Y, np.zeros(p, dtype=int)
    pi, pj, rows, Fw, G, lo_y, W = pairs
    C = np.zeros((d, p), np.complex128)
    C[pi, pj] = G
    L = min(3 * W - 2, n)
    starts = np.clip(lo_y - W + 1, 0, n - L)
    at, FC = ((rows - starts[pj, None]) * p + pj[:, None]).ravel(), (Fw * G[:, None]).ravel()
    R = (np.bincount(at, FC.real, L * p) + 1j * np.bincount(at, FC.imag, L * p)).reshape(L, p)
    wy = lo_y + np.arange(W)[:, None]
    R[wy - starts, np.arange(p)] -= Y[wy, np.arange(p)]
    return C, R, starts


def _orthonormal_columns(columns: np.ndarray):
    """The columns over their norms if their Gram matrix is I within EXACT_TOL, else None."""
    with np.errstate(all="ignore"):  # a zero, non-finite, under- or overflowing norm fails
        X = columns / np.linalg.norm(columns, axis=0)
        return X if _gram_gap(X) <= EXACT_TOL else None


def orthonormalize(columns: np.ndarray, rank_tol: float = RANK_TOL, label: str = "",
                   band=None, arity: int = 1) -> SpanSubspace:
    """Orthonormal frame of the generators, in input order: the generators
    over their norms when their Gram matrix is I within EXACT_TOL, else ``_cgs2``'s.

    The generators are the columns, each arity stacked component blocks of
    cap+1 coefficients, and are the span's generators.  No columns give the
    empty span.  Non-finite coefficients, and an arity that is not a
    positive integer dividing the row count, raise ParamOutOfRange.

    The rounding of its own coefficients moves a generator kept with the
    fraction r of its norm left after the kept ones by about EPS/r, and
    dropping it moves the span by r.  A generator is dropped, and its
    index recorded, when r is below rank_tol or when EPS/r would exceed r
    by more than the ladder's ratio MEMBERSHIP_TOL/rank_tol, that is below
    (EPS * rank_tol / MEMBERSHIP_TOL) ** 0.5; r is taken against the
    generator's own norm, whatever its size.  The span's rank_tol is
    max(rank_tol, EPS/r) for the r that ``_cgs2`` returns.

    Scale policy: before ``_cgs2`` takes a norm, each generator is multiplied
    by the exact power of two that brings its largest real or imaginary
    coefficient magnitude into [0.5, 1): exact for normal inputs, so no frame
    bit changes there, while tiny inputs keep their norms clear of subnormal
    underflow, which would leave the frame vectors visibly short of unit length.
    """
    if not _is_integer(arity):
        raise ParamOutOfRange(f"arity must be an integer, got {arity!r}")
    if arity < 1 or columns.shape[0] % arity:
        raise ParamOutOfRange(f"{columns.shape[0]} rows do not stack {arity} component blocks")
    frame, dropped = _orthonormal_columns(columns), ()
    if frame is None:
        rows = np.array(columns.T, dtype=np.complex128, order="C")
        if not np.all(np.isfinite(rows)):
            raise ParamOutOfRange("generators must have finite coefficients")
        top = np.maximum(np.max(np.abs(rows.real), axis=1, initial=0.0),
                         np.max(np.abs(rows.imag), axis=1, initial=0.0))
        exponent = -np.frexp(top)[1][:, None]  # 0 for a zero row
        rows.real = np.ldexp(rows.real, exponent)
        rows.imag = np.ldexp(rows.imag, exponent)
        drop = max(rank_tol, (EPS * rank_tol / MEMBERSHIP_TOL) ** 0.5)
        frame, dropped, r = _cgs2(rows, drop * np.linalg.norm(rows, axis=1))
        rank_tol = max(rank_tol, EPS / r)
    cap = columns.shape[0] // arity - 1
    return SpanSubspace(frame, cap, arity, rank_tol, tuple(columns.T), dropped, label, band)


class Projection(NamedTuple):
    projection: np.ndarray
    residual: float
    coords: np.ndarray


def frame_distance(F: np.ndarray, Y: np.ndarray) -> tuple:
    """(Fᴴ Y, distances): the coordinates of Y's columns against F's orthonormal
    columns, and the norm of each column of F Fᴴ Y - Y, its distance from their span."""
    C, R, _ = _residual(F, Y)
    return C, np.sqrt(np.sum(np.abs(R) ** 2, axis=0))


def _residual_rows(F: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The norm of each row of F Fᴴ Y - Y, taken of ``_residual``'s compact residual."""
    _, R, starts = _residual(F, Y)
    if len(R) == len(F):
        return np.linalg.norm(R, axis=1)
    at = (starts + np.arange(len(R))[:, None]).ravel()
    return np.sqrt(np.bincount(at, (np.abs(R) ** 2).ravel(), len(F)))


def project(y: np.ndarray, M: SpanSubspace) -> Projection:
    """Orthogonal projection of the column y onto the frame span, with its
    residual norm: the one-column call of ``frame_distance``."""
    F = M.frame_matrix()
    if np.shape(y) != (len(F),):
        raise ValueError("column length does not match the subspace")
    coords, residual = frame_distance(F, np.asarray(y)[:, None])
    return Projection(F @ coords[:, 0], float(residual[0]), coords[:, 0])


def _null_combos(C: np.ndarray, dim: int, rank_tol: float) -> tuple:
    """Orthonormal coordinate rows spanning null(C)^⊥ and null(C), C x ~ 0,
    from one SVD whose rank counts the s > rank_tol * max(1, s_0)."""
    if C.shape[0] == 0 or not np.any(C):
        return np.zeros((0, dim), dtype=np.complex128), np.eye(dim, dtype=np.complex128)
    u, s, vh = np.linalg.svd(C)
    rank = int(np.sum(s > rank_tol * max(1.0, float(s[0]))))
    return np.conj(vh[:rank]), np.conj(vh[rank:])


def _null_span(M: SpanSubspace, C: np.ndarray, label: str) -> SpanSubspace:
    """The frame combinations F x of M with C x ~ 0.  The coordinate
    vectors are orthonormal, so the new frame is orthonormal as well."""
    combos = _null_combos(C, M.dim, M.rank_tol)[1]
    return SpanSubspace(M.frame_matrix() @ combos.T, M.cap, M.arity, M.rank_tol,
                        label=label, band=M.band)


def intersect_shifted(M: SpanSubspace, k: int) -> SpanSubspace:
    """Capped model of M intersected with z^k H^2 (componentwise for vectors).

    Computed as the null space of the map sending a frame combination to
    its first k coefficients of every component.  A k that is not an
    integer >= 1 (a bool is not one) raises ParamOutOfRange.
    """
    if not (_is_integer(k) and k >= 1):
        raise ParamOutOfRange(f"shift order k must be an integer >= 1, got {k!r}")
    label = f"{M.label or 'M'} ∩ S^{k}H2"
    if M.dim == 0:  # a reshape to (-1, 0) rows is ambiguous
        return replace(M, label=label)
    blocks = M.frame_matrix().reshape(M.arity, M.cap + 1, M.dim)
    return _null_span(M, blocks[:, :k].reshape(-1, M.dim), label)


def intersect(M: SpanSubspace, N: SpanSubspace) -> SpanSubspace:
    """Capped model of M ∩ N: frame combinations of M with no component
    outside N (null space of the residual map)."""
    if (M.arity, M.cap) != (N.arity, N.cap):
        raise ValueError("subspaces must share arity and cap")
    label = f"({M.label or 'M'}) ∩ ({N.label or 'N'})"
    fm = M.frame_matrix()
    fn = N.frame_matrix()
    return _null_span(M, fm - fn @ (fn.conj().T @ fm), label)


def ortho_complement_within(M: SpanSubspace, N: SpanSubspace) -> SpanSubspace:
    """M ⊖ N for N ⊆ M (checked within rank_tol)."""
    if (M.arity, M.cap) != (N.arity, N.cap):
        raise ValueError("subspaces must share arity and cap")
    label = f"{M.label or 'M'} ⊖ {N.label or 'N'}"
    fn = N.frame_matrix()
    coords, outside = frame_distance(M.frame_matrix(), fn)
    limit = M.rank_tol * np.maximum(1.0, np.linalg.norm(fn, axis=0))
    bad = np.flatnonzero(~(outside <= limit))
    if bad.size:
        raise NotASubspaceOf(f"frame vector {bad[0]} has residual "
                             f"{outside[bad[0]]:.3e} outside the ambient span")
    # a combination x is orthogonal to N iff sum_i x_i conj(coords_i) = 0
    return _null_span(M, coords.conj().T, label)


@dataclass(frozen=True, eq=False)
class MonomialSubspace:
    """Exponent-set model: numerical-semigroup combinations of the
    generators, plus a finite exceptional set, tracked up to cap; all of
    these are integers (a bool is not one), or ParamOutOfRange is raised."""

    semigroup_generators: tuple
    cap: int
    exceptional_exponents: frozenset = frozenset()
    label: str = ""
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        gens, exc = tuple(self.semigroup_generators), tuple(self.exceptional_exponents)
        if not all(map(_is_integer, (self.cap, *gens, *exc))):
            raise ParamOutOfRange("cap, generators and exceptional exponents must be integers")
        gens = tuple(sorted(int(g) for g in gens))
        if any(g < 1 for g in gens):
            raise ParamOutOfRange("semigroup generators must be positive integers")
        if self.cap < 0:
            raise ParamOutOfRange("cap must be nonnegative")
        exc = frozenset(int(e) for e in exc)
        if any(e < 0 or e > self.cap for e in exc):
            raise OutOfCap("exceptional exponents must lie in 0..cap")
        table = np.zeros(self.cap + 1, dtype=bool)
        table[0] = True  # the empty combination
        for g in gens:
            for e in range(g, self.cap + 1):
                if table[e - g]:
                    table[e] = True
        for e in exc:
            table[e] = True
        table.flags.writeable = False
        object.__setattr__(self, "semigroup_generators", gens)
        object.__setattr__(self, "exceptional_exponents", exc)
        object.__setattr__(self, "_table", table)

    def exponents(self) -> np.ndarray:
        return np.flatnonzero(self._table)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MonomialSubspace(generators={self.semigroup_generators}, "
                f"cap={self.cap})")


def monomial_membership(e: int, M: MonomialSubspace) -> bool:
    if e < 0 or e > M.cap:
        raise OutOfCap(f"exponent {e} outside tracked range 0..{M.cap}")
    return bool(M._table[e])
