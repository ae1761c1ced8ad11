"""Matrices with Laurent-polynomial entries on the unit circle.

The coefficient table is dense over a finite band [min_pow, max_pow];
products are exact entrywise convolutions, and the boundary adjoint is
transpose + conjugate + index negation.  Inner-ness and analyticity are
decided per coefficient against explicit tolerances, and the analyticity
check always reports the largest offending magnitude so that a FAIL
verdict carries its own evidence.

Inputs are restricted to finite-band matrices; scalar disc-automorphism
factors must be pre-expanded to a stated Taylor degree before being placed
in a matrix entry (the expansion tail bound is the caller's to track).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, NotAnalytic, ParamOutOfRange, _is_integer
from .series import _numbers, toeplitz_product
from .tolerances import ANALYTICITY_TOL, INNER_TOL_FLOOR

__all__ = [
    "LaurentMatrix",
    "AnalyticityCheck",
    "build_sigma",
    "adjoint_on_circle",
    "matmul",
    "is_analytic",
    "is_inner",
    "toeplitz_adjoint_apply",
    "allclose",
    "identity",
    "from_poly_grid",
    "diag_polys",
]


@dataclass(frozen=True, eq=False)
class LaurentMatrix:
    """rows x cols matrix; table[i, j, t], finite, is the coefficient of z^(min_pow+t)."""

    rows: int
    cols: int
    min_pow: int
    table: np.ndarray

    def __post_init__(self) -> None:
        if not all(map(_is_integer, (self.rows, self.cols, self.min_pow))):
            raise ParamOutOfRange(f"rows {self.rows!r}, cols {self.cols!r} and "
                                  f"min_pow {self.min_pow!r} must be integers")
        tab = _numbers(self.table)
        if tab.shape[:2] != (self.rows, self.cols) or tab.ndim != 3:
            raise DimensionMismatch("table shape does not match declared rows/cols")
        # Trim all-zero slices at both band ends (an all-zero table keeps its last one).
        live = np.flatnonzero(np.any(tab, axis=(0, 1)))
        lo, hi = (int(live[0]), live[-1] + 1) if live.size else (max(tab.shape[2] - 1, 0), None)
        tab = tab[:, :, lo:hi].copy()
        tab.flags.writeable = False
        object.__setattr__(self, "table", tab)
        object.__setattr__(self, "min_pow", self.min_pow + lo)

    @property
    def max_pow(self) -> int:
        return self.min_pow + self.table.shape[2] - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LaurentMatrix({self.rows}x{self.cols}, "
            f"pows [{self.min_pow}, {self.max_pow}])"
        )


class AnalyticityCheck(NamedTuple):
    ok: bool
    witness: float
    location: tuple | None  # (row, col, power) of the largest negative term


def from_poly_grid(entries: Sequence[Sequence[Sequence[complex]]],
                   min_pow: int = 0) -> LaurentMatrix:
    """Build from nested lists: entries[i][j] = coefficients from z^min_pow up."""
    rows = len(entries)
    if rows == 0:
        raise DimensionMismatch("matrix needs at least one row")
    cols = len(entries[0])
    if cols == 0 or any(len(r) != cols for r in entries):
        raise DimensionMismatch("ragged entry grid")
    width = max(1, max(len(e) for row in entries for e in row))
    tab = np.zeros((rows, cols, width), dtype=np.complex128)
    for i, row in enumerate(entries):
        for j, e in enumerate(row):
            arr = np.asarray(e, dtype=np.complex128)
            tab[i, j, : arr.size] = arr
    return LaurentMatrix(rows, cols, min_pow, tab)


def diag_polys(polys: Sequence[Sequence[complex]]) -> LaurentMatrix:
    n = len(polys)
    grid = [[[0.0] for _ in range(n)] for _ in range(n)]
    for i, p in enumerate(polys):
        grid[i][i] = list(p)
    return from_poly_grid(grid)


def identity(n: int) -> LaurentMatrix:
    tab = np.zeros((n, n, 1), dtype=np.complex128)
    tab[np.arange(n), np.arange(n), 0] = 1.0
    return LaurentMatrix(n, n, 0, tab)


def _check_sigma_params(m: int, gamma: int, k: int) -> None:
    """The one rule for (m, gamma, k): integers, m >= 2, 1 <= gamma <= m - 1, k >= 1."""
    if not all(map(_is_integer, (m, gamma, k))):
        raise ParamOutOfRange(f"m, gamma and k must be integers, got {m!r}, {gamma!r}, {k!r}")
    if m < 2:
        raise ParamOutOfRange(f"m must be >= 2, got {m}")
    if not 1 <= gamma <= m - 1:
        raise ParamOutOfRange(f"gamma must be in 1..{m - 1}, got {gamma}")
    if k < 1:
        raise ParamOutOfRange(f"k must be >= 1, got {k}")


def build_sigma(m: int, gamma: int, k: int) -> LaurentMatrix:
    """Block shift matrix: z^(k+1) I on the top-right gamma block, z^k I on
    the bottom-left (m-gamma) block, zero elsewhere.

    Under the arity-m lift it realises multiplication by z^(k*m+gamma);
    its table holds only the powers k and k+1, so any k costs the same.
    """
    _check_sigma_params(m, gamma, k)
    tab = np.zeros((m, m, 2), dtype=np.complex128)
    for i in range(gamma):
        tab[i, m - gamma + i, 1] = 1.0
    for i in range(m - gamma):
        tab[gamma + i, i, 0] = 1.0
    return LaurentMatrix(m, m, int(k), tab)


def adjoint_on_circle(A: LaurentMatrix) -> LaurentMatrix:
    """Boundary adjoint: transpose, conjugate coefficients, negate powers."""
    tab = np.conj(A.table[:, :, ::-1]).transpose(1, 0, 2)
    return LaurentMatrix(A.cols, A.rows, -A.max_pow, tab)


def matmul(A: LaurentMatrix, B: LaurentMatrix) -> LaurentMatrix:
    """Exact product: entrywise Laurent convolution over the inner index."""
    if A.cols != B.rows:
        raise DimensionMismatch(
            f"inner dimensions differ: {A.rows}x{A.cols} times {B.rows}x{B.cols}"
        )
    width = A.table.shape[2] + B.table.shape[2] - 1
    tab = np.zeros((A.rows, B.cols, width), dtype=np.complex128)
    # the nonzero terms A[i, t] B[t, j], each (i, j) summed in t order
    live = np.any(A.table, axis=2)[:, :, None] & np.any(B.table, axis=2)
    for i, t, j in zip(*np.nonzero(live)):
        tab[i, j] += np.convolve(A.table[i, t], B.table[t, j])
    return LaurentMatrix(A.rows, B.cols, A.min_pow + B.min_pow, tab)


def is_analytic(A: LaurentMatrix, tol: float = ANALYTICITY_TOL) -> AnalyticityCheck:
    """True iff every coefficient at a negative power has magnitude <= tol.

    Always reports the largest negative-power magnitude and its location;
    falsification evidence matters as much as verification.
    """
    if A.min_pow >= 0:
        return AnalyticityCheck(True, 0.0, None)
    neg = min(-A.min_pow, A.table.shape[2])
    block = np.abs(A.table[:, :, :neg])
    flat = int(np.argmax(block))
    i, j, t = np.unravel_index(flat, block.shape)
    witness = float(block[i, j, t])
    if witness == 0.0:
        return AnalyticityCheck(True, 0.0, None)
    return AnalyticityCheck(witness <= tol, witness, (int(i), int(j), A.min_pow + int(t)))


def _require_analytic(A: LaurentMatrix, tol: float, what: str) -> None:
    chk = is_analytic(A, tol)
    if not chk.ok:
        raise NotAnalytic(
            f"{what} has negative-index coefficient of magnitude {chk.witness:.3e} "
            f"at entry {chk.location}"
        )


def is_inner(theta: LaurentMatrix, tol: float = ANALYTICITY_TOL) -> bool:
    """Theta* Theta == identity as a Laurent series, within max(tol, INNER_TOL_FLOOR)."""
    tol = max(tol, INNER_TOL_FLOOR)
    _require_analytic(theta, tol, "inner candidate")
    # an inner Theta has unit-norm columns: no coefficient above 1 + tol, no overflow below
    if np.max(np.abs(theta.table)) > 1 + tol:
        return False
    return allclose(matmul(adjoint_on_circle(theta), theta), identity(theta.cols), tol)


def allclose(A: LaurentMatrix, B: LaurentMatrix, tol: float = 0.0) -> bool:
    if (A.rows, A.cols) != (B.rows, B.cols):
        return False
    lo = min(A.min_pow, B.min_pow)
    hi = max(A.max_pow, B.max_pow)
    width = hi - lo + 1
    ta = np.zeros((A.rows, A.cols, width), dtype=np.complex128)
    tb = np.zeros_like(ta)
    ta[:, :, A.min_pow - lo: A.min_pow - lo + A.table.shape[2]] = A.table
    tb[:, :, B.min_pow - lo: B.min_pow - lo + B.table.shape[2]] = B.table
    return bool(np.all(np.abs(ta - tb) <= tol))


def _lower_symbols(A: LaurentMatrix, n: int) -> np.ndarray:
    """The coefficients of z^0..z^(n-1) of every entry, rows x cols x n;
    powers below 0 are not read."""
    out = np.zeros((A.rows, A.cols, n), dtype=np.complex128)
    # the table indices of powers 0..n-1, in Python ints for any min_pow
    lo, hi = max(0, -A.min_pow), min(A.table.shape[2], n - A.min_pow)
    if lo < hi:
        out[:, :, A.min_pow + lo: A.min_pow + hi] = A.table[:, :, lo:hi]
    return out


def _last_analytic_index(A: LaurentMatrix) -> np.ndarray:
    """Table index of the last nonzero coefficient at a power >= 0 of every
    entry, -1 where there is none; the entry's degree is min_pow plus it.
    Indices, not powers, keep the arithmetic exact for any min_pow."""
    idx = np.arange(A.table.shape[2])
    return np.max(np.where((A.table != 0) & (idx >= -A.min_pow), idx, -1), axis=2)


def toeplitz_adjoint_apply(A: LaurentMatrix, X: np.ndarray) -> np.ndarray:
    """Analytic part of A* F for every column F of X, which stacks A.rows
    component blocks of cap+1 coefficients: the Hilbert-space adjoint of
    the action of A by multiplication.  Powers 0..cap of A* act by the
    lower Toeplitz kernel; A's own powers 1..cap, which are A*'s powers
    -1..-cap conjugated and reflected, by the adjoint kernel.

    For the block shift matrices this reproduces the componentwise co-shift
    pattern used in the co-invariance conclusions.
    """
    n = X.shape[0] // A.rows
    if n < 1 or n * A.rows != X.shape[0]:
        raise DimensionMismatch(f"{X.shape[0]} rows do not stack {A.rows} components")
    lower = _lower_symbols(adjoint_on_circle(A), n)
    upper = _lower_symbols(A, n).transpose(1, 0, 2)
    upper[:, :, 0] = 0  # power 0 acts in lower
    blocks = X.reshape(A.rows, n, X.shape[1])
    out = np.zeros((A.cols, n, X.shape[1]), dtype=np.complex128)
    for symbols, adjoint in ((lower, False), (upper, True)):
        for i, j in zip(*np.nonzero(symbols.any(axis=2))):
            out[i] += toeplitz_product(symbols[i, j], adjoint, blocks[j])
    return out.reshape(-1, X.shape[1])
