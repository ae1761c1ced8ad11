"""Degree-capped Taylor arithmetic for scalar Hardy-space elements.

A function is represented by its complex Taylor coefficients up to a hard
degree cap.  Within the cap all operations are exact (up to double
rounding); any operation that would need coefficients beyond the cap
raises :class:`~hardyshift.errors.BudgetExceeded` instead of silently
dropping the tail, because dropped tails would corrupt invariance
verdicts downstream; the shift kernel ``shift_product`` keeps that rule.
The one Toeplitz kernel (``toeplitz_view``, ``toeplitz_product``) is the
documented exception: it cuts a product at the cap, which leaves every kept
coefficient exact up to rounding (by the view, or by zero-padded FFT once the
symbol window and the columns reach ``_FFT_WINDOW``, about log2(N)·EPS·|b|·|x|
off per entry), and callers that must not lose mass check degrees first.

Everything here is a pure function over immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BudgetExceeded, ParamOutOfRange, _is_integer

__all__ = [
    "TaylorPoly",
    "inner_product",
    "shift_pow",
    "coshift_pow",
    "mul",
    "add",
    "sub",
    "scale",
    "norm",
    "toeplitz_view",
    "toeplitz_product",
    "shift_product",
]

Scalar = Union[int, float, complex]
_FFT_WINDOW = 128  # the size of square products from which the FFT beats the view


def _numbers(values) -> np.ndarray:
    """values as a complex array, checked at once: a bool, object or other
    non-numeric dtype, or a non-finite entry, raises ParamOutOfRange."""
    raw = np.asarray(values)
    if raw.dtype.kind not in "iufc":
        raise ParamOutOfRange(f"coefficients must be numbers, got dtype {raw.dtype}")
    arr = raw.astype(np.complex128)
    if not np.isfinite(arr).all():
        raise ParamOutOfRange("coefficients must be finite")
    return arr


def _coeff_array(coeffs: Iterable[Scalar]) -> np.ndarray:
    arr = np.atleast_1d(_numbers(coeffs if isinstance(coeffs, np.ndarray) else list(coeffs)))
    if arr.ndim != 1:
        raise ValueError("coefficients must form a one-dimensional sequence")
    if arr.size == 0:
        arr = np.zeros(1, dtype=np.complex128)
    return arr


@dataclass(frozen=True, eq=False)
class TaylorPoly:
    """Truncated analytic element: finite coefficients 0..deg, hard cap."""

    coeffs: np.ndarray
    cap: int

    def __post_init__(self) -> None:
        if not _is_integer(self.cap) or self.cap < 0:
            raise ParamOutOfRange(f"cap must be a nonnegative integer, got {self.cap!r}")
        arr = _coeff_array(self.coeffs)
        if arr.size > self.cap + 1:
            if np.any(arr[self.cap + 1:] != 0):
                raise BudgetExceeded(
                    f"coefficients up to degree {arr.size - 1} exceed cap {self.cap}"
                )
            arr = arr[: self.cap + 1]
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    # -- queries ----------------------------------------------------------

    def deg(self) -> int:
        """Highest index with a nonzero stored coefficient, -1 for zero."""
        nz = np.flatnonzero(self.coeffs)
        return int(nz[-1]) if nz.size else -1

    def norm2(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def padded(self, length: int) -> np.ndarray:
        out = np.zeros(length, dtype=np.complex128)
        n = min(length, self.coeffs.size)
        out[:n] = self.coeffs[:n]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaylorPoly(deg={self.deg()}, cap={self.cap})"


def _common_cap(f: TaylorPoly, g: TaylorPoly) -> int:
    return min(f.cap, g.cap)


def inner_product(f: TaylorPoly, g: TaylorPoly) -> complex:
    """Coefficient pairing <f, g> = sum f_j conj(g_j); linear in f."""
    n = max(f.coeffs.size, g.coeffs.size)
    return complex(np.vdot(g.padded(n), f.padded(n)))


def norm(f: TaylorPoly) -> float:
    return f.norm()


def _column_op(kind: str, f: TaylorPoly, k: int) -> TaylorPoly:
    """``shift_product`` on the single column f."""
    if k < 0:
        raise ValueError(f"{kind} power must be nonnegative")
    if k == 0:
        return f
    col = shift_product(k, kind == "coshift", f.padded(f.cap + 1)[:, None])
    return TaylorPoly(col[:, 0], f.cap)


def shift_pow(f: TaylorPoly, k: int) -> TaylorPoly:
    """Multiply by z^k (k-fold forward shift); norm preserving."""
    return _column_op("shift", f, k)


def coshift_pow(f: TaylorPoly, k: int) -> TaylorPoly:
    """Drop the first k coefficients (k-fold backward shift)."""
    return _column_op("coshift", f, k)


def mul(f: TaylorPoly, g: TaylorPoly) -> TaylorPoly:
    """Exact Cauchy product within the (smaller) cap."""
    cap = _common_cap(f, g)
    df, dg = f.deg(), g.deg()
    if df < 0 or dg < 0:
        return TaylorPoly(np.zeros(1), cap)
    if df + dg > cap:
        raise BudgetExceeded(
            f"product degree {df + dg} exceeds cap {cap}"
        )
    arr = np.convolve(f.coeffs[: df + 1], g.coeffs[: dg + 1])
    return TaylorPoly(arr, cap)


def add(f: TaylorPoly, g: TaylorPoly) -> TaylorPoly:
    cap = _common_cap(f, g)
    n = max(f.coeffs.size, g.coeffs.size)
    if n > cap + 1 and (f.deg() > cap or g.deg() > cap):
        raise BudgetExceeded("operand degree exceeds the common cap")
    return TaylorPoly(f.padded(n) + g.padded(n), cap)


def sub(f: TaylorPoly, g: TaylorPoly) -> TaylorPoly:
    return add(f, scale(g, -1.0))


def scale(f: TaylorPoly, c: Scalar) -> TaylorPoly:
    return TaylorPoly(f.coeffs * complex(c), f.cap)


def toeplitz_view(b: np.ndarray, adjoint: bool) -> np.ndarray:
    """The lower triangular Toeplitz matrix T[i, j] = b[i - j] of the cap+1
    symbol coefficients b, or its conjugate transpose, as a read-only
    window view of one zero-padded copy of b."""
    cap = b.size - 1
    # windows w[i] = (0, ..., 0, b_0, ..., b_i) of the zero-padded symbol
    w = sliding_window_view(np.concatenate([np.zeros(cap), b.conj() if adjoint else b]),
                            cap + 1)
    return w[::-1] if adjoint else w[:, ::-1]


def _fft_length(size: int) -> int:
    """A 2·3·5-smooth length >= size: the least m·2^e over small odd m."""
    return min(m << (-(-size // m) - 1).bit_length() for m in (1, 3, 5, 9, 15, 25, 27, 45, 75, 81))


def toeplitz_product(b: np.ndarray, adjoint: bool, X: np.ndarray) -> np.ndarray:
    """``toeplitz_view(b, adjoint)`` times X, cut to the cap+1 rows of X:
    multiplication by the symbol, or its adjoint, on every column of X.  When
    the symbol's window (first to last nonzero) and X's rows (to the last
    nonzero) both reach ``_FFT_WINDOW``, by zero-padded FFT, 4 columns at a
    time (nothing wraps around; the adjoint by the conjugate transform), each
    entry off by about log2(N)·EPS·|b|·|x|; otherwise by the view, bit for bit."""
    nz = np.flatnonzero(X.any(axis=1))
    d = int(nz[-1]) + 1 if nz.size else 0  # the rows of X from d on are zero
    sym = np.flatnonzero(b)
    if not sym.size or min(sym[-1] - sym[0] + 1, d) < _FFT_WINDOW:
        return toeplitz_view(b, adjoint)[:, :d] @ X[:d]
    w = int(sym[-1]) + 1  # the coefficients of b from w on are zero
    N, k = _fft_length(w + d - 1), d if adjoint else min(b.size, w + d - 1)  # rows past k are 0
    f = np.fft.fft(b[:w], N)[:, None]
    out = np.zeros((b.size, X.shape[1]), dtype=np.complex128)
    for c in range(0, X.shape[1], 4):  # chunks bound the transform buffers
        y = np.fft.fft(X[:d, c: c + 4], N, axis=0) * (f.conj() if adjoint else f)
        out[:k, c: c + 4] = np.fft.ifft(y, axis=0)[:k]
    return out


def shift_product(k: int, adjoint: bool, X: np.ndarray, arity: int = 1) -> np.ndarray:
    """Multiplication by z^k, or its adjoint, on every column of X: arity
    stacked component blocks of cap+1 coefficients.  The shift moves the
    rows of each block down and raises BudgetExceeded when a nonzero row
    would pass the cap; the co-shift is a row slice."""
    blocks = X.reshape(arity, -1, X.shape[1])
    n = blocks.shape[1]
    kept = max(n - k, 0)  # rows that stay under the cap
    out = np.zeros(blocks.shape, dtype=np.complex128)
    if adjoint:
        out[:, :kept] = blocks[:, k:]
    elif blocks[:, kept:].any():
        top = kept + int(np.flatnonzero(blocks[:, kept:].any(axis=(0, 2)))[-1])
        raise BudgetExceeded(f"shift by {k} moves degree {top} past cap {n - 1}")
    else:
        out[:, k:] = blocks[:, :kept]
    return out.reshape(X.shape)
