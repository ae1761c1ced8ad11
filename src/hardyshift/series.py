"""Degree-capped Taylor arithmetic for scalar Hardy-space elements.

A function is represented by its complex Taylor coefficients up to a hard
degree cap.  Within the cap all operations are exact (up to double
rounding); any operation that would need coefficients beyond the cap
raises :class:`~hardyshift.errors.BudgetExceeded` instead of silently
dropping the tail, because dropped tails would corrupt invariance
verdicts downstream.

Everything here is a pure function over immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import BudgetExceeded

__all__ = [
    "TaylorPoly",
    "taylor",
    "monomial",
    "zero",
    "inner_product",
    "shift_pow",
    "coshift_pow",
    "mul",
    "add",
    "sub",
    "scale",
    "norm",
    "allclose",
]

Scalar = Union[int, float, complex]


def _coeff_array(coeffs: Iterable[Scalar]) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(list(coeffs) if not isinstance(coeffs, np.ndarray) else coeffs,
                                   dtype=np.complex128))
    if arr.ndim != 1:
        raise ValueError("coefficients must form a one-dimensional sequence")
    if arr.size == 0:
        arr = np.zeros(1, dtype=np.complex128)
    return arr


@dataclass(frozen=True, eq=False)
class TaylorPoly:
    """Truncated analytic element: coefficients indexed 0..deg, hard cap."""

    coeffs: np.ndarray
    cap: int

    def __post_init__(self) -> None:
        if self.cap < 0:
            raise ValueError("cap must be nonnegative")
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

    def is_zero(self) -> bool:
        return self.deg() < 0

    def norm2(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def padded(self, length: int) -> np.ndarray:
        out = np.zeros(length, dtype=np.complex128)
        n = min(length, self.coeffs.size)
        out[:n] = self.coeffs[:n]
        return out

    def coeff(self, j: int) -> complex:
        if j < 0:
            raise ValueError("coefficient index must be nonnegative")
        return complex(self.coeffs[j]) if j < self.coeffs.size else 0j

    def eval(self, z):
        """Evaluate the stored polynomial at scalar or array argument."""
        return np.polynomial.polynomial.polyval(z, self.coeffs)

    # -- operator sugar (thin wrappers over the module functions) ---------

    def __add__(self, other: "TaylorPoly") -> "TaylorPoly":
        return add(self, other)

    def __sub__(self, other: "TaylorPoly") -> "TaylorPoly":
        return sub(self, other)

    def __neg__(self) -> "TaylorPoly":
        return scale(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, TaylorPoly):
            return mul(self, other)
        return scale(self, other)

    def __rmul__(self, other):
        return scale(self, other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaylorPoly(deg={self.deg()}, cap={self.cap})"


def taylor(coeffs: Sequence[Scalar], cap: int) -> TaylorPoly:
    return TaylorPoly(_coeff_array(coeffs), cap)


def monomial(k: int, cap: int, coefficient: Scalar = 1.0) -> TaylorPoly:
    if k < 0:
        raise ValueError("monomial degree must be nonnegative")
    if k > cap:
        raise BudgetExceeded(f"monomial degree {k} exceeds cap {cap}")
    arr = np.zeros(k + 1, dtype=np.complex128)
    arr[k] = coefficient
    return TaylorPoly(arr, cap)


def zero(cap: int) -> TaylorPoly:
    return TaylorPoly(np.zeros(1, dtype=np.complex128), cap)


def _common_cap(f: TaylorPoly, g: TaylorPoly) -> int:
    return min(f.cap, g.cap)


def inner_product(f: TaylorPoly, g: TaylorPoly) -> complex:
    """Coefficient pairing <f, g> = sum f_j conj(g_j); linear in f."""
    n = max(f.coeffs.size, g.coeffs.size)
    return complex(np.vdot(g.padded(n), f.padded(n)))


def norm(f: TaylorPoly) -> float:
    return f.norm()


def _column_op(kind: str, f: TaylorPoly, k: int) -> TaylorPoly:
    """``OperatorSpec.apply`` on the single column f."""
    if k < 0:
        raise ValueError(f"{kind} power must be nonnegative")
    if k == 0:
        return f
    from .invariance import OperatorSpec

    col = OperatorSpec(kind, k).apply(f.padded(f.cap + 1)[:, None])
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
        return zero(cap)
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


def allclose(f: TaylorPoly, g: TaylorPoly, tol: float = 0.0) -> bool:
    """Entrywise comparison with absolute tolerance (0 means bit-equal)."""
    n = max(f.coeffs.size, g.coeffs.size)
    diff = np.abs(f.padded(n) - g.padded(n))
    return bool(np.all(diff <= tol))
