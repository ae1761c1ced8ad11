"""Exception types shared across the package.

All computational errors derive from :class:`HardyShiftError` so batch
drivers can distinguish domain failures from programming errors.
``_is_integer`` is the one test of an integer parameter.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HardyShiftError",
    "BudgetExceeded",
    "ParamOutOfRange",
    "DimensionMismatch",
    "NotAnalytic",
    "NotASubspaceOf",
    "OutOfCap",
    "NotAMember",
    "NoConvergence",
    "DepthExhausted",
    "ZeroOnCircle",
]


class HardyShiftError(Exception):
    """Base class for all domain errors raised by this package."""


class BudgetExceeded(HardyShiftError):
    """A result would need coefficients beyond the degree cap.

    Signals that the guard-band contract is violated; the caller must
    enlarge the cap rather than silently truncate.
    """


class ParamOutOfRange(HardyShiftError, ValueError):
    """A structural parameter (m, gamma, k, ...) is outside its legal range."""


class DimensionMismatch(HardyShiftError, ValueError):
    """Matrix/vector shapes do not line up."""


class NotAnalytic(HardyShiftError):
    """An operand required to be analytic carries negative-index mass."""


class NotASubspaceOf(HardyShiftError):
    """A claimed subspace relation N <= M fails beyond the rank tolerance."""


class OutOfCap(HardyShiftError, ValueError):
    """A monomial exponent query lies outside the tracked range."""


class NotAMember(HardyShiftError):
    """The element to decompose is not in the subspace within tolerance."""


class NoConvergence(HardyShiftError):
    """The peeling recursion stalled or left uncaptured mass.

    Carries ``residual``: the norm that could not be accounted for.  This is
    the computational signal that the input space is not nearly invariant
    under the requested co-shift at the working truncation.
    """

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class DepthExhausted(HardyShiftError):
    """A coordinate frame does not cover the requested element."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class ZeroOnCircle(HardyShiftError, ValueError):
    """A factor zero lies on (or numerically on) the unit circle."""


def _is_integer(value) -> bool:
    """True for Python and numpy integers; a bool is not one here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)
