"""Deterministic serialization of verdicts, witnesses and matrices.

All floats are rounded to 12 significant digits before they enter a
payload, orderings are fixed by construction, and nothing time- or
machine-dependent is ever written, so identical inputs produce
byte-identical reports.  Under the print floor, reports also do not
depend on the order of rounding (see ``floored`` and ``floored12``).
"""

from __future__ import annotations

import math
from typing import Any, Optional

import numpy as np

from .invariance import CheckReport, Witness
from .laurent import LaurentMatrix
from .tolerances import PRINT_FLOOR

__all__ = [
    "round12",
    "floored12",
    "floored",
    "complex_pair",
    "poly_pairs",
    "element_payload",
    "witness_payload",
    "check_payload",
    "stage_payload",
    "matrix_payload",
    "matrix_text",
]


def round12(x: float) -> float:
    return float(f"{float(x):.12g}")


def floored12(x: float) -> float:
    """round12 of a relative gap; 0.0 within the print floor."""
    return 0.0 if abs(x) <= PRINT_FLOOR else round12(x)


def floored(c: np.ndarray, scale: Optional[float] = None) -> np.ndarray:
    """A copy of the coefficients c with every real or imaginary part
    within PRINT_FLOOR·scale set to 0.0, so poly_pairs stops at the last
    coefficient above the floor.  The scale defaults to the norm of c
    (``math.hypot`` cannot overflow)."""
    if scale is None:
        scale = math.hypot(*np.abs(c))
    c = np.array(c, dtype=np.complex128)
    for part in (c.real, c.imag):
        part[np.abs(part) <= PRINT_FLOOR * scale] = 0.0
    return c


def complex_pair(z: complex) -> list:
    z = complex(z)
    return [round12(z.real), round12(z.imag)]


def poly_pairs(c: np.ndarray) -> list:
    """complex_pair of every coefficient up to the last nonzero one (of the
    first, when all are zero), formatted in one pass with round12's format
    spec."""
    c = c[: np.flatnonzero(c).max(initial=0) + 1]
    flat = np.column_stack((c.real, c.imag)).ravel().tolist()
    vals = [float(t) for t in ("%.12g " * len(flat) % tuple(flat)).split()]
    return [vals[i: i + 2] for i in range(0, len(vals), 2)]


def element_payload(el: Any) -> Any:
    """Coefficient pairs of the (arity, cap+1) blocks of a span element,
    under the print floor of the norm over all blocks: one block prints
    as a scalar, more as a vector."""
    if not isinstance(el, np.ndarray):
        return el  # already plain (monomial exponent)
    scale = math.hypot(*np.abs(el.ravel()))
    pairs = [poly_pairs(floored(c, scale)) for c in el]
    if len(pairs) == 1:
        return {"kind": "scalar", "coeffs": pairs[0]}
    return {"kind": "vector", "components": pairs}


def witness_payload(w: Witness | None) -> Any:
    if w is None:
        return None
    out = {"element": element_payload(w.element), "image": element_payload(w.image),
           "residual": round12(w.residual)}
    if w.note:
        out["note"] = w.note
    return out


def check_payload(rep: CheckReport) -> dict:
    return {
        "check": rep.check,
        "operator": rep.operator,
        "subspace": rep.subspace,
        "verdict": rep.verdict,
        "witness": witness_payload(rep.witness),
        "untested": list(rep.untested),
        "tested": rep.tested,
    }


def stage_payload(stage) -> dict:
    out = {"name": stage.name, "verdict": stage.verdict}
    if stage.detail:
        out["detail"] = stage.detail
    if isinstance(stage.data, CheckReport):
        out["report"] = check_payload(stage.data)
    return out


def matrix_payload(A: LaurentMatrix) -> dict:
    entries = [[[complex_pair(c) for c in A.table[i, j]] for j in range(A.cols)]
               for i in range(A.rows)]
    return {"rows": A.rows, "cols": A.cols, "min_pow": A.min_pow, "entries": entries}


def _fmt_real(x: float) -> str:
    r = round12(x)
    if r == int(r) and abs(r) < 1e15:
        return str(int(r))
    return f"{r:.12g}"


def _fmt_coef(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _fmt_real(z.real)
    if z.real == 0.0:
        return f"{_fmt_real(z.imag)}i"
    sign = "+" if z.imag >= 0 else "-"
    return f"({_fmt_real(z.real)}{sign}{_fmt_real(abs(z.imag))}i)"


def _fmt_power(p: int) -> str:
    if p == 0:
        return "1"
    if p == 1:
        return "z"
    return f"z^{p}"


def entry_text(min_pow: int, coefs: np.ndarray) -> str:
    terms = []
    for t, c in enumerate(coefs):
        if c == 0:
            continue
        p = min_pow + t
        cs = _fmt_coef(c)
        if p == 0:
            terms.append(cs)
        elif cs == "1":
            terms.append(_fmt_power(p))
        elif cs == "-1":
            terms.append("-" + _fmt_power(p))
        else:
            terms.append(f"{cs}*{_fmt_power(p)}")
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def matrix_text(A: LaurentMatrix) -> list:
    rows = []
    for i in range(A.rows):
        cells = [entry_text(A.min_pow, A.table[i, j]) for j in range(A.cols)]
        rows.append("[" + ", ".join(cells) + "]")
    return rows
