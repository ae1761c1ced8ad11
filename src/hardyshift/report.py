"""Deterministic serialization of verdicts, witnesses and matrices.

All floats are rounded to 12 significant digits before they enter a
payload, orderings are fixed by construction, and nothing time- or
machine-dependent is ever written, so identical inputs produce
byte-identical reports.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .invariance import CheckReport, Witness
from .laurent import LaurentMatrix
from .series import TaylorPoly
from .veclift import VectorPoly

__all__ = [
    "round12",
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


def complex_pair(z: complex) -> list:
    z = complex(z)
    return [round12(z.real), round12(z.imag)]


def poly_pairs(f: TaylorPoly) -> list:
    d = max(f.deg(), 0)
    return [complex_pair(c) for c in f.coeffs[: d + 1]]


def element_payload(el: Any) -> Any:
    if isinstance(el, VectorPoly):
        return {"kind": "vector", "components": [poly_pairs(c) for c in el.components]}
    if isinstance(el, TaylorPoly):
        return {"kind": "scalar", "coeffs": poly_pairs(el)}
    return el  # already plain (monomial exponent)


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
