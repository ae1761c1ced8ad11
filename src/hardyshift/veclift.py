"""The interleaving lift between C^m-valued and scalar truncated elements.

``t_m_apply`` sends an m-tuple (f_0, ..., f_{m-1}) to the scalar function
whose coefficient at index m*j + l is coefficient j of component l, i.e.
sum_l z^l f_l(z^m).  It is a pure index permutation: exact, isometric and
invertible, never polynomial composition.

Component order is l = 0..m-1 and is load-bearing: the multiplication
correspondence with the block shift matrices depends on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BudgetExceeded
from .series import TaylorPoly, taylor, zero

__all__ = [
    "VectorPoly",
    "vector",
    "unit_vector",
    "t_m_apply",
    "t_m_invert",
    "check_shift_diagram",
    "vec_inner",
]


@dataclass(frozen=True, eq=False)
class VectorPoly:
    """m-tuple of TaylorPoly with a shared cap."""

    components: tuple

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if not comps:
            raise ValueError("a vector element needs at least one component")
        caps = {c.cap for c in comps}
        if len(caps) != 1:
            raise ValueError("all components must share the same cap")
        object.__setattr__(self, "components", comps)

    @property
    def m(self) -> int:
        return len(self.components)

    @property
    def cap(self) -> int:
        return self.components[0].cap

    def deg(self) -> int:
        return max(c.deg() for c in self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def norm2(self) -> float:
        return float(sum(c.norm2() for c in self.components))

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VectorPoly(m={self.m}, deg={self.deg()}, cap={self.cap})"


def vector(components: Sequence[TaylorPoly]) -> VectorPoly:
    return VectorPoly(tuple(components))


def unit_vector(m: int, index: int, cap: int) -> VectorPoly:
    """Constant canonical basis vector delta_index in C^m."""
    if not 0 <= index < m:
        raise ValueError("unit vector index out of range")
    comps = [zero(cap) for _ in range(m)]
    comps[index] = taylor([1.0], cap)
    return VectorPoly(tuple(comps))


def vec_inner(F: VectorPoly, G: VectorPoly) -> complex:
    if F.m != G.m:
        raise ValueError("vector arities differ")
    from .series import inner_product

    return sum((inner_product(f, g) for f, g in zip(F.components, G.components)), 0j)


def t_m_apply(F: VectorPoly) -> TaylorPoly:
    """Interleave components into a scalar element; exact isometry."""
    m = F.m
    cap = F.cap
    top = -1
    for l, comp in enumerate(F.components):
        d = comp.deg()
        if d < 0:
            continue
        idx = m * d + l
        if idx > cap:
            raise BudgetExceeded(
                f"lift of component {l} (degree {d}) needs index {idx} > cap {cap}"
            )
        top = max(top, idx)
    if top < 0:
        return zero(cap)
    out = np.zeros(top + 1, dtype=np.complex128)
    for l, comp in enumerate(F.components):
        d = comp.deg()
        if d < 0:
            continue
        out[l: m * d + l + 1: m] = comp.coeffs[: d + 1]
    return TaylorPoly(out, cap)


def t_m_invert(f: TaylorPoly, m: int) -> VectorPoly:
    """De-interleave a scalar element into its m residue components."""
    if m < 1:
        raise ValueError("arity m must be at least 1")
    comps = []
    for l in range(m):
        sl = f.coeffs[l::m]
        comps.append(TaylorPoly(sl if sl.size else np.zeros(1), f.cap))
    return VectorPoly(tuple(comps))


def check_shift_diagram(F: VectorPoly, m: int) -> float:
    """Residual of the intertwining law: lift(S F) vs S^m lift(F).

    Zero up to floating rounding for every F within budget.
    """
    from .series import shift_pow, sub

    if m != F.m:
        raise ValueError("arity m must match the vector element")
    lhs = t_m_apply(VectorPoly(tuple(shift_pow(c, 1) for c in F.components)))
    rhs = shift_pow(t_m_apply(F), m)
    return sub(lhs, rhs).norm()
