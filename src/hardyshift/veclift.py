"""The interleaving lift between C^m-valued and scalar truncated elements.

``lift`` sends every column of a matrix of m stacked component blocks
(f_0, ..., f_{m-1}) to the scalar column whose coefficient at index
m*j + l is coefficient j of component l, i.e. sum_l z^l f_l(z^m).  It is
a pure row permutation: exact, isometric and invertible, never
polynomial composition.  ``t_m_apply`` is the lift of one vector element.

Component order is l = 0..m-1 and is load-bearing: the multiplication
correspondence with the block shift matrices depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded
from .series import TaylorPoly, inner_product

__all__ = [
    "VectorPoly",
    "lift",
    "fit_cap",
    "t_m_apply",
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VectorPoly(m={self.m}, cap={self.cap})"


def vec_inner(F: VectorPoly, G: VectorPoly) -> complex:
    if F.m != G.m:
        raise ValueError("vector arities differ")
    return sum((inner_product(f, g) for f, g in zip(F.components, G.components)), 0j)


def lift(X: np.ndarray, m: int) -> np.ndarray:
    """Interleave the m component blocks of every column of X: row
    m*j + l of the result is row l*n + j of X, for blocks of n rows."""
    if m < 1 or X.shape[0] % m:
        raise ValueError(f"{X.shape[0]} rows do not stack {m} components")
    return X.reshape(m, X.shape[0] // m, X.shape[1]).transpose(1, 0, 2).reshape(X.shape)


def fit_cap(Y: np.ndarray, m: int, cap: int) -> np.ndarray:
    """Rows 0..cap of the lifted columns Y, zero-padded below; raises
    BudgetExceeded when a nonzero row of Y lies past the cap."""
    past = np.flatnonzero(np.any(Y[cap + 1:], axis=1))
    if past.size:
        r = cap + 1 + int(past[-1])
        raise BudgetExceeded(f"lift of component {r % m} (degree {r // m}) "
                             f"needs index {r} > cap {cap}")
    out = np.zeros((cap + 1, Y.shape[1]), dtype=np.complex128)
    out[: Y.shape[0]] = Y[: cap + 1]
    return out


def t_m_apply(F: VectorPoly) -> TaylorPoly:
    """Interleave components into a scalar element; exact isometry."""
    X = np.concatenate([c.padded(F.cap + 1) for c in F.components])[:, None]
    return TaylorPoly(fit_cap(lift(X, F.m), F.m, F.cap)[:, 0], F.cap)
