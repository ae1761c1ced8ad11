"""Finite subspace models: orthonormal span frames and monomial exponent sets.

A SpanSubspace is a degree-capped numerical model; every verdict computed
on one is only meaningful "at truncation cap", and builders record that in
the label.  A MonomialSubspace is exact combinatorics: membership of an
exponent is decided by dynamic programming over the semigroup generators
plus a finite exceptional set.

Frames are built by modified Gram-Schmidt in input order with a second
orthogonalization pass; rank drops are deterministic and recorded.  A span
stores its frame once, as one read-only matrix, and every operation here
works on that matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import EmptyInput, NotASubspaceOf, OutOfCap, ParamOutOfRange
from .series import TaylorPoly
from .tolerances import RANK_TOL
from .veclift import VectorPoly

__all__ = [
    "SpanSubspace",
    "MonomialSubspace",
    "Element",
    "orthonormalize",
    "project",
    "Projection",
    "intersect_shifted",
    "intersect",
    "ortho_complement_within",
    "monomial_membership",
    "flatten_element",
    "unflatten_element",
]

Element = Union[TaylorPoly, VectorPoly]


def _arity(el: Element) -> int:
    return el.m if isinstance(el, VectorPoly) else 1


def flatten_element(el: Element, cap: int) -> np.ndarray:
    """Coefficient vector of length arity*(cap+1), component blocks stacked."""
    if isinstance(el, VectorPoly):
        return np.concatenate([c.padded(cap + 1) for c in el.components])
    return el.padded(cap + 1)


def unflatten_element(vec: np.ndarray, arity: int, cap: int) -> Element:
    if arity == 1:
        return TaylorPoly(vec, cap)
    n = cap + 1
    comps = tuple(TaylorPoly(vec[l * n: (l + 1) * n], cap) for l in range(arity))
    return VectorPoly(comps)


@dataclass(frozen=True, eq=False)
class SpanSubspace:
    """Orthonormal frame spanning a capped model of a subspace.

    ``matrix`` is the frame: a read-only array of shape
    (arity*(cap+1), dim) whose columns are the flattened frame vectors.  It
    may be passed as that array, which the span then owns and makes
    read-only instead of copying, or as a sequence of elements, which are
    flattened once here.  ``frame`` builds the elements from the columns
    on each access; nothing else is kept.

    ``band`` is the highest degree the model actually represents: None for
    an exact finite-dimensional space, a value below the cap for truncated
    models of infinite-dimensional spaces (the builders set it).  Checkers
    must not draw verdicts from images above the band.
    """

    matrix: object
    cap: int
    arity: int
    rank_tol: float = RANK_TOL
    generators: tuple = ()
    dropped: tuple = ()
    label: str = ""
    band: object = None

    def __post_init__(self) -> None:
        n = self.arity * (self.cap + 1)
        if isinstance(self.matrix, np.ndarray):
            mat = np.asarray(self.matrix, dtype=np.complex128)
        else:
            cols = [flatten_element(u, self.cap) for u in self.matrix]
            mat = np.column_stack(cols) if cols else np.zeros((n, 0), dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != n:
            raise ValueError(f"frame matrix must have {n} rows, got shape {mat.shape}")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def frame(self) -> tuple:
        """Frame vectors as elements, built from the matrix columns."""
        return tuple(unflatten_element(col, self.arity, self.cap) for col in self.matrix.T)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def effective_band(self) -> int:
        return self.cap if self.band is None else min(self.cap, int(self.band))

    def frame_matrix(self) -> np.ndarray:
        """The stored frame matrix; shape (arity*(cap+1), dim)."""
        return self.matrix

    def member_from_coords(self, coords: Sequence[complex]) -> Element:
        vec = self.frame_matrix() @ np.asarray(coords, dtype=np.complex128)
        return unflatten_element(vec, self.arity, self.cap)

    def relabel(self, label: str) -> "SpanSubspace":
        return replace(self, label=label)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.label!r}" if self.label else ""
        return f"SpanSubspace(dim={self.dim}, arity={self.arity}, cap={self.cap}{tag})"


def _from_coord_matrix(M: SpanSubspace, combos: np.ndarray, label: str) -> SpanSubspace:
    """Subspace spanned by frame combinations; combos rows are orthonormal
    coordinate vectors, so the new frame is orthonormal as well."""
    return SpanSubspace(M.frame_matrix() @ combos.T, M.cap, M.arity, M.rank_tol,
                        label=label, band=M.band)


def orthonormalize(generators: Union[Sequence[Element], np.ndarray],
                   rank_tol: float = RANK_TOL, label: str = "",
                   band=None) -> SpanSubspace:
    """Modified Gram-Schmidt in input order with one reorthogonalization pass.

    The generators are elements, or the columns of a matrix of scalar
    coefficients (cap+1 rows).  Non-finite coefficients raise
    ParamOutOfRange.

    Generators whose residual norm falls below rank_tol times the largest
    generator norm are dropped and their indices recorded.

    Scale policy: before any norm is taken, all generators are multiplied
    by one exact power of two that brings the largest real or imaginary
    coefficient magnitude into [0.5, 1).  The factor is exact for normal
    inputs, so it changes no frame bit there; for tiny inputs it keeps the
    norms clear of subnormal underflow, which would otherwise leave the
    frame vectors visibly short of unit length.
    """
    if isinstance(generators, np.ndarray):
        generators = [TaylorPoly(c, generators.shape[0] - 1) for c in generators.T]
    gens = tuple(generators)
    if not gens:
        raise EmptyInput("orthonormalize needs at least one generator")
    arity = _arity(gens[0])
    cap = gens[0].cap
    for g in gens:
        if _arity(g) != arity or g.cap != cap:
            raise ValueError("generators must share arity and cap")
    cols = np.stack([flatten_element(g, cap) for g in gens])
    if not np.all(np.isfinite(cols)):
        raise ParamOutOfRange("generators must have finite coefficients")
    top = max(np.max(np.abs(cols.real)), np.max(np.abs(cols.imag)))
    if top == 0.0:
        return SpanSubspace((), cap, arity, rank_tol, gens,
                            tuple(range(len(gens))), label, band)
    exponent = -int(np.frexp(top)[1])
    cols.real = np.ldexp(cols.real, exponent)
    cols.imag = np.ldexp(cols.imag, exponent)
    scale = max(float(np.linalg.norm(c)) for c in cols)
    frame_vecs: list[np.ndarray] = []
    dropped: list[int] = []
    for idx, c in enumerate(cols):
        w = c.copy()
        for _ in range(2):  # second pass controls cancellation error
            for u in frame_vecs:
                w -= np.vdot(u, w) * u
        nrm = float(np.linalg.norm(w))
        if nrm < rank_tol * scale:
            dropped.append(idx)
        else:
            frame_vecs.append(w / nrm)
    matrix = np.column_stack(frame_vecs) if frame_vecs else ()
    return SpanSubspace(matrix, cap, arity, rank_tol, gens, tuple(dropped), label, band)


class Projection(NamedTuple):
    projection: Element
    residual: float
    coords: np.ndarray


def project(f: Element, M: SpanSubspace) -> Projection:
    """Orthogonal projection onto the frame span, with residual norm."""
    if _arity(f) != M.arity or f.cap != M.cap:
        raise ValueError("element arity/cap does not match the subspace")
    v = flatten_element(f, M.cap)
    fm = M.frame_matrix()
    coords = fm.conj().T @ v
    proj = fm @ coords
    residual = float(np.linalg.norm(v - proj))
    return Projection(unflatten_element(proj, M.arity, M.cap), residual, coords)


def _null_combos(C: np.ndarray, dim: int, rank_tol: float) -> np.ndarray:
    """Orthonormal coordinate vectors x (rows) with C x ~ 0."""
    if C.shape[0] == 0 or not np.any(C):
        return np.eye(dim, dtype=np.complex128)
    u, s, vh = np.linalg.svd(C)
    thresh = rank_tol * max(1.0, float(s[0]) if s.size else 1.0)
    rank = int(np.sum(s > thresh))
    return np.conj(vh[rank:])


def intersect_shifted(M: SpanSubspace, k: int) -> SpanSubspace:
    """Capped model of M intersected with z^k H^2 (componentwise for vectors).

    Computed as the null space of the map sending a frame combination to
    its first k coefficients of every component.
    """
    if k < 1:
        raise ParamOutOfRange(f"shift order k must be >= 1, got {k}")
    label = f"{M.label or 'M'} ∩ S^{k}H2"
    if M.dim == 0:
        return M.relabel(label)
    blocks = M.frame_matrix().reshape(M.arity, M.cap + 1, M.dim)
    C = blocks[:, :k].reshape(-1, M.dim)
    combos = _null_combos(C, M.dim, M.rank_tol)
    return _from_coord_matrix(M, combos, label)


def intersect(M: SpanSubspace, N: SpanSubspace) -> SpanSubspace:
    """Capped model of M ∩ N: frame combinations of M with no component
    outside N (null space of the residual map)."""
    if (M.arity, M.cap) != (N.arity, N.cap):
        raise ValueError("subspaces must share arity and cap")
    label = f"({M.label or 'M'}) ∩ ({N.label or 'N'})"
    if M.dim == 0:
        return M.relabel(label)
    if N.dim == 0:
        return SpanSubspace((), M.cap, M.arity, M.rank_tol, label=label, band=M.band)
    fm = M.frame_matrix()
    fn = N.frame_matrix()
    resid = fm - fn @ (fn.conj().T @ fm)
    combos = _null_combos(resid, M.dim, M.rank_tol)
    return _from_coord_matrix(M, combos, label)


def ortho_complement_within(M: SpanSubspace, N: SpanSubspace) -> SpanSubspace:
    """M ⊖ N for N ⊆ M (checked within rank_tol)."""
    if (M.arity, M.cap) != (N.arity, N.cap):
        raise ValueError("subspaces must share arity and cap")
    label = f"{M.label or 'M'} ⊖ {N.label or 'N'}"
    if N.dim == 0:
        return M.relabel(label)
    fm = M.frame_matrix()
    fn = N.frame_matrix()
    coords = fm.conj().T @ fn
    outside = np.linalg.norm(fn - fm @ coords, axis=0)
    limit = M.rank_tol * np.maximum(1.0, np.linalg.norm(fn, axis=0))
    bad = np.flatnonzero(~(outside <= limit))
    if bad.size:
        raise NotASubspaceOf(f"frame vector {bad[0]} has residual "
                             f"{outside[bad[0]]:.3e} outside the ambient span")
    # a combination x is orthogonal to N iff sum_i x_i conj(coords_i) = 0
    combos = _null_combos(coords.conj().T, M.dim, M.rank_tol)
    return _from_coord_matrix(M, combos, label)


@dataclass(frozen=True, eq=False)
class MonomialSubspace:
    """Exponent-set model: numerical-semigroup combinations of the
    generators, plus a finite exceptional set, tracked up to cap."""

    semigroup_generators: tuple
    cap: int
    exceptional_exponents: frozenset = frozenset()
    label: str = ""
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        gens = tuple(sorted(int(g) for g in self.semigroup_generators))
        if any(g < 1 for g in gens):
            raise ParamOutOfRange("semigroup generators must be positive integers")
        if self.cap < 0:
            raise ParamOutOfRange("cap must be nonnegative")
        exc = frozenset(int(e) for e in self.exceptional_exponents)
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
