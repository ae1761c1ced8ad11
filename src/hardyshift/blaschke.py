"""Finite products of disc automorphisms, their Toeplitz operators, the
associated model space, and layer coordinates for the attached isometry.

Expansions are geometric-series based and deliberately truncated at the
working cap; every construction that truncates reports (or bounds) the
discarded tail, which decays like max_j |z_j|^cap.  Zeros on (or within
1e-12 of) the unit circle are rejected.

The forward coordinate map ``u_apply`` is scalar-to-vector: the i-th power
of the product times the j-th model basis vector is sent to z^i in
component j.  That is the direction in which the conjugation identity
S^m (lift ∘ U) = (lift ∘ U) T_B composes; the reverse map is ``u_invert``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BudgetExceeded, DepthExhausted, ParamOutOfRange, ZeroOnCircle
from .invariance import OperatorSpec
from .series import TaylorPoly, sub as poly_sub
from .subspaces import SpanSubspace, orthonormalize
from .tolerances import MEMBERSHIP_TOL
from .veclift import VectorPoly, t_m_apply

__all__ = [
    "BlaschkeProduct",
    "WoldFrame",
    "taylor_expand",
    "tail_bound",
    "power_expansion",
    "toeplitz_columns",
    "toeplitz_apply",
    "model_basis",
    "build_wold_frame",
    "u_apply",
    "u_invert",
    "check_conjugation",
    "transfer_subspace",
]

_CIRCLE_MARGIN = 1e-12


@dataclass(frozen=True)
class BlaschkeProduct:
    """Unimodular constant times factors (z - z_j)/(1 - conj(z_j) z)."""

    lam: complex
    zeros: tuple

    def __post_init__(self) -> None:
        lam = complex(self.lam)
        if abs(abs(lam) - 1.0) > 1e-14:
            raise ParamOutOfRange(f"|lambda| must be 1, got {abs(lam)!r}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "zeros", tuple(complex(z) for z in self.zeros))

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def check_zeros(self) -> None:
        for z in self.zeros:
            if abs(z) >= 1.0 - _CIRCLE_MARGIN:
                raise ZeroOnCircle(f"factor zero {z!r} is not strictly inside the disc")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlaschkeProduct(degree={self.degree})"


def _divide_geometric(arr: np.ndarray, a: complex, width: int) -> np.ndarray:
    """Division by (1 - conj(a) z) out to the given width:
    out[n] = arr[n] + conj(a) out[n-1].  The quotient has an infinite tail
    for a != 0, so the input is zero-padded to the full width first."""
    abar = complex(np.conj(a))
    if abar == 0:
        return arr.astype(np.complex128, copy=True)
    out = np.zeros(width, dtype=np.complex128)
    out[: min(arr.size, width)] = arr[:width]
    for n in range(1, width):
        out[n] += abar * out[n - 1]
    return out


def _mul_z_minus(arr: np.ndarray, a: complex, width: int) -> np.ndarray:
    """Multiply by (z - a), truncating the result to the given width."""
    arr = arr[:width]
    out = np.zeros(min(arr.size + 1, width), dtype=np.complex128)
    out[: arr.size] -= a * arr
    out[1: arr.size + 1] += arr[: out.size - 1]
    return out


def tail_bound(B: BlaschkeProduct, cap: int) -> float:
    """Bound on any single discarded coefficient of the degree-cap expansion."""
    radii = [abs(z) for z in B.zeros if z != 0]
    if not radii:
        return 0.0
    rho = max(radii)
    return float(B.degree * rho ** max(0, cap - B.degree + 1))


def taylor_expand(B: BlaschkeProduct, cap: int) -> TaylorPoly:
    """Coefficients 0..cap of the product; exact when all zeros sit at 0."""
    if cap < B.degree:
        raise BudgetExceeded(f"cap {cap} is below the product degree {B.degree}")
    B.check_zeros()
    width = cap + 1
    arr = np.zeros(1, dtype=np.complex128)
    arr[0] = B.lam
    for a in B.zeros:
        arr = _divide_geometric(_mul_z_minus(arr, a, width), a, width)
    return TaylorPoly(arr, cap)


def power_expansion(B: BlaschkeProduct, n: int, cap: int) -> TaylorPoly:
    """Degree-cap expansion of the n-th power (truncating convolution)."""
    if n < 1:
        raise ParamOutOfRange("power must be >= 1")
    base = taylor_expand(B, cap).coeffs
    acc = base
    for _ in range(n - 1):
        acc = np.convolve(acc, base)[: cap + 1]
    return TaylorPoly(acc, cap)


def toeplitz_columns(B: BlaschkeProduct, n: int, adjoint: bool,
                     X: np.ndarray) -> np.ndarray:
    """Multiplication by the n-th power of the product, or its adjoint,
    on every column of X (cap+1 coefficient rows).

    A pure-monomial symbol is an exact shift and keeps the shift budget
    guard.  For symbols with off-origin zeros the result is truncated at
    the cap; the truncation is exact-at-truncation (an analytic factor
    cannot move mass downward, so cut tails never pollute kept
    coefficients) and the discarded mass is bounded by ``tail_bound``.
    Either way the operator is the lower triangular Toeplitz matrix
    T[i, j] = b[i - j] of the symbol's coefficients b, and the adjoint is
    its conjugate transpose, which never needs extra budget.
    """
    if not adjoint and all(z == 0 for z in B.zeros):
        return B.lam ** n * OperatorSpec.shift(n * B.degree).apply(X)
    cap = X.shape[0] - 1
    b = power_expansion(B, n, cap).padded(cap + 1)
    # windows w[i] = (0, ..., 0, b_0, ..., b_i) of the zero-padded symbol
    w = sliding_window_view(np.concatenate([np.zeros(cap), b.conj() if adjoint else b]),
                            cap + 1)
    nz = np.flatnonzero(X.any(axis=1))
    d = int(nz[-1]) + 1 if nz.size else 0  # the rows of X from d on are zero
    return (w[::-1] if adjoint else w[:, ::-1])[:, :d] @ X[:d]


def toeplitz_apply(B: BlaschkeProduct, n: int, adjoint: bool,
                   f: TaylorPoly) -> TaylorPoly:
    """``toeplitz_columns`` on one element."""
    return TaylorPoly(toeplitz_columns(B, n, adjoint, f.padded(f.cap + 1)[:, None])[:, 0],
                      f.cap)


def model_basis(B: BlaschkeProduct, cap: int) -> tuple:
    """Orthonormal basis of the model space built from the zero list in
    the given order; valid for repeated zeros.

    Basis vector k is the normalized reproducing kernel at zero k times
    the partial product of the earlier factors.
    """
    B.check_zeros()
    if cap < B.degree:
        raise BudgetExceeded(f"cap {cap} is below the product degree {B.degree}")
    width = cap + 1
    prefix = np.zeros(1, dtype=np.complex128)
    prefix[0] = 1.0
    basis = []
    for a in B.zeros:
        scale = math.sqrt(1.0 - abs(a) ** 2)
        ek = scale * _divide_geometric(prefix, a, width)
        basis.append(TaylorPoly(ek, cap))
        prefix = _divide_geometric(_mul_z_minus(prefix, a, width), a, width)
    return tuple(basis)


@dataclass(frozen=True, eq=False)
class WoldFrame:
    """Layer frame: powers of the product times the model basis, truncated.

    ``matrix`` holds the layer vectors as read-only columns, layer-major:
    column i*m + j models B^i e_j up to the cap.  Entries whose support
    lies entirely above the cap are zero and skipped in diagnostics.
    """

    blaschke: BlaschkeProduct
    basis: tuple
    matrix: np.ndarray
    depth: int
    cap: int

    @property
    def m(self) -> int:
        return len(self.basis)

    @property
    def layers(self) -> tuple:
        """layers[i][j] is column i*m + j as an element."""
        cols = [TaylorPoly(c, self.cap) for c in self.matrix.T]
        return tuple(tuple(cols[i: i + self.m]) for i in range(0, len(cols), self.m))

    def gram_defect(self) -> float:
        """Max deviation of the nonzero layer vectors' Gram matrix from I."""
        A = self.matrix[:, np.linalg.norm(self.matrix, axis=0) > 0.5]
        G = A.conj().T @ A
        return float(np.max(np.abs(G - np.eye(G.shape[0]))))


def build_wold_frame(B: BlaschkeProduct, cap: int,
                     depth: Optional[int] = None) -> WoldFrame:
    """Build layers 0..depth-1.  The default depth fills the cap: layers
    stop once a lift of the covered coordinates could not fit."""
    basis = model_basis(B, cap)
    m = B.degree
    if depth is None:
        depth = max(1, (cap + 1) // m)
    if depth < 1:
        raise ParamOutOfRange("depth must be >= 1")
    bexp = taylor_expand(B, cap).coeffs
    cols = [e.padded(cap + 1) for e in basis]
    for _ in range(depth - 1):
        cols += [np.convolve(bexp, v)[: cap + 1] for v in cols[-m:]]
    matrix = np.column_stack(cols)
    matrix.flags.writeable = False
    return WoldFrame(B, basis, matrix, depth, cap)


def _layer_coords(X: np.ndarray, W: WoldFrame, tol: float) -> tuple:
    """Layer coordinates W^H X of every column of X, with the uncovered
    residuals.  Raises DepthExhausted at the first column whose residual
    is not within tol (a NaN residual fails too)."""
    C = W.matrix.conj().T @ X
    residuals = np.linalg.norm(X - W.matrix @ C, axis=0)
    bad = np.flatnonzero(~(residuals <= tol))
    if bad.size:
        r = float(residuals[bad[0]])
        raise DepthExhausted(f"layer frame of depth {W.depth} leaves residual {r:.3e}", r)
    return C, residuals


def _from_layers(C: np.ndarray, W: WoldFrame) -> np.ndarray:
    """Reassemble scalar columns from layer-major coordinate columns."""
    k = W.depth * W.m
    past = np.flatnonzero(np.any(C[k:], axis=1))
    if past.size:
        layer = (k + int(past[-1])) // W.m
        raise DepthExhausted(f"coordinates reach layer {layer} but the frame has depth "
                             f"{W.depth}", float("nan"))
    return W.matrix[:, : C.shape[0]] @ C[:k]


def u_apply(f: TaylorPoly, W: WoldFrame,
            tol: float = MEMBERSHIP_TOL) -> tuple:
    """Layer coordinates of f, as a vector element, with the uncovered
    residual.  Raises DepthExhausted when the residual exceeds tol.

    The coordinates are the inner products against the layer vectors.
    This is the least-squares solution in the true geometry: the
    untruncated layers are orthonormal, and an element under the cap
    pairs identically with a layer and with its truncation, so the
    inner products are the exact expansion coefficients and the
    uncovered mass is ||f||^2 minus their square sum.
    """
    if f.cap != W.cap:
        raise ValueError("element cap must match the frame cap")
    C, residuals = _layer_coords(f.padded(W.cap + 1)[:, None], W, tol)
    comps = tuple(TaylorPoly(C[j::W.m, 0], W.cap) for j in range(W.m))
    return VectorPoly(comps), float(residuals[0])


def u_invert(F: VectorPoly, W: WoldFrame) -> TaylorPoly:
    """Reassemble a scalar element from layer coordinates."""
    if F.m != W.m:
        raise ValueError("vector arity must match the model dimension")
    size = max(c.coeffs.size for c in F.components)
    coords = np.stack([c.padded(size) for c in F.components], axis=1)  # row i, column j
    return TaylorPoly(_from_layers(coords.reshape(-1, 1), W)[:, 0], W.cap)


def check_conjugation(B: BlaschkeProduct, n: int, f: TaylorPoly, W: WoldFrame,
                      tol: float = MEMBERSHIP_TOL) -> float:
    """Residual of the conjugation identity on f:
    shift by m*n after lifting the coordinates of f, versus lifting the
    coordinates of the Toeplitz image.  Small on the covered band."""
    from .series import shift_pow

    m = W.m
    F, _ = u_apply(f, W, tol)
    lhs = shift_pow(t_m_apply(F), m * n)
    g = toeplitz_apply(B, n, False, f)
    G, _ = u_apply(g, W, tol)
    rhs = t_m_apply(G)
    return poly_sub(lhs, rhs).norm()


def transfer_subspace(M: SpanSubspace, B: BlaschkeProduct, W: WoldFrame,
                      direction: str, tol: float = MEMBERSHIP_TOL) -> SpanSubspace:
    """Unitary transport of a capped scalar subspace between the Toeplitz
    picture and the power-shift picture.

    to_shift:    frame matrix X  ->  W^H X, the layer coordinates, read
                 as lifted scalars (lift ∘ u_apply on every column)
    to_toeplitz: frame matrix X  ->  W X[:depth*m] (u_invert ∘
                 de-interleave on every column)
    Invariance verdicts transfer along this map on the covered band.
    """
    if direction not in ("to_shift", "to_toeplitz"):
        raise ParamOutOfRange(f"unknown direction {direction!r}")
    if M.arity != 1:
        raise ValueError("transfer acts on scalar subspaces")
    if M.cap != W.cap:
        raise ValueError("subspace cap must match the frame cap")
    if B != W.blaschke:
        raise ValueError("frame was built for a different product")
    label = f"{direction}({M.label or 'M'})"
    if not M.dim:
        return SpanSubspace((), M.cap, 1, M.rank_tol, label=label)
    X = M.frame_matrix()
    if direction == "to_toeplitz":
        return orthonormalize(_from_layers(X, W), M.rank_tol, label=label)
    # the lift of layer coordinates is the identity on the layer-major index
    C, _ = _layer_coords(X, W, tol)
    past = np.flatnonzero(np.any(C[M.cap + 1:], axis=1))
    if past.size:
        r = M.cap + 1 + int(past[-1])
        raise BudgetExceeded(f"lift of component {r % W.m} (degree {r // W.m}) "
                             f"needs index {r} > cap {M.cap}")
    images = np.zeros_like(X)
    images[: C.shape[0]] = C[: M.cap + 1]
    return orthonormalize(images, M.rank_tol, label=label)
