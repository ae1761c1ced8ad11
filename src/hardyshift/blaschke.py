"""Finite products of disc automorphisms, their Toeplitz operators, the
associated model space, and layer coordinates for the attached isometry.

Expansions are geometric-series based and deliberately truncated at the
working cap; every construction that truncates reports (or bounds) the
discarded tail, whose coefficients decay like cap^(d-1)·max_j |z_j|^cap
for d zeros (``tail_bound``).  Zeros on (or within 1e-12 of) the unit
circle are rejected.

The coordinate map U is scalar-to-vector: the i-th power of the product
times the j-th model basis vector is sent to z^i in component j.  Read
through the lift, the layer-major coordinates W^H X of ``build_wold_frame``
are lift ∘ U, and the conjugation identity S^m (lift ∘ U) = (lift ∘ U) T_B
holds on the covered band.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import BudgetExceeded, DepthExhausted, ParamOutOfRange, ZeroOnCircle, _is_integer
from .series import TaylorPoly, shift_product, toeplitz_product
from .subspaces import SpanSubspace, frame_distance, orthonormalize
from .tolerances import MEMBERSHIP_TOL
from .veclift import VectorPoly, fit_cap

__all__ = [
    "BlaschkeProduct",
    "WoldFrame",
    "taylor_expand",
    "tail_bound",
    "power_expansion",
    "toeplitz_columns",
    "toeplitz_apply",
    "build_wold_frame",
    "u_apply",
    "transfer_subspace",
]

_CIRCLE_MARGIN = 1e-12


@dataclass(frozen=True)
class BlaschkeProduct:
    """Unimodular constant times factors (z - z_j)/(1 - conj(z_j) z)."""

    lam: complex
    zeros: tuple

    def __post_init__(self) -> None:
        if any(isinstance(v, (bool, np.bool_)) for v in (self.lam, *self.zeros)):
            raise ParamOutOfRange("lambda and zeros must be numbers, not booleans")
        lam = complex(self.lam)
        zeros = tuple(complex(z) for z in self.zeros)
        if not zeros:
            raise ParamOutOfRange("a Blaschke product needs at least one zero")
        if not abs(abs(lam) - 1.0) <= 1e-14:
            raise ParamOutOfRange(f"|lambda| must be 1, got {abs(lam)!r}")
        if not all(cmath.isfinite(z) for z in zeros):
            raise ParamOutOfRange(f"zeros must be finite, got {zeros!r}")
        for z in zeros:
            if abs(z) >= 1.0 - _CIRCLE_MARGIN:
                raise ZeroOnCircle(f"factor zero {z!r} is not strictly inside the disc")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "zeros", zeros)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlaschkeProduct(degree={self.degree})"


def tail_bound(B: BlaschkeProduct, cap: int) -> float:
    """Bound on any single discarded coefficient (degree > cap) of the
    expansion; it does not bound their mass.

    With rho the largest zero modulus and d = deg B, the coefficients of
    each factor are at most those of rho + z/(1 - rho z), so the k-th
    coefficient of B is at most C(k+d-1, d-1)·rho^(k-d).  The bound is the
    largest of these over k > cap, and never above 1 (B is inner).
    """
    if not _is_integer(cap):
        raise ParamOutOfRange(f"cap must be an integer, got {cap!r}")
    rho = max(abs(z) for z in B.zeros)
    if rho == 0:
        return 0.0
    d = B.degree
    k = max(cap + 1, math.floor((d * rho - 1) / (1 - rho)) + 1)  # the peak past the cap
    log_c = math.lgamma(k + d) - math.lgamma(k + 1) - math.lgamma(d) + (k - d) * math.log(rho)
    return math.exp(min(0.0, log_c))


def _factor_chain(B: BlaschkeProduct, cap: int) -> tuple:
    """(E, p), cut at the cap: the model basis as the columns of E and the
    product p of the factors (z - a)/(1 - conj(a) z).  For each zero a,
    with P the product of the earlier factors, g = P·sum conj(a)^k z^k is
    one cut product; sqrt(1 - |a|^2)·g is the normalized reproducing
    kernel at a times P, and the next P is z·g - a·g."""
    if not _is_integer(cap):
        raise ParamOutOfRange(f"cap must be an integer, got {cap!r}")
    if cap < B.degree:
        raise BudgetExceeded(f"cap {cap} is below the product degree {B.degree}")
    E = np.empty((cap + 1, B.degree), dtype=np.complex128)
    p = np.zeros(cap + 1, dtype=np.complex128)
    p[0] = 1.0
    for k, a in enumerate(B.zeros):
        geometric = np.cumprod(np.r_[1.0, np.full(cap, a.conjugate())])
        # at a = 0 the symbol is 1; while every earlier zero is 0, p is z^k and moves it
        # k rows down (adding 0.0 signs a zero part as the convolution's sums do)
        g = (p if a == 0 else np.convolve(p, geometric)[: cap + 1] if any(B.zeros[:k])
             else np.r_[np.zeros(k), geometric[: cap + 1 - k]] + 0.0)
        E[:, k] = math.sqrt(1.0 - abs(a) ** 2) * g
        p = np.r_[0.0, g[:-1]] - a * g
    return E, p


def taylor_expand(B: BlaschkeProduct, cap: int) -> np.ndarray:
    """Coefficients 0..cap of the product; exact when all zeros sit at 0."""
    return B.lam * _factor_chain(B, cap)[1]


def power_expansion(B: BlaschkeProduct, n: int, cap: int) -> np.ndarray:
    """Coefficients 0..cap of the n-th power, by cut products: one per
    power up to cap // deg B + 1, and past it binary powering, about
    log2 n of them.  Coefficients up to the cap of a product depend only
    on those of its factors, so every cut is exact.  An n or cap that is
    not an integer (a bool is not one) raises ParamOutOfRange."""
    if not (_is_integer(n) and n >= 1):
        raise ParamOutOfRange(f"power must be an integer >= 1, got {n!r}")
    acc = taylor_expand(B, cap)
    base = acc[: np.flatnonzero(acc)[-1] + 1]  # trailing zeros add nothing
    bits = []  # the low bits of n, handled by squaring
    while n > cap // B.degree + 1:
        bits.append(n & 1)
        n >>= 1
    for _ in range(n - 1):
        if not acc.any():  # a zero power stays zero
            break
        acc = np.convolve(acc, base)[: cap + 1]
    for bit in reversed(bits):
        acc = np.convolve(acc, acc)[: cap + 1]
        if bit:
            acc = np.convolve(acc, base)[: cap + 1]
    return acc


def toeplitz_columns(B: BlaschkeProduct, n: int, adjoint: bool,
                     X: np.ndarray) -> np.ndarray:
    """Multiplication by the n-th power of the product, or its adjoint,
    on every column of X (cap+1 coefficient rows).

    A pure-monomial symbol is an exact shift and keeps the shift budget
    guard.  For symbols with off-origin zeros the result is truncated at
    the cap; the truncation is exact-at-truncation (an analytic factor
    cannot move mass downward, so cut tails never pollute kept
    coefficients), and ``tail_bound`` bounds each single discarded
    coefficient of the expansion of the product, not the discarded mass.
    Either way the operator is ``series.toeplitz_view`` of the symbol's
    coefficients, or its conjugate transpose, which never needs extra budget,
    by FFT for long expansions and columns (about log2(N)·EPS·|b|·|x| off).
    """
    if not adjoint and all(z == 0 for z in B.zeros):
        return B.lam ** n * shift_product(n * B.degree, False, X)
    return toeplitz_product(power_expansion(B, n, X.shape[0] - 1), adjoint, X)


def toeplitz_apply(B: BlaschkeProduct, n: int, adjoint: bool,
                   f: TaylorPoly) -> TaylorPoly:
    """``toeplitz_columns`` on one element."""
    return TaylorPoly(toeplitz_columns(B, n, adjoint, f.padded(f.cap + 1)[:, None])[:, 0],
                      f.cap)


@dataclass(frozen=True, eq=False)
class WoldFrame:
    """Layer frame: powers of the product times the model basis, truncated.

    ``matrix``, built on first read, holds the layer vectors as read-only
    columns, layer-major: column i*m + j models B^i e_j up to the cap, so
    the model basis is ``matrix[:, :m]``.  Entries whose support lies
    entirely above the cap are zero and skipped in diagnostics.
    """

    blaschke: BlaschkeProduct
    depth: int
    cap: int

    @property
    def m(self) -> int:
        return self.blaschke.degree

    @cached_property
    def matrix(self) -> np.ndarray:
        return _layers(self.blaschke, self.cap, self.depth)[0]


def build_wold_frame(B: BlaschkeProduct, cap: int,
                     depth: Optional[int] = None) -> WoldFrame:
    """Layers 0..depth-1.  The default depth fills the cap: layers stop
    once a lift of the covered coordinates could not fit.  A depth whose
    last layer starts above the cap, (depth - 1)·deg B > cap, raises
    BudgetExceeded.  A cap or depth that is not an integer (a bool is not
    one) raises ParamOutOfRange.
    """
    m = B.degree
    if not (_is_integer(cap) and (depth is None or _is_integer(depth))):
        raise ParamOutOfRange(f"cap {cap!r} and depth {depth!r} must be integers")
    if depth is None:
        depth = max(1, (cap + 1) // m)
    if depth < 1:
        raise ParamOutOfRange("depth must be >= 1")
    if (depth - 1) * m > cap:
        raise BudgetExceeded(f"depth {depth} puts layer {depth - 1} of a degree {m} "
                             f"product at degree {(depth - 1) * m} > cap {cap}")
    return WoldFrame(B, depth, cap)


def _layers(B: BlaschkeProduct, cap: int, depth: int) -> tuple:
    """Layers 0..depth-1, read-only, and the symbol of B^h, h the least power of
    two >= depth, by doubling: layers s..2s-1 are B^s times layers 0..s-1, one
    Toeplitz product with the symbol of B^s, whose square is the next.  Cutting
    each product at the cap is exact: its coefficients there need no more."""
    m = B.degree
    E, p = _factor_chain(B, cap)
    matrix = np.empty((cap + 1, depth * m), dtype=np.complex128)
    matrix[:, :m] = E
    b = B.lam * p  # the symbol of B^s
    s = 1  # layers built
    while s < depth:
        t = min(s, depth - s)
        matrix[:, s * m: (s + t) * m] = toeplitz_product(b, False, matrix[:, : t * m])
        s += t
        b = toeplitz_product(b, False, b[:, None])[:, 0]
    matrix.flags.writeable = False
    return matrix, b


def _layer_coords(X: np.ndarray, W: WoldFrame, tol: float) -> tuple:
    """W^H X and the residuals |X - W W^H X|, W not formed; DepthExhausted at
    the first column whose residual is not within tol (or NaN).  Layer a·s + b
    is B^(as) times layer b < s: with L the first s layers, W^H X is L^H Y_a,
    Y_a = T_{B^(as)}* X, and W W^H X the sum of T_{B^(as)} L L^H Y_a, both by
    doubling over the A = ⌈depth/s⌉ blocks: W's own cut products re-associated.
    s costs least in Toeplitz products with one column (s·m, 2p(A - 1) and
    ⌈log2 A⌉ symbols); s = depth is W itself, also when B's zeros are all 0."""
    n, p, m, depth = W.cap + 1, X.shape[1], W.m, W.depth
    s = min([depth] + [2 ** k for k in range((depth - 1).bit_length()) if any(W.blaschke.zeros)],
            key=lambda h: h * m + 2 * p * (-(-depth // h) - 1) + (-(-depth // h) - 1).bit_length())
    L, b = _layers(W.blaschke, W.cap, s)
    if s == depth:
        C, residuals = frame_distance(L, X)
    else:
        A, symbols = -(-depth // s), [b]  # symbols[k]: the symbol of B^(2^k s)
        while 2 ** len(symbols) < A:
            symbols.append(toeplitz_product(symbols[-1], False, symbols[-1][:, None])[:, 0])
        Y, steps = np.repeat(X[:, None], A, axis=1), 2 ** np.arange(len(symbols))
        for h, sym in zip(steps, symbols):  # Y_a for a < h are known
            k = min(h, A - h)
            Y[:, h: h + k] = toeplitz_product(sym, True, Y[:, :k].reshape(n, -1)).reshape(n, k, p)
        G = (Y.reshape(n, A * p).conj().T @ L).conj().T.reshape(s * m, A, p)  # L^H Y
        G[(depth - (A - 1) * s) * m:, A - 1] = 0  # layers past the depth
        C = G.transpose(1, 0, 2).reshape(A * s * m, p)[: depth * m]
        Z = (L @ G.reshape(s * m, A * p)).reshape(n, A, p)
        for h, sym in zip(steps, symbols):
            V = Z[:, h:: 2 * h]
            Z[:, : A - h: 2 * h] += toeplitz_product(sym, False, V.reshape(n, -1)).reshape(V.shape)
        residuals = np.linalg.norm(Z[:, 0] - X, axis=0)
    bad = np.flatnonzero(~(residuals <= tol))
    if bad.size:
        r = float(residuals[bad[0]])
        raise DepthExhausted(f"layer frame of depth {W.depth} leaves residual {r:.3e}", r)
    return C, residuals


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


def transfer_subspace(M: SpanSubspace, W: WoldFrame,
                      tol: float = MEMBERSHIP_TOL) -> SpanSubspace:
    """Unitary transport of a capped scalar subspace from the Toeplitz
    picture of the frame's product to the power-shift picture: frame
    matrix X -> W^H X, the layer coordinates, read as lifted scalars
    (lift ∘ u_apply on every column).  Invariance verdicts transfer along
    this map on the covered band.
    """
    if M.arity != 1:
        raise ValueError("transfer acts on scalar subspaces")
    if M.cap != W.cap:
        raise ValueError("subspace cap must match the frame cap")
    label = f"to_shift({M.label or 'M'})"
    # the lift of layer coordinates is the identity on the layer-major index
    C, _ = _layer_coords(M.frame_matrix(), W, tol)
    return orthonormalize(fit_cap(C, W.m, M.cap), M.rank_tol, label=label)
