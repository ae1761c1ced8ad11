"""Kernel-column extraction, the peeling decomposition, and the attached
isometry onto a co-invariant coordinate space.

Given a capped span M and an arity m, the kernel column E collects the
Gram-Schmidt survivors of the projections of 1, z, ..., z^(m-1) onto
X = M ⊖ (M ∩ z^m H^2).  Any member f of M is then peeled recursively:

    f_j  =  A(j) · E  +  z^m f_{j+1},      f_0 = f,

where row A(j) holds the coordinates of f_j against the nonzero kernel
entries.  For a space that is nearly co-invariant under the m-th co-shift
(at this truncation) the recursion terminates with everything accounted
for:  f = sum_l z^(m l) A(l) E  and  ||f||^2 = sum_l |A(l)|^2.

If some f_j carries head mass (degrees < m) that the kernel column cannot
absorb, the peeled remainder is not divisible by z^m and the space is not
nearly co-invariant at this cap; the loop stops immediately and reports
that mass rather than silently dropping it.

Degenerate kernel entries are kept as exact zero columns so the column
always has arity m; decomposition rows carry 0 at those positions.  The
members of a frame are peeled at once, as the columns of one working
matrix in which the co-shift is a row offset (see ``_peel``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BudgetExceeded, DimensionMismatch, NoConvergence, NotAMember,
                     ParamOutOfRange)
from .invariance import (CheckReport, OperatorSpec, PipelineReport, Stage,
                         check_invariance)
from .laurent import (LaurentMatrix, _lower_symbols, adjoint_on_circle, build_sigma,
                      is_analytic, is_inner, matmul, toeplitz_adjoint_apply)
from .series import TaylorPoly, toeplitz_view
from .subspaces import SpanSubspace, _cgs2, _frame_product, _null_combos, orthonormalize, project
from .tolerances import ANALYTICITY_TOL, EXACT_TOL, MEMBERSHIP_TOL

__all__ = [
    "KernelColumn",
    "HittDecomposition",
    "JMapResult",
    "CertifyReport",
    "extract_kernels",
    "hitt_decompose",
    "build_j_map",
    "certify_theta",
]


@dataclass(frozen=True, eq=False)
class KernelColumn:
    """m-entry column: ``entries`` is (cap+1) x m, column i the
    coefficients of entry i; zero columns are flagged degenerate, the rest
    are orthonormal with the first nonzero coefficient made real positive."""

    entries: np.ndarray
    degenerate: tuple
    m: int

    @property
    def active_indices(self) -> tuple:
        return tuple(i for i, d in enumerate(self.degenerate) if not d)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelColumn(m={self.m}, active={len(self.active_indices)})"


def extract_kernels(M: SpanSubspace, m: int) -> KernelColumn:
    """Project z^i (i < m) onto X = M ⊖ (M ∩ z^m H^2), orthonormalize in
    index order (a norm left below max(M.rank_tol, EXACT_TOL) gives a
    degenerate entry; all are when M lies in z^m H^2).  X = F·null(F[:m])^⊥ for the
    frame F, from one SVD of the nonzero columns of F[:m] ranked as in ``intersect_shifted``."""
    if m < 2:
        raise ParamOutOfRange(f"arity m must be >= 2, got {m}")
    if M.arity != 1:
        raise ValueError("kernel extraction acts on scalar subspaces")
    if m > M.cap + 1:
        raise BudgetExceeded(f"monomial degree {M.cap + 1} exceeds cap {M.cap}")
    F = M.frame_matrix()
    heads = np.flatnonzero(F[:m].any(axis=0))  # frame vectors outside z^m H^2
    X = F[:, heads] @ _null_combos(F[:m, heads], heads.size, M.rank_tol)[0].T
    # row i is the projection X X^H z^i of z^i
    Q, dropped, _ = _cgs2(X[:m].conj() @ X.T, max(M.rank_tol, EXACT_TOL))
    # phase: the first coefficient above 1e-13 of each entry real positive
    first = Q[np.argmax(np.abs(Q) > 1e-13, axis=0), np.arange(Q.shape[1])]
    degenerate = tuple(i in dropped for i in range(m))
    entries = np.zeros((M.cap + 1, m), dtype=np.complex128)
    entries[:, np.flatnonzero(~np.array(degenerate))] = Q * (first.conj() / np.abs(first))
    return KernelColumn(entries, degenerate, m)


@dataclass(frozen=True, eq=False)
class HittDecomposition:
    """Peeling output: the coordinate rows A(l) and their accounting."""

    rows: np.ndarray         # shape (iterations, m)
    iterations: int
    residual: float          # norm of the final peeled remainder
    reconstruction_error: float
    parseval_gap: float


def hitt_decompose(f: TaylorPoly, M: SpanSubspace, E: KernelColumn,
                   max_iter: Optional[int] = None,
                   tol: float = MEMBERSHIP_TOL) -> HittDecomposition:
    """Run the peeling recursion on f ∈ M: the one-column call of the peel
    that ``build_j_map`` runs on every frame vector at once.  f is taken
    as its cap+1 coefficients; the arity is the kernel column's.

    Raises NotAMember when f is outside M at tol, and NoConvergence when
    the recursion stalls, hits max_iter, or leaves uncaptured mass - the
    computational signal that M is not nearly co-invariant at this cap.
    """
    if not isinstance(f, TaylorPoly) or M.arity != 1 or f.cap != M.cap:
        raise ValueError("element arity/cap does not match the subspace")
    v = f.padded(M.cap + 1)
    off = project(v, M).residual
    if not off <= tol:
        raise NotAMember(f"element lies outside the span (residual {off:.3e} > {tol:g})")
    return _peel(v[None, :], M, E, max_iter, tol)[0][0]


def _col_sq(X: np.ndarray) -> np.ndarray:
    """Squared norms of the columns of a complex matrix with contiguous rows."""
    Xf = X.view(np.float64)
    sq = np.einsum("ij,ij->j", Xf, Xf)
    return sq[0::2] + sq[1::2]


def _peel(V: np.ndarray, M: SpanSubspace, E: KernelColumn,
          max_iter: Optional[int], tol: float) -> tuple:
    """The peeling recursion on every row of V, each the cap+1 coefficients
    of one element of M, at once: one HittDecomposition per row, and the
    coordinates as the columns of one m*(cap+1) x rows matrix (block i
    holds column i of the rows A(l)); or the error that decomposing the
    rows one by one, in order, would raise first.  Membership is the
    caller's: ``build_j_map`` peels M's own frame, and ``hitt_decompose``
    tests its element.

    The rows are the columns of one working matrix W whose rows m·s ..
    m·s+cap hold each remainder f_s.  The zero rows past the cap take the
    part of z^(ms)·E past it, which stays in the remainder as in the
    one-element recursion.  A step acts on the columns from the first
    live one to the last: one norm reduction, C = E^H f_s and f_s -= E·C
    as two products, and the head test on the first m rows.  A column is
    peeled until its remainder is below tol, as its reconstruction error
    must be.  Results agree with the one-element recursion up to rounding.
    """
    n, m = M.cap + 1, E.m
    if max_iter is None:
        max_iter = M.cap // m + 2
    errors, k = {}, len(V)  # column -> its first error
    active = list(E.active_indices)
    Ea = E.entries[:, active]
    d = int(np.flatnonzero(Ea.any(axis=1)).max(initial=-1)) + 1  # rows past d are 0
    W = np.zeros((n + m * (max_iter + 1), k), dtype=np.complex128)
    W[:n] = V[:k].T
    norm2 = _col_sq(W[:n])
    A = np.zeros((max_iter + 1, m, k), dtype=np.complex128)
    iterations, residuals = np.zeros(k, dtype=int), np.zeros(k)
    live, lo, hi = np.ones(k, dtype=bool), 0, k
    # Termination: each peel drops the remaining degree by m, uncaptured
    # head mass fails a column at once, so max_iter bounds the loop strictly.
    for step in range(max_iter + 1):
        win, on = W[m * step: m * step + n, lo:hi], live[lo:hi]
        res = np.sqrt(_col_sq(win))
        np.copyto(residuals[lo:hi], res, where=on)
        on &= ~((res < tol) | (res == 0.0))  # a zero remainder ends even at tol 0
        iterations[lo:hi] += on
        at = np.flatnonzero(on)
        if not at.size:
            break
        lo, hi = lo + int(at[0]), lo + int(at[-1]) + 1  # from the first live to the last
        win, on = W[m * step: m * step + n, lo:hi], live[lo:hi]
        C = Ea[:d].conj().T @ win[:d]
        C *= on  # columns that converged inside the range keep their remainder
        A[step, active, lo:hi] = C
        win[:d] -= Ea[:d] @ C
        head = np.sqrt(_col_sq(win[:m]))
        bad = np.flatnonzero(on & ~(head <= tol))
        if bad.size:
            j, h = lo + int(bad[0]), float(head[bad[0]])
            errors[j] = NoConvergence(
                f"peel {step} left head mass {h:.3e} below degree {m}; "
                "the span is not nearly co-invariant at this cap", h)
            live[j:] = False  # later columns cannot be reported
    if live.any():  # the first column still live ran out of peels
        j = int(np.argmax(live))
        errors[j] = NoConvergence(
            f"no convergence after {max_iter} peels (residual {residuals[j]:.3e})",
            float(residuals[j]))
    # Every column before the first error converged.  Rounding dust in a
    # kernel entry can carry z^(ml) E_i past the cap.  That part is cut
    # off, and an upper bound of its norm (the sum of the cut norms) is
    # counted in the error, so nothing is silently dropped.
    good = min(errors, default=k)
    L = int(np.max(iterations[:good], initial=0))
    start = np.maximum(n - m * np.arange(L), 0)  # first cut coefficient of z^(ml) E_i
    recon, cut = np.zeros((n, good), dtype=np.complex128), np.zeros(good)
    for c, i in enumerate(active):
        a = A[:L, i, :good]
        T = toeplitz_view(Ea[:, c], False)[:, : m * L: m]  # column l: z^(ml) E_i, cut
        recon += T @ a[: T.shape[1]]
        tail = np.sqrt(np.cumsum(np.abs(Ea[::-1, c]) ** 2)[::-1])  # tail[t] = ||E_i[t:]||
        cut += np.append(tail, 0.0)[start] @ np.abs(a)
    recon -= V[:good].T
    gaps = np.sqrt(_col_sq(recon))
    decomps = []
    for j in range(good):
        recon_err = math.hypot(gaps[j], cut[j])
        if not (recon_err < tol or recon_err == 0.0):
            raise NoConvergence(
                f"reconstruction residual {recon_err:.3e} is not below {tol:g}", recon_err)
        rows = A[:iterations[j], :, j].copy()
        parseval_gap = abs(float(norm2[j]) - float(np.sum(np.abs(rows) ** 2)))
        decomps.append(HittDecomposition(rows, rows.shape[0], float(residuals[j]),
                                         recon_err, parseval_gap))
    if errors:
        raise errors[good]
    # a column's rows past its iterations are zero: it was not live there.
    # Only a max_iter past the cap can take more than cap+1 peels.
    P = np.zeros((m, max(n, L), k), dtype=np.complex128)
    P[:, :L] = A[:L].transpose(1, 0, 2)
    return decomps, P.reshape(m * P.shape[1], k)


@dataclass(frozen=True, eq=False)
class JMapResult:
    """Coordinate space of a decomposed span, with its verification."""

    space: SpanSubspace          # arity-m span of the frame coordinates
    kernel: KernelColumn
    decompositions: tuple
    coords: np.ndarray           # the coordinates as arity-stacked columns
    isometry_gap: float          # max |Gram(coords) - Gram(frame)|
    costable: CheckReport        # co-shift invariance check of the space


def build_j_map(M: SpanSubspace, m: int, tol: float = MEMBERSHIP_TOL) -> JMapResult:
    """Decompose every frame vector of M, all at once, and collect the
    coordinates.  When several frame vectors fail, the error of the first
    one in frame order is raised.  Rank decisions use the span's own
    rank tolerance.

    The map frame -> coordinates is isometric when the decomposition is
    faithful; both that and the co-shift invariance of the coordinate
    space are verified and reported, never assumed.
    """
    E = extract_kernels(M, m)
    decomps, P = _peel(M.frame_matrix().T, M, E, None, tol)
    # the frame is orthonormal, so its Gram matrix is the identity
    gap = float(np.max(np.abs(_frame_product(P, P, True) - np.eye(len(decomps))), initial=0.0))
    K = orthonormalize(P, M.rank_tol, label=f"J_{m}({M.label or 'M'})", arity=m)
    costable = check_invariance(K, OperatorSpec.coshift(1), tol)
    return JMapResult(K, E, tuple(decomps), P, gap, costable)


@dataclass(frozen=True, eq=False)
class CertifyReport(PipelineReport):
    """Stages and verdict, with the conjugated product and the J-map."""

    product: Optional[LaurentMatrix] = None
    jmap: Optional[JMapResult] = None


def certify_theta(M: SpanSubspace, m: int, gamma: int, k: int,
                  theta: LaurentMatrix, tol: float = MEMBERSHIP_TOL,
                  analytic_tol: float = ANALYTICITY_TOL) -> CertifyReport:
    """Certify a candidate matrix against a decomposed span:

    (a) the matrix is inner; (b) the conjugated block-shift product is
    analytic; (c) every coordinate column x lies in the model space,
    P₊Θ*x = 0; (d) so does the block-shift adjoint of every coordinate.
    A column has component degree <= cap, so coefficient j of component i
    of P₊Θ*x is its pairing with Θ z^j δ_i, which reads powers 0..cap of
    Θ only; the negative-power dust the inner test lets pass is dropped.
    """
    if theta.rows != m:
        raise DimensionMismatch(f"matrix has {theta.rows} rows, expected arity {m}")
    stages: list[Stage] = []
    stages.append(Stage("theta_inner", "PASS" if is_inner(theta, analytic_tol) else "FAIL"))

    sigma = build_sigma(m, gamma, k)
    product = matmul(matmul(adjoint_on_circle(theta), sigma), theta)
    chk = is_analytic(product, analytic_tol)
    stages.append(Stage("product_analytic", "PASS" if chk.ok else "FAIL",
                        f"max negative-index magnitude {chk.witness:.6e}", chk))

    jmap = build_j_map(M, m, tol)
    analytic = LaurentMatrix(m, theta.cols, 0, _lower_symbols(theta, jmap.space.cap + 1))
    images = toeplitz_adjoint_apply(sigma, jmap.coords)
    for name, X, what in (("coords_in_model_space", jmap.space.frame_matrix(), "K"),
                          ("conclusion_orthogonal", images, "Σ*Φ")):
        worst = float(np.max(np.abs(toeplitz_adjoint_apply(analytic, X)), initial=0.0))
        stages.append(Stage(name, "PASS" if worst <= tol else "FAIL",
                            f"max |<{what}, Θ·z^j δ_i>| = {worst:.6e}", worst))

    verdict = "PASS" if all(s.passed for s in stages) else "FAIL"
    return CertifyReport("certify-theta", tuple(stages), verdict, product=product, jmap=jmap)
