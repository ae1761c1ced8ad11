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

The kernel column is its (cap+1) x m matrix; a degenerate entry is an
exact zero column, and coordinate rows carry 0 there.  The members of a
frame are peeled at once (see ``_peel``).  When the kernel
column lies in its first d <= m rows, step l reads and writes only the
m-row block l of each member, which no other step writes, so every step
is computed at once from the member's own blocks; otherwise the steps
overlap and run one by one on a working matrix in which the co-shift is a
row offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BudgetExceeded, DimensionMismatch, NoConvergence, NotAMember,
                     ParamOutOfRange, _is_integer)
from .invariance import (CheckReport, OperatorSpec, PipelineReport, Stage,
                         check_invariance)
from .laurent import (LaurentMatrix, _lower_symbols, adjoint_on_circle, build_sigma,
                      is_analytic, is_inner, matmul, toeplitz_adjoint_apply)
from .series import TaylorPoly, toeplitz_view
from .subspaces import SpanSubspace, _cgs2, _gram_gap, _null_combos, orthonormalize, project
from .tolerances import ANALYTICITY_TOL, EXACT_TOL, MEMBERSHIP_TOL

__all__ = [
    "HittDecomposition",
    "JMapResult",
    "CertifyReport",
    "extract_kernels",
    "hitt_decompose",
    "build_j_map",
    "certify_theta",
]


def extract_kernels(M: SpanSubspace, m: int) -> np.ndarray:
    """The (cap+1) x m kernel column: project z^i (i < m) onto
    X = M ⊖ (M ∩ z^m H^2), orthonormalize in index order (a norm left below
    max(M.rank_tol, EXACT_TOL) gives a degenerate entry, an exact zero column;
    all are when M lies in z^m H^2).  X = F·null(F[:m])^⊥ for the
    frame F, from one SVD of the nonzero columns of F[:m] ranked as in ``intersect_shifted``.
    An m that is not an integer >= 2 (a bool is not one) raises ParamOutOfRange."""
    if not (_is_integer(m) and m >= 2):
        raise ParamOutOfRange(f"arity m must be an integer >= 2, got {m!r}")
    if M.arity != 1:
        raise ValueError("kernel extraction acts on scalar subspaces")
    if m > M.cap + 1:
        raise BudgetExceeded(f"cap {M.cap} cannot host arity {m}")
    F = M.frame_matrix()
    heads = np.flatnonzero(F[:m].any(axis=0))  # frame vectors outside z^m H^2
    X = F[:, heads] @ _null_combos(F[:m, heads], heads.size, M.rank_tol)[0].T
    # row i is the projection X X^H z^i of z^i
    Q, dropped, _ = _cgs2(X[:m].conj() @ X.T, max(M.rank_tol, EXACT_TOL))
    # phase: the first coefficient above 1e-13 of each entry real positive
    first = Q[np.argmax(np.abs(Q) > 1e-13, axis=0), np.arange(Q.shape[1])]
    E = np.zeros((M.cap + 1, m), dtype=np.complex128)
    E[:, np.delete(np.arange(m), dropped)] = Q * (first.conj() / np.abs(first))
    return E


@dataclass(frozen=True, eq=False)
class HittDecomposition:
    """Peeling output: the coordinate rows A(l) and their accounting."""

    rows: np.ndarray         # shape (iterations, m)
    iterations: int
    residual: float          # norm of the final peeled remainder
    reconstruction_error: float
    parseval_gap: float


def hitt_decompose(f: TaylorPoly, M: SpanSubspace, E: np.ndarray,
                   max_iter: Optional[int] = None,
                   tol: float = MEMBERSHIP_TOL) -> HittDecomposition:
    """Run the peeling recursion on f ∈ M: the one-column call of the peel
    that ``build_j_map`` runs on every frame vector at once.  f is taken
    as its cap+1 coefficients; E is the (cap+1) x m kernel column.

    Raises NotAMember when f is outside M at tol, and NoConvergence when
    the recursion stalls, hits max_iter, or leaves uncaptured mass - the
    computational signal that M is not nearly co-invariant at this cap.
    A max_iter that is not None or a nonnegative integer (a bool is
    neither) raises ParamOutOfRange first.
    """
    if not (max_iter is None or _is_integer(max_iter) and max_iter >= 0):
        raise ParamOutOfRange(f"max_iter must be None or a nonnegative integer, got {max_iter!r}")
    if not isinstance(f, TaylorPoly) or M.arity != 1 or f.cap != M.cap:
        raise ValueError("element arity/cap does not match the subspace")
    v = f.padded(M.cap + 1)
    off = project(v, M).residual
    if not off <= tol:
        raise NotAMember(f"element lies outside the span (residual {off:.3e} > {tol:g})")
    P, *per_vector = _peel(v[None, :], M, E, max_iter, tol)
    it, residual, error, gap = (a.item() for a in per_vector)
    return HittDecomposition(P.reshape(E.shape[1], -1)[:, :it].T, it, residual, error, gap)


def _sq(X: np.ndarray) -> np.ndarray:
    """Squared norms along the last axis of a complex array, contiguous along it."""
    Xf = X.view(np.float64)
    return np.einsum("...i,...i->...", Xf, Xf)


def _peel(V: np.ndarray, M: SpanSubspace, E: np.ndarray,
          max_iter: Optional[int], tol: float) -> tuple:
    """The peeling recursion on every row of V, each the cap+1 coefficients
    of one element of M, at once: the coordinates as the columns of one
    m*(cap+1) x rows matrix P (block i holds column i of the rows A(l))
    and, per row, the peels, final residual, reconstruction error and
    Parseval gap; or the error that decomposing the rows one by one, in
    order, would raise first.  The active entries are E's nonzero columns.
    Membership is the caller's: ``build_j_map`` peels M's own frame, and
    ``hitt_decompose`` tests its element.

    Step s reads and writes the rows m·s .. m·s+d-1 of each remainder,
    d the kernel column's support, and takes the remainder's norm over the
    rows m·s .. m·s+cap.  When d <= m no step writes a row a later step
    reads, so every step is computed at once from the original m-row
    blocks (``_peel_blocks``); otherwise the steps overlap and run one by
    one (``_peel_steps``).  An element is peeled until its remainder is
    below tol, as its reconstruction error must be.  Results agree with the
    one-element recursion up to rounding.
    """
    n, m = M.cap + 1, E.shape[1]
    if max_iter is None:
        max_iter = M.cap // m + 2
    k = len(V)
    active = np.flatnonzero(E.any(axis=0))
    Ea = E[:, active]
    d = int(np.flatnonzero(Ea.any(axis=1)).max(initial=-1)) + 1  # rows past d are 0
    A, iterations, residuals, norm2, gaps, failed = (
        _peel_blocks if d <= m else _peel_steps)(V, Ea, active, d, m, max_iter, tol)
    # Every element before the first one that failed or ran out of peels
    # converged.  Rounding dust in a kernel entry can carry z^(ml) E_i past
    # the cap.  That part is cut off, and an upper bound of its norm (the
    # sum of the cut norms) is counted in the error, so nothing is silently
    # dropped.
    good = int(np.append(np.flatnonzero((failed >= 0) | (iterations > max_iter)), k)[0])
    L = int(np.max(iterations[:good], initial=0))
    start = np.maximum(n - m * np.arange(L), 0)  # first cut coefficient of z^(ml) E_i
    cut = np.zeros(good)
    for c, i in enumerate(active):
        tail = np.sqrt(np.cumsum(np.abs(Ea[::-1, c]) ** 2)[::-1])  # tail[t] = ||E_i[t:]||
        cut += np.abs(A[:good, :L, i]) @ np.append(tail, 0.0)[start]
    recon_err = np.hypot(gaps[:good], cut)
    bad = np.flatnonzero(~((recon_err < tol) | (recon_err == 0.0)))
    if bad.size:
        err = float(recon_err[bad[0]])
        raise NoConvergence(f"reconstruction residual {err:.3e} is not below {tol:g}", err)
    if good < k:
        h = float(residuals[good])
        if failed[good] >= 0:
            raise NoConvergence(f"peel {failed[good]} left head mass {h:.3e} below degree {m}; "
                                "the span is not nearly co-invariant at this cap", h)
        raise NoConvergence(f"no convergence after {max_iter} peels (residual {h:.3e})", h)
    parseval = np.abs(norm2 - _sq(A.reshape(k, A.shape[1] * m)))
    # an element's rows past its iterations are zero: it was not live there.
    # Only a max_iter past the cap can take more than cap+1 peels.
    P = np.zeros((m, max(n, L), k), dtype=np.complex128)
    P[:, :L] = A[:, :L].transpose(2, 1, 0)
    return P.reshape(m * P.shape[1], k), iterations, residuals, recon_err, parseval


def _peel_blocks(V, Ea, active, d, m, max_iter, tol) -> tuple:
    """``_peel``'s steps at once, for a kernel column in the first d <= m rows.

    Cut V, zero-padded, into m-row blocks B_s (block s of an element is its
    coefficients m·s .. m·s+m-1).  Step s sees f_s = the element from row
    m·s on, untouched by the steps before it, so the coordinates are
    C_s = E_topᴴ B_s for every s in one product, the head masses
    ||B_s - E_top C_s|| one reduction, and the remainder norms one reverse
    cumulative sum of block masses.  A column stops at its first step with
    a remainder below tol; it fails at the first earlier step with head
    mass, or runs out of peels.  The reconstruction places E_top C_s at
    row m·s.  Returns the coordinate rows (rows of V, steps, m) and, per
    row of V, the peels taken (max_iter + 1 when it ran out), the norm left
    (the remainder where it stopped or ran out, the head mass where it
    failed), the squared norm, the reconstruction gap and the step it
    failed at (-1 for none).
    """
    k, n = V.shape
    nb = -(-n // m)  # blocks holding coefficients; block nb holds none
    S = min(max_iter + 1, nb + 1)  # every remainder is zero by step nb
    rows = m * max(S, nb)
    W = np.zeros((k, rows), dtype=np.complex128)
    W[:, :n] = V
    blocks = W.reshape(k, rows // m, m)
    suffix = np.zeros((k, rows // m + 1))
    suffix[:, :-1] = np.cumsum(_sq(blocks)[:, ::-1], axis=1)[:, ::-1]
    res = np.sqrt(suffix[:, :S])  # res[j, s] = ||f_s|| of row j
    stopped = (res < tol) | (res == 0.0)  # a zero remainder ends even at tol 0
    stop = np.where(stopped.any(axis=1), stopped.argmax(axis=1), S)
    on = np.arange(S) < stop[:, None]  # the steps that peel row j
    B, a = blocks[:, :S], len(active)
    C = (B[..., :d].reshape(k * S, d) @ Ea[:d].conj()).reshape(k, S, a)  # row s: C_sᵀ
    C *= on[..., None]
    B[..., :d] -= (C.reshape(k * S, a) @ Ea[:d].T).reshape(k, S, d)  # W is now V - recon
    head = np.sqrt(_sq(B))
    fails = on & ~(head <= tol)
    failed = np.where(fails.any(axis=1), fails.argmax(axis=1), -1)
    cols = np.arange(k)
    left = np.where(failed >= 0, head[cols, failed], res[cols, np.minimum(stop, S - 1)])
    A = np.zeros((k, S, m), dtype=np.complex128)
    A[..., active] = C
    return A, stop, left, suffix[:, 0], np.sqrt(_sq(W[:, :n])), failed


def _peel_steps(V, Ea, active, d, m, max_iter, tol) -> tuple:
    """``_peel``'s steps one by one, for a kernel column reaching past row m.

    The rows of V are the rows of one working matrix W whose columns
    m·s .. m·s+cap hold each remainder f_s.  The zero columns past the cap
    take the part of z^(ms)·E past it, which stays in the remainder as in
    the one-element recursion.  A step acts on the rows from the first
    live one to the last: one norm reduction, C = E^H f_s and f_s -= E·C
    as two products, and the head test on the first m coefficients.  The
    reconstruction is one product per active entry with the strided
    Toeplitz view whose columns are z^(ml)·E_i cut at the cap.  Returns
    what ``_peel_blocks`` returns.
    """
    k, n = V.shape
    W = np.zeros((k, n + m * (max_iter + 1)), dtype=np.complex128)
    W[:, :n] = V
    recon = -W[:, :n]  # the reconstruction is added to -V after the loop
    norm2 = _sq(recon)
    A = np.zeros((k, max_iter + 1, m), dtype=np.complex128)
    iterations, left, failed = np.zeros(k, dtype=int), np.zeros(k), np.full(k, -1)
    live, lo, hi = np.ones(k, dtype=bool), 0, k
    # Termination: each peel drops the remaining degree by m, uncaptured
    # head mass fails a row at once, so max_iter bounds the loop strictly.
    for step in range(max_iter + 1):
        win, on = W[lo:hi, m * step: m * step + n], live[lo:hi]
        res = np.sqrt(_sq(win))
        np.copyto(left[lo:hi], res, where=on)
        on &= ~((res < tol) | (res == 0.0))  # a zero remainder ends even at tol 0
        iterations[lo:hi] += on
        at = np.flatnonzero(on)
        if not at.size:
            break
        lo, hi = lo + int(at[0]), lo + int(at[-1]) + 1  # from the first live to the last
        win, on = W[lo:hi, m * step: m * step + n], live[lo:hi]
        C = win[:, :d] @ Ea[:d].conj()
        C *= on[:, None]  # rows that converged inside the range keep their remainder
        A[lo:hi, step, active] = C
        win[:, :d] -= C @ Ea[:d].T
        head = np.sqrt(_sq(win[:, :m]))
        fails = on & ~(head <= tol)
        np.copyto(failed[lo:hi], step, where=fails)
        np.copyto(left[lo:hi], head, where=fails)
        on &= ~fails  # a failed row is peeled no further
    L = int(np.max(iterations, initial=0))
    for c, i in enumerate(active):
        T = toeplitz_view(Ea[:, c], False)[:, : m * L: m]  # column l: z^(ml) E_i, cut
        recon += A[:, :T.shape[1], i] @ T.T
    return A, iterations, left, norm2, np.sqrt(_sq(recon)), failed


@dataclass(frozen=True, eq=False)
class JMapResult:
    """Coordinate space of a decomposed span, with its verification."""

    space: SpanSubspace          # arity-m span of the frame coordinates
    kernel: np.ndarray           # the (cap+1) x m kernel column
    coords: np.ndarray           # the coordinates as arity-stacked columns
    iterations: np.ndarray       # per frame vector: the peels taken
    residuals: np.ndarray        # norm of the final peeled remainder
    reconstruction_errors: np.ndarray
    parseval_gaps: np.ndarray
    isometry_gap: float          # max |Gram(coords) - Gram(frame)|
    costable: CheckReport        # co-shift invariance check of the space


def build_j_map(M: SpanSubspace, m: int, tol: float = MEMBERSHIP_TOL) -> JMapResult:
    """Decompose every frame vector of M, all at once, and collect the
    coordinates.  When several frame vectors fail, the error of the first
    one in frame order is raised.  Rank decisions use the span's own
    rank tolerance.  An m that is not an integer is refused by
    ``extract_kernels``, before any work.

    The map frame -> coordinates is isometric when the decomposition is
    faithful; both that and the co-shift invariance of the coordinate
    space are verified and reported, never assumed.
    """
    E = extract_kernels(M, m)
    P, *per_vector = _peel(M.frame_matrix().T, M, E, None, tol)
    K = orthonormalize(P, M.rank_tol, label=f"J_{m}({M.label or 'M'})", arity=m)
    costable = check_invariance(K, OperatorSpec(1, True), tol)
    # the frame is orthonormal, so its Gram matrix is the identity
    return JMapResult(K, E, P, *per_vector, _gram_gap(P)[0], costable)


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
