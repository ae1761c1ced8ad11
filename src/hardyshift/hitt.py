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

Degenerate kernel entries are kept as exact zeros in place so the column
always has arity m; decomposition rows carry 0 at those positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotAMember, ParamOutOfRange
from .invariance import (CheckReport, OperatorSpec, Stage, check_invariance,
                         range_generators)
from .laurent import (LaurentMatrix, adjoint_on_circle, build_sigma, is_analytic,
                      is_inner, matmul, toeplitz_adjoint_apply)
from .series import TaylorPoly, add, coshift_pow, inner_product, monomial, scale, shift_pow, sub, zero
from .subspaces import (SpanSubspace, flatten_element, intersect_shifted,
                        ortho_complement_within, orthonormalize, project)
from .tolerances import ANALYTICITY_TOL, MEMBERSHIP_TOL, RANK_TOL
from .veclift import VectorPoly

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
    """m-entry column; zero entries flagged degenerate, the rest orthonormal
    with the first nonzero coefficient made real positive."""

    entries: tuple
    degenerate: tuple
    m: int

    @property
    def active_indices(self) -> tuple:
        return tuple(i for i, d in enumerate(self.degenerate) if not d)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelColumn(m={self.m}, active={len(self.active_indices)})"


def _phase_fix(f: TaylorPoly) -> TaylorPoly:
    nz = np.flatnonzero(np.abs(f.coeffs) > 1e-13)
    if not nz.size:
        return f
    c = f.coeffs[nz[0]]
    return scale(f, np.conj(c) / abs(c))


def extract_kernels(M: SpanSubspace, m: int,
                    rank_tol: float = RANK_TOL) -> KernelColumn:
    """Project z^i (i < m) onto M ⊖ (M ∩ z^m H^2), orthogonalize in index
    order, normalize.  All-zero columns are legal (M inside z^m H^2)."""
    if m < 2:
        raise ParamOutOfRange(f"arity m must be >= 2, got {m}")
    if M.arity != 1:
        raise ValueError("kernel extraction acts on scalar subspaces")
    X = ortho_complement_within(M, intersect_shifted(M, m))
    entries: list[TaylorPoly] = []
    flags: list[bool] = []
    kept: list[TaylorPoly] = []
    for i in range(m):
        w = project(monomial(i, M.cap), X).projection
        for _ in range(2):  # second pass controls cancellation error
            for u in kept:
                w = sub(w, scale(u, inner_product(w, u)))
        nrm = w.norm()
        if nrm < max(rank_tol, 1e-12):
            entries.append(zero(M.cap))
            flags.append(True)
        else:
            e = _phase_fix(scale(w, 1.0 / nrm))
            entries.append(e)
            flags.append(False)
            kept.append(e)
    return KernelColumn(tuple(entries), tuple(flags), m)


@dataclass(frozen=True, eq=False)
class HittDecomposition:
    """Peeling output: the coordinate element and its accounting."""

    phi: VectorPoly          # component i holds column i of the rows A(l)
    rows: np.ndarray         # shape (iterations, m)
    iterations: int
    residual: float          # norm of the final peeled remainder
    reconstruction_error: float
    parseval_gap: float


def hitt_decompose(f: TaylorPoly, M: SpanSubspace, E: KernelColumn, m: int,
                   max_iter: Optional[int] = None,
                   tol: float = MEMBERSHIP_TOL) -> HittDecomposition:
    """Run the peeling recursion on f ∈ M.

    Raises NotAMember when f is outside M at tol, and NoConvergence when
    the recursion stalls, hits max_iter, or leaves uncaptured mass - the
    computational signal that M is not nearly co-invariant at this cap.
    """
    if m != E.m:
        raise ParamOutOfRange("kernel column arity does not match m")
    if max_iter is None:
        max_iter = M.cap // m + 2
    member = project(f, M)
    if not member.residual <= tol:
        raise NotAMember(
            f"element lies outside the span (residual {member.residual:.3e} > {tol:g})"
        )
    active = E.active_indices
    rows: list[np.ndarray] = []
    norms: list[float] = []
    fj = f
    success = False
    # Termination: each peel drops the remaining degree by m, uncaptured
    # head mass raises immediately, so max_iter bounds the loop strictly.
    for _ in range(max_iter + 1):
        nrm = fj.norm()
        norms.append(nrm)
        if nrm <= tol:
            success = True
            break
        row = np.zeros(E.m, dtype=np.complex128)
        x = zero(f.cap)
        for i in active:
            c = inner_product(fj, E.entries[i])
            row[i] = c
            x = add(x, scale(E.entries[i], c))
        rows.append(row)
        rem = sub(fj, x)
        head = float(np.linalg.norm(rem.padded(m)))
        if not head <= tol:
            raise NoConvergence(
                f"peel {len(rows) - 1} left head mass {head:.3e} below degree {m}; "
                "the span is not nearly co-invariant at this cap", head
            )
        fj = coshift_pow(rem, m)
    if not success:
        raise NoConvergence(
            f"no convergence after {max_iter} peels (residual {norms[-1]:.3e})",
            norms[-1],
        )
    A = np.array(rows, dtype=np.complex128) if rows else np.zeros((0, E.m), dtype=np.complex128)
    comps = tuple(TaylorPoly(A[:, i] if A.shape[0] else np.zeros(1), f.cap)
                  for i in range(E.m))
    phi = VectorPoly(comps)
    # Rounding dust in a kernel entry can carry z^(ml) E_i past the cap.
    # That part is cut off, and an upper bound of its norm (the sum of the
    # cut norms) is counted in the error, so nothing is silently dropped.
    recon = zero(f.cap)
    cut = 0.0
    for l in range(A.shape[0]):
        keep = max(0, f.cap + 1 - m * l)
        for i in active:
            if A[l, i] != 0:
                e = E.entries[i].coeffs
                cut += abs(A[l, i]) * float(np.linalg.norm(e[keep:]))
                kept = shift_pow(TaylorPoly(e[:keep], f.cap), m * l)
                recon = add(recon, scale(kept, A[l, i]))
    recon_err = math.hypot(sub(f, recon).norm(), cut)
    parseval_gap = abs(f.norm2() - float(np.sum(np.abs(A) ** 2)))
    if not recon_err <= tol:
        raise NoConvergence(
            f"reconstruction residual {recon_err:.3e} exceeds {tol:g}", recon_err
        )
    return HittDecomposition(phi, A, A.shape[0], norms[-1], recon_err, parseval_gap)


@dataclass(frozen=True, eq=False)
class JMapResult:
    """Coordinate space of a decomposed span, with its verification."""

    space: SpanSubspace          # arity-m span of the frame coordinates
    kernel: KernelColumn
    decompositions: tuple
    isometry_gap: float          # max |Gram(coords) - Gram(frame)|
    costable: CheckReport        # co-shift invariance check of the space


def build_j_map(M: SpanSubspace, m: int, tol: float = MEMBERSHIP_TOL,
                rank_tol: float = RANK_TOL) -> JMapResult:
    """Decompose every frame vector of M and collect the coordinates.

    The map frame -> coordinates is isometric when the decomposition is
    faithful; both that and the co-shift invariance of the coordinate
    space are verified and reported, never assumed.
    """
    E = extract_kernels(M, m, rank_tol)
    decomps = tuple(hitt_decompose(u, M, E, m, tol=tol) for u in M.frame)
    phis = [d.phi for d in decomps]
    if phis:
        P = np.column_stack([flatten_element(p, M.cap) for p in phis])
        # the frame is orthonormal, so its Gram matrix is the identity
        gap = float(np.max(np.abs(P.conj().T @ P - np.eye(len(phis)))))
        K = orthonormalize(phis, rank_tol, label=f"J_{m}({M.label or 'M'})")
    else:
        gap = 0.0
        K = SpanSubspace((), M.cap, m, rank_tol, label=f"J_{m}(M)")
    costable = check_invariance(K, OperatorSpec.coshift(1), tol)
    return JMapResult(K, E, decomps, gap, costable)


@dataclass(frozen=True, eq=False)
class CertifyReport:
    name: str
    stages: tuple
    verdict: str
    product: LaurentMatrix
    jmap: JMapResult

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def stage(self, name: str) -> Stage:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)


def certify_theta(M: SpanSubspace, m: int, gamma: int, k: int,
                  theta: LaurentMatrix, tol: float = MEMBERSHIP_TOL,
                  analytic_tol: float = ANALYTICITY_TOL) -> CertifyReport:
    """Certify a candidate matrix against a decomposed span:

    (a) the matrix is inner; (b) the conjugated block-shift product is
    analytic; (c) the coordinate space is orthogonal to the matrix range
    (it sits inside the model space); (d) the block-shift adjoint of every
    decomposed coordinate stays orthogonal to the range.
    """
    if theta.rows != m:
        raise DimensionMismatch(f"matrix has {theta.rows} rows, expected arity {m}")
    stages: list[Stage] = []
    inner_ok = is_inner(theta, max(analytic_tol, 1e-14))
    stages.append(Stage("theta_inner", "PASS" if inner_ok else "FAIL"))

    sigma = build_sigma(m, gamma, k)
    product = matmul(matmul(adjoint_on_circle(theta), sigma), theta)
    chk = is_analytic(product, analytic_tol)
    stages.append(Stage("product_analytic", "PASS" if chk.ok else "FAIL",
                        f"max negative-index magnitude {chk.witness:.6e}", chk))

    jmap = build_j_map(M, m, tol)
    cap = jmap.space.cap
    gens = range_generators(theta, cap)

    K = jmap.space.frame_matrix()
    worst_c = float(np.max(np.abs(K.conj().T @ gens), initial=0.0))
    stages.append(Stage("coords_in_model_space",
                        "PASS" if worst_c <= tol else "FAIL",
                        f"max |<K, Θ·z^j δ_i>| = {worst_c:.6e}"))

    images = np.zeros((len(jmap.decompositions), gens.shape[0]), dtype=np.complex128)
    for r, d in enumerate(jmap.decompositions):
        images[r] = flatten_element(toeplitz_adjoint_apply(sigma, d.phi), cap)
    worst_d = float(np.max(np.abs(images.conj() @ gens), initial=0.0))
    stages.append(Stage("conclusion_orthogonal",
                        "PASS" if worst_d <= tol else "FAIL",
                        f"max |<Σ*Φ, Θ·z^j δ_i>| = {worst_d:.6e}"))

    verdict = "PASS" if all(s.passed for s in stages) else "FAIL"
    return CertifyReport("certify-theta", tuple(stages), verdict, product, jmap)
