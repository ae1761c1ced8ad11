"""Definition-based invariance / near-invariance checkers and the
simultaneous-invariance verification pipelines.

Verdict policy: every FAIL carries a machine-checkable witness (the frame
vector or exponent, its image, and the membership residual).  Frame
vectors whose image would land above the model's completeness band (the
cap, or the tighter band a truncating builder declares) are excluded from
the verdict and listed in the report's untested band; the checker raises
BudgetExceeded only when nothing testable remains.  Near-invariance is
implemented literally from the definition: build the intersection of the
subspace with the operator range, apply the adjoint to its frame, and
test membership — claimed verdicts from the literature are never
hard-coded.  For a Toeplitz symbol B^n the intersection is exact: the
null space of the frame's pairing with the model space K_{B^n}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, NotAnalytic, ParamOutOfRange
from .laurent import (LaurentMatrix, adjoint_on_circle, build_sigma, is_analytic,
                      is_inner, matmul)
from .subspaces import (MonomialSubspace, SpanSubspace, _from_coord_matrix,
                        _null_combos, intersect_shifted, monomial_membership,
                        orthonormalize, unflatten_element)
from .tolerances import ANALYTICITY_TOL, MEMBERSHIP_TOL, RANK_TOL

__all__ = [
    "OperatorSpec",
    "Witness",
    "CheckReport",
    "Stage",
    "PipelineReport",
    "check_invariance",
    "check_near_invariance",
    "range_generators",
    "build_theta_range",
    "build_model_space",
    "verify_theorem_pipeline",
    "verify_theorem_multi",
]

SubspaceModel = Union[SpanSubspace, MonomialSubspace]


@dataclass(frozen=True)
class OperatorSpec:
    """Symbol of an operator acting on column matrices of flattened elements.

    kind is one of "shift", "coshift", "toeplitz", "toeplitz_adjoint";
    power is the shift order k or the Toeplitz power n.  Toeplitz symbols
    carry their product-of-automorphisms factor.
    """

    kind: str
    power: int
    blaschke: object = None  # BlaschkeProduct when kind is toeplitz-like

    def __post_init__(self) -> None:
        if self.kind not in ("shift", "coshift", "toeplitz", "toeplitz_adjoint"):
            raise ParamOutOfRange(f"unknown operator kind {self.kind!r}")
        if self.power < 1:
            raise ParamOutOfRange("operator power must be >= 1")
        if self.kind.startswith("toeplitz") and self.blaschke is None:
            raise ParamOutOfRange("toeplitz operator specs need a product symbol")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def shift(k: int) -> "OperatorSpec":
        return OperatorSpec("shift", k)

    @staticmethod
    def coshift(k: int) -> "OperatorSpec":
        return OperatorSpec("coshift", k)

    @staticmethod
    def toeplitz(blaschke, n: int) -> "OperatorSpec":
        return OperatorSpec("toeplitz", n, blaschke)

    @staticmethod
    def toeplitz_adjoint(blaschke, n: int) -> "OperatorSpec":
        return OperatorSpec("toeplitz_adjoint", n, blaschke)

    # -- structure ---------------------------------------------------------

    @property
    def is_isometry(self) -> bool:
        return self.kind in ("shift", "toeplitz")

    def adjoint(self) -> "OperatorSpec":
        flip = {"shift": "coshift", "coshift": "shift",
                "toeplitz": "toeplitz_adjoint", "toeplitz_adjoint": "toeplitz"}
        return OperatorSpec(flip[self.kind], self.power, self.blaschke)

    def describe(self) -> str:
        if self.kind == "shift":
            return f"S^{self.power}"
        if self.kind == "coshift":
            return f"(S^{self.power})*"
        tag = f"T_B^{self.power}" if self.power != 1 else "T_B"
        return tag if self.kind == "toeplitz" else f"({tag})*"

    def formal_degree_gain(self) -> int:
        """Worst-case degree added by the isometric direction."""
        if self.kind in ("shift",):
            return self.power
        if self.kind == "toeplitz":
            return self.power * self.blaschke.degree
        return 0

    def apply(self, X: np.ndarray, arity: int = 1) -> np.ndarray:
        """Image of every column of X, each a flattened element: arity
        component blocks of cap+1 coefficients, stacked.

        A shift moves the rows of each block down and raises
        BudgetExceeded when a nonzero row would pass the cap; a co-shift
        is a row slice.  Toeplitz symbols act on scalar columns only.
        """
        if self.kind.startswith("toeplitz"):
            if arity != 1:
                raise DimensionMismatch("toeplitz symbols act on scalar elements only")
            from .blaschke import toeplitz_columns

            return toeplitz_columns(self.blaschke, self.power,
                                    self.kind == "toeplitz_adjoint", X)
        k = self.power
        blocks = X.reshape(arity, -1, X.shape[1])
        n = blocks.shape[1]
        kept = max(n - k, 0)  # rows that stay under the cap
        out = np.zeros(blocks.shape, dtype=np.complex128)
        if self.kind == "coshift":
            out[:, :kept] = blocks[:, k:]
        elif blocks[:, kept:].any():
            top = kept + int(np.flatnonzero(blocks[:, kept:].any(axis=(0, 2)))[-1])
            raise BudgetExceeded(f"shift by {k} moves degree {top} past cap {n - 1}")
        else:
            out[:, k:] = blocks[:, :kept]
        return out.reshape(X.shape)

    def monomial_shift_order(self) -> Optional[int]:
        """Total shift order when the symbol is a pure monomial, else None."""
        if self.kind in ("shift", "coshift"):
            return self.power
        b = self.blaschke
        if all(z == 0 for z in b.zeros):
            return self.power * b.degree
        return None


@dataclass(frozen=True)
class Witness:
    """FAIL evidence: the offending element, its image, and the residual."""

    element: object
    image: object
    residual: float
    note: str = ""


@dataclass(frozen=True)
class CheckReport:
    check: str
    operator: str
    subspace: str
    verdict: str  # "PASS" | "FAIL"
    witness: Optional[Witness] = None
    untested: tuple = ()
    tested: int = 0

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


def _monomial_invariance(M: MonomialSubspace, op: OperatorSpec,
                         subspace_name: str) -> CheckReport:
    order = op.monomial_shift_order()
    if order is None:
        raise DimensionMismatch(
            "monomial subspaces support shift-type operators only"
        )
    exps = M.exponents()
    untested: list[str] = []
    tested = 0
    witness = None
    if op.kind in ("shift", "toeplitz"):
        top = M.cap - order
        skipped = [int(e) for e in exps if e > top]
        if skipped:
            untested.append(
                f"exponents above {top} excluded (image would exceed cap {M.cap})"
            )
        testable = [int(e) for e in exps if e <= top]
        if not testable and len(skipped):
            raise BudgetExceeded("no testable exponent band remains under the cap")
        for e in testable:
            tested += 1
            if not monomial_membership(e + order, M):
                witness = Witness(e, e + order, 1.0,
                                  f"z^{e} maps to z^{e + order} outside the set")
                break
    else:
        for e in (int(x) for x in exps):
            tested += 1
            img = e - order
            if img < 0:
                continue  # adjoint sends it to 0, always a member
            if not monomial_membership(img, M):
                witness = Witness(e, img, 1.0,
                                  f"z^{e} maps to z^{img} outside the set")
                break
    verdict = "FAIL" if witness else "PASS"
    return CheckReport("invariance", op.describe(), subspace_name, verdict,
                       witness, tuple(untested), tested)


def _first_failure(M: SpanSubspace, op: OperatorSpec, X: np.ndarray,
                   tol: float) -> Optional[tuple]:
    """Apply op to the columns of X once and test all images for
    membership in M in one residual computation ||Y - F F^H Y||.

    Returns (index, image, residual) of the first failing column, or None.
    """
    if not X.shape[1]:
        return None
    Y = op.apply(X, M.arity)
    F = M.frame_matrix()
    R = F @ (F.conj().T @ Y)
    R -= Y
    res = np.sqrt(np.sum(np.abs(R) ** 2, axis=0))
    bad = np.flatnonzero(~(res <= tol))
    if not bad.size:
        return None
    i = int(bad[0])
    return i, unflatten_element(Y[:, i], M.arity, M.cap), float(res[i])


def check_invariance(M: SubspaceModel, op: OperatorSpec,
                     tol: float = MEMBERSHIP_TOL) -> CheckReport:
    """Apply op to every frame vector (or exponent) and test membership.

    Frame vectors whose image would land above the model's band (cap, or
    the builder-declared truncation band) are excluded and reported;
    support is measured at a fraction of the membership tolerance so that
    truncated-expansion dust does not inflate degrees.  All frame vectors
    are tested in one residual computation; the witness is the first
    failing one, and ``tested`` and ``untested`` stop there.
    """
    name = getattr(M, "label", "") or "M"
    if isinstance(M, MonomialSubspace):
        return _monomial_invariance(M, op, name)
    X = M.frame_matrix()
    gain = op.formal_degree_gain()
    limit = M.effective_band
    keep = np.ones(M.dim, dtype=bool)
    if gain:
        # effective degree: the last degree whose tail mass (per component)
        # exceeds a quarter of tol, found by counting since tail mass only
        # falls with degree; the dust above it is clipped
        blocks = X.reshape(M.arity, M.cap + 1, M.dim)
        tail = np.cumsum(np.abs(blocks[:, ::-1]) ** 2, axis=1)[:, ::-1]
        eff = np.sum(tail > (0.25 * tol) ** 2, axis=1).max(axis=0) - 1
        keep = eff + gain <= limit
        below = np.arange(M.cap + 1)[:, None] <= eff[keep]
        X = np.where(below, blocks[:, :, keep], 0).reshape(X.shape[0], -1)
    cols = np.flatnonzero(keep)
    fail = _first_failure(M, op, X, tol)
    stop = M.dim if fail is None else int(cols[fail[0]])
    untested = tuple(
        f"frame[{i}] (support {eff[i]}) excluded: image exceeds band {limit}"
        for i in np.flatnonzero(~keep[:stop]))
    tested = cols.size if fail is None else fail[0] + 1
    if M.dim and tested == 0 and untested:
        raise BudgetExceeded("no testable band remains under the cap")
    witness = None if fail is None else Witness(
        unflatten_element(M.matrix[:, stop], M.arity, M.cap), *fail[1:],
        f"frame[{stop}] image leaves the span")
    verdict = "FAIL" if witness else "PASS"
    return CheckReport("invariance", op.describe(), name, verdict, witness,
                       untested, tested)


def _canonical_pair(op: OperatorSpec):
    """(isometry T, adjoint T*) regardless of which was supplied."""
    if op.is_isometry:
        return op, op.adjoint()
    return op.adjoint(), op


def _toeplitz_range_meet(M: SpanSubspace, T: OperatorSpec) -> SpanSubspace:
    """Exact M ∩ B^n H^2: by Beurling–Lax, the null space of the pairing
    C = K^H F with an orthonormal basis K of K_{B^n} (each zero of B
    repeated n times).  K pairs exactly with elements under the cap, so
    ||C x|| is the distance of F x from B^n H^2."""
    from .blaschke import BlaschkeProduct, model_basis

    if M.arity != 1:
        raise DimensionMismatch("toeplitz symbols act on scalar elements only")
    label = f"{M.label or 'M'} ∩ range({T.describe()})"
    basis = model_basis(BlaschkeProduct(1.0, T.blaschke.zeros * T.power), M.cap)
    K = np.stack([e.padded(M.cap + 1) for e in basis])
    combos = _null_combos(K.conj() @ M.frame_matrix(), M.dim, M.rank_tol)
    return _from_coord_matrix(M, combos, label)


def check_near_invariance(M: SubspaceModel, op: OperatorSpec,
                          tol: float = MEMBERSHIP_TOL) -> CheckReport:
    """Definition-based near-invariance: f in T(H^2) ∩ M implies T* f in M.

    ``op`` may name either the isometry T or its adjoint; the verdict is
    for near T*-invariance of M either way.
    """
    T, Tstar = _canonical_pair(op)
    name = getattr(M, "label", "") or "M"
    if isinstance(M, MonomialSubspace):
        order = T.monomial_shift_order()
        if order is None:
            raise DimensionMismatch(
                "monomial subspaces support shift-type operators only"
            )
        witness = None
        tested = 0
        for e in (int(x) for x in M.exponents()):
            if e < order:
                continue  # z^e is not in T(H^2)
            tested += 1
            if not monomial_membership(e - order, M):
                witness = Witness(e, e - order, 1.0,
                                  f"z^{e} lies in the range but maps to z^{e - order} outside")
                break
        verdict = "FAIL" if witness else "PASS"
        return CheckReport("near-invariance", Tstar.describe(), name, verdict,
                           witness, (), tested)

    if T.kind == "shift":
        inside = intersect_shifted(M, T.power)
    else:
        inside = _toeplitz_range_meet(M, T)
    X = inside.frame_matrix()
    fail = _first_failure(M, Tstar, X, tol)
    witness = None if fail is None else Witness(
        unflatten_element(X[:, fail[0]], M.arity, M.cap), *fail[1:],
        f"intersection frame[{fail[0]}] maps outside the span")
    verdict = "FAIL" if witness else "PASS"
    tested = inside.dim if fail is None else fail[0] + 1
    return CheckReport("near-invariance", Tstar.describe(), name, verdict,
                       witness, (), tested)


# ---------------------------------------------------------------------------
# Beurling-type range / model-space constructions and the theorem pipelines
# ---------------------------------------------------------------------------


def _column_degree(theta: LaurentMatrix, col: int) -> int:
    d = -1
    for i in range(theta.rows):
        lo, coefs = theta.entry(i, col)
        nz = np.flatnonzero(coefs)
        if nz.size:
            d = max(d, lo + int(nz[-1]))
    return d


def _column_lift_degree(theta: LaurentMatrix, col: int, m: int) -> int:
    """Lift degree of the col-th column as a scalar element (-1 if zero)."""
    out = -1
    for row in range(theta.rows):
        lo, coefs = theta.entry(row, col)
        nz = np.flatnonzero(coefs)
        if nz.size:
            out = max(out, m * (lo + int(nz[-1])) + row)
    return out


def range_generators(theta: LaurentMatrix, cap: int) -> np.ndarray:
    """Θ·z^j δ_i, cut to component degree cap, for every nonzero column i
    and j = 0..cap, as the columns (i-major) of a (rows*(cap+1)) x count
    matrix with the component blocks stacked.

    These are all the range generators that pair nontrivially with an
    element of component degree <= cap, and the cut leaves those pairings
    unchanged.
    """
    n = cap + 1
    live = [col for col in range(theta.cols) if _column_degree(theta, col) >= 0]
    wide = max(cap, theta.max_pow)
    out = np.zeros((theta.rows, n, len(live), n), dtype=np.complex128)
    for c, col in enumerate(live):
        for i in range(theta.rows):
            coefs = theta.entry_poly(i, col, wide).padded(n)
            for j in range(n):
                out[i, j:, c, j] = coefs[: n - j]
    return out.reshape(theta.rows * n, len(live) * n)


def _check_builder_input(theta: LaurentMatrix, m: int, analytic_tol: float,
                         builder: str) -> None:
    chk = is_analytic(theta, analytic_tol)
    if not chk.ok:
        raise NotAnalytic(f"{builder} needs an analytic matrix; witness {chk.witness:.3e}")
    if theta.rows != m:
        raise DimensionMismatch(f"matrix has {theta.rows} rows, expected arity {m}")


def build_theta_range(theta: LaurentMatrix, m: int, cap: int,
                      rank_tol: float = RANK_TOL,
                      analytic_tol: float = ANALYTICITY_TOL) -> SpanSubspace:
    """Capped model of the lifted range: span of lift(Theta z^j δ_i) over a
    shift ladder shared by all columns.

    The uniform ladder makes the enumeration independent of constant
    column mixing, and the declared band m*J is one every direction of
    the range is complete up to, so band-aware checkers cannot mistake a
    missing top shell for a genuine invariance failure.
    """
    _check_builder_input(theta, m, analytic_tol, "range builder")
    lifts = [_column_lift_degree(theta, col, m) for col in range(theta.cols)]
    live = [col for col, d in enumerate(lifts) if d >= 0]
    label = f"T_{m}(Θ·H2) at cap {cap}"
    if not live:
        return SpanSubspace((), cap, 1, rank_tol, label=label)
    ladder = (cap - max(lifts[col] for col in live)) // m
    if ladder < 0:
        raise BudgetExceeded(f"cap {cap} cannot host a single column lift")
    # every shift j <= ladder keeps each component within degree cap // m,
    # so no generator is cut; the lift interleaves the component blocks
    n = cap // m + 1
    gens = range_generators(theta, n - 1).reshape(m, n, len(live), n)[..., : ladder + 1]
    lifted = gens.transpose(1, 0, 2, 3).reshape(m * n, -1)[: cap + 1]
    return orthonormalize(lifted, rank_tol, label=label, band=m * ladder)


def build_model_space(theta: LaurentMatrix, m: int, cap: int,
                      rank_tol: float = RANK_TOL,
                      analytic_tol: float = ANALYTICITY_TOL) -> SpanSubspace:
    """Capped model of the lifted model space: the vectors of component
    degree <= c that are orthogonal to the full matrix range, lifted.

    The constraints are every range generator cut to component degree c
    (``range_generators``), so the complement carries no spurious edge
    directions; the result is exact for the band it declares.
    """
    _check_builder_input(theta, m, analytic_tol, "model-space builder")
    comp_cap = (cap + 1) // m - 1
    if comp_cap < 0:
        raise BudgetExceeded(f"cap {cap} cannot host arity {m}")
    n_sub = comp_cap + 1
    C = np.conj(range_generators(theta, comp_cap).T)
    combos = _null_combos(C, m * n_sub, rank_tol)
    label = f"T_{m}(K_Θ) at cap {cap}"
    band = m * comp_cap + m - 1
    if not combos.shape[0]:
        return SpanSubspace((), cap, 1, rank_tol, label=label, band=band)
    # lift: coefficient j of component l moves to index m*j + l
    lifted = np.zeros((cap + 1, combos.shape[0]), dtype=np.complex128)
    lifted[: m * n_sub] = combos.reshape(-1, m, n_sub).transpose(2, 1, 0).reshape(m * n_sub, -1)
    return orthonormalize(lifted, rank_tol, label=label, band=band)


@dataclass(frozen=True)
class Stage:
    name: str
    verdict: str
    detail: str = ""
    data: object = None

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


@dataclass(frozen=True)
class PipelineReport:
    name: str
    stages: tuple
    verdict: str
    products: tuple = ()  # (condition, LaurentMatrix) pairs for printing

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def stage(self, name: str) -> Stage:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)


def verify_theorem_pipeline(theta: LaurentMatrix, m: int, gamma: int, k: int,
                            cap: int, tol: float = MEMBERSHIP_TOL,
                            analytic_tol: float = ANALYTICITY_TOL,
                            rank_tol: float = RANK_TOL) -> PipelineReport:
    """Simultaneous-invariance pipeline for one (gamma, k) condition.

    Stages: the matrix is inner; the conjugated block-shift product is
    analytic; the lifted range is invariant under S^m and S^(km+gamma);
    the lifted model space is invariant under both adjoints.
    """
    return verify_theorem_multi(theta, m, [(gamma, k)], cap, tol,
                                analytic_tol, rank_tol)


def verify_theorem_multi(theta: LaurentMatrix, m: int,
                         conditions: Sequence[tuple], cap: int,
                         tol: float = MEMBERSHIP_TOL,
                         analytic_tol: float = ANALYTICITY_TOL,
                         rank_tol: float = RANK_TOL) -> PipelineReport:
    """Pipeline over several (gamma, k) conditions at once; covers
    semigroups generated by three or more shift powers."""
    conds = [(int(g), int(kk)) for g, kk in conditions]
    if not conds:
        raise ParamOutOfRange("at least one (gamma, k) condition is required")
    for g, kk in conds:
        if not 1 <= g <= m - 1:
            raise ParamOutOfRange(f"gamma {g} outside 1..{m - 1}")
        if kk < 1:
            raise ParamOutOfRange(f"k must be >= 1, got {kk}")
    stages: list[Stage] = []
    products: list[tuple] = []

    inner_ok = is_inner(theta, max(analytic_tol, 1e-14))
    stages.append(Stage("theta_inner", "PASS" if inner_ok else "FAIL",
                        "Θ*Θ = I as a Laurent series"))

    srange = build_theta_range(theta, m, cap, rank_tol, analytic_tol)
    smodel = build_model_space(theta, m, cap, rank_tol, analytic_tol)

    rep = check_invariance(srange, OperatorSpec.shift(m), tol)
    stages.append(Stage(f"range_invariant_S^{m}", rep.verdict, "", rep))
    rep = check_invariance(smodel, OperatorSpec.coshift(m), tol)
    stages.append(Stage(f"model_invariant_(S^{m})*", rep.verdict, "", rep))

    for g, kk in conds:
        order = kk * m + g
        sigma = build_sigma(m, g, kk)
        product = matmul(matmul(adjoint_on_circle(theta), sigma), theta)
        chk = is_analytic(product, analytic_tol)
        products.append(((g, kk), product))
        stages.append(Stage(
            f"product_analytic_gamma{g}_k{kk}",
            "PASS" if chk.ok else "FAIL",
            f"max negative-index magnitude {chk.witness:.6e}",
            chk,
        ))
        rep = check_invariance(srange, OperatorSpec.shift(order), tol)
        stages.append(Stage(f"range_invariant_S^{order}", rep.verdict, "", rep))
        rep = check_invariance(smodel, OperatorSpec.coshift(order), tol)
        stages.append(Stage(f"model_invariant_(S^{order})*", rep.verdict, "", rep))

    verdict = "PASS" if all(s.passed for s in stages) else "FAIL"
    return PipelineReport("verify-theta", tuple(stages), verdict, tuple(products))
