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

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .blaschke import BlaschkeProduct, _factor_chain, toeplitz_columns
from .errors import BudgetExceeded, DimensionMismatch, NotAnalytic, ParamOutOfRange, _is_integer
from .laurent import (LaurentMatrix, _check_sigma_params, _last_analytic_index, _lower_symbols,
                      adjoint_on_circle, build_sigma, is_analytic, is_inner, matmul)
from .series import shift_product, toeplitz_view
from .subspaces import (MonomialSubspace, SpanSubspace, _null_combos, _null_span, _residual_rows,
                        _windows, frame_distance, intersect_shifted, orthonormalize)
from .tolerances import ANALYTICITY_TOL, MEMBERSHIP_TOL, RANK_TOL
from .veclift import fit_cap, lift

__all__ = [
    "OperatorSpec",
    "Witness",
    "CheckReport",
    "ComplementModel",
    "Stage",
    "PipelineReport",
    "check_invariance",
    "check_near_invariance",
    "range_generators",
    "build_theta_range",
    "build_model_space",
    "verify_theorem_multi",
]

@dataclass(frozen=True)
class ComplementModel:
    """A model space kept without a frame: the range of P = I - QQᴴ on the
    first n coordinates, Q the frame of ``complement`` (zero from row n on)."""

    complement: SpanSubspace
    n: int
    label: str


SubspaceModel = Union[SpanSubspace, MonomialSubspace]


@dataclass(frozen=True)
class OperatorSpec:
    """S^power (``blaschke`` None) or T_B^power, T_B the Toeplitz operator
    of a product of automorphisms B, or its adjoint when ``star``; it acts
    on column matrices of flattened elements."""

    power: int
    star: bool = False
    blaschke: object = None  # the BlaschkeProduct B of T_B

    def __post_init__(self) -> None:
        if not _is_integer(self.power) or self.power < 1:
            raise ParamOutOfRange(f"operator power must be an integer >= 1, got {self.power!r}")

    @property
    def order(self) -> int:
        """power * deg B: the power of S that the transfer U makes of T_B^power."""
        return self.power * (1 if self.blaschke is None else self.blaschke.degree)

    def describe(self) -> str:
        tag = (f"S^{self.power}" if self.blaschke is None
               else f"T_B^{self.power}" if self.power != 1 else "T_B")
        return f"({tag})*" if self.star else tag

    def apply(self, X: np.ndarray, arity: int = 1) -> np.ndarray:
        """Image of every column of X, each a flattened element: arity
        component blocks of cap+1 coefficients, stacked.

        Shifts act by ``series.shift_product``; Toeplitz symbols act on
        scalar columns only.
        """
        if self.blaschke is None:
            return shift_product(self.power, self.star, X, arity)
        if arity != 1:
            raise DimensionMismatch("toeplitz symbols act on scalar elements only")
        return toeplitz_columns(self.blaschke, self.power, self.star, X)


@dataclass(frozen=True)
class Witness:
    """FAIL evidence: the offending element, its image, and the residual.
    On a span, element and image are (arity, cap+1) coefficient blocks;
    on a monomial model they are exponents."""

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


def _monomial_order(M: MonomialSubspace, op: OperatorSpec) -> int:
    """Total shift order of a monomial symbol, at most cap + 1: an order
    past the cap leaves no image under it."""
    if op.blaschke is not None and any(z != 0 for z in op.blaschke.zeros):
        raise DimensionMismatch("monomial subspaces support shift-type operators only")
    return min(op.order, M.cap + 1)


def _exponent_check(M: MonomialSubspace, check: str, op: OperatorSpec, name: str,
                    domain: np.ndarray, shift: int, note: str,
                    untested: tuple = ()) -> CheckReport:
    """Map every exponent e of domain to z^(e + shift) at once and test
    membership in the model's table; an image below 0 is the zero
    element, always a member.  The witness is the first non-member, and
    ``tested`` stops there."""
    if not domain.size and untested:
        raise BudgetExceeded("no testable exponent band remains under the cap")
    images = domain + shift
    bad = np.flatnonzero((images >= 0) & ~M._table[np.maximum(images, 0)])
    if not bad.size:
        return CheckReport(check, op.describe(), name, "PASS", None, untested, domain.size)
    e, img = int(domain[bad[0]]), int(images[bad[0]])
    witness = Witness(e, img, 1.0, note.format(e=e, img=img))
    return CheckReport(check, op.describe(), name, "FAIL", witness, untested, int(bad[0]) + 1)


def _first_failure(M: SpanSubspace, op: OperatorSpec, X: np.ndarray,
                   tol: float) -> Optional[tuple]:
    """Apply op to the columns of X once and test all images for
    membership in M in one residual computation ||Y - F F^H Y||.

    Returns (index, image, residual) of the first failing column, or None.
    """
    if not X.shape[1]:
        return None
    Y = op.apply(X, M.arity)
    res = frame_distance(M.frame_matrix(), Y)[1]
    bad = np.flatnonzero(~(res <= tol))
    if not bad.size:
        return None
    i = int(bad[0])
    return i, Y[:, i].reshape(M.arity, -1), float(res[i])


def _complement_check(M: ComplementModel, op: OperatorSpec, name: str,
                      tol: float) -> CheckReport:
    """(S^k)*-invariance of the range of P = I - QQᴴ, on its columns P e_i:
    with Z = S^k Q, (S^k)* P e_i lies at distance ||row i of Z - QQᴴZ|| from
    that range, over ||P e_i|| = (1 - ||Q[i, :]||²)^½ for a unit element.
    A P e_i with ||P e_i||² <= RANK_TOL is the zero element: 1 - ||Q[i, :]||²
    is known to a few EPS, so an exact zero can come out near EPS^½ in norm,
    and dividing a row's rounding of about EPS by that would reach tol;
    past RANK_TOL it stays below EPS / RANK_TOL^½ ~ 7e-12.  The witness is
    the first failing P e_i, normalised, and ``tested`` counts the P e_i up
    to it, so no basis of the range is chosen."""
    if not op.star or op.blaschke is not None:
        raise DimensionMismatch("a model space is tested under co-shifts only")
    F, n, k = M.complement.matrix, M.n, min(op.power, M.n)
    Q, Z = F[:n], np.zeros((n, F.shape[1]), np.complex128)
    Z[k:] = Q[: n - k]
    norm2 = 1.0 - np.sum(np.abs(Q) ** 2, axis=1)
    cols = np.flatnonzero(norm2 > RANK_TOL)
    res = _residual_rows(Q, Z)[cols] / np.sqrt(norm2[cols])
    bad = np.flatnonzero(~(res <= tol))
    if not bad.size:
        return CheckReport("invariance", op.describe(), name, "PASS", None, (), cols.size)
    i = int(cols[bad[0]])
    x = np.eye(1, len(F), i)[0] - F @ Q[i].conj()
    x /= np.linalg.norm(x)
    witness = Witness(x[None], op.apply(x[:, None]).T, float(res[bad[0]]),
                      f"P e_{i} image leaves the span")
    return CheckReport("invariance", op.describe(), name, "FAIL", witness, (), int(bad[0]) + 1)


def check_invariance(M: Union[SubspaceModel, ComplementModel], op: OperatorSpec,
                     tol: float = MEMBERSHIP_TOL) -> CheckReport:
    """Apply op to every frame vector (or exponent) and test membership.

    Frame vectors whose image would land above the model's band (cap, or
    the builder-declared truncation band) are excluded and reported;
    support is measured at a fraction of the membership tolerance so that
    truncated-expansion dust does not inflate degrees.  All frame vectors
    are tested in one residual computation; the witness is the first
    failing one, and ``tested`` and ``untested`` stop there.  A
    ``ComplementModel`` is tested on its columns P e_i instead.
    """
    name = getattr(M, "label", "") or "M"
    if isinstance(M, ComplementModel):
        return _complement_check(M, op, name, tol)
    if isinstance(M, MonomialSubspace):
        order, exps = _monomial_order(M, op), M.exponents()
        domain, shift, untested = exps, -order, ()  # an adjoint tests every exponent
        if not op.star:
            top = M.cap - order
            domain, shift = exps[exps <= top], order
            if domain.size < exps.size:
                untested = (f"exponents above {top} excluded (image would exceed cap {M.cap})",)
        return _exponent_check(M, "invariance", op, name, domain, shift,
                               "z^{e} maps to z^{img} outside the set", untested)
    X, limit = M.frame_matrix(), M.effective_band
    gain = 0 if op.star else min(op.order, M.cap + 1)  # a larger gain leaves no image either
    keep = np.ones(M.dim, dtype=bool)
    if gain:
        # effective degree: the last degree whose tail mass (per component) exceeds tol/4,
        # counted as it only falls, on each block's window: the zeros off it add exactly 0
        A = X.reshape(M.arity, M.cap + 1, M.dim).transpose(1, 0, 2).reshape(M.cap + 1, -1)
        lo, width = _windows(A)
        W = int(width.max(initial=1))
        lo = np.minimum(lo, M.cap + 1 - W)  # each block is read on the W rows from lo
        win = sliding_window_view(A, W, axis=0)[lo, np.arange(A.shape[1])]
        count = np.sum(np.cumsum((np.abs(win) ** 2)[:, ::-1], axis=1) > (0.25 * tol) ** 2, axis=1)
        eff = np.where(count > 0, lo + count, 0).reshape(M.arity, M.dim).max(axis=0) - 1
        keep = eff + gain <= limit
        kept = np.flatnonzero(np.tile(keep, M.arity))
        win, X = win[kept], np.take(A, kept, axis=1)
        win[np.arange(W) > (np.tile(eff, M.arity) - lo)[kept, None]] = 0  # the dust above eff
        sliding_window_view(X, W, axis=0, writeable=True)[lo[kept], np.arange(kept.size)] = win
        X = X.reshape(M.cap + 1, M.arity, -1).transpose(1, 0, 2).reshape(len(M.matrix), -1)
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
        M.matrix[:, stop].reshape(M.arity, -1), *fail[1:],
        f"frame[{stop}] image leaves the span")
    verdict = "FAIL" if witness else "PASS"
    return CheckReport("invariance", op.describe(), name, verdict, witness,
                       untested, tested)


def _toeplitz_range_meet(M: SpanSubspace, T: OperatorSpec) -> SpanSubspace:
    """Exact M ∩ B^n H^2: by Beurling–Lax, the null space of the pairing
    C = K^H F with an orthonormal basis K of K_{B^n} (each zero of B
    repeated n times).  K pairs exactly with elements under the cap, so
    ||C x|| is the distance of F x from B^n H^2."""
    if M.arity != 1:
        raise DimensionMismatch("toeplitz symbols act on scalar elements only")
    label = f"{M.label or 'M'} ∩ range({T.describe()})"
    if T.order > M.cap:  # refused before the zeros are repeated
        raise BudgetExceeded(f"cap {M.cap} is below the product degree {T.order}")
    K = _factor_chain(BlaschkeProduct(1.0, T.blaschke.zeros * T.power), M.cap)[0].T
    return _null_span(M, K.conj() @ M.frame_matrix(), label)


def check_near_invariance(M: SubspaceModel, op: OperatorSpec,
                          tol: float = MEMBERSHIP_TOL) -> CheckReport:
    """Definition-based near-invariance: f in T(H^2) ∩ M implies T* f in M.

    ``op`` may name either the isometry T or its adjoint; the verdict is
    for near T*-invariance of M either way.
    """
    T, Tstar = replace(op, star=False), replace(op, star=True)
    name = getattr(M, "label", "") or "M"
    if isinstance(M, MonomialSubspace):
        order, exps = _monomial_order(M, T), M.exponents()
        # z^e lies in T(H^2) exactly when e >= order
        return _exponent_check(M, "near-invariance", Tstar, name, exps[exps >= order],
                               -order, "z^{e} lies in the range but maps to z^{img} outside")

    if T.blaschke is None:
        inside = intersect_shifted(M, T.power)
    else:
        inside = _toeplitz_range_meet(M, T)
    X = inside.frame_matrix()
    fail = _first_failure(M, Tstar, X, tol)
    witness = None if fail is None else Witness(
        X[:, fail[0]].reshape(M.arity, -1), *fail[1:],
        f"intersection frame[{fail[0]}] maps outside the span")
    verdict = "FAIL" if witness else "PASS"
    tested = inside.dim if fail is None else fail[0] + 1
    return CheckReport("near-invariance", Tstar.describe(), name, verdict,
                       witness, (), tested)


# ---------------------------------------------------------------------------
# Beurling-type range / model-space constructions and the theorem pipelines
# ---------------------------------------------------------------------------


def range_generators(theta: LaurentMatrix, cap: int) -> np.ndarray:
    """Θ·z^j δ_i, cut to component degree cap, for every nonzero column i
    and j = 0..cap, as the columns (i-major) of a (rows*(cap+1)) x count
    matrix with the component blocks stacked.

    These are all the range generators that pair nontrivially with an
    element of component degree <= cap, and the cut leaves those pairings
    unchanged.  Only powers 0..cap of Θ are read.
    """
    n = cap + 1
    live = np.flatnonzero(_last_analytic_index(theta).max(axis=0) >= 0)
    symbols = _lower_symbols(theta, n)[:, live]
    out = np.zeros((theta.rows, n, live.size, n), dtype=np.complex128)
    for c in range(live.size):
        for i in range(theta.rows):
            out[i, :, c, :] = toeplitz_view(symbols[i, c], False)
    return out.reshape(theta.rows * n, live.size * n)


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

    An inner Θ multiplies isometrically, so its lifted generators are
    orthogonal and ``orthonormalize``'s Gram test makes them the frame.
    """
    _check_builder_input(theta, m, analytic_tol, "range builder")
    last = _last_analytic_index(theta)
    label = f"T_{m}(Θ·H2) at cap {cap}"
    if last.max() < 0:
        return SpanSubspace(np.zeros((cap + 1, 0)), cap, 1, rank_tol, label=label)
    # the largest lift degree m * (min_pow + last) + row of a nonzero entry
    lifts = np.where(last >= 0, m * last + np.arange(m)[:, None], -1)
    top = m * theta.min_pow + int(lifts.max())
    ladder = (cap - top) // m
    if ladder < 0:
        raise BudgetExceeded(f"cap {cap} cannot host a single column lift")
    # every shift j <= ladder keeps each component within degree cap // m,
    # so no generator is cut
    n = cap // m + 1
    gens = range_generators(theta, n - 1).reshape(m * n, -1, n)[..., : ladder + 1]
    lifted = fit_cap(lift(gens.reshape(m * n, -1), m), m, cap)
    span = orthonormalize(lifted, rank_tol, label=label, band=m * ladder)
    return replace(span, generators=())  # so the lifted matrix is freed on return


def build_model_space(theta: LaurentMatrix, m: int, cap: int, rank_tol: float = RANK_TOL,
                      analytic_tol: float = ANALYTICITY_TOL
                      ) -> Union[SpanSubspace, ComplementModel]:
    """Capped model of the lifted model space K_Θ = H² ⊖ ΘH²: the vectors
    of component degree <= c orthogonal to the full matrix range, lifted.

    The constraints are every range generator cut to component degree c
    (``range_generators``), so the complement carries no spurious edge
    directions; the result is exact for the band it declares.
    A square inner Θ has K_Θ below degree deg Θ (f = ΘΘ*f, Θ*f antianalytic):
    the solve runs there, and its SVD null basis, lifted, is the frame.  Any
    other Θ gets the ``ComplementModel`` of its nonzero lifted cut generators
    (for Θ = z^a·v, a of them per column are zero and would fail the Gram test).
    """
    _check_builder_input(theta, m, analytic_tol, "model-space builder")
    comp_cap = (cap + 1) // m - 1
    if comp_cap < 0:
        raise BudgetExceeded(f"cap {cap} cannot host arity {m}")
    n, label = m * (comp_cap + 1), f"T_{m}(K_Θ) at cap {cap}"
    if theta.rows == theta.cols and is_inner(theta, analytic_tol):
        d = min(comp_cap, max(theta.max_pow - 1, 0))
        combos = _null_combos(np.conj(range_generators(theta, d).T), m * (d + 1), rank_tol)[1]
        return SpanSubspace(fit_cap(lift(combos.T, m), m, cap), cap, 1, rank_tol,
                            label=label, band=n - 1)
    gens = range_generators(theta, comp_cap)
    span = orthonormalize(fit_cap(lift(gens[:, np.any(gens, axis=0)], m), m, cap), rank_tol)
    return ComplementModel(replace(span, generators=()), n, label)  # frees the lifted matrix


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


def verify_theorem_multi(theta: LaurentMatrix, m: int,
                         conditions: Sequence[tuple], cap: int,
                         tol: float = MEMBERSHIP_TOL,
                         analytic_tol: float = ANALYTICITY_TOL,
                         rank_tol: float = RANK_TOL) -> PipelineReport:
    """Simultaneous-invariance pipeline over one or more (gamma, k)
    conditions (several cover semigroups with three or more generators).
    Stages: the matrix is inner; each conjugated block-shift product is
    analytic; the lifted range is invariant under S^m and every
    S^(km+gamma), and the lifted model space under their adjoints."""
    conds = [(g, kk) for g, kk in conditions]
    if not conds:
        raise ParamOutOfRange("at least one (gamma, k) condition is required")
    for g, kk in conds:  # before any Σ: a bad m, gamma or k, or S^(km+gamma) past the cap
        _check_sigma_params(m, g, kk)
        if kk * m + g > cap:
            raise BudgetExceeded(f"order {kk * m + g} of S^(km+gamma) exceeds cap {cap}")
    stages: list[Stage] = []
    products: list[tuple] = []

    stages.append(Stage("theta_inner", "PASS" if is_inner(theta, analytic_tol) else "FAIL",
                        "Θ*Θ = I as a Laurent series"))

    srange = build_theta_range(theta, m, cap, rank_tol, analytic_tol)
    smodel = build_model_space(theta, m, cap, rank_tol, analytic_tol)

    rep = check_invariance(srange, OperatorSpec(m), tol)
    stages.append(Stage(f"range_invariant_S^{m}", rep.verdict, "", rep))
    rep = check_invariance(smodel, OperatorSpec(m, True), tol)
    stages.append(Stage(f"model_invariant_(S^{m})*", rep.verdict, "", rep))

    for g, kk in conds:
        order = kk * m + g
        product = matmul(matmul(adjoint_on_circle(theta), build_sigma(m, g, kk)), theta)
        chk = is_analytic(product, analytic_tol)
        products.append(((g, kk), product))
        stages.append(Stage(
            f"product_analytic_gamma{g}_k{kk}",
            "PASS" if chk.ok else "FAIL",
            f"max negative-index magnitude {chk.witness:.6e}",
            chk,
        ))
        rep = check_invariance(srange, OperatorSpec(order), tol)
        stages.append(Stage(f"range_invariant_S^{order}", rep.verdict, "", rep))
        rep = check_invariance(smodel, OperatorSpec(order, True), tol)
        stages.append(Stage(f"model_invariant_(S^{order})*", rep.verdict, "", rep))

    verdict = "PASS" if all(s.passed for s in stages) else "FAIL"
    return PipelineReport("verify-theta", tuple(stages), verdict, tuple(products))
