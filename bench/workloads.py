"""Seeded generators for the benchmark workloads.

Each generator returns a list of cases.  A case is one problem file with
exactly one task, plus the expectations that the construction fixes
mathematically.  hardyshift only ever sees the problem file; the
expectations stay with the benchmark and feed the correctness gate in
``oracle.py``.

Coefficients are drawn from ordinary distributions (complex Gaussians,
uniform radii and phases).  Structural choices that drive cost, such as
caps, arities, span dimensions and which construction a slot uses, are
fixed per slot so that a pass costs about the same on every seed; the
seed moves the numbers, never the shape of the workload.  No seed is
filtered or redrawn.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field

import numpy as np

from oracle import blaschke_power

WORKLOADS = ("theta_pipeline", "toeplitz_near", "hitt_peel")

SHIPPED = ("demo", "audit")
SHIPPED_CAP = 384


@dataclass
class Case:
    """One single-task problem file and what its construction fixes.

    ``expect`` may hold:
      verdict  -- the task verdict,
      stages   -- {stage name: verdict} for verify-theta and certify stages,
      checks   -- [verdict per operator] for check tasks,
      error    -- the error type the task must raise.
    Any ERROR not named by ``error`` counts as a mismatch.
    """

    name: str
    problem: dict
    expect: dict = field(default_factory=dict)


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _poly(coeffs) -> list:
    return [_pair(c) for c in coeffs]


def _cgauss(rng, *shape) -> np.ndarray:
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2.0)


def _unit(rng, m: int) -> np.ndarray:
    v = _cgauss(rng, m)
    return v / np.linalg.norm(v)


def _unitary(rng, m: int) -> np.ndarray:
    q, r = np.linalg.qr(_cgauss(rng, m, m))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _matrix_entries(table: np.ndarray) -> list:
    """table[i, j, t] is the coefficient of z^t of entry (i, j)."""
    rows, cols, _ = table.shape
    return [[_poly(table[i, j]) for j in range(cols)] for i in range(rows)]


def _span_problem(cap: int, task: dict, gens: list, **objects) -> dict:
    """A problem whose task runs on M = span of the given polynomials."""
    polys = {f"g{i}": _poly(g) for i, g in enumerate(gens)}
    return _single(cap, task, polys, **objects,
                   subspaces={"M": {"kind": "span", "generators": list(polys)}})


def _single(cap: int, task: dict, polys=None, matrices=None, blaschke=None,
            subspaces=None) -> dict:
    objects = {}
    if polys:
        objects["polys"] = polys
    if matrices:
        objects["matrices"] = matrices
    if blaschke:
        objects["blaschke"] = blaschke
    out = {"workspace": {"cap": cap}, "objects": objects, "tasks": [task]}
    if subspaces:
        out["subspaces"] = subspaces
    return out


# ---------------------------------------------------------------------------
# theta_pipeline
# ---------------------------------------------------------------------------

# Columns: z^a times a seeded unit vector in C^m, the family of the audited
# (1,2)/sqrt(5) column; each order condition FAILs at the first frame
# vector.  (cap, m, a, conditions); the seed moves the vector only.
COLUMN_SLOTS = 2 * (
    (192, 2, 0, ((1, 1),)), (192, 2, 1, ((1, 2),)), (192, 3, 0, ((1, 1),)),
    (192, 3, 1, ((2, 1), (1, 2))), (192, 2, 1, ((1, 1),)), (192, 3, 0, ((2, 2),)),
) + ((384, 2, 0, ((1, 1),)),)

# Squares: U diag(z^a) V with seeded unitary U and V, and a fixed exponent
# pattern and condition list, so that the seed moves the numbers only.
# (cap, m, pattern, conditions)
SQUARE_SLOTS = (
    (192, 2, (0, 1), ((1, 1),)),
    (192, 2, (0, 1), ((1, 1),)),
    (192, 2, (0, 2), ((1, 1),)),
    (192, 3, (0, 2, 1), ((1, 1), (2, 1))),
)


def square_product_analytic(U: np.ndarray, a, m: int, gamma: int, k: int) -> bool:
    """Whether Theta* Sigma Theta is analytic for Theta = U diag(z^a) V.

    V is constant unitary and cancels.  With W_p = U* Sigma_p U for the two
    powers p in {k, k+1} that Sigma carries, entry (i, j) of
    diag(z^-a) W diag(z^a) sits at power p - a_i + a_j.
    """
    sig = {k: np.zeros((m, m)), k + 1: np.zeros((m, m))}
    for i in range(gamma):
        sig[k + 1][i, m - gamma + i] = 1.0
    for i in range(m - gamma):
        sig[k][gamma + i, i] = 1.0
    worst = 0.0
    for p, S in sig.items():
        W = U.conj().T @ S @ U
        for i in range(m):
            for j in range(m):
                if p - a[i] + a[j] < 0:
                    worst = max(worst, abs(W[i, j]))
    return worst < 1e-10


def _theta_case(name: str, cap: int, m: int, table: np.ndarray, conds, stages: dict,
                verdict: str) -> Case:
    task = {"task": "verify-theta", "theta": "theta", "m": m,
            "conditions": [{"gamma": g, "k": k} for g, k in conds]}
    problem = _single(cap, task, matrices={"theta": {"entries": _matrix_entries(table)}})
    return Case(name, problem, {"verdict": verdict, "stages": stages})


def _base_stages(m: int) -> dict:
    # a matrix inner by construction; its range is S^m-invariant and the
    # model space (S^m)*-invariant
    return {"theta_inner": "PASS", f"range_invariant_S^{m}": "PASS",
            f"model_invariant_(S^{m})*": "PASS"}


def _theta_cases(rng, cap_override=None) -> list:
    cases = []
    for slot, (cap, m, a, conds) in enumerate(COLUMN_SLOTS):
        cap = cap_override or cap
        table = np.zeros((m, 1, a + 1), dtype=complex)
        table[:, 0, a] = _unit(rng, m)
        stages = _base_stages(m)
        for g, k in conds:
            # the product c* Sigma c is analytic, but Sigma c leaves c H2
            order = k * m + g
            stages[f"product_analytic_gamma{g}_k{k}"] = "PASS"
            stages[f"range_invariant_S^{order}"] = "FAIL"
            stages[f"model_invariant_(S^{order})*"] = "FAIL"
        cases.append(_theta_case(f"column_{slot}_m{m}_c{cap}", cap, m, table, conds,
                                 stages, "FAIL"))
    for slot, (cap, m, pattern, conds) in enumerate(SQUARE_SLOTS):
        cap = cap_override or cap
        U, V = _unitary(rng, m), _unitary(rng, m)
        table = np.zeros((m, m, max(pattern) + 1), dtype=complex)
        for l, a in enumerate(pattern):
            table[:, :, a] += np.outer(U[:, l], V[l, :])
        stages = _base_stages(m)
        for g, k in conds:
            # square inner: the order-(km+gamma) stages hold iff the product
            # is analytic
            v = "PASS" if square_product_analytic(U, pattern, m, g, k) else "FAIL"
            order = k * m + g
            stages[f"product_analytic_gamma{g}_k{k}"] = v
            stages[f"range_invariant_S^{order}"] = v
            stages[f"model_invariant_(S^{order})*"] = v
        verdict = "PASS" if all(v == "PASS" for v in stages.values()) else "FAIL"
        cases.append(_theta_case(f"square_{slot}_m{m}_c{cap}", cap, m, table, conds,
                                 stages, verdict))
    return cases


# Facts about the shipped files that the acceptance suite and the README
# audit establish independently of the program's own verdicts.
SHIPPED_EXPECT = {
    ("demo", 0): {"verdict": "PASS"},
    ("demo", 3): {"verdict": "PASS"},  # diag(1,z,z): square inner, products analytic
    ("demo", 4): {"stages": {"theta_inner": "PASS", "product_analytic": "PASS"}},
    ("demo", 5): {"stages": {"theta_inner": "PASS", "product_analytic": "PASS"}},
    ("demo", 6): {"verdict": "PASS"},  # verdicts transfer across the unitary
}


def shipped_cases(root: str, cap_override=None) -> list:
    """Each task of problems/demo.json and problems/audit.json as its own
    file at cap 384.  Monomial subspaces keep their own declared cap."""
    cases = []
    for stem in SHIPPED:
        with open(os.path.join(root, "problems", f"{stem}.json"), encoding="utf-8") as fh:
            data = json.load(fh)
        for idx, task in enumerate(data["tasks"]):
            one = copy.deepcopy(data)
            one["workspace"]["cap"] = cap_override or SHIPPED_CAP
            one["tasks"] = [task]
            cases.append(Case(f"{stem}_{idx}", one, dict(SHIPPED_EXPECT.get((stem, idx), {}))))
    return cases


# ---------------------------------------------------------------------------
# toeplitz_near
# ---------------------------------------------------------------------------

TOEPLITZ_CAP = 384

# (degree of B, n, heavy case) per slot.  Each slot adds one near-invariance
# check against the Toeplitz range (the costly path) and four invariance or
# transfer tasks that stay on small frames.
TOEPLITZ_SLOTS = (
    (1, 1, "near_pass"), (2, 1, "near_fail"), (3, 1, "transfer_near"),
    (1, 2, "near_pass_adjoint"), (2, 2, "near_fail"), (3, 2, "transfer_near"),
)


def _blaschke(rng, degree: int):
    radii = rng.uniform(0.2, 0.7, size=degree)
    phases = rng.uniform(0.0, 2 * np.pi, size=degree)
    zeros = radii * np.exp(1j * phases)
    lam = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    return complex(lam), [complex(z) for z in zeros]


def _mul_trunc(b: np.ndarray, p: np.ndarray, cap: int) -> np.ndarray:
    return np.convolve(b, p)[: cap + 1]


def _toeplitz_cases(rng, cap_override=None) -> list:
    cap = cap_override or TOEPLITZ_CAP
    cases = []
    for slot, (deg, n, heavy) in enumerate(TOEPLITZ_SLOTS):
        lam, zeros = _blaschke(rng, deg)
        bdef = {"B": {"lambda": _pair(lam), "zeros": [_pair(z) for z in zeros]}}
        bn = blaschke_power(lam, zeros, n, cap)
        order = n * deg
        poly = lambda: _cgauss(rng, int(rng.integers(3, 9)))

        def add(name, task, gens, expect):
            cases.append(Case(name, _span_problem(cap, task, gens, blaschke=bdef), expect))

        if heavy.startswith("near_pass"):
            # span{r_i, B^n r_i} with at most n*deg(B) generic r_i:
            # M ∩ B^n H2 = span{B^n r_i}, which T* maps onto the r_i
            rs = [poly() for _ in range(min(2, order))]
            token = "toeplitz_adjoint" if heavy.endswith("adjoint") else "toeplitz"
            task = {"task": "check-near-invariance", "subspace": "M",
                    "operators": [f"{token}:B:{n}"]}
            add(f"{heavy}_{slot}", task, rs + [_mul_trunc(bn, r, cap) for r in rs],
                {"verdict": "PASS"})
        elif heavy == "near_fail":
            # B^n p with p outside the span: T* maps it to p
            gens = ([_mul_trunc(bn, poly(), cap) for _ in range(2)]
                    + [poly() for _ in range(min(2, order))])
            task = {"task": "check-near-invariance", "subspace": "M",
                    "operators": [f"toeplitz:B:{n}"]}
            add(f"near_fail_{slot}", task, gens, {"verdict": "FAIL"})

        # A nonzero finite-dimensional space is never invariant under the
        # pure isometry T_B^n.  The span of the reproducing kernels at the
        # zeros of B is annihilated by the adjoint; generic spans are not
        # invariant under it.
        task = {"task": "check-invariance", "subspace": "M",
                "operators": [f"toeplitz:B:{n}", f"toeplitz_adjoint:B:{n}"]}
        kernels = [np.conj(a) ** np.arange(cap + 1) for a in zeros]
        add(f"inv_kernels_{slot}", task, kernels, {"checks": ["FAIL", "PASS"], "verdict": "FAIL"})
        for i in range(2):
            mixed = [_mul_trunc(bn, _cgauss(rng, 4), cap), _cgauss(rng, 6), _cgauss(rng, 3)]
            add(f"inv_mixed_{slot}_{i}", task, mixed,
                {"checks": ["FAIL", "FAIL"], "verdict": "FAIL"})

        # verdicts transfer across the unitary onto the power-shift picture
        rs = [poly() for _ in range(2)]
        gens = [rs[0], _mul_trunc(bn, rs[0], cap), rs[1]]
        for near in (False, True) if heavy == "transfer_near" else (False,):
            task = {"task": "blaschke-transfer", "subspace": "M", "blaschke": "B",
                    "n": n, "near": near}
            add(f"transfer_{'near' if near else 'inv'}_{slot}", task, gens, {"verdict": "PASS"})
    return cases


# ---------------------------------------------------------------------------
# hitt_peel
# ---------------------------------------------------------------------------

# (m, number of generator polynomials q_i, cap, span dimension, with theta)
HITT_SLOTS = (
    (2, 1, 192, 40, False), (3, 1, 192, 40, False), (2, 1, 224, 48, False),
    (3, 2, 192, 40, False), (2, 1, 192, 44, False), (3, 1, 256, 42, False),
    (2, 1, 256, 60, True), (3, 1, 320, 80, False), (2, 1, 384, 120, False),
    (3, 2, 256, 50, True), (3, 1, 192, 60, True),
)
# Slots that trip a known program defect on every seed tried.  They are not
# timed, since no timed task may fail; each run makes and checks them once,
# after the measurement, and reports whether the defect still shows.
#   (2, 1, 320, 90): the kernel entry q has degree 1 but rounding dust of
#   ~1e-37 up to degree 89; TaylorPoly.deg() counts the dust, so the shift
#   guard of hitt_decompose's reconstruction raises BudgetExceeded although
#   the span decomposes exactly within the cap.
HITT_DEFECT_SLOTS = ((2, 1, 320, 90, False),)
# (m, cap, dimension of the co-invariant part) of spans with one stray monomial
HITT_BAD_SLOTS = ((2, 256, 40), (3, 384, 60))


def _hitt_span(rng, m: int, nq: int, cap: int, dim: int):
    """span{z^(m l) q_i} with generic q_i of degree below m and nq < m.

    The blocks z^(m l) C^m are disjoint, so the kernel column spans the
    q_i and every member decomposes in finitely many peels with no shift
    past the cap.  The span is nearly co-invariant under the m-th
    co-shift and its coordinate space is co-invariant.
    """
    per = dim // nq
    if m * per > cap + 1:
        raise ValueError(f"span of dimension {dim} does not fit cap {cap} at arity {m}")
    gens = []
    for _ in range(nq):
        q = _cgauss(rng, m)
        for l in range(per):
            g = np.zeros(m * l + m, dtype=complex)
            g[m * l:] = q
            gens.append(g)
    return gens


def _hitt_cases(rng, cap_override=None, slots=HITT_SLOTS, first=0, bad=True) -> list:
    cases = []
    for slot, (m, nq, cap, dim, with_theta) in enumerate(slots, start=first):
        cap = cap_override or cap
        gens = _hitt_span(rng, m, nq, cap, dim)
        task = {"task": "hitt", "subspace": "M", "m": m}
        expect = {}
        matrices = None
        if with_theta:
            a = 1 + slot % 2
            table = np.zeros((m, 1, a + 1), dtype=complex)
            table[:, 0, a] = _unit(rng, m)
            matrices = {"theta": {"entries": _matrix_entries(table)}}
            task.update({"theta": "theta", "gamma": int(rng.integers(1, m)),
                         "k": int(rng.integers(1, 3))})
            expect["stages"] = {"theta_inner": "PASS", "product_analytic": "PASS"}
        else:
            expect["verdict"] = "PASS"  # the coordinate space is co-invariant
        cases.append(Case(f"hitt_{slot}_m{m}_d{dim}_c{cap}",
                          _span_problem(cap, task, gens, matrices=matrices), expect))
    for slot, (m, cap, dim) in enumerate(HITT_BAD_SLOTS if bad else ()):
        cap = cap_override or cap
        gens = _hitt_span(rng, m, 1, cap, dim)
        # z^(m t + 1) lies in z^m H2 but its co-shift z^(m(t-1)+1) is not a
        # member: h(z^m) q(z) = z^s (1 - c z^m) has no solution for generic q.
        t = int(rng.integers(dim // 4, dim // 2))
        stray = np.zeros(m * t + 2, dtype=complex)
        stray[m * t + 1] = 1.0
        gens.append(stray)
        task = {"task": "hitt", "subspace": "M", "m": m}
        cases.append(Case(f"hitt_bad_{slot}_m{m}_c{cap}", _span_problem(cap, task, gens),
                          {"error": "NoConvergence"}))
    return cases


def generate(workload: str, seed: int, root: str, cap=None) -> list:
    """Cases of one workload; the same seed gives the same cases.

    ``cap`` replaces every cap, so that tests can run a small version.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "theta_pipeline":
        return _theta_cases(rng, cap) + shipped_cases(root, cap)
    if workload == "toeplitz_near":
        return _toeplitz_cases(rng, cap)
    return _hitt_cases(rng, cap)


def known_defect_cases(workload: str, seed: int) -> list:
    """Untimed cases of one workload that trip a known program defect."""
    if workload != "hitt_peel":
        return []
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), 1])
    return _hitt_cases(rng, slots=HITT_DEFECT_SLOTS, first=len(HITT_SLOTS), bad=False)


def write_cases(cases: list, directory: str) -> list:
    """Write one problem file per case; returns the paths in case order."""
    paths = []
    for i, case in enumerate(cases):
        path = os.path.join(directory, f"{i:03d}_{case.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(case.problem, fh)
        paths.append(path)
    return paths
