"""Independent correctness gate for benchmark reports.

Nothing here imports hardyshift.  Expected verdicts come from the case
construction (see ``workloads.Case``); every FAIL witness in a report is
re-verified with dense numpy linear algebra against generators rebuilt
from the problem file:

* the witness element lies in the subspace the check ran on,
* the witness image is the operator applied to the element,
* the image's least-squares residual against the subspace exceeds the
  membership tolerance and agrees with the reported residual.

Monomial exponent-set checks are decided exactly by a semigroup table.
"""

from __future__ import annotations

import re

import numpy as np

MEMBERSHIP_TOL = 1e-8
RANK_TOL = 1e-9
RESIDUAL_RTOL = 1e-6  # reported residuals carry 12 significant digits


def _cx(pair) -> complex:
    if isinstance(pair, (int, float)):
        return complex(pair)
    return complex(pair[0], pair[1])


def _coeffs(pairs, length: int) -> np.ndarray:
    out = np.zeros(length, dtype=complex)
    vals = [_cx(p) for p in pairs]
    n = min(len(vals), length)
    out[:n] = vals[:n]
    return out


# ---------------------------------------------------------------------------
# the problem file, read independently
# ---------------------------------------------------------------------------


class Problem:
    def __init__(self, data: dict):
        ws = data.get("workspace", {})
        self.cap = int(ws.get("cap", 64))
        tols = ws.get("tolerances", {})
        self.tol = float(tols.get("membership", MEMBERSHIP_TOL))
        self.rank_tol = float(tols.get("rank", RANK_TOL))
        objects = data.get("objects", {})
        n = self.cap + 1
        self.polys = {k: _coeffs(v, n) for k, v in objects.get("polys", {}).items()}
        self.matrices = {}
        for name, spec in objects.get("matrices", {}).items():
            if spec.get("min_pow", 0) != 0:
                raise ValueError("the oracle handles analytic matrices only")
            rows = spec["entries"]
            width = max(len(e) for row in rows for e in row)
            tab = np.zeros((len(rows), len(rows[0]), width), dtype=complex)
            for i, row in enumerate(rows):
                for j, e in enumerate(row):
                    tab[i, j, : len(e)] = [_cx(c) for c in e]
            self.matrices[name] = tab
        self.blaschke = {k: (_cx(v.get("lambda", 1.0)), [_cx(z) for z in v["zeros"]])
                         for k, v in objects.get("blaschke", {}).items()}
        self.subspaces = data.get("subspaces", {})
        self.task = data["tasks"][0]

    def span(self, name: str) -> np.ndarray:
        spec = self.subspaces[name]
        return np.column_stack([self.polys[g] for g in spec["generators"]])

    def monomial_table(self, name: str):
        spec = self.subspaces[name]
        cap = int(spec.get("cap", self.cap))
        table = np.zeros(cap + 1, dtype=bool)
        table[0] = True
        for e in range(cap + 1):
            for g in spec["generators"]:
                if e >= g and table[e - g]:
                    table[e] = True
        for e in spec.get("exceptional", []):
            table[e] = True
        return table


# ---------------------------------------------------------------------------
# operators, rebuilt from their definitions
# ---------------------------------------------------------------------------


def blaschke_power(lam, zeros, n: int, cap: int) -> np.ndarray:
    """Coefficients 0..cap of B^n from circle samples (aliasing ~ |z|^N)."""
    return circle_coeffs(lambda w: _blaschke_at(lam, zeros, w) ** n, cap)


def _blaschke_at(lam, zeros, w):
    vals = np.full(w.shape, complex(lam), dtype=complex)
    for a in zeros:
        vals = vals * (w - a) / (1 - np.conj(a) * w)
    return vals


def circle_coeffs(fn, cap: int) -> np.ndarray:
    N = 1 << max(12, int(np.ceil(np.log2(8 * (cap + 1)))))
    w = np.exp(2j * np.pi * np.arange(N) / N)
    return (np.fft.fft(fn(w)) / N)[: cap + 1]


def _apply(kind: str, order: int, v: np.ndarray, b=None) -> np.ndarray:
    """shift / coshift by order, or T_b / T_b* with symbol coefficients b."""
    n = v.size
    out = np.zeros(n, dtype=complex)
    if kind == "shift":
        out[order:] = v[: n - order]
    elif kind == "coshift":
        out[: n - order] = v[order:]
    elif kind == "toeplitz":
        out[:] = np.convolve(b, v)[:n]
    else:  # toeplitz_adjoint: out[j] = sum_k conj(b_k) v[j + k]
        bb = np.conj(b)
        for j in range(n):
            out[j] = np.dot(bb[: n - j], v[j:])
    return out


def _resid(v: np.ndarray, G: np.ndarray) -> float:
    if G.shape[1] == 0:
        return float(np.linalg.norm(v))
    x = np.linalg.lstsq(G, v, rcond=None)[0]
    return float(np.linalg.norm(v - G @ x))


def _orth_resid(v: np.ndarray, Q: np.ndarray) -> float:
    return float(np.linalg.norm(v - Q @ (Q.conj().T @ v)))


# ---------------------------------------------------------------------------
# witness checks
# ---------------------------------------------------------------------------


def _witness_problems(chk: dict, G, tol: float, op, in_range=None,
                      orthonormal: bool = False) -> list:
    """op(v) -> image; in_range(v) -> True when v lies in the operator range
    (near-invariance witnesses come from the intersection)."""
    w = chk.get("witness")
    if w is None:
        return [f"{chk['operator']}: FAIL without a witness"]
    n = G.shape[0]
    el = _coeffs(w["element"]["coeffs"], n)
    img = _coeffs(w["image"]["coeffs"], n)
    resid = _orth_resid if orthonormal else _resid
    out = []
    scale = max(1.0, float(np.linalg.norm(el)))
    if resid(el, G) > 10 * tol * scale:
        out.append(f"{chk['operator']}: witness element is not in the subspace")
    if in_range is not None and not in_range(el):
        out.append(f"{chk['operator']}: witness element is not in the operator range")
    if np.linalg.norm(img - op(el)) > tol * scale:
        out.append(f"{chk['operator']}: witness image is not the operator image")
    r = resid(img, G)
    rep = float(w["residual"])
    if not r > tol:
        out.append(f"{chk['operator']}: witness image residual {r:.3e} is within tolerance")
    if abs(r - rep) > RESIDUAL_RTOL * max(1.0, rep):
        out.append(f"{chk['operator']}: reported residual {rep!r} != recomputed {r:.12g}")
    return out


def _vanishes_at(zeros, n: int, tol: float = 1e-6):
    """Membership in B^n H2 at the cap: v and its first n-1 derivatives
    vanish at each zero of B."""
    def test(v):
        scale = max(1.0, float(np.linalg.norm(v)))
        for a in zeros:
            d = v.copy()
            for _ in range(n):
                if abs(np.polynomial.polynomial.polyval(a, d)) > tol * scale:
                    return False
                d = np.polynomial.polynomial.polyder(d)
        return True
    return test


def _span_check_problems(prob: Problem, chk: dict, G, token: str, near: bool) -> list:
    """Re-verify the witness of a FAIL check on a span subspace."""
    kind, *rest = token.split(":")
    shift_type = kind in ("shift", "coshift")
    if shift_type:
        k = int(rest[0])
    else:
        lam, zeros = prob.blaschke[rest[0]]
        n = int(rest[1])
        b = blaschke_power(lam, zeros, n, G.shape[0] - 1)
    in_range = None
    if near:
        # near invariance of the adjoint: witnesses lie in M ∩ range(T)
        if shift_type:
            op = lambda v: _apply("coshift", k, v)
            in_range = lambda v: np.linalg.norm(v[:k]) <= 1e-6 * max(1.0, np.linalg.norm(v))
        else:
            op = lambda v: _apply("toeplitz_adjoint", 0, v, b)
            in_range = _vanishes_at(zeros, n)
    elif shift_type:
        op = lambda v: _apply(kind, k, v)
    else:
        op = lambda v: _apply(kind, 0, v, b)
    return _witness_problems(chk, G, prob.tol, op, in_range)


def _monomial_problems(prob: Problem, chk: dict, name: str, token: str,
                       near: bool) -> list:
    kind, *rest = token.split(":")
    if kind not in ("shift", "coshift"):
        return [f"{token}: the oracle decides monomial checks for shifts only"]
    k = int(rest[0])
    table = prob.monomial_table(name)
    cap = table.size - 1
    exps = np.flatnonzero(table)
    member = lambda e: 0 <= e <= cap and bool(table[e])
    bad = None
    if near:
        for e in exps:
            if e >= k and not member(e - k):
                bad = (e, e - k)
                break
    elif kind == "shift":
        for e in exps:
            if e + k <= cap and not member(e + k):
                bad = (e, e + k)
                break
    else:
        for e in exps:
            if e - k >= 0 and not member(e - k):
                bad = (e, e - k)
                break
    want = "FAIL" if bad else "PASS"
    out = []
    if chk["verdict"] != want:
        out.append(f"{token} on {name}: verdict {chk['verdict']}, exact answer {want}")
    if chk["verdict"] == "FAIL":
        w = chk.get("witness") or {}
        el, img = w.get("element"), w.get("image")
        if not (isinstance(el, int) and isinstance(img, int) and member(el)
                and not member(img) and abs(img - el) == k):
            out.append(f"{token} on {name}: witness {el} -> {img} is not a counterexample")
    return out


def _theta_range(tab: np.ndarray, m: int, cap: int) -> np.ndarray:
    """lift(Theta z^j delta_c) over the ladder shared by all columns."""
    rows, cols, _ = tab.shape
    lift_deg = []
    for c in range(cols):
        d = -1
        for r in range(rows):
            nz = np.flatnonzero(tab[r, c])
            if nz.size:
                d = max(d, m * int(nz[-1]) + r)
        lift_deg.append(d)
    live = [c for c in range(cols) if lift_deg[c] >= 0]
    ladder = (cap - max(lift_deg[c] for c in live)) // m
    gens = []
    for c in live:
        for j in range(ladder + 1):
            v = np.zeros(cap + 1, dtype=complex)
            for r in range(rows):
                for t, coef in enumerate(tab[r, c]):
                    if coef != 0:
                        v[m * (t + j) + r] = coef
            gens.append(v)
    return np.column_stack(gens)


def _theta_model(tab: np.ndarray, m: int, cap: int, rank_tol: float) -> np.ndarray:
    """Orthonormal basis of the lifted model space at component degree c:
    vectors with components of degree <= c orthogonal to every Theta z^j delta_col."""
    c = (cap + 1) // m - 1
    rows, cols, width = tab.shape
    cons = []
    for col in range(cols):
        if not np.any(tab[:, col]):
            continue
        for j in range(c + 1):
            g = np.zeros((m, c + 1), dtype=complex)
            for r in range(rows):
                for t in range(width):
                    if t + j <= c:
                        g[r, t + j] = tab[r, col, t]
            cons.append(np.conj(g.reshape(-1)))
    C = np.array(cons) if cons else np.zeros((0, m * (c + 1)), dtype=complex)
    if C.shape[0]:
        _, s, vh = np.linalg.svd(C)
        rank = int(np.sum(s > rank_tol * max(1.0, float(s[0]))))
        null = np.conj(vh[rank:]).T
    else:
        null = np.eye(m * (c + 1), dtype=complex)
    # lift: component l, coefficient i -> scalar index m*i + l
    Q = np.zeros((cap + 1, null.shape[1]), dtype=complex)
    for l in range(m):
        for i in range(c + 1):
            Q[m * i + l] = null[l * (c + 1) + i]
    return Q


_STAGE = re.compile(r"^(range|model)_invariant_\(?S\^(\d+)\)?(\*?)$")


def _theta_problems(prob: Problem, task: dict) -> list:
    tab = prob.matrices[prob.task["theta"]]
    m = int(prob.task["m"])
    out = []
    built = {}
    for st in task.get("stages", []):
        rep = st.get("report")
        if st["verdict"] != "FAIL" or rep is None:
            continue
        match = _STAGE.match(st["name"])
        if not match:
            out.append(f"{st['name']}: unknown stage")
            continue
        which, k = match.group(1), int(match.group(2))
        if which not in built:
            built[which] = (_theta_range(tab, m, prob.cap) if which == "range"
                            else _theta_model(tab, m, prob.cap, prob.rank_tol))
        kind = "shift" if which == "range" else "coshift"
        out += [f"{st['name']}: {p}" for p in _witness_problems(
            rep, built[which], prob.tol, lambda v, kind=kind, k=k: _apply(kind, k, v),
            orthonormal=which == "model")]
    return out


def _layers(lam, zeros, depth: int, cap: int) -> np.ndarray:
    """Rows are the conjugated layer vectors B^i e_j (layer-major), so that
    rows @ f gives the layer coordinates of f."""
    def basis(j):
        def fn(w):
            val = np.sqrt(1 - abs(zeros[j]) ** 2) / (1 - np.conj(zeros[j]) * w)
            for a in zeros[:j]:
                val = val * (w - a) / (1 - np.conj(a) * w)
            return val
        return fn
    rows = []
    for i in range(depth):
        for j in range(len(zeros)):
            fn = basis(j)
            coef = circle_coeffs(lambda w, fn=fn: _blaschke_at(lam, zeros, w) ** i * fn(w), cap)
            rows.append(np.conj(coef))
    return np.array(rows)


def _transfer_problems(prob: Problem, task: dict) -> list:
    G = prob.span(prob.task["subspace"])
    name = prob.task["blaschke"]
    lam, zeros = prob.blaschke[name]
    n = int(prob.task["n"])
    near = bool(prob.task.get("near", False))
    order = len(zeros) * n
    out = []
    direct = task["direct"]
    if direct["verdict"] == "FAIL":
        out += ["direct " + p for p in _span_check_problems(
            prob, direct, G, f"toeplitz:{name}:{n}", near)]
    moved = task["transferred"]
    if moved["verdict"] == "FAIL":
        L = _layers(lam, zeros, int(task["depth"]), prob.cap)
        T = np.zeros((prob.cap + 1, G.shape[1]), dtype=complex)
        T[: L.shape[0]] = L @ G
        out += ["transferred " + p for p in _span_check_problems(
            prob, moved, T, f"shift:{order}", near)]
    return out


# ---------------------------------------------------------------------------
# per-task verdict
# ---------------------------------------------------------------------------


def _stages_of(task: dict) -> list:
    if task.get("task") == "hitt":
        return (task.get("certify") or {}).get("stages", [])
    return task.get("stages", [])


def check_task(problem: dict, expect: dict, task: dict) -> list:
    """Problems found in one task report; empty when it is correct."""
    out = []
    verdict = task.get("verdict")
    if verdict == "ERROR":
        got = task.get("error", {}).get("type")
        if expect.get("error") != got:
            out.append(f"unexpected ERROR {got}: {task.get('error', {}).get('message')}")
        return out
    if "error" in expect:
        out.append(f"expected ERROR {expect['error']}, got {verdict}")
    if "verdict" in expect and verdict != expect["verdict"]:
        out.append(f"verdict {verdict}, expected {expect['verdict']}")
    got_stages = {s["name"]: s["verdict"] for s in _stages_of(task)}
    for name, want in expect.get("stages", {}).items():
        if got_stages.get(name) != want:
            out.append(f"stage {name}: {got_stages.get(name)}, expected {want}")
    if "checks" in expect:
        got = [c["verdict"] for c in task.get("checks", [])]
        if got != expect["checks"]:
            out.append(f"checks {got}, expected {expect['checks']}")

    prob = Problem(problem)
    kind = prob.task["task"]
    if kind in ("check-invariance", "check-near-invariance"):
        name = prob.task["subspace"]
        near = kind == "check-near-invariance"
        monomial = prob.subspaces[name]["kind"] == "monomial"
        G = None if monomial else prob.span(name)
        for token, chk in zip(prob.task["operators"], task.get("checks", [])):
            if monomial:
                out += _monomial_problems(prob, chk, name, token, near)
            elif chk["verdict"] == "FAIL":
                out += _span_check_problems(prob, chk, G, token, near)
    elif kind == "verify-theta":
        out += _theta_problems(prob, task)
    elif kind == "blaschke-transfer":
        out += _transfer_problems(prob, task)
    return out
