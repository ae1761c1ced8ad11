"""Batch front-end: parse a problem file, run the pipelines, emit reports.

The structured report goes to stdout (or --out) and is byte-identical for
identical inputs; the human summary, including wall time, goes to stderr.
Exit status: 0 when every task PASSes, 1 when any task FAILs or ERRORs,
2 on input errors and when --out cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .blaschke import build_wold_frame, transfer_subspace
from .errors import BudgetExceeded, HardyShiftError
from .hitt import build_j_map, certify_theta
from .invariance import (OperatorSpec, check_invariance, check_near_invariance,
                         verify_theorem_multi)
from .laurent import build_sigma
from .problem import (_INT_TOKEN, TASK_KEYS, ParseError, Problem, Task, ValidationError,
                      parse_problem, read_problem_file)
from .report import (check_payload, floored, floored12, matrix_payload, matrix_text,
                     poly_pairs, round12, stage_payload)

__all__ = ["main", "run_problem"]


# ---------------------------------------------------------------------------
# task execution
# ---------------------------------------------------------------------------


def _run_checks(problem: Problem, task: Task, near: bool) -> dict:
    check = check_near_invariance if near else check_invariance
    reps = [check(task.params["subspace"], op, problem.membership_tol)
            for op in task.params["operators"]]
    return {"subspace": task.params["subspace_name"], "checks": [check_payload(r) for r in reps],
            "verdict": "PASS" if all(r.passed for r in reps) else "FAIL"}


def _run_verify_theta(problem: Problem, task: Task) -> dict:
    rep = verify_theorem_multi(task.params["theta"], task.params["m"],
                               task.params["conditions"], problem.cap,
                               problem.membership_tol,
                               problem.analyticity_tol, problem.rank_tol)
    return {
        "theta": task.params["theta_name"],
        "m": task.params["m"],
        "stages": [stage_payload(s) for s in rep.stages],
        "products": [
            {"gamma": g, "k": k, "matrix": matrix_payload(p),
             "text": matrix_text(p)}
            for (g, k), p in rep.products
        ],
        "verdict": rep.verdict,
    }


def _run_hitt(problem: Problem, task: Task) -> dict:
    sub = task.params["subspace"]
    m = task.params["m"]
    certify = None
    if "theta" in task.params:
        rep = certify_theta(sub, m, task.params["gamma"], task.params["k"],
                            task.params["theta"], problem.membership_tol,
                            problem.analyticity_tol)
        jmap, verdict = rep.jmap, rep.verdict
        certify = {
            "theta": task.params["theta_name"],
            "gamma": task.params["gamma"],
            "k": task.params["k"],
            "stages": [stage_payload(s) for s in rep.stages],
            "product": matrix_payload(rep.product),
            "product_text": matrix_text(rep.product),
        }
    else:
        jmap = build_j_map(sub, m, problem.membership_tol)
        verdict = "PASS" if jmap.costable.passed else "FAIL"
    return {
        "subspace": task.params["subspace_name"],
        "m": m,
        "kernel": _kernel_payload(jmap.kernel),
        "jmap": _jmap_payload(jmap),
        "certify": certify,
        "verdict": verdict,
    }


def _kernel_payload(E) -> dict:
    return {
        "entries": [poly_pairs(floored(e)) for e in E.T],
        "degenerate": (~E.any(axis=0)).tolist(),
    }


def _jmap_payload(jmap) -> dict:
    return {
        "dim": jmap.space.dim,
        "isometry_gap": floored12(jmap.isometry_gap),
        "coshift_invariance": check_payload(jmap.costable),
        "reconstruction_errors": [floored12(e) for e in jmap.reconstruction_errors.tolist()],
        "parseval_gaps": [floored12(g) for g in jmap.parseval_gaps.tolist()],
    }


def _run_transfer(problem: Problem, task: Task) -> dict:
    sub = task.params["subspace"]
    B = task.params["blaschke"]
    n = task.params["n"]
    near = task.params.get("near", False)
    W = build_wold_frame(B, problem.cap, task.params.get("depth"))
    shifted = transfer_subspace(sub, W, problem.membership_tol)
    check = check_near_invariance if near else check_invariance
    op = OperatorSpec(n, near, B)
    direct = check(sub, op, problem.membership_tol)
    moved = check(shifted, OperatorSpec(op.order, near), problem.membership_tol)
    agreement = direct.verdict == moved.verdict
    return {
        "subspace": task.params["subspace_name"],
        "blaschke": task.params["blaschke_name"],
        "n": n,
        "depth": W.depth,
        "near": near,
        "direct": check_payload(direct),
        "transferred": check_payload(moved),
        "agreement": agreement,
        "verdict": "PASS" if agreement else "FAIL",
    }


def _run_build_sigma(problem: Problem, task: Task) -> dict:
    if task.params["m"] > problem.cap + 1:  # before the dense (m, m, 2) table
        raise BudgetExceeded(f"cap {problem.cap} cannot host arity {task.params['m']}")
    mat = build_sigma(task.params["m"], task.params["gamma"], task.params["k"])
    return {
        "m": task.params["m"],
        "gamma": task.params["gamma"],
        "k": task.params["k"],
        "matrix": matrix_payload(mat),
        "text": matrix_text(mat),
        "verdict": "PASS",
    }


_RUNNERS = {
    "check-invariance": lambda p, t: _run_checks(p, t, near=False),
    "check-near-invariance": lambda p, t: _run_checks(p, t, near=True),
    "verify-theta": _run_verify_theta,
    "hitt": _run_hitt,
    "blaschke-transfer": _run_transfer,
    "build-sigma": _run_build_sigma,
}


def _execute(problem: Problem, task: Task) -> dict:
    base = {"index": task.index, "task": task.kind}
    try:
        base.update(_RUNNERS[task.kind](problem, task))
    except HardyShiftError as exc:
        base["verdict"] = "ERROR"
        base["error"] = {"type": type(exc).__name__, "message": str(exc)}
    return base


def run_problem(problem: Problem) -> dict:
    """Execute all tasks in index order and assemble the report."""
    results = [_execute(problem, t) for t in problem.tasks]
    counts = {"pass": 0, "fail": 0, "error": 0}
    for r in results:
        counts[r["verdict"].lower() if r["verdict"] in ("PASS", "FAIL") else "error"] += 1
    verdict = "PASS" if counts["fail"] == 0 and counts["error"] == 0 else "FAIL"
    return {
        "tool": "hardyshift",
        "version": __version__,
        "workspace": {
            "cap": problem.cap,
            "tolerances": {k: round12(v) for k, v in sorted(problem.tolerances.items())},
        },
        "tasks": results,
        "summary": {**counts, "verdict": verdict},
    }


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _int_flag(text: str) -> int:
    """An integer flag: ASCII digits with an optional minus, the operator-token rule."""
    if not _INT_TOKEN.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=None,
                   help="membership tolerance override")
    p.add_argument("--cap", type=_int_flag, default=None, help="degree cap override")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")


_HELP = {
    "check-invariance": "membership check of operator images",
    "check-near-invariance": "definition-based near-invariance check",
    "verify-theta": "simultaneous-invariance pipeline",
    "hitt": "kernel extraction / decomposition / certification",
    "blaschke-transfer": "verdict transfer across the unitary",
    "build-sigma": "print a block shift matrix",
}

# The task keys whose flag is not a plain --KEY: another spelling, or a help line.
_FLAGS = {
    "operators": ("--op", {"metavar": "OP",
                           "help": "operator token, e.g. shift:2 or toeplitz:B:1"}),
    "conditions": ("--cond", {"metavar": "COND", "help": "gamma:k pair, repeatable"}),
    "depth": ("--depth", {"help": "layers of the frame, at most cap // deg B + 1 "
                                  "(default (cap + 1) // deg B)"}),
    "near": ("--near", {"help": "compare near-invariance instead of invariance"}),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hardyshift",
                                 description="invariance / near-invariance "
                                             "verification on capped Hardy-space models")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute every task in a problem file")
    run.add_argument("problem")
    _add_common(run)

    for kind, keys in TASK_KEYS.items():
        p = sub.add_parser(kind, help=_HELP[kind])
        if kind != "build-sigma":  # the one kind that reads no file
            p.add_argument("problem")
        for key, (value, required) in keys.items():
            flag, spec = _FLAGS.get(key, (f"--{key}", {}))
            if isinstance(value, int):
                spec = {"type": _int_flag, **spec}
            elif value in ("operators", "conditions", "bool"):
                spec = {"action": "store_true" if value == "bool" else "append", **spec}
            p.add_argument(flag, dest=key, required=required is True, **spec)
        _add_common(p)
    return ap


def _single_task_raw(args: argparse.Namespace) -> dict:
    """The subcommand's task: each flag given, under its task key, for parse_problem."""
    raw = {key: getattr(args, key) for key in TASK_KEYS[args.command]
           if getattr(args, key) is not None}
    for i, cond in enumerate(raw.get("conditions", [])):
        gamma, _, k = cond.partition(":")
        if not all(b.isascii() and b.isdigit() for b in (gamma, k)):
            raise ValidationError("--cond", f"expected gamma:k, got {cond!r}")
        raw["conditions"][i] = {"gamma": int(gamma), "k": int(k)}
    return {"task": args.command, **raw}


def _render_text(report: dict) -> str:
    lines = [f"hardyshift {report['version']}  cap={report['workspace']['cap']}"]
    for t in report["tasks"]:
        lines.append(f"task[{t['index']}] {t['task']}: {t['verdict']}")
        for chk in t.get("checks", []) or []:
            wit = ""
            if chk["witness"] is not None:
                wit = f"  witness residual {chk['witness']['residual']}"
            lines.append(f"  {chk['operator']} on {chk['subspace']}: {chk['verdict']}{wit}")
        for st in t.get("stages", []) or []:
            det = f"  {st['detail']}" if st.get("detail") else ""
            lines.append(f"  {st['name']}: {st['verdict']}{det}")
        for prod in t.get("products", []) or []:
            lines.append(f"  product gamma={prod['gamma']} k={prod['k']}:")
            for row in prod["text"]:
                lines.append(f"    {row}")
        if t.get("task") == "build-sigma" and "text" in t:
            for row in t["text"]:
                lines.append(f"  {row}")
        if "error" in t:
            lines.append(f"  {t['error']['type']}: {t['error']['message']}")
    s = report["summary"]
    lines.append(f"summary: pass={s['pass']} fail={s['fail']} error={s['error']} "
                 f"verdict={s['verdict']}")
    return "\n".join(lines) + "\n"


def _output_error(path: str, exc: OSError) -> int:
    print(f"output error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        data = {} if args.command == "build-sigma" else read_problem_file(args.problem)
        if args.command != "run" and isinstance(data, dict):  # the file's objects, one task
            data = {**data, "tasks": [_single_task_raw(args)]}
        problem = parse_problem(data, args.cap, args.tol)
    except (ParseError, ValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:  # before any task runs
        out = open(args.out, "w", encoding="utf-8") if args.out else None
    except OSError as exc:
        return _output_error(args.out, exc)

    report = run_problem(problem)
    payload = (json.dumps(report, indent=2, ensure_ascii=False) + "\n"
               if args.format == "json" else _render_text(report))
    if out is None:
        sys.stdout.write(payload)
    else:
        try:
            with out:
                out.write(payload)
        except OSError as exc:
            return _output_error(args.out, exc)
    elapsed = time.monotonic() - started
    s = report["summary"]
    print(f"{s['pass']} pass, {s['fail']} fail, {s['error']} error "
          f"in {elapsed:.3f}s -> {s['verdict']}", file=sys.stderr)
    return 0 if s["verdict"] == "PASS" else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
