"""hardyshift benchmark: time to verdict on seeded workloads.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process runs one workload as a
closed loop with a single client: each problem file (one task) is sent
only after the previous one has finished.  A pass is `load_problem`,
`run_problem` and JSON serialisation of the report for every file of the
workload, as `hardyshift run` does it; whole passes repeat until the
time budget is spent.  Every report is checked by the independent gate
in ``oracle.py``.

End-to-end timings are wall seconds scaled to a reference machine speed
by the interleaved calibration kernel of ``calibration.py``; the raw
figures are printed alongside.  Percentiles are Harrell-Davis estimates
over the per-task medians across passes, so that they do not depend on
how many passes fit in the run.

With --trace 0 the last line of stdout holds the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of one traced pass, taken
from outside the program by ``tracing.py``; per-layer times are raw.
"""

from __future__ import annotations

import os

# Single-threaded BLAS/OpenMP, set before numpy is first imported; the
# set-up probes inherit it.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 9
SWEEP_CAPS = (96, 192, 384)

END_TO_END_UNITS = {
    "tasks_per_s": "1/s",
    "task_s.p50": "s",
    "task_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program():
    """Import hardyshift from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "hardyshift", "__init__.py")):
        _fail(f"no hardyshift sources under {SRC}")
    sys.path.insert(0, SRC)
    import hardyshift
    from hardyshift import cli, problem

    if not os.path.realpath(hardyshift.__file__).startswith(os.path.realpath(SRC) + os.sep):
        _fail(f"hardyshift imported from {hardyshift.__file__}, not from {SRC}")
    return cli, problem


def _one_pass(cli, problem, paths: list, tracer=None) -> tuple:
    """(per-task (start, end) clock readings, report payloads) of one pass."""
    spans, payloads = [], []
    for i, path in enumerate(paths):
        if tracer is not None:
            tracer.task = i
        start = time.perf_counter()
        prob = problem.load_problem(path)
        report = cli.run_problem(prob)
        if tracer is None:
            payload = json.dumps(report, indent=2, ensure_ascii=False) + "\n"
        else:
            payload = tracer.span("report.serialize", json.dumps, report,
                                  indent=2, ensure_ascii=False) + "\n"
        spans.append((start, time.perf_counter()))
        payloads.append(payload)
    return spans, payloads


def _seconds(spans: list) -> list:
    return [end - start for start, end in spans]


def hd_quantile(samples: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of the order statistics.  Less sensitive than a single
    order statistic to which sample lands at rank p*n, so it repeats
    better between runs on a noisy machine."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cells = 64
    t = (np.arange(n * cells) + 0.5) / (n * cells)
    logpdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    w = np.exp(logpdf - logpdf.max()).reshape(n, cells).sum(axis=1)
    return float(np.dot(w / w.sum(), x))


def _task_medians(times: list, tasks: int) -> list:
    """Median time of each task over the passes; ``times`` is pass-major."""
    return [statistics.median(times[i::tasks]) for i in range(tasks)]


def _setup_seconds(paths: list) -> tuple:
    """Medians over fresh interpreters of the time to import hardyshift and
    load every file: (at reference speed, raw)."""
    probe = os.path.join(HERE, "setup_probe.py")
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, probe, SRC, *paths], check=True,
                             capture_output=True, text=True, timeout=120)
        seconds, cal = map(float, out.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * calibration.REFERENCE_S / cal)
    return statistics.median(scaled), statistics.median(raw)


def _sha(payload: str) -> bytes:
    return hashlib.sha256(payload.encode()).digest()


def _gate(cases: list, first: list, digests: list) -> tuple:
    """(failed executions, problems by case).

    ``first`` holds the first pass's reports, which go through the oracle;
    ``digests`` holds the report hashes of every pass, which must agree.
    A failing case counts once per pass.
    """
    failed = 0
    problems = {}
    for i, case in enumerate(cases):
        found = oracle.check_task(case.problem, case.expect,
                                  json.loads(first[i])["tasks"][0])
        drift = sum(1 for d in digests[1:] if d[i] != digests[0][i])
        failed += len(digests) if found else drift
        if drift:
            found.append(f"report differs from the first pass in {drift} pass(es)")
        if found:
            problems[case.name] = found
    return failed, problems


def _digest(cases: list, payloads: list) -> str:
    h = hashlib.sha256()
    for case, payload in zip(cases, payloads):
        h.update(case.name.encode() + b"\0" + payload.encode() + b"\0")
    return h.hexdigest()


def _machine_note() -> str:
    threads = ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"machine: cpus={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={np.__version__} {threads}")


def _cap_exponent() -> float:
    """Log-log slope of verify-theta time for diag(1, z, z), conditions
    (1,1) and (2,1), over SWEEP_CAPS, measured untraced."""
    from hardyshift.laurent import diag_polys
    from hardyshift.invariance import verify_theorem_multi

    theta = diag_polys([[1.0], [0.0, 1.0], [0.0, 1.0]])
    xs, ys = [], []
    for cap in SWEEP_CAPS:
        start = time.perf_counter()
        verify_theorem_multi(theta, 3, [(1, 1), (2, 1)], cap)
        xs.append(math.log(cap))
        ys.append(math.log(time.perf_counter() - start))
    return statistics.linear_regression(xs, ys).slope


def _print_problems(problems: dict) -> None:
    for name, found in problems.items():
        for p in found:
            print(f"mismatch {name}: {p}")


def run_untraced(args, cli, problem, cases, paths) -> dict:
    setup_s, setup_raw = _setup_seconds(paths)
    spans, digests, first = [], [], None
    start = time.perf_counter()
    with calibration.Speedometer() as meter:
        while True:
            meter.sample()
            s, payloads = _one_pass(cli, problem, paths)
            spans += s
            first = first or payloads
            digests.append([_sha(p) for p in payloads])
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / len(digests) >= args.seconds:
                break
        meter.sample()
    times, raw = zip(*(meter.at_reference_speed(*sp) for sp in spans))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, problems = _gate(cases, first, digests)
    attempted = len(times)
    per_task = _task_medians(times, len(paths))
    p90 = hd_quantile(per_task, 0.9)
    metrics = {
        "tasks_per_s": attempted / sum(times),
        "task_s.p50": hd_quantile(per_task, 0.5),
        "task_s.p90": p90,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    print(_machine_note())
    print(f"report digest {args.workload} seed {args.seed}: {_digest(cases, first)}")
    _print_problems(problems)
    print(f"{len(digests)} passes of {len(paths)} tasks in {elapsed:.3f} s; task_s samples "
          f"{attempted}, {sum(1 for t in times if t > p90)} above p90; per-task medians "
          f"{len(per_task)}, {sum(1 for t in per_task if t > p90)} above p90; "
          f"mismatch_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    raw_per_task = _task_medians(raw, len(paths))
    print(f"raw wall figures: tasks_per_s {attempted / sum(raw):.6g} 1/s, task_s.p50 "
          f"{hd_quantile(raw_per_task, 0.5):.6g} s, task_s.p90 "
          f"{hd_quantile(raw_per_task, 0.9):.6g} s, "
          f"setup_s {setup_raw:.6g} s; machine slowdown (median kernel time over "
          f"reference) {statistics.median(meter.seconds) / calibration.REFERENCE_S:.4g}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in metrics.items()}}


def run_traced(args, cli, problem, cases, paths) -> dict:
    plain_spans, plain = _one_pass(cli, problem, paths)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_spans, traced = _one_pass(cli, problem, paths, tracer)
    finally:
        tracer.uninstall()
    failed, problems = _gate(cases, plain, [[_sha(p) for p in run] for run in (plain, traced)])
    traced_wall, plain_wall = sum(_seconds(traced_spans)), sum(_seconds(plain_spans))
    metrics = tracer.metrics(traced_wall, plain_wall)
    metrics["invariance.verify_theorem_multi.cap_exponent"] = _cap_exponent()
    out_dir = os.path.join(HERE, ".out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
    units = tracing.per_layer_units()
    print(_machine_note())
    print(f"report digest {args.workload} seed {args.seed}: {_digest(cases, plain)}"
          f" (traced pass {'identical' if plain == traced else 'DIFFERENT'})")
    _print_problems(problems)
    print(f"traced wall {traced_wall:.3f} s, untraced {plain_wall:.3f} s, "
          f"{len(tracer.spans)} spans")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    return {"correct": failed == 0, "attempted": 2 * len(paths), "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}


def report_known_defects(cli, problem, workload: str, seed: int, directory: str) -> None:
    """Run once, untimed and outside the result line, the cases that trip a
    known program defect (see ``workloads.HITT_DEFECT_SLOTS``), and print
    whether each still fails the gate."""
    cases = workloads.known_defect_cases(workload, seed)
    if not cases:
        return
    paths = workloads.write_cases(cases, directory)
    _, payloads = _one_pass(cli, problem, paths)
    for case, payload in zip(cases, payloads):
        found = oracle.check_task(case.problem, case.expect, json.loads(payload)["tasks"][0])
        state = "still fails: " + "; ".join(found) if found else "no longer fails"
        print(f"known defect {case.name} (untimed, not in the result line): {state}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cli, problem = _import_program()

    cases = workloads.generate(args.workload, args.seed, ROOT)
    work = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        paths = workloads.write_cases(cases, work)
        result = (run_traced if args.trace else run_untraced)(args, cli, problem, cases, paths)
        defects = os.path.join(work, "known-defects")
        os.makedirs(defects)
        report_known_defects(cli, problem, args.workload, args.seed, defects)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
