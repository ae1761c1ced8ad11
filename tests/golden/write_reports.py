"""Write every report of the report-identity gate.

    python tests/golden/write_reports.py OUT [--seeds 3 7 11]

Writes one file per report under OUT: `hardyshift run` on `problems/*.json`
at caps 48, 96, 192 and 384, in the JSON and in the text format; at the
same caps, the single-task subcommand of each task of those files, its
keys given as flags; and `hardyshift run` on every problem that
`bench/workloads.py` generates (`generate` and `known_defect_cases`) for
each seed.  A file holds the exit code on its first line, then the
report; an input error (exit 2) holds its message instead.  The reports come from the `hardyshift`
package under `src/` of the checkout this file sits in, so to compare
two checkouts, run a copy of this file in each and `diff -r` the two
output directories.  `bench/workloads.py` is only read.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from hardyshift.cli import main as hardyshift_main  # noqa: E402
from workloads import WORKLOADS, generate, known_defect_cases  # noqa: E402

CAPS = (48, 96, 192, 384)


def write_report(argv: list, target: pathlib.Path) -> int:
    """Run `hardyshift *argv` in process and write its report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hardyshift_main(argv)
    # stderr holds the wall time, except for an input error
    body = err.getvalue() if code == 2 else out.getvalue()
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(f"exit {code}\n{body}", encoding="utf-8")
    return code


def single_task_argv(problem: str, task: dict) -> list:
    """The single-task subcommand that runs a problem file's task: each key as its flag."""
    argv = [task["task"]] + ([] if task["task"] == "build-sigma" else [problem])
    for key, value in task.items():
        flag = {"operators": "--op", "conditions": "--cond"}.get(key, f"--{key}")
        if key == "near":
            argv += [flag] if value else []
        elif key in ("operators", "conditions"):
            for v in value:
                argv += [flag, f"{v['gamma']}:{v['k']}" if key == "conditions" else v]
        elif key != "task":
            argv += [flag, str(value)]
    return argv


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", help="output directory")
    ap.add_argument("--seeds", type=int, nargs="+", default=[3, 7, 11])
    args = ap.parse_args(argv)
    out = pathlib.Path(args.out)
    count = 0
    for problem in sorted((ROOT / "problems").glob("*.json")):
        tasks = json.loads(problem.read_text(encoding="utf-8"))["tasks"]
        for cap in CAPS:
            write_report(["run", str(problem), "--cap", str(cap)],
                         out / "problems" / f"{problem.stem}_cap{cap}.txt")
            write_report(["run", str(problem), "--cap", str(cap), "--format", "text"],
                         out / "text" / f"{problem.stem}_cap{cap}.txt")
            for i, task in enumerate(tasks):
                write_report([*single_task_argv(str(problem), task), "--cap", str(cap)],
                             out / "subcommands" / f"{problem.stem}_{i}_cap{cap}.txt")
            count += 2 + len(tasks)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for workload in WORKLOADS:
                cases = (generate(workload, seed, str(ROOT))
                         + known_defect_cases(workload, seed))
                for i, case in enumerate(cases):
                    name = f"{i:03d}_{case.name}"
                    path = os.path.join(tmp, f"{name}.json")
                    with open(path, "w", encoding="utf-8") as fh:
                        json.dump(case.problem, fh)
                    write_report(["run", path], out / workload / str(seed) / f"{name}.txt")
                    count += 1
    print(f"{count} reports in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
