"""Count the support scans of one benchmark pass.

    python tests/golden/scan_count.py [--workload W] [--seed S]

Generates the cases of workload W (default theta_pipeline) for seed S
(default 7) with `bench/workloads.py`, writes them to a temporary
directory, and runs one in-process pass over them as the benchmark does:
`load_problem` and `run_problem` for every file.  It prints four counts,
each with the calling functions that make it:

- window scans: the calls of `subspaces._windows`, each one pass over a
  whole array that finds every column's first and last nonzero row;
- Laurent `np.any` calls: the calls of `np.any` made in `laurent`, the
  liveness tests of power slices and entries of coefficient tables;
- coefficient walks: the calls of `problem._coeff_list_at`, each a walk
  over one coefficient list of a problem file;
- CGS2 rows projected: the rows given to `subspaces._cgs2` whose
  projection line, `w -= ...`, runs at least once, out of all its rows;
  the rest are skipped.

The counts depend only on the workload, the seed and the code, so a run
repeats them exactly.  The program comes from `src/` of the checkout this
file sits in; `bench/workloads.py` is only read.
"""

from __future__ import annotations

import argparse
import collections
import inspect
import pathlib
import sys
import tempfile
import types

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

from hardyshift import cli, laurent, problem, subspaces  # noqa: E402
from workloads import WORKLOADS, generate, write_cases  # noqa: E402


def counted(fn, tally: collections.Counter):
    """fn, counting each call under the name of the function that makes it."""
    def wrapper(*args, **kwargs):
        tally[sys._getframe(1).f_code.co_name] += 1
        return fn(*args, **kwargs)
    return wrapper


def cgs2_tracer(rows: collections.Counter, projected: collections.Counter):
    """A trace function that counts, under the name of the function that calls
    ``subspaces._cgs2``, the rows of each call and those whose projection line runs."""
    code = subspaces._cgs2.__code__
    source, first = inspect.getsourcelines(code)
    line = next(first + i for i, text in enumerate(source) if text.strip().startswith("w -="))

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        caller, seen = frame.f_back.f_code.co_name, set()
        rows[caller] += len(frame.f_locals["rows"])

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno == line:
                seen.add(frame.f_locals["idx"])
            elif event == "return":
                projected[caller] += len(seen)
            return local
        return local
    return tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, default="theta_pipeline")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    scans, anys, walks, rows, projected = (collections.Counter() for _ in range(5))
    problem._coeff_list_at = counted(problem._coeff_list_at, walks)
    windows = subspaces._windows
    for module in list(sys.modules.values()):  # every module that imported _windows by name
        if module.__name__.startswith("hardyshift") and getattr(module, "_windows", 0) is windows:
            module._windows = counted(windows, scans)
    laurent.np = types.SimpleNamespace(**{name: getattr(np, name) for name in dir(np)
                                          if not name.startswith("__")})
    laurent.np.any = counted(np.any, anys)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_cases(generate(args.workload, args.seed, str(ROOT)), tmp)
        sys.settrace(cgs2_tracer(rows, projected))
        try:
            for path in paths:
                cli.run_problem(problem.load_problem(path))
        finally:
            sys.settrace(None)
    print(f"{args.workload} seed {args.seed}: {len(paths)} problem files")
    for title, tally in (("window scans", scans), ("Laurent np.any calls", anys),
                         ("coefficient walks (_coeff_list_at calls)", walks)):
        print(f"{title}: {sum(tally.values())}")
        for caller, count in tally.most_common():
            print(f"  {caller}: {count}")
    print(f"CGS2 rows projected: {sum(projected.values())} of {sum(rows.values())}")
    for caller, count in rows.most_common():
        print(f"  {caller}: {projected[caller]} of {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
