"""List the `src/` lines that `hardyshift run` never executes.

    python tests/golden/unexecuted_lines.py [--seeds 3 7 11] [--lines]

Runs every report of `write_reports.py` (the same problems, caps and
seeds) under the standard library's `trace` module, then prints, for
each module of the `hardyshift` package under `src/` of this checkout,
how many of its executable statements never ran, and the total.  With
`--lines`, the first line of each follows the module.  The reports
themselves go to a temporary directory and are discarded.

A statement counts once, by its first line, however many lines it is
wrapped over: a line belongs to the innermost statement (or `except`
clause) that spans it, and a decorated definition starts at its first
decorator.  A statement is executable when the compiled module maps an
instruction to one of its lines, and ran when one of those lines ran.
Only the package's own files are traced, and the package is imported
under the tracer, so the statements its import runs count as executed.
"""

from __future__ import annotations

import argparse
import ast
import functools
import pathlib
import sys
import tempfile
import trace

HERE = pathlib.Path(__file__).resolve().parent
PACKAGE = HERE.parents[1] / "src" / "hardyshift"


def executable_lines(path: pathlib.Path) -> set:
    """Every line some instruction of the module's code objects maps to."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def statement_starts(path: pathlib.Path) -> dict:
    """Each line that some statement spans, mapped to the first line of the
    innermost one."""
    starts, stack = {}, [ast.parse(path.read_text(encoding="utf-8"))]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.stmt, ast.excepthandler)):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            starts.update(dict.fromkeys(range(first, node.end_lineno + 1), first))
        stack.extend(ast.iter_child_nodes(node))
    return starts


class PackageOnly:
    """Stands in for ``trace.Ignore``: trace the package's files only.
    (``trace.Ignore`` caches its decision by module name, so a stdlib
    ``__init__`` seen first would hide the package's ``__init__``.)"""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def names(filename: str, modulename: str) -> int:
        return int(pathlib.Path(filename).resolve().parent != PACKAGE)


def run_reports(seeds: list) -> None:
    sys.path.insert(0, str(HERE))
    import write_reports  # imports hardyshift, so its import runs traced

    with tempfile.TemporaryDirectory() as out:
        write_reports.main([out, "--seeds", *map(str, seeds)])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[3, 7, 11])
    ap.add_argument("--lines", action="store_true", help="print the line numbers too")
    args = ap.parse_args(argv)
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = PackageOnly()
    tracer.runfunc(run_reports, args.seeds)
    ran: dict = {}
    for name, line in tracer.results().counts:
        ran.setdefault(pathlib.Path(name).resolve(), set()).add(line)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        first = statement_starts(path)
        missed = sorted({first.get(line, line) for line in executable_lines(path)}
                        - {first.get(line, line) for line in ran.get(path, set())})
        total += len(missed)
        print(f"{path.name:16s} {len(missed):4d}")
        if args.lines and missed:
            print("    " + " ".join(map(str, missed)))
    print(f"{'total':16s} {total:4d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
