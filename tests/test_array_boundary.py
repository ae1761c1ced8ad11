"""The `run` path works on coefficient arrays from parse to report, and
the package's modules import each other without cycles."""

import ast
import json
import pathlib

import pytest

from hardyshift import blaschke, series
from hardyshift.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hardyshift"

# a span task whose Toeplitz symbol has a zero off the origin, so that
# power_expansion runs, next to a scalar witness of each checker
TOEPLITZ = {
    "workspace": {"cap": 48},
    "objects": {
        "polys": {"p": [[1, 0], [0.5, 0], [0, 0.25]], "q": [[0, 0], [1, 0], [1, 0]]},
        "blaschke": {"B": {"lambda": [1, 0], "zeros": [[0.5, 0], [0, 0.3]]}},
    },
    "subspaces": {"S": {"kind": "span", "generators": ["p", "q"]}},
    "tasks": [
        {"task": "check-invariance", "subspace": "S",
         "operators": ["toeplitz:B:1", "toeplitz_adjoint:B:2"]},
        {"task": "check-near-invariance", "subspace": "S", "operators": ["toeplitz:B:1"]},
    ],
}


def test_run_builds_no_element_objects(tmp_path, monkeypatch, capsys):
    built, expanded = [], []
    post_init, power = series.TaylorPoly.__post_init__, blaschke.power_expansion
    monkeypatch.setattr(series.TaylorPoly, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    monkeypatch.setattr(blaschke, "power_expansion",
                        lambda *args: expanded.append(args) or power(*args))
    path = tmp_path / "toeplitz.json"
    path.write_text(json.dumps(TOEPLITZ))
    reports = []
    for problem in [*sorted((ROOT / "problems").glob("*.json")), path]:
        main(["run", str(problem), "--cap", "48"])
        reports.append(json.loads(capsys.readouterr().out))
    assert expanded and not built
    # the runs print scalar witnesses, hitt kernel entries and a transfer
    witnesses = [c["witness"] for r in reports for t in r["tasks"]
                 for c in t.get("checks", []) if c["witness"]]
    assert any(isinstance(w["element"], dict) and w["element"]["kind"] == "scalar"
               for w in witnesses)
    tasks = {t["task"]: t for r in reports for t in r["tasks"]}
    assert tasks["hitt"]["kernel"]["entries"] and "transferred" in tasks["blaschke-transfer"]


def _imports(path):
    """(module-level imports, function-local import lines) of one module,
    the imports as names of the package's modules."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = {id(node) for node in tree.body}
    local, edges = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if id(node) not in top:
            local.append(f"{path.name}:{node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                edges.add(node.module)
            else:  # from . import name: a submodule or a name of the package
                edges |= {a.name if (PACKAGE / f"{a.name}.py").exists() else "__init__"
                          for a in node.names}
    return edges, local


def test_no_function_local_imports_and_an_acyclic_import_graph():
    graph, local = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        graph[path.stem], found = _imports(path)
        local += found
    assert local == []
    state = {}  # 1 while on the search path, 2 when done

    def visit(node, trail):
        if state.get(node) == 1:
            pytest.fail("import cycle: " + " -> ".join(trail[trail.index(node):] + [node]))
        if state.get(node) is None:
            state[node] = 1
            for nxt in sorted(graph[node]):
                visit(nxt, trail + [node])
            state[node] = 2

    for node in sorted(graph):
        visit(node, [])
    assert "invariance" not in graph["series"] | graph["blaschke"]
