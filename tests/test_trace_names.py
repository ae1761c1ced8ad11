"""The benchmark's tracer wraps hardyshift functions by name
(``bench/tracing.py``); a renamed or deleted function would end a traced
run in an AttributeError.  This checks every traced name resolves, that
the tracer's hooks find the result attributes they count, and that the
element modules ``series`` and ``veclift`` hold nothing public beyond
those names and the array kernels."""

import importlib
import importlib.util
import inspect
import json
import pathlib

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
NAMES = ([(mod, attr) for mod, attr, _ in tracing.TRACED]
         + [("series", op) for op in tracing.SERIES_OPS]
         + [("cli", name) for name in tracing.PAYLOAD_BUILDERS])


@pytest.mark.parametrize("module, attr", NAMES)
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"hardyshift.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_tracer_hooks_count_on_a_traced_run():
    # the hooks read result attributes (nbytes, generators, dropped, tested,
    # iterations): a reshaped result ends a traced run in an AttributeError
    # or leaves its counter at 0
    import hardyshift
    from hardyshift.cli import run_problem
    from hardyshift.problem import load_problem

    problem = load_problem(str(ROOT / "problems" / "demo.json"))
    plain = json.dumps(run_problem(problem), indent=2, ensure_ascii=False)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = json.dumps(run_problem(problem), indent=2, ensure_ascii=False)
        M = hardyshift.orthonormalize(np.eye(9)[:, [0, 1, 4, 5]])  # span{1, z, z^4, z^5}
        E = hardyshift.extract_kernels(M, 2)
        hardyshift.hitt_decompose(hardyshift.TaylorPoly([0, 0, 0, 0, 1], 8), M, E)
    finally:
        tracer.uninstall()
    assert traced == plain
    metrics = tracer.metrics(1.0, 1.0)
    for name in ("hitt.hitt_decompose.peels", "subspaces.orthonormalize.vectors_in",
                 "invariance.check_invariance.frames_tested",
                 "subspaces.SpanSubspace.frame_matrix.bytes_built"):
        assert metrics[name] > 0, name


# the element classes the traced names take, and the array kernels
ELEMENT_CLASSES = {"series": {"TaylorPoly"}, "veclift": {"VectorPoly"}}
ARRAY_KERNELS = {"series": {"toeplitz_view", "toeplitz_product", "shift_product"},
                 "veclift": {"lift", "fit_cap"}}
OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__")


@pytest.mark.parametrize("module", sorted(ELEMENT_CLASSES))
def test_element_modules_hold_only_traced_names_and_array_kernels(module):
    mod = importlib.import_module(f"hardyshift.{module}")
    traced = {attr for name, attr in NAMES if name == module}
    allowed = traced | ELEMENT_CLASSES[module] | ARRAY_KERNELS[module]
    defined = {name for name, obj in vars(mod).items()
               if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == mod.__name__}
    assert set(mod.__all__) <= allowed, set(mod.__all__) - allowed
    assert defined <= set(mod.__all__), defined - set(mod.__all__)
    for cls in ELEMENT_CLASSES[module]:
        assert not set(OPERATORS) & set(vars(getattr(mod, cls))), cls
