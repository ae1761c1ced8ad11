"""The benchmark's tracer wraps hardyshift functions by name
(``bench/tracing.py``); a renamed or deleted function would end a traced
run in an AttributeError.  This checks every traced name resolves, and
that the element modules ``series`` and ``veclift`` hold nothing public
beyond those names and the array kernels."""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
