"""The benchmark's tracer wraps hardyshift functions by name
(``bench/tracing.py``); a renamed or deleted function would end a traced
run in an AttributeError.  This checks every traced name resolves."""

import importlib
import importlib.util
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
