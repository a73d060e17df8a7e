"""The benchmark's tracer names package functions by module and attribute
path; a rename or deletion in the package must fail here, not in a
traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TRACED


@pytest.mark.parametrize("module_name, path", [(m, p) for m, p, _, _ in _traced()])
def test_traced_attribute_resolves(module_name, path):
    owner = importlib.import_module(f"mhbound.{module_name}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
