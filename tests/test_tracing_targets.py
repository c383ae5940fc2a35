"""The benchmark's tracer must find every function it wraps.

perfbench/tracing.py wraps package functions by module and attribute
name; a target that a refactor renames or deletes is skipped, and the
per-layer metrics it feeds then read as not measured.  This test loads
the tracer module from its file (the harness itself is not run) and
resolves every target.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize(
    "module, attr",
    [pytest.param(module, attr, id=f"{module}.{attr}") for module, attr, *_ in tracing.TARGETS],
)
def test_tracer_target_resolves(module, attr):
    assert tracing._resolve(module, attr) is not None
