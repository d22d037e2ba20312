"""The benchmark's trace points name functions the package still has.

perfbench/tracing.py wraps functions by module attribute; a renamed or
deleted one would otherwise show up only as a failed traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves_to_a_callable():
    points = _tracing_module().TRACE_POINTS
    assert points
    for module_name, attr, *_ in points:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"
