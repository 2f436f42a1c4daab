"""Every layer that the benchmark's tracer wraps exists in the package.

``perfbench/tracing.py`` names its targets as (module, attribute path)
strings and replaces them with timing wrappers; a target renamed or deleted
here makes ``perfbench/run.py --trace 1`` fail.  The tracer module is read
from its file, without importing the rest of ``perfbench``.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _, _ in module.TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_trace_target_resolves(module, attr):
    owner = importlib.import_module(f"relmetric.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
