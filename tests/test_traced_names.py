"""The benchmark's span tracer names tumax functions by (module, name);
each must still resolve, or ``perfbench/run.py --trace 1`` fails."""

import importlib
import importlib.util
from pathlib import Path


def _spans_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    spans = _spans_module()
    assert spans.TRACED
    for mod, fname in spans.TRACED:
        module = importlib.import_module("tumax." + mod)
        assert callable(getattr(module, fname, None)), f"tumax.{mod}.{fname}"
    for mod in spans.MODULE_SELF:
        importlib.import_module("tumax." + mod)
