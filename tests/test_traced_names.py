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


def test_traced_kernels_live_in_an_unwrapped_module():
    # the tracer leaves the defining module of the kernels unwrapped, so a
    # kernel's calls to another kernel stay that kernel's own time
    spans = _spans_module()
    kernels = importlib.import_module("tumax.kernels")
    names = [fname for mod, fname in spans.TRACED if mod == "kernels"]
    assert names
    for fname in names:
        assert (getattr(kernels, fname).__module__
                in spans._BACKEND_MODULES), f"tumax.kernels.{fname}"
