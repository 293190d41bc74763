"""The benchmark's tracer finds every function and method it wraps by name."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_names_resolve_in_partstats():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, names, _span in tracer.FUNCTIONS:
        mod = importlib.import_module("partstats." + module)
        for name in names:
            assert callable(getattr(mod, name, None)), "partstats.%s.%s" % (module, name)
    for module, cls, method, _span in tracer.METHODS:
        klass = getattr(importlib.import_module("partstats." + module), cls, None)
        assert callable(getattr(klass, method, None)), "partstats.%s.%s.%s" % (module, cls, method)
