"""The benchmark's span list names only functions that exist.

``benchmark/spans.py`` wraps each (module, attribute) of its ``TRACED``
list when a traced benchmark run starts, so a function deleted or
renamed here would break traced runs while the rest of this suite still
passes.  The file is loaded read-only: no bytecode is written beside it.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look the module up
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [f"{module.__name__}.{attr}" for module, attr in spans.TRACED
               if not callable(getattr(module, attr, None))]
    assert not missing, f"benchmark/spans.py traces missing functions: {missing}"
