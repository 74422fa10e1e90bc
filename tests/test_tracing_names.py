"""The names that perfbench/tracing.py wraps must stay bound in dampedjc.

The tracer replaces a module-level name in every module listed for it and
refuses to install when one of those bindings is missing or differs, so a
binding dropped from the package would otherwise surface only in a traced
benchmark run.  LAYERS is read from the file; nothing is installed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_are_bound_to_one_object(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)   # for its dataclass
    spec.loader.exec_module(tracing)
    for name, attr, modules, _ in tracing.LAYERS:
        bound = [getattr(importlib.import_module(m if m == "dampedjc" else f"dampedjc.{m}"),
                         attr, None) for m in modules]
        assert bound[0] is not None, f"{name}: {modules[0]}.{attr} is not bound"
        assert all(b is bound[0] for b in bound), f"{name}: {attr} differs across {modules}"
