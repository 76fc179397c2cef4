"""The benchmark's per-layer tracer (bench/tracing.py) wraps knotcolour
functions it fetches by name with getattr, so a renamed or deleted name
would make a traced benchmark run raise AttributeError."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(modname, fname)
             for modname, funcs in tracing.LAYERS.values() for fname in funcs]
    assert names
    missing = [(modname, fname) for modname, fname in names
               if not callable(getattr(importlib.import_module(modname),
                                       fname, None))]
    assert missing == []
