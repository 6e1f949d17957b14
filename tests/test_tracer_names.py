"""The benchmark's tracer wraps capforge functions it looks up by name, so a
deleted or renamed one breaks its traced runs; this keeps the names alive."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"capforge.{module}.{name}"
        for module, name, *_ in tracer.TRACED
        if not callable(getattr(importlib.import_module(f"capforge.{module}"), name, None))
    ]
    assert tracer.TRACED
    assert missing == []
