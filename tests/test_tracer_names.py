"""The benchmark's tracer finds the functions it times by name.

perfbench/tracer.py looks up every name in its TIMED table with getattr
on the hppk module; a renamed or deleted function would break traced
benchmark runs, so the names are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_timed_name_resolves():
    tracer = _load_tracer()
    missing = [
        f"{layer}.{name}"
        for layer, names in tracer.TIMED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"hppk.{layer}"), name, None))
    ]
    assert missing == []
    # every traced layer imports, and the counting stream wraps these methods
    for layer in tracer.LAYERS:
        importlib.import_module(f"hppk.{layer}")
    stream = importlib.import_module("hppk.rng").DeterministicStream
    for method in ("take_bytes", "bits", "below"):
        assert callable(getattr(stream, method, None))
