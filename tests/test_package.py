"""The public package namespace, and the names the traced benchmark patches."""

import importlib
import importlib.util
from pathlib import Path

import orbitq

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_exported_name_resolves():
    missing = [name for name in orbitq.__all__ if not hasattr(orbitq, name)]
    assert not missing
    assert len(set(orbitq.__all__)) == len(orbitq.__all__)


def test_every_trace_point_resolves():
    # bench/run.py --trace 1 and tools/bench_pairs.py patch these attributes
    # by name; a rename would crash them
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr, _, _ in tracing.TRACE_POINTS
               if not hasattr(importlib.import_module(module), attr)]
    assert tracing.TRACE_POINTS and not missing
