"""The benchmark's tracer finds every name it wraps in the package."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    """Import ``bench/tracing.py`` without writing its bytecode cache."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve(monkeypatch):
    # the tracer swaps each (owner, attr) by name, so a deleted or renamed
    # function breaks the benchmark even where no test calls it; every name
    # of one span must be the same object, which one wrapper then replaces
    tracing = load_tracing(monkeypatch)
    missing, split = [], []
    for name, sites in tracing.TARGETS:
        found = [getattr(owner, attr, None) for owner, attr in sites]
        missing += [f"{name}: {owner.__name__}.{attr}"
                    for (owner, attr), fn in zip(sites, found) if fn is None]
        if any(fn is not found[0] for fn in found):
            split.append(name)
    assert missing == []
    assert split == []
    assert set(tracing.COUNTERS) <= {name for name, _ in tracing.TARGETS}
