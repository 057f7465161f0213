"""The benchmark's tracer finds every name it wraps in the package, and the
package reproduces every recorded benchmark episode."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(monkeypatch, name):
    """Import ``bench/<name>.py`` without writing its bytecode cache.  The
    module is registered for the test's duration, as its dataclasses need."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve(monkeypatch):
    # the tracer swaps each (owner, attr) by name, so a deleted or renamed
    # function breaks the benchmark even where no test calls it; every name
    # of one span must be the same object, which one wrapper then replaces
    tracing = load_bench(monkeypatch, "tracing")
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


REFS = json.loads((BENCH / "references.json").read_text())
EPISODE_SEEDS = sorted(REFS["full"]["protocol_episode"], key=int)


@pytest.mark.parametrize("seed", EPISODE_SEEDS)
def test_recorded_episodes_reproduce(monkeypatch, seed):
    # every recorded episode, counter for counter: the per-step oracle in
    # test_protocol builds its LAs with construct_la itself, so only these
    # records catch a change to how an LA is cut into paging rounds
    workloads = load_bench(monkeypatch, "workloads")
    refs = workloads.reference_for(REFS, "protocol_episode", "full", int(seed))
    failed = []
    for call in workloads.protocol_episode(int(seed), "full"):
        out = call.summarize(call.run())
        if not call.check(out, refs[call.name]):
            failed.append(call.name)
    assert failed == []
