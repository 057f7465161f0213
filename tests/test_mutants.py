"""``scripts/mutants.py`` stays runnable: every mutant still finds its text.

The script reports a stale mutant only when someone runs it, which takes
minutes; this reads its tables without running any mutant.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_mutants(monkeypatch):
    """Import ``scripts/mutants.py`` without writing its bytecode cache."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("scripts_mutants",
                                                  ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_text_occurs_once(monkeypatch):
    mutants = load_mutants(monkeypatch)
    for name, (module, old, new) in mutants.MUTANTS.items():
        text = (ROOT / "src" / "lamopt" / module).read_text()
        assert text.count(old) == 1, f"{name}: found {text.count(old)} times in {module}"
        assert old != new, name
        assert module in mutants.TESTS, f"{name}: no tests mapped to {module}"


def test_every_mapped_test_exists(monkeypatch):
    mutants = load_mutants(monkeypatch)
    for files in mutants.TESTS.values():
        for f in files:
            assert (ROOT / "tests" / f).is_file(), f
    for test_id in mutants.BY_DESIGN_FAILURES:
        path, _, func = test_id.partition("::")
        assert f"def {func}(" in (ROOT / path).read_text(), test_id
