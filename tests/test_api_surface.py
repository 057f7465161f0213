"""Every public name in ``src/lamopt`` has a caller outside the tests.

The guard reads the package modules (``__init__.py`` aside), ``bench/`` and
``scripts/`` as syntax trees.  A public top-level function or class, or a
public method of one, counts as used when its name appears outside its own
definition as a name, an attribute, an imported name or an exact string
constant (``bench/tracing.py`` names some of the functions it wraps by
string).  A decorated function or method is left out: its decorator
registers or wraps it, as ``validate``'s ``@_check`` does.  A name only the
tests reach belongs in the tests.

Because uses are matched by name, not by owner, a dead method could hide
behind a same-named method of another class; so no two package classes may
define a public method of the same name.  And no package module imports an
underscore name from another: what two modules share is public.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lamopt"


def _trees() -> dict[Path, ast.Module]:
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    for folder in ("bench", "scripts"):
        files += sorted((ROOT / folder).rglob("*.py"))
    return {p: ast.parse(p.read_text(), filename=str(p)) for p in files}


def _uses(node: ast.AST) -> Counter:
    """Names used anywhere under ``node``."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found[n.value] += 1
    return found


def _undecorated_public(node: ast.AST) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.decorator_list and not node.name.startswith("_"))


def _public_definitions(tree: ast.Module):
    """``(name, node)`` of each public top-level class and undecorated
    function, and of each undecorated public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield node.name, node
            for item in filter(_undecorated_public, node.body):
                yield item.name, item
        elif _undecorated_public(node):
            yield node.name, node


def unused_public_names() -> set[str]:
    trees = _trees()
    total = Counter()
    for tree in trees.values():
        total.update(_uses(tree))
    unused = set()
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for name, node in _public_definitions(tree):
            if total[name] - _uses(node)[name] <= 0:
                unused.add(name)
    return unused


def test_every_public_name_has_a_caller():
    assert unused_public_names() == set()


def shared_public_methods() -> set[tuple[str, str]]:
    """``(class, method)`` of each public method, decorated or not, whose
    name another top-level package class also defines."""
    owners: dict[str, set[str]] = {}
    for path, tree in _trees().items():
        if path.parent != PACKAGE:
            continue
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for item in cls.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("_")):
                        owners.setdefault(item.name, set()).add(cls.name)
    return {(cls, name) for name, classes in owners.items() if len(classes) > 1
            for cls in classes}


def test_no_public_method_name_is_shared_unless_allowed():
    assert shared_public_methods() == set()


def test_package_root_imports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


def private_cross_module_imports() -> set[tuple[str, str]]:
    """``(module file, imported name)`` of each ``from lamopt.x import _name``
    (or relative ``from .x import _name``) in the package."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level > 0 or (node.module or "").split(".")[0] == "lamopt")):
                found |= {(path.name, alias.name) for alias in node.names
                          if alias.name.startswith("_")}
    return found


def test_no_module_imports_a_private_name_from_another():
    assert private_cross_module_imports() == set()


# Warnings are filtered only at the edges that report to a person: the CLI
# and the validation suite.  A filter deeper in the package would hide a
# regime or search warning from every caller.
FILTERING_MODULES = {"cli.py", "validate.py"}


def warning_filter_calls() -> set[tuple[str, str]]:
    """``(module file, function)`` of each ``warnings.simplefilter``,
    ``filterwarnings`` or ``catch_warnings`` call in the package outside
    ``FILTERING_MODULES``."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in FILTERING_MODULES:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")
                if name in ("simplefilter", "filterwarnings", "catch_warnings"):
                    found.add((path.name, name))
    return found


def test_only_cli_and_validate_filter_warnings():
    assert warning_filter_calls() == set()
