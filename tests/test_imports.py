"""No library module imports a name it never uses, defines a helper that
nothing names, or makes its own immutable-value mechanism.

Three stdlib `ast` checks standing in for a linter:

- every name bound by an `import` in `src/heightbounds/*.py` must be read
  somewhere in that module (`__init__.py` is skipped, because its imports
  are the package's re-exports);
- every module-level function and class in `src/heightbounds`, and every
  method that is not a dunder, must be named somewhere in `src`, `tests` or
  `benchmark`: as a name, as an attribute, or as a word inside a string
  (as `benchmark/tracing.py` names its entry points);
- no module but `frozen.py` defines `__setattr__`, `__delattr__` or
  `__reduce__`: immutable values derive from `frozen.Frozen`.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "heightbounds"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
FROZEN_METHODS = {"__setattr__", "__delattr__", "__reduce__"}
SEARCHED = sorted(p for d in ("src", "tests", "benchmark") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["line %d: %s" % (line, name)
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def named(source: str) -> set[str]:
    """Every name, attribute and word inside a string in source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"\w+", node.value))
    return names


def unnamed_definitions(source: str, names: set[str]) -> list[str]:
    """The module-level functions and classes of source, and their methods
    that are not dunders, that no name in names refers to."""
    defs = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append(node)
        if isinstance(node, ast.ClassDef):
            defs += [m for m in node.body if isinstance(m, ast.FunctionDef)
                     and not (m.name.startswith("__") and m.name.endswith("__"))]
    return ["line %d: %s" % (d.lineno, d.name) for d in defs if d.name not in names]


@pytest.fixture(scope="module")
def names_in_tree():
    return set().union(*(named(p.read_text()) for p in SEARCHED))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_flags_an_unused_import():
    source = (SRC / "bounds.py").read_text()
    assert unused_imports(source + "\nfrom math import gcd\n") == [
        "line %d: gcd" % (source.count("\n") + 2)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unnamed_definitions(path, names_in_tree):
    assert unnamed_definitions(path.read_text(), names_in_tree) == []


def test_check_flags_an_unnamed_function(names_in_tree):
    # assembled here, so that no string in this file names the helper
    helper = "_".join(("", "orphan", "helper"))
    source = (SRC / "bounds.py").read_text()
    injected = source + "\n\ndef %s(x):\n    return x\n" % helper
    assert unnamed_definitions(injected, names_in_tree | named(injected)) == [
        "line %d: %s" % (source.count("\n") + 3, helper)]


def own_immutability(source: str) -> list[str]:
    """The definitions in source of a method that only `Frozen` may define."""
    return ["line %d: %s" % (node.lineno, node.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name in FROZEN_METHODS]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "frozen.py"],
                         ids=lambda p: p.name)
def test_no_own_immutability(path):
    assert own_immutability(path.read_text()) == []


def test_check_flags_a_hand_written_setattr():
    source = (SRC / "bounds.py").read_text()
    injected = source + (
        "\n\nclass Copy:\n"
        "    def __setattr__(self, *a):\n        raise AttributeError\n"
        "    def __delattr__(self, *a):\n        raise AttributeError\n"
        "    def __reduce__(self):\n        return (Copy, ())\n")
    n = source.count("\n")
    assert own_immutability(injected) == [
        "line %d: __setattr__" % (n + 4), "line %d: __delattr__" % (n + 6),
        "line %d: __reduce__" % (n + 8)]
