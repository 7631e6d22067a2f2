"""A static scan of the package source for dead definitions.

Every ``def`` and ``class`` in ``src/idealtangent`` must be referenced by
name somewhere outside its own body, in ``src/``, ``tests/`` or
``bench/``: as a name, an attribute, or a string constant (the benchmark's
tracer wraps methods by name).  An import alone is not a use.  Dunder
methods are called by Python itself and are exempt.

Every name a package module imports must be used in that module: named,
or quoted in a string annotation.  ``__init__.py`` re-exports its imports
and ``from __future__`` imports are directives, so both are exempt.
"""
import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "idealtangent"


def references(tree) -> list:
    """(name, line) for every name, attribute and string constant."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.value, node.lineno))
    return out


def definitions(tree) -> list:
    """Every def and class node but the dunder methods."""
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def dead(sources: dict, scanned) -> list:
    """``path:line name`` for each definition in the ``scanned`` keys of
    ``sources`` ({path: text}) that no other place in ``sources`` names."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    seen: dict[str, list] = {}
    for path, tree in trees.items():
        for name, line in references(tree):
            seen.setdefault(name, []).append((path, line))
    found = []
    for path in scanned:
        for node in definitions(trees[path]):
            if not any(p != path or not node.lineno <= line <= node.end_lineno
                       for p, line in seen.get(node.name, [])):
                found.append(f"{path}:{node.lineno} {node.name}")
    return found


def unused_imports(sources: dict, scanned) -> list:
    """``path:line name`` for each name imported by a ``scanned`` module of
    ``sources`` ({path: text}) that the module never names or quotes."""
    found = []
    for path in scanned:
        tree = ast.parse(sources[path])
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append(f"{path}:{node.lineno} {name}")
    return found


def test_scan_flags_only_unreferenced_definitions():
    sources = {
        "a.py": ("def used():\n    return 1\n\n"
                 "def recursive(n):\n    return recursive(n - 1)\n\n"
                 "def by_string():\n    pass\n\n"
                 "class Box:\n    def method(self):\n        pass\n\n"
                 "    def __eq__(self, other):\n        pass\n"),
        "b.py": ("from a import recursive\n"
                 "used()\nBox().method()\nwrap('by_string')\n"),
    }
    assert dead(sources, ["a.py"]) == ["a.py:4 recursive"]


def test_every_package_definition_is_referenced():
    paths = sorted(p for d in ("src", "tests", "bench")
                   for p in (REPO / d).rglob("*.py"))
    sources = {p.relative_to(REPO).as_posix(): p.read_text() for p in paths}
    scanned = [p.relative_to(REPO).as_posix()
               for p in sorted(PACKAGE.glob("*.py"))]
    assert scanned
    found = dead(sources, scanned)
    assert not found, "unreferenced definitions:\n" + "\n".join(found)


def test_import_scan_flags_only_unused_names():
    sources = {"a.py": ("from __future__ import annotations\n"
                        "import os.path\nimport sys as system\n"
                        "from math import gcd, lcm\nfrom fractions import Fraction\n\n"
                        "def f(x: 'Fraction'):\n    return gcd(x, os.sep)\n")}
    assert unused_imports(sources, ["a.py"]) == ["a.py:3 system", "a.py:4 lcm"]


def test_every_package_import_is_used():
    scanned = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert scanned
    sources = {p.relative_to(REPO).as_posix(): p.read_text() for p in scanned}
    found = unused_imports(sources, sources)
    assert not found, "unused imports:\n" + "\n".join(found)
