"""A static scan of the package source for floating point.

Scalars are ints or Fractions over QQ (an int whenever the value is
integral) and ints mod p over GF(p), and combine with ``+``, ``-`` and
``*``, so a float can only come in through a float literal, a ``float()``
call or a ``/``.  Over QQ most scalars are ints, so a ``/`` between two
field values can give a float; a ``/`` is allowed only when one operand is
a ``Fraction(...)`` call.  The wall-clock timing in ``cli.py`` reads
``time.monotonic()`` and uses none of the three, so it needs no exemption.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "idealtangent"


def _is_fraction_call(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction")


def inexact(source: str) -> list:
    """(line, what) for every float literal, float() call and '/' without
    a Fraction(...) operand in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, "float literal"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float() call"))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            if not (_is_fraction_call(node.left) or _is_fraction_call(node.right)):
                found.append((node.lineno, "'/' without a Fraction operand"))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            if not _is_fraction_call(node.value):
                found.append((node.lineno, "'/=' without a Fraction operand"))
    return found


@pytest.mark.parametrize("source,hits", [
    ("x = 0.5", 1),
    ("x = 2j", 1),
    ("y = float(n)", 1),
    ("q = a / b", 1),
    ("a /= b", 1),
    ("q = Fraction(a) / b", 0),
    ("q = a / Fraction(b)", 0),
    ("a /= Fraction(b)", 0),
    ("q = a // b", 0),
    ("q = (a + b) * c - d % p", 0),
])
def test_scan_flags_each_inexact_form(source, hits):
    assert len(inexact(source)) == hits


def test_package_source_is_exact():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = [f"{path.name}:{line}: {what}" for path in paths
             for line, what in inexact(path.read_text())]
    assert not found, "\n".join(found)
