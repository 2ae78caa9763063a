"""No float enters the engine: an ``ast`` lint of every module of ``sbmotives``.

It rejects true division, float and complex literals, calls to ``float``,
``round`` and ``complex``, and any name of ``math`` outside the integer
functions the engine uses, whether imported or read as an attribute.
"""

import ast
from pathlib import Path

import pytest

import sbmotives

_MATH_ALLOWED = {"comb", "prod", "isqrt", "gcd"}
_INEXACT_CALLS = {"float", "round", "complex"}
_SOURCES = sorted(Path(sbmotives.__file__).parent.glob("*.py"))


def inexact_uses(source: str) -> list[tuple[int, str]]:
    """(line, construct) for each use in ``source`` that can leave the integers."""
    tree = ast.parse(source)
    math_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "math"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in _INEXACT_CALLS:
            found.append((node.lineno, f"{node.func.id}("))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{a.name}") for a in node.names if a.name not in _MATH_ALLOWED]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in math_names
            and node.attr not in _MATH_ALLOWED
        ):
            found.append((node.lineno, f"math.{node.attr}"))
    return found


def test_every_module_is_linted():
    assert {path.name for path in _SOURCES} >= {"qpoly.py", "motive.py", "severi_brauer.py", "verify.py", "cli.py"}


@pytest.mark.parametrize("path", _SOURCES, ids=[path.name for path in _SOURCES])
def test_module_stays_in_the_integers(path):
    assert inexact_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, construct",
    [
        ("x = a / b", "true division"),
        ("x /= 2", "true division"),
        ("x = 0.5", "literal 0.5"),
        ("x = 2j", "literal 2j"),
        ("x = float(n)", "float("),
        ("x = round(n)", "round("),
        ("x = complex(n)", "complex("),
        ("from math import comb, sqrt", "math.sqrt"),
        ("from math import *", "math.*"),
        ("import math\nx = math.log2(n)", "math.log2"),
        ("import math as m\nx = m.pi", "math.pi"),
    ],
)
def test_lint_finds_each_inexact_construct(source, construct):
    assert [what for _, what in inexact_uses(source)] == [construct]


def test_lint_passes_integer_code():
    source = "import math\nfrom math import gcd, prod\nx = a // b + math.comb(4, 2) + math.isqrt(n)\nx //= 2\ny = 'a / b'"
    assert inexact_uses(source) == []
