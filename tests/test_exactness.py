"""The exactness contract, checked on the source: no module of the package
divides with ``/``, writes a float literal, names ``float`` or calls a
float function of ``math``.  Every number stays an ``int`` or a
``Fraction``; ``//`` and the integer functions of ``math`` are exact.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mgnef"

# the functions of math that are exact on ints and Fractions
EXACT_MATH = {"gcd", "lcm", "isqrt", "comb", "perm", "factorial", "prod",
              "floor", "ceil", "trunc"}

# (module file name, source of the flagged expression) for a use that is
# truly needed, each with its reason in CHANGES.md; empty today
ALLOWED: set[tuple[str, str]] = set()


def float_uses(tree: ast.AST) -> list[ast.AST]:
    """Nodes that divide with ``/``, are float constants, name ``float`` or
    reach a non-exact member of ``math``."""
    math_names = {"math"}  # names bound to the module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            math_names |= {a.asname or a.name for a in node.names if a.name == "math"}
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [node for a in node.names if a.name not in EXACT_MATH]
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(node)
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(node)
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(node)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in math_names and node.attr not in EXACT_MATH):
            found.append(node)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_floats_in_source(path):
    source = path.read_text(encoding="utf-8")
    flagged = [(path.name, ast.get_source_segment(source, node), node.lineno)
               for node in float_uses(ast.parse(source))]
    assert [f for f in flagged if f[:2] not in ALLOWED] == []


@pytest.mark.parametrize("snippet", [
    "x = a / b", "x /= 2", "x = 0.5", "x = 1e3", "x = float(y)", "isinstance(y, float)",
    "import math; x = math.sqrt(2)", "import math as m; x = m.pi",
    "from math import log", "from math import gcd, exp",
])
def test_float_uses_are_flagged(snippet):
    assert float_uses(ast.parse(snippet))


@pytest.mark.parametrize("snippet", [
    "x = a // b", "x //= 2", "from math import gcd, lcm", "import math; x = math.isqrt(n)",
    "x = Fraction(1, 2)", "x = '1/2'",
])
def test_exact_uses_pass(snippet):
    assert not float_uses(ast.parse(snippet))
