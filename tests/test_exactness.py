"""The exactness contract, checked on the source: no module of the package
divides with ``/``, writes a float literal, names ``float`` or calls a
float function of ``math``.  Every number stays an ``int`` or a
``Fraction``; ``//`` and the integer functions of ``math`` are exact.

And checked on the values: the public functions, fed ints, ``Fraction``s
and strings, return no float anywhere in what they return.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgnef import (
    AbelianDivisor,
    Check,
    NotMemberError,
    NotPointedError,
    PolyCone,
    QMatrix,
    basis_images,
    classify_in_face,
    enumerate_fcurves,
    extreme_rays,
    face_member,
    face_of,
    fnef_cone,
    from_coeffs,
    get_model,
    intersect,
    is_fnef,
    nonneg_combination,
    parse_abelian,
    parse_divisor,
    pullback,
    pullback_nef_cone,
    semiample_status,
    verify_extremal_face,
)
from mgnef._record import Record

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


# -- no float in any return value ----------------------------------------------


def floats_in(value) -> list:
    """The floats reachable from a value through the fields of records and
    the items of tuples and lists."""
    if isinstance(value, float):
        return [value]
    if isinstance(value, Record):
        value = [getattr(value, f) for f in value._fields]
    elif not isinstance(value, (tuple, list)):
        return []
    return [f for item in value for f in floats_in(item)]


def test_floats_in_walks_records_tuples_and_lists():
    assert floats_in(Check("x", True, (1, [Fraction(1, 2), 0.5]))) == [0.5]
    assert floats_in([Check("x", 1.0), (2.5,)]) == [1.0, 2.5]
    assert floats_in((1, Fraction(1, 3), "0.5", None, True)) == []


ints = st.integers(-40, 40)
fractions = st.fractions(min_value=-40, max_value=40, max_denominator=7)
exact = st.one_of(ints, fractions)
# every input that is read through Fraction may also be a string
number = st.one_of(ints, fractions, exact.map(str))
nonneg = st.one_of(st.integers(0, 40), st.fractions(min_value=0, max_value=40,
                                                    max_denominator=7)).flatmap(
    lambda x: st.sampled_from((x, str(x))))


def term(c, name) -> str:
    c = Fraction(c)
    return f" {'-' if c < 0 else '+'} {abs(c)}*{name}"


@st.composite
def divisor_texts(draw, g):
    """An expression over the divisor names at genus g, each coefficient an
    int or a fraction."""
    names = st.sampled_from(("L", "lambda", "12L-d0", "K", "Delta", *(f"d{k}" for k in range(g + 1))))
    terms = draw(st.lists(st.tuples(exact, names), min_size=1, max_size=4))
    return "".join(term(c, name) for c, name in terms).lstrip(" +")


sweep = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@sweep
@given(st.data())
def test_divisor_side_returns_no_float(data):
    g = data.draw(st.integers(3, 12))
    dim = g // 2 + 2
    d = from_coeffs(g, data.draw(st.lists(number, min_size=dim, max_size=dim)))
    e = parse_divisor(data.draw(divisor_texts(g)), g)
    face = face_member(g, data.draw(nonneg), data.draw(nonneg))
    c = data.draw(number)
    combined = d.scale(2) + face
    out = [d, e, face, combined, d + e, d - e, -d, d.scale(c), c * e, d.coeffs(), d.a, d.b,
           d.b_at(g), d.delta_coeff(0)]
    for x in (d, e, face, combined):
        out += [is_fnef(x), classify_in_face(x), semiample_status(x)]
        out += [intersect(x, curve) for curve in enumerate_fcurves(g)[:8]]
    assert floats_in(out) == []


@sweep
@given(st.data())
def test_pullbacks_return_no_float(data):
    g = data.draw(st.integers(3, 40))
    name = data.draw(st.sampled_from(("satake", "perfect")))
    a, b = data.draw(number), data.draw(number) if name == "perfect" else 0
    model = get_model(name)
    typed = AbelianDivisor(name, a, b)
    text = term(a, "M") + (term(b, "D") if b else "")
    parsed = parse_abelian(text.lstrip(" +"), name)
    out = [typed, parsed, typed.coeffs(), model.nef_cone().contains(typed.coeffs())]
    out += [(image, image.coeffs()) for image in basis_images(model, g)]
    for adiv in (typed, parsed):
        image = pullback(model, adiv, g)
        out += [image, image.coeffs(), pullback_nef_cone(model, g).contains(image),
                is_fnef(image), classify_in_face(image), semiample_status(image)]
    assert floats_in(out) == []


@sweep
@given(st.data())
def test_cones_return_no_float(data):
    d = data.draw(st.integers(1, 4))
    vectors = st.lists(st.lists(number, min_size=d, max_size=d), min_size=1, max_size=5)
    gens, target = data.draw(vectors), data.draw(st.lists(number, min_size=d, max_size=d))
    cone = PolyCone.from_generators(gens)
    out = [cone, nonneg_combination(gens, target), extreme_rays(cone), cone.contains(target)]
    hcone = PolyCone.from_inequalities(data.draw(vectors))
    out += [hcone, hcone.contains(target)]
    try:
        out.append(extreme_rays(hcone))
    except NotPointedError:
        pass
    g = data.draw(st.integers(3, 7))
    point = [data.draw(number) for _ in range(g // 2 + 2)]
    face = face_member(g, data.draw(nonneg), data.draw(nonneg))
    for x in (point, face.coeffs(), face):
        try:
            out.append(face_of(fnef_cone(g), x))
        except NotMemberError:
            pass
    out.append(verify_extremal_face(g))
    assert floats_in(out) == []


@sweep
@given(st.data())
def test_qmatrix_methods_return_no_float(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.lists(number, min_size=m, max_size=m), min_size=n, max_size=n))
    square = data.draw(st.lists(ints, min_size=n * n, max_size=n * n))
    for a in (QMatrix.from_rows(rows), QMatrix(n, n, tuple(square))):
        v = data.draw(st.lists(exact, min_size=a.ncols, max_size=a.ncols))
        b = data.draw(st.lists(number, min_size=a.nrows, max_size=a.nrows))
        out = [a, a.entry(0, 0), a.row(0), a.col(0), a.rows(), a.transpose(), a.matvec(v),
               a.rank(), a.kernel_basis(), a.solve(b)]
        if a.nrows == a.ncols:
            out.append(a.det())
            if a.det():
                out.append(a.inverse())
        assert floats_in(out) == []
