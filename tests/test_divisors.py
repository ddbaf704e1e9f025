"""Divisor coordinates, named classes, parser, serialization."""

import json
import random
from fractions import Fraction
from math import gcd

import pytest

import mgnef
from mgnef import (
    DivisorClass,
    GenusContext,
    GenusMismatchError,
    IndexOutOfRangeError,
    ModelMismatchError,
    NegativeCoefficientError,
    ParseError,
    UnsupportedGenusError,
    as_context,
    boundary_total,
    canonical_class,
    delta,
    face_member,
    from_coeffs,
    lambda_class,
    linear_combination,
    parse_abelian,
    parse_divisor,
    reflect_index,
    twelve_lambda_minus_delta0,
    verify_extremal_face,
    zero_divisor,
)
from helpers import (
    full_add,
    full_scale,
    full_sub,
    rand_divisor,
    rand_fraction,
    rand_nonneg_fraction,
    scan_abelian,
    scan_divisor,
)


def test_genus_context_bounds():
    for g in (-1, 0, 1, 2):
        with pytest.raises(UnsupportedGenusError, match=f"genus {g}: .*g >= 3"):
            GenusContext(g)
    with pytest.raises(UnsupportedGenusError):
        lambda_class(2)
    with pytest.raises(UnsupportedGenusError):
        zero_divisor(2)
    assert GenusContext(3).max_delta == 1


ENTRY_POINTS = {
    "enumerate_fcurves": mgnef.enumerate_fcurves,
    "enumerate_fcurves_raw": mgnef.enumerate_fcurves_raw,
    "numerical_classes": mgnef.numerical_classes,
    "fnef_cone": mgnef.fnef_cone,
    "lemma_matrix": mgnef.lemma_matrix,
    "verify_extremal_face": mgnef.verify_extremal_face,
    "parse_divisor": lambda g: parse_divisor("lambda", g),
    "lambda_class": lambda_class,
    "pullback_nef_cone": lambda g: mgnef.pullback_nef_cone(mgnef.get_model("perfect"), g),
    "bpf_scan": lambda g: mgnef.bpf_scan(g, [1], [0], [0]),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_points_refuse_genus_2(name):
    with pytest.raises(UnsupportedGenusError, match="genus 2: "):
        ENTRY_POINTS[name](2)
    ENTRY_POINTS[name](3)  # and accept the smallest supported genus


class Index:
    """An integer-like genus that is not an int, as NumPy's int64 is."""

    def __init__(self, n):
        self.n = n

    def __index__(self):
        return self.n


def test_genus_context_stores_an_int():
    ctx = GenusContext(Index(5))
    assert type(ctx.g) is int and ctx == GenusContext(5) == as_context(Index(5))
    for g in (5.5, 4.0, "5", Fraction(5)):
        with pytest.raises(TypeError):
            GenusContext(g)
    with pytest.raises(UnsupportedGenusError):
        GenusContext(Index(2))
    # the payloads of an integer-like genus serialize as plain ints
    payload = verify_extremal_face(Index(5)).to_json_dict()
    assert json.loads(json.dumps(payload))["genus"] == 5
    assert lambda_class(Index(7)).to_json_dict()["genus"] == 7


@pytest.mark.parametrize(
    "g, dim", [(3, 3), (4, 4), (5, 4), (7, 5), (12, 8), (13, 8), (14, 9), (20, 12)]
)
def test_dimension(g, dim):
    assert GenusContext(g).dim == dim
    assert len(lambda_class(g).coeffs()) == dim


def test_reflect_index():
    assert reflect_index(0, 6) == 0
    assert reflect_index(3, 6) == 3
    assert reflect_index(4, 6) == 2
    assert reflect_index(6, 6) == 0
    assert reflect_index(5, 9) == 4
    with pytest.raises(IndexOutOfRangeError):
        reflect_index(-1, 6)
    with pytest.raises(IndexOutOfRangeError):
        reflect_index(7, 6)
    for g in range(3, 11):
        for k in range(0, g + 1):
            assert reflect_index(reflect_index(k, g), g) == reflect_index(k, g)


def test_named_divisors():
    g = 7
    k = canonical_class(g)
    assert k.a == 13
    assert all(x == 2 for x in k.b)
    assert all(k.delta_coeff(i) == -2 for i in range(4))
    d = boundary_total(g)
    assert d.a == 0 and all(x == -1 for x in d.b)
    t = twelve_lambda_minus_delta0(g)
    assert t.a == 12 and t.b[0] == 1 and all(x == 0 for x in t.b[1:])
    l = lambda_class(g)
    assert l.coeffs() == (1, 0, 0, 0, 0)
    d2 = delta(g, 2)
    assert d2.delta_coeff(2) == -(-1) and d2.b[2] == -1
    assert delta(g, 5) == delta(g, 2)
    # the subscript is read through operator.index, as the genus is
    assert delta(g, Index(5)) == delta(g, 2) == delta(Index(g), Index(2))
    for k in (1.5, 2.0, "2", Fraction(2)):
        with pytest.raises(TypeError):
            delta(g, k)
        with pytest.raises(TypeError):
            reflect_index(k, g)
    assert type(reflect_index(Index(5), g)) is int


def test_face_member():
    m = face_member(6, Fraction(3), Fraction(1, 2))
    assert m.a == 3 + 6 and m.b[0] == Fraction(1, 2) and all(x == 0 for x in m.b[1:])
    with pytest.raises(NegativeCoefficientError):
        face_member(6, -1, 0)
    with pytest.raises(NegativeCoefficientError):
        face_member(6, 0, Fraction(-1, 3))
    rng = random.Random(201)
    for _ in range(50):
        alpha = rand_nonneg_fraction(rng)
        beta = rand_nonneg_fraction(rng)
        built = face_member(6, alpha, beta)
        combo = linear_combination(
            [(alpha, lambda_class(6)), (beta, twelve_lambda_minus_delta0(6))]
        )
        assert built == combo


def test_arithmetic_and_reflection_access():
    g = 9
    d = from_coeffs(g, [5, 1, 2, 3, 4, 0])
    assert d.b_at(8) == d.b[1]
    assert d.b_at(5) == d.b[4]
    assert (d + d).a == 10
    assert (d - d).is_zero()
    assert (-d).b[2] == -3
    assert (Fraction(1, 2) * d).a == Fraction(5, 2)
    with pytest.raises(GenusMismatchError):
        d + from_coeffs(8, [1, 0, 0, 0, 0, 0])


def test_linear_combination_properties():
    rng = random.Random(202)
    for _ in range(20):
        d1, d2, d3 = (rand_divisor(rng, 8) for _ in range(3))
        x = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        y = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert linear_combination([(x, d1), (y, d2)]) == linear_combination(
            [(y, d2), (x, d1)]
        )
        assert (d1 + d2) + d3 == d1 + (d2 + d3)
    assert linear_combination([], ctx=as_context(5)) == zero_divisor(5)
    with pytest.raises(GenusMismatchError):
        linear_combination([(1, lambda_class(5)), (1, lambda_class(6))])


def _typed(d):
    return [(x, type(x)) for x in d.coeffs()]


def _sparse_class(rng, g):
    """A class with about half its coordinates zero: Fraction coefficients,
    or hand-built int ones, or a mix of the two."""
    ctx = as_context(g)
    kind = rng.choice(("fraction", "int", "mixed"))
    coeffs = []
    for _ in range(ctx.dim):
        n = rng.randint(-6, 6) if rng.random() < 0.5 else 0
        as_int = kind == "int" or (kind == "mixed" and rng.random() < 0.5)
        coeffs.append(n if as_int else Fraction(n, rng.randint(1, 4)))
    return DivisorClass(ctx, coeffs[0], tuple(coeffs[1:]))


def test_arithmetic_matches_full_reference():
    """Skipping zero coefficients keeps every coefficient's value and type."""
    rng = random.Random(1313)
    scalars = [0, Fraction(0), -1, 2, Fraction(-3, 4), Fraction(5, 2), "-7/3"]
    for g in (3, 4, 9, 24, 41):
        for _ in range(40):
            d, e = _sparse_class(rng, g), _sparse_class(rng, g)
            assert _typed(d + e) == _typed(full_add(d, e)), (d, e)
            assert _typed(d - e) == _typed(full_sub(d, e)), (d, e)
            for c in scalars + [Fraction(rng.randint(-9, 9), rng.randint(1, 5))]:
                assert _typed(d.scale(c)) == _typed(full_scale(d, c)), (d, c)
    # all-int operands: every coordinate is a Fraction view of the ints
    ctx = as_context(7)
    d = DivisorClass(ctx, 3, (0, 2, 0, 0))
    e = DivisorClass(ctx, 0, (1, 0, 0, -4))
    assert _typed(d + e) == [(3, Fraction), (1, Fraction), (2, Fraction), (0, Fraction),
                             (-4, Fraction)]
    assert ((d + e).num, (d + e).den) == ((3, 1, 2, 0, -4), 1)
    assert _typed(d - e) == _typed(full_sub(d, e))
    assert all(t is Fraction for _, t in _typed(d.scale(0)))


def test_integer_form_is_canonical_and_viewed_as_fractions():
    """Each class is stored as integer numerators over one positive
    denominator with no common factor; its coordinates are Fraction views
    of them, and the arithmetic agrees with Fraction arithmetic."""
    rng = random.Random(2101)
    for g in range(3, 41):
        for _ in range(8):
            d, e = rand_divisor(rng, g), rand_divisor(rng, g)
            c = rand_fraction(rng, -9, 9, 5)
            cases = [(d, None), (e, None), (d + e, full_add(d, e)), (d - e, full_sub(d, e)),
                     (d.scale(c), full_scale(d, c)), (-d, full_scale(d, -1))]
            for x, want in cases:
                assert x.den > 0 and gcd(x.den, *x.num) == 1, (g, x.num, x.den)
                coords = tuple(Fraction(n, x.den) for n in x.num)
                assert x.coeffs() == coords and x.a == coords[0] and x.b == coords[1:]
                assert all(type(v) is Fraction for v in x.coeffs())
                if want is not None:
                    assert x == want and hash(x) == hash(want) and x.coeffs() == want.coeffs()
            assert parse_divisor(d.to_expr(), g) == d
    # other numbers are read through Fraction, exactly
    d = DivisorClass(as_context(4), 0.5, ("1/3", 0, Fraction(-2, 4)))
    assert (d.num, d.den) == ((3, 2, 0, -3), 6)


# -- parsing ------------------------------------------------------------------


def test_parse_named_forms():
    g = 7
    assert parse_divisor("K", g) == canonical_class(g)
    assert parse_divisor("lambda", g) == lambda_class(g)
    assert parse_divisor("L", g) == lambda_class(g)
    assert parse_divisor("Delta", g) == boundary_total(g)
    assert parse_divisor("12L-d0", g) == twelve_lambda_minus_delta0(g)
    assert parse_divisor("12*L - d0", g) == twelve_lambda_minus_delta0(g)
    assert parse_divisor("2*12L-d0", g) == twelve_lambda_minus_delta0(g).scale(2)
    assert parse_divisor("0", g) == zero_divisor(g)
    assert parse_divisor("  lambda + 12L-d0 ", g) == parse_divisor("13*L - d0", g)
    assert parse_divisor("-L + K", g) == canonical_class(g) - lambda_class(g)


def test_parse_coefficients_and_indices():
    g = 7
    d = parse_divisor("13*L - 2*d0 - 2*d1 - 2*d2 - 2*d3", g)
    assert d == canonical_class(g)
    d = parse_divisor("25/2*L - d0", g)
    assert d.a == Fraction(25, 2) and d.b[0] == 1
    # subscripts reflect: d5 at genus 7 is d2
    assert parse_divisor("d5", g) == delta(g, 2)
    with pytest.raises(IndexOutOfRangeError):
        parse_divisor("d8", g)


def test_parse_errors_carry_positions():
    g = 7
    with pytest.raises(ParseError) as exc:
        parse_divisor("", g)
    assert exc.value.position == 0
    with pytest.raises(ParseError) as exc:
        parse_divisor("3*X", g)
    assert exc.value.position == 2
    with pytest.raises(ParseError) as exc:
        parse_divisor("13*L - 2*q0", g)
    assert exc.value.position == 9
    with pytest.raises(ParseError) as exc:
        parse_divisor("5", g)
    assert exc.value.position == 0
    with pytest.raises(ParseError) as exc:
        parse_divisor("1/0*L", g)
    assert exc.value.position == 2  # the denominator's first digit
    # past CPython's int/str digit limit: refused at the number's first digit
    with pytest.raises(ParseError) as exc:
        parse_divisor("1" * 5000 + "*L", g)
    assert exc.value.position == 0
    with pytest.raises(ParseError) as exc:
        parse_divisor("L - d" + "1" * 5000, g)
    assert exc.value.position == 5
    with pytest.raises(ParseError) as exc:
        parse_divisor("\u00b2*L", g)  # superscript two: a digit, but not a decimal one
    assert exc.value.position == 0
    for text, pos in (("d", 1), ("L - d", 5), ("1/ * L", 2)):
        with pytest.raises(ParseError, match="expected a number") as exc:
            parse_divisor(text, g)
        assert exc.value.position == pos, text
    with pytest.raises(ParseError):
        parse_divisor("L L", g)
    with pytest.raises(ParseError):
        parse_divisor("L +", g)


def test_expr_roundtrip():
    rng = random.Random(203)
    for g in (3, 5, 8, 13):
        for _ in range(15):
            d = rand_divisor(rng, g)
            assert parse_divisor(d.to_expr(), g) == d
    assert zero_divisor(5).to_expr() == "0"
    assert parse_divisor("0", 5) == zero_divisor(5)


def test_canonical_class_serialization_roundtrip():
    for g in range(3, 16):
        k = canonical_class(g)
        payload = k.to_json_dict()
        assert payload["a"] == "13"
        assert all(x == "2" for x in payload["b"])
        reparsed = parse_divisor(payload["expr"], g)
        assert reparsed.a == 13
        for i in range(g // 2 + 1):
            assert reparsed.delta_coeff(i) == -2


def test_json_dict_shape():
    d = from_coeffs(5, [Fraction(7, 2), 1, Fraction(-1, 3), 0])
    payload = d.to_json_dict()
    assert payload == {
        "genus": 5,
        "a": "7/2",
        "b": ["1", "-1/3", "0"],
        "expr": "7/2*L - 1*d0 + 1/3*d1",
    }
    assert parse_divisor(payload["expr"], 5) == d


# The alphabet of the differential test: names, subscripts past g/2 and past
# g, numbers and quotients (a zero one and one over zero), signs, '*', '/',
# spaces (a tab and a Unicode one), digits that are not ASCII (a decimal
# Arabic-Indic three and a superscript two, which is not a decimal digit),
# over-long numbers and a stray letter.
_TOKENS = (["L", "lambda", "12L-d0", "12L-d", "Delta", "K", "M", "D", "d", "d0", "d7", "d20",
            "d25", "d40", "d41", "d99", "0", "3", "12", "007", "2/3", "0/5", "1/0", "1/",
            "+", "-", "*", "/", " ", "  ", "\t", "\u3000", "\u0663", "\u00b2", "x"]
           + ["9" * 4301, "d" + "1" * 4301])
_WEIGHTS = [3] * (len(_TOKENS) - 2) + [0.05, 0.05]


def _ab(d):
    return d.a, d.b


def _outcome(parse):
    """The value of a parse, or its error's type, message and position."""
    try:
        return parse()
    except (ParseError, IndexOutOfRangeError, ModelMismatchError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def test_parser_matches_the_reference_scanner():
    """On seeded random texts, ``parse_divisor`` at genus 40 and
    ``parse_abelian`` on the perfect cone and Satake models give the
    scanner's coordinates, or its error with the same message and position;
    so the regular expression's \\s and \\d read as ``str.isspace`` and
    ``str.isdecimal`` do."""
    rng = random.Random(2102)
    seen = set()
    for _ in range(20000):
        text = "".join(rng.choices(_TOKENS, _WEIGHTS, k=rng.randint(0, 7)))
        want = _outcome(lambda: scan_divisor(text, 40))
        got = _outcome(lambda: list(parse_divisor(text, 40).coeffs()))
        assert got == want, text
        seen.add(want[1].split(" (")[0] if isinstance(want, tuple) else "parsed")
        for model in ("perfect", "satake"):
            # the Satake model refuses a D term in both
            want = _outcome(lambda: _ab(mgnef.AbelianDivisor(model, *scan_abelian(text))))
            assert _outcome(lambda: _ab(parse_abelian(text, model))) == want, (text, model)
    # every outcome of the parser, and the domain refusal, were reached
    assert seen >= {"parsed", "empty divisor expression", "expected a number",
                    "number longer than 4300 digits", "zero denominator",
                    "expected '*' after the coefficient", "bare constant in a divisor expression",
                    "expected a divisor name", "expected '+' or '-'",
                    "delta index 99 outside 0..40"}, seen
