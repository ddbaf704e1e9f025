"""F-curve enumeration and intersection formulas."""

import hashlib
import itertools
import operator
import random
from array import array
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgnef import fcurves
from mgnef import (
    FCurve,
    GenusMismatchError,
    IndexOutOfRangeError,
    UnsupportedGenusError,
    as_context,
    boundary_total,
    canonical_class,
    enumerate_fcurves,
    enumerate_fcurves_raw,
    from_coeffs,
    ineq_row,
    intersect,
    intersection_vector,
    is_fnef,
    lambda_class,
    numerical_classes,
    parse_divisor,
    primitive,
    twelve_lambda_minus_delta0,
    verify_extremal_face,
)
from mgnef.fcurves import FORMULAS, _class_terms, _table
from helpers import (
    dense_classes,
    dense_row,
    full_row_is_fnef,
    full_scan_is_fnef,
    hashed_active_curves,
    hashed_table,
    rand_divisor,
    rand_fraction,
    spy_on_class_objects,
)


def curve(g, family, *indices):
    return FCurve(as_context(g), family, tuple(indices))


# -- frozen intersection values ------------------------------------------------


def test_frozen_values_genus5():
    d = from_coeffs(5, [7, 2, 3, 1])
    expected = {
        ("C1", ()): Fraction(-7, 6),
        ("C2", ()): 2,
        ("C3", (1,)): 3,
        ("C3", (2,)): 1,
        ("C3", (3,)): 1,
        ("C4", (0,)): 1,
        ("C4", (1,)): 3,
        ("C4", (2,)): 3,
        ("C4", (3,)): 1,
        ("C5", (1, 1)): 5,
        ("C5", (1, 2)): 3,
        ("C5", (1, 3)): 1,
        ("C5", (2, 2)): -1,
        ("C6", (1, 1, 1, 2)): 7,
    }
    for (fam, idx), want in expected.items():
        assert intersect(d, curve(5, fam, *idx)) == want, (fam, idx)


def test_lambda_column():
    for g in range(3, 16):
        lam = lambda_class(g)
        for c in enumerate_fcurves_raw(g):
            want = Fraction(1, 12) if c.family == "C1" else 0
            assert intersect(lam, c) == want, c.tag


def test_twelve_lambda_minus_delta0_column():
    for g in range(3, 16):
        t = twelve_lambda_minus_delta0(g)
        for c in enumerate_fcurves_raw(g):
            want = {"C1": 0, "C2": 1, "C4": 2}.get(c.family, 0)
            assert intersect(t, c) == want, c.tag


def test_bilinearity_genus6():
    rng = random.Random(301)
    curves = [rec.curve for rec in numerical_classes(6)]
    for _ in range(20):
        d1 = rand_divisor(rng, 6)
        d2 = rand_divisor(rng, 6)
        alpha = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        beta = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        combo = alpha * d1 + beta * d2
        for c in curves:
            assert intersect(combo, c) == alpha * intersect(d1, c) + beta * intersect(
                d2, c
            )


def test_c6_permutation_symmetry():
    for g in range(4, 11):
        for c in enumerate_fcurves_raw(g):
            if c.family != "C6":
                continue
            base = intersection_vector(c)
            for perm in itertools.permutations(c.indices):
                assert intersection_vector(curve(g, "C6", *perm)) == base


def test_c5_symmetry():
    for g in range(3, 11):
        for c in enumerate_fcurves_raw(g):
            if c.family != "C5":
                continue
            i, j = c.indices
            assert intersection_vector(curve(g, "C5", j, i)) == intersection_vector(c)


def test_intersection_vector_and_ineq_row():
    c1 = curve(4, "C1")
    assert intersection_vector(c1) == (Fraction(1, 12), 1, Fraction(-1, 12), 0)
    assert ineq_row(c1) == (Fraction(1, 12), -1, Fraction(1, 12), 0)
    c2 = curve(4, "C2")
    assert intersection_vector(c2) == (0, -1, 0, 0)
    assert ineq_row(c2) == (0, 1, 0, 0)


# -- validation ----------------------------------------------------------------


def test_index_validation():
    with pytest.raises(IndexOutOfRangeError):
        curve(5, "C3", 0)
    with pytest.raises(IndexOutOfRangeError):
        curve(5, "C3", 4)
    with pytest.raises(IndexOutOfRangeError):
        curve(5, "C4", -1)
    with pytest.raises(IndexOutOfRangeError):
        curve(5, "C5", 2, 3)
    with pytest.raises(IndexOutOfRangeError):
        curve(5, "C5", 0, 1)
    with pytest.raises(IndexOutOfRangeError):
        curve(5, "C6", 1, 1, 1, 1)
    with pytest.raises(IndexOutOfRangeError):
        curve(5, "C1", 1)
    with pytest.raises(UnsupportedGenusError):
        curve(2, "C2")
    with pytest.raises(ValueError):
        curve(5, "C9")
    # indices are read through operator.index into a tuple of ints: a float
    # is refused, not cut to the index of another curve
    for family, indices in (("C4", (0.5,)), ("C3", (2.0,)), ("C5", (1, 1.5)), ("C3", ("2",))):
        with pytest.raises(TypeError):
            FCurve(as_context(5), family, indices)

    class Index:
        def __index__(self):
            return 2

    for indices in ([2], (Index(),), range(2, 3)):
        c = FCurve(as_context(5), "C3", indices)
        assert c.indices == (2,) and type(c.indices[0]) is int, indices
        assert c == curve(5, "C3", 2) and hash(c) == hash(curve(5, "C3", 2)) and c.tag == "C3(2)"
        assert intersect(from_coeffs(5, [0, 0, 0, 1]), c) == 1


def test_genus_mismatch():
    with pytest.raises(GenusMismatchError):
        intersect(lambda_class(5), curve(6, "C2"))


# -- enumeration ----------------------------------------------------------------


@pytest.mark.parametrize("g, raw", [(2, None), (3, 6), (4, 10), (5, 14), (12, 68)])
def test_raw_counts(g, raw):
    if raw is None:  # below genus 3 there is no curve list to count
        with pytest.raises(UnsupportedGenusError):
            enumerate_fcurves_raw(g)
    else:
        assert len(enumerate_fcurves_raw(g)) == raw


def test_raw_counts_monotone():
    counts = [len(enumerate_fcurves_raw(g)) for g in range(3, 21)]
    assert counts == sorted(counts)
    with pytest.raises(UnsupportedGenusError):
        enumerate_fcurves_raw(2)


@pytest.mark.parametrize("g, classes", [(3, 4), (4, 8), (5, 9)])
def test_class_counts(g, classes):
    assert len(numerical_classes(g)) == classes
    assert len(enumerate_fcurves(g)) == classes


def test_genus3_merges():
    recs = {rec.curve.tag: rec for rec in numerical_classes(3)}
    assert sorted(recs) == ["C1", "C2", "C3(1)", "C4(0)"]
    assert recs["C4(0)"].tags == ("C4(0)", "C4(1)")
    assert recs["C3(1)"].tags == ("C3(1)", "C5(1,1)")


def test_genus4_merges():
    recs = {rec.curve.tag: rec for rec in numerical_classes(4)}
    assert len(recs) == 8
    assert recs["C4(0)"].tags == ("C4(0)", "C4(2)")
    assert recs["C3(2)"].tags == ("C3(2)", "C5(1,2)")


def test_enumeration_is_sorted_and_canonical():
    for g in (5, 9, 12):
        reps = enumerate_fcurves(g)
        keys = [c.sort_key for c in reps]
        assert keys == sorted(keys)
        for c in reps:
            if c.family == "C5":
                assert c.indices[0] <= c.indices[1]
            if c.family == "C6":
                assert list(c.indices) == sorted(c.indices)
    for enumerate_at in (enumerate_fcurves, numerical_classes):
        with pytest.raises(UnsupportedGenusError):
            enumerate_at(2)


# -- nonnegativity scan ----------------------------------------------------------


def test_is_fnef_basics():
    for g in (3, 7, 12):
        assert is_fnef(lambda_class(g)) == (True, None)
        assert is_fnef(twelve_lambda_minus_delta0(g)) == (True, None)
    ok, witness = is_fnef(from_coeffs(7, [11, 1, 0, 0, 0]))
    assert not ok and witness.tag == "C1"
    # b_1 = -1 with a large enough to keep C1 nonnegative: C3(1) is hit first
    ok, witness = is_fnef(from_coeffs(5, [12, 0, -1, 0]))
    assert not ok and witness.tag == "C3(1)"


def test_is_fnef_minimal_witness():
    # violates only C5(2,2) (and later classes), so the witness is C5(2,2)
    d = from_coeffs(8, [200, 10, 5, 1, 5, 3])
    ok, witness = is_fnef(d)
    assert not ok and witness.tag == "C5(2,2)"
    assert intersect(d, witness) == -1
    for rec in numerical_classes(8):
        if rec.curve.sort_key < witness.sort_key:
            assert intersect(d, rec.curve) >= 0


def _supports(rng, dim):
    """Coordinate sets of the divisors: empty (the zero class), {a}, {b_0},
    {a, b_0}, three random draws, and all of them."""
    out = [(), (0,), (1,), (0, 1)]
    for _ in range(3):
        out.append(tuple(sorted(rng.sample(range(dim), rng.randint(1, dim)))))
    return out + [tuple(range(dim))]


def _seeded_divisors(rng, g, per_support):
    """Divisors on each of ``_supports``; half the time a >= 12*b_0 and
    every b_i >= 0, so both verdicts come up often."""
    dim = as_context(g).dim
    for support in _supports(rng, dim):
        for _ in range(per_support):
            coeffs = [0] * dim
            for k in support:
                coeffs[k] = rand_fraction(rng)
            if support and rng.random() < 0.5:
                coeffs = [abs(c) for c in coeffs]
                coeffs[0] += 12 * coeffs[1]
            yield from_coeffs(g, coeffs)


def test_is_fnef_support_scan_matches_full_rows():
    """Pairing only the classes that meet the divisor's support, each on
    that support, gives the verdict and witness of pairing every class on
    every coordinate, and of scanning every class on the support."""
    rng = random.Random(311)
    verdicts = []
    for g in [*range(3, 41), 80, 120]:
        for d in _seeded_divisors(rng, g, 3 if g <= 40 else 1):
            got = is_fnef(d)
            assert got == full_scan_is_fnef(d) == full_row_is_fnef(d), (g, d.coeffs())
            verdicts.append(got[0])
    assert verdicts.count(True) > 200 and verdicts.count(False) > 200


def _interior_point(g):
    """Integer coordinates of a divisor positive on every class row:
    b_k = k(g - k) + 1 for k >= 1, b_0 above half of every b_k, a = 12 b_0."""
    b0 = g * g // 8 + 2
    return [12 * b0, b0] + [k * (g - k) + 1 for k in range(1, g // 2 + 1)]


def _pair(row, x):
    return sum(map(operator.mul, row, x))


def _only_negative_at(g, rec):
    """A divisor p - t * rec.row, with p from ``_interior_point``, that
    pairs negatively with exactly one class, or None on a tie.

    t lies halfway between the first two values at which a class row
    reaches 0 along the segment, so exactly the first class is negative.
    """
    p, r = _interior_point(g), rec.row
    cuts = sorted(
        (Fraction(_pair(c.row, p), _pair(c.row, r)), i)
        for i, c in enumerate(numerical_classes(g))
        if _pair(c.row, r) > 0
    )
    (t1, first), (t2, _) = cuts[0], (cuts[1:] or [(cuts[0][0] + 2, None)])[0]
    if t1 == t2:
        return None
    t = (t1 + t2) / 2
    return first, from_coeffs(g, [a - t * b for a, b in zip(p, r)])


def test_is_fnef_finds_a_late_only_negative_class():
    """Divisors negative against one C5 or C6 class near the end of the
    table, and nonnegative against every other class."""
    seen = 0
    for g in range(4, 41, 3):
        classes = numerical_classes(g)
        late = [rec for rec in classes if rec.curve.family in ("C5", "C6")][-3:]
        for rec in late:
            found = _only_negative_at(g, rec)
            if found is None:
                continue
            first, d = found
            x = d.coeffs()
            assert [i for i, c in enumerate(classes) if _pair(c.row, x) < 0] == [first]
            assert classes[first].curve.family in ("C5", "C6")
            assert is_fnef(d) == full_scan_is_fnef(d) == (False, classes[first].curve), (g, rec.tags)
            seen += 1
    assert seen >= 20


def _bounded_scan_divisors(g):
    """Divisors on the supports {a}, {b_0}, {a, b_0} and {a, b_0, b_k} for
    every k >= 1, and K and Delta, whose supports are every b and every
    coordinate."""
    ctx = as_context(g)
    yield parse_divisor("L", ctx)
    yield parse_divisor("-d0", ctx)
    yield parse_divisor("12L-d0", ctx)
    for k in range(1, g // 2 + 1):
        yield parse_divisor(f"13*L - d0 + 1/2*d{k}", ctx)
    yield canonical_class(ctx)
    yield boundary_total(ctx)


def test_is_fnef_matches_full_scan_on_small_and_full_supports():
    """Divisors whose supports meet few classes, or every class, get the
    verdict and witness of the scan of every class."""
    for g in [*range(3, 41), 80, 120]:
        for d in _bounded_scan_divisors(g):
            assert is_fnef(d) == full_scan_is_fnef(d), (g, d.coeffs())
    # a divisor supported on {a, b_0} meets 22 of the 881 classes at genus 40,
    # C1, C2 and the C4 classes (is_fnef answers it without the table): the
    # rows whose first nonzero slot is a or b_0
    rows = _table(40).rows
    assert (len(rows), sum(1 for slots, _ in rows if slots[0] <= 1)) == (881, 22)


@st.composite
def divisors_with_supports(draw):
    g = draw(st.integers(3, 40))
    dim = as_context(g).dim
    support = draw(st.sets(st.integers(0, dim - 1), max_size=dim))
    rationals = st.fractions(min_value=-8, max_value=8, max_denominator=5)
    coeffs = [draw(rationals) if k in support else 0 for k in range(dim)]
    if draw(st.booleans()):  # towards the cone: a >= 12 b_0, every b_i >= 0
        coeffs = [abs(c) for c in coeffs]
        coeffs[0] += 12 * coeffs[1]
    return from_coeffs(g, coeffs)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(divisors_with_supports())
def test_is_fnef_property_matches_full_scan(d):
    assert is_fnef(d) == full_scan_is_fnef(d)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 40), st.fractions(min_value=-30, max_value=30, max_denominator=5),
       st.fractions(min_value=-3, max_value=3, max_denominator=5))
@example(12, 0, 0)  # the zero divisor
@example(12, Fraction(23, 2), 1)  # a - 12 b_0 < 0 < b_0: witness C1
@example(12, Fraction(-25, 3), Fraction(-3, 4))  # a - 12 b_0 > 0 > b_0: witness C2
@example(12, Fraction(-9), Fraction(-3, 4))  # a - 12 b_0 = 0 > b_0: witness C2
@example(3, -5, Fraction(-1, 3))  # a - 12 b_0 < 0 and b_0 < 0: witness C1
@example(40, Fraction(18, 5), Fraction(3, 10))  # a - 12 b_0 = 0 < b_0: F-nef
def test_is_fnef_on_the_plane_of_a_and_b0_matches_full_scan(g, a, b0):
    """A divisor supported on a and b_0, whose verdict is read off
    a - 12 b_0 and b_0, gets the full scan's verdict and witness."""
    d = from_coeffs(g, [a, b0] + [0] * (as_context(g).dim - 2))
    assert is_fnef(d) == full_scan_is_fnef(d)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(divisors_with_supports())
def test_witness_values_match_intersect(d):
    """The witness values are d . C for C1, C2, C3(1..d-2), every zero the
    same object."""
    ctx = d.ctx
    witness = [curve(ctx.g, "C1"), curve(ctx.g, "C2")]
    witness += [curve(ctx.g, "C3", i) for i in range(1, ctx.dim - 1)]
    values = fcurves._witness_values(d, ctx)
    assert values == [intersect(d, c) for c in witness]
    assert all(type(v) is Fraction for v in values)
    assert len({id(v) for v in values if not v}) <= 1


def test_class_table_holds_rows_keys_and_tags():
    """The table keeps what the formulas give and nothing derived from the
    rows: one row, one representative key and one tag tuple per class.  Its
    rows and the witness rows are sparse: ascending slots, each below the
    dimension, and a nonzero coefficient at each, one per formula term at
    most."""
    assert fcurves._Table._fields == ("rows", "keys", "tags")
    for g in (3, 12, 40):
        table = _table(g)
        assert len({len(table.rows), len(table.keys), len(table.tags)}) == 1, g
        for slots, coeffs in (*table.rows, *fcurves._witness_rows(g)):
            assert sorted(set(slots)) == list(slots) and slots[-1] < as_context(g).dim
            assert 0 < len(slots) == len(coeffs) <= 7 and all(coeffs)


def test_class_objects_share_the_table_tuples(monkeypatch):
    """The objects, built on each call, keep no second copy of an index or
    a tag tuple, their representatives are the table's keys, and each dense
    row holds the table's sparse row."""
    built = spy_on_class_objects(monkeypatch)
    for g in (3, 12, 40):
        table = _table(g)
        for _ in range(2):
            del built[:]
            classes = numerical_classes(g)
            assert built == classes and len(classes) == len(table.rows), g
            for rec, key, row, tags in zip(classes, table.keys, table.rows, table.tags):
                assert (rec.curve.family, rec.curve.indices) == key
                assert rec.curve.indices is key[1] and rec.tags is tags
                assert rec.row == dense_row(row, as_context(g).dim)
        assert _table(g) is table


def test_certificate_builds_no_class_objects(monkeypatch):
    """verify_extremal_face at a genus not yet built builds neither the
    integer table nor an FCurveClass; the F-nef generators need no witness
    FCurve."""
    built = []
    post_init = fcurves.FCurve.__post_init__
    monkeypatch.setattr(fcurves.FCurve, "__post_init__", lambda c: built.append(c) or post_init(c))
    classes = spy_on_class_objects(monkeypatch)
    g = 97  # used by no other test
    table = _table.cache_info()
    cert = verify_extremal_face(g)
    assert cert.active_rank == as_context(g).dim - 2
    assert _table.cache_info() == table
    assert classes == []
    assert built == []
    # a failing query on the plane of a and b_0 builds its witness and no table
    ok, witness = is_fnef(from_coeffs(g, [1, 1] + [0] * (as_context(g).dim - 2)))
    assert not ok and built == [witness] and witness.tag == "C1"
    assert _table.cache_info() == table
    # one off the plane builds the table once and its witness from a table key
    ok, witness = is_fnef(from_coeffs(g, [1] + [0] * (as_context(g).dim - 2) + [-1]))
    assert not ok and built[1:] == [witness]
    assert _table.cache_info().misses == table.misses + 1
    assert classes == []


def _keys_tags_and_row_digest(table):
    """The table's keys and tags and a SHA-256 digest of its sparse rows,
    each hashed as its length, its slots and its coefficients: two tables at
    genus 240 would hold over 100 MB."""
    digest = hashlib.sha256()
    for slots, coeffs in table.rows:
        digest.update(array("q", (len(slots), *slots, *coeffs)).tobytes())
    return table.keys, table.tags, digest.digest()


def test_class_table_matches_hashed_reference():
    """The index rules give the rows, representative keys and member tags,
    in order, of grouping every curve on its hashed family-reduced row."""
    for g in [*range(3, 121), 160, 240]:
        # uncached and outside the assert, which would keep the table alive
        # for its report, so the test keeps no table of its own alive
        rules = _keys_tags_and_row_digest(_table.__wrapped__(g))
        assert rules == _keys_tags_and_row_digest(hashed_table(as_context(g))), g


def test_certificate_active_set_matches_hashed_reference(monkeypatch):
    """The active set read off the index rules is the set of classes that
    lambda + (12*lambda - delta_0) meets in 0, and no class table is built."""
    def fail(g):
        raise AssertionError(f"class table built at genus {g}")

    monkeypatch.setattr(fcurves, "_table", fail)
    for g in [*range(3, 121), 240]:
        assert verify_extremal_face(g).active_curves == hashed_active_curves(g), g


# -- the integer class table against a Fraction reference -------------------------


def oracle_vector(c):
    """(lambda . C, delta_0 . C, ...) from the six formulas written out here."""
    g, idx = c.ctx.g, c.indices
    h = g // 2
    out = [Fraction(0)] * (h + 2)

    def b(k, coeff):  # coeff * b_k in D . C, where b_k = -(delta_k coefficient)
        out[1 + min(k, g - k)] -= coeff

    if c.family == "C1":
        out[0] += Fraction(1, 12)
        b(0, -1)
        b(1, Fraction(1, 12))
    elif c.family == "C2":
        b(0, 1)
    elif c.family == "C3":
        b(idx[0], 1)
    elif c.family == "C4":
        b(0, 2)
        b(idx[0] + 1, -1)
    elif c.family == "C5":
        i, j = idx
        for k, coeff in ((i, 1), (j, 1), (i + j, -1)):
            b(k, coeff)
    else:
        i, j, k, l = idx
        for m, coeff in ((i, 1), (j, 1), (k, 1), (l, 1), (i + j, -1), (i + k, -1), (i + l, -1)):
            b(m, coeff)
    return tuple(out)


def test_class_table_matches_fraction_reference():
    for g in range(3, 41):
        groups = {}
        for c in enumerate_fcurves_raw(g):
            vector = intersection_vector(c)
            if g <= 12:
                assert vector == oracle_vector(c), c.tag
            groups.setdefault(vector, []).append(c)
        reference = sorted(
            ((sorted(members, key=lambda c: c.sort_key), vector)
             for vector, members in groups.items()),
            key=lambda item: item[0][0].sort_key,
        )
        records = numerical_classes(g)
        assert len(records) == len(reference), g
        for rec, (members, vector) in zip(records, reference):
            assert rec.curve == members[0]
            assert rec.tags == tuple(c.tag for c in members)
            assert rec.vector == vector
            assert primitive(ineq_row(rec.curve)) == rec.row
            assert all(type(x) is int for x in rec.row)


def test_class_table_matches_dense_reference(monkeypatch):
    """Grouping on family-reduced rows gives the classes, order, rows and
    tags of grouping on 12 * (D . C) and dividing every row by its gcd."""
    # an uncached table under the objects, so the test keeps no table of its
    # own alive
    monkeypatch.setattr(fcurves, "_table", _table.__wrapped__)
    for g in [*range(3, 81), 120]:
        assert tuple(numerical_classes(g)) == dense_classes(as_context(g)), g


def test_family_reduced_rows_are_primitive():
    """The reason the class table divides no row by its gcd: C1's reduced
    row has a = 1, and every other family's reduced coefficients sum to 1."""
    for family in FORMULAS:
        terms = _class_terms(family)
        if family == "C1":
            assert [c for c, const, _ in terms if const is None] == [1]
        else:
            assert all(const is not None for _, const, _ in terms)
            assert sum(c for c, _, _ in terms) == 1, family
