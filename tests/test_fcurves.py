"""F-curve enumeration and intersection formulas."""

import itertools
import random
from fractions import Fraction

import pytest

from mgnef import (
    FCurve,
    GenusMismatchError,
    IndexOutOfRangeError,
    UnsupportedGenusError,
    as_context,
    enumerate_fcurves,
    enumerate_fcurves_raw,
    from_coeffs,
    ineq_row,
    intersect,
    intersection_vector,
    is_fnef,
    lambda_class,
    numerical_classes,
    primitive,
    twelve_lambda_minus_delta0,
)
from helpers import rand_divisor


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


def test_genus_mismatch():
    with pytest.raises(GenusMismatchError):
        intersect(lambda_class(5), curve(6, "C2"))


# -- enumeration ----------------------------------------------------------------


@pytest.mark.parametrize("g, raw", [(2, 2), (3, 6), (4, 10), (5, 14), (12, 68)])
def test_raw_counts(g, raw):
    assert len(enumerate_fcurves_raw(g)) == raw


def test_raw_counts_monotone():
    counts = [len(enumerate_fcurves_raw(g)) for g in range(2, 21)]
    assert counts == sorted(counts)


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
    assert [c.tag for c in enumerate_fcurves(2)] == ["C1", "C4(0)"]
    with pytest.raises(UnsupportedGenusError):
        numerical_classes(2)


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
