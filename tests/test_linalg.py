"""Exact linear algebra tests.

The oracles here (cofactor determinant, trailing-pivot rank) were written
before the implementation and share no code with it, so agreement between
the two routes is a real check.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mgnef import NonSquareError, QMatrix, dot, primitive, vec
from mgnef.linalg import _echelon, _reduce, clear_denominators, integer_rank
from helpers import rand_matrix_rows

# -- independent oracles ------------------------------------------------------


def cofactor_det(rows):
    """Determinant by expansion along the first row."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(rows[0][j]) * cofactor_det(minor)
    return total


def oracle_rank(rows):
    """Rank by elimination on trailing coefficients (a different pivot
    strategy from the implementation's leading-column sweep)."""
    basis = []
    for r in rows:
        r = [Fraction(x) for x in r]
        for b in basis:
            p = max(i for i, x in enumerate(b) if x != 0)
            if r[p] != 0:
                f = r[p] / b[p]
                r = [x - f * y for x, y in zip(r, b)]
        if any(x != 0 for x in r):
            basis.append(r)
    return len(basis)


def mat_mul(a_rows, b_rows):
    n, k, m = len(a_rows), len(b_rows), len(b_rows[0])
    assert len(a_rows[0]) == k
    return [
        [sum(a_rows[i][t] * b_rows[t][j] for t in range(k)) for j in range(m)]
        for i in range(n)
    ]


# -- frozen determinant and rank values ---------------------------------------


def test_det_frozen_values():
    assert QMatrix.from_rows([[2, 0], [0, 3]]).det() == 6
    assert QMatrix.from_rows([[1, 2], [3, 4]]).det() == -2
    assert QMatrix.from_rows([[1, 2], [2, 4]]).det() == 0
    assert QMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]]).det() == -3
    lower = [
        [Fraction(1, 2), 0, 0, 0],
        [0, 2, 0, 0],
        [1, 1, Fraction(1, 3), 0],
        [5, 2, 7, 3],
    ]
    assert QMatrix.from_rows(lower).det() == 1


def test_det_of_int_entries_is_an_exact_fraction():
    """A matrix built directly on int entries, not through ``from_rows``,
    has the same exact determinant: no step divides two ints into a float."""
    for n, entries in ((3, (2, 1, 1, 1, 3, 2, 1, 0, 0)), (2, (1, 2, 3, 4))):
        det = QMatrix(n, n, entries).det()
        expected = QMatrix.from_rows([entries[i:i + n] for i in range(0, n * n, n)]).det()
        assert type(det) is Fraction and det == expected, (entries, det)
    assert QMatrix(3, 3, (2, 1, 1, 1, 3, 2, 1, 0, 0)).det() == -1


def test_det_matches_cofactor_oracle():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = rand_matrix_rows(rng, n, n)
        assert QMatrix.from_rows(rows).det() == cofactor_det(rows)


def test_det_product_rule():
    rng = random.Random(102)
    for _ in range(40):
        a = rand_matrix_rows(rng, 3, 3)
        b = rand_matrix_rows(rng, 3, 3)
        lhs = QMatrix.from_rows(mat_mul(a, b)).det()
        rhs = QMatrix.from_rows(a).det() * QMatrix.from_rows(b).det()
        assert lhs == rhs


def test_det_requires_square():
    with pytest.raises(NonSquareError):
        QMatrix.from_rows([[1, 2, 3], [4, 5, 6]]).det()
    with pytest.raises(NonSquareError):
        QMatrix.from_rows([[1, 2, 3], [4, 5, 6]]).inverse()


def test_rank_frozen_values():
    assert QMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).rank() == 3
    assert QMatrix.from_rows([[0, 0], [0, 0]]).rank() == 0
    assert QMatrix.from_rows([[1, 2], [2, 4]]).rank() == 1
    assert QMatrix.from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 2]]).rank() == 2


def test_rank_matches_oracle_and_transpose():
    rng = random.Random(103)
    for _ in range(60):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = rand_matrix_rows(rng, n, m, lo=-3, hi=3)
        mat = QMatrix.from_rows(rows)
        assert mat.rank() == oracle_rank(rows)
        assert mat.rank() == mat.transpose().rank()


def test_rank_plus_kernel_dimension():
    rng = random.Random(104)
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        mat = QMatrix.from_rows(rand_matrix_rows(rng, n, m, lo=-3, hi=3))
        kernel = mat.kernel_basis()
        assert mat.rank() + len(kernel) == mat.ncols
        for v in kernel:
            assert all(x == 0 for x in mat.matvec(v))


def test_inverse_roundtrip():
    rng = random.Random(105)
    done = 0
    while done < 25:
        rows = rand_matrix_rows(rng, 4, 4)
        if cofactor_det(rows) == 0:
            continue
        inv = QMatrix.from_rows(rows).inverse()
        prod = mat_mul(rows, inv.rows())
        assert QMatrix.from_rows(prod) == QMatrix.from_rows(
            [[int(i == j) for j in range(4)] for i in range(4)])
        done += 1


def test_solve():
    mat = QMatrix.from_rows([[1, 2], [3, 4]])
    x = mat.solve([Fraction(5), Fraction(11)])
    assert mat.matvec(x) == (5, 11)
    inconsistent = QMatrix.from_rows([[1, 1], [2, 2]])
    assert inconsistent.solve([Fraction(1), Fraction(3)]) is None
    underdetermined = QMatrix.from_rows([[1, 1]])
    x = underdetermined.solve([Fraction(7)])
    assert sum(x) == 7


def test_primitive():
    assert primitive(vec([Fraction(1, 2), Fraction(-3, 4), 0])) == (2, -3, 0)
    assert primitive(vec([-2, -4])) == (-1, -2)
    assert primitive(vec([0, 0])) == (0, 0)
    rng = random.Random(106)
    for _ in range(40):
        v = vec([Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(4)])
        p = primitive(v)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert primitive(tuple(c * x for x in v)) == p
        if any(x != 0 for x in v):
            # positive scaling only: p must be a positive multiple of v
            i = next(i for i, x in enumerate(v) if x != 0)
            assert p[i] * v[i] > 0


def test_dot_length_mismatch():
    with pytest.raises(ValueError):
        dot(vec([1, 2]), vec([1, 2, 3]))


# -- fraction-free echelon against sympy -------------------------------------------

SMALL = st.integers(-2, 2).map(Fraction)
LARGE = st.builds(Fraction, st.integers(-10**15, 10**15), st.integers(1, 10**15))


@st.composite
def rational_matrices(draw):
    """Rows of rationals, small and large, followed by zero rows, repeated
    rows and rational multiples of rows; often more rows than columns."""
    ncols = draw(st.integers(1, 5))
    entry = st.one_of(SMALL, LARGE)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=3 * ncols))
    for kind in draw(st.lists(st.sampled_from(("zero", "repeat", "multiple")), max_size=4)):
        if kind == "zero":
            rows.append([Fraction(0)] * ncols)
        else:
            c = Fraction(1) if kind == "repeat" else draw(LARGE.filter(bool))
            rows.append([c * x for x in draw(st.sampled_from(rows))])
    return rows


def _sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rational_matrices())
def test_fraction_free_rank_matches_sympy(rows):
    want = _sympy(rows).rank()
    got = QMatrix.from_rows(rows).rank()
    assert type(got) is int and got == want
    direct = integer_rank(clear_denominators(r) for r in rows)
    assert type(direct) is int and direct == want


@st.composite
def square_matrices(draw):
    """Square rational matrices: as drawn, singular (one row replaced by a
    rational combination of two other rows, or by zeros when n = 1) or
    near-singular (that row off by 1/10^15 in one entry).  Extra zeros
    make the elimination swap rows."""
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.just(Fraction(0)), SMALL, LARGE)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    kind = draw(st.sampled_from(("drawn", "singular", "near-singular")))
    if kind != "drawn":
        i = draw(st.integers(0, n - 1))
        others = [r for m, r in enumerate(rows) if m != i] or [[Fraction(0)] * n]
        u, v = draw(st.sampled_from(others)), draw(st.sampled_from(others))
        c1, c2 = draw(entry), draw(entry)
        rows[i] = [c1 * x + c2 * y for x, y in zip(u, v)]
        if kind == "near-singular":
            rows[i][draw(st.integers(0, n - 1))] += Fraction(1, 10**15)
    return rows


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(square_matrices())
def test_det_matches_sympy(rows):
    got = QMatrix.from_rows(rows).det()
    assert type(got) is Fraction and got == _sympy(rows).det()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rational_matrices(), st.data())
def test_kernel_inverse_solve_match_sympy(rows, data):
    mat, ref = QMatrix.from_rows(rows), _sympy(rows)
    assert mat.kernel_basis() == [tuple(v) for v in ref.nullspace()]

    square = rows[-mat.ncols:]
    if len(square) == mat.ncols:
        ref_square = _sympy(square)
        if ref_square.det() == 0:
            with pytest.raises(ZeroDivisionError):
                QMatrix.from_rows(square).inverse()
        else:
            assert QMatrix.from_rows(square).inverse() == QMatrix.from_rows(ref_square.inv().tolist())

    # half the right hand sides are images A x, so consistent by construction
    if data.draw(st.booleans()):
        b = mat.matvec(data.draw(st.lists(SMALL, min_size=mat.ncols, max_size=mat.ncols)))
    else:
        b = tuple(data.draw(st.lists(SMALL, min_size=mat.nrows, max_size=mat.nrows)))
    x = mat.solve(b)
    consistent = ref.row_join(_sympy([[y] for y in b])).rank() == ref.rank()
    assert (x is not None) == consistent
    if consistent:
        assert mat.matvec(x) == b
        pivots = ref.rref()[1]
        assert all(x[c] == 0 for c in range(mat.ncols) if c not in pivots)


def test_echelon_pivots_are_positive():
    """A row whose reduction leads with a negative entry is stored negated,
    so reducing against the basis scales the reduced row by a positive
    number: [1, 0] meets the pivot 1 of [1, -1], not -1."""
    assert _echelon([(-2, 1, 0), (0, 0, 1)]) == {0: [2, -1, 0], 2: [0, 0, 1]}
    basis = _echelon([(-1, 1)])
    assert basis == {0: [1, -1]}
    assert _reduce([1, 0], basis, range(2)) == [0, 1]


@st.composite
def integer_rows(draw):
    """Small integer matrices with zero, repeated and negated rows, and one
    more row to reduce."""
    ncols = draw(st.integers(1, 5))
    row = st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=2 * ncols))
    for kind in draw(st.lists(st.sampled_from(("zero", "repeat", "negate")), max_size=3)):
        if kind == "zero" or not rows:
            rows.append([0] * ncols)
        else:
            c = 1 if kind == "repeat" else -1
            rows.append([c * x for x in draw(st.sampled_from(rows))])
    return rows, draw(row)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(integer_rows())
def test_echelon_pivots_positive_and_reduce_scales_positively(drawn):
    """Every pivot is positive, and ``_reduce`` returns s * row minus a
    combination of basis rows for some s > 0: on the row with a 1
    appended and basis rows with a 0 appended, s is the last entry."""
    rows, row = drawn
    basis = _echelon(rows)
    assert all(b[c] > 0 for c, b in basis.items())
    ncols = len(row)
    out = _reduce([*row, 1], {c: [*b, 0] for c, b in basis.items()}, range(ncols + 1))
    s = out[-1]
    assert s > 0
    assert all(out[c] == 0 for c in basis)
    rest = [s * x - y for x, y in zip(row, out)]
    assert integer_rank([*basis.values(), rest]) == len(basis)
