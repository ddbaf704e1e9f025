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

from mgnef import NonSquareError, QMatrix, dot, primitive, primitive_oriented, vec
from mgnef.linalg import clear_denominators, integer_rank
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
    assert QMatrix.identity(3).rank() == 3
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
        assert QMatrix.from_rows(prod) == QMatrix.identity(4)
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
    assert primitive_oriented(vec([-2, -4])) == (1, 2)
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


# -- fraction-free rank against sympy ----------------------------------------------

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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rational_matrices())
def test_fraction_free_rank_matches_sympy(rows):
    want = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                         for r in rows]).rank()
    got = QMatrix.from_rows(rows).rank()
    assert type(got) is int and got == want
    direct = integer_rank(clear_denominators(r) for r in rows)
    assert type(direct) is int and direct == want
