"""Shared generators for the test suite.  Deterministic: every test seeds
its own random.Random, so reruns produce identical values."""

from __future__ import annotations

import random
from fractions import Fraction
from operator import mul
from typing import Sequence

from mgnef import as_context, from_coeffs, numerical_classes
from mgnef.linalg import clear_denominators


def rand_fraction(rng: random.Random, lo=-6, hi=6, max_den=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_nonneg_fraction(rng: random.Random, hi=6, max_den=4) -> Fraction:
    return Fraction(rng.randint(0, hi), rng.randint(1, max_den))


def rand_divisor(rng: random.Random, g, lo=-6, hi=6):
    ctx = as_context(g)
    return from_coeffs(ctx, [rand_fraction(rng, lo, hi) for _ in range(ctx.dim)])


def rand_matrix_rows(rng: random.Random, nrows, ncols, lo=-5, hi=5):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(ncols)] for _ in range(nrows)]


def assert_no_floats(obj) -> None:
    """Walk a decoded JSON payload and fail on any float."""
    assert not isinstance(obj, float), f"float {obj!r} in JSON payload"
    if isinstance(obj, dict):
        for k, v in obj.items():
            assert_no_floats(k)
            assert_no_floats(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            assert_no_floats(v)


def assert_rational_strings_canonical(obj) -> None:
    """Every string that looks like p/q must be in lowest terms."""
    if isinstance(obj, str):
        import re

        if re.fullmatch(r"-?\d+(/\d+)?", obj):
            assert str(Fraction(obj)) == obj, f"{obj!r} not in lowest terms"
    elif isinstance(obj, dict):
        for v in obj.values():
            assert_rational_strings_canonical(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            assert_rational_strings_canonical(v)


# The reference for mgnef.cones.nonneg_combination: the same phase-1
# simplex on a Fraction tableau, which the integer rows must match pivot
# for pivot, so both return the same solution or None.
def fraction_nonneg_combination(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> list[Fraction] | None:
    """Solve ``sum_j x_j * columns[j] = target`` with ``x >= 0`` exactly.

    Phase-1 simplex with Bland's rule over Fractions; returns one solution
    or None when the system is infeasible.
    """
    m = len(target)
    n = len(columns)
    tableau: list[list[Fraction]] = []
    for i in range(m):
        row = [Fraction(columns[j][i]) for j in range(n)]
        rhs = Fraction(target[i])
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        tableau.append(row + [Fraction(1 if k == i else 0) for k in range(m)] + [rhs])
    basis = [n + i for i in range(m)]
    total = n + m
    while True:
        in_basis_artificial = [i for i in range(m) if basis[i] >= n]
        entering = None
        for j in range(total):
            cost = Fraction(1 if j >= n else 0)
            reduced = cost - sum(tableau[i][j] for i in in_basis_artificial)
            if reduced < 0:
                entering = j
                break
        if entering is None:
            break
        pivot_row = None
        pivot_key = None
        for i in range(m):
            if tableau[i][entering] > 0:
                key = (tableau[i][-1] / tableau[i][entering], basis[i])
                if pivot_key is None or key < pivot_key:
                    pivot_key, pivot_row = key, i
        if pivot_row is None:
            raise RuntimeError("phase-1 objective cannot be unbounded")
        pv = tableau[pivot_row][entering]
        tableau[pivot_row] = [x / pv for x in tableau[pivot_row]]
        for i in range(m):
            if i != pivot_row and tableau[i][entering] != 0:
                f = tableau[i][entering]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], tableau[pivot_row])]
        basis[pivot_row] = entering
    if sum(tableau[i][-1] for i in range(m) if basis[i] >= n) != 0:
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i][-1]
    return x


# The reference for mgnef.fcurves.is_fnef: each class row paired with the
# divisor on every coordinate.  Pairing only on the divisor's support must
# give the same verdict and the same smallest-key witness.
def full_row_is_fnef(d):
    """(True, None), or (False, the first class whose row pairs negatively)."""
    x = clear_denominators(d.coeffs())
    for rec in numerical_classes(d.ctx):
        if sum(map(mul, rec.row, x)) < 0:
            return False, rec.curve
    return True, None
