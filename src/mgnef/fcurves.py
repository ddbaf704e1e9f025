"""F-curves and their intersection numbers with divisor classes.

The six families of one-parameter degenerations are labelled C1..C6:

    C1            varying elliptic tail
    C2            varying point on a fixed component
    C3(i)         elliptic bridge between parts of genus i and g-i-1
    C4(i)         four-pointed rational spine, parts of genus i and g-i-1
    C5(i, j)      two moving nodes, parts of genus i and j
    C6(i, j, k, l)  four parts attached to a rational cross, i+j+k+l = g

Their intersection numbers against D = a*lambda - sum b_i delta_i live in
one place, the ``FORMULAS`` table below, as integer coefficients of
12 * (D . C).  Everything else is derived from it: ``intersect``,
``intersection_vector``, ``ineq_row``, the cached class table and the
CLI's symbolic table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul

from .divisors import DivisorClass, GenusContext, as_context
from .errors import GenusMismatchError, IndexOutOfRangeError, UnsupportedGenusError
from .linalg import Vec, clear_denominators

# 12 * (D . C) for D = a*lambda - sum_k b_k delta_k: per family, the names
# of its indices and the terms (coefficient, coordinate).  A coordinate is
# "a" or b with a subscript that is a constant, an index name, or a sum of
# these, read through the reflection k -> min(k, g-k) (Gibney-Keel-Morrison,
# Towards the ample cone of M_{g,n}, 2002).
FORMULAS = {
    "C1": ("", ((1, "a"), (-12, "b0"), (1, "b1"))),
    "C2": ("", ((12, "b0"),)),
    "C3": ("i", ((12, "b_i"),)),
    "C4": ("i", ((24, "b0"), (-12, "b_{i+1}"))),
    "C5": ("ij", ((12, "b_i"), (12, "b_j"), (-12, "b_{i+j}"))),
    "C6": ("ijkl", ((12, "b_i"), (12, "b_j"), (12, "b_k"), (12, "b_l"),
                    (-12, "b_{i+j}"), (-12, "b_{i+k}"), (-12, "b_{i+l}"))),
}


@lru_cache(maxsize=None)
def _terms(family: str) -> tuple[tuple[int, int | None, tuple[int, ...]], ...]:
    """FORMULAS terms as (coefficient, constant, index positions): the
    subscript of b is the constant plus the indices at those positions, and
    a constant of None stands for the coordinate a."""
    names, terms = FORMULAS[family]
    out = []
    for coeff, coord in terms:
        if coord == "a":
            out.append((coeff, None, ()))
            continue
        parts = coord[1:].strip("_{}").split("+")
        const = sum(int(p) for p in parts if p.isdigit())
        out.append((coeff, const, tuple(names.index(p) for p in parts if not p.isdigit())))
    return tuple(out)


@lru_cache(maxsize=None)
def _slots(g: int) -> tuple[int, ...]:
    """Position of b_k in (a, b_0, ..., b_{floor(g/2)}) for k = 0..g."""
    return tuple(1 + min(k, g - k) for k in range(g + 1))


def _row12(family: str, indices: tuple[int, ...], g: int) -> tuple[int, ...]:
    """12 * (D . C) as integer coefficients on (a, b_0, ..., b_{floor(g/2)})."""
    row, slots = [0] * (g // 2 + 2), _slots(g)
    for coeff, const, pos in _terms(family):
        if const is None:
            row[0] += coeff
        else:
            k = const
            for p in pos:
                k += indices[p]
            row[slots[k]] += coeff
    return tuple(row)


def _tag(family: str, indices: tuple[int, ...]) -> str:
    return f"{family}({','.join(map(str, indices))})" if indices else family


@dataclass(frozen=True)
class FCurve:
    """One F-curve, stored with its raw (unreflected) indices."""

    ctx: GenusContext
    family: str
    indices: tuple[int, ...] = ()

    def __post_init__(self):
        g = self.ctx.g
        fam, idx = self.family, self.indices
        if fam not in FORMULAS:
            raise ValueError(f"unknown family {fam!r}")
        names = FORMULAS[fam][0]
        if len(idx) != len(names):
            raise IndexOutOfRangeError(f"{fam} takes the indices ({','.join(names)}), got {idx}")
        if fam == "C2" and g < 3:
            raise UnsupportedGenusError("C2 needs genus >= 3")
        elif fam == "C3" and not 1 <= idx[0] <= g - 2:
            raise IndexOutOfRangeError(f"C3 index {idx[0]} outside 1..{g - 2}")
        elif fam == "C4" and not 0 <= idx[0] <= g - 2:
            raise IndexOutOfRangeError(f"C4 index {idx[0]} outside 0..{g - 2}")
        elif fam == "C5" and (min(idx) < 1 or sum(idx) > g - 1):
            raise IndexOutOfRangeError(f"C5 indices {idx} need i,j >= 1, i+j <= {g - 1}")
        elif fam == "C6" and (min(idx) < 1 or sum(idx) != g):
            raise IndexOutOfRangeError(f"C6 indices {idx} must be >= 1 and sum to the genus {g}")

    @property
    def tag(self) -> str:
        return _tag(self.family, self.indices)

    @property
    def sort_key(self) -> tuple:
        return (int(self.family[1]), self.indices)

    def __str__(self) -> str:
        return self.tag


def ineq_row(c: FCurve) -> Vec:
    """Coefficients of D . C as a functional on (a, b_0, ..., b_{floor(g/2)})."""
    return tuple(Fraction(x, 12) for x in _row12(c.family, c.indices, c.ctx.g))


def intersect(d: DivisorClass, c: FCurve) -> Fraction:
    """Intersection number of a divisor class with an F-curve."""
    if d.ctx != c.ctx:
        raise GenusMismatchError(f"divisor genus {d.ctx.g} vs curve genus {c.ctx.g}")
    row = _row12(c.family, c.indices, c.ctx.g)
    return sum((x * y for x, y in zip(row, d.coeffs()) if x), Fraction(0)) / 12


def intersection_vector(c: FCurve) -> Vec:
    """(lambda . C, delta_0 . C, ..., delta_{floor(g/2)} . C)."""
    row = _row12(c.family, c.indices, c.ctx.g)
    return (Fraction(row[0], 12),) + tuple(Fraction(-x, 12) for x in row[1:])


def _raw_indices(n: int):
    """(family, indices) of every curve at genus n, in sort-key order."""
    yield "C1", ()
    if n >= 3:
        yield "C2", ()
    for i in range(1, n - 1):
        yield "C3", (i,)
    for i in range(0, n - 1):
        yield "C4", (i,)
    for i in range(1, n):
        for j in range(i, n - i):
            yield "C5", (i, j)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for k in range(j, n + 1):
                l = n - i - j - k
                if l >= k:
                    yield "C6", (i, j, k, l)


def enumerate_fcurves_raw(g) -> list[FCurve]:
    """All curves with canonically ordered indices, before numerical merging.

    C5 is listed with i <= j and C6 with i <= j <= k <= l; permuted index
    tuples give the same curve, so only the sorted form is emitted.
    """
    ctx = as_context(g)
    return [FCurve(ctx, fam, idx) for fam, idx in _raw_indices(ctx.g)]


@dataclass(frozen=True)
class FCurveClass:
    """A numerical class of F-curves: representative, all tags, and the
    primitive integer form of its inequality row ``ineq_row(curve)``."""

    curve: FCurve
    row: tuple[int, ...]
    tags: tuple[str, ...]

    @property
    def vector(self) -> Vec:
        return intersection_vector(self.curve)


@lru_cache(maxsize=None)
def _classes_cached(ctx: GenusContext) -> tuple[FCurveClass, ...]:
    # curves come in sort-key order, so each group's first member is its
    # representative and the groups are in the order of their representatives
    groups: dict[tuple[int, ...], list[tuple[str, tuple[int, ...]]]] = {}
    for fam, idx in _raw_indices(ctx.g):
        groups.setdefault(_row12(fam, idx, ctx.g), []).append((fam, idx))
    records = []
    for row, members in groups.items():
        g = gcd(*row)
        records.append(FCurveClass(
            FCurve(ctx, *members[0]),
            tuple([x // g for x in row]),
            tuple(_tag(fam, idx) for fam, idx in members),
        ))
    return tuple(records)


def numerical_classes(g) -> list[FCurveClass]:
    """Curves grouped by intersection vector, one representative per class.

    The representative is the curve whose (family, indices) key is smallest,
    so C4(0) represents the g = 3 class {C4(0), C4(1)}.  Needs g >= 3.
    """
    ctx = as_context(g)
    ctx.require_basis()
    return list(_classes_cached(ctx))


def enumerate_fcurves(g) -> list[FCurve]:
    """Distinct numerical F-curve classes, canonically sorted.

    For g = 2 the raw family list is returned (the lambda/delta basis is
    not available there, so no numerical merging applies).
    """
    ctx = as_context(g)
    if ctx.g == 2:
        return enumerate_fcurves_raw(ctx)
    return [rec.curve for rec in numerical_classes(ctx)]


def is_fnef(d: DivisorClass) -> tuple[bool, FCurve | None]:
    """Nonnegativity against every F-curve.

    Returns (True, None) or (False, witness) where the witness is the
    violated curve with the smallest (family, indices) key.
    """
    x = clear_denominators(d.coeffs())
    for rec in numerical_classes(d.ctx):
        if sum(map(mul, rec.row, x)) < 0:
            return False, rec.curve
    return True, None
