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

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd
from operator import index, mul

from ._record import Record
from .divisors import DivisorClass, GenusContext, as_context
from .errors import GenusMismatchError, IndexOutOfRangeError
from .linalg import Vec

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

_ZERO = Fraction(0)  # shared by every zero witness value


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


@lru_cache(maxsize=None)
def _class_terms(family: str) -> tuple[tuple[int, int | None, tuple[int, ...]], ...]:
    """``_terms(family)`` divided by the gcd of its coefficients: 12 for
    C2..C6, 1 for C1.

    Every row built from them has gcd 1: C1's has a = 1, and the b entries
    of any other row sum to 1, since reflecting subscripts only merges
    terms and each family's reduced coefficients sum to 1.
    """
    terms = _terms(family)
    q = gcd(*(coeff for coeff, _, _ in terms))
    return tuple((coeff // q, const, pos) for coeff, const, pos in terms)


def _row(terms, indices: tuple[int, ...], g: int, slots: tuple[int, ...]):
    """The sum of the terms as a sparse row: the slots of (a, b_0, ...,
    b_{floor(g/2)}) where it is nonzero, ascending, and its coefficients there."""
    row = [0] * (g // 2 + 2)
    for coeff, const, pos in terms:
        if const is None:
            row[0] += coeff
        else:
            k = const
            for p in pos:
                k += indices[p]
            row[slots[k]] += coeff
    return tuple(compress(range(len(row)), row)), tuple(filter(None, row))


def _dense(row, n: int) -> tuple[int, ...]:
    """The sparse row as n integer coefficients."""
    out = [0] * n
    for s, coeff in zip(*row):
        out[s] = coeff
    return tuple(out)


@lru_cache(maxsize=None)
def _tag_format(family: str) -> str:
    """The tag of the family's curves as a %-format of their indices."""
    n = len(FORMULAS[family][0])
    return f"{family}({','.join(['%d'] * n)})" if n else family


class FCurve(Record):
    """One F-curve, stored with its raw (unreflected) indices as a tuple of ints."""

    _fields = ("ctx", "family", "indices")

    def __init__(self, ctx: GenusContext, family: str, indices=()):
        vars(self).update(ctx=ctx, family=family, indices=tuple(map(index, indices)))
        self.__post_init__()

    @classmethod
    def _of(cls, ctx: GenusContext, family: str, indices: tuple[int, ...]) -> "FCurve":
        """The curve of a class table key, valid already; it shares the key's tuple."""
        c = object.__new__(cls)
        vars(c).update(ctx=ctx, family=family, indices=indices)
        return c

    def __post_init__(self):
        g = self.ctx.g
        fam, idx = self.family, self.indices
        if fam not in FORMULAS:
            raise ValueError(f"unknown family {fam!r}")
        names = FORMULAS[fam][0]
        if len(idx) != len(names):
            raise IndexOutOfRangeError(f"{fam} takes the indices ({','.join(names)}), got {idx}")
        if fam == "C3" and not 1 <= idx[0] <= g - 2:
            raise IndexOutOfRangeError(f"C3 index {idx[0]} outside 1..{g - 2}")
        elif fam == "C4" and not 0 <= idx[0] <= g - 2:
            raise IndexOutOfRangeError(f"C4 index {idx[0]} outside 0..{g - 2}")
        elif fam == "C5" and (min(idx) < 1 or sum(idx) > g - 1):
            raise IndexOutOfRangeError(f"C5 indices {idx} need i,j >= 1, i+j <= {g - 1}")
        elif fam == "C6" and (min(idx) < 1 or sum(idx) != g):
            raise IndexOutOfRangeError(f"C6 indices {idx} must be >= 1 and sum to the genus {g}")

    @property
    def tag(self) -> str:
        return _tag_format(self.family) % self.indices

    @property
    def sort_key(self) -> tuple:
        return (int(self.family[1]), self.indices)

    def __str__(self) -> str:
        return self.tag


def ineq_row(c: FCurve) -> Vec:
    """Coefficients of D . C as a functional on (a, b_0, ..., b_{floor(g/2)})."""
    row = _row(_terms(c.family), c.indices, c.ctx.g, _slots(c.ctx.g))
    return tuple(Fraction(x, 12) for x in _dense(row, c.ctx.dim))


def _same_genus(d: DivisorClass, ctx: GenusContext) -> None:
    if d.ctx != ctx:
        raise GenusMismatchError(f"divisor genus {d.ctx.g} vs curve genus {ctx.g}")


def intersect(d: DivisorClass, c: FCurve) -> Fraction:
    """Intersection number of a divisor class with an F-curve, read off the
    coordinate of d that each term of the formula names."""
    _same_genus(d, c.ctx)
    slots, num, idx = _slots(c.ctx.g), d.num, c.indices
    return Fraction(sum(coeff * num[0 if k is None else slots[k + sum(map(idx.__getitem__, pos))]]
                        for coeff, k, pos in _terms(c.family)), 12 * d.den)


def _vector12(family: str, indices: tuple[int, ...], g: int) -> tuple[int, ...]:
    """12 * (lambda . C, delta_0 . C, ...): the row of 12 * (D . C), b negated."""
    slots, coeffs = _row(_terms(family), indices, g, _slots(g))
    return _dense((slots, [-x if s else x for s, x in zip(slots, coeffs)]), g // 2 + 2)


def intersection_vector(c: FCurve) -> Vec:
    """(lambda . C, delta_0 . C, ..., delta_{floor(g/2)} . C)."""
    return tuple(Fraction(x, 12) for x in _vector12(c.family, c.indices, c.ctx.g))


@lru_cache(maxsize=None)
def _witness_rows(g: int) -> tuple:
    """12 * (D . C) as sparse rows for the witness curves {C1, C2, C3(1), ..., C3(d-2)}."""
    curves = [("C1", ()), ("C2", ())] + [("C3", (i,)) for i in range(1, g // 2 + 1)]
    return tuple(_row(_terms(fam), idx, g, _slots(g)) for fam, idx in curves)


def _witness_values(d: DivisorClass, ctx: GenusContext) -> list[Fraction]:
    """d . C for the genus-ctx witness curves, one per basis slot: each
    sparse row paired with d's numerators, over 12 * d.den; every zero is one object."""
    _same_genus(d, ctx)
    at = d.num.__getitem__
    vals = [sum(map(mul, coeffs, map(at, slots))) for slots, coeffs in _witness_rows(ctx.g)]
    return [Fraction(v, 12 * d.den) if v else _ZERO for v in vals]


def _raw_indices(n: int):
    """(family, indices) of every curve at genus n, in sort-key order."""
    yield "C1", ()
    yield "C2", ()
    for i in range(1, n - 1):
        yield "C3", (i,)
    for i in range(0, n - 1):
        yield "C4", (i,)
    for i in range(1, n):
        for j in range(i, n - i):
            yield "C5", (i, j)
    # i <= j <= k <= l with i + j + k + l = n bounds i by n/4, j by (n-i)/3
    # and k by (n-i-j)/2
    for i in range(1, n // 4 + 1):
        for j in range(i, (n - i) // 3 + 1):
            for k in range(j, (n - i - j) // 2 + 1):
                yield "C6", (i, j, k, n - i - j - k)


def enumerate_fcurves_raw(g) -> list[FCurve]:
    """All curves with canonically ordered indices, before numerical merging.

    C5 is listed with i <= j and C6 with i <= j <= k <= l; permuted index
    tuples give the same curve, so only the sorted form is emitted.  Needs
    g >= 3, as every genus context does.
    """
    ctx = as_context(g)
    return [FCurve(ctx, fam, idx) for fam, idx in _raw_indices(ctx.g)]


class _Table(Record):
    """The class table of one genus as columns, in table order: the sparse
    primitive integer ``rows`` (see ``_row``); each class's representative
    ``keys``, (family, indices); and its member ``tags``, representative first."""

    _fields = ("rows", "keys", "tags")


def _class_index(g: int) -> tuple[tuple[tuple[str, tuple[int, ...]], ...],
                                  tuple[tuple[str, ...], ...]]:
    """Each class's representative key, (family, indices), and its member
    tags, representative first, as two columns in table order.

    Two curves have equal ``_class_terms`` rows exactly by these index
    rules, read off FORMULAS: C3(i) joins C3(g-i), as b_i is b_{g-i};
    C4(i) joins C4(g-2-i), as b_{i+1} is b_{g-1-i}; C5(i, j) joins the C3
    class of its other subscript when g-i-j is i or j, as b_{i+j} is then
    b_i or b_j and cancels it.  C1, C2 and C6 never merge: C1 alone has a
    nonzero a, C2 and C4 alone a nonzero b_0 (1 and 2), and the tests check
    that no other rows coincide against hashing every row, at every
    g = 3..120, 160 and 240.  Members come in sort-key order, so each
    class's first member has its smallest key, and classes come in the
    order of their representatives.
    """
    # classes at positions 0, 1 (C1, C2), 1 + s (C3(s), s = 1..g//2), then
    # 2 + g//2 + i (C4(i), i <= g-2-i); a curve that joins one appends its tag
    h = g // 2
    keys, members = [], []
    for fam, idx in _raw_indices(g):
        tag = _tag_format(fam) % idx
        if fam == "C3" and idx[0] > h:
            members[1 + g - idx[0]] += (tag,)
        elif fam == "C4" and idx[0] >= h:
            members[h + g - idx[0]] += (tag,)
        elif fam == "C5" and g - idx[0] - idx[1] in idx:
            r = 2 * (idx[0] + idx[1]) - g  # i + j - (g-i-j): the one not cancelled
            members[1 + min(r, g - r)] += (tag,)
        else:
            keys.append((fam, idx))
            members.append((tag,))
    return tuple(keys), tuple(members)


@lru_cache(maxsize=None)
def _table(g: int) -> _Table:
    # the rows are primitive already (see _class_terms)
    slots = _slots(g)
    keys, tags = _class_index(g)
    return _Table(tuple(_row(_class_terms(fam), idx, g, slots) for fam, idx in keys), keys, tags)


class FCurveClass(Record):
    """A numerical class of F-curves: representative, all tags, and the
    primitive integer form of its inequality row ``ineq_row(curve)``."""

    _fields = ("curve", "row", "tags")

    @property
    def vector(self) -> Vec:
        return intersection_vector(self.curve)


def numerical_classes(g) -> list[FCurveClass]:
    """Curves grouped by intersection vector, one representative per class.

    The representative is the curve whose (family, indices) key is smallest,
    so C4(0) represents the g = 3 class {C4(0), C4(1)}; a genus below 3
    raises UnsupportedGenusError from the genus context.  The objects and
    their dense rows are built on each call from the cached table, sharing
    its index and tag tuples.
    """
    ctx = as_context(g)
    t, n = _table(ctx.g), ctx.dim
    return [FCurveClass(FCurve._of(ctx, *key), _dense(row, n), tags)
            for key, row, tags in zip(t.keys, t.rows, t.tags)]


def enumerate_fcurves(g) -> list[FCurve]:
    """Distinct numerical F-curve classes, canonically sorted: the
    representatives of ``numerical_classes(g)``, so g >= 3."""
    return [rec.curve for rec in numerical_classes(g)]


def is_fnef(d: DivisorClass) -> tuple[bool, FCurve | None]:
    """Nonnegativity against every F-curve.

    Returns (True, None) or (False, witness) where the witness is the
    violated curve with the smallest (family, indices) key.  A divisor
    supported on a and b_0 meets C1 in (a - 12 b_0)/12, C2 in b_0, every
    C4 in 2 b_0 and every other class in 0, so its verdict and witness are
    read off a - 12 b_0 and b_0, with no class table.  Otherwise each
    class's sparse row is paired with d's numerators at its slots, in table
    order; a class off d's support pairs to 0 and is never a witness.
    """
    num = d.num
    if not any(num[2:]):
        if num[0] < 12 * num[1]:
            return False, FCurve(d.ctx, "C1")
        if num[1] < 0:
            return False, FCurve(d.ctx, "C2")
        return True, None
    t = _table(d.ctx.g)
    at = num.__getitem__
    for key, (slots, coeffs) in zip(t.keys, t.rows):
        if sum(map(mul, coeffs, map(at, slots))) < 0:
            return False, FCurve(d.ctx, *key)
    return True, None
