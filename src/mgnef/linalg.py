"""Exact linear algebra over the rationals.

Everything here works on tuples of ``fractions.Fraction`` or ``int`` and
never touches floating point.  One fraction-free echelon, ``_echelon``,
serves rank, kernel, inverse and solve: it clears each row's denominators
and reduces the integer rows to a reduced echelon basis, unique up to row
scaling, so results are reproducible across runs and machines.  The
determinant is the only other elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from ._record import Record
from .errors import NonSquareError

Vec = tuple[Fraction, ...]


def vec(values: Iterable) -> Vec:
    return tuple(Fraction(v) for v in values)


def dot(u: Sequence[Fraction | int], v: Sequence[Fraction | int]) -> Fraction | int:
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def clear_denominators(v: Sequence[Fraction | int]) -> tuple[int, ...]:
    """The vector times the lcm of its denominators, as ints.

    The scale is positive, so every sign and every zero is kept.
    """
    denom = lcm(*(a.denominator for a in v))
    return tuple(a.numerator * (denom // a.denominator) for a in v)


def primitive(v: Sequence[Fraction | int]) -> tuple[int, ...]:
    """Scale by a positive rational to integer entries with gcd 1.

    Positive scaling only, so the direction of the vector is preserved.
    The zero vector maps to itself.
    """
    return tuple(_divide_gcd(clear_denominators(v)))


def _divide_gcd(v: Sequence[int]) -> list[int]:
    g = gcd(*v) or 1
    return [x // g for x in v]


def _reduce(row: Sequence[int], basis: dict[int, list[int]], cols: Sequence[int]) -> list[int]:
    """A positive multiple of ``row`` minus basis rows that cancels it at
    every pivot column, on the columns ``cols`` only.

    Basis rows are zero at every pivot column but their own, so the row
    meets only the pivots where it is nonzero; their pivots are positive,
    as ``_echelon`` makes them, so the multiple is.
    """
    s, out = 1, [row[j] for j in cols]
    for c, b in basis.items():
        if row[c]:
            f, p = s * row[c], b[c]
            out = [p * x - f * b[j] for x, j in zip(out, cols)]
            s *= p
    return out


def _echelon(rows: Iterable[Sequence[int]]) -> dict[int, list[int]]:
    """Reduced echelon basis of the row space of an integer matrix, as a
    map from pivot column to row, by fraction-free elimination.

    Each basis row is zero before its pivot and at every other pivot, and
    is divided by the gcd of its entries (the gcd variant of Bareiss's
    integer-preserving elimination) and has a positive pivot, so the basis
    is the reduced row echelon form up to positive row scaling.  A row is
    in the span exactly when its reduction vanishes on the non-pivot
    columns, so only those are computed for it unless it adds a pivot.
    """
    basis: dict[int, list[int]] = {}
    free: list[int] = []
    for n, row in enumerate(rows):
        if not n:
            free = list(range(len(row)))
        if not any(_reduce(row, basis, free)):
            continue
        r = _divide_gcd(_reduce(row, basis, range(len(row))))
        lead = next(c for c, x in enumerate(r) if x)
        if r[lead] < 0:
            r = [-x for x in r]
        for c, b in basis.items():
            if b[lead]:
                basis[c] = _divide_gcd(_reduce(b, {lead: r}, range(len(b))))
        basis[lead] = r
        free.remove(lead)
    return basis


def integer_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix."""
    return len(_echelon(rows))


class QMatrix(Record):
    """Immutable rational matrix, row major."""

    _fields = ("nrows", "ncols", "entries")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "QMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[Fraction] = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(Fraction(x) for x in r)
        return cls(nrows, ncols, tuple(flat))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.ncols + j]

    def row(self, i: int) -> Vec:
        return self.entries[i * self.ncols : (i + 1) * self.ncols]

    def col(self, j: int) -> Vec:
        return tuple(self.entry(i, j) for i in range(self.nrows))

    def rows(self) -> list[Vec]:
        return [self.row(i) for i in range(self.nrows)]

    def transpose(self) -> "QMatrix":
        return QMatrix.from_rows([self.col(j) for j in range(self.ncols)])

    def matvec(self, v: Sequence[Fraction]) -> Vec:
        return tuple(dot(self.row(i), v) for i in range(self.nrows))

    def rank(self) -> int:
        return len(_echelon(map(clear_denominators, self.rows())))

    def det(self) -> Fraction:
        if self.nrows != self.ncols:
            raise NonSquareError(f"{self.nrows}x{self.ncols} matrix has no determinant")
        m = [list(self.row(i)) for i in range(self.nrows)]
        result = Fraction(1)
        for c in range(self.ncols):
            p = next((i for i in range(c, self.nrows) if m[i][c] != 0), None)
            if p is None:
                return Fraction(0)
            if p != c:
                m[c], m[p] = m[p], m[c]
                result = -result
            result *= m[c][c]
            for i in range(c + 1, self.nrows):
                if m[i][c] != 0:
                    f = Fraction(m[i][c], m[c][c])  # exact for int entries too
                    m[i] = [x - f * y for x, y in zip(m[i], m[c])]
        return result

    def kernel_basis(self) -> list[Vec]:
        """Basis of the right kernel, one vector per free column."""
        basis = _echelon(map(clear_denominators, self.rows()))
        return [
            tuple(Fraction(-basis[c][f], basis[c][c]) if c in basis else Fraction(c == f)
                  for c in range(self.ncols))
            for f in range(self.ncols) if f not in basis
        ]

    def inverse(self) -> "QMatrix":
        if self.nrows != self.ncols:
            raise NonSquareError(f"{self.nrows}x{self.ncols} matrix has no inverse")
        n = self.nrows
        # each row followed by the unit matrix's row
        basis = _echelon(clear_denominators(r + (0,) * i + (1,) + (0,) * (n - 1 - i))
                         for i, r in enumerate(self.rows()))
        if any(c >= n for c in basis):
            raise ZeroDivisionError("matrix is singular")
        return QMatrix(n, n, tuple(Fraction(x, basis[i][i])
                                   for i in range(n) for x in basis[i][n:]))

    def solve(self, b: Sequence[Fraction]) -> Vec | None:
        """One solution of ``A x = b``, or None when inconsistent.

        The solution is zero at every non-pivot column."""
        if len(b) != self.nrows:
            raise ValueError("right hand side has the wrong length")
        basis = _echelon(clear_denominators(r + (Fraction(x),)) for r, x in zip(self.rows(), b))
        if self.ncols in basis:
            return None
        x = [Fraction(0)] * self.ncols
        for c, r in basis.items():
            x[c] = Fraction(r[self.ncols], r[c])
        return tuple(x)
