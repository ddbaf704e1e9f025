"""Exact linear algebra over the rationals.

Everything here works on tuples of ``fractions.Fraction`` or ``int`` and
never touches floating point.  Pivot selection is deterministic: the first
nonzero entry in row order wins, so results are reproducible across runs
and machines.  Rank runs on integers only, through ``integer_rank``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import NonSquareError

Vec = tuple[Fraction, ...]


def vec(values: Iterable) -> Vec:
    return tuple(Fraction(v) for v in values)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c: Fraction, v: Vec) -> Vec:
    return tuple(c * a for a in v)


def is_zero_vec(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)


def clear_denominators(v: Sequence[Fraction]) -> tuple[int, ...]:
    """The vector times the lcm of its denominators, as ints.

    The scale is positive, so every sign and every zero is kept.
    """
    denom = lcm(*(a.denominator for a in v))
    return tuple(a.numerator * (denom // a.denominator) for a in v)


def primitive(v: Sequence[Fraction]) -> Vec:
    """Scale by a positive rational to integer entries with gcd 1.

    Positive scaling only, so the direction of the vector is preserved.
    The zero vector maps to itself.
    """
    return tuple(Fraction(n) for n in _divide_gcd(clear_denominators(v)))


def _divide_gcd(v: Sequence[int]) -> list[int]:
    g = gcd(*v) or 1
    return [x // g for x in v]


def _reduce(row: Sequence[int], basis: dict[int, list[int]], cols: Sequence[int]) -> list[int]:
    """A positive multiple of ``row`` minus basis rows that cancels it at
    every pivot column, on the columns ``cols`` only.

    Basis rows are zero at every pivot column but their own, so the row
    meets only the pivots where it is nonzero.
    """
    s, out = 1, [row[j] for j in cols]
    for c, b in basis.items():
        if row[c]:
            f, p = s * row[c], b[c]
            out = [p * x - f * b[j] for x, j in zip(out, cols)]
            s *= p
    return out


def integer_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination.

    The basis is kept in reduced echelon form with each row divided by the
    gcd of its entries (the gcd variant of Bareiss's integer-preserving
    elimination).  A row is in the span exactly when its reduction vanishes
    on the non-pivot columns, so only those are computed for it unless it
    adds a pivot.
    """
    basis: dict[int, list[int]] = {}  # pivot column -> row
    free: list[int] = []
    for n, row in enumerate(rows):
        if not n:
            free = list(range(len(row)))
        if not any(_reduce(row, basis, free)):
            continue
        r = _divide_gcd(_reduce(row, basis, range(len(row))))
        lead = next(c for c, x in enumerate(r) if x)
        for c, b in basis.items():
            if b[lead]:
                basis[c] = _divide_gcd(_reduce(b, {lead: r}, range(len(b))))
        basis[lead] = r
        free.remove(lead)
    return len(basis)


def primitive_oriented(v: Sequence[Fraction]) -> Vec:
    """Primitive form with the first nonzero entry made positive."""
    p = primitive(v)
    for a in p:
        if a != 0:
            return p if a > 0 else tuple(-x for x in p)
    return p


@dataclass(frozen=True)
class QMatrix:
    """Immutable rational matrix, row major."""

    nrows: int
    ncols: int
    entries: tuple[Fraction, ...]

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

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls.from_rows(
            [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        )

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

    def _rref(self) -> tuple[list[list[Fraction]], list[int]]:
        """Reduced row echelon form; returns (rows, pivot column list)."""
        m = [list(self.row(i)) for i in range(self.nrows)]
        pivots: list[int] = []
        r = 0
        for c in range(self.ncols):
            p = next((i for i in range(r, self.nrows) if m[i][c] != 0), None)
            if p is None:
                continue
            m[r], m[p] = m[p], m[r]
            inv = 1 / m[r][c]
            m[r] = [inv * x for x in m[r]]
            for i in range(self.nrows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.nrows:
                break
        return m, pivots

    def rank(self) -> int:
        return integer_rank(clear_denominators(self.row(i)) for i in range(self.nrows))

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
                    f = m[i][c] / m[c][c]
                    m[i] = [x - f * y for x, y in zip(m[i], m[c])]
        return result

    def kernel_basis(self) -> list[Vec]:
        """Basis of the right kernel, one vector per free column."""
        m, pivots = self._rref()
        free = [c for c in range(self.ncols) if c not in pivots]
        basis: list[Vec] = []
        for f in free:
            v = [Fraction(0)] * self.ncols
            v[f] = Fraction(1)
            for r, c in enumerate(pivots):
                v[c] = -m[r][f]
            basis.append(tuple(v))
        return basis

    def inverse(self) -> "QMatrix":
        if self.nrows != self.ncols:
            raise NonSquareError(f"{self.nrows}x{self.ncols} matrix has no inverse")
        n = self.nrows
        aug = QMatrix.from_rows(
            [list(self.row(i)) + [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
        )
        m, pivots = aug._rref()
        if pivots[:n] != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return QMatrix.from_rows([r[n:] for r in m])

    def solve(self, b: Sequence[Fraction]) -> Vec | None:
        """One solution of ``A x = b``, or None when inconsistent."""
        if len(b) != self.nrows:
            raise ValueError("right hand side has the wrong length")
        aug = QMatrix.from_rows(
            [list(self.row(i)) + [Fraction(b[i])] for i in range(self.nrows)]
        )
        m, pivots = aug._rref()
        if self.ncols in pivots:
            return None
        x = [Fraction(0)] * self.ncols
        for r, c in enumerate(pivots):
            x[c] = m[r][self.ncols]
        return tuple(x)
