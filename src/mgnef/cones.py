"""Polyhedral cones over the rationals and the F-nef face certificate.

Cones carry an H-representation (inequality rows with provenance labels),
a V-representation (generators), or both.  Everything is exact; inequality
rows and rays are kept in primitive integer form (gcd 1, positive scaling)
so output is reproducible across runs and machines.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
from operator import mul
from typing import Sequence

from ._record import Record
from .divisors import (
    DivisorClass,
    as_context,
    delta,
    lambda_class,
    twelve_lambda_minus_delta0,
)
from .errors import (
    CertificateFailure,
    DimensionLimitError,
    GenusMismatchError,
    NotMemberError,
    NotPointedError,
)
from .fcurves import _class_index, _witness_values, is_fnef, numerical_classes
from .linalg import (
    QMatrix,
    _divide_gcd,
    _echelon,
    _reduce,
    clear_denominators,
    dot,
    primitive,
    vec,
)

DEFAULT_DIM_LIMIT = 8

_Row = tuple[int, ...]  # an inequality row or a ray, in primitive integer form


class PolyCone(Record):
    """Rational polyhedral cone with labelled inequalities.

    ``ineq_rows[i]`` is the functional of the constraint ``row . x >= 0``
    and ``labels[i]`` names where it came from (an F-curve tag, usually).
    """

    _fields = ("dim", "ineq_rows", "labels", "generators", "genus")

    def __init__(self, dim: int, ineq_rows: tuple[_Row, ...] = (), labels: tuple[str, ...] = (),
                 generators: tuple[_Row, ...] | None = None, genus: int | None = None):
        if labels and len(labels) != len(ineq_rows):
            raise ValueError("one label per inequality row")
        for r in ineq_rows:
            if len(r) != dim:
                raise ValueError("inequality row with the wrong length")
        if generators is not None:
            for g in generators:
                if len(g) != dim:
                    raise ValueError("generator with the wrong length")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "ineq_rows", ineq_rows)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "genus", genus)

    @classmethod
    def from_inequalities(cls, rows: Sequence[Sequence], labels=None, genus=None) -> "PolyCone":
        prim = tuple(primitive(vec(r)) for r in rows)
        dim = len(prim[0]) if prim else 0
        if labels is None:
            labels = tuple(f"ineq{i}" for i in range(len(prim)))
        return cls(dim, prim, tuple(labels), None, genus)

    @classmethod
    def from_generators(cls, gens: Sequence[Sequence], dim=None, genus=None) -> "PolyCone":
        prim = tuple(primitive(vec(g)) for g in gens)
        if dim is None:
            dim = len(prim[0]) if prim else 0
        return cls(dim, (), (), prim, genus)

    def contains(self, point) -> bool:
        # a positive multiple of the point is in the cone exactly when it is
        x, _ = _as_point(self, point)
        if self.ineq_rows:
            return all(sum(map(mul, r, x)) >= 0 for r in self.ineq_rows)
        if self.generators is None:
            raise ValueError("cone has neither inequalities nor generators")
        if self._simplicial is None:
            return _phase1(self.generators, x) is not None
        basis, cols, n, zero = self._simplicial  # (x | 0) reduces to (s*x - G*y | -y), s > 0
        if any(map(x.__getitem__, zero)):
            return False
        out = _reduce(x + (0,) * (len(cols) - n), basis, cols)
        return not any(out[:n]) and all(y <= 0 for y in out[n:])

    @cached_property
    def _simplicial(self):
        """For linearly independent generators g_j, which put every pivot of
        the rows (g_j | e_j) in the first ``dim`` columns: their echelon
        basis, its other columns but those where every g_j (so every basis
        row) is zero, how many of them are among the first ``dim``, and the
        zero columns, where a point reduces to itself; None otherwise."""
        k, gens = len(self.generators), self.generators
        basis = _echelon((*g, *(int(i == j) for i in range(k))) for j, g in enumerate(gens))
        if any(c >= self.dim for c in basis):
            return None
        zero = [c for c in range(self.dim) if not any(g[c] for g in gens)]
        cols = [c for c in range(self.dim + k) if c not in basis and c not in zero]
        return basis, cols, self.dim - len(basis) - len(zero), zero


def _as_point(cone: PolyCone, point) -> tuple[Sequence, int]:
    """Integers x and a positive s with point = x / s: a divisor's numerators
    and denominator, or the coordinates read as Fractions and cleared."""
    if isinstance(point, DivisorClass):
        if cone.genus is not None and point.ctx.g != cone.genus:
            raise GenusMismatchError(f"divisor genus {point.ctx.g} vs cone genus {cone.genus}")
        x, s = point.num, point.den
    else:
        x = tuple(v if v.__class__ in (int, Fraction) else Fraction(v) for v in point)
        x, s = clear_denominators(x), lcm(*(v.denominator for v in x))
    if len(x) != cone.dim:
        raise ValueError(f"point of length {len(x)} in a {cone.dim}-dimensional cone")
    return x, s


def fnef_cone(g) -> PolyCone:
    """H-rep of the F-nef cone: one inequality per numerical F-curve class."""
    ctx = as_context(g)
    classes = numerical_classes(ctx)
    rows = tuple(rec.row for rec in classes)
    labels = tuple(rec.curve.tag for rec in classes)
    return PolyCone(ctx.dim, rows, labels, None, ctx.g)


# -- exact nonnegative solving (Farkas direction) ----------------------------


def nonneg_combination(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> list[Fraction] | None:
    """Solve ``sum_j x_j * columns[j] = target`` with ``x >= 0`` exactly.

    Phase-1 simplex with Bland's rule and one artificial column per row
    that is nonzero in some column; returns one solution or None when the
    system is infeasible, at once when a row that is zero in every column
    has a nonzero target.  Each tableau row is a positive multiple of its
    rational row in ints, so a pivot is the echelon's elimination step,
    columns are priced and ratios compared in ints, and values are read
    over the row's basic entry.  Raises ValueError on a column of the
    wrong length."""
    solved = _phase1(columns, target)
    if solved is None:
        return None
    tableau, basis = solved
    n = len(columns)
    x = [Fraction(0)] * n
    for row, b in zip(tableau, basis):
        if b < n:
            x[b] = Fraction(row[-1], row[b])
    return x


def _phase1(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> tuple[list[list[int]], list[int]] | None:
    """The final tableau and basis of ``nonneg_combination``'s phase 1, or
    None when the system is infeasible; feasibility alone needs no
    solution read off them."""
    m, n = len(target), len(columns)
    for col in columns:
        if len(col) != m:
            raise ValueError(f"length mismatch: {len(col)} vs {m}")
    # a row that is zero in every column never pivots, and its artificial
    # column has reduced cost exactly 1, so it never enters: with a zero
    # target, leaving the row out keeps every pivot and the solution; with
    # any other target, no x solves the row.  The target is read through
    # Fraction, as the tableau reads it, so "0" counts as zero
    rows = []
    for row, t in zip(zip(*columns) if columns else [()] * m, target):
        if any(row):
            rows.append((*row, t))
        elif t and Fraction(t):
            return None
    m = len(rows)
    tableau: list[list[int]] = []
    for k, row in enumerate(rows):
        # the row flipped for a negative target and cleared of denominators
        # with its artificial entry, the row's basic entry (an int as it is)
        row = [x if x.__class__ is int else Fraction(x) for x in row]
        scale, sign = lcm(*(x.denominator for x in row)), -1 if row[-1] < 0 else 1
        *row, rhs = [sign * x.numerator * (scale // x.denominator) for x in row]
        tableau.append(row + [scale if j == k else 0 for j in range(m)] + [rhs])
    basis = list(range(n, n + m))
    while True:
        # every tableau row is a positive multiple of its rational row, so a
        # basic entry p is positive, and a reduced cost 1[j >= n] - sum of
        # row[j] / p over the artificial rows is negative exactly when the
        # sum of row[j] * (L / p) exceeds L * 1[j >= n], L the lcm of the p
        artificial = [(row, row[b]) for row, b in zip(tableau, basis) if b >= n]
        scale = lcm(*(p for _, p in artificial))
        artificial = [(row, scale // p) for row, p in artificial]
        # Bland's rule: the first column with a negative reduced cost enters
        entering = next(
            (j for j in range(n + m)
             if sum(row[j] * f for row, f in artificial if row[j]) > (scale if j >= n else 0)),
            None,
        )
        if entering is None:
            break
        # the smallest ratio rhs / entry over the positive entries, each an
        # integer over the lcm of those entries, then the smallest basic column
        positive = [i for i, row in enumerate(tableau) if row[entering] > 0]
        if not positive:
            raise RuntimeError("phase-1 objective cannot be unbounded")
        scale = lcm(*(tableau[i][entering] for i in positive))
        pivot_row = min(positive, key=lambda i: (
            tableau[i][-1] * (scale // tableau[i][entering]), basis[i]))
        pivot = {entering: tableau[pivot_row]}
        for i, row in enumerate(tableau):
            if i != pivot_row and row[entering]:
                tableau[i] = _divide_gcd(_reduce(row, pivot, range(n + m + 1)))
        basis[pivot_row] = entering
    if any(row[-1] for row, b in zip(tableau, basis) if b >= n):
        return None
    return tableau, basis


# -- extreme rays (double description) ---------------------------------------


def _dd_extreme_rays(A: Sequence[_Row], d: int) -> list[_Row]:
    """Double description run over inequality rows, each ray kept with
    the set of processed rows it lies on (its zero set).

    The rows after the start rows are taken in lexicographic order
    (Fukuda-Prodon's lexmin).  A (positive, negative) pair is adjacent iff
    the rows its rays share have rank d - 2, so a pair sharing fewer than
    d - 2 rows is skipped before that rank is taken.
    """
    # the pivot columns of the transpose are the first d independent rows
    start = sorted(_echelon(zip(*A)))
    if len(start) < d:
        raise NotPointedError("inequality rows do not have full rank")
    inv = QMatrix(d, d, tuple(chain.from_iterable(A[i] for i in start))).inverse()
    # column j of the inverse lies on every start row but the j-th
    rays = {primitive(inv.col(j)): frozenset(start[:j] + start[j + 1:]) for j in range(d)}
    for i in sorted(range(len(A)), key=A.__getitem__):
        if i in start:
            continue
        row = A[i]
        vals = {r: sum(map(mul, row, r)) for r in rays}
        pos = [r for r, v in vals.items() if v > 0]
        neg = [r for r, v in vals.items() if v < 0]
        new = {r: rays[r] | {i} if v == 0 else rays[r] for r, v in vals.items() if v >= 0}
        for rp in pos:
            for rn in neg:
                common = rays[rp] & rays[rn]
                if len(common) < d - 2:
                    continue
                # the size test is necessary, the rank test exact; a QMatrix rank,
                # not integer_rank: the traced benchmark counts these calls under
                # extreme_rays as its evidence that double description ran.  Built
                # from the int rows as they are, not through from_rows' Fractions
                rows = [A[k] for k in common]
                if QMatrix(len(rows), d, tuple(chain.from_iterable(rows))).rank() == d - 2:
                    r = primitive([vals[rp] * n - vals[rn] * p for p, n in zip(rp, rn)])
                    new[r] = common | {i}
        rays = new
    return sorted(rays)


def _check_dim_limit(dim: int, limit: int) -> None:
    if dim > limit:
        raise DimensionLimitError(f"dimension {dim} exceeds the ray enumeration limit {limit}")


def extreme_rays(cone: PolyCone, limit: int = DEFAULT_DIM_LIMIT) -> list[_Row]:
    """Primitive extreme rays, sorted lexicographically.

    H-rep cones run double description (pointed cones only, dimension at
    most ``limit``).  V-rep cones drop generators that are nonnegative
    combinations of the others.
    """
    if cone.ineq_rows:
        _check_dim_limit(cone.dim, limit)
        return _dd_extreme_rays(cone.ineq_rows, cone.dim)
    if cone.generators is not None:
        gens: list[_Row] = []
        for g in cone.generators:
            p = primitive(g)
            if any(p) and p not in gens:
                gens.append(p)
        out = []
        for i, g0 in enumerate(gens):
            others = [g for j, g in enumerate(gens) if j != i]
            if not others or nonneg_combination(others, g0) is None:
                out.append(g0)
        return sorted(out)
    raise ValueError("cone has neither inequalities nor generators")


# -- faces and certificates ---------------------------------------------------


class Check(Record):
    _fields = ("name", "ok", "detail")
    detail = ""


class FaceCertificate(Record):
    """Audit record for a face of a cone."""

    _fields = ("genus", "face_dim", "generators", "active_curves", "active_rank",
               "lemma_mat", "det", "checks")
    checks = ()

    def to_json_dict(self) -> dict:
        return {
            "genus": self.genus,
            "face_dim": self.face_dim,
            "generators": None
            if self.generators is None
            else [[str(x) for x in g] for g in self.generators],
            "active_curves": list(self.active_curves),
            "active_rank": self.active_rank,
            "lemma_matrix": None
            if self.lemma_mat is None
            else [[str(self.lemma_mat.entry(i, j)) for j in range(self.lemma_mat.ncols)]
                  for i in range(self.lemma_mat.nrows)],
            "det": None if self.det is None else str(self.det),
            "checks": [
                {"name": c.name, "pass": c.ok, "detail": c.detail} for c in self.checks
            ],
        }


def face_of(cone: PolyCone, point, limit: int = DEFAULT_DIM_LIMIT) -> FaceCertificate:
    """Smallest face of the cone containing the point.

    Raises NotMemberError when the point violates an inequality.  Spanning
    rays are reported when the face is pointed and its dimension is within
    ``limit``, else the generators field is None.
    """
    if not cone.ineq_rows:
        raise ValueError("face_of needs an inequality representation")
    x, s = _as_point(cone, point)
    labels = cone.labels or tuple(f"ineq{i}" for i in range(len(cone.ineq_rows)))
    active_idx: list[int] = []
    for i, row in enumerate(cone.ineq_rows):
        v = dot(row, x)
        if v < 0:
            raise NotMemberError(f"violates {labels[i]}: value {Fraction(v, s)}")
        if v == 0:
            active_idx.append(i)
    active_rows = [cone.ineq_rows[i] for i in active_idx]
    # an integer basis of the face's linear span, the kernel of the active
    # rows (the whole space when none is active); the face is the cone the
    # rows cut out in these coordinates
    kernel = QMatrix(len(active_rows), cone.dim, tuple(chain.from_iterable(active_rows)))
    span = [primitive(v) for v in kernel.kernel_basis()]
    face_dim = len(span)
    active_rank = cone.dim - face_dim
    restricted = [[dot(row, v) for v in span] for row in cone.ineq_rows]
    restricted = [primitive(r) for r in restricted if any(r)]
    gens: tuple[_Row, ...] | None
    if not restricted:  # the face is the origin or a linear subspace
        gens = () if face_dim == 0 else None
    else:
        try:
            sub = extreme_rays(PolyCone(face_dim, tuple(restricted)), limit)
            gens = tuple(sorted(primitive([dot(y, col) for col in zip(*span)]) for y in sub))
        except (DimensionLimitError, NotPointedError):
            gens = None
    # the lemma matrix certifies only the face spanned by lambda and
    # 12*lambda - delta_0
    mat = det = None
    if cone.genus is not None and gens == (
        primitive(lambda_class(cone.genus).num),
        primitive(twelve_lambda_minus_delta0(cone.genus).num),
    ):
        mat = lemma_matrix(cone.genus)
        det = mat.det()
    return FaceCertificate(
        genus=cone.genus,
        face_dim=face_dim,
        generators=gens,
        active_curves=tuple(labels[i] for i in active_idx),
        active_rank=active_rank,
        lemma_mat=mat,
        det=det,
    )


def lemma_matrix(g) -> QMatrix:
    """Pairing of {12*lambda, 12*lambda - delta_0, delta_1, ...} against
    the witness curves {C1, C2, C3(1), ...}, one row and one column per
    basis slot."""
    ctx = as_context(g)
    row_divs = [lambda_class(ctx).scale(12), twelve_lambda_minus_delta0(ctx)]
    row_divs += [delta(ctx, i) for i in range(1, ctx.dim - 1)]
    entries = tuple(v for dv in row_divs for v in _witness_values(dv, ctx))
    return QMatrix(len(row_divs), ctx.dim, entries)


def face_certificate(
    g,
    gen1: DivisorClass,
    gen2: DivisorClass,
    gen_labels: tuple[str, str] = ("first-generator", "second-generator"),
) -> FaceCertificate:
    """Certify that two divisor classes span a 2-dimensional extremal face
    of the F-nef cone.

    Runs the checks in order: F-nefness of both generators, the vanishing
    pattern on the witness curves {C1, C2, C3(1), ...}, and invertibility
    of the pairing matrix.  Raises CertificateFailure on the first violated
    one.

    Once they pass, the active set needs no pairing.  The vanishing checks
    give both generators b_i = 0 for i >= 1, gen1 b_0 = 0 and gen2
    a = 12 b_0, and F-nefness makes gen1's C1 value and gen2's C2 value,
    both nonzero, positive: gen1 is a*lambda and gen2 is
    b*(12*lambda - delta_0) with a, b > 0.  Their sum meets C1 in a/12, C2
    in b, every C4 in 2b and every other class in 0, as the C3, C5 and C6
    rows are zero on a and b_0.  Both generators being F-nef, a curve meets
    both in 0 exactly when it meets their sum in 0, so the active set is
    the representative of every C3, C5 and C6 class, in table order.

    Nor does its rank need a computation: each generator meets only its own
    witness curve, so the two are independent and the active rows, which
    vanish on both, have rank at most d - 2; the witness rows C3(1..d-2)
    are independent and active, so the rank is exactly d - 2.
    """
    ctx = as_context(g)
    d = ctx.dim
    checks: list[Check] = []

    for label, gen in zip(gen_labels, (gen1, gen2)):
        ok, w = is_fnef(gen)
        checks.append(Check(f"fnef:{label}", ok, "" if ok else f"negative against {w.tag}"))

    # each generator meets only its own witness curve, their sum meets both;
    # pairing the generators first refuses one of another genus before the sum
    values = [_witness_values(gen, ctx) for gen in (gen1, gen2)]
    combined = gen1 + gen2
    values.append(_witness_values(combined, ctx))
    for label, vals, nonzero in zip(
        (*gen_labels, "interior-combination"), values, ({0}, {1}, {0, 1})
    ):
        ok = all((v != 0) == (k in nonzero) for k, v in enumerate(vals))
        detail = "" if ok else f"witness values {[str(v) for v in vals]}"
        checks.append(Check(f"vanishing:{label}", ok, detail))

    mat = lemma_matrix(ctx)
    dt = mat.det()
    checks.append(Check("independence:lemma-matrix", dt != 0 and abs(dt) == 1, f"det = {dt}"))
    for c in checks:
        if not c.ok:
            raise CertificateFailure(c.name, c.detail)

    # the generators are positive multiples of lambda and 12*lambda - delta_0,
    # so the active classes are the C3, C5 and C6 classes (see above), and
    # the rank is d - 2
    keys, tags = _class_index(ctx.g)
    active = tuple(t[0] for (fam, _), t in zip(keys, tags) if fam in ("C3", "C5", "C6"))
    active_rank = d - 2
    checks.append(Check("face:active-rank", True, f"rank {active_rank}, expected {d - 2}"))
    return FaceCertificate(
        genus=ctx.g,
        face_dim=d - active_rank,
        generators=(primitive(gen1.num), primitive(gen2.num)),
        active_curves=active,
        active_rank=active_rank,
        lemma_mat=mat,
        det=dt,
        checks=tuple(checks),
    )


def verify_extremal_face(g) -> FaceCertificate:
    """Certificate for the face spanned by lambda and 12*lambda - delta_0."""
    ctx = as_context(g)
    return face_certificate(
        ctx,
        lambda_class(ctx),
        twelve_lambda_minus_delta0(ctx),
        ("lambda", "12lambda-delta0"),
    )
