"""Shared generators for the test suite.  Deterministic: every test seeds
its own random.Random, so reruns produce identical values."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import groupby
from math import gcd
from operator import itemgetter, mul
from typing import Sequence

from mgnef import (
    BpfEntry,
    BpfReport,
    CertificateFailure,
    DivisorClass,
    FaceCertificate,
    FCurve,
    FCurveClass,
    ParseError,
    QMatrix,
    as_context,
    boundary_total,
    canonical_class,
    delta,
    face_member,
    from_coeffs,
    intersect,
    is_fnef,
    lambda_class,
    numerical_classes,
    primitive,
    reflect_index,
    twelve_lambda_minus_delta0,
)
from mgnef import torelli
from mgnef.cones import Check
from mgnef.fcurves import (
    _Table,
    _class_terms,
    _raw_indices,
    _row,
    _slots,
    _tag_format,
    _terms,
)
from mgnef.linalg import clear_denominators, integer_rank


def spy_on_class_objects(monkeypatch) -> list:
    """The list of every FCurveClass built from now on."""
    built = []
    init = FCurveClass.__init__
    monkeypatch.setattr(FCurveClass, "__init__",
                        lambda rec, *args: built.append(rec) or init(rec, *args))
    return built


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


# The reference for the support scan of mgnef.fcurves.is_fnef: every class
# in table order, each paired on the divisor's support.  Skipping the
# classes whose rows are zero on that support must give the same verdict
# and the same witness.
def full_scan_is_fnef(d):
    """(True, None), or (False, the first class whose row pairs negatively)."""
    x = clear_denominators(d.coeffs())
    support = [k for k, v in enumerate(x) if v]
    for rec in numerical_classes(d.ctx):
        if sum(rec.row[k] * x[k] for k in support) < 0:
            return False, rec.curve
    return True, None


# The references for DivisorClass arithmetic: every coefficient computed,
# zero or not.  Skipping the zeros must give equal coefficients of the same
# type.
def full_scale(d, c):
    c = Fraction(c)
    return DivisorClass(d.ctx, c * d.a, tuple(c * x for x in d.b))


def full_add(d, e):
    return DivisorClass(d.ctx, d.a + e.a, tuple(x + y for x, y in zip(d.b, e.b)))


def full_sub(d, e):
    return DivisorClass(d.ctx, d.a - e.a, tuple(x - y for x, y in zip(d.b, e.b)))


# The reference for the adjoint scan: m*D - (K + Delta) built and paired
# with every C3 at every grid point.  It pairs through ``torelli.intersect``,
# so a test that patches that name patches both scans.  Pairing K + Delta
# once and each face member once must give the same report.
def per_point_bpf_scan(ctx, m_values, alphas, betas) -> BpfReport:
    ctx = as_context(ctx)
    g = ctx.g
    adjoint = canonical_class(ctx) + boundary_total(ctx)
    c3_curves = [FCurve(ctx, "C3", (i,)) for i in range(1, g - 1)]

    symbolic_ok = all(x == 1 for x in adjoint.b[1:])
    points, deviations = 0, []
    for alpha in alphas:
        for beta in betas:
            member = face_member(ctx, alpha, beta)
            if any(x != 0 for x in member.b[1:]):
                symbolic_ok = False
            for m in m_values:
                dv = member.scale(m) - adjoint
                vals = tuple(torelli.intersect(dv, c) for c in c3_curves)
                points += 1
                if any(v != -1 for v in vals):
                    deviations.append(BpfEntry(int(m), Fraction(alpha), Fraction(beta), dv, vals))
    return BpfReport(g, points, tuple(deviations), symbolic_ok)


# The references for the face certificate: the lemma matrix built from
# ``intersect`` calls, and the certificate that pairs through ``intersect``
# and ranks every active row.  The integer pairings, and the active rank
# read off the vanishing checks and the lemma determinant, must give the
# same certificate, or the same failure.
def intersect_lemma_matrix(g) -> QMatrix:
    """Pairing of {12*lambda, 12*lambda - delta_0, delta_1, ...} against
    {C1, C2, C3(1), ...} through ``intersect``."""
    ctx = as_context(g)
    row_divs = [lambda_class(ctx).scale(12), twelve_lambda_minus_delta0(ctx)]
    row_divs += [delta(ctx, i) for i in range(1, ctx.dim - 1)]
    witness = [FCurve(ctx, "C1"), FCurve(ctx, "C2")]
    witness += [FCurve(ctx, "C3", (i,)) for i in range(1, ctx.dim - 1)]
    return QMatrix.from_rows([[intersect(dv, cv) for cv in witness] for dv in row_divs])


def full_rank_face_certificate(g, gen1, gen2, gen_labels=("first-generator", "second-generator")):
    """The face certificate with ``intersect`` values and the rank of
    every active row."""
    ctx = as_context(g)
    d = ctx.dim
    witness = [FCurve(ctx, "C1"), FCurve(ctx, "C2")]
    witness += [FCurve(ctx, "C3", (i,)) for i in range(1, d - 1)]
    checks = []
    for label, gen in zip(gen_labels, (gen1, gen2)):
        ok, w = is_fnef(gen)
        checks.append(Check(f"fnef:{label}", ok, "" if ok else f"negative against {w.tag}"))
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
    mat = intersect_lemma_matrix(ctx)
    dt = mat.det()
    checks.append(Check("independence:lemma-matrix", dt != 0 and abs(dt) == 1, f"det = {dt}"))
    x1, x2 = clear_denominators(gen1.coeffs()), clear_denominators(gen2.coeffs())
    active = [
        rec for rec in numerical_classes(ctx)
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


# The reference for mgnef.fcurves' class table: curves grouped on their
# 12 * (D . C) rows, and each row divided by its gcd.
def dense_classes(ctx) -> tuple[FCurveClass, ...]:
    groups = {}
    for fam, idx in _raw_indices(ctx.g):
        row12 = dense_row(_row(_terms(fam), idx, ctx.g, _slots(ctx.g)), ctx.dim)
        groups.setdefault(row12, []).append((fam, idx))
    records = []
    for row, members in groups.items():
        g = gcd(*row)
        records.append(FCurveClass(
            FCurve(ctx, *members[0]),
            tuple([x // g for x in row]),
            tuple(_tag_format(fam) % idx for fam, idx in members),
        ))
    return tuple(records)


# The reference for the index rules of mgnef.fcurves._table: every curve's
# family-reduced sparse row hashed, and the curves grouped on equal rows (a
# sparse row lists its nonzero slots in ascending order, so equal rows are
# equal tuples).  The rules must give the same rows, representative keys and
# member tags, in order.
def hashed_table(ctx) -> _Table:
    # curves come in sort-key order, so each group's first member is its
    # representative and the groups are in the order of their representatives.
    # C1 alone has a nonzero a and C2..C6 share the factor 12, so grouping on
    # family-reduced rows gives the groups of 12 * (D . C)
    g, slots = ctx.g, _slots(ctx.g)
    groups: dict[tuple[int, ...], list[str]] = {}
    keys = []
    for fam, curves in groupby(_raw_indices(g), itemgetter(0)):
        terms, tag = _class_terms(fam), _tag_format(fam)
        for key in curves:
            tags = groups.setdefault(_row(terms, key[1], g, slots), [])
            if not tags:
                keys.append(key)
            tags.append(tag % key[1])
    return _Table(tuple(groups), tuple(keys), tuple(map(tuple, groups.values())))


def dense_row(row, dim) -> tuple[int, ...]:
    """A sparse class table row, (slots, coefficients), as dim coefficients."""
    out = [0] * dim
    for slot, coeff in zip(*row):
        out[slot] = coeff
    return tuple(out)


# The reference for the active set of mgnef.verify_extremal_face: the classes
# of the hashed table whose dense rows, paired with lambda + (12*lambda -
# delta_0) on every coordinate, give 0.
def hashed_active_curves(g) -> tuple[str, ...]:
    ctx = as_context(g)
    table = hashed_table(ctx)
    x = (lambda_class(ctx) + twelve_lambda_minus_delta0(ctx)).num
    return tuple(tags[0] for row, tags in zip(table.rows, table.tags)
                 if not sum(map(mul, dense_row(row, ctx.dim), x)))


# The reference for the expression parser: the character scanner that the
# one-match-per-term parser replaced, with the two name readers of
# ``parse_divisor`` and ``parse_abelian``.  On every text both must give the
# same coordinates, or the same error with the same message and position.
def _read_int(text: str, pos: int) -> tuple[int, int]:
    """The decimal number starting at pos, and the position after it."""
    end = pos
    while end < len(text) and text[end].isdecimal():
        end += 1
    if end == pos:
        raise ParseError("expected a number", pos)
    if end - pos > 4300:  # CPython's default int/str limit, on every version
        raise ParseError("number longer than 4300 digits", pos)
    return int(text[pos:end]), end


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def scan_linear(text: str, dim: int, atom, what: str) -> list[Fraction]:
    """Coefficient vector of ``[+|-] term ([+|-] term)*`` over a basis.

    A term is a name, ``p/q * name`` or a bare ``0``.  ``atom(pos)`` returns
    the nonzero coordinates, as (index, value) pairs, of the name at pos and
    the position after it, or None; it runs before numbers are read, so a
    name may start with a digit.  ``what`` describes the names in errors.
    """
    total = [Fraction(0)] * dim
    pos = _skip_ws(text, 0)
    if pos == len(text):
        raise ParseError("empty divisor expression", pos)
    while pos < len(text):
        sign = -1 if text[pos] == "-" else 1
        if text[pos] in "+-":
            pos = _skip_ws(text, pos + 1)
        hit = atom(pos)
        if hit is None and text[pos : pos + 1].isdecimal():
            start = pos
            coeff, pos = _read_int(text, pos)
            if text.startswith("/", pos):
                den, end = _read_int(text, pos + 1)
                if den == 0:
                    raise ParseError("zero denominator", pos + 1)
                coeff, pos = Fraction(coeff, den), end
            pos = _skip_ws(text, pos)
            if text.startswith("*", pos):
                pos = _skip_ws(text, pos + 1)
                hit = atom(pos)
            elif not coeff:
                hit = (), pos  # a bare 0 adds nothing
            elif pos < len(text) and text[pos] not in "+-":
                raise ParseError("expected '*' after the coefficient", pos)
            else:
                raise ParseError("bare constant in a divisor expression", start)
            sign *= coeff
        if hit is None:
            raise ParseError(f"expected {what}", pos)
        coords, pos = hit
        for i, x in coords:
            total[i] += sign * x
        pos = _skip_ws(text, pos)
        if pos < len(text) and text[pos] not in "+-":
            raise ParseError("expected '+' or '-'", pos)
    return total


# shorthands in matching order; "12L-d0" is tried before numbers
SHORTHANDS = (
    ("12L-d0", twelve_lambda_minus_delta0),
    ("lambda", lambda_class),
    ("L", lambda_class),
    ("Delta", boundary_total),
    ("K", canonical_class),
)


def scan_divisor(text: str, g) -> list[Fraction]:
    """The coordinates (a, b_0, ..., b_{floor(g/2)}) of ``parse_divisor(text, g)``."""
    ctx = as_context(g)

    def nonzero(d):
        return tuple((i, x) for i, x in enumerate(d.coeffs()) if x)

    def atom(pos):
        for name, make in SHORTHANDS:
            if text.startswith(name, pos):
                return nonzero(make(ctx)), pos + len(name)
        if text.startswith("d", pos):
            k, end = _read_int(text, pos + 1)
            return nonzero(delta(ctx, reflect_index(k, ctx.g))), end
        return None

    return scan_linear(text, ctx.dim, atom, "a divisor name")


# nonzero coordinates of (a, b) in a*M - b*D, so D stores b = -1
_BASIS = {"M": ((0, 1),), "D": ((1, -1),)}


def scan_abelian(text: str) -> list[Fraction]:
    """The coordinates (a, b) of ``parse_abelian(text, model)``."""

    def atom(pos):
        coords = _BASIS.get(text[pos : pos + 1])
        return None if coords is None else (coords, pos + 1)

    return scan_linear(text, 2, atom, "basis class M or D")
