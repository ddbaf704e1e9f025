"""Cone engine: double description vs brute force, exact LP, certificates."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgnef import (
    PERFECT,
    SATAKE,
    CertificateFailure,
    DimensionLimitError,
    GenusMismatchError,
    NotMemberError,
    NotPointedError,
    PolyCone,
    QMatrix,
    dot,
    extreme_rays,
    face_certificate,
    face_member,
    face_of,
    fnef_cone,
    from_coeffs,
    lambda_class,
    lemma_matrix,
    nonneg_combination,
    parse_divisor,
    primitive,
    pullback_nef_cone,
    twelve_lambda_minus_delta0,
    verify_extremal_face,
    zero_divisor,
)
from mgnef import cones
from mgnef.linalg import integer_rank
from helpers import (
    fraction_nonneg_combination,
    full_rank_face_certificate,
    intersect_lemma_matrix,
    rand_divisor,
    rand_fraction,
    rand_nonneg_fraction,
)

# -- independent brute-force ray oracle ----------------------------------------


def brute_force_rays(rows, d):
    """Extreme rays by kernel vectors of (d-1)-subsets of the inequalities.

    A candidate with a rank d-1 active subset that satisfies every
    inequality is an extreme ray, and every extreme ray arises this way.
    """
    rays = set()
    for sub in itertools.combinations(range(len(rows)), d - 1):
        mat = QMatrix.from_rows([list(rows[i]) for i in sub])
        if mat.rank() != d - 1:
            continue
        (kern,) = mat.kernel_basis()
        for cand in (kern, tuple(-x for x in kern)):
            if all(dot(r, cand) >= 0 for r in rows):
                rays.add(primitive(cand))
    return sorted(rays)


def test_genus3_rays_frozen():
    cone = fnef_cone(3)
    rays = extreme_rays(cone)
    assert rays == [(1, 0, 0), (10, 1, 2), (12, 1, 0)]
    assert rays == brute_force_rays(cone.ineq_rows, cone.dim)


# g = 8 is left out: its brute force over (d-1)-subsets takes about 30 s
@pytest.mark.parametrize("g", [3, 4, 5, 6, 7])
def test_dd_matches_brute_force(g):
    cone = fnef_cone(g)
    rays = extreme_rays(cone)
    assert rays == brute_force_rays(cone.ineq_rows, cone.dim)
    # extreme-ray criterion: active rows have rank exactly dim - 1
    for r in rays:
        active = [row for row in cone.ineq_rows if dot(row, r) == 0]
        assert QMatrix.from_rows([list(a) for a in active]).rank() == cone.dim - 1


@pytest.mark.parametrize("g", [3, 4, 5, 6, 7])
def test_lambda_and_boundary_ray_present(g):
    rays = set(extreme_rays(fnef_cone(g)))
    assert primitive(lambda_class(g).coeffs()) in rays
    assert primitive(twelve_lambda_minus_delta0(g).coeffs()) in rays


def test_dd_insertion_order_independence():
    rng = random.Random(401)
    for g in (3, 4):
        cone = fnef_cone(g)
        baseline = extreme_rays(cone)
        order = list(range(len(cone.ineq_rows)))
        for _ in range(5):
            rng.shuffle(order)
            shuffled = PolyCone(
                cone.dim,
                tuple(cone.ineq_rows[i] for i in order),
                tuple(cone.labels[i] for i in order),
            )
            assert extreme_rays(shuffled) == baseline


def test_dd_ranks_only_pairs_sharing_d_minus_2_rows(monkeypatch):
    cone = fnef_cone(10)
    sizes = []
    rank = QMatrix.rank

    def counted(self):
        sizes.append(self.nrows)
        return rank(self)

    monkeypatch.setattr(QMatrix, "rank", counted)
    extreme_rays(cone)
    # every pair sharing fewer rows was skipped; testing every pair takes 4028
    assert sizes and min(sizes) >= cone.dim - 2
    assert len(sizes) < 500


def test_dd_ranks_the_integer_rows_as_they_are(monkeypatch):
    """At genus 10 double description takes 207 ranks, as the README says,
    each of a matrix of the class table's ints, and reads no row through
    QMatrix.from_rows."""
    cone = fnef_cone(10)
    entries = []
    rank = QMatrix.rank

    def counted(self):
        entries.append(self.entries)
        return rank(self)

    def refused(cls, rows):
        raise AssertionError("QMatrix.from_rows called")

    monkeypatch.setattr(QMatrix, "rank", counted)
    monkeypatch.setattr(QMatrix, "from_rows", classmethod(refused))
    extreme_rays(cone)
    assert len(entries) == 207
    assert {x.__class__ for e in entries for x in e} == {int}


def test_dd_rank_test_needed_beyond_the_size_test():
    # pairs whose rays share d - 2 = 1 row without being adjacent: dropping
    # the rank test also yields (-6, -5, -11) and (-3, 1, -2)
    rows = [(-1, 1, 0), (-1, 1, -1), (-2, -1, 1), (0, 0, 0), (0, -1, -1), (1, 1, -1)]
    rays = extreme_rays(PolyCone.from_inequalities(rows))
    assert rays == [(-2, 1, -1), (-1, -1, -3), (-1, -1, -2), (-1, 1, -1)]
    assert rays == brute_force_rays(rows, 3)


def test_not_pointed_and_dimension_limit():
    with pytest.raises(NotPointedError):
        extreme_rays(PolyCone.from_inequalities([[1, 0], [-1, 0]]))
    with pytest.raises(NotPointedError):
        extreme_rays(PolyCone.from_inequalities([[1, 0]]))
    with pytest.raises(DimensionLimitError):
        extreme_rays(fnef_cone(14))
    with pytest.raises(DimensionLimitError):
        extreme_rays(fnef_cone(3), limit=2)


@st.composite
def small_cones(draw):
    """Dimension d = 2..5 and d to d + 7 rows with entries in -3..3, with
    repeated rows and zero rows inserted at drawn positions."""
    d = draw(st.integers(2, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=d, max_size=d + 7))
    for kind in draw(st.lists(st.sampled_from(("zero", "repeat")), max_size=3)):
        extra = (0,) * d if kind == "zero" else draw(st.sampled_from(rows))
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return d, rows


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(small_cones())
def test_dd_matches_brute_force_on_small_cones(cone_rows):
    d, rows = cone_rows
    cone = PolyCone.from_inequalities(rows)
    if integer_rank(cone.ineq_rows) < d:
        with pytest.raises(NotPointedError):
            extreme_rays(cone)
    else:
        assert extreme_rays(cone) == brute_force_rays(cone.ineq_rows, d)


def test_vrep_extreme_filter():
    cone = PolyCone.from_generators([[1, 0], [0, 1], [1, 1], [2, 0]])
    assert extreme_rays(cone) == [(0, 1), (1, 0)]


# -- exact LP -------------------------------------------------------------------


def test_nonneg_combination_frozen():
    cols = [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))]
    sol = nonneg_combination(cols, (Fraction(3), Fraction(1)))
    assert sol == [2, 1]
    assert nonneg_combination(cols, (Fraction(1), Fraction(2))) is None
    assert nonneg_combination([], (Fraction(0), Fraction(0))) == []
    assert nonneg_combination([], (Fraction(1), Fraction(0))) is None


def test_nonneg_combination_reconstructs():
    rng = random.Random(402)
    cols = [
        (Fraction(1), Fraction(0), Fraction(2)),
        (Fraction(0), Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(1), Fraction(0)),
    ]
    for _ in range(30):
        coeffs = [rand_nonneg_fraction(rng) for _ in cols]
        target = tuple(
            sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(3)
        )
        sol = nonneg_combination(cols, target)
        assert sol is not None
        assert all(x >= 0 for x in sol)
        rebuilt = tuple(
            sum(c * col[i] for c, col in zip(sol, cols)) for i in range(3)
        )
        assert rebuilt == target


def test_nonneg_combination_refuses_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch: 3 vs 2"):
        nonneg_combination([(1, 0, 5)], (1, 0))
    with pytest.raises(ValueError, match="length mismatch: 1 vs 2"):
        nonneg_combination([(1, 0), (1,)], (1, 0))


def _with_degenerate_parts(cols, m, kinds, pick):
    """Insert zero or repeated columns, or zero a row of every column."""
    cols = [list(c) for c in cols]
    for kind in kinds:
        if kind == "zero-column":
            cols.insert(pick(len(cols) + 1), [0] * m)
        elif kind == "repeat" and cols:
            cols.insert(pick(len(cols) + 1), list(cols[pick(len(cols))]))
        elif kind == "zero-row" and m:
            i = pick(m)
            for c in cols:
                c[i] = 0
    return cols


def _rand_lp(rng):
    """Columns with entries p/q in -4..4 (a third of them 0), degenerate
    parts inserted, and a target that is either a nonnegative combination
    of the columns or drawn like an entry (negative, zero or positive)."""
    m, n = rng.randint(0, 5), rng.randint(0, 6)

    def entry():
        return 0 if rng.random() < 0.3 else rand_fraction(rng, -4, 4, 4)

    kinds = rng.choices(("zero-column", "repeat", "zero-row"), k=rng.randint(0, 2))
    cols = _with_degenerate_parts([[entry() for _ in range(m)] for _ in range(n)], m,
                                  kinds, rng.randrange)
    if cols and rng.random() < 0.5:
        w = [rand_nonneg_fraction(rng, 4, 3) for _ in cols]
        return cols, [sum(x * c[i] for x, c in zip(w, cols)) for i in range(m)]
    return cols, [entry() for _ in range(m)]


def test_nonneg_combination_matches_fraction_tableau():
    rng = random.Random(409)
    solved = infeasible = 0
    for _ in range(2000):
        cols, target = _rand_lp(rng)
        sol = nonneg_combination(cols, target)
        assert sol == fraction_nonneg_combination(cols, target)
        solved += sol is not None
        infeasible += sol is None
    assert solved > 500 and infeasible > 500
    # all-int systems, whose rows are their own numerators
    for _ in range(500):
        cols, target = _rand_lp(rng)
        cols = [[int(4 * x) for x in c] for c in cols]
        target = [int(4 * x) for x in target]
        assert nonneg_combination(cols, target) == fraction_nonneg_combination(cols, target)
    # the last case has rows of different scales, so an artificial entry
    # not scaled with its row changes the pivots
    for cols, target in [([], []), ([], [0, 0]), ([], [1, 0]), ([], [0, -2]),
                         ([(0, 0), (0, 0)], [0, 0]), ([(1, 0), (1, 0)], [-1, 0]),
                         ([(Fraction(1, 2), 0), (Fraction(1, 2), 0)], [3, 0]),
                         ([(-1, 0), (Fraction(-1, 2), 1), (1, 1)], [Fraction(3, 2), 3])]:
        assert nonneg_combination(cols, target) == fraction_nonneg_combination(cols, target)


def _with_zero_rows(cols, target, rng):
    """The LP with one to three rows that are zero in every column and in
    the target inserted at seeded positions, one of them between two rows
    of the LP when it has two, so the rows after it shift."""
    rows = [list(r) for r in zip(*cols)] if cols else [[] for _ in target]
    rows = [r + [t] for r, t in zip(rows, target)]
    if len(rows) >= 2:
        rows.insert(rng.randint(1, len(rows) - 1), [0] * (len(cols) + 1))
    for _ in range(rng.randint(0 if len(rows) >= 2 else 1, 2)):
        rows.insert(rng.randint(0, len(rows)), [0] * (len(cols) + 1))
    return [list(c) for c in zip(*(r[:-1] for r in rows))], [r[-1] for r in rows]


def test_nonneg_combination_leaves_out_zero_rows():
    rng = random.Random(413)
    solved = 0
    for _ in range(1000):
        cols, target = _rand_lp(rng)
        padded_cols, padded_target = _with_zero_rows(cols, target, rng)
        assert len(padded_target) > len(target)
        assert all(len(c) == len(padded_target) for c in padded_cols)
        sol = nonneg_combination(padded_cols, padded_target)
        assert sol == nonneg_combination(cols, target)
        assert sol == fraction_nonneg_combination(padded_cols, padded_target)
        solved += sol is not None
    assert 250 < solved < 750


def test_nonneg_combination_refuses_a_zero_row_with_a_nonzero_target_unpivoted(monkeypatch):
    """The third row is 0 in the column and 1 in the target, so no x solves
    it: the refusal comes before any pivot, while the first two rows alone
    pivot through ``_reduce``."""
    calls = []
    reduce = cones._reduce
    monkeypatch.setattr(cones, "_reduce", lambda *args: calls.append(args) or reduce(*args))
    assert nonneg_combination([(1, 1)], (1, 1)) == [1] and calls
    calls.clear()
    cols, target = [(1, 1, 0)], (1, 1, 1)
    assert nonneg_combination(cols, target) is None
    assert calls == []
    assert fraction_nonneg_combination(cols, target) is None


def test_nonneg_combination_reads_strings_and_floats_as_the_tableau_does():
    """Entries are read through Fraction: a target "0" is zero (a truthy
    string, not a refusal), and floats and strings give the answers of
    their exact values."""
    assert nonneg_combination([(0,)], ("0",)) == [Fraction(0)]
    assert nonneg_combination([(0, 0)], ("0", "0/3")) == [Fraction(0)]
    assert nonneg_combination([("0",)], ("1",)) is None
    assert nonneg_combination([(0,)], (0.5,)) is None
    assert nonneg_combination([(0.5, 0)], (0.25, "0")) == [Fraction(1, 2)]
    cases = [([("1/2", 1.0), (1, "-1/4")], ("3/2", 0.5)),
             ([(0.25, 0, "1")], ("1/8", 0.0, 0.5)),
             ([(1, 0), ("0", 1)], (-1.5, "2"))]
    for cols, target in cases:
        assert nonneg_combination(cols, target) == fraction_nonneg_combination(cols, target)
    assert [nonneg_combination(cols, target) for cols, target in cases] == [
        [Fraction(7, 9), Fraction(10, 9)], [Fraction(1, 2)], None]
    assert PolyCone.from_generators([(1, 0)]).contains(["1/2", "0"])
    assert not PolyCone.from_generators([(1, 0)]).contains(["1/2", 0.5])
    h = PolyCone.from_inequalities([(1, -12), (0, 1)])
    assert h.contains(["25/2", 1.0]) and h.contains([0.5, "0"])
    assert not h.contains([11.5, "1"]) and not h.contains(["1/3", -0.25])


_entries = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def small_lps(draw):
    """m = 0..5 rows and 0..6 columns with degenerate parts inserted at
    drawn positions; the target is a nonnegative combination of the
    columns or drawn entry by entry."""
    m = draw(st.integers(0, 5))
    cols = draw(st.lists(st.lists(_entries, min_size=m, max_size=m), max_size=6))
    kinds = draw(st.lists(st.sampled_from(("zero-column", "repeat", "zero-row")), max_size=3))
    cols = _with_degenerate_parts(cols, m, kinds, lambda k: draw(st.integers(0, k - 1)))
    if cols and draw(st.booleans()):
        w = draw(st.lists(st.fractions(0, 4, max_denominator=3), min_size=len(cols),
                          max_size=len(cols)))
        return cols, [sum(x * c[i] for x, c in zip(w, cols)) for i in range(m)]
    return cols, draw(st.lists(_entries, min_size=m, max_size=m))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(small_lps())
def test_nonneg_combination_matches_fraction_tableau_property(lp):
    cols, target = lp
    assert nonneg_combination(cols, target) == fraction_nonneg_combination(cols, target)


@pytest.mark.parametrize("g", [3, 4])
def test_membership_agreement_h_vs_v(g):
    cone = fnef_cone(g)
    vcone = PolyCone.from_generators(extreme_rays(cone), dim=cone.dim)
    rng = random.Random(403 + g)
    points = []
    for _ in range(200):
        points.append(tuple(rand_fraction(rng) for _ in range(cone.dim)))
    for _ in range(20):
        coeffs = [rand_nonneg_fraction(rng) for _ in vcone.generators]
        points.append(
            tuple(
                sum(c * r[i] for c, r in zip(coeffs, vcone.generators))
                for i in range(cone.dim)
            )
        )
    agree_members = 0
    for p in points:
        h = cone.contains(p)
        v = vcone.contains(p)
        assert h == v, p
        agree_members += h
    assert agree_members >= 20  # the planted members are recognized


def test_membership_refuses_a_divisor_of_another_genus():
    # genera 40 and 41 share the dimension 22, so only the genus tells them apart
    d = parse_divisor("L", 41)
    for cone in (pullback_nef_cone(PERFECT, 40), fnef_cone(40)):
        assert cone.dim == d.ctx.dim
        with pytest.raises(GenusMismatchError, match="divisor genus 41 vs cone genus 40"):
            cone.contains(d)
    with pytest.raises(GenusMismatchError):
        face_of(fnef_cone(40), d)
    # the same genus, bare coordinates and a cone without a genus still pass
    assert pullback_nef_cone(PERFECT, 41).contains(d)
    assert fnef_cone(40).contains(d.coeffs())
    assert PolyCone.from_generators([d.coeffs()]).contains(d)


def test_membership_of_a_divisor_matches_its_coordinates():
    """``contains`` reads a divisor as its integer numerators: H-rep and V-rep
    cones give the same answer for the divisor and for its coordinates,
    and a model's nef cone gives the exact answer for a coordinate pair."""
    rng = random.Random(2103)
    for g in range(3, 41):
        cones = [fnef_cone(g), pullback_nef_cone(PERFECT, g), pullback_nef_cone(SATAKE, g)]
        points = [rand_divisor(rng, g) for _ in range(4)]
        points += [face_member(g, rand_nonneg_fraction(rng) * rng.randint(0, 1),
                               rand_nonneg_fraction(rng) * rng.randint(0, 1)) for _ in range(4)]
        points += [d - lambda_class(g).scale(rand_nonneg_fraction(rng)) for d in points[4:]]
        for cone in cones:
            answers = [cone.contains(d) for d in points]
            assert answers == [cone.contains(d.coeffs()) for d in points], (g, cone.genus)
        assert any(pullback_nef_cone(PERFECT, g).contains(d) for d in points[4:8])
    for model in (PERFECT, SATAKE):
        cone = model.nef_cone()
        for _ in range(200):
            x = [rand_fraction(rng) for _ in range(model.picard_rank)]
            want = all(sum(r * v for r, v in zip(row, x)) >= 0 for row in model.nef_rows)
            assert cone.contains(x) is want and cone.contains(tuple(x)) is want, x


@st.composite
def small_vrep_points(draw):
    """A dimension 1..4, 0..4 integer generators, drawn entry by entry (so
    often dependent, and sometimes zero) or triangular with a nonzero
    diagonal (so independent), half the time with one column made zero in
    every generator, and a point: an integer combination of the generators
    with coefficients of either sign, moved off their span half the time."""
    d = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    if draw(st.booleans()):
        gens = draw(st.lists(st.lists(entry, min_size=d, max_size=d), max_size=4))
    else:
        gens = [[0] * j + [draw(st.sampled_from((-2, -1, 1, 2)))]
                + draw(st.lists(entry, min_size=d - j - 1, max_size=d - j - 1))
                for j in range(draw(st.integers(0, d)))]
    if draw(st.booleans()):
        zero = draw(st.integers(0, d - 1))
        gens = [[0 if i == zero else v for i, v in enumerate(g)] for g in gens]
    coeffs = draw(st.lists(entry, min_size=len(gens), max_size=len(gens)))
    x = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(d)]
    if draw(st.booleans()):
        x = [a + b for a, b in zip(x, draw(st.lists(entry, min_size=d, max_size=d)))]
    return d, gens, x


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_vrep_points())
def test_vrep_membership_matches_nonneg_combination_property(case):
    """V-rep ``contains`` answers as the simplex does, whether the
    generators are independent (the span test), dependent (phase 1) or
    absent (the zero cone)."""
    d, gens, x = case
    cone = PolyCone.from_generators(gens, dim=d)
    want = nonneg_combination(gens, x) is not None
    assert cone.contains(x) is want
    assert cone.contains([Fraction(v, 3) for v in x]) is want


def test_vrep_membership_of_independent_generators_runs_no_simplex(monkeypatch):
    """A warm pulled back cone answers from its cached echelon basis, with
    no phase-1 simplex; a cone with dependent generators still runs one."""
    calls = []
    phase1 = cones._phase1
    monkeypatch.setattr(cones, "_phase1", lambda *args: calls.append(args) or phase1(*args))
    cone = pullback_nef_cone(PERFECT, 40)
    points = [parse_divisor(t, 40) for t in ("L", "12L-d0", "5/2*L + 12L-d0", "11*L - d0",
                                             "L - d3", "0")]
    for _ in range(2):  # the first pass may build the cached basis, the second reads it
        assert [cone.contains(d) for d in points] == [True, True, True, False, False, True]
    assert calls == []
    dependent = PolyCone.from_generators([(1, 0), (0, 1), (1, 1)])
    assert dependent.contains((1, 2)) and not dependent.contains((-1, 2))
    assert len(calls) == 2


def test_vrep_membership_refuses_a_point_off_the_span_unreduced(monkeypatch):
    """A point that is nonzero on a column where every generator is zero is
    off their span, and a warm cone refuses it without reducing it; a point
    on the span is still reduced, on the columns left."""
    cone = pullback_nef_cone(PERFECT, 40)
    off, on = (parse_divisor(t, 40) for t in ("3/2*L + 3/2*12L-d0 + 8*d28", "3/2*L + 3/2*12L-d0"))
    assert cone.contains(off) is False  # may build the cached basis
    calls = []
    reduce = cones._reduce
    monkeypatch.setattr(cones, "_reduce", lambda *args: calls.append(args) or reduce(*args))
    assert cone.contains(off) is False and calls == []
    assert cone.contains(on) is True and len(calls) == 1


# -- faces ----------------------------------------------------------------------


def test_face_of_two_dimensional_face():
    cone = fnef_cone(5)
    d = from_coeffs(5, [13, 1, 0, 0])  # lambda + (12 lambda - delta_0)
    cert = face_of(cone, d)
    assert cert.face_dim == 2
    assert cert.active_rank == cone.dim - 2
    assert cert.generators == ((1, 0, 0, 0), (12, 1, 0, 0))
    assert cert.genus == 5 and cert.det is not None
    # every active label pairs to zero with both generators
    assert set(cert.active_curves) == {
        rec_tag
        for rec_tag, row in zip(cone.labels, cone.ineq_rows)
        if dot(row, (1, 0, 0, 0)) == 0 and dot(row, (12, 1, 0, 0)) == 0
    }


def test_face_of_ray_and_origin_and_interior():
    cone = fnef_cone(4)
    ray = face_of(cone, lambda_class(4))
    assert ray.face_dim == 1
    assert ray.generators == ((1, 0, 0, 0),)
    origin = face_of(cone, zero_divisor(4))
    assert origin.face_dim == 0 and origin.generators == ()
    interior = face_of(cone, from_coeffs(4, [100, 1, 1, 1]))
    assert interior.face_dim == cone.dim
    assert interior.generators == tuple(extreme_rays(cone))


def test_face_of_rejects_non_members():
    cone = fnef_cone(7)
    with pytest.raises(NotMemberError) as exc:
        face_of(cone, from_coeffs(7, [11, 1, 0, 0, 0]))
    assert "C1" in str(exc.value)


def test_face_of_above_ray_limit_reports_none():
    cone = fnef_cone(14)  # dimension 9 exceeds the enumeration limit
    interior = face_of(cone, from_coeffs(14, [1000] + [1] * 8))
    assert interior.face_dim == 9
    assert interior.generators is None
    boundary = face_of(cone, from_coeffs(14, [13, 1] + [0] * 7))
    assert boundary.face_dim == 2
    assert boundary.generators == (
        tuple([1, 0, 0, 0, 0, 0, 0, 0, 0]),
        tuple([12, 1, 0, 0, 0, 0, 0, 0, 0]),
    )


def test_face_of_not_pointed_reports_none_wherever_the_point_lies():
    cone = PolyCone.from_inequalities([[1, 0]])  # a half-plane contains a line
    interior = face_of(cone, [1, 0])
    assert interior.face_dim == 2 and interior.generators is None
    boundary = face_of(cone, [0, 5])
    assert boundary.face_dim == 1 and boundary.generators is None


FACE_GOLDEN = Path(__file__).parent / "data" / "face_of-g3-6.json"


def test_face_of_matches_golden():
    """Every F-nef ray, every sum of two rays and the sum of all rays at
    g = 3..6, recorded from the code before face_of ran through
    extreme_rays for every face."""
    records = json.loads(FACE_GOLDEN.read_text(encoding="utf-8"))
    assert len(records) == 68
    cones = {g: fnef_cone(g) for g in range(3, 7)}
    for rec in records:
        assert face_of(cones[rec["genus"]], rec["point"]).to_json_dict() == rec["face"], rec["point"]


# -- the pairing matrix (true shape, pinned) -------------------------------------


def test_lemma_matrix_frozen_genus3():
    mat = lemma_matrix(3)
    assert mat.rows() == [
        (1, 0, 0),
        (0, 1, 0),
        (Fraction(-1, 12), 0, -1),
    ]
    assert mat.det() == -1


@pytest.mark.parametrize("g", range(3, 21))
def test_lemma_matrix_shape(g):
    mat = lemma_matrix(g)
    d = g // 2 + 2
    assert mat.nrows == mat.ncols == d
    assert mat.rank() == d
    assert abs(mat.det()) == 1
    for i in range(d):
        want = 1 if i < 2 else -1
        assert mat.entry(i, i) == want
        for j in range(i + 1, d):
            assert mat.entry(i, j) == 0
    # single nonzero below the diagonal: the delta_1 row meets C1 in -1/12
    below = {
        (i, j): mat.entry(i, j)
        for i in range(d)
        for j in range(i)
        if mat.entry(i, j) != 0
    }
    assert below == {(2, 0): Fraction(-1, 12)}


# -- certificates -----------------------------------------------------------------


@pytest.mark.parametrize("g", range(3, 13))
def test_verify_extremal_face(g):
    cert = verify_extremal_face(g)
    d = g // 2 + 2
    assert cert.face_dim == 2
    assert cert.active_rank == d - 2
    assert abs(cert.det) == 1
    assert all(c.ok for c in cert.checks)
    names = [c.name for c in cert.checks]
    assert names == [
        "fnef:lambda",
        "fnef:12lambda-delta0",
        "vanishing:lambda",
        "vanishing:12lambda-delta0",
        "vanishing:interior-combination",
        "independence:lemma-matrix",
        "face:active-rank",
    ]


def test_certificate_mutation_fails():
    with pytest.raises(CertificateFailure) as exc:
        face_certificate(
            7,
            lambda_class(7),
            from_coeffs(7, [11, 1, 0, 0, 0]),
            ("lambda", "11lambda-delta0"),
        )
    assert exc.value.check_name == "fnef:11lambda-delta0"
    assert "C1" in exc.value.detail
    with pytest.raises(CertificateFailure) as exc:
        face_certificate(7, twelve_lambda_minus_delta0(7), lambda_class(7))
    assert exc.value.check_name == "vanishing:first-generator"


# -- the certificate against the full-rank reference -------------------------------


def test_certificate_matches_full_rank_reference():
    for g in [*range(3, 61), 80]:
        cert = verify_extremal_face(g)
        ref = full_rank_face_certificate(
            g, lambda_class(g), twelve_lambda_minus_delta0(g), ("lambda", "12lambda-delta0")
        )
        assert (cert.active_rank, cert.face_dim, cert.det) == (ref.active_rank, ref.face_dim, ref.det), g
        assert cert.active_curves == ref.active_curves, g
        assert cert == ref, g


def _certificate_pairs(g):
    """Generator pairs keyed by what they test; only 'scaled' certifies."""
    lam, top = lambda_class(g), twelve_lambda_minus_delta0(g)
    pairs = {
        "scaled": (lam.scale(3), top.scale(Fraction(2, 5))),
        "swapped": (top.scale(Fraction(1, 5)), lam.scale(Fraction(2, 3))),
        "dependent": (lam, lam.scale(Fraction(2, 7))),
        "not-fnef": (lam, from_coeffs(g, [11, 1] + [0] * (g // 2))),
        "negated": (lam, top.scale(-1)),
        "both-zero": (zero_divisor(g), zero_divisor(g)),
    }
    rng = random.Random(g)
    for k in range(4):
        pairs[f"random-{k}"] = (rand_divisor(rng, g), rand_divisor(rng, g))
    return pairs


@pytest.mark.parametrize("g", [3, 4, 7, 12, 20, 31])
def test_certificate_pairs_match_full_rank_reference(g):
    """Each pair certifies or fails like the reference, with the same
    check name and detail."""
    for name, (gen1, gen2) in _certificate_pairs(g).items():
        try:
            ref = full_rank_face_certificate(g, gen1, gen2)
        except CertificateFailure as exc:
            ref = (exc.check_name, exc.detail)
        try:
            got = face_certificate(g, gen1, gen2)
        except CertificateFailure as exc:
            got = (exc.check_name, exc.detail)
        assert got == ref, (g, name)
        if name == "scaled":
            assert isinstance(got, cones.FaceCertificate), g
        elif name in ("swapped", "dependent", "both-zero", "not-fnef"):
            assert got[0].startswith(("fnef:", "vanishing:")), (g, name)
        elif name == "negated":
            assert got[0] == "fnef:second-generator", (g, name)


def test_certificate_genus_mismatch_matches_reference():
    for gen1, gen2 in ((lambda_class(8), twelve_lambda_minus_delta0(7)),
                       (lambda_class(7), twelve_lambda_minus_delta0(9))):
        with pytest.raises(GenusMismatchError) as ref:
            full_rank_face_certificate(7, gen1, gen2)
        with pytest.raises(GenusMismatchError) as got:
            face_certificate(7, gen1, gen2)
        assert str(got.value) == str(ref.value)


def test_lemma_matrix_matches_intersect_reference():
    for g in range(3, 61):
        mat, ref = lemma_matrix(g), intersect_lemma_matrix(g)
        assert mat == ref, g
        assert all(type(x) is Fraction for x in mat.entries)
        assert mat.det() == ref.det(), g


def test_certificate_json_schema():
    payload = verify_extremal_face(6).to_json_dict()
    assert payload["genus"] == 6 and payload["face_dim"] == 2
    assert payload["det"] in ("1", "-1")
    assert all(isinstance(row, list) for row in payload["lemma_matrix"])
    assert all(set(c) == {"name", "pass", "detail"} for c in payload["checks"])
    assert all(c["pass"] for c in payload["checks"])
    gens = payload["generators"]
    assert gens[0][0] == "1" and gens[1][0] == "12"


def test_face_of_attaches_lemma_matrix_only_to_its_face():
    cone = fnef_cone(4)
    for point in (lambda_class(4), zero_divisor(4), from_coeffs(4, [100, 1, 1, 1])):
        cert = face_of(cone, point)
        assert cert.det is None and cert.lemma_mat is None
    assert face_of(cone, from_coeffs(4, [13, 1, 0, 0])).det == lemma_matrix(4).det()
