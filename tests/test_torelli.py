"""Compactification catalog: pullbacks, face classification, semi-ampleness."""

import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgnef import (
    PERFECT,
    SATAKE,
    PARTIAL,
    MODELS,
    AbelianDivisor,
    DivisorClass,
    FCurve,
    FaceClassification,
    FaceLocation,
    GenusContext,
    ModelMismatchError,
    ParseError,
    PolyCone,
    QMatrix,
    SemiampleStatus,
    UnsupportedGenusError,
    BpfEntry,
    as_context,
    basis_images,
    boundary_total,
    bpf_scan,
    canonical_class,
    classify_in_face,
    delta,
    extreme_rays,
    face_member,
    from_coeffs,
    get_model,
    intersect,
    is_fnef,
    lambda_class,
    parse_abelian,
    parse_divisor,
    pullback,
    pullback_nef_cone,
    semiample_status,
    twelve_lambda_minus_delta0,
    zero_divisor,
)
from mgnef import divisors, torelli
from mgnef._record import Record
from helpers import (
    full_scale,
    full_sub,
    per_point_bpf_scan,
    rand_fraction,
    rand_nonneg_fraction,
)

# -- the catalog ----------------------------------------------------------------


def test_model_catalog():
    assert sorted(MODELS) == ["partial", "perfect", "satake"]
    assert SATAKE.picard_rank == 1 and SATAKE.basis_labels == ("M",)
    assert PARTIAL.picard_rank == 2 and PERFECT.picard_rank == 2
    assert PERFECT.basis_labels == ("M", "D")
    assert SATAKE.has_pullback and PERFECT.has_pullback
    assert not PARTIAL.has_pullback
    assert get_model("perfect") is PERFECT
    with pytest.raises(ModelMismatchError):
        get_model("voronoi")


def test_model_nef_rays_frozen():
    assert extreme_rays(SATAKE.nef_cone()) == [(1,)]
    for model in (PARTIAL, PERFECT):
        assert extreme_rays(model.nef_cone()) == [(1, 0), (12, 1)]


def test_model_nef_cone_built_once_per_model():
    for model in MODELS.values():
        cone = model.nef_cone()
        assert cone == PolyCone.from_inequalities(model.nef_rows, model.nef_row_labels)
        assert model.nef_cone() is cone


def test_model_nef_membership():
    nef = PERFECT.nef_cone()
    assert nef.contains((Fraction(13), Fraction(1)))
    assert nef.contains((Fraction(12), Fraction(1)))
    assert nef.contains((Fraction(1), Fraction(0)))
    assert not nef.contains((Fraction(11), Fraction(1)))
    assert not nef.contains((Fraction(1), Fraction(-1)))


# -- divisors on a model ---------------------------------------------------------


def test_abelian_divisor_basics():
    d = AbelianDivisor("perfect", 13, 1)
    assert d.coeffs() == (13, 1)
    assert d.to_expr() == "13*M - 1*D"
    assert AbelianDivisor("perfect", Fraction(5, 2)).to_expr() == "5/2*M"
    assert AbelianDivisor("perfect", 3, -2).to_expr() == "3*M + 2*D"
    assert AbelianDivisor("satake", 7).coeffs() == (7,)
    with pytest.raises(ModelMismatchError):
        AbelianDivisor("satake", 7, 1)
    assert d.to_json_dict() == {
        "model": "perfect",
        "a": "13",
        "b": "1",
        "expr": "13*M - 1*D",
    }


def test_parse_abelian():
    assert parse_abelian("13*M - D", "perfect") == AbelianDivisor("perfect", 13, 1)
    assert parse_abelian("M", "perfect") == AbelianDivisor("perfect", 1, 0)
    assert parse_abelian("12*M - 1*D", "perfect") == AbelianDivisor("perfect", 12, 1)
    assert parse_abelian("5/2*M + 3*D", "perfect") == AbelianDivisor(
        "perfect", Fraction(5, 2), -3
    )
    assert parse_abelian("-M + 2*M", "perfect") == AbelianDivisor("perfect", 1, 0)
    assert parse_abelian("0", "perfect") == AbelianDivisor("perfect", 0, 0)
    assert parse_abelian("3*M", "satake") == AbelianDivisor("satake", 3)
    with pytest.raises(ModelMismatchError):
        parse_abelian("3*M - D", "satake")
    with pytest.raises(ModelMismatchError):
        parse_abelian("M", "voronoi")


@pytest.mark.parametrize(
    "text,position",
    [("", 0), ("3M", 1), ("M M", 2), ("Q", 0), ("1/0*M", 2), ("3*", 2), ("+", 1),
     pytest.param("1" * 5000 + "*M", 0, id="5000-digits")],
)
def test_parse_abelian_error_positions(text, position):
    with pytest.raises(ParseError) as exc:
        parse_abelian(text, "perfect")
    assert exc.value.position == position


RATIONALS = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(MODELS)), RATIONALS, RATIONALS)
def test_abelian_expr_roundtrip(model, a, b):
    x = AbelianDivisor(model, a, 0 if model == "satake" else b)
    assert parse_abelian(x.to_expr(), model) == x


# -- pullback -------------------------------------------------------------------


def test_basis_images():
    ctx = as_context(6)
    assert basis_images(SATAKE, ctx) == (lambda_class(ctx),)
    assert basis_images(PERFECT, ctx) == (lambda_class(ctx), delta(ctx, 0))
    with pytest.raises(ModelMismatchError):
        basis_images(PARTIAL, ctx)


def test_pullback_values():
    assert pullback(PERFECT, AbelianDivisor("perfect", 1, 0), 5) == lambda_class(5)
    assert pullback(PERFECT, AbelianDivisor("perfect", 12, 1), 5) == (
        twelve_lambda_minus_delta0(5)
    )
    assert pullback(PERFECT, AbelianDivisor("perfect", 13, 1), 5) == from_coeffs(
        5, [13, 1, 0, 0]
    )
    assert pullback(SATAKE, AbelianDivisor("satake", 7), 4) == lambda_class(4).scale(7)
    with pytest.raises(ModelMismatchError):
        pullback(PERFECT, AbelianDivisor("satake", 1), 5)
    with pytest.raises(ModelMismatchError):
        pullback(PARTIAL, parse_abelian("13*M - D", "partial"), 5)


def test_pullback_linearity():
    rng = random.Random(501)
    ctx = as_context(5)
    for _ in range(20):
        a1, b1, a2, b2 = (rand_fraction(rng) for _ in range(4))
        x, y = rand_fraction(rng), rand_fraction(rng)
        combo = AbelianDivisor("perfect", x * a1 + y * a2, x * b1 + y * b2)
        lhs = pullback(PERFECT, combo, ctx)
        rhs = pullback(PERFECT, AbelianDivisor("perfect", a1, b1), ctx).scale(x) + (
            pullback(PERFECT, AbelianDivisor("perfect", a2, b2), ctx).scale(y)
        )
        assert lhs == rhs


def _typed(d):
    return [(x, type(x)) for x in d.coeffs()]


def test_pullback_matches_arithmetic_reference():
    """The image of a*M - b*D has every coefficient the value and type that
    scaling and subtracting lambda and delta_0 as DivisorClass objects gives."""
    rng = random.Random(1414)
    fixed = [0, 1, -1, 12, Fraction(-3, 4), Fraction(5, 2), "-7/3"]
    for g in (*range(3, 41), 120):
        for model in (SATAKE, PERFECT):
            images = (lambda_class(g), delta(g, 0))
            for k in range(12):
                a = fixed[k] if k < len(fixed) else rand_fraction(rng, -20, 20, 6)
                b = 0 if model is SATAKE else rng.choice([0, rand_fraction(rng, -20, 20, 6)])
                adiv = AbelianDivisor(model.name, a, b)
                ref = full_scale(images[0], adiv.a)
                if model is PERFECT:
                    ref = full_sub(ref, full_scale(images[1], adiv.b))
                assert _typed(pullback(model, adiv, g)) == _typed(ref), (g, model.name, a, b)


def test_pullback_reads_no_divisor_name_table():
    """The Torelli map is written in coordinates: pulling back at a genus
    leaves the parser's per-genus name table alone."""
    before = divisors._names.cache_info()
    for model in (SATAKE, PERFECT):
        basis_images(model, 57)
        pullback(model, parse_abelian("5/2*M", model.name), 57)
    assert divisors._names.cache_info() == before


def test_pullback_refusals():
    """The model is checked before the genus, the genus before the catalog."""
    mismatch = "divisor on model 'satake' pulled back through 'perfect'"
    no_pullback = "no pullback stored in the catalog for model 'partial'"
    partial = parse_abelian("13*M - D", "partial")
    for g in (5, 2):
        with pytest.raises(ModelMismatchError) as exc:
            pullback(PERFECT, AbelianDivisor("satake", 1), g)
        assert str(exc.value) == mismatch
    with pytest.raises(ModelMismatchError) as exc:
        pullback(PARTIAL, partial, 5)
    assert str(exc.value) == no_pullback
    with pytest.raises(ModelMismatchError) as exc:
        basis_images(PARTIAL, 5)
    assert str(exc.value) == no_pullback
    with pytest.raises(UnsupportedGenusError):
        pullback(PARTIAL, partial, 2)


@pytest.mark.parametrize("g", range(3, 9))
def test_pullback_nef_cone_generators(g):
    cone = pullback_nef_cone(PERFECT, g)
    assert cone.genus == g and cone.dim == as_context(g).dim
    assert cone.generators == (
        lambda_class(g).coeffs(),
        twelve_lambda_minus_delta0(g).coeffs(),
    )
    satake = pullback_nef_cone(SATAKE, g)
    assert satake.generators == (lambda_class(g).coeffs(),)


def test_pullback_nef_cone_built_once_per_model_and_genus():
    for model in (PERFECT, SATAKE):
        for g in (3, 8, 40):
            cone = pullback_nef_cone(model, g)
            assert pullback_nef_cone(model, as_context(g)) is cone
            assert pullback_nef_cone(model, g) is cone
    # the model keeps no cone for a refusal, so it comes on every call
    for _ in range(3):
        with pytest.raises(ModelMismatchError, match="no pullback stored"):
            pullback_nef_cone(PARTIAL, 5)


def test_warm_queries_hash_no_genus_context(monkeypatch):
    """Every per-genus cache is keyed on the int genus, and the pulled back
    nef cones are kept on their model, so a query whose caches are warm
    hashes no GenusContext and no other record: an F-nef check off the plane
    of a and b_0 with its face position, a pullback, and a membership test in
    the pulled back nef cone."""
    g = 24

    def queries():
        d = parse_divisor("13*L - d0 - 1/2*d3 + K", g)
        image = pullback(PERFECT, parse_abelian("13*M - D", "perfect"), g)
        return (d, is_fnef(d), classify_in_face(d), image,
                pullback_nef_cone(PERFECT, g).contains(image))

    expected = queries()  # fills the caches
    assert expected[1][0] is False and expected[4] is True
    hashed = []
    context_hash = GenusContext.__hash__
    monkeypatch.setattr(GenusContext, "__hash__",
                        lambda ctx: hashed.append(ctx.g) or context_hash(ctx))
    assert hash(as_context(g)) == context_hash(as_context(g)) and hashed == [g]  # the spy works
    records = []
    record_hash = Record.__hash__
    monkeypatch.setattr(Record, "__hash__", lambda rec: records.append(rec) or record_hash(rec))
    assert hash(PERFECT) == record_hash(PERFECT) and records == [PERFECT]  # so does this one
    del hashed[:], records[:]
    assert queries() == expected
    assert hashed == [] and records == []


@pytest.mark.parametrize("g", range(3, 9))
def test_cone_mapping_equality(g):
    """The pulled back nef cone and the span of the two face generators admit
    exactly the same points."""
    ctx = as_context(g)
    image = pullback_nef_cone(PERFECT, ctx)
    span = PolyCone.from_generators(
        [lambda_class(ctx).coeffs(), twelve_lambda_minus_delta0(ctx).coeffs()],
        dim=ctx.dim,
    )
    rng = random.Random(510 + g)
    hits = 0
    for k in range(500):
        if k % 2:
            point = face_member(
                ctx, rand_nonneg_fraction(rng), rand_nonneg_fraction(rng)
            ).coeffs()
        else:
            point = tuple(rand_fraction(rng) for _ in range(ctx.dim))
        inside = image.contains(point)
        assert inside == span.contains(point)
        hits += inside
    assert hits >= 250  # every planted member lands in both


@pytest.mark.parametrize("g", range(3, 13))
def test_pullback_of_nef_members_is_fnef(g):
    from mgnef import is_fnef

    rng = random.Random(520 + g)
    for _ in range(20):
        b = rand_nonneg_fraction(rng)
        a = 12 * b + rand_nonneg_fraction(rng)
        ok, witness = is_fnef(pullback(PERFECT, AbelianDivisor("perfect", a, b), g))
        assert ok, (a, b, witness)


# -- classification --------------------------------------------------------------


def test_classify_frozen_cases():
    cls = classify_in_face(lambda_class(7))
    assert cls.location is FaceLocation.RAY_LAMBDA
    assert (cls.alpha, cls.beta) == (1, 0)
    cls = classify_in_face(twelve_lambda_minus_delta0(7))
    assert cls.location is FaceLocation.RAY_12LAMBDA_DELTA0
    assert (cls.alpha, cls.beta) == (0, 1)
    cls = classify_in_face(from_coeffs(7, [Fraction(25, 2), 1, 0, 0, 0]))
    assert cls.location is FaceLocation.INTERIOR
    assert cls.epsilon == Fraction(1, 2)
    assert (cls.alpha, cls.beta) == (Fraction(1, 2), 1)
    assert classify_in_face(zero_divisor(7)).location is FaceLocation.ORIGIN
    # nonzero higher boundary coefficient, or a sign violation, leaves the face
    assert classify_in_face(from_coeffs(7, [1, 0, 1, 0, 0])).location is (
        FaceLocation.OUTSIDE
    )
    assert classify_in_face(from_coeffs(7, [11, 1, 0, 0, 0])).location is (
        FaceLocation.OUTSIDE
    )
    assert classify_in_face(from_coeffs(7, [1, -1, 0, 0, 0])).location is (
        FaceLocation.OUTSIDE
    )


@pytest.mark.parametrize("number", [int, Fraction])
def test_classify_never_gives_a_float(number):
    ctx = as_context(4)
    for a, b0, epsilon in ((13, 1, 1), (25, 2, Fraction(1, 2)), (12, 1, None), (5, 0, None),
                           (0, 0, None), (11, 1, None)):
        cls = classify_in_face(DivisorClass(ctx, number(a), (number(b0), number(0), number(0))))
        assert cls.epsilon == epsilon
        assert epsilon is None or type(cls.epsilon) is Fraction
        for x in (cls.alpha, cls.beta, cls.epsilon):
            assert not isinstance(x, float), (a, b0, cls)


@pytest.mark.parametrize("g", [3, 5, 8])
def test_classify_grid_exhaustive(g):
    ctx = as_context(g)
    grid = [Fraction(0), Fraction(1), Fraction(5, 3), Fraction(7, 2)]
    for alpha in grid:
        for beta in grid:
            cls = classify_in_face(face_member(ctx, alpha, beta))
            if alpha == 0 and beta == 0:
                assert cls.location is FaceLocation.ORIGIN
            elif beta == 0:
                assert cls.location is FaceLocation.RAY_LAMBDA
            elif alpha == 0:
                assert cls.location is FaceLocation.RAY_12LAMBDA_DELTA0
            else:
                assert cls.location is FaceLocation.INTERIOR
                assert cls.epsilon == alpha / beta
            assert (cls.alpha, cls.beta) == (alpha, beta)


@pytest.mark.parametrize("g", range(3, 13))
def test_image_spans_two_dimensions(g):
    images = basis_images(PERFECT, g)
    mat = QMatrix.from_rows([list(d.coeffs()) for d in images])
    assert mat.rank() == 2


def test_projection_formula_consistency():
    for g in (5, 9):
        c1 = FCurve(as_context(g), "C1")
        boundary_ray = pullback(PERFECT, parse_abelian("12*M - D", "perfect"), g)
        assert intersect(boundary_ray, c1) == 0
        ample = pullback(PERFECT, parse_abelian("M", "perfect"), g)
        assert intersect(ample, c1) == Fraction(1, 12)


# -- semi-ampleness catalog -------------------------------------------------------


def test_semiample_catalog():
    assert semiample_status(zero_divisor(5)).status == "semi-ample"
    assert semiample_status(lambda_class(9).scale(3)).status == "semi-ample"
    interior = semiample_status(from_coeffs(9, [13, 1, 0, 0, 0, 0]))
    assert interior.status == "semi-ample"
    assert interior.classification.location is FaceLocation.INTERIOR
    for g in (3, 10, 11):
        s = semiample_status(twelve_lambda_minus_delta0(g))
        assert s.status == "semi-ample over the complex numbers"
    for g in (12, 15):
        s = semiample_status(twelve_lambda_minus_delta0(g))
        assert s.status == "nef, semi-ampleness unknown"
    outside = semiample_status(from_coeffs(7, [1, 0, 1, 0, 0]))
    assert outside.status == "unknown"
    assert all(
        semiample_status(d).reason
        for d in (zero_divisor(5), lambda_class(5), twelve_lambda_minus_delta0(5))
    )


def test_divisors_off_the_face_share_one_record_each():
    """Every divisor off the face gets the same immutable classification and
    status objects, equal to, and hashing as, freshly built ones."""
    off = [from_coeffs(7, [1, 0, 1, 0, 0]), parse_divisor("11*L - d0", 40),
           parse_divisor("L + 12L-d0 - 1/2*d5", 24), from_coeffs(7, [1, -1, 0, 0, 0])]
    classes = [classify_in_face(d) for d in off]
    statuses = [semiample_status(d) for d in off]
    assert all(c is classes[0] for c in classes) and all(s is statuses[0] for s in statuses)
    fresh = FaceClassification(FaceLocation.OUTSIDE)
    assert classes[0] == fresh and hash(classes[0]) == hash(fresh)
    fresh_status = SemiampleStatus(fresh, "unknown",
                                   "outside the two-parameter face covered by this catalog")
    assert statuses[0] == fresh_status and hash(statuses[0]) == hash(fresh_status)
    assert statuses[0].classification is classes[0]


# -- adjoint scan -----------------------------------------------------------------


def test_bpf_scan_full_grid():
    report = bpf_scan(5, range(1, 6), range(5), range(5))
    assert report.genus == 5
    assert report.points == 125
    assert report.symbolic_ok and report.ok and report.deviations == ()


def test_bpf_scan_base_entry_and_m_independence():
    # the base point m = 1, alpha = beta = 0 is -(K + Delta), and it meets
    # every C3 in -1
    ctx = as_context(5)
    c3_curves = [FCurve(ctx, "C3", (i,)) for i in (1, 2, 3)]
    adjoint = canonical_class(ctx) + boundary_total(ctx)
    base = face_member(ctx, 0, 0).scale(1) - adjoint
    assert base == from_coeffs(5, [-13, -1, -1, -1])
    assert [intersect(base, c) for c in c3_curves] == [-1, -1, -1]
    # so does every multiple at every grid point: no m changes a C3 value
    for alpha, beta in ((0, 0), (2, 0), (0, 1), (2, 1)):
        member = face_member(ctx, alpha, beta)
        values = {tuple(intersect(member.scale(m) - adjoint, c) for c in c3_curves)
                  for m in (1, 2, 3)}
        assert values == {(-1, -1, -1)}
    report = bpf_scan(5, [1, 2, 3], [0, 2], [0, 1])
    assert report.points == 12 and report.deviations == () and report.ok


def test_bpf_scan_keeps_the_deviations_and_nothing_else(monkeypatch):
    # one face member, lambda at alpha = 1, beta = 0, is made to meet C3(2)
    # in 1, not 0.  The scan pairs K + Delta and each member once, and the
    # value at m is m * 1 - 1, so only the points of that member deviate, at
    # every m: an affine map of m that meets -1 at two values of m is constant
    member = face_member(5, 1, 0)
    adjoint = canonical_class(5) + boundary_total(5)

    def forced(d, curve):
        value = intersect(d, curve)
        return value + 1 if d == member and curve.indices == (2,) else value

    monkeypatch.setattr(torelli, "intersect", forced)
    report = bpf_scan(5, [1, 2, 3], [0, 1], [0, 1])
    assert report.points == 12
    assert report.deviations == tuple(
        BpfEntry(m, Fraction(1), Fraction(0), member.scale(m) - adjoint, (-1, m - 1, -1))
        for m in (1, 2, 3)
    )
    assert report.symbolic_ok and not report.ok
    payload = report.to_json_dict()
    assert payload["entries"] == 12 and payload["all_c3_equal_minus_one"] is False
    assert payload["deviations"] == [
        {"m": m, "alpha": "1", "beta": "0", "c3_values": ["-1", str(m - 1), "-1"]}
        for m in (1, 2, 3)
    ]


@st.composite
def bpf_grids(draw):
    """A genus, a small grid with rational alpha and beta, and a shift of the
    C3 values: a linear form on the coordinates, added to d . C3(i) for the
    chosen i.  A form on a or b_0 shifts the face members' values, so the
    deviations depend on m; one on b_1, ... shifts only K + Delta's, so every
    point deviates alike."""
    g = draw(st.integers(3, 12))
    fractions = st.fractions(min_value=0, max_value=4, max_denominator=3)
    m_values = draw(st.lists(st.integers(-2, 6), min_size=1, max_size=3))
    alphas = draw(st.lists(fractions, min_size=1, max_size=3))
    betas = draw(st.lists(fractions, min_size=1, max_size=3))
    chosen = draw(st.sets(st.integers(1, g - 2), min_size=1))
    form = draw(st.lists(st.integers(-2, 2), min_size=g // 2 + 2, max_size=g // 2 + 2))
    return g, m_values, alphas, betas, chosen, form


def shifted_intersect(form, chosen):
    """``intersect`` with the linear form added to d . C3(i) for i in chosen."""

    def shifted(d, curve):
        value = intersect(d, curve)
        return value + sum(map(mul, form, d.coeffs())) if curve.indices[0] in chosen else value

    return shifted


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(bpf_grids())
def test_bpf_scan_matches_the_per_point_scan(grid):
    g, m_values, alphas, betas, chosen, form = grid
    assert bpf_scan(g, m_values, alphas, betas) == per_point_bpf_scan(g, m_values, alphas, betas)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(torelli, "intersect", shifted_intersect(form, chosen))
        assert bpf_scan(g, m_values, alphas, betas) == per_point_bpf_scan(g, m_values, alphas,
                                                                           betas)


def test_shifted_c3_values_deviate_with_m_and_without(monkeypatch):
    grid = (7, [1, 2, 3], [0, 1], [0, Fraction(1, 2)])
    # 1*b_1 meets K + Delta in 1 and no face member: every point deviates alike
    monkeypatch.setattr(torelli, "intersect", shifted_intersect([0, 0, 1, 0, 0], {2}))
    report = bpf_scan(*grid)
    assert report == per_point_bpf_scan(*grid)
    assert len(report.deviations) == 12
    assert {e.c3_values for e in report.deviations} == {(-1, -2, -1, -1, -1)}
    # 1*a meets K + Delta in 13 and a face member in alpha + 12*beta, so
    # C3(2) meets m*D - (K + Delta) in -1 + (alpha + 12*beta)*m - 13
    monkeypatch.setattr(torelli, "intersect", shifted_intersect([1, 0, 0, 0, 0], {2}))
    report = bpf_scan(*grid)
    assert report == per_point_bpf_scan(*grid)
    assert [e.c3_values[1] for e in report.deviations] == [-14, -14, -14, -8, -2, 4,
                                                           -13, -12, -11, -7, 0, 7]


@pytest.mark.parametrize("g", [3, 7, 12])
def test_bpf_scan_pairs_k_plus_delta_and_each_member_once(monkeypatch, g):
    """(g - 2) * (1 + |alpha| * |beta|) intersections, whatever the m range:
    no m is scanned when every face member meets every C3 in 0."""
    calls = []

    def counted(d, curve):
        calls.append(curve)
        return intersect(d, curve)

    monkeypatch.setattr(torelli, "intersect", counted)
    for m_max in (1, 5, 1000, 10**12):
        for alphas, betas in (([0], [0]), (range(3), range(2)),
                              ([Fraction(1, 2), 2], [0, Fraction(1, 3), 1])):
            del calls[:]
            report = bpf_scan(g, range(1, m_max + 1), alphas, betas)
            assert report.ok and report.points == m_max * len(alphas) * len(betas)
            assert len(calls) == (g - 2) * (1 + len(alphas) * len(betas)), (m_max, alphas)


def test_bpf_scan_json():
    payload = bpf_scan(7, [1, 2], [0, 1], [0, 1]).to_json_dict()
    assert payload == {
        "genus": 7,
        "entries": 8,
        "symbolic_delta_check": True,
        "all_c3_equal_minus_one": True,
        "deviations": [],
    }
