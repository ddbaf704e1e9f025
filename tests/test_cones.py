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
    CertificateFailure,
    DimensionLimitError,
    NotMemberError,
    NotPointedError,
    PolyCone,
    QMatrix,
    dot,
    extreme_rays,
    face_certificate,
    face_of,
    fnef_cone,
    from_coeffs,
    lambda_class,
    lemma_matrix,
    nonneg_combination,
    primitive,
    twelve_lambda_minus_delta0,
    verify_extremal_face,
    zero_divisor,
)
from mgnef.linalg import integer_rank
from helpers import rand_fraction, rand_nonneg_fraction

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
