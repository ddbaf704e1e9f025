"""End-to-end acceptance checks.

One test per headline criterion, in order.  Each test prints a single
``CRITERION n (...): PASS`` or ``FAIL`` line on the live terminal (bypassing
capture) and then asserts, so a full run shows eight verdict lines.  Time
bounds are part of the criteria and are asserted alongside the math.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from mgnef import (
    PERFECT,
    AbelianDivisor,
    FaceLocation,
    PolyCone,
    QMatrix,
    as_context,
    classify_in_face,
    dot,
    enumerate_fcurves_raw,
    extreme_rays,
    face_member,
    fnef_cone,
    from_coeffs,
    intersect,
    is_fnef,
    lambda_class,
    lemma_matrix,
    numerical_classes,
    primitive,
    pullback,
    pullback_nef_cone,
    twelve_lambda_minus_delta0,
    verify_extremal_face,
    zero_divisor,
)
from mgnef.cli import main
from helpers import (
    assert_no_floats,
    assert_rational_strings_canonical,
    rand_divisor,
    rand_fraction,
    rand_nonneg_fraction,
)


def announce(capsys, n, desc, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"\nCRITERION {n} ({desc}): {'PASS' if ok else 'FAIL'}{tail}")


def test_criterion_1_table_columns(capsys):
    start = time.monotonic()
    ctx = as_context(10)
    lam = lambda_class(ctx)
    twelve = twelve_lambda_minus_delta0(ctx)
    expected_lambda = {"C1": Fraction(1, 12)}
    expected_twelve = {"C1": Fraction(0), "C2": Fraction(1), "C4": Fraction(2)}
    bad = []
    curves = enumerate_fcurves_raw(ctx)
    for c in curves:
        want_l = expected_lambda.get(c.family, Fraction(0))
        want_t = expected_twelve.get(c.family, Fraction(0))
        if intersect(lam, c) != want_l or intersect(twelve, c) != want_t:
            bad.append(c.tag)
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 1.0
    announce(capsys, 1, "constant table columns at genus 10", ok,
             f"{len(curves)} curves, {elapsed:.3f}s")
    assert not bad, f"wrong column value on {bad}"
    assert elapsed < 1.0, f"took {elapsed:.3f}s, bound is 1s"


def test_criterion_2_lemma_matrix_diagonal(capsys):
    start = time.monotonic()
    off_diagonal = {}
    basics_ok = True
    for g in range(3, 21):
        mat = lemma_matrix(g)
        d = g // 2 + 2
        basics_ok &= mat.rank() == d and abs(mat.det()) == 1
        for i in range(d):
            for j in range(d):
                if i != j and mat.entry(i, j) != 0:
                    off_diagonal[(g, i, j)] = mat.entry(i, j)
    elapsed = time.monotonic() - start
    diagonal = not off_diagonal
    ok = diagonal and basics_ok and elapsed < 5.0
    announce(
        capsys, 2, "pairing matrix diagonal with unit determinant, genus 3..20", ok,
        "entry (2,0) = -1/12 at every genus; matrix is lower triangular, "
        f"|det| = 1, full rank; {elapsed:.3f}s",
    )
    assert basics_ok, "rank or determinant defect in the pairing matrix"
    assert elapsed < 5.0, f"took {elapsed:.3f}s, bound is 5s"
    assert diagonal, (
        "the pairing matrix is never diagonal: at every genus the entry at "
        "(2, 0) is -1/12, the delta_1 row against the C1 column, because the "
        "C1 value a/12 - b0 + b1/12 involves b1. The matrix is lower "
        "triangular with diagonal (1, 1, -1, ..., -1), so |det| = 1 and the "
        "rank is full and the independence consequence holds; strict "
        f"diagonality does not. Nonzero off-diagonal entries: {off_diagonal}"
    )


def test_criterion_3_extremal_face_certificates(capsys):
    start = time.monotonic()
    failures = []
    for g in range(3, 21):
        cert = verify_extremal_face(g)
        d = g // 2 + 2
        vanishing = [c for c in cert.checks if c.name.startswith("vanishing:")]
        if not (
            cert.face_dim == 2
            and cert.active_rank == d - 2
            and len(vanishing) == 3
            and all(c.ok for c in cert.checks)
        ):
            failures.append(g)
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 10.0
    announce(capsys, 3, "2-dimensional extremal face certified, genus 3..20", ok,
             f"{elapsed:.3f}s")
    assert not failures, f"certificate failed at genus {failures}"
    assert elapsed < 10.0, f"took {elapsed:.3f}s, bound is 10s"


def test_criterion_4_nef_cone_pullback(capsys):
    start = time.monotonic()
    g = 12
    ctx = as_context(g)
    rays = extreme_rays(PERFECT.nef_cone())
    gen_images = [
        pullback(PERFECT, AbelianDivisor("perfect", r[0], r[1]), ctx) for r in rays
    ]
    generators_exact = gen_images == [lambda_class(ctx), twelve_lambda_minus_delta0(ctx)]

    span = PolyCone.from_generators(
        [lambda_class(ctx).coeffs(), twelve_lambda_minus_delta0(ctx).coeffs()],
        dim=ctx.dim,
    )
    image_cone = pullback_nef_cone(PERFECT, ctx)
    rng = random.Random(604)
    all_fnef = True
    image_in_span = True
    span_in_image = True
    for _ in range(500):
        b = rand_nonneg_fraction(rng)
        a = 12 * b + rand_nonneg_fraction(rng)
        img = pullback(PERFECT, AbelianDivisor("perfect", a, b), ctx)
        fnef, _ = is_fnef(img)
        all_fnef &= fnef
        image_in_span &= span.contains(img)
    for _ in range(250):
        member = face_member(ctx, rand_nonneg_fraction(rng), rand_nonneg_fraction(rng))
        span_in_image &= image_cone.contains(member)
    elapsed = time.monotonic() - start
    ok = generators_exact and all_fnef and image_in_span and span_in_image
    ok = ok and elapsed < 10.0
    announce(capsys, 4, "nef cone pulls back onto the two-generator face at genus 12",
             ok, f"{elapsed:.3f}s")
    assert generators_exact, "nef generators do not pull back to the face generators"
    assert all_fnef, "a nef member pulled back to a non-F-nef divisor"
    assert image_in_span and span_in_image, "cone membership differs between directions"
    assert elapsed < 10.0, f"took {elapsed:.3f}s, bound is 10s"


def test_criterion_5_adjoint_scan(capsys):
    from mgnef import boundary_total, canonical_class, bpf_scan

    start = time.monotonic()
    failures = []
    for g in range(3, 13):
        report = bpf_scan(
            g, range(1, 6), [Fraction(a) for a in range(5)],
            [Fraction(b) for b in range(5)],
        )
        adjoint = canonical_class(g) + boundary_total(g)
        symbolic = all(
            (face_member(g, 2, 3).scale(m) - adjoint).b[i] == -1
            for m in (1, 5)
            for i in range(1, as_context(g).dim - 1)
        )
        if not (report.ok and report.symbolic_ok and symbolic
                and report.points == 125):
            failures.append(g)
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 10.0
    announce(capsys, 5, "adjoint-subtracted multiples meet every C3 in -1, genus 3..12",
             ok, f"{elapsed:.3f}s")
    assert not failures, f"deviation from -1 at genus {failures}"
    assert elapsed < 10.0, f"took {elapsed:.3f}s, bound is 10s"


def brute_force_rays(rows, d):
    """Independent oracle: kernels of rank d-1 subsets, filtered by feasibility."""
    found = set()
    for sub in itertools.combinations(range(len(rows)), d - 1):
        mat = QMatrix.from_rows([list(rows[i]) for i in sub])
        kern = mat.kernel_basis()
        if len(kern) != 1:
            continue
        for cand in (kern[0], tuple(-x for x in kern[0])):
            if all(dot(r, cand) >= 0 for r in rows):
                found.add(primitive(cand))
    return sorted(found)


def test_criterion_6_dual_oracle_equivalence(capsys):
    start = time.monotonic()
    problems = []
    for g in (3, 4):
        cone = fnef_cone(g)
        d = cone.dim
        rays = extreme_rays(cone)
        if rays != brute_force_rays(cone.ineq_rows, d):
            problems.append(f"genus {g}: ray sets differ")
        for r in rays:
            active = [row for row in cone.ineq_rows if dot(row, r) == 0]
            if QMatrix.from_rows([list(a) for a in active]).rank() != d - 1:
                problems.append(f"genus {g}: ray {r} has wrong active rank")
        for gen in (lambda_class(g), twelve_lambda_minus_delta0(g)):
            if primitive(gen.coeffs()) not in rays:
                problems.append(f"genus {g}: {gen.to_expr()} missing from rays")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 10.0
    announce(capsys, 6, "double description agrees with the subset-kernel oracle",
             ok, f"{elapsed:.3f}s")
    assert not problems, "; ".join(problems)
    assert elapsed < 10.0, f"took {elapsed:.3f}s, bound is 10s"


def test_criterion_7_face_classification(capsys):
    start = time.monotonic()
    ctx = as_context(9)
    rng = random.Random(607)
    interior_ok = True
    for _ in range(50):
        eps = Fraction(rng.randint(1, 40), rng.randint(1, 12))
        d = from_coeffs(ctx, [12 + eps, 1] + [0] * (ctx.dim - 2))
        cls = classify_in_face(d)
        interior_ok &= cls.location is FaceLocation.INTERIOR and cls.epsilon == eps
    boundary_ok = (
        classify_in_face(lambda_class(ctx)).location is FaceLocation.RAY_LAMBDA
        and classify_in_face(lambda_class(ctx).scale(7)).location
        is FaceLocation.RAY_LAMBDA
        and classify_in_face(twelve_lambda_minus_delta0(ctx)).location
        is FaceLocation.RAY_12LAMBDA_DELTA0
        and classify_in_face(twelve_lambda_minus_delta0(ctx).scale(3)).location
        is FaceLocation.RAY_12LAMBDA_DELTA0
        and classify_in_face(zero_divisor(ctx)).location is FaceLocation.ORIGIN
    )
    outside_ok = True
    for i in range(1, ctx.dim - 1):
        for sign in (1, -1):
            coeffs = [Fraction(100), Fraction(1)] + [Fraction(0)] * (ctx.dim - 2)
            coeffs[1 + i] = Fraction(sign)
            outside_ok &= (
                classify_in_face(from_coeffs(ctx, coeffs)).location
                is FaceLocation.OUTSIDE
            )
    elapsed = time.monotonic() - start
    ok = interior_ok and boundary_ok and outside_ok and elapsed < 1.0
    announce(capsys, 7, "face membership classification", ok, f"{elapsed:.3f}s")
    assert interior_ok, "an interior case misclassified"
    assert boundary_ok, "a boundary ray misclassified"
    assert outside_ok, "a nonzero higher boundary coefficient not flagged"
    assert elapsed < 1.0, f"took {elapsed:.3f}s, bound is 1s"


def test_criterion_8_property_suites(capsys):
    # bilinearity of the pairing, every class at genus 6
    rng = random.Random(608)
    ctx = as_context(6)
    bilinear_ok = True
    classes = numerical_classes(ctx)
    for _ in range(20):
        d1, d2 = rand_divisor(rng, ctx), rand_divisor(rng, ctx)
        x, y = rand_fraction(rng), rand_fraction(rng)
        combo = d1.scale(x) + d2.scale(y)
        for rec in classes:
            lhs = intersect(combo, rec.curve)
            rhs = x * intersect(d1, rec.curve) + y * intersect(d2, rec.curve)
            bilinear_ok &= lhs == rhs

    # permutation symmetry of the C5 and C6 index tuples
    from mgnef import FCurve, intersection_vector

    perm_ok = True
    for g in range(3, 11):
        gctx = as_context(g)
        for c in enumerate_fcurves_raw(gctx):
            if c.family not in ("C5", "C6"):
                continue
            base = intersection_vector(c)
            for p in itertools.permutations(c.indices):
                perm_ok &= intersection_vector(FCurve(gctx, c.family, p)) == base

    # ray enumeration does not depend on the inequality insertion order
    order_ok = True
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
            order_ok &= extreme_rays(shuffled) == baseline

    # every CLI payload survives a JSON round-trip with exact rationals
    json_ok = True
    commands = [
        ["fcurves", "--genus", "4"],
        ["table", "--genus", "7"],
        ["check", "--genus", "8", "--divisor", "13*L - d0"],
        ["certify", "--genus", "6"],
        ["rays", "--genus", "4"],
        ["pullback", "--genus", "6", "--model", "perfect", "--divisor", "13*M - D"],
        ["bpf", "--genus", "5", "--m-max", "2", "--alpha-max", "1", "--beta-max", "1"],
    ]
    for argv in commands:
        code = main(argv + ["--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        json_ok &= code == 0
        json_ok &= json.loads(json.dumps(payload)) == payload
        assert_no_floats(payload)
        assert_rational_strings_canonical(payload)

    ok = bilinear_ok and perm_ok and order_ok and json_ok
    announce(capsys, 8, "property suites: bilinearity, symmetry, order independence, "
             "JSON round-trip", ok)
    assert bilinear_ok, "pairing is not bilinear"
    assert perm_ok, "an index permutation changed an intersection vector"
    assert order_ok, "ray output depends on inequality order"
    assert json_ok, "a JSON payload failed to round-trip"
