"""Seeded text queries for the query-mix workload, with their answers.

Every pass holds ``PER_STRATUM`` queries for each (genus, kind, F-nef)
stratum, in seeded random order, so the mix is the same for every seed
while the divisors differ.  The strata have equal weight, and within a
stratum the model (perfect or Satake) alternates and the face location is
drawn uniformly from those the construction can reach.  These weights are
a design choice, not observed traffic; only the three kinds and the half
of F-nef divisors come from the workload's definition.  Answers are known
by construction:

* F-nef divisors are built on the face spanned by lambda and
  12*lambda - delta_0, so their face location is known;
* the others are pushed off the face by t*delta_k with t > 0, which makes
  C3(min(k, g-k)) pair to -t; the witness mgnef returns is checked to pair
  negatively by ``oracle.pair``;
* pullbacks of a*M - b*D are F-nef exactly when a >= 12b >= 0 (perfect
  cone model) or a >= 0 (Satake model).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import oracle

GENERA = (24, 32, 40)
KINDS = ("check", "pullback", "vrep")
PER_STRATUM = 4

STATUS = {
    "origin": "semi-ample",
    "ray-lambda": "semi-ample",
    "interior": "semi-ample",
    # every genus in GENERA is above 11
    "ray-12lambda-delta0": "nef, semi-ampleness unknown",
    "outside": "unknown",
}


@dataclass(frozen=True)
class Query:
    kind: str
    genus: int
    text: str
    model: str | None
    coeffs: tuple[Fraction, ...]  # the divisor on M_g (the image, for pullback)
    fnef: bool
    location: str
    member: bool | None = None  # model-nef (pullback) or cone membership (vrep)


def location(alpha, beta) -> str:
    if alpha < 0 or beta < 0:
        return "outside"
    if alpha == 0 and beta == 0:
        return "origin"
    if beta == 0:
        return "ray-lambda"
    return "ray-12lambda-delta0" if alpha == 0 else "interior"


def _rat(rng) -> Fraction:
    return Fraction(rng.randint(1, 40), rng.randint(1, 6))


def _face_point(rng) -> tuple[Fraction, Fraction]:
    """(alpha, beta) at the origin, on either ray or inside, with equal odds."""
    return (_rat(rng) if rng.random() < 0.5 else Fraction(0),
            _rat(rng) if rng.random() < 0.5 else Fraction(0))


def _render(rng, terms) -> str:
    """``c*atom`` terms joined with signs; "0" when every c is 0."""
    out = ""
    for c, atom in terms:
        if c == 0:
            continue
        body = atom if abs(c) == 1 and rng.random() < 0.5 else f"{abs(c)}*{atom}"
        if not out:
            out = body if c > 0 else f"-{body}"
        else:
            out += (" + " if c > 0 else " - ") + body
    return out or "0"


def _divisor(rng, g: int, fnef: bool) -> tuple[str, list[Fraction], str]:
    """Text, coordinates (a, b_0, ..., b_{g//2}) and expected location."""
    alpha, beta = _face_point(rng)
    b = [Fraction(0)] * (g // 2 + 1)
    b[0] = beta
    coeffs = [alpha + 12 * beta] + b
    lam = rng.choice(("L", "lambda"))
    if rng.random() < 0.5:
        terms = [(alpha, lam), (beta, "12L-d0")]
    else:
        terms = [(alpha + 12 * beta, lam), (-beta, "d0")]
    if fnef:
        return _render(rng, terms), coeffs, location(alpha, beta)
    # D + t*delta_k lowers b_{min(k, g-k)} to -t, so C3 there pairs to -t
    k = rng.randint(1, g - 1)
    t = _rat(rng)
    terms.append((t, f"d{k}"))
    coeffs[1 + min(k, g - k)] -= t
    for _ in range(rng.randint(0, 2)):
        j = rng.randint(0, g)
        if min(j, g - j) != min(k, g - k):
            s = rng.choice((-1, 1)) * _rat(rng)
            terms.append((s, f"d{j}"))
            coeffs[1 + min(j, g - j)] -= s
    return _render(rng, terms), coeffs, "outside"


def _pullback(rng, g: int, model: str, fnef: bool) -> Query:
    if model == "satake":
        b = Fraction(0)
        a = _face_point(rng)[0] if fnef else -_rat(rng)
    elif fnef:
        alpha, b = _face_point(rng)
        a = alpha + 12 * b
    elif rng.random() < 0.5:
        b, a = -_rat(rng), _rat(rng)
    else:
        b = _rat(rng)
        a = 12 * b - _rat(rng)
    terms = [(a, "M"), (-b, "D")]
    if rng.random() < 0.5:
        terms.reverse()
    coeffs = (a, b) + (Fraction(0),) * (g // 2)
    return Query("pullback", g, _render(rng, terms), model, coeffs, fnef,
                 location(a - 12 * b, b), fnef)


def generate(seed: int, pass_index: int) -> list[Query]:
    rng = random.Random(seed * 1_000_003 + pass_index)
    script = []
    for g in GENERA:
        for kind in KINDS:
            for fnef in (True, False):
                for i in range(PER_STRATUM):
                    model = ("perfect", "satake")[i % 2]
                    if kind == "pullback":
                        script.append(_pullback(rng, g, model, fnef))
                        continue
                    text, coeffs, loc = _divisor(rng, g, fnef)
                    if kind == "check":
                        script.append(Query(kind, g, text, None, tuple(coeffs), fnef, loc))
                        continue
                    on_cone = loc != "outside" if model == "perfect" else loc in ("origin", "ray-lambda")
                    script.append(Query(kind, g, text, model, tuple(coeffs), fnef, loc, on_cone))
    rng.shuffle(script)
    return script


def run(mg, q: Query) -> tuple:
    """Answer one query through mgnef's public API, looked up at call time."""
    if q.kind == "vrep":
        d = mg.parse_divisor(q.text, q.genus)
        cone = mg.pullback_nef_cone(mg.get_model(q.model), q.genus)
        return d.coeffs(), cone.contains(d)
    if q.kind == "check":
        d = mg.parse_divisor(q.text, q.genus)
        ok, witness = mg.is_fnef(d)
        cls = mg.classify_in_face(d)
        extra = (cls.alpha, cls.beta, cls.epsilon, mg.semiample_status(d).status)
    else:
        model = mg.get_model(q.model)
        adiv = mg.parse_abelian(q.text, q.model)
        d = mg.pullback(model, adiv, q.genus)
        model_nef = model.nef_cone().contains(adiv.coeffs())
        ok, witness = mg.is_fnef(d)
        cls = mg.classify_in_face(d)
        extra = (model_nef,)
    return (d.coeffs(), ok, None if ok else witness.tag, cls.location.value) + extra


def check(q: Query, answer: tuple) -> list[str]:
    """Differences between an answer and the one known by construction."""
    errs = []
    if tuple(answer[0]) != q.coeffs:
        errs.append("wrong divisor coordinates")
    if q.kind == "vrep":
        if answer[1] is not q.member:
            errs.append(f"membership {answer[1]}, expected {q.member}")
        return [f"{q.kind} g={q.genus} {q.text!r}: {e}" for e in errs]
    _, ok, witness, loc = answer[:4]
    if ok is not q.fnef:
        errs.append(f"F-nef {ok}, expected {q.fnef}")
    elif not ok and not oracle.pair(q.genus, witness, q.coeffs) < 0:
        errs.append(f"witness {witness} does not pair negatively")
    if loc != q.location:
        errs.append(f"location {loc}, expected {q.location}")
    if q.kind == "pullback":
        if answer[4] is not q.member:
            errs.append(f"model-nef {answer[4]}, expected {q.member}")
    else:
        alpha, beta, epsilon, status = answer[4:]
        if q.location != "outside":
            want_beta = q.coeffs[1]
            want_alpha = q.coeffs[0] - 12 * want_beta
            want_eps = want_alpha / want_beta if q.location == "interior" else None
            if (alpha, beta, epsilon) != (want_alpha, want_beta, want_eps):
                errs.append("wrong face coordinates")
        if status != STATUS[q.location]:
            errs.append(f"status {status!r}, expected {STATUS[q.location]!r}")
    return [f"{q.kind} g={q.genus} {q.text!r}: {e}" for e in errs]
