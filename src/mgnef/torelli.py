"""Toroidal and Satake compactifications seen through the Torelli map.

The catalog keeps three models of the compactified moduli of abelian
varieties, each with its Picard basis, nef cone, and (when one is known)
the images of the basis classes under pullback along the Torelli map:

    satake    rank 1, basis M;       nef = {a*M : a >= 0};       M -> lambda
    partial   rank 2, basis M, D;    nef = {a >= 12b >= 0};      no pullback stored
    perfect   rank 2, basis M, D;    nef = {a >= 12b >= 0};      M -> lambda, D -> delta_0

Divisors on a model are written a*M - b*D, matching the divisor side's
sign convention.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Sequence

from ._record import Record
from .cones import PolyCone, extreme_rays
from .divisors import (
    DivisorClass,
    _parse_linear,
    as_context,
    boundary_total,
    canonical_class,
    face_member,
)
from .errors import ModelMismatchError
from .fcurves import FCurve, intersect


class CompactificationModel(Record):
    """One compactification: Picard basis, nef cone rows, pullback flag."""

    _fields = ("name", "picard_rank", "basis_labels", "nef_rows", "nef_row_labels",
               "has_pullback")

    def nef_cone(self) -> PolyCone:
        """Nef cone in the model's own (a, b) coordinates, built once per model."""
        return self._nef_cone

    @cached_property
    def _nef_cone(self) -> PolyCone:
        return PolyCone.from_inequalities(self.nef_rows, self.nef_row_labels)

    @cached_property
    def _pullback_cones(self) -> dict[int, PolyCone]:  # per genus, by pullback_nef_cone
        return {}


SATAKE = CompactificationModel(
    name="satake",
    picard_rank=1,
    basis_labels=("M",),
    nef_rows=((1,),),
    nef_row_labels=("a>=0",),
    has_pullback=True,
)

PARTIAL = CompactificationModel(
    name="partial",
    picard_rank=2,
    basis_labels=("M", "D"),
    nef_rows=((1, -12), (0, 1)),
    nef_row_labels=("a-12b>=0", "b>=0"),
    has_pullback=False,
)

PERFECT = CompactificationModel(
    name="perfect",
    picard_rank=2,
    basis_labels=("M", "D"),
    nef_rows=((1, -12), (0, 1)),
    nef_row_labels=("a-12b>=0", "b>=0"),
    has_pullback=True,
)

MODELS: dict[str, CompactificationModel] = {
    m.name: m for m in (SATAKE, PARTIAL, PERFECT)
}


def get_model(name: str) -> CompactificationModel:
    try:
        return MODELS[name]
    except KeyError:
        raise ModelMismatchError(
            f"unknown model {name!r}, expected one of {sorted(MODELS)}"
        ) from None


class AbelianDivisor(Record):
    """a*M - b*D on one of the cataloged models (b fixed to 0 at rank 1)."""

    _fields = ("model", "a", "b")

    def __init__(self, model: str, a: Fraction, b: Fraction = Fraction(0)):
        a, b = [x if x.__class__ is Fraction else Fraction(x) for x in (a, b)]
        if get_model(model).picard_rank == 1 and b != 0:
            raise ModelMismatchError(f"model {model!r} has no D class")
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def coeffs(self) -> tuple[Fraction, ...]:
        m = get_model(self.model)
        return (self.a,) if m.picard_rank == 1 else (self.a, self.b)

    def to_expr(self) -> str:
        if get_model(self.model).picard_rank == 1 or self.b == 0:
            return f"{self.a}*M"
        sign = " - " if self.b > 0 else " + "
        return f"{self.a}*M{sign}{abs(self.b)}*D"

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "a": str(self.a),
            "b": str(self.b),
            "expr": self.to_expr(),
        }


# nonzero coordinates of (a, b) in a*M - b*D, so D stores b = -1
_BASIS = {"M": ((0, 1),), "D": ((1, -1),)}


def parse_abelian(text: str, model_name: str) -> AbelianDivisor:
    """Parse ``a*M - b*D`` (either term optional, rationals as p/q)."""
    num, den = _parse_linear(text, 2, "M|D", _BASIS, None, "basis class M or D")
    # the model is checked by AbelianDivisor, which also refuses D at rank 1
    return AbelianDivisor(model_name, Fraction(num[0], den), Fraction(num[1], den))


def basis_images(model: CompactificationModel, ctx) -> tuple[DivisorClass, ...]:
    """Pullback images of the model's basis classes, when the catalog has them."""
    basis = ((1, 0), (0, -1))[: model.picard_rank]  # M and D, as (a, b) in a*M - b*D
    return tuple(pullback(model, AbelianDivisor(model.name, *x), ctx) for x in basis)


def pullback(model: CompactificationModel, adiv: AbelianDivisor, ctx) -> DivisorClass:
    """Image a*lambda - b*delta_0 of a*M - b*D on the divisor side, whose
    coordinates are (a, b, 0, ..., 0)."""
    if adiv.model != model.name:
        raise ModelMismatchError(
            f"divisor on model {adiv.model!r} pulled back through {model.name!r}"
        )
    ctx = as_context(ctx)
    if not model.has_pullback:
        raise ModelMismatchError(f"no pullback stored in the catalog for model {model.name!r}")
    a, b = adiv.a, adiv.b
    den = lcm(a.denominator, b.denominator)
    num = (a.numerator * (den // a.denominator), b.numerator * (den // b.denominator))
    return DivisorClass._of(ctx, num + (0,) * (ctx.dim - 2), den)


def pullback_nef_cone(model: CompactificationModel, ctx) -> PolyCone:
    """V-rep image of the model's nef cone in divisor coordinates, built
    once per model and genus and kept on the model.  A model without a
    pullback raises on every call, as it stores no cone."""
    ctx = as_context(ctx)
    cones = model._pullback_cones
    if ctx.g not in cones:
        rays = extreme_rays(model.nef_cone())
        gens = [pullback(model, AbelianDivisor(model.name, *ray), ctx).num for ray in rays]
        cones[ctx.g] = PolyCone.from_generators(gens, dim=ctx.dim, genus=ctx.g)
    return cones[ctx.g]


# -- position inside the two-parameter face -----------------------------------


class FaceLocation(enum.Enum):
    INTERIOR = "interior"
    RAY_LAMBDA = "ray-lambda"
    RAY_12LAMBDA_DELTA0 = "ray-12lambda-delta0"
    ORIGIN = "origin"
    OUTSIDE = "outside"


class FaceClassification(Record):
    _fields = ("location", "alpha", "beta", "epsilon")
    alpha = beta = epsilon = None


_OUTSIDE = FaceClassification(FaceLocation.OUTSIDE)  # shared by every divisor off the face


def classify_in_face(d: DivisorClass) -> FaceClassification:
    """Position of a divisor relative to the cone spanned by lambda and
    12*lambda - delta_0.

    A member decomposes as alpha*lambda + beta*(12*lambda - delta_0) with
    alpha, beta >= 0; interior members also report epsilon = a/b - 12,
    the slope excess over the boundary ray.
    """
    b0 = d.num[1]
    alpha = d.num[0] - 12 * b0  # alpha and beta times d's denominator
    if b0 < 0 or alpha < 0 or any(d.num[2:]):
        return _OUTSIDE
    loc = (FaceLocation.INTERIOR if alpha and b0 else FaceLocation.RAY_LAMBDA if alpha
           else FaceLocation.RAY_12LAMBDA_DELTA0 if b0 else FaceLocation.ORIGIN)
    return FaceClassification(loc, Fraction(alpha, d.den), Fraction(b0, d.den),
                              Fraction(alpha, b0) if alpha and b0 else None)


# -- semi-ampleness catalog ----------------------------------------------------


class SemiampleStatus(Record):
    _fields = ("classification", "status", "reason")


# what the catalog knows at each place of the face; the 12*lambda - delta_0
# ray reads so up to genus 11 and _RAY_BEYOND_GENUS_11 after it
_SEMIAMPLE = {
    FaceLocation.ORIGIN: ("semi-ample", "the zero class is trivially semi-ample"),
    FaceLocation.RAY_LAMBDA: (
        "semi-ample", "pullback of the ample generator under the map to the Satake model"),
    FaceLocation.INTERIOR: (
        "semi-ample", "pullback of an ample class under the map to the perfect cone model"),
    FaceLocation.RAY_12LAMBDA_DELTA0: (
        "semi-ample over the complex numbers",
        "boundary ray of the pulled back nef cone, basepoint free in genus up to 11"),
    FaceLocation.OUTSIDE: ("unknown", "outside the two-parameter face covered by this catalog"),
}
_RAY_BEYOND_GENUS_11 = (
    "nef, semi-ampleness unknown",
    "nef for every genus, but basepoint freeness beyond genus 11 is not settled by this catalog",
)
_OFF_FACE = SemiampleStatus(_OUTSIDE, *_SEMIAMPLE[FaceLocation.OUTSIDE])


def semiample_status(d: DivisorClass) -> SemiampleStatus:
    """What the catalog knows about base loci of multiples of the class."""
    cls = classify_in_face(d)
    if cls is _OUTSIDE:
        return _OFF_FACE
    if cls.location is FaceLocation.RAY_12LAMBDA_DELTA0 and d.ctx.g > 11:
        return SemiampleStatus(cls, *_RAY_BEYOND_GENUS_11)
    return SemiampleStatus(cls, *_SEMIAMPLE[cls.location])


# -- scan of mD - (K + Delta) over a parameter grid ----------------------------


class BpfEntry(Record):
    _fields = ("m", "alpha", "beta", "divisor", "c3_values")

    @property
    def ok(self) -> bool:
        return all(v == -1 for v in self.c3_values)


class BpfReport(Record):
    """The scan's grid size and its entries whose C3 values are not all -1."""

    _fields = ("genus", "points", "deviations", "symbolic_ok")

    @property
    def ok(self) -> bool:
        return self.symbolic_ok and not self.deviations

    def to_json_dict(self) -> dict:
        return {
            "genus": self.genus,
            "entries": self.points,
            "symbolic_delta_check": self.symbolic_ok,
            "all_c3_equal_minus_one": not self.deviations,
            "deviations": [{"m": e.m, "alpha": str(e.alpha), "beta": str(e.beta),
                            "c3_values": [str(v) for v in e.c3_values]}
                           for e in self.deviations],
        }


def bpf_scan(ctx, m_values: Sequence[int], alphas: Sequence, betas: Sequence) -> BpfReport:
    """Evaluate m*D_{alpha,beta} - (K + Delta) against every C3(i).

    D_{alpha,beta} lives on the face, so the subtraction leaves every
    delta_i coefficient (i >= 1) equal to -1 no matter what m is; each C3
    value should therefore be exactly -1.  The symbolic flag records that
    coefficient identity; the report counts the grid points and keeps, in
    scan order, only the entries with some other value.  By linearity the
    values at m are m * v_D - v_adj, the C3 values of D_{alpha,beta} and of
    K + Delta, so m is scanned only when v_D is nonzero or v_adj is not 1.
    """
    ctx = as_context(ctx)
    adjoint = canonical_class(ctx) + boundary_total(ctx)
    c3_curves = [FCurve(ctx, "C3", (i,)) for i in range(1, ctx.g - 1)]
    v_adj = [intersect(adjoint, c) for c in c3_curves]

    symbolic_ok = all(x == 1 for x in adjoint.b[1:])
    deviations = []
    for alpha in alphas:
        for beta in betas:
            member = face_member(ctx, alpha, beta)
            symbolic_ok = symbolic_ok and not any(member.num[2:])
            v_d = [intersect(member, c) for c in c3_curves]
            for m in m_values if any(v_d) or any(w != 1 for w in v_adj) else ():
                vals = tuple(m * v - w for v, w in zip(v_d, v_adj))
                if any(v != -1 for v in vals):
                    deviations.append(BpfEntry(int(m), Fraction(alpha), Fraction(beta),
                                               member.scale(m) - adjoint, vals))
    points = len(m_values) * len(alphas) * len(betas)
    return BpfReport(ctx.g, points, tuple(deviations), symbolic_ok)
