"""Command line front end.

Exit status: 0 when the requested checks pass, 1 when a check fails or a
domain error occurs, 2 for usage and parse errors.  All rational numbers
in JSON output are strings like ``5/3`` in lowest terms.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .cones import extreme_rays, fnef_cone, verify_extremal_face
from .divisors import GenusContext, parse_divisor
from .errors import CertificateFailure, MgnefError, ParseError
from .fcurves import FORMULAS, is_fnef, numerical_classes
from .torelli import (
    bpf_scan,
    classify_in_face,
    get_model,
    parse_abelian,
    pullback,
    semiample_status,
)


def _formula(terms, latex: bool) -> str:
    """Render FORMULAS terms, which are 12 * (D . C), as D . C."""
    out = ""
    for coeff, coord in terms:
        if latex and coord[1:].isdigit():
            coord = f"b_{coord[1:]}"
        c = abs(Fraction(coeff, 12))
        body = coord if c.numerator == 1 else f"{c.numerator}{'' if latex else '*'}{coord}"
        if c.denominator != 1:
            body = rf"\frac{{{body}}}{{{c.denominator}}}" if latex else f"{body}/{c.denominator}"
        out += (" - " if coeff < 0 else " + ") if out else ("-" if coeff < 0 else "")
        out += body
    return out


def _number(x: Fraction, latex: bool) -> str:
    return rf"\frac{{{x.numerator}}}{{{x.denominator}}}" if latex and x.denominator != 1 else str(x)


def _table_rows(latex: bool = False) -> list[tuple[str, str, str, str]]:
    """(curve, value on D, value on lambda, value on 12*lambda - delta_0)
    per family, from the formula table."""
    rows = []
    for fam, (names, terms) in FORMULAS.items():
        label = f"{fam[0]}_{fam[1:]}" if latex else fam
        if names:
            label += f"({','.join(names)})"
        coeff = {coord: c for c, coord in terms}
        lam = Fraction(coeff.get("a", 0), 12)
        twelve = 12 * lam + Fraction(coeff.get("b0", 0), 12)
        rows.append((label, _formula(terms, latex), _number(lam, latex), _number(twelve, latex)))
    return rows


def _emit(payload: dict, human: str, args) -> None:
    text = json.dumps(payload, indent=2) if args.format == "json" else human
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_fcurves(args) -> int:
    g = args.genus
    records = []
    lines = [f"F-curve classes at genus {g}:"]
    for rec in numerical_classes(g):
        c, vector = rec.curve, rec.vector
        records.append(
            {
                "family": c.family,
                "indices": list(c.indices),
                "genus": g,
                "vector": [str(x) for x in vector],
                "merged": list(rec.tags),
            }
        )
        merged = "" if len(rec.tags) == 1 else f"  (= {', '.join(rec.tags[1:])})"
        vecstr = "(" + ", ".join(str(x) for x in vector) + ")"
        lines.append(f"  {c.tag:<16} {vecstr}{merged}")
    payload = {"command": "fcurves", "genus": g, "count": len(records), "curves": records}
    _emit(payload, "\n".join(lines), args)
    return 0


def cmd_table(args) -> int:
    g = args.genus
    GenusContext(g).require_basis()
    text_rows = _table_rows()
    rows = [
        {"family": fam, "value": val, "lambda": lam, "twelve_lambda_minus_delta0": tw}
        for fam, val, lam, tw in text_rows
    ]
    payload = {"command": "table", "genus": g, "rows": rows}
    if args.format == "latex":
        lines = [
            r"\begin{tabular}{llll}",
            r"\hline",
            r"curve & value on $a\lambda - \sum b_i\delta_i$ & $\lambda$ & "
            r"$12\lambda - \delta_0$ \\",
            r"\hline",
        ]
        for fam, val, lam, twelve in _table_rows(latex=True):
            lines.append(f"${fam}$ & ${val}$ & ${lam}$ & ${twelve}$ \\\\")
        lines += [r"\hline", r"\end{tabular}"]
        human = "\n".join(lines)
    else:
        width = max(len(r[1]) for r in text_rows)
        lines = [f"{'curve':<14} {'value':<{width}}  {'lambda':>6}  12lambda-delta0"]
        for fam, val, lam, tw in text_rows:
            lines.append(f"{fam:<14} {val:<{width}}  {lam:>6}  {tw}")
        human = "\n".join(lines)
    _emit(payload, human, args)
    return 0


def cmd_check(args) -> int:
    g = args.genus
    d = parse_divisor(args.divisor, g)
    ok, witness = is_fnef(d)
    cls = classify_in_face(d)
    status = semiample_status(d)
    payload = {
        "command": "check",
        "genus": g,
        "divisor": d.to_json_dict(),
        "checks": [{"name": "fnef", "pass": ok, "witness": None if ok else witness.tag}],
        "location": cls.location.value,
        "alpha": None if cls.alpha is None else str(cls.alpha),
        "beta": None if cls.beta is None else str(cls.beta),
        "epsilon": None if cls.epsilon is None else str(cls.epsilon),
        "status": status.status,
        "reason": status.reason,
    }
    lines = [f"divisor: {d.to_expr()}  (genus {g})"]
    if ok:
        lines.append("F-nef: yes")
    else:
        lines.append(f"F-nef: no, negative against {witness.tag}")
    lines.append(f"location: {cls.location.value}")
    if cls.epsilon is not None:
        lines.append(f"epsilon: {cls.epsilon}")
    lines.append(f"status: {status.status} ({status.reason})")
    _emit(payload, "\n".join(lines), args)
    return 0 if ok else 1


def cmd_certify(args) -> int:
    g = args.genus
    try:
        cert = verify_extremal_face(g)
    except CertificateFailure as exc:
        payload = {
            "command": "certify",
            "genus": g,
            "error": {"check": exc.check_name, "detail": exc.detail},
        }
        _emit(payload, f"certificate FAILED at {exc.check_name}: {exc.detail}", args)
        return 1
    payload = {"command": "certify", **cert.to_json_dict()}
    lines = [f"extremal face certificate, genus {g}:"]
    for c in cert.checks:
        lines.append(f"  [{'pass' if c.ok else 'FAIL'}] {c.name}" + (f" ({c.detail})" if c.detail else ""))
    lines.append(f"  face dimension {cert.face_dim}, active rank {cert.active_rank}, det {cert.det}")
    _emit(payload, "\n".join(lines), args)
    return 0


def cmd_rays(args) -> int:
    g = args.genus
    cone = fnef_cone(g)
    rays = extreme_rays(cone, limit=args.limit)
    payload = {
        "command": "rays",
        "genus": g,
        "dim": cone.dim,
        "count": len(rays),
        "rays": [[str(x) for x in r] for r in rays],
    }
    lines = [f"extreme rays of the F-nef cone, genus {g} (coordinates a, b0, b1, ...):"]
    for r in rays:
        lines.append("  (" + ", ".join(str(x) for x in r) + ")")
    _emit(payload, "\n".join(lines), args)
    return 0


def cmd_pullback(args) -> int:
    g = args.genus
    model = get_model(args.model)
    adiv = parse_abelian(args.divisor, args.model)
    image = pullback(model, adiv, g)
    model_nef = model.nef_cone().contains(adiv.coeffs())
    ok, witness = is_fnef(image)
    cls = classify_in_face(image)
    payload = {
        "command": "pullback",
        "model": model.name,
        "genus": g,
        "input": adiv.to_json_dict(),
        "image": image.to_json_dict(),
        "checks": [
            {"name": "model-nef", "pass": model_nef, "witness": None},
            {"name": "image-fnef", "pass": ok,
             "witness": None if ok else witness.tag},
        ],
        "location": cls.location.value,
    }
    lines = [
        f"{adiv.to_expr()} on {model.name} pulls back to {image.to_expr()} at genus {g}",
        f"nef on the model: {'yes' if model_nef else 'no'}",
        f"F-nef image: {'yes' if ok else f'no, negative against {witness.tag}'}",
        f"location: {cls.location.value}",
    ]
    _emit(payload, "\n".join(lines), args)
    return 0 if model_nef and ok else 1


def cmd_bpf(args) -> int:
    g = args.genus
    report = bpf_scan(
        g,
        list(range(1, args.m_max + 1)),
        [Fraction(a) for a in range(0, args.alpha_max + 1)],
        [Fraction(b) for b in range(0, args.beta_max + 1)],
    )
    payload = {"command": "bpf", **report.to_json_dict()}
    lines = [
        f"adjoint scan at genus {g}: {len(report.entries)} grid points",
        f"symbolic delta coefficient check: {'pass' if report.symbolic_ok else 'FAIL'}",
        f"all C3 values equal -1: {'pass' if not report.deviations else 'FAIL'}",
    ]
    _emit(payload, "\n".join(lines), args)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgnef",
        description="Exact F-curve intersection calculus and nef cone checks "
        "on the moduli of stable curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "text"), genus_required=True):
        p.add_argument("--genus", "-g", type=int, required=genus_required,
                       help="genus of the moduli space")
        p.add_argument("--format", choices=formats, default="text",
                       help="output format")
        p.add_argument("--output", metavar="FILE", help="write output to a file")

    p = sub.add_parser("fcurves", help="list the F-curve classes")
    common(p)
    p.set_defaults(func=cmd_fcurves)

    p = sub.add_parser("table", help="print the symbolic intersection table")
    common(p, formats=("json", "text", "latex"))
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("check", help="check a divisor class against all F-curves")
    common(p)
    p.add_argument("--divisor", required=True, help="expression like '13*L - 2*d0 - 2*d1'")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("certify", help="certify the 2-dimensional extremal face")
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("rays", help="extreme rays of the F-nef cone")
    common(p)
    p.add_argument("--limit", type=int, default=8,
                   help="dimension limit for ray enumeration (default 8)")
    p.set_defaults(func=cmd_rays)

    p = sub.add_parser("pullback", help="pull a divisor back through the Torelli map")
    common(p)
    p.add_argument("--model", required=True, choices=("satake", "partial", "perfect"))
    p.add_argument("--divisor", required=True, help="expression like '13*M - 1*D'")
    p.set_defaults(func=cmd_pullback)

    p = sub.add_parser("bpf", help="scan adjoint-subtracted multiples against C3 curves")
    common(p)
    p.add_argument("--m-max", type=int, default=5)
    p.add_argument("--alpha-max", type=int, default=4)
    p.add_argument("--beta-max", type=int, default=4)
    p.set_defaults(func=cmd_bpf)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bpf" and (args.m_max < 1 or args.alpha_max < 0 or args.beta_max < 0):
        parser.error("empty bpf grid: need --m-max >= 1, --alpha-max >= 0 and --beta-max >= 0")
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MgnefError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
