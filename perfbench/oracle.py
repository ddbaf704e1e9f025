"""Independent checks of mgnef output.

Nothing here imports mgnef.  The F-curve pairing is re-derived from the
six family formulas of Gibney-Keel-Morrison for D = a*lambda - sum b_i delta_i:

    C1            a/12 - b_0 + b_1/12
    C2            b_0
    C3(i)         b_i
    C4(i)         2 b_0 - b_{i+1}
    C5(i, j)      b_i + b_j - b_{i+j}
    C6(i,j,k,l)   b_i + b_j + b_k + b_l - b_{i+j} - b_{i+k} - b_{i+l}

with every subscript read as min(k, g - k).  Rows are kept as integers,
scaled by 12, and ranks are exact, with no code shared with mgnef.linalg.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product
from math import gcd

_TAG = re.compile(r"^C([1-6])(?:\(([\d,]+)\))?$")


def parse_tag(tag: str) -> tuple[int, tuple[int, ...]]:
    m = _TAG.match(tag)
    if not m:
        raise ValueError(f"not an F-curve tag: {tag!r}")
    idx = tuple(int(x) for x in m.group(2).split(",")) if m.group(2) else ()
    return int(m.group(1)), idx


def curve_row(g: int, family: int, idx: tuple[int, ...]) -> list[int]:
    """12 times the functional D -> D.C on (a, b_0, ..., b_{g//2})."""
    row = [0] * (g // 2 + 2)

    def b(k: int, c: int) -> None:
        if not 0 <= k <= g:
            raise ValueError(f"subscript {k} outside 0..{g}")
        row[1 + min(k, g - k)] += 12 * c

    if family == 1:
        row[0] += 1
        row[1] -= 12
        row[2] += 1
    elif family == 2:
        b(0, 1)
    elif family == 3:
        b(idx[0], 1)
    elif family == 4:
        b(0, 2)
        b(idx[0] + 1, -1)
    elif family == 5:
        i, j = idx
        b(i, 1), b(j, 1), b(i + j, -1)
    else:
        i, j, k, l = idx
        for s in (i, j, k, l):
            b(s, 1)
        for s in (i + j, i + k, i + l):
            b(s, -1)
    return row


def pair(g: int, tag: str, coeffs) -> Fraction:
    """D.C for the curve named by ``tag`` and D = (a, b_0, ..., b_{g//2})."""
    row = curve_row(g, *parse_tag(tag))
    return sum((r * Fraction(c) for r, c in zip(row, coeffs)), Fraction(0)) / 12


def all_curve_rows(g: int) -> list[list[int]]:
    """Rows of every F-curve, all index orders included (small g only)."""
    rows = [curve_row(g, 1, ()), curve_row(g, 2, ())]
    rows += [curve_row(g, 3, (i,)) for i in range(1, g - 1)]
    rows += [curve_row(g, 4, (i,)) for i in range(0, g - 1)]
    rows += [curve_row(g, 5, (i, j)) for i in range(1, g) for j in range(1, g - i)]
    for i, j, k in product(range(1, g), repeat=3):
        if i + j + k < g:
            rows.append(curve_row(g, 6, (i, j, k, g - i - j - k)))
    return rows


def rank_at_least(rows: list[list[int]], target: int) -> bool:
    """Exact test rank(rows) >= target by fraction-free row reduction.

    Stops as soon as ``target`` independent rows are found, so a tall
    matrix of known rank costs only a little more than its first basis.
    """
    basis: list[tuple[int, list[int]]] = []
    for v in rows:
        for piv, brow in basis:
            if v[piv]:
                f, p = v[piv], brow[piv]
                v = [p * x - f * y for x, y in zip(v, brow)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            continue
        common = 0
        for x in v:
            common = gcd(common, x)
        basis.append((lead, [x // common for x in v]))
        if len(basis) >= target:
            return True
    return len(basis) >= target


def check_rays(g: int, payload: dict) -> list[str]:
    """Each ray satisfies every F-curve row and has an active set of rank d-1.

    Rank is at most d-1 because the active rows vanish on the nonzero ray,
    so reaching d-1 proves equality.
    """
    d = g // 2 + 2
    errs = []
    if payload.get("command") != "rays" or payload.get("genus") != g or payload.get("dim") != d:
        errs.append(f"rays g={g}: wrong header")
    rays = [tuple(int(x) for x in r) for r in payload.get("rays", [])]
    if payload.get("count") != len(rays) or not rays or len(set(rays)) != len(rays):
        errs.append(f"rays g={g}: count mismatch or duplicates")
    rows = all_curve_rows(g)
    for ray in rays:
        if len(ray) != d or gcd(*ray) != 1:
            errs.append(f"rays g={g}: ray {ray} is not a primitive integer vector")
            continue
        vals = [sum(r * x for r, x in zip(row, ray)) for row in rows]
        if min(vals) < 0:
            errs.append(f"rays g={g}: ray {ray} violates an F-curve")
        active = [row for row, v in zip(rows, vals) if v == 0]
        if not rank_at_least(active, d - 1):
            errs.append(f"rays g={g}: ray {ray} active rank below {d - 1}")
    return errs


def check_certify(g: int, payload: dict) -> list[str]:
    """All checks pass, active rank d-2, |det| = 1, and the listed active
    curves vanish on both generators with rows of rank d-2."""
    d = g // 2 + 2
    errs = []
    lam = [1] + [0] * (d - 1)
    twelve = [12, 1] + [0] * (d - 2)
    if payload.get("command") != "certify" or payload.get("genus") != g:
        errs.append(f"certify g={g}: wrong header")
    checks = payload.get("checks") or []
    if not checks or not all(c.get("pass") is True for c in checks):
        errs.append(f"certify g={g}: a check did not pass")
    if payload.get("active_rank") != d - 2 or payload.get("face_dim") != 2:
        errs.append(f"certify g={g}: active rank or face dimension wrong")
    det = payload.get("det")
    if det is None or abs(Fraction(det)) != 1:
        errs.append(f"certify g={g}: |det| != 1")
    gens = [[Fraction(x) for x in v] for v in payload.get("generators") or []]
    if gens != [lam, twelve]:
        errs.append(f"certify g={g}: generators are not lambda, 12lambda-delta0")
    rows = []
    for tag in payload.get("active_curves", []):
        row = curve_row(g, *parse_tag(tag))
        if any(sum(r * x for r, x in zip(row, v)) != 0 for v in (lam, twelve)):
            errs.append(f"certify g={g}: {tag} is not active")
            break
        rows.append(row)
    if not rank_at_least(rows, d - 2):
        errs.append(f"certify g={g}: listed active rows have rank below {d - 2}")
    return errs
