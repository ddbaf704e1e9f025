"""Spans and counters around mgnef's public functions, installed from outside.

``Tracer.install`` wraps every public function of the six layer modules
except ``UNWRAPPED``, and the methods listed in ``METHODS``, and rebinds
each wrapper in every ``mgnef`` namespace that holds the original, so
calls made through ``from .x import y`` bindings are seen too.
Fine-grained calls listed in ``COUNTED`` only bump a counter; everything
else also records a span (name, start, end, parent, request id).  Spans
stay in memory until ``snapshot`` hands them to ``layer_metrics`` or to a
trace file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "fcurves", "divisors", "linalg", "cones", "torelli")

# Public methods traced like functions, per "module.Class".
METHODS = {
    "linalg.QMatrix": ("from_rows", "rank", "det", "inverse", "kernel_basis", "solve",
                       "transpose", "matvec"),
    "cones.PolyCone": ("from_inequalities", "from_generators", "contains"),
    "torelli.CompactificationModel": ("nef_cone",),
    # construction of divisor objects, counted through the dataclass hook
    "divisors.DivisorClass": ("__post_init__",),
}

# Called up to hundreds of thousands of times per command: counters only,
# their time stays in the calling span.
COUNTED = {
    "fcurves.intersect", "fcurves.intersection_vector",
    "linalg.dot", "linalg.vec", "linalg.vec_add", "linalg.vec_sub", "linalg.vec_scale",
    "linalg.is_zero_vec", "linalg.primitive", "linalg.primitive_oriented",
    "divisors.DivisorClass.__post_init__", "divisors.as_context",
    "divisors.lambda_class", "divisors.delta", "divisors.twelve_lambda_minus_delta0",
    "divisors.zero_divisor", "divisors.boundary_total", "divisors.canonical_class",
    "divisors.face_member", "divisors.from_coeffs",
    "torelli.get_model", "torelli.basis_images",
}

# Read on every coefficient access: 563k calls in one certify at g = 50,
# six times the intersect calls.  No metric needs its count.
UNWRAPPED = {"divisors.reflect_index"}


def _classes(tracer, args, result):
    # cached per genus, so count each genus once per process
    if result:
        tracer.classes[result[0].curve.ctx.g] = len(result)


# Work read from arguments or results, recorded next to the call counts.
OBSERVE = {
    "linalg.QMatrix.rank": lambda t, a, r: t.work.update({"linalg.rank_cells": a[0].nrows * a[0].ncols}),
    "fcurves.numerical_classes": _classes,
    "fcurves.enumerate_fcurves_raw": lambda t, a, r: t.work.update({"fcurves.raw_curves": len(r)}),
    "cones.extreme_rays": lambda t, a, r: t.work.update({"cones.rays": len(r)}),
}


def _targets():
    """(name, owner, attribute) for everything to wrap."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"mgnef.{layer}")
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__ and name not in UNWRAPPED):
                out.append((name, mod, attr))
    for qual, names in METHODS.items():
        layer, cls_name = qual.split(".")
        cls = getattr(importlib.import_module(f"mgnef.{layer}"), cls_name)
        out += [(f"{qual}.{n}", cls, n) for n in names]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request]
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.classes: dict[int, int] = {}
        self.request = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn):
        calls, observe = self.calls, OBSERVE.get(name)
        if name in COUNTED:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1, self.request])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            calls[name] += 1
            if observe:
                observe(self, args, result)
            return result
        return spanned

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items() if n == "mgnef" or n.startswith("mgnef.")]
        for name, owner, attr in _targets():
            raw = inspect.getattr_static(owner, attr)
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self._wrap(name, fn)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            if inspect.ismodule(owner):
                for ns in namespaces:
                    if ns is not owner and vars(ns).get(attr) is fn:
                        self._undo.append((ns, attr, fn))
                        setattr(ns, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- output ---------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"spans": self.spans, "calls": self.calls, "work": self.work,
                "classes": self.classes}


# metric -> span name whose total duration it is
_SPAN_TIME = {
    "fcurves.classes_s": "fcurves.numerical_classes",
    "fcurves.enumerate_s": "fcurves.enumerate_fcurves_raw",
    "fcurves.is_fnef_s": "fcurves.is_fnef",
    "divisors.parse_s": "divisors.parse_divisor",
    "linalg.rank_s": "linalg.QMatrix.rank",
    "linalg.det_s": "linalg.QMatrix.det",
    "cones.dd_s": "cones.extreme_rays",
    "cones.certificate_s": "cones.face_certificate",
    "cones.fnef_cone_s": "cones.fnef_cone",
    "cones.simplex_s": "cones.nonneg_combination",
    "torelli.pullback_s": "torelli.pullback",
    "torelli.classify_s": "torelli.classify_in_face",
    "torelli.nef_cone_s": "torelli.pullback_nef_cone",
    "cli.main_s": "cli.main",
}

# metric -> wrapped name whose call count it is
_CALLS = {
    "fcurves.ineq_row_calls": "fcurves.ineq_row",
    "fcurves.is_fnef_calls": "fcurves.is_fnef",
    "fcurves.intersect_calls": "fcurves.intersect",
    "divisors.objects_built": "divisors.DivisorClass.__post_init__",
    "divisors.parse_calls": "divisors.parse_divisor",
    "linalg.rank_calls": "linalg.QMatrix.rank",
    "linalg.inverse_calls": "linalg.QMatrix.inverse",
    "linalg.kernel_calls": "linalg.QMatrix.kernel_basis",
    "linalg.dot_calls": "linalg.dot",
    "cones.simplex_calls": "cones.nonneg_combination",
    "torelli.pullback_calls": "torelli.pullback",
}


def layer_metrics(names, traces) -> tuple[dict, dict]:
    """The per-layer metrics ``names`` summed over traces, and per-layer
    call totals.

    Each trace is a dict with ``spans`` and ``calls`` as ``Tracer`` keeps
    them.  A layer's self time is the duration of its spans minus the
    duration of their direct child spans.
    """
    out = dict.fromkeys(names, 0)
    activity = Counter()
    for tr in traces:
        spans, calls = tr["spans"], Counter(tr["calls"])
        child = defaultdict(float)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        span_time = defaultdict(float)
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            span_time[name] += t1 - t0
            out[name.split(".")[0] + ".self_s"] += t1 - t0 - child[i]
            if name == "linalg.QMatrix.rank" and parent >= 0 and spans[parent][0] == "cones.extreme_rays":
                out["cones.dd_rank_calls"] += 1
        for metric, span in _SPAN_TIME.items():
            out[metric] += span_time[span]
        for metric, name in _CALLS.items():
            out[metric] += calls[name]
        for metric, amount in tr["work"].items():
            out[metric] += amount
        out["fcurves.classes"] += sum(tr["classes"].values())
        for name, n in calls.items():
            activity[name.split(".")[0]] += n
    return out, dict(activity)
