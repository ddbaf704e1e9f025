"""The value records: construction, equality, immutability, copies and repr.

Every public record class is checked on one instance.  The ``repr`` strings
and error messages are pinned, and no check depends on how the classes are
implemented.  The last test guards start-up: a cold ``mgnef`` command must
import neither ``dataclasses`` nor ``inspect``.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mgnef import (
    PERFECT,
    AbelianDivisor,
    BpfEntry,
    BpfReport,
    Check,
    CompactificationModel,
    DivisorClass,
    FaceCertificate,
    FaceClassification,
    FaceLocation,
    FCurve,
    FCurveClass,
    GenusContext,
    IndexOutOfRangeError,
    ModelMismatchError,
    PolyCone,
    QMatrix,
    SemiampleStatus,
    UnsupportedGenusError,
    parse_divisor,
    pullback,
)

SRC = Path(__file__).resolve().parents[1] / "src"

G4 = GenusContext(4)
D4 = DivisorClass(G4, Fraction(13), (Fraction(1), Fraction(0), Fraction(0)))
ENTRY = BpfEntry(2, Fraction(1), Fraction(1, 2), D4, (Fraction(-1), Fraction(-1)))

# (instance, its fields in signature order, an instance of the same class
# differing in one field)
CASES = {
    "GenusContext": (GenusContext(5), ("g",), GenusContext(6)),
    "DivisorClass": (D4, ("ctx", "a", "b"),
                     DivisorClass(G4, Fraction(12), D4.b)),
    "FCurve": (FCurve(GenusContext(6), "C3", (1,)), ("ctx", "family", "indices"),
               FCurve(GenusContext(6), "C3", (2,))),
    "FCurveClass": (FCurveClass(FCurve(G4, "C1"), (1, -1, 0, 0), ("C1",)),
                    ("curve", "row", "tags"),
                    FCurveClass(FCurve(G4, "C1"), (1, -1, 0, 0), ("C1", "C2(1)"))),
    "QMatrix": (QMatrix.from_rows([[1, 2], [3, Fraction(1, 4)]]), ("nrows", "ncols", "entries"),
                QMatrix.from_rows([[1, 2], [3, 4]])),
    "PolyCone": (PolyCone(2, ((1, 0), (0, 1)), ("x", "y"), ((1, 0), (0, 1)), 3),
                 ("dim", "ineq_rows", "labels", "generators", "genus"),
                 PolyCone(2, ((1, 0), (0, 1)), ("x", "y"), ((1, 0), (0, 1)), None)),
    "Check": (Check("fnef", False, "C1"), ("name", "ok", "detail"), Check("fnef", True, "C1")),
    "FaceCertificate": (
        FaceCertificate(3, 1, ((1, 0),), ("C1",), 1, QMatrix.from_rows([[2]]), Fraction(2),
                        (Check("x", True),)),
        ("genus", "face_dim", "generators", "active_curves", "active_rank", "lemma_mat",
         "det", "checks"),
        FaceCertificate(3, 1, ((1, 0),), ("C1",), 1, QMatrix.from_rows([[2]]), Fraction(2))),
    "CompactificationModel": (
        PERFECT,
        ("name", "picard_rank", "basis_labels", "nef_rows", "nef_row_labels", "has_pullback"),
        CompactificationModel("perfect", 2, ("M", "D"), ((1, -12), (0, 1)),
                              ("a-12b>=0", "b>=0"), False)),
    "AbelianDivisor": (AbelianDivisor("perfect", 13, 1), ("model", "a", "b"),
                       AbelianDivisor("partial", 13, 1)),
    "FaceClassification": (
        FaceClassification(FaceLocation.INTERIOR, Fraction(1), Fraction(1), Fraction(1, 2)),
        ("location", "alpha", "beta", "epsilon"),
        FaceClassification(FaceLocation.INTERIOR, Fraction(1), Fraction(1), Fraction(1, 3))),
    "SemiampleStatus": (
        SemiampleStatus(FaceClassification(FaceLocation.ORIGIN, Fraction(0), Fraction(0)),
                        "semi-ample", "zero"),
        ("classification", "status", "reason"),
        SemiampleStatus(FaceClassification(FaceLocation.ORIGIN), "semi-ample", "zero")),
    "BpfEntry": (ENTRY, ("m", "alpha", "beta", "divisor", "c3_values"),
                 BpfEntry(3, Fraction(1), Fraction(1, 2), D4, (Fraction(-1), Fraction(-1)))),
    "BpfReport": (BpfReport(4, 2, (ENTRY,), True),
                  ("genus", "points", "deviations", "symbolic_ok"), BpfReport(4, 2, (), True)),
}

# pinned from the dataclass implementation these classes replaced
D4_REPR = ("DivisorClass(ctx=GenusContext(g=4), a=Fraction(13, 1), "
           "b=(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)))")
ENTRY_REPR = (f"BpfEntry(m=2, alpha=Fraction(1, 1), beta=Fraction(1, 2), divisor={D4_REPR}, "
              "c3_values=(Fraction(-1, 1), Fraction(-1, 1)))")
REPRS = {
    "GenusContext": "GenusContext(g=5)",
    "DivisorClass": D4_REPR,
    "FCurve": "FCurve(ctx=GenusContext(g=6), family='C3', indices=(1,))",
    "FCurveClass": ("FCurveClass(curve=FCurve(ctx=GenusContext(g=4), family='C1', indices=()), "
                    "row=(1, -1, 0, 0), tags=('C1',))"),
    "QMatrix": ("QMatrix(nrows=2, ncols=2, entries=(Fraction(1, 1), Fraction(2, 1), "
                "Fraction(3, 1), Fraction(1, 4)))"),
    "PolyCone": ("PolyCone(dim=2, ineq_rows=((1, 0), (0, 1)), labels=('x', 'y'), "
                 "generators=((1, 0), (0, 1)), genus=3)"),
    "Check": "Check(name='fnef', ok=False, detail='C1')",
    "FaceCertificate": ("FaceCertificate(genus=3, face_dim=1, generators=((1, 0),), "
                        "active_curves=('C1',), active_rank=1, "
                        "lemma_mat=QMatrix(nrows=1, ncols=1, entries=(Fraction(2, 1),)), "
                        "det=Fraction(2, 1), checks=(Check(name='x', ok=True, detail=''),))"),
    "CompactificationModel": ("CompactificationModel(name='perfect', picard_rank=2, "
                              "basis_labels=('M', 'D'), nef_rows=((1, -12), (0, 1)), "
                              "nef_row_labels=('a-12b>=0', 'b>=0'), has_pullback=True)"),
    "AbelianDivisor": "AbelianDivisor(model='perfect', a=Fraction(13, 1), b=Fraction(1, 1))",
    "FaceClassification": ("FaceClassification(location=<FaceLocation.INTERIOR: 'interior'>, "
                           "alpha=Fraction(1, 1), beta=Fraction(1, 1), epsilon=Fraction(1, 2))"),
    "SemiampleStatus": ("SemiampleStatus(classification=FaceClassification("
                        "location=<FaceLocation.ORIGIN: 'origin'>, alpha=Fraction(0, 1), "
                        "beta=Fraction(0, 1), epsilon=None), status='semi-ample', reason='zero')"),
    "BpfEntry": ENTRY_REPR,
    "BpfReport": f"BpfReport(genus=4, points=2, deviations=({ENTRY_REPR},), symbolic_ok=True)",
}

params = pytest.mark.parametrize("name", sorted(CASES))


def values(x, fields):
    return tuple(getattr(x, f) for f in fields)


@params
def test_equal_and_hash_by_value_within_the_class(name):
    x, fields, other = CASES[name]
    vals = values(x, fields)
    for y in (type(x)(*vals), type(x)(**dict(zip(fields, vals)))):
        assert y is not x and y == x and not y != x and hash(y) == hash(x)
    assert x != other and not x == other
    assert x != vals and x != list(vals)
    assert x.__eq__(vals) is NotImplemented


@params
def test_records_do_not_iterate_or_index(name):
    x = CASES[name][0]
    with pytest.raises(TypeError):
        iter(x)
    with pytest.raises(TypeError):
        x[0]


def test_records_of_different_classes_are_unequal():
    assert GenusContext(5) != (5,) and GenusContext(5) != 5
    assert Check("x", True, "y") != SemiampleStatus("x", True, "y")
    assert QMatrix(1, 1, (1,)) != FCurveClass(1, 1, (1,))


def test_genus_context_order():
    a, b = GenusContext(3), GenusContext(5)
    assert a < b and a <= b and b > a and b >= a and a <= GenusContext(3)
    assert not b < a and not a > b
    assert sorted([b, GenusContext(4), a]) == [a, GenusContext(4), b]
    with pytest.raises(TypeError):
        a < 5
    with pytest.raises(TypeError):
        a >= (3,)


def test_keywords_and_defaults():
    assert PolyCone(3) == PolyCone(dim=3, ineq_rows=(), labels=(), generators=None, genus=None)
    d = AbelianDivisor("perfect", 13)
    assert d == AbelianDivisor(model="perfect", a=Fraction(13), b=Fraction(0))
    assert type(d.a) is Fraction and type(d.b) is Fraction and d.b == 0
    assert AbelianDivisor("satake", "3/2").a == Fraction(3, 2)
    assert Check("x", True) == Check(name="x", ok=True, detail="")
    assert FCurve(G4, "C1").indices == ()
    assert FaceClassification(FaceLocation.OUTSIDE) == FaceClassification(
        location=FaceLocation.OUTSIDE, alpha=None, beta=None, epsilon=None)
    cert = FaceCertificate(None, 0, None, (), 0, None, None)
    assert cert.checks == ()

    class Five:
        def __index__(self):
            return 5

    ctx = GenusContext(Five())
    assert ctx == GenusContext(g=5) and type(ctx.g) is int


def test_base_constructor_refuses_bad_arguments():
    """A record built by the base constructor raises TypeError on an
    unknown keyword, a field given twice, an argument too many and a
    missing field."""
    for call in (lambda: Check("x", True, colour="red"),
                 lambda: Check("x", True, name="y"),
                 lambda: Check("x", True, "", "extra"),
                 lambda: Check("x"),
                 lambda: Check(ok=True),
                 lambda: FaceClassification(FaceLocation.OUTSIDE, spin=None),
                 lambda: FaceClassification(FaceLocation.OUTSIDE, location=FaceLocation.ORIGIN),
                 lambda: FaceClassification(FaceLocation.OUTSIDE, None, None, None, None),
                 lambda: FaceClassification(alpha=Fraction(1))):
        with pytest.raises(TypeError):
            call()


@params
def test_fields_cannot_be_assigned_or_deleted(name):
    x, fields, other = CASES[name]
    before = values(x, fields)
    for f in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(x, f, None)
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert values(x, fields) == before and not hasattr(x, "extra")


@params
def test_pickle_and_copies_round_trip(name):
    x, fields, _ = CASES[name]
    copies = [pickle.loads(pickle.dumps(x, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in (*copies, copy.copy(x), copy.deepcopy(x)):
        assert type(y) is type(x) and y == x and hash(y) == hash(x) and repr(y) == repr(x)
        with pytest.raises(AttributeError):
            setattr(y, fields[0], None)


def test_bpf_deviations_survive_copies():
    bad = BpfEntry(1, Fraction(0), Fraction(0), D4, (Fraction(-1), Fraction(0)))
    report = BpfReport(4, 2, (bad,), True)
    assert not report.ok
    for y in (pickle.loads(pickle.dumps(report)), copy.copy(report), copy.deepcopy(report)):
        assert y == report and y.deviations == (bad,) and not y.ok


@params
def test_repr(name):
    assert repr(CASES[name][0]) == REPRS[name]


def test_validation_errors():
    with pytest.raises(UnsupportedGenusError, match=r"^genus 2: the lambda/delta basis needs g >= 3$"):
        GenusContext(2)
    with pytest.raises(TypeError):
        GenusContext(5.0)
    with pytest.raises(ValueError, match=r"^expected 3 boundary coefficients, got 2$"):
        DivisorClass(G4, Fraction(1), (Fraction(0), Fraction(0)))
    with pytest.raises(ValueError, match=r"^unknown family 'C7'$"):
        FCurve(G4, "C7", (1,))
    with pytest.raises(IndexOutOfRangeError, match=r"^C3 index 3 outside 1\.\.2$"):
        FCurve(G4, "C3", (3,))
    with pytest.raises(IndexOutOfRangeError, match=r"^C3 takes the indices \(i\), got \(\)$"):
        FCurve(G4, "C3")
    with pytest.raises(ValueError, match=r"^one label per inequality row$"):
        PolyCone(2, ((1, 0),), ("a", "b"))
    with pytest.raises(ValueError, match=r"^inequality row with the wrong length$"):
        PolyCone(2, ((1,),))
    with pytest.raises(ValueError, match=r"^generator with the wrong length$"):
        PolyCone(2, generators=((1, 0, 0),))
    with pytest.raises(ModelMismatchError, match=r"^model 'satake' has no D class$"):
        AbelianDivisor("satake", 1, 1)
    with pytest.raises(ModelMismatchError, match=r"^unknown model 'nope'"):
        AbelianDivisor("nope", 1)


def test_divisor_validation_hook_runs_once_per_construction(monkeypatch):
    calls = []
    hook = DivisorClass.__post_init__
    monkeypatch.setattr(DivisorClass, "__post_init__", lambda d: calls.append(d) or hook(d))
    total = D4 + D4
    assert calls == [total]
    DivisorClass(G4, Fraction(1), D4.b)
    assert len(calls) == 2
    # parsing and pullback build their result once, after the named classes
    # they read are cached per genus by a first call
    text, adiv = "5/2*L + 1/3*12L-d0 + 7/4*d61", AbelianDivisor("perfect", 13, 1)
    parse_divisor(text, 120), pullback(PERFECT, adiv, 120)
    calls.clear()
    d = parse_divisor(text, 120)
    assert calls == [d]
    calls.clear()
    image = pullback(PERFECT, adiv, 120)
    assert calls == [image]


# -- start-up ----------------------------------------------------------------


def _run(*args):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


SLOW_MODULES = {"dataclasses", "inspect"}


def test_cold_start_imports_neither_dataclasses_nor_inspect():
    probe = "import sys{}; print(sorted({} & set(sys.modules)))"
    bare = _run("-c", probe.format("", SLOW_MODULES))
    assert bare.returncode == 0 and bare.stdout == "[]\n", bare.stderr
    cli = _run("-c", probe.format(", mgnef.cli", SLOW_MODULES))
    assert cli.returncode == 0 and cli.stdout == "[]\n", cli.stderr
    # -X importtime logs every module the command imports, at any point
    run = _run("-X", "importtime", "-m", "mgnef", "certify", "--genus", "3")
    assert run.returncode == 0 and run.stdout.startswith("extremal face certificate, genus 3"), run.stderr[-2000:]
    imported = {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
                if line.startswith("import time:")}
    assert "mgnef.cli" in imported and not imported & SLOW_MODULES
