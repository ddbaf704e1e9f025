"""Command line interface: payload shapes, formats, exit codes."""

import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from mgnef import cli
from mgnef.cli import main
from mgnef.errors import CertificateFailure
from mgnef.fcurves import _table, _vector12, numerical_classes
from helpers import assert_no_floats, assert_rational_strings_canonical, spy_on_class_objects


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert_no_floats(payload)
    assert_rational_strings_canonical(payload)
    return code, payload, err


# -- fcurves ----------------------------------------------------------------------


def test_fcurves_genus3(capsys):
    code, payload, _ = run_json(capsys, "fcurves", "--genus", "3")
    assert code == 0
    assert payload["count"] == 4
    by_tag = {"{}({})".format(c["family"], ",".join(map(str, c["indices"])))
              if c["indices"] else c["family"]: c for c in payload["curves"]}
    assert sorted(by_tag) == ["C1", "C2", "C3(1)", "C4(0)"]
    assert by_tag["C4(0)"]["merged"] == ["C4(0)", "C4(1)"]
    assert by_tag["C3(1)"]["merged"] == ["C3(1)", "C5(1,1)"]
    assert by_tag["C1"]["vector"] == ["1/12", "1", "-1/12"]


def test_fcurves_text_lists_merges(capsys):
    code, out, _ = run(capsys, "fcurves", "--genus", "4")
    assert code == 0
    assert "(= C5(1,2))" in out and "C6(1,1,1,1)" in out


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_fcurves_builds_one_format_and_a_fraction_per_distinct_entry(monkeypatch, fmt):
    g = 40
    distinct = {x for rec in numerical_classes(g)
                for x in _vector12(rec.curve.family, rec.curve.indices, g)}
    made, emitted = [], []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k: made.append(a) or new(cls, *a, **k))
    monkeypatch.setattr(cli, "_emit", lambda payload, human, args: emitted.append((payload, human)))
    assert main(["fcurves", "--genus", str(g), "--format", fmt]) == 0
    ((payload, human),) = emitted
    assert (payload is None) == (fmt == "text") and (human == "") == (fmt == "json")
    assert sorted(n for n, _ in made) == sorted(distinct) and len(distinct) < 30


# -- table ------------------------------------------------------------------------


def test_table_constant_columns_across_genera(capsys):
    reference = None
    for g in range(3, 16):
        code, payload, _ = run_json(capsys, "table", "--genus", str(g))
        assert code == 0
        rows = payload["rows"]
        cols = json.dumps(
            [(r["family"], r["lambda"], r["twelve_lambda_minus_delta0"]) for r in rows]
        )
        if reference is None:
            reference = cols
        assert cols == reference
    decoded = json.loads(reference)
    assert decoded[0] == ["C1", "1/12", "0"]
    assert decoded[1] == ["C2", "0", "1"]
    assert decoded[3] == ["C4(i)", "0", "2"]
    assert all(lam == "0" and tw == "0" for fam, lam, tw in decoded[2::3])


def test_table_text_identical_across_genera(capsys):
    outputs = {run(capsys, "table", "--genus", str(g))[1] for g in range(3, 16)}
    assert len(outputs) == 1
    (text,) = outputs
    assert "a/12 - b0 + b1/12" in text and "2*b0 - b_{i+1}" in text


def test_table_latex(capsys):
    code, out, _ = run(capsys, "table", "--genus", "10", "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{tabular}")
    assert r"\frac{1}{12}" in out and r"12\lambda - \delta_0" in out
    assert out.count("\\\\") >= 7


# -- check ------------------------------------------------------------------------


def test_check_member(capsys):
    code, payload, _ = run_json(
        capsys, "check", "--genus", "8", "--divisor", "13*L - d0"
    )
    assert code == 0
    assert payload["checks"] == [{"name": "fnef", "pass": True, "witness": None}]
    assert payload["location"] == "interior"
    assert (payload["alpha"], payload["beta"], payload["epsilon"]) == ("1", "1", "1")
    assert payload["status"] == "semi-ample"
    assert payload["divisor"]["expr"] == "13*L - 1*d0"


def test_check_non_member_exit1(capsys):
    code, payload, _ = run_json(
        capsys, "check", "--genus", "8", "--divisor", "11*L - d0"
    )
    assert code == 1
    assert payload["checks"][0]["pass"] is False
    assert payload["checks"][0]["witness"] == "C1"
    assert payload["location"] == "outside"


def test_check_origin(capsys):
    code, payload, _ = run_json(capsys, "check", "--genus", "8", "--divisor", "0")
    assert code == 0
    assert payload["location"] == "origin"


def test_check_parse_error_exit2(capsys):
    code, out, err = run(capsys, "check", "--genus", "8", "--divisor", "13*Q")
    assert code == 2
    assert out == "" and "error:" in err


def test_check_text_format(capsys):
    code, out, _ = run(capsys, "check", "--genus", "8", "--divisor", "13*L - d0")
    assert code == 0
    assert "F-nef: yes" in out and "location: interior" in out


# -- certify ----------------------------------------------------------------------


def test_certify_json(capsys):
    code, payload, _ = run_json(capsys, "certify", "--genus", "7")
    assert code == 0
    assert payload["command"] == "certify"
    assert payload["face_dim"] == 2 and payload["active_rank"] == 3
    assert payload["det"] in ("1", "-1")
    assert [c["pass"] for c in payload["checks"]] == [True] * 7
    assert payload["generators"][0][0] == "1"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_certify_failure_exit1(capsys, monkeypatch, fmt):
    def fail(g):
        raise CertificateFailure("vanishing:lambda", "witness values ['0', '1']")

    monkeypatch.setattr(cli, "verify_extremal_face", fail)
    code, out, err = run(capsys, "certify", "--genus", "7", "--format", fmt)
    assert code == 1 and err == ""
    if fmt == "text":
        assert out == "certificate FAILED at vanishing:lambda: witness values ['0', '1']\n"
    else:
        assert json.loads(out) == {
            "command": "certify",
            "genus": 7,
            "error": {"check": "vanishing:lambda", "detail": "witness values ['0', '1']"},
        }


def test_certify_text(capsys):
    code, out, _ = run(capsys, "certify", "--genus", "12")
    assert code == 0
    assert out.count("[pass]") == 7 and "face dimension 2" in out


# -- rays -------------------------------------------------------------------------


def test_rays_genus3(capsys):
    code, payload, _ = run_json(capsys, "rays", "--genus", "3")
    assert code == 0
    assert payload["rays"] == [["1", "0", "0"], ["10", "1", "2"], ["12", "1", "0"]]
    assert payload["count"] == 3 and payload["dim"] == 3


def test_rays_dimension_limit(capsys):
    code, out, err = run(capsys, "rays", "--genus", "14")
    assert code == 1 and "limit" in err
    code, _, err = run(capsys, "rays", "--genus", "5", "--limit", "3")
    assert code == 1 and "limit" in err


# -- pullback ---------------------------------------------------------------------


def test_pullback_perfect(capsys):
    code, payload, _ = run_json(
        capsys, "pullback", "--genus", "8", "--model", "perfect",
        "--divisor", "13*M - D",
    )
    assert code == 0
    assert payload["image"]["expr"] == "13*L - 1*d0"
    assert all(c["pass"] for c in payload["checks"])
    assert payload["location"] == "interior"


def test_pullback_satake(capsys):
    code, payload, _ = run_json(
        capsys, "pullback", "--genus", "5", "--model", "satake", "--divisor", "7*M"
    )
    assert code == 0
    assert payload["image"]["expr"] == "7*L"
    assert payload["location"] == "ray-lambda"


def test_pullback_failures(capsys):
    # no pullback in the catalog for the partial model
    code, out, err = run(
        capsys, "pullback", "--genus", "5", "--model", "partial",
        "--divisor", "13*M - D",
    )
    assert code == 1 and "error:" in err
    # rank 1 model has no D class
    code, out, err = run(
        capsys, "pullback", "--genus", "5", "--model", "satake", "--divisor", "3*M - D"
    )
    assert code == 1 and "error:" in err
    # divisor text that does not parse
    code, out, err = run(
        capsys, "pullback", "--genus", "5", "--model", "perfect", "--divisor", "3*Z"
    )
    assert code == 2


def test_pullback_non_nef_input_exit1(capsys):
    code, payload, _ = run_json(
        capsys, "pullback", "--genus", "6", "--model", "perfect",
        "--divisor", "11*M - D",
    )
    assert code == 1
    names = {c["name"]: c["pass"] for c in payload["checks"]}
    assert names == {"model-nef": False, "image-fnef": False}


# -- a divisor that starts with "-" -----------------------------------------------


@pytest.mark.parametrize("divisor, a, b0, witness",
                         [("-L", "-1", "0", "C1"), ("-12L-d0", "-12", "-1", "C2")])
def test_check_divisor_starting_with_minus(capsys, divisor, a, b0, witness):
    code, payload, _ = run_json(capsys, "check", "--genus", "5", "--divisor", divisor)
    assert code == 1
    assert (payload["divisor"]["a"], payload["divisor"]["b"][0]) == (a, b0)
    assert payload["checks"][0]["witness"] == witness


def test_pullback_divisor_starting_with_minus(capsys, monkeypatch):
    argv = ["pullback", "--genus", "5", "--model", "satake"]
    joined = run(capsys, *argv, "--divisor=-M")
    assert joined == (1, "-1*M on satake pulls back to -1*L at genus 5\n"
                         "nef on the model: no\n"
                         "F-nef image: no, negative against C1\n"
                         "location: outside\n", "")
    assert run(capsys, *argv, "--divisor", "-M") == joined
    # the console script: main() reads sys.argv
    monkeypatch.setattr(sys, "argv", ["mgnef", *argv, "--divisor", "-M"])
    assert main() == 1 and capsys.readouterr().out == joined[1]


@pytest.mark.parametrize("flag", ["--div", "--d", "--diviso"])
def test_abbreviated_divisor_flag_takes_a_value_starting_with_minus(capsys, flag):
    code, payload, _ = run_json(capsys, "check", "--genus", "5", flag, "-L")
    assert code == 1
    assert (payload["divisor"]["a"], payload["checks"][0]["witness"]) == ("-1", "C1")
    code, out, err = run(capsys, "pullback", "--genus", "5", "--model", "satake", flag, "-M")
    assert code == 1 and "F-nef image: no, negative against C1" in out and err == ""


@pytest.mark.parametrize("argv", [
    ["check", "--genus", "5", "--divisor"],
    ["check", "--genus", "5", "--div"],
    ["check", "--divisor", "--genus", "5"],
    ["check", "--divisor", "-g", "5"],
    ["pullback", "--genus", "5", "--model", "satake", "--divisor"],
])
def test_divisor_without_a_value_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "argument --divisor: expected one argument" in captured.err


# -- bpf --------------------------------------------------------------------------


def test_bpf_default_grid(capsys):
    code, payload, _ = run_json(capsys, "bpf", "--genus", "6")
    assert code == 0
    assert payload["entries"] == 125
    assert payload["symbolic_delta_check"] is True
    assert payload["all_c3_equal_minus_one"] is True
    assert payload["deviations"] == []


def test_bpf_small_grid_text(capsys):
    code, out, _ = run(
        capsys, "bpf", "--genus", "5", "--m-max", "2", "--alpha-max", "1",
        "--beta-max", "1",
    )
    assert code == 0
    assert "8 grid points" in out and out.count("pass") == 2


HUGE = "99999999999999999999999"
ONE_POINT = ["--m-max", "1", "--alpha-max", "0", "--beta-max", "0"]


@pytest.mark.parametrize("argv", [
    *(pytest.param(["--genus", "5", flag, HUGE], id=flag)
      for flag in ("--m-max", "--alpha-max", "--beta-max")),
    # 99999 C3 curves are under the count cap, but each row is 50002 wide
    pytest.param(["--genus", "100001", *ONE_POINT], id="row-width"),
])
def test_bpf_grid_over_the_cap_is_refused_before_it_is_built(capsys, monkeypatch, argv):
    def fail(*args):
        raise AssertionError("the grid was scanned")

    monkeypatch.setattr(cli, "bpf_scan", fail)
    code, out, err = run(capsys, "bpf", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: bpf grid too large") and err.count("\n") == 1


def test_bpf_grid_at_the_cap_is_scanned(capsys, monkeypatch):
    class Scanned(Exception):
        pass

    def scan(*args):
        raise Scanned

    monkeypatch.setattr(cli, "bpf_scan", scan)
    # 10 * 50 * 50 grid points times 4 C3 curves at genus 6 is exactly the cap
    argv = ["bpf", "--genus", "6", "--m-max", "10", "--alpha-max", "49", "--beta-max", "49"]
    with pytest.raises(Scanned):
        main(argv)
    argv[-1] = "50"
    assert run(capsys, *argv)[0] == 1
    # the row-width cap admits every grid the count cap admits up to genus
    # 1002 (here 100 points times 1000 curves) and one point up to genus 10029
    for argv in (["--genus", "1002", "--m-max", "4", "--alpha-max", "4", "--beta-max", "4"],
                 ["--genus", "10029", *ONE_POINT]):
        with pytest.raises(Scanned):
            main(["bpf", *argv])
    assert run(capsys, "bpf", "--genus", "10030", *ONE_POINT)[0] == 1


# -- genus cap on the commands that build the class table -------------------------

TABLE_COMMANDS = [
    ["fcurves"],
    ["check", "--divisor", "13*L - d0"],
    ["certify"],
    ["pullback", "--model", "perfect", "--divisor", "13*M - D"],
]


@pytest.fixture
def cache_counts(monkeypatch):
    """A function that gives the hits and misses of the integer class table
    and the number of ``FCurveClass`` objects built since the fixture ran."""
    built = spy_on_class_objects(monkeypatch)
    return lambda: [(_table.cache_info().hits, _table.cache_info().misses), len(built)]


@pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=lambda a: a[0])
def test_genus_over_the_cap_builds_no_class_table(capsys, monkeypatch, cache_counts, argv):
    def fail(*args):
        raise AssertionError("the class table was requested")

    for name in ("numerical_classes", "is_fnef", "verify_extremal_face"):
        monkeypatch.setattr(cli, name, fail)
    before = cache_counts()
    genus = cli._TABLE_MAX_GENUS + 1
    code, out, err = run(capsys, *argv, "--genus", str(genus))
    assert code == 1 and out == ""
    assert err == f"error: genus {genus} exceeds the class table limit {cli._TABLE_MAX_GENUS}\n"
    assert cache_counts() == before == [before[0], 0]


@pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=lambda a: a[0])
def test_genus_at_the_cap_reaches_the_class_table(monkeypatch, argv):
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    for name in ("numerical_classes", "is_fnef", "verify_extremal_face"):
        monkeypatch.setattr(cli, name, reached)
    with pytest.raises(Reached):
        main([*argv, "--genus", str(cli._TABLE_MAX_GENUS)])


# -- rays -------------------------------------------------------------------------


def test_rays_over_the_dimension_limit_builds_no_class_table(capsys, cache_counts):
    before = cache_counts()
    code, out, err = run(capsys, "rays", "--genus", "160")
    assert code == 1 and out == ""
    assert err == "error: dimension 82 exceeds the ray enumeration limit 8\n"
    assert cache_counts() == before == [before[0], 0]


# -- plumbing ---------------------------------------------------------------------


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "rays", "--genus", "3", "--format", "json", "--output", str(target)
    )
    assert code == 0 and out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["count"] == 3


def test_json_output_is_streamed(tmp_path):
    """A large JSON payload goes to --output in batches: the peak of
    memory allocated while it is written stays under twice the encoded
    size, where one string of the whole text plus its chunks is several
    times it."""
    curves = [{"family": "C5", "indices": [i % 60, 2], "vector": [str(i), "-1/12", "0"],
               "merged": [f"C5({i},2)"]} for i in range(20_000)]
    payload = {"command": "fcurves", "count": len(curves), "curves": curves}
    target = tmp_path / "out.json"
    tracemalloc.start()
    try:
        cli._emit(payload, "", argparse.Namespace(format="json", output=str(target)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = target.read_text(encoding="utf-8")
    assert text == json.dumps(payload, indent=2) + "\n"
    assert peak < 2 * len(text)


def test_unwritable_output_exit2(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, "rays", "--genus", "3", "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(target) in err and err.count("\n") == 1
    assert not target.parent.exists()


def test_closed_stdout_pipe_exits_141_silently():
    """A reader that takes 100 bytes of the genus 40 JSON listing (about 420
    KB, more than a pipe holds) and closes the pipe ends the command with
    the status a shell gives a command killed by SIGPIPE, and no message."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "mgnef", "fcurves", "--genus", "40", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert head.startswith(b'{\n  "command": "fcurves"') and len(head) == 100
    assert err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--genus", "8", "--divisor", "1" * 5000 + "*L"),
        ("check", "--genus", "8", "--divisor", "d" + "1" * 5000),
        ("pullback", "--genus", "8", "--model", "perfect", "--divisor", "1" * 5000 + "*M"),
    ],
)
def test_number_too_long_exit2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: number longer than 4300 digits") and err.count("\n") == 1


NINES = "9" * 4300  # the longest number the parser reads


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--genus", "8", "--divisor", f"{NINES}*L + {NINES}*L"),
        ("check", "--genus", "8", "--divisor", f"{NINES}*L - 1/{NINES}*d0"),  # epsilon
        ("pullback", "--genus", "8", "--model", "perfect", "--divisor", f"{NINES}*M + {NINES}*M"),
    ],
)
def test_result_too_long_exit2(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 2 and out == ""
    assert err == "error: result has a number longer than 4300 digits\n"


def test_result_at_the_digit_cap_is_printed(capsys):
    code, payload, _ = run_json(capsys, "check", "--genus", "8", "--divisor", f"{NINES}*L - d0")
    assert code == 0 and payload["divisor"]["a"] == NINES and payload["alpha"] == str(int(NINES) - 12)


def test_usage_errors_exit2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["certify"])  # --genus is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["table", "--genus", "5", "--format", "yaml"])
    assert exc.value.code == 2


def test_exit_status_matches_payload_checks(capsys):
    """Exit 0 exactly when every check in the payload passes."""
    cases = [
        ("check", "--genus", "8", "--divisor", "13*L - d0"),
        ("check", "--genus", "8", "--divisor", "11*L - d0"),
        ("certify", "--genus", "5"),
        ("pullback", "--genus", "6", "--model", "perfect", "--divisor", "12*M - D"),
        ("pullback", "--genus", "6", "--model", "perfect", "--divisor", "11*M - D"),
    ]
    for argv in cases:
        code, payload, _ = run_json(capsys, *argv)
        assert (code == 0) == all(c["pass"] for c in payload["checks"]), argv


@pytest.mark.parametrize(
    "flag, value", [("--m-max", "0"), ("--alpha-max", "-1"), ("--beta-max", "-1")]
)
def test_bpf_empty_grid_is_a_usage_error(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["bpf", "--genus", "3", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "empty bpf grid" in captured.err


# -- the genus gate -----------------------------------------------------------------


@pytest.mark.parametrize("genus", [-1, 0, 1, 2])
@pytest.mark.parametrize("argv", [*TABLE_COMMANDS, ["table"], ["rays"], ["bpf"]],
                         ids=lambda a: a[0])
def test_genus_below_3_is_refused(capsys, argv, genus):
    code, out, err = run(capsys, *argv, "--genus", str(genus))
    assert (code, out) == (1, "")
    assert err == f"error: genus {genus}: the lambda/delta basis needs g >= 3\n"
