"""Command line interface: payload shapes, formats, exit codes."""

import json

import pytest

from mgnef.cli import main
from helpers import assert_no_floats, assert_rational_strings_canonical


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


def test_fcurves_small_genus_rejected(capsys):
    for g in ("1", "2"):
        code, out, err = run(capsys, "fcurves", "--genus", g)
        assert code == 1
        assert out == "" and err.startswith("error:")


def test_fcurves_text_lists_merges(capsys):
    code, out, _ = run(capsys, "fcurves", "--genus", "4")
    assert code == 0
    assert "(= C5(1,2))" in out and "C6(1,1,1,1)" in out


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


def test_table_rejects_genus2(capsys):
    code, out, err = run(capsys, "table", "--genus", "2")
    assert code == 1 and err.startswith("error:")


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


# -- plumbing ---------------------------------------------------------------------


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "rays", "--genus", "3", "--format", "json", "--output", str(target)
    )
    assert code == 0 and out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["count"] == 3


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
