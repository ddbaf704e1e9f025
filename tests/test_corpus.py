"""Replay of the committed CLI output corpora in ``data/``.

Each entry maps one ``mgnef`` invocation to the exit code and the SHA-256
digests of its stdout and stderr, recorded from the console command; an
invocation that writes ``--output`` to a file also records the file's digest.
``certify-corpus.json`` holds ``certify``; ``query-corpus.json`` holds
``check`` and ``pullback`` on the paper's face, off it, on its rays and
on malformed or refused input; ``listing-corpus.json`` holds ``fcurves``,
``table`` and ``bpf``, with their refusals, and ``--output`` to a file.
The tests replay every entry in process, so any change to a byte of
output or to an exit code shows as a failed entry; an intended change is
re-recorded and shows as a diff of a corpus file.

Re-record all three from a checkout's own sources with

    PYTHONPATH=src python3 tests/test_corpus.py

which records nothing when ``python -m mgnef`` cannot run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# certify at every genus the goldens and ladders use, and the refusals on
# both sides of the supported range: below 3, and above the class table limit
GENERA = [*range(3, 41), 60, 80, 120, 2, 121]

# the queries at small genera, at the query-mix genera and up to the limit
QUERY_GENERA = [3, 4, 7, 11, 12, 24, 40, 60, 80, 120]
# the zero class, both rays of the face and a point inside it, a class off
# the face, K, an F-nef class with dense support, and a malformed expression
CHECK_DIVISORS = ["0", "L", "-L", "12L-d0", "5/2*L + 1/3*12L-d0", "L - d7", "K", "11*L + K", "L +"]
# the face's rays and a point inside it, the negative of one ray, zero, and
# a class the Satake model has no D for
PULLBACK_DIVISORS = ["13*M - D", "-M", "M", "0", "1/2*D"]
PULLBACK_MODELS = ["satake", "partial", "perfect"]
# at a query-mix genus, one input per branch of the parser that raises
# ParseError, in the parser's order: coefficient without '*', bare constant,
# zero denominator, missing denominator, d without a subscript, a number
# where a name belongs, two terms without a sign, a doubled sign, a blank
# expression and a digit that is not decimal; then a subscript past the
# genus, refused by the domain check
REFUSED_GENUS = 40
REFUSED_CHECKS = ["3L", "5", "1/0*L", "1/ * L", "d", "2*3*L", "L L", "L -- d0", " ", "\u00b2*L",
                  "d99"]
REFUSED_PULLBACKS = ["2M", "1/0*M"]

# the class listing at small genera and at two query-mix genera, and the
# refusals on both sides of the class table's range
FCURVES_GENERA = [*range(3, 13), 24, 40, 2, 121]
# the symbolic table, which builds no class table, and its genus refusal
TABLE_GENERA = [3, 4, 12, 120, 2]
# the default 5 x 5 x 5 grid and a one-point grid up to the class table's
# limit, the largest grid the caps admit at genus 3, and one grid over each
# cap, both refused before the scan: grid points times C3 curves, and that
# times the row width
BPF_GENERA = [3, 4, 12, 40, 120]
ONE_POINT = ["--m-max", "1", "--alpha-max", "0", "--beta-max", "0"]
BPF_AT_CAP = ["--genus", "3", "--m-max", "100000", "--alpha-max", "0", "--beta-max", "0"]
BPF_OVER_CAPS = [["--genus", "3", "--m-max", "100001", "--alpha-max", "0", "--beta-max", "0"],
                 ["--genus", "10030", *ONE_POINT]]
# --output to a file, which each run replaces with a new temporary path, and
# a path under /dev/null, which no POSIX system can create, refused with exit 2
OUTPUT_FILE = "<file>"
OUTPUTS = [["certify", "--genus", "12", "--format", "json"],
           ["fcurves", "--genus", "6", "--format", "text"],
           ["table", "--genus", "12", "--format", "latex"]]
UNWRITABLE = ["table", "--genus", "12", "--format", "latex", "--output", "/dev/null/table.tex"]


def certify_invocations() -> list[list[str]]:
    return [["certify", "--genus", str(g), "--format", fmt]
            for g in GENERA for fmt in ("text", "json")]


def query_invocations() -> list[list[str]]:
    checks = [["check", "--genus", str(g), "--divisor", text, "--format", fmt]
              for g in QUERY_GENERA for text in CHECK_DIVISORS for fmt in ("text", "json")]
    pullbacks = [["pullback", "--genus", str(g), "--model", model, "--divisor", text,
                  "--format", fmt]
                 for g in QUERY_GENERA for model in PULLBACK_MODELS
                 for text in PULLBACK_DIVISORS for fmt in ("text", "json")]
    refused = [["check", "--genus", str(REFUSED_GENUS), "--divisor", text, "--format", fmt]
               for text in REFUSED_CHECKS for fmt in ("text", "json")]
    refused += [["pullback", "--genus", str(REFUSED_GENUS), "--model", "perfect", "--divisor", text,
                 "--format", fmt] for text in REFUSED_PULLBACKS for fmt in ("text", "json")]
    return checks + pullbacks + refused


def listing_invocations() -> list[list[str]]:
    fcurves = [["fcurves", "--genus", str(g), "--format", fmt]
               for g in FCURVES_GENERA for fmt in ("text", "json")]
    tables = [["table", "--genus", str(g), "--format", fmt]
              for g in TABLE_GENERA for fmt in ("text", "json", "latex")]
    grids = [["--genus", str(g), *grid] for g in BPF_GENERA for grid in ([], ONE_POINT)]
    bpfs = [["bpf", *args, "--format", fmt]
            for args in grids + [BPF_AT_CAP] + BPF_OVER_CAPS for fmt in ("text", "json")]
    outputs = [[*argv, "--output", OUTPUT_FILE] for argv in OUTPUTS] + [UNWRITABLE]
    return fcurves + tables + bpfs + outputs


CORPORA = {"certify-corpus.json": certify_invocations, "query-corpus.json": query_invocations,
           "listing-corpus.json": listing_invocations}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _entry(code: int, out: str, err: str) -> dict:
    return {"exit": code, "stdout": _sha(out), "stderr": _sha(err)}


def _with_file(run, argv: list[str]) -> dict:
    """run(argv); when argv names OUTPUT_FILE, run on a new temporary path
    instead, with the SHA-256 of the file written there added as "file"."""
    if OUTPUT_FILE not in argv:
        return run(argv)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        entry = run([path if word == OUTPUT_FILE else word for word in argv])
        entry["file"] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return entry


def run_in_process(argv: list[str]) -> dict:
    from mgnef.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return _entry(code, out.getvalue(), err.getvalue())


def _replay(name: str) -> dict:
    corpus = json.loads((DATA / name).read_text())
    invocations = CORPORA[name]()
    assert sorted(corpus) == sorted(" ".join(argv) for argv in invocations)
    for argv in invocations:
        key = " ".join(argv)
        assert _with_file(run_in_process, argv) == corpus[key], key
    return corpus


def test_certify_corpus_replays_in_process():
    _replay("certify-corpus.json")


def test_query_corpus_replays_in_process():
    _replay("query-corpus.json")


def test_listing_corpus_replays_in_process():
    corpus = _replay("listing-corpus.json")
    assert corpus[" ".join(UNWRITABLE)]["exit"] == 2


# the corpus lists fcurves up to genus 40; at the class table's limit, 15903
# classes, the two listings are pinned by the SHA-256 of their stdout
FCURVES_AT_LIMIT = {
    "json": "4c73be5f557c752119293d795c8272c3cc9b79c8ed049e84297b5b1f1111b745",
    "text": "b1268f02b6d7d54ba965d18b6d82450fdd03d84261a709beca956d716cc7eef6",
}


def test_fcurves_at_the_class_table_limit_replays_in_process():
    for fmt, digest in FCURVES_AT_LIMIT.items():
        entry = run_in_process(["fcurves", "--genus", "120", "--format", fmt])
        assert entry == {**_entry(0, "", ""), "stdout": digest}, fmt


def test_recorder_writes_nothing_when_mgnef_cannot_run(monkeypatch, tmp_path, capsys):
    """A probe that fails, as without mgnef on the path, stops the recorder
    with a nonzero status before it runs or writes anything else."""
    calls = []

    def fail(args, **kwargs):
        calls.append(args)
        return subprocess.CompletedProcess(args, 1, "", "No module named mgnef\n")

    monkeypatch.setattr(subprocess, "run", fail)
    monkeypatch.setattr(sys.modules[__name__], "DATA", tmp_path)
    assert main() != 0
    assert calls == [[sys.executable, "-m", "mgnef", *PROBE]]
    assert list(tmp_path.iterdir()) == []
    assert "No module named mgnef" in capsys.readouterr().err


def run_console(argv: list[str]) -> dict:
    proc = subprocess.run([sys.executable, "-m", "mgnef", *argv],
                          capture_output=True, text=True, encoding="utf-8")
    return _entry(proc.returncode, proc.stdout, proc.stderr)


def record(invocations: list[list[str]]) -> dict:
    """Run every invocation as ``python -m mgnef`` and collect the entries."""
    return {" ".join(argv): _with_file(run_console, argv) for argv in invocations}


# run once before recording: a corpus of failed runs would replace the real one
PROBE = ["certify", "--genus", "3"]


def main() -> int:
    probe = subprocess.run([sys.executable, "-m", "mgnef", *PROBE],
                           capture_output=True, text=True, encoding="utf-8")
    if probe.returncode:
        print(f"python -m mgnef {' '.join(PROBE)} exited {probe.returncode}; nothing recorded",
              probe.stderr, sep="\n", end="", file=sys.stderr)
        return 1
    for name, invocations in CORPORA.items():
        (DATA / name).write_text(json.dumps(record(invocations()), indent=1) + "\n")
        print(f"recorded {len(invocations())} invocations to {DATA / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
