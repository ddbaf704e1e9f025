"""Replay of the committed CLI output corpus, ``data/certify-corpus.json``.

Each entry maps one ``mgnef`` invocation to the exit code and the SHA-256
digests of its stdout and stderr, recorded from the console command.  The
test replays every entry in process, so any change to a byte of output or
to an exit code shows as a failed entry; an intended change is re-recorded
and shows as a diff of the corpus file.

Re-record from a checkout's own sources with

    PYTHONPATH=src python3 tests/test_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "data" / "certify-corpus.json"

# certify at every genus the goldens and ladders use, and the refusals on
# both sides of the supported range: below 3, and above the class table limit
GENERA = [*range(3, 41), 60, 80, 120, 2, 121]


def invocations() -> list[list[str]]:
    return [["certify", "--genus", str(g), "--format", fmt]
            for g in GENERA for fmt in ("text", "json")]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _entry(code: int, out: str, err: str) -> dict:
    return {"exit": code, "stdout": _sha(out), "stderr": _sha(err)}


def run_in_process(argv: list[str]) -> dict:
    from mgnef.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return _entry(code, out.getvalue(), err.getvalue())


def test_certify_corpus_replays_in_process():
    corpus = json.loads(CORPUS.read_text())
    assert sorted(corpus) == sorted(" ".join(argv) for argv in invocations())
    for argv in invocations():
        key = " ".join(argv)
        assert run_in_process(argv) == corpus[key], key


def record() -> dict:
    """Run every invocation as ``python -m mgnef`` and collect the entries."""
    corpus = {}
    for argv in invocations():
        proc = subprocess.run([sys.executable, "-m", "mgnef", *argv],
                              capture_output=True, text=True, encoding="utf-8")
        corpus[" ".join(argv)] = _entry(proc.returncode, proc.stdout, proc.stderr)
    return corpus


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"recorded {len(invocations())} invocations to {CORPUS}")
