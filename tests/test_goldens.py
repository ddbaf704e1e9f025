"""CLI output pinned byte for byte.

The files under ``data/`` are the stdout of ``mgnef <command> --genus g
--format json`` as the Fraction-only implementation printed it; the
integer class table and rank must reproduce them exactly.
"""

from pathlib import Path

import pytest

from mgnef.cli import main

DATA = Path(__file__).parent / "data"
GOLDENS = [("certify", 12), ("certify", 20), ("fcurves", 6)] + [("rays", g) for g in range(5, 9)]


@pytest.mark.parametrize("command, genus", GOLDENS)
def test_cli_output_matches_golden(capsys, command, genus):
    assert main([command, "--genus", str(genus), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (DATA / f"{command}-g{genus}.json").read_bytes()
