"""CLI output pinned byte for byte.

The files under ``data/`` are the stdout of ``mgnef <command> --genus g
--format json``, each recorded from the code before the change that added
it (the Fraction-only implementation, for ``rays`` at g = 9 and 10 the
Fraction RREF, at g = 11 and 12 the double description that rescanned
the processed rows for every pair of rays, and at g = 13 the double
description that took the rank of every pair); the integer code must
reproduce them exactly.  The ``rays`` and ``certify`` goldens are also
checked by ``perfbench/oracle.py``, which shares no code with mgnef.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from mgnef.cli import main

DATA = Path(__file__).parent / "data"
GOLDENS = [("certify", 12), ("certify", 20), ("fcurves", 6)] + [("rays", g) for g in range(5, 14)]


def _load_oracle():
    path = Path(__file__).parent.parent / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()


@pytest.mark.parametrize("command, genus", GOLDENS)
def test_cli_output_matches_golden(capsys, command, genus):
    assert main([command, "--genus", str(genus), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (DATA / f"{command}-g{genus}.json").read_bytes()


@pytest.mark.parametrize("command, genus", [(c, g) for c, g in GOLDENS if c in ("rays", "certify")])
def test_golden_passes_the_independent_oracle(command, genus):
    payload = json.loads((DATA / f"{command}-g{genus}.json").read_text())
    check = oracle.check_rays if command == "rays" else oracle.check_certify
    assert check(genus, payload) == []
