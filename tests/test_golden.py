"""Byte-for-byte golden outputs of the CLI, exit codes included.

Each case in ``golden/cases.json`` names an argv, the expected exit code
and the file holding the expected standard output.  The files were written
by ``python -m planechow.cli <argv>`` before the Hodge classes moved to
torus evaluation, so any refactor that changes a byte of default output
fails here.
"""

import json
from pathlib import Path

import pytest

from planechow.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["file"] for c in CASES])
def test_golden_output(case, capsys):
    assert main(case["argv"]) == case["exit"]
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (GOLDEN / case["file"]).read_bytes()
