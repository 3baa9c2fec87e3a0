"""Byte-for-byte golden outputs of the CLI, exit codes included.

Each case in ``golden/cases.json`` names an argv, the expected exit code
and the file holding the expected standard output.  Each file was written
by ``python -m planechow.cli <argv>`` before the refactor it guards: the
lambda, table and verify files before the Hodge classes moved to torus
evaluation, the present and nf files before the relation and Groebner
caches were merged, and ``verify_60_64``, ``lambda_d64`` and the
``eval_err_*`` diagnostics before the per-degree claims moved into one
table.  Any refactor that changes a byte of default output fails here.
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
