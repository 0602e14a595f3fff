"""Byte-for-byte CLI outputs recorded in tests/golden (see capture.py there)."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from braident.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case_id", sorted(CASES))
def test_cli_output_matches_golden(case_id, fmt):
    case = CASES[case_id]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(case["argv"] + ["--format", fmt])
    assert code == case["exit"][fmt]
    assert out.getvalue() == (GOLDEN / f"{case_id}.{fmt}.out").read_text(encoding="utf-8")
