"""Record the golden CLI outputs that tests/test_golden.py compares against.

``cases.json`` maps a case id to the argv of one ``braident`` command; every
case runs in text and in json format.  This script runs each one in-process
and writes its stdout to ``<id>.<format>.out`` and its exit code and stderr
(the ``error:`` and ``warning:`` lines) back into ``cases.json``.  Run it only
on a tree whose output is known to be right:

    PYTHONPATH=src python tests/golden/capture.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from braident.cli import main

HERE = Path(__file__).resolve().parent
FORMATS = ("text", "json")


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def capture() -> None:
    cases = json.loads((HERE / "cases.json").read_text(encoding="utf-8"))
    for case_id, case in cases.items():
        case["exit"], case["stderr"] = {}, {}
        for fmt in FORMATS:
            code, stdout, stderr = run(case["argv"] + ["--format", fmt])
            case["exit"][fmt] = code
            case["stderr"][fmt] = stderr
            (HERE / f"{case_id}.{fmt}.out").write_text(stdout, encoding="utf-8")
    lines = [f"  {json.dumps(case_id)}: {json.dumps(case)}" for case_id, case in cases.items()]
    (HERE / "cases.json").write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    capture()
