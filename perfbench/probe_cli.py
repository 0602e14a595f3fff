"""Run the braident CLI like ``python -m braident.cli`` and report stage times.

Usage: python3 probe_cli.py FD ARG...

Writes three perf_counter_ns stamps to file descriptor FD: after ``import
numpy``, after ``import braident.cli`` and after ``main(ARG...)`` returned.
Used by traced ``cli_showcase`` runs; the untraced runs use ``-m braident.cli``.
"""

import os
import sys
from time import perf_counter_ns

stamps = []
try:
    import numpy  # noqa: F401

    stamps.append(perf_counter_ns())
    import braident.cli

    stamps.append(perf_counter_ns())
    code = 1
    try:
        code = braident.cli.main(sys.argv[2:])
    finally:
        sys.stdout.flush()
        stamps.append(perf_counter_ns())
finally:
    os.write(int(sys.argv[1]), " ".join(map(str, stamps)).encode())
raise SystemExit(code)
