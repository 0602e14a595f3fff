"""Set-up time of one workload in a fresh interpreter.

Usage: python3 probe_setup.py WORKLOAD THETA

Prints the seconds from just before ``import braident`` to the end of
building the workload's fixed representations.  Interpreter start-up is not
included; generating the request list is not part of set-up.
"""

import sys
import time

start = time.perf_counter()

import loads  # noqa: E402  (imports numpy and braident, which is what is timed)

loads.build_fixed(sys.argv[1], float(sys.argv[2]))
print(repr(time.perf_counter() - start))
