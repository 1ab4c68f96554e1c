"""Cold set-up probe: import tmcat, build one workload's inputs, exit.

Usage: probe.py WORKLOAD SEED   (with the checkout's src/ on PYTHONPATH)

Prints the seconds that ``import tmcat`` took; the caller times the whole
process from spawn to exit.
"""

import sys
import time

t0 = time.perf_counter()
import tmcat  # noqa: E402,F401

import_s = time.perf_counter() - t0

import workloads  # noqa: E402

workloads.inputs(sys.argv[1], int(sys.argv[2]), workloads.FULL)
print(import_s)
