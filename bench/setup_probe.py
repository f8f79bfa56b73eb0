"""Time one workload's set-up in this fresh process and print the seconds.

Usage: python3 bench/setup_probe.py WORKLOAD

The clock starts before ``import thinpde`` (and numpy/scipy with it), so the
figure is what a user pays before the first pass can start.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402

workloads.setup(sys.argv[1])
print(repr(time.perf_counter() - START))
