"""Set-up probe: one workload's set-up in a fresh interpreter.

``python3 perfbench/probe.py WORKLOAD SEED`` imports the program, runs the
workload's set-up and prints ``ready`` with three readings of the monotonic
clock: when this script started, when the imports were done and when the
set-up was done.  ``run.py`` took the clock before launching it, so
interpreter start and imports count towards ``setup_s``.
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    imported = time.perf_counter()
    workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
    print("ready", STARTED, imported, time.perf_counter(), flush=True)
