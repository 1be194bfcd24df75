"""One cold set-up of a workload, timed in a fresh interpreter.

    python3 perfbench/probe.py WORKLOAD SEED

Prints the seconds spent importing finstoch and pinning the workload's
inputs.  The benchmark's own modules are imported between the two timed
parts, so that their import is not counted.
"""

import importlib
import sys
import time

PACKAGES = {"law-grid": "finstoch.laws", "cli-ladder": "finstoch.cli", "kernel-scale": "finstoch"}

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    started = time.perf_counter()
    importlib.import_module(PACKAGES[name])
    imported = time.perf_counter()
    import run

    pinning = time.perf_counter()
    run.WORKLOAD_CLASSES[name]().setup(seed)
    print(imported - started + time.perf_counter() - pinning)
