"""The traced CLI child of cli-ladder.

    python3 perfbench/traced_cli.py STATS.json multinomial --dist a:1/2,b:1/2 --k 2

prints exactly what ``python -m finstoch.cli`` prints, exits with its
code, and writes the per-layer counters to STATS.json.  The clock for
``cli.import_s`` starts before anything but the built-in ``sys`` and
``time`` is imported, so the figure includes every standard module that
``finstoch.cli`` pulls in, as a real query pays it.
"""

import sys
import time

if __name__ == "__main__":
    started = time.perf_counter()
    import finstoch.cli

    imported = time.perf_counter()
    import json

    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin()
    try:
        commanded = time.perf_counter()
        code = finstoch.cli.main(sys.argv[2:])
        done = time.perf_counter()
    finally:
        tracer.end()
        tracer.restore()
    sys.stdout.flush()
    stats = tracer.to_json()
    stats["cli.import_s"] = imported - started
    stats["cli.command_s"] = done - commanded
    with open(sys.argv[1], "w") as fh:
        json.dump(stats, fh)
    sys.exit(code)
