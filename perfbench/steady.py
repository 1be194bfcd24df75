"""Steadiness and trace checks for perfbench/run.py.

    python3 perfbench/steady.py                      # 2 sets x 10 seeds, every workload
    python3 perfbench/steady.py --workloads kernel-scale
    python3 perfbench/steady.py --trace-check        # traced against untraced runs

The steadiness check runs each workload in two sets of ten runs as long
as run_seconds, on seeds 1 to 20, one per run.  For every end-to-end
metric it prints each set's median and quartiles, its spread
(interquartile range over median, marked "wide" above a third of the
bound), and whether the sets agree within the metric's bound in
BENCHMARK.json: every spread within the bound, the two medians apart by
no more than the bound (of the first), and the same share of failed
operations.

The trace check runs each workload once untraced and twice traced on
one seed.  It passes when all three print the same outputs digest and
the two traced runs give identical counts.

Both write what they measured to .perfbench/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("law-grid", "cli-ladder", "kernel-scale")
RUNS = 10  # runs per set, one seed each
SETS = 2
COUNT_SUFFIXES = (".calls", ".hits", ".misses", ".rows", ".entries", ".count", ".instances", ".skipped")


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, cwd=ROOT, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    digest = re.search(r"outputs digest ([0-9a-f]+)", proc.stdout)
    return json.loads(lines[-1]), digest.group(1) if digest else ""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(args, spec: dict) -> bool:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    record = {}
    for workload in args.workloads:
        sets = []
        for s in range(SETS):
            runs = []
            for i in range(RUNS):
                seed = 1 + s * RUNS + i
                started = time.perf_counter()
                result, _ = bench_run(workload, seed, args.seconds, 0)
                print(f"{workload} set {s + 1} seed {seed}: {time.perf_counter() - started:.1f} s wall, "
                      + ", ".join(f"{k} {m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
                if not result["correct"]:
                    print(f"  incorrect outputs on seed {seed}", flush=True)
                    ok = False
                runs.append(result)
            sets.append(runs)
        record[workload] = sets
        shares = {Fraction(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)) for runs in sets}
        print(f"{workload}: failed share per set {sorted(str(x) for x in shares)}"
              + ("" if len(shares) == 1 else "  DIFFERS"))
        ok &= len(shares) == 1
        for name, m in bounds.items():
            bound = m["bound"]
            stats = [quartiles([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            first_median = stats[0][1]
            cells = []
            for q1, med, q3 in stats:
                spread = (q3 - q1) / med
                moved = (med - first_median) / first_median
                agree = spread <= bound and abs(moved) <= bound
                ok &= agree
                wide = " wide" if spread > bound / 3 else ""
                cells.append(f"median {med:.5g} [{q1:.5g}, {q3:.5g}] spread {spread:.1%}{wide}"
                             f"{' moved ' + format(moved, '+.1%') if moved else ''}{'' if agree else ' FAIL'}")
            print(f"  {name:<13} bound {bound:.0%}: " + " | ".join(cells), flush=True)
    STATE.mkdir(exist_ok=True)
    (STATE / f"steady-{int(time.time())}.json").write_text(json.dumps(record, indent=1))
    return ok


def trace_check(args) -> bool:
    ok = True
    for workload in args.workloads:
        seed = 1
        _, plain_digest = bench_run(workload, seed, args.seconds, 0)
        traced = [bench_run(workload, seed, args.seconds, 1) for _ in range(2)]
        digests = {plain_digest, traced[0][1], traced[1][1]}
        counts = [{k: m["value"] for k, m in r["metrics"].items() if k.endswith(COUNT_SUFFIXES)} for r, _ in traced]
        differing = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        good = len(digests) == 1 and not differing and all(r["correct"] for r, _ in traced)
        ok &= good
        print(f"{workload}: outputs {'equal' if len(digests) == 1 else 'DIFFER'} traced and untraced; "
              f"{len(counts[0])} counts, {len(differing)} differ between traced runs {differing[:5]}"
              f"{'' if good else '  FAIL'}", flush=True)
        STATE.mkdir(exist_ok=True)
        (STATE / f"trace-{workload}.json").write_text(json.dumps([r for r, _ in traced], indent=1))
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description="Steadiness and trace checks for perfbench/run.py.")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--trace-check", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.seconds = spec["run_seconds"]
    ok = trace_check(args) if args.trace_check else steadiness(args, spec)
    print("steady" if ok and not args.trace_check else "trace check passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
