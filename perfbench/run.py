"""Benchmark for finstoch: law-grid, cli-ladder and kernel-scale.

    python3 perfbench/run.py --workload law-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --write-law-table

A run repeats whole rounds of one workload for about --seconds seconds,
checks every output against perfbench/oracles.py (or, for law-grid,
against perfbench/law_table.json), prints one line per metric and, as
its last line, one JSON object with the keys correct, attempted, failed
and metrics.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 its per-layer metrics, per round.  The
program is imported from src/ of the checkout this file sits in.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import inputs
import oracles
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
LAW_TABLE = HERE / "law_table.json"
HASH_SEED = "0"
SETUP_REPEATS = 5
INTERPRETER_REPEATS = 5
QUERY_TIMEOUT_S = 120
WORKLOADS = ("law-grid", "cli-ladder", "kernel-scale")
TIMED_LAWS = ("Thm8.2.multizip", "Prop7.5.natural", "Thm8.2.mu", "Prop7.5.assoc")
LAW_METRICS = (
    "laws.instances", "laws.skipped", "laws.make_kernel.hits", "laws.make_kernel.misses", "laws.self_s",
    "laws.slowest_law_s", *(f"laws.{i}.seconds" for i in TIMED_LAWS),
)


class BenchError(Exception):
    """The benchmark cannot run here, or its pinned inputs no longer fit the program."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def finstoch_caches() -> list:
    """Every cache in the loaded finstoch modules, found by its cache_clear method."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "finstoch" or name.startswith("finstoch."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


def go_cold(caches: list) -> None:
    for cache in caches:
        cache.cache_clear()
    gc.collect()


@dataclass
class Record:
    """What one run measured and checked, summed over its rounds."""

    rounds: int = 0
    seconds: float = 0.0  # timed work
    ops: int = 0  # operations completed within the timed work
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)  # outputs that disagree with the oracle
    requests: list[float] = field(default_factory=list)  # seconds of each user-visible request
    peak_kb: int = 0  # largest peak RSS of a query child (cli-ladder)
    layers: dict = field(default_factory=dict)  # per-layer totals, traced runs only
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)  # this round's outputs
    first_digest: str | None = None  # every round must repeat the first one's outputs


# Plain labels --------------------------------------------------------------------


def plain_kernel(kernel) -> dict:
    """A finstoch kernel as an oracle kernel: {domain label: {codomain label: weight}}."""
    from finstoch.core import Tagged
    from finstoch.multisets import Multiset

    bases: dict[int, list] = {}  # the plain elements of each multiset base, converted once

    def plain(x):
        if isinstance(x, Multiset):
            if id(x.base) not in bases:
                bases[id(x.base)] = [plain(b) for b in x.base]
            return oracles.bag(bases[id(x.base)], x.counts)
        if isinstance(x, Tagged):
            return oracles.Tag(x.tag, plain(x.value))
        if isinstance(x, tuple):
            return tuple(plain(c) for c in x)
        return x

    return {plain(x): {plain(y): w for y, w in row.items} for x, row in zip(kernel.domain, kernel.rows)}


def plain_json(x):
    """A label of the CLI's JSON output as an oracle label."""
    if isinstance(x, dict) and "colors" in x:
        return oracles.bag([plain_json(c) for c in x["colors"]], x["counts"])
    if isinstance(x, dict):
        return oracles.Tag(x["tag"], plain_json(x["value"]))
    if isinstance(x, list):
        return tuple(plain_json(c) for c in x)
    return x


# law-grid --------------------------------------------------------------------------


class LawGrid:
    """run_laws(grid, the 92 laws, jobs=1) in-process over the pinned grid, from cold caches."""

    def setup(self, seed: int) -> None:
        from finstoch import laws

        self.laws = laws
        self.grid = laws.GridSpec(**inputs.LAW_GRID)
        known = {law.id for law in laws.law_registry()}
        missing = [i for i in inputs.LAW_IDS if i not in known]
        if missing:
            raise BenchError(f"pinned law ids missing from the registry: {', '.join(missing)}")
        self.table = json.loads(LAW_TABLE.read_text())
        if self.table["grid"] != json.loads(json.dumps(inputs.LAW_GRID)):
            raise BenchError(f"{LAW_TABLE.name} was made for another grid; regenerate it")
        self.caches = finstoch_caches()

    def expect(self) -> None:
        """The expected counts are the law table, read at set-up."""

    def run_round(self, rec: Record, tracer: tracing.Tracer | None) -> None:
        go_cold(self.caches)
        if tracer:
            tracer.begin()
        started = time.perf_counter()
        try:
            report = self.laws.run_laws(self.grid, inputs.LAW_IDS, jobs=1)
            seconds = time.perf_counter() - started
        except Exception:
            traceback.print_exc()
            rec.attempted += self.table["total_instances"]
            rec.failed += self.table["total_instances"]
            return
        finally:
            if tracer:
                tracer.end()
        rec.seconds += seconds
        rec.requests.append(seconds)
        rec.ops += report.total_instances
        self.check(report, rec)
        if tracer:
            results = {r.law_id: r for r in report.results}
            tracing.merge(rec.layers, {
                "laws.instances": report.total_instances,
                "laws.skipped": report.total_skipped,
                "laws.slowest_law_s": max(r.seconds for r in report.results),
                **{f"laws.{i}.seconds": results[i].seconds for i in TIMED_LAWS},
            })

    def check(self, report, rec: Record) -> None:
        results = {r.law_id: r for r in report.results}
        for law_id in inputs.LAW_IDS:
            want = self.table["laws"][law_id]
            rec.attempted += want["instances"]
            got = results.get(law_id)
            if got is None:
                rec.failed += want["instances"]
                rec.wrong.append(f"{law_id}: not run")
                continue
            # an instance the table lists but the run did not check counts as failed
            rec.failed += got.failure_count + max(0, want["instances"] - got.instances)
            if got.failure_count:
                print(f"law failed: {law_id} at {got.failures[0]}", file=sys.stderr)
            if got.instances != want["instances"] or got.skipped != want["skipped"]:
                rec.wrong.append(
                    f"{law_id}: {got.instances} instances and {got.skipped} skipped, "
                    f"table has {want['instances']} and {want['skipped']}"
                )
        stable = [
            (r.law_id, r.instances, r.passes, r.failure_count, list(r.failures), r.skipped)
            for r in report.results
        ]
        rec.digest.update(json.dumps(stable).encode())


# cli-ladder ------------------------------------------------------------------------


class CliLadder:
    """Each seeded query in a fresh ``python -m finstoch.cli`` process, one at a time."""

    def setup(self, seed: int) -> None:
        import finstoch.cli  # noqa: F401  (the import every query pays)

        self.queries = inputs.cli_queries(seed)
        self.env = child_env()
        self.expected: dict[inputs.Query, dict] = {}
        STATE.mkdir(exist_ok=True)
        self.stats_path = STATE / "cli-trace.json"

    def expect(self) -> None:
        for q in self.queries:
            self.oracle(q)

    def command(self, q: inputs.Query, traced: bool) -> list[str]:
        if traced:
            return [sys.executable, str(HERE / "traced_cli.py"), str(self.stats_path), *q.argv()]
        return [sys.executable, "-m", "finstoch.cli", *q.argv()]

    def query(self, q: inputs.Query, traced: bool = False) -> tuple[float, subprocess.CompletedProcess, int]:
        """Run one query to its end: wall seconds, its outcome, and its own peak RSS in KiB."""
        with tempfile.TemporaryFile(dir=STATE) as out, tempfile.TemporaryFile(dir=STATE) as err:
            started = time.perf_counter()
            child = subprocess.Popen(self.command(q, traced), stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(QUERY_TIMEOUT_S, child.kill)
            timer.start()
            # wait4 reaps the child and gives its own rusage, not that of every child so far
            _, status, usage = os.wait4(child.pid, 0)
            seconds = time.perf_counter() - started
            child.returncode = os.waitstatus_to_exitcode(status)
            timer.cancel()
            timer.join()
            out.seek(0)
            err.seek(0)
            proc = subprocess.CompletedProcess(child.args, child.returncode, out.read(), err.read())
        return seconds, proc, usage.ru_maxrss

    def warm_up(self) -> float:
        seconds, proc, _ = self.query(inputs.WARMUP)
        if proc.returncode != 0:
            raise BenchError(f"warm-up query failed: {' '.join(inputs.WARMUP.argv())}")
        return seconds

    def run_round(self, rec: Record, tracer: tracing.Tracer | None) -> None:
        for q in self.queries:
            seconds, proc, peak_kb = self.query(q, traced=tracer is not None)
            rec.attempted += 1
            if proc.returncode != 0:
                rec.failed += 1
                err = proc.stderr.decode(errors="replace").strip() or f"exit code {proc.returncode}"
                print(f"query failed: {' '.join(q.argv())}: {err}", file=sys.stderr)
                continue
            rec.peak_kb = max(rec.peak_kb, peak_kb)
            rec.seconds += seconds
            rec.requests.append(seconds)
            rec.ops += 1
            rec.digest.update(proc.stdout)
            if self.outcome(q, proc.stdout) != self.oracle(q):
                rec.wrong.append(" ".join(q.argv()))
            if tracer:
                stats = json.loads(self.stats_path.read_text())
                rec.layers.setdefault("cli.import_samples", []).append(stats.pop("cli.import_s"))
                tracing.merge(rec.layers, stats)

    def outcome(self, q: inputs.Query, stdout: bytes) -> dict | None:
        """The printed distribution, keyed like :meth:`oracle`; None if malformed."""
        out: dict = {}
        try:
            if q.fmt == "json":
                for entry in json.loads(stdout)["entries"]:
                    out[plain_json(entry["label"])] = Fraction(entry["probability"])
                return out
            for line in stdout.decode().splitlines():
                label, _, weight = line.rpartition(": ")
                if label in out:
                    return None
                out[label] = Fraction(weight)
        except (ValueError, KeyError, TypeError):
            return None
        return out

    def oracle(self, q: inputs.Query) -> dict:
        if q not in self.expected:
            if q.command == "multinomial":
                dist = oracles.multinomial(q.dist, q.k)
            elif q.command == "hypergeometric":
                dist = oracles.hypergeometric(q.urn, q.k)
            elif q.command == "dd":
                dist = oracles.draw_delete(q.urn)
            elif q.command == "flrn":
                dist = oracles.flrn(q.urn)
            elif q.command == "arr":
                dist = oracles.arrangements(q.urn)
            elif q.command == "mzip":
                dist = oracles.mzip(q.urn, q.right)
            elif q.command == "msplit":
                left = [(x, c) for x, c in q.urn if x in q.left]
                right = [(x, c) for x, c in q.urn if x not in q.left]
                dist = oracles.msplit(left, right)
            else:
                raise BenchError(f"no oracle for {q.command}")
            if q.fmt == "text":
                atoms = [x for x, _ in q.urn + q.right + q.dist]
                order = {x: i for i, x in enumerate(atoms)}
                order.update({(x, y): i for i, (x, y) in enumerate(
                    (x, y) for x, _ in q.urn for y, _ in q.right
                )})
                dist = {oracles.render(label, order): w for label, w in dist.items()}
            self.expected[q] = dist
        return self.expected[q]


# kernel-scale ----------------------------------------------------------------------

class KernelScale:
    """Large kernels from the public builders, each built from cold caches."""

    def setup(self, seed: int) -> None:
        import finstoch

        self.finstoch = finstoch
        self.rows = inputs.kernel_rows(seed)
        self.kernel()  # validates the seeded rows
        self.caches = finstoch_caches()
        self.expected: dict[int, dict] = {}

    def expect(self) -> None:
        for index in range(len(inputs.BUILDS)):
            self.oracle(index)

    def kernel(self):
        fs = self.finstoch
        X, Y = fs.make_finset(inputs.KX), fs.make_finset(inputs.KY)
        rows = tuple(fs.make_dist(Y, dict(self.rows[x])) for x in inputs.KX)
        return fs.Kernel(X, Y, rows)

    def arguments(self, args: tuple) -> list:
        out = []
        for a in args:
            if a == "f":
                out.append(self.kernel())
            elif isinstance(a, tuple):
                out.append(self.finstoch.make_finset(a))
            else:
                out.append(a)
        return out

    def run_round(self, rec: Record, tracer: tracing.Tracer | None) -> None:
        round_seconds = 0.0
        for index, (builder, args) in enumerate(inputs.BUILDS):
            go_cold(self.caches)
            call_args = self.arguments(args)
            if tracer:
                tracer.begin()
            rec.attempted += 1
            started = time.perf_counter()
            try:
                kernel = getattr(self.finstoch, builder)(*call_args)
                entries = sum(len(row.items) for row in kernel.rows)
                seconds = time.perf_counter() - started
            except Exception:
                traceback.print_exc()
                rec.failed += 1
                continue
            finally:
                if tracer:
                    tracer.end()
            round_seconds += seconds
            rec.ops += 1
            got = plain_kernel(kernel)
            if entries != sum(len(r) for r in got.values()) or got != self.oracle(index):
                rec.wrong.append(f"{builder}{args}")
            rec.digest.update(repr(list(zip(kernel.domain, kernel.rows))).encode())
            del kernel, got
        rec.seconds += round_seconds
        rec.requests.append(round_seconds)

    def oracle(self, index: int) -> dict:
        if index not in self.expected:
            builder, args = inputs.BUILDS[index]
            if builder == "multinomial_kernel":
                k = oracles.multinomial_kernel(self.rows, args[1])
            elif builder == "mset_map":
                k = oracles.mset_map_kernel(self.rows, args[1])
            elif builder == "hypergeometric_chain_kernel":
                k = oracles.hypergeometric_kernel(*args)
            else:
                k = getattr(oracles, builder)(*args)
            self.expected[index] = k
        return self.expected[index]


WORKLOAD_CLASSES = {"law-grid": LawGrid, "cli-ladder": CliLadder, "kernel-scale": KernelScale}


# Running -------------------------------------------------------------------------------


def declared_metrics() -> tuple[list[dict], list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def timed_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    started = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, env=child_env(), cwd=ROOT, timeout=QUERY_TIMEOUT_S)
    return time.perf_counter() - started, proc


def setup_seconds(name: str, seed: int, workload) -> float:
    """Median over fresh interpreters of import plus pinning (plus, for cli-ladder, the warm-up query)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        _, proc = timed_child([sys.executable, str(HERE / "probe.py"), name, str(seed)])
        if proc.returncode != 0:
            raise BenchError(f"set-up of {name} failed: {proc.stderr.decode(errors='replace').strip()}")
        seconds = float(proc.stdout.decode().split()[-1])
        if name == "cli-ladder":
            seconds += workload.warm_up()
        samples.append(seconds)
    return statistics.median(samples)


def end_to_end(name: str, rec: Record, setup_s: float) -> dict[str, float]:
    if name == "cli-ladder":
        peak = rec.peak_kb
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": rec.ops / rec.seconds if rec.seconds else 0.0,
        "query_p50_ms": statistics.median(rec.requests) * 1000 if rec.requests else 0.0,
        "peak_rss_mb": peak / 1024,
        "setup_s": setup_s,
    }


def per_layer(name: str, rec: Record, tracer: tracing.Tracer) -> dict[str, float]:
    totals = dict(rec.layers)
    tracing.merge(totals, tracer.to_json())
    totals["laws.self_s"] = totals.get("laws.run_laws.self_s", 0)
    names = [n for n, _ in tracing.layer_metric_names()] + [*LAW_METRICS, "cli.command_s"]
    out = {n: totals.get(n, 0) / rec.rounds for n in names}
    out["core.carrier_max"] = totals.get("core.carrier_max", 0)
    samples = totals.get("cli.import_samples")
    out["cli.import_s"] = statistics.median(samples) if samples else 0.0
    out["cli.interpreter_s"] = 0.0
    if name == "cli-ladder":
        starts = [timed_child([sys.executable, "-c", "pass"])[0] for _ in range(INTERPRETER_REPEATS)]
        out["cli.interpreter_s"] = statistics.median(starts)
    return out


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    e2e_spec, layer_spec = declared_metrics()
    workload = WORKLOAD_CLASSES[name]()
    workload.setup(seed)
    # the oracles' results stay in memory, so they are made before the first round
    workload.expect()
    setup_s = setup_seconds(name, seed, workload)
    tracer = None
    if trace:
        # for cli-ladder the wrappers that count run inside each query process
        tracer = tracing.Tracer()
        tracer.install()
    rec = Record()
    started = time.perf_counter()
    try:
        while True:
            rec.digest = hashlib.sha256()
            workload.run_round(rec, tracer)
            rec.rounds += 1
            if rec.first_digest is None:
                rec.first_digest = rec.digest.hexdigest()
            elif rec.digest.hexdigest() != rec.first_digest:
                rec.wrong.append(f"round {rec.rounds} printed other outputs than round 1")
            elapsed = time.perf_counter() - started
            # stop at the round boundary nearest to the requested length
            if elapsed + elapsed / rec.rounds / 2 >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.restore()
    for what in rec.wrong:
        print(f"wrong output: {what}", file=sys.stderr)
    if trace:
        values = per_layer(name, rec, tracer)
        spec = layer_spec
    else:
        values = end_to_end(name, rec, setup_s)
        spec = e2e_spec
    declared = {m["name"] for m in spec}
    if declared != set(values):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(declared ^ set(values))}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    print(f"{name}: seed {seed}, {rec.rounds} rounds, {rec.attempted} attempted, {rec.failed} failed, "
          f"outputs digest {rec.first_digest}")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    return {"correct": not rec.wrong, "attempted": rec.attempted, "failed": rec.failed, "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
        lines = proc.stdout.decode().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    return combined


def write_law_table() -> None:
    from finstoch import laws

    report = laws.run_laws(laws.GridSpec(**inputs.LAW_GRID), inputs.LAW_IDS, jobs=1)
    if report.total_failures:
        raise BenchError(f"{report.total_failures} law failures; not writing a table")
    table = {
        "grid": json.loads(json.dumps(inputs.LAW_GRID)),
        "total_instances": report.total_instances,
        "total_skipped": report.total_skipped,
        "laws": {r.law_id: {"instances": r.instances, "skipped": r.skipped} for r in report.results},
    }
    LAW_TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {LAW_TABLE.name}: {report.total_instances} instances, {report.total_skipped} skipped")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-law-table", action="store_true",
                        help="run the pinned grid once and rewrite law_table.json")
    args = parser.parse_args(argv)
    if not (SRC / "finstoch" / "__init__.py").is_file():
        print(f"error: no finstoch sources in {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # pin string hashing, so that dict and set layouts repeat from run to run
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], child_env())
    sys.path.insert(0, str(SRC))
    try:
        import finstoch

        if Path(finstoch.__file__).resolve().parent != SRC / "finstoch":
            raise BenchError(f"imported finstoch from {finstoch.__file__}, not from {SRC}")
        if args.write_law_table:
            write_law_table()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        compileall.compile_dir(str(SRC), quiet=1)
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
