"""What the benchmark in ``perfbench/`` reads of finstoch, checked here so that breaking it fails the suite.

perfbench is read, never changed: its ``tracing`` and ``inputs`` modules
are loaded from their files.  Each name below is kept for perfbench
alone, and this is why it stays:

* ``run_laws(..., jobs=1)``: the law-grid workload passes ``jobs``, so
  the serial runner keeps the argument;
* ``multisets._multiset_space_cached``: the tracer reads the hits and
  misses of ``multiset_space`` under that alias;
* the grid caps (``kl_cap``, ``k_plus_l_cap``, ``kln_cap``): the pinned
  law grid sets them, so ``GridSpec`` keeps them as fields;
* ``core.kernel_from_function``: the tracer's ``TRACED`` table names it,
  so it stays in ``core`` (and exported from ``finstoch``) though no
  builder calls it.

The last test runs the pinned law grid once with the tracer installed,
as ``perfbench/run.py --workload law-grid --trace 1`` does.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import finstoch
from finstoch import core, laws

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
inputs = _load("inputs")


@pytest.mark.parametrize("module, spec, fields", tracing.TRACED, ids=[f"{m}.{s}" for m, s, _ in tracing.TRACED])
def test_every_traced_name_resolves(module, spec, fields):
    owner = importlib.import_module(f"finstoch.{module}")
    name, _, cache_name = spec.partition(":")
    assert callable(getattr(owner, name))
    if "hits" in fields:
        counted = getattr(owner, cache_name or name)
        assert callable(counted.cache_info) and callable(counted.cache_clear)


def test_tracer_hooks_resolve():
    assert callable(core.Dist.__post_init__)
    assert callable(core._guard_size)


def test_every_kernel_scale_builder_is_exported():
    for builder, _ in inputs.BUILDS:
        assert callable(getattr(finstoch, builder, None)), builder


def test_pinned_grid_runs_traced_as_in_the_law_table():
    table = json.loads((PERFBENCH / "law_table.json").read_text())
    grid = laws.GridSpec(**inputs.LAW_GRID)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin()
        report = laws.run_laws(grid, inputs.LAW_IDS, jobs=1)
        tracer.end()
    finally:
        tracer.restore()
    assert report.total_failures == 0
    got = {r.law_id: {"instances": r.instances, "skipped": r.skipped} for r in report.results}
    assert got == table["laws"]
    counts = tracer.to_json()
    assert counts["core.Dist.count"] > 0 and counts["core.carrier_max"] > 0
