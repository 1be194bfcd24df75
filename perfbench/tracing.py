"""Per-module counters and self times, gathered by wrapping finstoch's public functions.

Nothing under ``src/`` changes: :class:`Tracer` replaces every binding of
a traced function in the loaded ``finstoch.*`` modules (``from .core
import ...`` binds one function under several modules) and puts the
originals back on :meth:`Tracer.restore`.  A function's self time is its
inclusive time minus the time spent in traced callees, the callees'
bookkeeping included.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# (module, function, fields).  "hits" and "misses" come from the cache_info()
# of the function itself, or of the cache named after the colon.
TRACED = (
    ("core", "kernel_compose", ("calls", "self_s", "entries")),
    ("core", "kernel_tensor", ("calls", "self_s", "entries")),
    ("core", "kernel_power", ("calls", "self_s", "entries")),
    ("core", "kernel_from_function", ("calls", "self_s", "rows")),
    ("core", "convex_sum", ("calls", "self_s")),
    ("core", "kernel_equal", ("calls", "self_s")),
    ("multisets", "acc_kernel", ("hits", "misses", "self_s")),
    ("multisets", "section_kernel", ("hits", "misses", "self_s")),
    ("multisets", "arr_kernel", ("hits", "misses", "self_s")),
    ("multisets", "dd_kernel", ("hits", "misses", "self_s")),
    ("multisets", "perm_kernel", ("hits", "misses", "self_s")),
    ("multisets", "mset_map", ("hits", "misses", "self_s")),
    ("multisets", "multiset_space:_multiset_space_cached", ("hits", "misses", "self_s")),
    ("algebra", "mzip_kernel", ("hits", "misses", "self_s")),
    ("algebra", "mu_kernel", ("hits", "misses", "self_s")),
    ("algebra", "msum_kernel", ("hits", "misses", "self_s")),
    ("algebra", "zip_iso", ("hits", "misses", "self_s")),
    ("algebra", "ksum_kernel", ("hits", "misses", "self_s")),
    ("draws", "multinomial_kernel", ("hits", "misses", "self_s")),
    ("draws", "hypergeometric_kernel", ("hits", "misses", "self_s")),
    ("draws", "hypergeometric_chain_kernel", ("hits", "misses", "self_s")),
    ("draws", "multinomial_pmf_kernel", ("calls", "self_s")),
    ("split", "lsplit_kernel", ("hits", "misses", "self_s")),
    ("split", "msplit_kernel", ("hits", "misses", "self_s")),
    ("split", "accs_kernel", ("hits", "misses", "self_s")),
    ("textio", "parse_dist", ("calls", "self_s")),
    ("textio", "parse_urn", ("calls", "self_s")),
    ("textio", "render_dist_lines", ("calls", "self_s")),
    ("textio", "dist_to_json", ("calls", "self_s")),
    ("laws", "run_laws", ("calls", "self_s")),
    ("laws", "make_kernel", ("hits", "misses")),
)

def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric the tracer itself produces."""
    out = []
    for module, spec, fields in TRACED:
        if module == "laws":
            continue
        name = spec.split(":")[0]
        out += [(f"{module}.{name}.{f}", "s" if f == "self_s" else "count") for f in fields]
    out += [("core.Dist.count", "count"), ("core.Dist.self_s", "s"), ("core.carrier_max", "count")]
    return out


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    rows: int = 0
    entries: int = 0
    hits: int = 0
    misses: int = 0


@dataclass
class Tracer:
    stats: dict[str, Stat] = field(default_factory=dict)
    carrier_max: int = 0
    _stack: list[float] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)
    _caches: dict[str, object] = field(default_factory=dict)
    _cache_start: dict[str, tuple[int, int]] = field(default_factory=dict)

    # Installing --------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function of every finstoch module loaded so far."""
        import finstoch.core as core

        modules = [m for n, m in list(sys.modules.items()) if n == "finstoch" or n.startswith("finstoch.")]
        for module_name, spec, fields in TRACED:
            owner = sys.modules.get(f"finstoch.{module_name}")
            if owner is None:
                continue
            name, _, cache_name = spec.partition(":")
            key = f"{module_name}.{name}"
            original = getattr(owner, name)
            self.stats[key] = Stat()
            if "hits" in fields:
                self._caches[key] = getattr(owner, cache_name) if cache_name else original
            wrapper = self._wrap(original, self.stats[key], "rows" in fields, "entries" in fields)
            self._rebind(modules, original, wrapper)

        self.stats["core.Dist"] = Stat()
        post_init = core.Dist.__post_init__
        self._undo.append((core.Dist, "__post_init__", post_init))
        core.Dist.__post_init__ = self._wrap(post_init, self.stats["core.Dist"], False, False)

        guard = core._guard_size

        def guard_size(n: int) -> None:
            if n > self.carrier_max:
                self.carrier_max = n
            guard(n)

        self._rebind(modules, guard, guard_size)

    def _rebind(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, fn, stat: Stat, count_rows: bool, count_entries: bool):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            enter = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                inner = stack.pop()
                stat.calls += 1
                stat.self_s += end - enter - inner
            if count_rows:
                stat.rows += len(result.rows)
            if count_entries:
                stat.entries += sum(len(row.items) for row in result.rows)
            if stack:
                stack[-1] += clock() - enter
            return result

        return traced

    # Cache deltas -------------------------------------------------------------

    def begin(self) -> None:
        """Mark the start of traced work; cache counters are read relative to this point."""
        self._cache_start = {k: _hits_misses(c) for k, c in self._caches.items()}

    def end(self) -> None:
        """Add the cache hits and misses since :meth:`begin`."""
        for key, cache in self._caches.items():
            h0, m0 = self._cache_start[key]
            h1, m1 = _hits_misses(cache)
            self.stats[key].hits += h1 - h0
            self.stats[key].misses += m1 - m0

    # Reporting ----------------------------------------------------------------

    def to_json(self) -> dict:
        out = {}
        for key, stat in self.stats.items():
            for f in ("calls", "self_s", "rows", "entries", "hits", "misses"):
                out[f"{key}.{f}"] = getattr(stat, f)
        out["core.Dist.count"] = self.stats["core.Dist"].calls
        out["core.carrier_max"] = self.carrier_max
        return out


def _hits_misses(cache) -> tuple[int, int]:
    info = cache.cache_info()
    return info.hits, info.misses


def merge(total: dict, part: dict) -> None:
    """Fold one set of counters into another: maxima for carrier_max, sums otherwise."""
    for key, value in part.items():
        if key == "core.carrier_max":
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
