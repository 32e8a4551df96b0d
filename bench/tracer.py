"""Benchmark-side tracer for the per-layer run.

It wraps the public functions of each kohnspec layer and rebinds every
``kohnspec`` module attribute that refers to one of them, so calls between
modules go through the wrapper too.  Each wrapped call records a span
(name, start, end, parent); each layer's counters are updated at the same
boundary.  Spans stay in memory until the timed pass ends.

A span's self time is its duration minus the durations of its child spans.
Spans of one thread nest, so the self times of all spans add up to the
durations of the root spans, and the rest of the timed pass is reported as
unattributed time.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

# (module, attribute, span name).  Span names are the self-time metrics.
# A name missing from the program is skipped and its metric reads 0.
WRAPPED = [
    ("group_catalog", "close_in_su2_x_u1", "group_catalog.build_s"),
    ("characters", "admissible_pairs", "characters.pairs_s"),
    ("invariant_dims", "dim_invariant", "invariant_dims.dim_s"),
    ("spectrum", "counting_function", "spectrum.counting_self_s"),
    ("spectrum", "sphere_counting_table", "spectrum.sphere_table_s"),
    ("spectrum", "xi_bound", "spectrum.xi_s"),
    ("spectrum", "weyl_integral", "spectrum.weyl_quad_s"),
    ("spectrum", "multiplicity", "spectrum.multiplicity_s"),
    ("spectrum", "compare_spectra", "spectrum.compare_s"),
    ("genfun", "fg_coefficients", "genfun.fg_s"),
    ("genfun", "pg_polynomial", "genfun.pg_s"),
    ("genfun", "dim_h0_polynomial", "genfun.h0_s"),
    ("sobolev", "c_group", "sobolev.c_group_s"),
    ("sobolev", "greens_lower_witness", "sobolev.witness_s"),
    ("oracle", "matrix_closure", "oracle.closure_s"),
    ("oracle", "invariant_dim_bruteforce", "oracle.projector_s"),
    ("cli", "run", "cli.self_s"),
]

# Subcommands of the reproduce workload; cli.<name>_s is the inclusive time
# of the cli.run calls for that subcommand.
CLI_SUBCOMMANDS = ["multiplicity", "compare", "weyl", "xi", "genfun", "h0dims", "sobolev", "oracle-check"]

COUNTERS = [
    "group_catalog.groups_built",
    "group_catalog.cache_hits",
    "group_catalog.closure_elements",
    "characters.pairs",
    "invariant_dims.dim_calls",
    "invariant_dims.dim_cells",
    "genfun.series_ceiling",
    "oracle.rank_cells",
    "cli.commands",
]


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.inclusive: Counter = Counter()
        self._seen_groups: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def close(self, index: int) -> float:
        span = self.spans[index]
        span[2] = self.clock()
        if self.stack and self.stack[-1] == index:
            self.stack.pop()
        else:
            self.stack.remove(index)
        return span[2] - span[1]

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str, before=None, after=None):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def spanned_gen(*args, **kwargs):
                if before:
                    before(tracer, args)
                index = tracer.open(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer.close(index)
            return spanned_gen

        def spanned(*args, **kwargs):
            note = before(tracer, args) if before else None
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer.close(index)
            if after:
                after(tracer, note, args, result, seconds)
            return result
        return spanned

    def install(self) -> None:
        """Rebind the wrapped functions in every loaded kohnspec module."""
        modules = [m for k, m in sys.modules.items() if k == "kohnspec" or k.startswith("kohnspec.")]
        catalog = sys.modules["kohnspec.group_catalog"]
        targets = []
        for mod_name, attr, span in WRAPPED:
            fn = getattr(sys.modules.get("kohnspec." + mod_name), attr, None)
            if fn is not None:
                targets.append((fn, span))
        for attr, fn in vars(catalog).items():
            if attr.lstrip("_").startswith("make_") and callable(fn):
                targets.append((fn, "group_catalog.build_s"))
        wrappers = {}
        for fn, span in targets:
            if fn.__name__ in _HOOKS:
                before, after = _HOOKS[fn.__name__]
            elif span == "group_catalog.build_s":
                before, after = _constructor_hooks(fn)
            else:
                before, after = None, None
            wrappers[id(fn)] = self._wrap(fn, span, before, after)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> Counter:
        """Self time per span name: duration minus child durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of a pass that took wall_s; the self times plus
        trace.unattributed_s add up to trace.wall_s."""
        out: dict[str, float] = {span: 0.0 for _, _, span in WRAPPED}
        out.update(self.self_times())
        roots = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        for key in COUNTERS:
            out[key] = self.counts[key]
        out["cli.failed"] = self.counts["cli.commands"] - self.counts["cli.ok"]
        for sub in CLI_SUBCOMMANDS:
            out[f"cli.{sub}_s"] = self.inclusive[sub]
        calls = self.counts["invariant_dims.dim_calls"]
        cells = self.counts["invariant_dims.dim_cells"]
        out["invariant_dims.hit_ratio"] = (calls - cells) / calls if calls else 0.0
        out["invariant_dims.us_per_cell"] = 1e6 * out["invariant_dims.dim_s"] / cells if cells else 0.0
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - roots
        return out


# -- counters, updated at the wrapped boundaries ---------------------------


def _constructor_hooks(fn):
    """Hooks for a group constructor.  A @cache constructor whose miss count
    is unchanged by the call was a hit; a group object not returned before
    was built."""
    info = getattr(fn, "cache_info", None)

    def before(tracer, args):
        return info().misses if info else None

    def after(tracer, misses, args, result, seconds):
        if info and info().misses == misses:
            tracer.counts["group_catalog.cache_hits"] += 1
        if id(result) not in tracer._seen_groups:
            tracer._seen_groups[id(result)] = result
            tracer.counts["group_catalog.groups_built"] += 1
    return before, after


def _closure_after(tracer, note, args, result, seconds):
    tracer.counts["group_catalog.closure_elements"] += len(result)


def _pairs_before(tracer, args):
    from kohnspec.characters import sphere_dim
    p, q, n = args[:3]
    tracer.counts["characters.pairs"] += sphere_dim(p, q, n)


def _dim_before(tracer, args):
    group, p, q = args[:3]
    tracer.counts["invariant_dims.dim_calls"] += 1
    if (p, q) not in getattr(group, "_dim_cache", ()):
        tracer.counts["invariant_dims.dim_cells"] += 1


def _fg_before(tracer, args):
    counts = tracer.counts
    counts["genfun.series_ceiling"] = max(counts["genfun.series_ceiling"], int(args[1]))


def _rank_before(tracer, args):
    tracer.counts["oracle.rank_cells"] += 1


def _cli_before(tracer, args):
    tracer.counts["cli.commands"] += 1


def _cli_after(tracer, note, args, result, seconds):
    # a command that exits non-zero or raises never counts as ok
    tracer.counts["cli.ok"] += result == 0
    tracer.inclusive[args[0][0]] += seconds


_HOOKS = {
    "close_in_su2_x_u1": (None, _closure_after),
    "admissible_pairs": (_pairs_before, None),
    "dim_invariant": (_dim_before, None),
    "fg_coefficients": (_fg_before, None),
    "invariant_dim_bruteforce": (_rank_before, None),
    "run": (_cli_before, _cli_after),
}
