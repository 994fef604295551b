"""Spans around the public functions of each ``evidential`` module.

:class:`Tracer` runs inside a traced child process.  It replaces every
module binding of each traced function with a wrapper: ``engine.contrast``
as well as ``geometry.contrast``, ``simulate.evidential_value`` as well as
``engine.evidential_value``, and ``np.random.default_rng`` as seen from
``simulate``.  Each call appends one span (name, parent span, start, end)
to flat in-memory arrays; :meth:`Tracer.dump` writes them out once, at the
end.  :func:`load` and :func:`layer_metrics` turn span files back into
per-layer totals in the benchmark's parent process.

The wrapped functions never call themselves, so a span's inclusive time is
never counted twice; self time is a span's duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, attribute, span name)
TARGETS = (
    ("ledger", "parse_ledger_lenient", "ledger.parse"),
    ("ledger", "validate", "ledger.validate"),
    ("geometry", "contrast", "geometry.contrast"),
    ("geometry", "paper_lower_bound_sq", "geometry.paper_floor"),
    ("geometry", "exact_infimum_sq", "geometry.exact_floor"),
    ("geometry", "variance_profile", "geometry.variance_profile"),
    ("engine", "evidential_value", "engine.value"),
    ("engine", "z_v_statistic", "engine.z_stats"),
    ("engine", "z_c_statistic", "engine.z_stats"),
    ("engine", "combine", "engine.combine"),
    ("engine", "threshold_ratio", "engine.threshold"),
    ("cli", "build_rows", "cli.build_rows"),
    ("cli", "render_value", "cli.render_value"),
    ("cli", "_render_table", "cli.render"),
    ("cli", "_render_json", "cli.render"),
    ("simulate", "null_exceedance", "simulate.loop"),
    ("simulate", "simulate_study", "simulate.study"),
    ("simulate", "generate_errors", "simulate.draw"),
)
PACKAGE = "evidential"


class _Overlay:
    """A module seen through a few replaced attributes."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("B")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        self.counters: dict[str, int] = {}

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name, on_return=None):
        ix = self._name_id(name)
        add_name, add_parent = self.name.append, self.parent.append
        add_start, add_end = self.start.append, self.end.append
        parents, ends, clock = self.parent, self.end, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(parents)
            add_name(ix)
            add_parent(tracer.current)
            add_end(0)
            tracer.current = span
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                tracer.current = parents[span]
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _count_parse(self, result):
        ledger, errors = result
        for key, value in (("ledger.parse.rows", len(ledger)), ("ledger.parse.rows_rejected", len(errors))):
            self.counters[key] = self.counters.get(key, 0) + value

    def install(self):
        """Rebind every traced function in every loaded package module."""
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for module_name, attr, span_name in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            hook = self._count_parse if span_name == "ledger.parse" else None
            wrapper = self.wrap(original, span_name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        simulate = sys.modules[f"{PACKAGE}.simulate"]
        np = simulate.np
        rng = self.wrap(np.random.default_rng, "simulate.rng_setup")
        simulate.np = _Overlay(np, random=_Overlay(np.random, default_rng=rng))

    def dump(self, path):
        header = {"names": self.names, "count": len(self.parent), "counters": self.counters}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(f)


def load(path):
    """Read a span file: ``(names, name, parent, start, end, counters)``."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        count = header["count"]
        arrays = []
        for code in "Blqq":
            arr = array(code)
            arr.fromfile(f, count)
            arrays.append(arr)
    return (header["names"], *arrays, header["counters"])


def totals(path) -> dict:
    """Per-name call counts, inclusive and self nanoseconds of one file."""
    names, name, parent, start, end, counters = load(path)
    n = len(parent)
    dur = [e - s for s, e in zip(start, end)]
    child = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
    out = dict(counters)
    loop = names.index("simulate.loop") if "simulate.loop" in names else -1
    for i in range(n):
        key = names[name[i]]
        out[key + ".calls"] = out.get(key + ".calls", 0) + 1
        out[key + ".incl_ns"] = out.get(key + ".incl_ns", 0) + dur[i]
        out[key + ".self_ns"] = out.get(key + ".self_ns", 0) + dur[i] - child[i]
        if key == "engine.value" and parent[i] >= 0 and name[parent[i]] == loop:
            out["simulate.value_ns"] = out.get("simulate.value_ns", 0) + dur[i]
    return out


def layer_metrics(t: dict) -> dict:
    """Per-layer metrics of one operation from its summed :func:`totals`."""

    def s(key):
        return t.get(key, 0) / 1e9

    def ratio(num, den):
        return t.get(num, 0) / t[den] if t.get(den) else 0.0

    return {
        "ledger.parse_s": s("ledger.parse.incl_ns"),
        "ledger.parse.rows": t.get("ledger.parse.rows", 0),
        "ledger.parse.rows_rejected": t.get("ledger.parse.rows_rejected", 0),
        "ledger.validate_s": s("ledger.validate.incl_ns"),
        "ledger.validate.calls_per_study": ratio("ledger.validate.calls", "engine.value.calls"),
        "geometry.contrast_s": s("geometry.contrast.incl_ns"),
        "geometry.contrast.calls_per_study": ratio("geometry.contrast.calls", "engine.value.calls"),
        "geometry.paper_floor_s": s("geometry.paper_floor.incl_ns"),
        "geometry.exact_floor_s": s("geometry.exact_floor.incl_ns"),
        "geometry.exact_floor.calls": t.get("geometry.exact_floor.calls", 0),
        "geometry.variance_profile_s": s("geometry.variance_profile.incl_ns"),
        "engine.value_self_s": s("engine.value.self_ns"),
        "engine.value.calls": t.get("engine.value.calls", 0),
        "engine.z_stats_s": s("engine.z_stats.incl_ns"),
        "engine.combine_s": s("engine.combine.incl_ns"),
        "engine.threshold_s": s("engine.threshold.incl_ns"),
        "cli.build_rows_self_s": s("cli.build_rows.self_ns"),
        "cli.render_value_s": s("cli.render_value.incl_ns"),
        "cli.render_s": s("cli.render.incl_ns"),
        "simulate.rng_setup_s": s("simulate.rng_setup.incl_ns"),
        "simulate.rng_setup.calls_per_rep": ratio("simulate.rng_setup.calls", "simulate.study.calls"),
        "simulate.draw_s": s("simulate.draw.self_ns"),
        "simulate.summary_s": s("simulate.study.self_ns"),
        "simulate.value_s": s("simulate.value_ns"),
        "simulate.loop_self_s": s("simulate.loop.self_ns"),
    }
