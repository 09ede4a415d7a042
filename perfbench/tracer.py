"""Spans and counters around the public functions of each fano_delta module.

The layers are the program's modules.  `install` replaces every public
module-level function of each layer, and the methods named in `METHODS`, by
a wrapper that records one span (name, start, end, parent) per call, and
rebinds every alias of the original that other modules made with
`from ... import`.  Spans stay in memory; `Recorder.metrics` turns them into
per-layer self time and call counts, and `Recorder.dump` writes them out.

Scan splits, resamples and LP pivots happen inside private functions of
`surfzar` and `lp`, so they cannot be counted from here; that needs spans
inside the program itself.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = {
    "cli": "fano_delta.cli",
    "scenarios": "fano_delta.scenarios",
    "builders": "fano_delta.scenarios.builders",
    "flagdelta": "fano_delta.flagdelta",
    "surfzar": "fano_delta.surfzar",
    "toric3": "fano_delta.toric3",
    "lp": "fano_delta.lp",
    "linalg": "fano_delta.linalg",
    "exactmath": "fano_delta.exactmath",
}

# Methods traced besides the module-level functions; None means every
# public method the class defines.
METHODS = {
    "cli": {"Report": ("to_json", "exit_code")},
    "builders": {"ToricFamily": None},
    "exactmath": {"Poly": ("__call__", "subs")},
}

# exactmath.q coerces a scalar to a Fraction; a full report calls it about
# 280k times, so a span on it would triple the tracing cost and say nothing
# about where the exact arithmetic goes.
SKIP = {"exactmath.q"}

# Counters that count calls of the named spans.
CALL_COUNTERS = {
    "flagdelta.s_values": ("flagdelta.s_from_volume", "flagdelta.s_curve_flag",
                           "flagdelta.s_point_flag"),
    "surfzar.scans": ("surfzar.chamber_scan",),
    "toric3.pullbacks": ("toric3.pullback",),
    "toric3.triple_products": ("toric3.triple_product",),
    "lp.solves": ("lp.solve_max",),
    "linalg.solves": ("linalg.solve", "linalg.solve_overdetermined"),
    "exactmath.integrals": ("exactmath.integrate_chamber", "exactmath.integrate_univariate"),
    "exactmath.interpolations": ("exactmath.interpolate",),
    "exactmath.parses": ("exactmath.parse_poly",),
    "exactmath.poly_evals": ("exactmath.Poly.__call__",),
    "exactmath.poly_subs": ("exactmath.Poly.subs",),
}

# Counters that add up a size taken from the result of the named span.
RESULT_COUNTERS = {
    "surfzar.chamber_scan": ("surfzar.chambers", lambda r: len(r.chambers)),
    "surfzar.threshold_pieces": ("surfzar.threshold_pieces", len),
    "surfzar.verify_surface_table": ("surfzar.table_rows", lambda r: r.rows_checked),
}

# Report assembly: the JSON document and the exit-code decision.
REPORT_SPANS = ("cli.Report.to_json", "cli.Report.exit_code")

# Every metric `Recorder.metrics` returns, in order.
METRIC_UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "cli.report_s": "s",
    "scenarios.fixture_cache_hit_ratio": "ratio",
    "flagdelta.scan_cache_hit_ratio": "ratio",
    "flagdelta.scan_cache_size": "count",
    **dict.fromkeys(CALL_COUNTERS, "count"),
    **dict.fromkeys((name for name, _ in RESULT_COUNTERS.values()), "count"),
}


def is_traceable(obj) -> bool:
    """A plain function, or a function under functools.lru_cache."""
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


def layer_functions():
    """(span name, holder, attribute, original) for everything to wrap."""
    out = []
    for layer, module_name in LAYERS.items():
        module = importlib.import_module(module_name)
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or name in SKIP or not is_traceable(obj)
                    or obj.__module__ != module_name):
                continue
            out.append((name, module, attr, obj))
        for cls_name, wanted in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            attrs = wanted or [a for a, v in vars(cls).items()
                               if not a.startswith("_") and inspect.isfunction(v)]
            for attr in attrs:
                out.append((f"{layer}.{cls_name}.{attr}", cls, attr, vars(cls)[attr]))
    return out


class Recorder:
    """In-memory spans of one process: (name index, start, end, parent index)."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.originals: dict[str, object] = {}

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counters = self.counters
        name_index = len(self.names)
        self.names.append(name)
        counter, size = RESULT_COUNTERS.get(name, (None, None))

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_index, start, end, parent)
            if counter is not None:
                counters[counter] += size(result)
            return result

        functools.update_wrapper(traced, fn)
        traced.__traced__ = name
        return traced

    def install(self) -> None:
        """Wrap every layer function and rebind each alias of it."""
        replacements = {}
        for name, holder, attr, original in layer_functions():
            self.originals[name] = original
            if isinstance(original, property):
                wrapper = property(self.wrap(name, original.fget))
            else:
                wrapper = self.wrap(name, original)
            setattr(holder, attr, wrapper)
            replacements[id(original)] = wrapper
        for module_name, module in list(sys.modules.items()):
            if module_name != "fano_delta" and not module_name.startswith("fano_delta."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])

    def metrics(self) -> dict[str, float]:
        """Per-layer self time and calls, plus the named counters."""
        layer_of = [name.split(".", 1)[0] for name in self.names]
        child_time = [0.0] * len(self.spans)
        for name_index, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = Counter()
        calls = Counter()
        by_name = Counter()
        report_s = 0.0
        report = {self.names.index(n) for n in REPORT_SPANS if n in self.names}
        for i, (name_index, start, end, parent) in enumerate(self.spans):
            layer = layer_of[name_index]
            self_s[layer] += end - start - child_time[i]
            calls[layer] += 1
            by_name[self.names[name_index]] += 1
            if name_index in report and (parent < 0 or self.spans[parent][0] not in report):
                report_s += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = calls[layer]
        out["cli.report_s"] = report_s
        loaders = [f for f in self.originals.values()
                   if hasattr(f, "cache_info") and f.__module__ == LAYERS["scenarios"]]
        out["scenarios.fixture_cache_hit_ratio"] = _hit_ratio(loaders)
        scans = self.originals["flagdelta.scenario_scans"]
        out["flagdelta.scan_cache_hit_ratio"] = _hit_ratio([scans])
        out["flagdelta.scan_cache_size"] = scans.cache_info().currsize
        for counter, span_names in CALL_COUNTERS.items():
            out[counter] = sum(by_name[n] for n in span_names)
        for counter, _ in RESULT_COUNTERS.values():
            out[counter] = self.counters[counter]
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - origin, 7), round(e - origin, 7), p] for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))


def _hit_ratio(cached) -> float:
    hits = sum(f.cache_info().hits for f in cached)
    lookups = hits + sum(f.cache_info().misses for f in cached)
    return hits / lookups if lookups else 0.0
