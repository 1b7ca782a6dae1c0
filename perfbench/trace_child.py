"""Run one arithgroups CLI command with a span around each layer's public functions.

Usage (with the package importable, e.g. PYTHONPATH=src):

    python perfbench/trace_child.py SPANS.json CLI-ARGS...

Behaves like ``python -m arithgroups.cli CLI-ARGS...`` (same stdout, stderr and
exit code), but first replaces each traced function wherever a caller looks it
up, so nothing in the package changes.  Spans (name, start, end, parent) stay
in memory and are written to SPANS.json when the command ends, together with
per-call closure records and call counters.
"""

import collections
import functools
import importlib
import json
import sys
import time
import types

from arithgroups import cli, closure, poly, report

ENGINE_CHECK_MAX_ORDER = 10 ** 5

# (module, function): public functions timed as spans named "module.function"
TRACED = [
    ("congruence", "strong_approx_scan"),
    ("congruence", "reduce_generators"),
    ("congruence", "quasisimple_check"),
    ("density", "density_verdict"),
    ("density", "ad_span"),
    ("density", "lubotzky_scan"),
    ("numberfield", "chebotarev_scan"),
    ("numberfield", "is_split"),
    ("catalog", "load_group"),
    ("catalog", "load_field"),
]

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = collections.Counter()
        self.closures = []         # [backend, n, m, order, truncated, seconds]
        self.closure_keys = set()

    def wrap(self, name, fn, after=None):
        """Return fn recording a span; after(args, result) may add counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), None, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                self.stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # closure: per-call records, reuse keys and the cross-engine check

    def traced_closure(self, fn):
        traced = self.wrap("closure", fn)
        engine_check = self.wrap("closure.engine_check", self._engine_check)

        @functools.wraps(fn)
        def run_closure(gens, n, m, cap, keep_elements):
            backend = closure.backend_name(n, m)
            start = clock()
            result = traced(gens, n, m, cap, keep_elements)
            seconds = clock() - start
            order, truncated, elements = result
            self.closures.append([backend, n, m, order, truncated, seconds])
            self.closure_keys.add((tuple(tuple(g) for g in gens), m))
            if (closure._native is not None and closure.fits_native(n, m)
                    and not truncated and order <= ENGINE_CHECK_MAX_ORDER):
                engine_check(backend, gens, n, m, cap, keep_elements, result)
            return result

        return run_closure

    def _engine_check(self, backend, gens, n, m, cap, keep_elements, result):
        other = closure.bfs_closure_py if backend == "native" else closure._native
        again = other(list(gens), n, m, cap, keep_elements)
        self.counts["closure.engine_checked"] += 1
        if _closure_outcome(again) != _closure_outcome(result):
            self.counts["closure.engine_mismatch"] += 1

    def _cache_get(self, args, result):
        self.counts["report.cache_get.hits"] += result is not None

    def _cache_put(self, args, result):
        self.counts["report.cache_put.bytes"] += len(args[2])

    def _render(self, args, result):
        self.counts["report.render_report.bytes"] += len(result)

    def install(self):
        """Swap each traced function for its wrapper in every module that holds it."""
        wrappers = {
            closure.run_closure: self.traced_closure(closure.run_closure),
            report.render_report: self.wrap(
                "report.render_report", report.render_report, self._render),
        }
        for module_name, attr in TRACED:
            fn = getattr(importlib.import_module(f"arithgroups.{module_name}"), attr, None)
            if fn is not None:  # a function the tree no longer has shows as zero calls
                wrappers[fn] = self.wrap(f"{module_name}.{attr}", fn)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("arithgroups"):
                for attr, value in list(vars(module).items()):
                    if isinstance(value, types.FunctionType) and value in wrappers:
                        setattr(module, attr, wrappers[value])
        Poly, ScanCache = poly.Poly, report.ScanCache
        Poly.pow_mod = self.wrap("poly.pow_mod", Poly.pow_mod)
        # divmod runs too often to time without perturbing the run: count only
        Poly.divmod = self.count("poly.divmod.calls", Poly.divmod)
        ScanCache.get = self.wrap("report.cache_get", ScanCache.get, self._cache_get)
        ScanCache.put = self.wrap("report.cache_put", ScanCache.put, self._cache_put)

    def dump(self, path):
        data = {
            "spans": self.spans,
            "counts": dict(self.counts),
            "closures": self.closures,
            "distinct_closures": len(self.closure_keys),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _closure_outcome(result):
    order, truncated, elements = result
    return order, truncated, None if elements is None else sorted(map(tuple, elements))


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.wrap("cli.dispatch", cli.dispatch)(argv)
    finally:
        tracer.dump(spans_path)
    sys.exit(code)


if __name__ == "__main__":
    main()
