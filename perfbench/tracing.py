"""Per-layer tracing of the duropoly package, installed from outside it.

The tracer replaces the package's public functions, in every module that
holds a reference to them, with wrappers that record a span per call (name,
start, end, parent span, job id) or, for the per-path and per-belief
functions, only a call count, so that tracing does not swamp the loops it
measures.  Spans stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "core", "cutoffs", "value", "mechanism", "verify", "sim")

# functions that get a span per call, by layer
SPANNED = {
    "cli": ("main",),
    "cutoffs": ("compute_cutoffs", "indifference_gap"),
    "value": ("eval_R", "seller_revenue", "buyer_rent"),
    "mechanism": ("build_mechanism", "posted_price_view", "equilibrium_split"),
    "verify": ("deviation_scan", "concave_envelope", "structure_checks"),
    "sim": ("monte_carlo", "iter_paths"),
}
# generator functions: busy time is the time spent inside their next() calls
GENERATORS = {"sim.iter_paths"}
# called once per path or per belief: counted, never spanned
COUNTED = ("core.belief", "sim.simulate_path")


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for layer, fns in SPANNED.items():
        for fn in fns:
            names += [f"{layer}.{fn}.{k}" for k in ("calls", "busy_s", "self_s", "errors")]
        names.append(f"{layer}.self_s")
    names += [f"{name}.calls" for name in COUNTED]
    names += ["cutoffs.cutoffs_built", "value.eval_R.points", "sim.paths_per_requested", "trace.wall_s"]
    return names


class Tracer:
    """Spans and counters for one traced run, grouped by pass of the job list."""

    def __init__(self):
        # span: [name, start, end, parent index, job id, busy seconds, error]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = ""  # "<pass>:<job index>", set by the runner before each job
        self.counts: dict[str, int] = defaultdict(int)
        self._pass_counts: dict[int, dict[str, int]] = {}

    def begin_pass(self, index: int) -> None:
        self.counts = self._pass_counts.setdefault(index, defaultdict(int))

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.job, 0.0, False]
        self.spans.append(span)
        return span

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn)
        counters = {
            "cutoffs.compute_cutoffs": lambda res, a: {"cutoffs.cutoffs_built": len(res.cutoffs)},
            "value.eval_R": lambda res, a: {"value.eval_R.points": int(np.size(a["mu_prime"]))},
            "sim.monte_carlo": lambda res, a: {"sim.paths_requested": int(a["n_paths"])},
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                stack.pop()
                span[2] = time.perf_counter()
                span[5] = span[2] - span[1]
            if counters is not None:
                for key, n in counters(result, sig.bind(*args, **kwargs).arguments).items():
                    self.counts[key] += n
            return result

        return wrapper

    def _generator(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            index = len(spans) - 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    t = time.perf_counter()
                    stack.append(index)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        span[5] += time.perf_counter() - t
                    yield item
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = time.perf_counter()

        return wrapper

    def _counted(self, name: str, fn):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap every reference the package's modules hold to a traced function."""
        modules = [importlib.import_module("duropoly")] + [
            importlib.import_module(f"duropoly.{m}") for m in MODULES
        ]
        wrappers = {}
        for layer, fns in SPANNED.items():
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                fn = getattr(importlib.import_module(f"duropoly.{layer}"), fn_name)
                make = self._generator if name in GENERATORS else self._spanned
                wrappers[id(fn)] = (fn, make(name, fn))
        for name in COUNTED:
            layer, fn_name = name.split(".")
            fn = getattr(importlib.import_module(f"duropoly.{layer}"), fn_name)
            wrappers[id(fn)] = (fn, self._counted(name, fn))

        patched = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def pass_metrics(self) -> dict[int, dict[str, float]]:
        """Per-layer metrics of each pass, keyed by pass index.

        A span's self time is its busy time minus the busy time of the spans
        it caused; a layer's self time is the sum over its functions.
        """
        child_busy = defaultdict(float)
        for span in self.spans:
            if span[3] is not None:
                child_busy[span[3]] += span[5]
        out = {}
        for index, counts in self._pass_counts.items():
            m = dict.fromkeys(per_layer_names(), 0.0)
            out[index] = m
            for key in ("core.belief.calls", "sim.simulate_path.calls",
                        "cutoffs.cutoffs_built", "value.eval_R.points"):
                m[key] = float(counts.get(key, 0))
            requested = counts.get("sim.paths_requested", 0)
            if requested:
                m["sim.paths_per_requested"] = counts.get("sim.simulate_path.calls", 0) / requested
        for i, (name, _start, _end, _parent, job, busy, error) in enumerate(self.spans):
            m = out[_pass_of(job)]
            self_s = busy - child_busy[i]
            m[f"{name}.calls"] += 1
            m[f"{name}.busy_s"] += busy
            m[f"{name}.self_s"] += self_s
            m[f"{name}.errors"] += error
            m[f"{name.split('.')[0]}.self_s"] += self_s
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, job, busy, error) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job, "busy_s": busy,
                                     "error": error}) + "\n")


def _pass_of(job: str) -> int:
    """Pass index of a job id "<pass>:<job>"."""
    return int(job.split(":", 1)[0])


def median_metrics(per_pass: dict[int, dict[str, float]]) -> dict[str, float]:
    """Median over passes of every per-layer metric."""
    return {k: statistics.median(m[k] for m in per_pass.values()) for k in per_layer_names()}
