"""Per-module tracing of wzbc from outside the library.

Tracer.install wraps every public function that a wzbc module defines and
patches the wrapper into every loaded wzbc module that holds the function,
so names bound with `from ... import` are traced too.  Each call records a
span (id, name, start, end, parent id, counts) in memory; summarize turns
the spans of one run of a job list into per-layer metrics.  A layer's self
time is its span durations minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import threading
import time

LAYERS = ("core", "infotheory", "gaussian", "binary", "dmc", "optimize", "mcsim", "cli")


def _cloud_counts(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"cells": bound.arguments["nu_count"] * bound.arguments["gamma_count"],
            "kept": len(result["d_c"])}


def _samples(fn, args, kwargs, result):
    return {"samples": result.samples}


# counts recorded at a function boundary, from its arguments and result
PROBES = {
    "optimize.lower_envelope_indices":
        lambda fn, a, k, r: {"points_in": len(a[0]), "points_out": len(r)},
    "binary.binary_lds_channel_rates": lambda fn, a, k, r: {"clamped": int(r.clamped)},
    "binary.binary_lds_region": lambda fn, a, k, r: {"vertices": len(r.points)},
    "gaussian.lds_parametric_cloud": _cloud_counts,
    "mcsim.simulate_uncoded_gaussian": _samples,
    "mcsim.simulate_uncoded_binary": _samples,
}

# (metric, unit, better): what a traced run reports; BENCHMARK.json lists the same
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("optimize.lower_envelope_indices.calls", "count", "lower"),
        ("optimize.lower_envelope_indices.self_s", "s", "lower"),
        ("optimize.lower_envelope_indices.points_in", "count", "lower"),
        ("optimize.lower_envelope_indices.points_out", "count", "lower"),
        ("binary.binary_lds_region.self_s", "s", "lower"),
        ("binary.binary_lds_region.vertices", "count", "lower"),
        ("binary.binary_lds_channel_rates.calls", "count", "lower"),
        ("binary.binary_lds_channel_rates.clamped", "count", "lower"),
        ("binary.binary_lds_channel_rates.self_s", "s", "lower"),
        ("infotheory.binary_entropy.calls", "count", "lower"),
        ("infotheory.binary_entropy.self_s", "s", "lower"),
        ("infotheory.binary_convolution.calls", "count", "lower"),
        ("infotheory.binary_convolution.self_s", "s", "lower"),
        ("infotheory.wz_rate_kernel.calls", "count", "lower"),
        ("infotheory.wz_rate_kernel.self_s", "s", "lower"),
        ("binary.binary_separate_region.self_s", "s", "lower"),
        ("binary.binary_cds_region.self_s", "s", "lower"),
        ("binary.binary_trivial_converse.self_s", "s", "lower"),
        ("gaussian.lds_parametric_cloud.self_s", "s", "lower"),
        ("gaussian.lds_parametric_cloud.cells", "count", "lower"),
        ("gaussian.lds_parametric_cloud.kept", "count", "lower"),
        ("gaussian.gaussian_lds_closed_form.calls", "count", "lower"),
        ("gaussian.gaussian_lds_closed_form.self_s", "s", "lower"),
        ("infotheory.mutual_information.calls", "count", "lower"),
        ("infotheory.mutual_information.self_s", "s", "lower"),
        ("dmc.lds_rate_triple.calls", "count", "lower"),
        ("dmc.lds_rate_triple.self_s", "s", "lower"),
        ("mcsim.simulate_uncoded_gaussian.samples_per_s", "1/s", "higher"),
        ("mcsim.simulate_uncoded_binary.samples_per_s", "1/s", "higher"),
        ("core.validate_problem.calls", "count", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("cli.csv_bytes", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
    ]
)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1, counts or None)
        self.probe_errors = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []  # (module, attribute, original)
        self.wrapped = set()

    def _wrap(self, name, fn, probe):
        spans, ids, local, probe_errors = self.spans, self._ids, self._local, self.probe_errors

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((span_id, name, start, time.perf_counter(), parent, None))
                raise
            end = time.perf_counter()
            stack.pop()
            counts = None
            if probe is not None:
                try:
                    counts = probe(fn, args, kwargs, result)
                except Exception:  # a later signature change must not stop the run
                    probe_errors.add(name)
            spans.append((span_id, name, start, end, parent, counts))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap the public functions of every layer in all wzbc modules that bind them."""
        for layer in LAYERS:
            importlib.import_module(f"wzbc.{layer}")
        modules = [m for n, m in list(sys.modules.items()) if n == "wzbc" or n.startswith("wzbc.")]
        for layer in LAYERS:
            module = sys.modules[f"wzbc.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, PROBES.get(name))
                self.wrapped.add(name)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapper)
                            self._patched.append((holder, key, fn))

    def uninstall(self):
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()


def summarize(spans) -> dict:
    """{function name: {calls, self_s, total_s, <counts>}} over the given spans."""
    child_time = {}
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {}
    for span_id, name, start, end, _, counts in spans:
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - child_time.get(span_id, 0.0)
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return out


def layer_metrics(functions: dict, wrapped) -> tuple:
    """Per-layer metric values from a summarize() result.

    Returns (values, absent): metrics of functions that were not found in
    the library read 0 and their function names are listed in absent.
    """
    values, absent = {}, set()
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            v["self_s"] for n, v in functions.items() if n.split(".")[0] == layer
        )
    for metric, _, _ in PER_LAYER:
        parts = metric.split(".")
        if len(parts) != 3 or parts[0] not in LAYERS:
            continue
        fname, stat = ".".join(parts[:2]), parts[2]
        entry = functions.get(fname, {})
        if fname not in wrapped:
            absent.add(fname)
        if stat == "samples_per_s":
            total = entry.get("total_s", 0.0)
            values[metric] = entry.get("samples", 0) / total if total > 0 else 0.0
        else:
            values[metric] = entry.get(stat, 0)
    return values, sorted(absent)
