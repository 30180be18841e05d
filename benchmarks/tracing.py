"""Spans around slowclt's public functions, installed from outside the package.

Each public function of a slowclt module is wrapped once, and the wrapper is
set at every module attribute that binds the function, since that attribute
is where the package looks it up at call time.  TowerSystem.push_forward is
wrapped on its class.  Spans are kept in memory as
[name, start, end, parent index, attributes] and written out when the
benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import statistics
import time
from collections import defaultdict

LAYERS = ("construction", "towers", "distributions", "probes", "reporting")
METHODS = (("towers", "TowerSystem", "push_forward"),)


def _occupancy_attrs(args, kwargs, result):
    system, n = args[0], args[2] if len(args) > 2 else kwargs["n"]
    if all(int(h) >= n for h in system.heights):
        return {"route": "tall"}
    # the DP route's own cost formula, evaluated from the call's arguments
    return {"route": "dp", "dp_ops": (n - 1) * system.n_states * (n + 1)}


def _interval_attrs(args, kwargs, result):
    cs = [float(c) for c in args[0] if c > 0.0]
    attrs = {"route": result.method}
    if result.method == "grid":
        # the grid size rule of interval_probability, from its arguments
        target = args[2] if len(args) > 2 else kwargs.get("target_error", 1e-6)
        step = target / sum(1.0 / c for c in cs)
        attrs["grid_cells"] = math.ceil((2.0 * sum(cs) + 4.0 * step) / step)
    elif result.method == "monte-carlo":
        reps = args[4] if len(args) > 4 else kwargs.get("mc_reps", 10**6)
        attrs["mc_samples"] = reps * len(cs)
    return attrs


# per-call attributes: counts measured where the work happens
ATTRS = {
    "towers.occupancy_distribution": _occupancy_attrs,
    "distributions.interval_probability": _interval_attrs,
    "distributions.lattice_sum_distribution":
        lambda args, kwargs, result: {"key": (id(args[0]), args[1] if len(args) > 1 else kwargs["n"])},
    "construction.build_counterexample":
        lambda args, kwargs, result: {"states": result.system.n_states},
    "probes.mixing_probe":
        lambda args, kwargs, result: {"max_lag": max(result.details.get("m_lags") or [0])},
    "probes.mds_conditional_mean_test":
        lambda args, kwargs, result: {"bins": result.details.get("bins", 0)},
    "reporting.write_report":
        lambda args, kwargs, result: {"bytes": os.path.getsize(result["ndjson"])},
    "reporting.verify_certificate":
        lambda args, kwargs, result: {"checks": len(result)},
}


class Tracer:
    """Installs span-recording wrappers on slowclt and removes them again."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, label):
        attrs_of = ATTRS.get(label)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([label, time.perf_counter(), None, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if attrs_of is not None:
                spans[idx][4] = attrs_of(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        import importlib

        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                               for m in LAYERS + ("cli",)]
        wrappers = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                self._undo.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"{package.__name__}.{layer}"), cls_name)
            fn = vars(cls)[meth]
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, f"{layer}.{meth}"))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def reset(self) -> None:
        self.spans.clear()


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer numbers of one traced pass.

    <layer>.self_s is the time inside the layer's spans not covered by a
    child span; <layer>.<function>_s is the inclusive time of the function's
    outermost calls.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    out: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (label, _, _, parent, attrs) in enumerate(spans):
        layer = label.partition(".")[0]
        out[f"{layer}.self_s"] += dur[i] - child[i]
        calls[label] += 1
        p = parent
        while p >= 0 and spans[p][0] != label:
            p = spans[p][3]
        if p < 0:
            out[f"{label}_s"] += dur[i]
    lattice_keys = [s[4]["key"] for s in spans
                    if s[0] == "distributions.lattice_sum_distribution"]

    def attr_sum(label, key):
        return sum((s[4] or {}).get(key, 0) for s in spans if s[0] == label)

    out["towers.occupancy_distribution_calls"] = calls["towers.occupancy_distribution"]
    out["towers.occupancy_dp_ops"] = attr_sum("towers.occupancy_distribution", "dp_ops")
    out["towers.push_forward_calls"] = calls["towers.push_forward"]
    out["construction.states"] = attr_sum("construction.build_counterexample", "states")
    out["distributions.lattice_sum_distribution_calls"] = len(lattice_keys)
    out["distributions.lattice_sum_useful_ratio"] = (
        len(set(lattice_keys)) / len(lattice_keys) if lattice_keys else 0.0)
    out["distributions.interval_grid_cells"] = attr_sum(
        "distributions.interval_probability", "grid_cells")
    out["distributions.interval_mc_samples"] = attr_sum(
        "distributions.interval_probability", "mc_samples")
    out["probes.mixing_max_lag"] = max(
        [(s[4] or {}).get("max_lag", 0) for s in spans if s[0] == "probes.mixing_probe"],
        default=0)
    out["probes.mds_bins"] = attr_sum("probes.mds_conditional_mean_test", "bins")
    out["reporting.verify_checks"] = attr_sum("reporting.verify_certificate", "checks")
    out["reporting.certificate_bytes"] = attr_sum("reporting.write_report", "bytes")
    return out


def median_metrics(passes: list[dict[str, float]], names) -> dict[str, float]:
    """Median of each named metric over the traced passes; 0 where never recorded."""
    return {n: float(statistics.median(p.get(n, 0.0) for p in passes)) for n in names}
