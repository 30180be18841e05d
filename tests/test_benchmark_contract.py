"""The benchmark's contract with the package: what benchmarks/ imports and wraps.

benchmarks/selftest.py calls the package's oracle routines and writes tiny
certificates of every variant; benchmarks/tracing.py wraps slowclt's public
functions and TowerSystem.push_forward by name.  An API change that breaks
either fails here rather than only when the benchmark runs.
"""

import importlib
import importlib.util
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import slowclt
from oracles import stationary_array

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def test_selftest_exits_0():
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_names_resolve():
    # every slowclt.<name> chain and every `from slowclt... import` name the
    # benchmark files use, including those reached only on an error path
    missing = []
    for path in sorted(BENCH.glob("*.py")):
        text = path.read_text()
        chains = re.findall(r"\bslowclt((?:\.[A-Za-z_]\w*)+)", text)
        for mod, names in re.findall(r"^\s*from (slowclt[\w.]*) import ([\w, ]+)", text, re.M):
            chains += [f"{mod[len('slowclt'):]}.{name.strip()}" for name in names.split(",")]
        for chain in chains:
            obj = slowclt
            for attr in chain.split(".")[1:]:
                if not hasattr(obj, attr):
                    missing.append(f"{path.name}: slowclt{chain}")
                    break
                obj = getattr(obj, attr)
    assert not missing, missing


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_and_uninstalls():
    tracing = _tracing()
    originals = (slowclt.mixing_profile, slowclt.towers.TowerSystem.push_forward)
    tracer = tracing.Tracer()
    tracer.install(slowclt)
    try:
        sys_ = slowclt.build_tower_system([slowclt.TowerSpec(2, 0.4), slowclt.TowerSpec(3, 0.6)])
        sys_.push_forward(stationary_array(sys_))
        slowclt.mixing_profile(sys_, [1, 2])
    finally:
        tracer.uninstall()
    assert (slowclt.mixing_profile, slowclt.towers.TowerSystem.push_forward) == originals
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["towers.push_forward_calls"] == 1
    assert metrics["probes.mixing_profile_s"] > 0.0


def test_tracer_reads_occupancy_calls():
    # the tracer reads occupancy_distribution's (system, active, n) by position
    tracing = _tracing()
    sched = slowclt.derive_schedule("thm1", slowclt.RateSequence(0.5, 1.0), 5)
    model = slowclt.build_counterexample(sched)
    tracer = tracing.Tracer()
    tracer.install(slowclt)
    try:
        slowclt.lattice_sum_distribution(model, sched.n[-1])
    finally:
        tracer.uninstall()
    assert tracing.layer_metrics(tracer.spans)["towers.occupancy_distribution_calls"] == 1


def _public_function(layer: str, name: str) -> bool:
    """Whether slowclt.<layer>.<name> is a public function defined in that
    module, which is what the tracer labels <layer>.<name>."""
    obj = getattr(importlib.import_module(f"slowclt.{layer}"), name, None)
    return (not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == f"slowclt.{layer}")


def test_traced_names_resolve():
    # a per-layer timing, or a per-call attribute, of a function that was
    # deleted or renamed reads 0 on every workload instead of failing
    tracing = _tracing()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    timed = [m["name"] for m in spec["per_layer"] if m["name"].endswith("_s")]
    missing = []
    for metric in timed:
        layer, _, fn = metric[:-len("_s")].partition(".")
        if fn == "self" or metric == "trace.overhead_s":
            continue
        if layer not in tracing.LAYERS or not _public_function(layer, fn):
            missing.append(metric)
    for label in tracing.ATTRS:
        layer, _, fn = label.partition(".")
        if not _public_function(layer, fn):
            missing.append(label)
    for layer, cls_name, meth in tracing.METHODS:
        cls = getattr(importlib.import_module(f"slowclt.{layer}"), cls_name, None)
        if not inspect.isfunction(vars(cls).get(meth) if cls is not None else None):
            missing.append(f"{layer}.{cls_name}.{meth}")
    assert len(timed) > 5
    assert not missing, missing
