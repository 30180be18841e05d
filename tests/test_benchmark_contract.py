"""The benchmark's contract with the package: what benchmarks/ imports and wraps.

benchmarks/selftest.py calls the package's oracle routines and writes tiny
certificates of every variant; benchmarks/tracing.py wraps slowclt's public
functions and TowerSystem.push_forward by name.  An API change that breaks
either fails here rather than only when the benchmark runs.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import slowclt

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def test_selftest_exits_0():
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = (slowclt.mixing_profile, slowclt.towers.TowerSystem.push_forward)
    tracer = tracing.Tracer()
    tracer.install(slowclt)
    try:
        sys_ = slowclt.build_tower_system([slowclt.TowerSpec(2, 0.4), slowclt.TowerSpec(3, 0.6)])
        sys_.push_forward(sys_.stationary_array())
        slowclt.mixing_profile(sys_, [1, 2])
    finally:
        tracer.uninstall()
    assert (slowclt.mixing_profile, slowclt.towers.TowerSystem.push_forward) == originals
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["towers.push_forward_calls"] == 1
    assert metrics["probes.mixing_profile_s"] > 0.0
