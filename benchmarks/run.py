#!/usr/bin/env python3
"""Time slowclt from a rate to a verified certificate, and check the outputs.

A certificate is the user's path: config -> run_experiment -> write_report ->
verify_certificate.  A workload is a list of certificates, run one after
another as a closed loop with no concurrency.

    python3 benchmarks/run.py                  # self-test, then every workload
    python3 benchmarks/run.py --workload thm3-desk --seed 0 --seconds 30 --trace 0

With --workload NAME the workload runs in this process: set-up is timed in
fresh interpreters, then passes through the workload's certificates repeat
until the pass boundary nearest to --seconds, and at least twice.  Every
pass is checked against the independent computations in oracles.py.  With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 untraced and traced passes alternate, and
it holds the per-layer metrics of the traced passes and the tracing overhead.  The command exits 1 if any check fails and
2 if the slowclt sources are missing.  Runs need no install: the package is
imported from src/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _cap_blas_threads() -> None:
    """Cap the BLAS and OpenMP pools at the cores this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= nproc:
            os.environ[var] = str(nproc)


_cap_blas_threads()
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracing  # noqa: E402


def certificate_config(variant: str, c: float, beta: float, K: int) -> dict:
    return {"schema_version": 1, "variant": variant,
            "rate": {"family": "power-law", "c": c, "beta": beta}, "K": K}


# Why each workload is here is written down in README.md.  The iid-baseline
# variant ignores rate and K; the config schema requires them.
WORKLOADS = {
    "thm1-short": [certificate_config("thm1", 0.5, 1.0, 5),
                   certificate_config("iid-baseline", 0.5, 0.5, 1)],
    "thm3-desk": [certificate_config("thm3", 0.25, 0.5, 3)],
    "thm2-desk": [certificate_config("thm2", 0.05, 1.0, 12)],
}
DEFAULT_SEED = 0
# Every certificate runs at the config's default seed whatever --seed is: the
# strong-MDS Monte Carlo probe rejects correct models on a few seeds in a
# hundred (thm1-short at seed 17, thm2-desk at 36, 48 and 86), and a
# benchmark run must not pass or fail with the seed.  See README.md.
CONFIG_SEED = 0
SETUP_REPEATS = 15
# A run makes at least this many passes, and peak memory is read after the
# last of them, so that it does not depend on how many passes the machine's
# speed allows in --seconds.
MIN_PASSES = 2

END_TO_END = {"certify_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PROBES = ("llt_probe_lattice", "clt_probe", "llt_probe_density", "mixing_probe",
          "mds_conditional_mean_test", "variance_probe", "conditional_variance_floor",
          "density_bound_probe", "gnedenko_baseline")
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    "construction.derive_schedule_s": "s",
    "construction.build_counterexample_s": "s",
    "construction.states": "count",
    "towers.occupancy_distribution_s": "s",
    "towers.occupancy_distribution_calls": "count",
    "towers.occupancy_dp_ops": "computed_ops",
    "towers.push_forward_calls": "count",
    "towers.sample_trajectory_batch_s": "s",
    "distributions.lattice_sum_distribution_s": "s",
    "distributions.lattice_sum_distribution_calls": "count",
    "distributions.lattice_sum_useful_ratio": "ratio",
    "distributions.kolmogorov_distance_s": "s",
    "distributions.interval_probability_s": "s",
    "distributions.interval_grid_cells": "computed_cells",
    "distributions.interval_mc_samples": "count",
    **{f"probes.{p}_s": "s" for p in PROBES},
    "probes.mixing_max_lag": "lag",
    "probes.mds_bins": "count",
    "reporting.run_experiment_s": "s",
    "reporting.write_report_s": "s",
    "reporting.verify_certificate_s": "s",
    "reporting.certificate_bytes": "bytes",
    "reporting.verify_checks": "count",
    "trace.overhead_s": "s",
}

# Runs in a fresh interpreter: import, then schedule and model for each config.
SETUP_SNIPPET = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import slowclt
for c in json.loads(sys.argv[2]):
    if c["variant"] != "iid-baseline":
        rate = slowclt.RateSequence.from_descriptor(c["rate"])
        slowclt.build_counterexample(slowclt.derive_schedule(c["variant"], rate, c["K"]))
print(time.perf_counter() - t0)
"""


def measure_setup(configs: list[dict]) -> float:
    """Median set-up time over SETUP_REPEATS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), json.dumps(configs)],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def reference_laws(slowclt, configs: list[dict]) -> dict:
    """Exact laws of S_{n_k} for the lattice certificates, keyed (config index, k).

    A law depends only on the config, and every pass writes the same
    certificate bytes (checked), so the laws are computed once per run.
    """
    laws = {}
    for i, c in enumerate(configs):
        if c["variant"] not in ("thm1", "thm3"):
            continue
        rate = slowclt.RateSequence.from_descriptor(c["rate"])
        sched = slowclt.derive_schedule(c["variant"], rate, c["K"])
        model = slowclt.build_counterexample(sched)
        for k, n in enumerate(sched.n):
            laws[(i, k)] = slowclt.lattice_sum_distribution(model, n)
    return laws


def certify_pass(slowclt, workload: str, configs: list[dict]):
    """One timed pass: each certificate built, written and verified."""
    reporting = slowclt.reporting
    outcomes = []
    t0 = time.perf_counter()
    for i, raw in enumerate(configs):
        out_dir = OUT / workload / f"cert{i}-{raw['variant']}"
        try:
            bundle = reporting.run_experiment(
                reporting.ExperimentConfig.from_dict({**raw, "seed": CONFIG_SEED}))
            paths = reporting.write_report(bundle, str(out_dir))
            reporting.verify_certificate(paths["ndjson"])
            outcomes.append((bundle.all_passed, paths["ndjson"], None))
        except slowclt.SlowCltError as exc:
            outcomes.append((False, None, exc))
    return time.perf_counter() - t0, outcomes


def check_pass(outcomes, first_bytes: dict, laws: dict) -> list[list[str]]:
    """Failure messages per certificate of one pass; empty lists mean correct."""
    report = []
    for i, (passed, path, exc) in enumerate(outcomes):
        if exc is not None:
            report.append([f"{type(exc).__name__}: {exc}"])
            continue
        fails = [] if passed else ["run_experiment reports a failed probe"]
        data = Path(path).read_bytes()
        if first_bytes.setdefault(i, data) != data:
            fails.append("report.ndjson differs from the first pass with this seed")
        try:
            cert = oracles.parse_certificate(data.decode())
            fails += oracles.check_certificate(cert)
            for (j, k), law in laws.items():
                if j == i:
                    fails += oracles.check_lattice_law(cert, k, law.offset, law.probs)
        except (KeyError, ValueError, TypeError, IndexError) as err:
            fails.append(f"malformed certificate: {err!r}")
        report.append(fails)
    return report


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    configs = WORKLOADS[workload]
    metrics: dict[str, float] = {}
    if not trace:
        metrics["setup_s"] = measure_setup(configs)
    import slowclt

    laws = reference_laws(slowclt, configs)
    first_bytes: dict[int, bytes] = {}
    attempted = failed = 0
    untraced, traced, layer_passes, span_passes = [], [], [], []
    tracer = tracing.Tracer()

    def one_pass(traced_pass: bool) -> float:
        nonlocal attempted, failed
        if traced_pass:
            tracer.install(slowclt)
        try:
            elapsed, outcomes = certify_pass(slowclt, workload, configs)
        finally:
            tracer.uninstall()
        for i, fails in enumerate(check_pass(outcomes, first_bytes, laws)):
            attempted += 1
            failed += bool(fails)
            for msg in fails:
                print(f"FAIL {workload} cert{i}: {msg}", file=sys.stderr)
        return elapsed

    peak_rss_mb = 0.0
    start = time.perf_counter()
    while True:
        untraced.append(one_pass(False))
        if trace:
            traced.append(one_pass(True))
            layer_passes.append(tracing.layer_metrics(tracer.spans))
            span_passes.append([s[:4] for s in tracer.spans])
            tracer.reset()
        if len(untraced) == MIN_PASSES:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Stop at the round boundary nearest to --seconds: another round is
        # worth starting while it would end closer to the deadline than now.
        elapsed = time.perf_counter() - start
        if len(untraced) >= MIN_PASSES and elapsed + elapsed / len(untraced) / 2 >= seconds:
            break

    if trace:
        metrics.update(tracing.median_metrics(layer_passes, PER_LAYER))
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        units = PER_LAYER
    else:
        metrics["certify_s"] = statistics.median(untraced)
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT / workload).mkdir(parents=True, exist_ok=True)
    tag = "trace" if trace else "result"
    with open(OUT / workload / f"{tag}-seed{seed}.json", "w") as fh:
        json.dump({**result, "pass_s": untraced, "traced_pass_s": traced,
                   "spans": span_passes}, fh)
    print(f"{workload}: {len(untraced)} untraced and {len(traced)} traced passes, "
          f"{attempted} certificates attempted, {failed} failed")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Self-test, then each workload in a process of its own."""
    status = subprocess.run([sys.executable, str(HERE / "selftest.py")], cwd=ROOT).returncode
    if status != 0:
        print("oracle self-test failed", file=sys.stderr)
        return 1
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            print(f"{workload}: exited {proc.returncode} without a result", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="run seed, recorded with the result; certificates use CONFIG_SEED")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="make passes until the pass boundary nearest to this many seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "slowclt" / "__init__.py").is_file():
        print(f"slowclt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
