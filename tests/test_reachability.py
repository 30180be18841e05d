"""src/slowclt holds only what a certificate or the benchmark reaches.

Every subcommand runs in-process on the desk configs under sys.setprofile.
Each function defined in src/slowclt must be entered by some run, unless
EXEMPT gives the reason it stays; an exemption for a function the runs do
enter fails too, so the list cannot go stale.
"""

import inspect
import json
import os
import sys
from pathlib import Path

import pytest

import slowclt
from slowclt.cli import main

SRC = Path(slowclt.__file__).resolve().parent

DESK = {
    "thm1": ["--variant", "thm1", "--rate-c", "0.5", "--rate-beta", "1", "--K", "5"],
    "thm3": ["--variant", "thm3", "--rate-c", "0.25", "--rate-beta", "0.5", "--K", "3"],
    "thm2": ["--variant", "thm2", "--rate-c", "0.05", "--rate-beta", "1", "--K", "12"],
}

# module.qualname of each function no run enters, and what keeps it in src/
EXEMPT = {
    "distributions.lattice_sum_distribution":
        "benchmarks/run.py computes its reference laws with it, and BENCHMARK.json "
        "times it (distributions.lattice_sum_distribution_s)",
    "towers.occupancy_distribution":
        "lattice_sum_distribution's occupancy law; BENCHMARK.json times it "
        "(towers.occupancy_distribution_s)",
    "distributions.interval_probability":
        "benchmarks/selftest.py checks its grid against b_4 = 41/48, and BENCHMARK.json "
        "times it (distributions.interval_probability_s)",
    "distributions._interval_probability_grid": "interval_probability's grid",
    "distributions._cell_masses_scaled_noise": "interval_probability's grid",
    "distributions._cell_masses_scaled_noise.<locals>.cdf": "interval_probability's grid",
    "distributions._conv": "interval_probability's grid",
    "distributions._fft_convolve": "interval_probability's grid",
    "distributions.sample_partial_sums":
        "the Monte Carlo cross-check of thm2's llt-ratio that --mc-reps > 0 turns on; "
        "benchmarks/selftest.py passes mc_reps 20000",
    "towers.sample_trajectory_batch":
        "sample_partial_sums's paths; BENCHMARK.json times it "
        "(towers.sample_trajectory_batch_s)",
    "construction.LatticeNoise.sample":
        "no src/ path samples a lattice model; tests/test_distributions.py's "
        "test_monte_carlo_consistency checks sample_partial_sums against the exact law with it",
    "construction.TwoIntervalUniformNoise.sample": "sample_partial_sums's noise on thm2",
    "construction.ProcessModel.weight_at": "sample_partial_sums's weights",
    "towers.TowerSystem.push_forward":
        "benchmarks/tracing.py wraps it by name, and BENCHMARK.json counts its calls "
        "(towers.push_forward_calls)",
    "probes.mixing_profile":
        "benchmarks/selftest.py checks its beta against a renewal oracle",
    "probes.gnedenko_baseline":
        "benchmarks/selftest.py checks it against a math.comb oracle, and BENCHMARK.json "
        "times it (probes.gnedenko_baseline_s)",
    "reporting._json_default":
        "the encoders' hook for values JSON lacks, such as numpy scalars; no record "
        "carries one today, and test_encoded_text_of_values_json_lacks pins its text",
}


def _defined(path: Path):
    """(qualname, code) of every named function defined in a source file,
    nested ones included."""
    def walk(code, prefix):
        for const in code.co_consts:
            if not inspect.iscode(const) or const.co_name.startswith("<"):
                continue
            name = prefix + const.co_name
            function = const.co_flags & inspect.CO_OPTIMIZED  # else a class body
            if function:
                yield name, const
            yield from walk(const, name + (".<locals>." if function else "."))

    yield from walk(compile(path.read_text(), str(path), "exec"), path.stem + ".")


def _key(code):
    return os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name


def _run_every_subcommand(tmp_path) -> set:
    """The keys of the src/slowclt functions that the CLI runs enter."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"schema_version": 1, "variant": "thm1", "K": 2,
                                  "rate": {"family": "power-law", "c": 0.5, "beta": 1.0}}))
    runs = []
    for variant, flags in DESK.items():
        out = str(tmp_path / variant)
        runs += [["schedule", *flags], ["build", *flags], ["probe", *flags, "variance"],
                 ["report", *flags, "--out", out], ["verify", os.path.join(out, "report.ndjson")]]
    baseline = str(tmp_path / "iid-baseline")
    runs += [["report", "--variant", "iid-baseline", "--out", baseline],
             ["verify", os.path.join(baseline, "report.ndjson")],
             ["report", "--config", str(config), "--out", str(tmp_path / "config")]]
    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in runs]
        # a perturbed certificate: its changed line is compared field by field
        lines = (tmp_path / "thm3" / "report.ndjson").read_text().splitlines()
        record = json.loads(lines[-1])
        record["value"] = 2.0 * record["value"] + 1.0
        lines[-1] = json.dumps(record, sort_keys=True)
        (tmp_path / "perturbed.ndjson").write_text("\n".join(lines) + "\n")
        codes.append(main(["verify", str(tmp_path / "perturbed.ndjson")]))
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs) + [1]
    return {_key(code) for code in entered}


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    return _run_every_subcommand(tmp_path_factory.mktemp("reachability"))


def _functions():
    return [(name, code) for path in sorted(SRC.glob("*.py")) for name, code in _defined(path)]


def test_every_function_is_entered_or_exempt(entered):
    functions = _functions()
    assert len(functions) > 80
    unreached = sorted(name for name, code in functions if _key(code) not in entered)
    assert [name for name in unreached if name not in EXEMPT] == []
    reached = sorted(name for name, code in functions if _key(code) in entered)
    assert [name for name in reached if name in EXEMPT] == []


def test_every_exemption_names_a_function_and_a_reason():
    names = {name for name, _ in _functions()}
    assert sorted(set(EXEMPT) - names) == []
    assert all(reason.strip() for reason in EXEMPT.values())
