#!/usr/bin/env python3
"""Self-test of the benchmark's oracles on tiny instances, in a few seconds.

    python3 benchmarks/selftest.py

Each oracle is compared with the slowclt routine it stands in for, each
checker passes the tiny certificates as written, and each checker rejects
every perturbed value it is given.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import slowclt  # noqa: E402
from slowclt.reporting import ExperimentConfig  # noqa: E402

# Tiny certificates: every variant, each in well under a second.
TINY = {
    "thm1": run.certificate_config("thm1", 0.5, 1.0, 2),
    "thm3": run.certificate_config("thm3", 0.1, 1.0, 2),
    "thm2": run.certificate_config("thm2", 0.1, 1.0, 2),
    "iid-baseline": run.certificate_config("iid-baseline", 0.5, 0.5, 1),
}


def oracle_agreement(problems: list[str]) -> None:
    specs = [slowclt.TowerSpec(3, 0.3), slowclt.TowerSpec(5, 0.5), slowclt.TowerSpec(2, 0.2)]
    lags = list(range(41))
    prof = slowclt.mixing_profile(slowclt.build_tower_system(specs), lags)
    chain = oracles.RenewalBeta([s.height for s in specs], [s.mass for s in specs], max(lags))
    worst = max(abs(chain.beta(m) - b) for m, b in zip(lags, prof.beta))
    if worst > 1e-12:
        problems.append(f"renewal beta differs from mixing_profile by {worst:.3g}")

    if oracles.interval_probability_exact(4, Fraction(2)) != Fraction(41, 48):
        problems.append("rational b_4 is not 41/48")
    grid = slowclt.interval_probability([1.0] * 4, 2.0, target_error=1e-4)
    if grid.method != "grid" or abs(grid.value - 41 / 48) > grid.error:
        problems.append(f"grid b_4 = {grid.value} +- {grid.error} misses 41/48")
    lo, hi = oracles.b_bracket(7)
    if not 0 < hi - lo < 1e-25:
        problems.append(f"b_7 bracket [{float(lo)}, {float(hi)}] is not tight")

    coin = slowclt.LatticeDistribution(-1, np.array([0.5, 0.0, 0.5]))
    for n, h in ((100, 2), (200, 2), (400, 2), (400, 1)):
        want = slowclt.gnedenko_baseline(coin, b=-1.0, h=float(h), n=n)
        got = oracles.coin_sup_deviation(n, h)
        if abs(got - want) > 1e-12:
            problems.append(f"coin sup deviation n={n} h={h}: {got} vs {want}")


def tiny_certificates() -> dict[str, tuple[str, dict]]:
    """Write each tiny certificate; return its text and the laws the runner would use."""
    out = {}
    for variant, raw in TINY.items():
        bundle = slowclt.run_experiment(ExperimentConfig.from_dict({**raw, "mc_reps": 20_000}))
        paths = slowclt.write_report(bundle, str(run.OUT / "selftest" / variant))
        out[variant] = (Path(paths["ndjson"]).read_text(), run.reference_laws(slowclt, [raw]))
    return out


def _perturb(cert, path, value_fn):
    """Replace the field at path = (record selector, *keys) by value_fn(old value)."""
    rec = path[0](cert)
    *keys, last = path[1:]
    for key in keys:
        rec = rec[key]
    rec[last] = value_fn(rec[last])


def _probe(name, index=None):
    return lambda cert: next(r for r in cert["probes"]
                             if r["name"] == name and (index is None or r["index"] == index))


def _schedule(cert):
    return cert["schedule"]


def _law(cert, laws):
    return [msg for (_, k), law in laws.items()
            for msg in oracles.check_lattice_law(cert, k, law.offset, law.probs)]


TIMES = lambda cert, laws: oracles.check_probe_times(cert)  # noqa: E731
VALUES = lambda cert, laws: oracles.check_lattice_values(cert)  # noqa: E731
MIXING = lambda cert, laws: oracles.check_mixing(cert)  # noqa: E731
RATIO = lambda cert, laws: oracles.check_density_ratio(cert)  # noqa: E731
CAP = lambda cert, laws: oracles.check_density_cap(cert)  # noqa: E731
COIN = lambda cert, laws: oracles.check_baseline(cert)  # noqa: E731

# (variant, description, field, new value from old, the checker that must reject it)
PERTURBATIONS = [
    ("thm1", "n_0 one larger", (_schedule, "n", 0), lambda v: v + 1, TIMES),
    ("thm1", "llt below a(n_k)", (_probe("llt", 0), "value"), lambda v: 0.06, VALUES),
    ("thm1", "llt below the intersection mass", (_probe("llt", 1), "value"), lambda v: 0.1,
     VALUES),
    ("thm1", "clt below a(n_k)/2", (_probe("clt", 1), "value"), lambda v: 0.03, VALUES),
    ("thm1", "llt off the law's mass at 0", (_probe("llt", 0), "value"), lambda v: v + 1e-9,
     _law),
    ("thm1", "slab mass that changes the variance", (_schedule, "d", 1),
     lambda v: v * (1 + 1e-6), _law),
    ("thm3", "n_1 one smaller", (_schedule, "n", 1), lambda v: v - 1, TIMES),
    ("thm3", "llt below the half-tower intersection mass", (_probe("llt", 0), "value"),
     lambda v: 0.07, VALUES),
    ("thm3", "beta_at_m off by 1e-8", (_probe("mixing"), "details", "beta_at_m", 0),
     lambda v: v + 1e-8, MIXING),
    ("thm3", "m_0 one larger, so not the smallest lag",
     (_probe("mixing"), "details", "m_lags", 0), lambda v: v + 1, MIXING),
    ("thm3", "m_0 one smaller, so beta above eps", (_probe("mixing"), "details", "m_lags", 0),
     lambda v: v - 1, MIXING),
    ("thm3", "eps_1 below beta(m_1)", (_schedule, "eps", 1), lambda v: v / 2, MIXING),
    ("thm2", "n_1 one larger", (_schedule, "n", 1), lambda v: v + 1, TIMES),
    ("thm2", "b_n outside its error", (_probe("llt-ratio", 1), "details", "b_n"),
     lambda v: v + 0.01, RATIO),
    ("thm2", "b_n set to 0", (_probe("llt-ratio", 1), "details", "b_n"), lambda v: 0.0, RATIO),
    ("thm2", "b_error shrunk to 0", (_probe("llt-ratio", 1), "details", "b_error"),
     lambda v: 0.0, RATIO),
    ("thm2", "density above L1 + L2", (_probe("density-bound"), "value"), lambda v: 101.5, CAP),
    ("thm2", "density integral off by 1e-9", (_probe("density-bound"), "details", "integral"),
     lambda v: 1.0 + 1e-9, CAP),
    ("iid-baseline", "sup deviation at n=200 off by 1e-11",
     (_probe("baseline-span-decay"), "details", "sup_deviation", "200"), lambda v: v + 1e-11,
     COIN),
    ("iid-baseline", "bad-span value off by 1e-11", (_probe("baseline-bad-span"), "value"),
     lambda v: v + 1e-11, COIN),
    ("iid-baseline", "decay bound off by 1e-11", (_probe("baseline-span-decay"), "bound"),
     lambda v: v + 1e-11, COIN),
]


def checker_rejections(certs, problems: list[str]) -> None:
    for variant, (text, laws) in certs.items():
        cert = oracles.parse_certificate(text)
        fails = oracles.check_certificate(cert) + _law(cert, laws)
        if fails:
            problems.append(f"{variant}: the unperturbed certificate fails: {fails}")

    for variant, what, path, value_fn, checker in PERTURBATIONS:
        text, laws = certs[variant]
        cert = oracles.parse_certificate(text)
        _perturb(cert, path, value_fn)
        if not checker(cert, laws):
            problems.append(f"{variant}: the checker accepts '{what}'")

    text, laws = certs["thm1"]
    cert = oracles.parse_certificate(text)
    law = laws[(0, 1)]
    n = cert["schedule"]["n"][1]
    lopsided = law.probs.copy()
    lopsided[[n - 1, n + 1]] += [1e-9, -1e-9]
    spread = law.probs.copy()
    spread[[0, -1]] += 1e-9
    spread[n] -= 2e-9
    for what, probs in (("asymmetric law", lopsided), ("law with mass moved outward", spread),
                        ("law missing mass", law.probs * (1 - 1e-9))):
        if not oracles.check_lattice_law(cert, 1, law.offset, probs):
            problems.append(f"thm1: check_lattice_law accepts the {what}")

    path = run.OUT / "selftest" / "thm1" / "report.ndjson"
    if not run.check_pass([(True, str(path), None)], {0: text.encode() + b" "}, {})[0]:
        problems.append("check_pass accepts report bytes that differ between passes")
    if not run.check_pass([(False, str(path), None)], {}, {})[0]:
        problems.append("check_pass accepts a certificate whose probes failed")


def metric_names_match(problems: list[str]) -> None:
    spec_path = run.ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return
    spec = json.loads(spec_path.read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")


def main() -> int:
    problems: list[str] = []
    oracle_agreement(problems)
    checker_rejections(tiny_certificates(), problems)
    metric_names_match(problems)
    for p in problems:
        print(f"SELFTEST FAIL: {p}", file=sys.stderr)
    print(f"oracle self-test: {len(PERTURBATIONS) + 5} perturbations, "
          f"{'all rejected' if not problems else f'{len(problems)} problems'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
