"""Experiment configuration, report generation, and certificate verification.

A run turns a JSON config into three artifacts in the output directory:
report.txt (human summary), report.ndjson (one record per probe, floats at
full precision), and curves.csv (per-index values for plotting).  The
ndjson stream doubles as a certificate: verify_certificate recomputes every
bound from the recorded schedule and checks each probe line against it
without rerunning any simulation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .construction import (
    ProcessModel,
    RateSequence,
    Schedule,
    build_counterexample,
    derive_schedule,
)
from .distributions import (
    LatticeDistribution,
    lattice_sum_distribution,
    root_n_interval_probability,
)
from .errors import BoundMismatch, ConfigError, ParseError
from . import probes as pr

SCHEMA_VERSION = 1

_CONFIG_FIELDS = {
    "schema_version": int,
    "variant": str,
    "rate": dict,
    "K": int,
    "seed": int,
    "mc_reps": int,
    "constants": dict,
    "output_dir": str,
}
_REQUIRED = ("schema_version", "variant", "rate", "K")
_VARIANTS = ("thm1", "thm2", "thm3", "iid-baseline")


@dataclass(frozen=True)
class ExperimentConfig:
    variant: str
    rate: dict
    K: int
    seed: int = 0
    mc_reps: int = 0
    constants: dict = field(default_factory=dict)
    output_dir: str = "."

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - set(_CONFIG_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        missing = [f for f in _REQUIRED if f not in raw]
        if missing:
            raise ConfigError(f"missing config fields: {missing}")
        if raw["schema_version"] != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version {raw['schema_version']!r} not supported "
                f"(expected {SCHEMA_VERSION})"
            )
        for name, typ in _CONFIG_FIELDS.items():
            if name in raw and not isinstance(raw[name], typ):
                raise ConfigError(f"config field {name!r} must be {typ.__name__}")
        if raw["variant"] not in _VARIANTS:
            raise ConfigError(f"variant must be one of {_VARIANTS}")
        if raw["K"] < 1:
            raise ConfigError("K must be >= 1")
        kwargs = {k: v for k, v in raw.items() if k != "schema_version"}
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)


@dataclass
class ReportBundle:
    config: ExperimentConfig
    schedule: Optional[Schedule]
    results: list[pr.ProbeResult]
    elapsed: float
    model_summary: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def expected_probe_count(variant: str, K: int) -> int:
    """Number of probe records a full run of the given variant emits."""
    if variant == "thm1":
        return 2 * K + 2
    if variant == "thm3":
        return 2 * K + 3
    if variant == "thm2":
        return 2 * sum(1 for k in range(K) if k % 2 == 1) + 3
    if variant == "iid-baseline":
        return 3
    raise ConfigError(f"unknown variant {variant!r}")


def run_experiment(config: ExperimentConfig) -> ReportBundle:
    t0 = time.monotonic()
    if config.variant == "iid-baseline":
        results = _run_baseline(config)
        return ReportBundle(config, None, results, time.monotonic() - t0)
    rate = RateSequence.from_descriptor(config.rate)
    sched = derive_schedule(config.variant, rate, config.K, **config.constants)
    model = build_counterexample(sched)
    results: list[pr.ProbeResult] = []
    if config.variant in ("thm1", "thm3"):
        for k in range(sched.K):
            dist = lattice_sum_distribution(model, sched.n[k])
            results.append(pr.llt_probe_lattice(model, sched, k, dist=dist))
            results.append(pr.clt_probe(model, sched, k, dist=dist))
        results.append(pr.variance_probe(model))
        if config.variant == "thm1":
            results.append(
                pr.mds_conditional_mean_test(model, window=3,
                                             reps=config.mc_reps or 200_000,
                                             seed=config.seed)
            )
        else:
            from .construction import tower_chain_system

            results.append(pr.mixing_probe(tower_chain_system(sched), sched))
            results.append(pr.conditional_variance_floor(model, depth=1))
    else:  # thm2
        for k in range(sched.K):
            if k % 2 == 0:
                continue
            ratio = pr.llt_probe_density(
                model, sched, k, mc_reps=config.mc_reps, seed=config.seed
            )
            results.append(ratio)
            results.append(pr.clt_probe(model, sched, k, ratio=ratio))
        results.append(pr.density_bound_probe(model))
        results.append(pr.variance_probe(model))
        results.append(
            pr.mds_conditional_mean_test(model, window=3,
                                         reps=config.mc_reps or 200_000,
                                         seed=config.seed)
        )
    expected = expected_probe_count(config.variant, sched.K)
    assert len(results) == expected, (len(results), expected)
    summary = {
        "towers": len(model.system.towers),
        "states": model.system.n_states,
        "heights": [int(h) for h in model.system.heights],
        "masses": [model.system.towers[i].mass for i in range(len(model.system.towers))],
        "mu_inactive": model.mu_inactive,
        "sigma2": model.sigma2,
        "noise": model.noise.kind,
    }
    return ReportBundle(config, sched, results, time.monotonic() - t0, summary)


def _run_baseline(config: ExperimentConfig) -> list[pr.ProbeResult]:
    """Three sanity probes on the i.i.d. +-1 coin contrast."""
    coin = LatticeDistribution(-1, np.array([0.5, 0.0, 0.5]))
    results = []
    values = []
    for n in (100, 200, 400):
        values.append(pr.gnedenko_baseline(coin, b=-1.0, h=2.0, n=n))
    # maximal span: the normalized point probabilities converge, so the sup
    # deviation decreases along the doubling sequence
    results.append(pr.ProbeResult(
        name="baseline-span-decay", index=400, value=values[2], bound=values[0],
        direction="<=", method="exact",
        details={"sup_deviation": dict(zip((100, 200, 400), values))},
    ))
    results.append(pr.ProbeResult(
        name="baseline-span-small", index=400, value=values[2], bound=0.05,
        direction="<=", method="exact",
    ))
    # non-maximal span h = 1: half the lattice points carry no mass, so the
    # deviation stalls near the normal density at 0
    bad = pr.gnedenko_baseline(coin, b=-1.0, h=1.0, n=400)
    results.append(pr.ProbeResult(
        name="baseline-bad-span", index=400, value=bad, bound=0.1,
        direction=">=", method="exact",
    ))
    return results


# -- serialization -----------------------------------------------------------


def _fmt(x) -> object:
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, float):
        return float("%.17g" % x)
    if isinstance(x, (np.floating,)):
        return float("%.17g" % float(x))
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (list, tuple)):
        return [_fmt(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _fmt(v) for k, v in x.items()}
    if isinstance(x, (int, str)) or x is None:
        return x
    return str(x)


def _probe_record(r: pr.ProbeResult) -> dict:
    return _fmt({
        "record": "probe",
        "name": r.name,
        "index": r.index,
        "value": r.value,
        "bound": r.bound,
        "direction": r.direction,
        "method": r.method,
        "error": r.error,
        "passed": r.passed,
        "details": r.details,
    })


def _schedule_record(sched: Schedule) -> dict:
    d = dataclasses.asdict(sched)
    d["record"] = "schedule"
    return _fmt(d)


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(bundle: ReportBundle, out_dir: str) -> dict[str, str]:
    """Write report.txt / report.ndjson / curves.csv; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "txt": os.path.join(out_dir, "report.txt"),
        "ndjson": os.path.join(out_dir, "report.ndjson"),
        "csv": os.path.join(out_dir, "curves.csv"),
    }
    from . import __version__

    lines = [json.dumps(_fmt({
        "record": "header",
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "variant": bundle.config.variant,
        "K": bundle.config.K,
        "rate": bundle.config.rate,
        "seed": bundle.config.seed,
        "mc_reps": bundle.config.mc_reps,
        "constants": bundle.config.constants,
    }), sort_keys=True)]
    if bundle.schedule is not None:
        lines.append(json.dumps(_schedule_record(bundle.schedule), sort_keys=True))
    if bundle.model_summary:
        lines.append(json.dumps(_fmt(
            {"record": "model", **bundle.model_summary}), sort_keys=True))
    for r in bundle.results:
        lines.append(json.dumps(_probe_record(r), sort_keys=True))
    _atomic_write(paths["ndjson"], "\n".join(lines) + "\n")

    _atomic_write(paths["csv"], _curves_csv(bundle))
    _atomic_write(paths["txt"], _text_report(bundle))
    return paths


def _curves_csv(bundle: ReportBundle) -> str:
    rows = ["variant,k,n,llt_value,llt_bound,clt_value,clt_bound,method"]
    if bundle.schedule is None:
        return rows[0] + "\n"
    by_idx: dict[int, dict[str, pr.ProbeResult]] = {}
    for r in bundle.results:
        if r.name in ("llt", "llt-ratio", "clt"):
            by_idx.setdefault(r.index, {})[r.name] = r
    for k in sorted(by_idx):
        d = by_idx[k]
        llt = d.get("llt") or d.get("llt-ratio")
        clt = d.get("clt")
        rows.append(",".join([
            bundle.config.variant,
            str(k),
            str(bundle.schedule.n[k]),
            "%.17g" % llt.value if llt else "",
            "%.17g" % llt.bound if llt else "",
            "%.17g" % clt.value if clt else "",
            "%.17g" % clt.bound if clt else "",
            (llt or clt).method,
        ]))
    return "\n".join(rows) + "\n"


def _text_report(bundle: ReportBundle) -> str:
    out = [
        f"variant: {bundle.config.variant}",
        f"rate: {bundle.config.rate}",
        f"K: {bundle.config.K}",
        f"elapsed: {bundle.elapsed:.3f} s",
        "",
    ]
    if bundle.schedule is not None:
        s = bundle.schedule
        out.append("schedule:")
        out.append(f"  n   = {list(s.n)}")
        out.append(f"  H   = {list(s.H)}")
        out.append(f"  p   = {['%.6g' % v for v in s.p]}")
        out.append(f"  d   = {['%.6g' % v for v in s.d]}")
        out.append(f"  rho = {['%.6g' % v for v in s.rho]}")
        if s.eps:
            out.append(f"  eps = {['%.6g' % v for v in s.eps]}")
        out.append("")
    out.append("probes:")
    for r in bundle.results:
        tag = "PASS" if r.passed else "FAIL"
        idx = f"[k={r.index}]" if r.index >= 0 else ""
        out.append(
            f"  {tag}  {r.name}{idx}: value={r.value:.10g} {r.direction} "
            f"bound={r.bound:.10g} (method={r.method}, error={r.error:.3g})"
        )
    out.append("")
    out.append("overall: " + ("PASS" if bundle.all_passed else "FAIL"))
    return "\n".join(out) + "\n"


# -- certificate verification ------------------------------------------------


def verify_certificate(ndjson_path: str) -> list[str]:
    """Recompute every bound from the recorded schedule and recheck the probes.

    Returns a list of human-readable check descriptions on success; raises
    ParseError for malformed input and BoundMismatch when any recorded
    value, bound, or pass flag disagrees with the recomputation.  No
    lattice law or simulation is redone: the checks are the inexpensive
    bound arithmetic (rate values, d_k(1 - rho_k), p_k/4, 7 eps_k), the
    directional comparisons, and for thm2 the re-derived llt-ratio and clt
    values, including the rational b_n bracket (a few milliseconds).
    """
    try:
        with open(ndjson_path) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot parse certificate: {exc}") from exc
    if not records or records[0].get("record") != "header":
        raise ParseError("first record must be the header")
    header = records[0]
    variant = header.get("variant")
    if variant not in _VARIANTS:
        raise ParseError(f"unknown variant in header: {variant!r}")
    sched_rec = None
    probes_recs = []
    for rec in records[1:]:
        kind = rec.get("record")
        if kind == "schedule":
            sched_rec = rec
        elif kind == "probe":
            probes_recs.append(rec)
        elif kind == "model":
            pass
        else:
            raise ParseError(f"unknown record type {kind!r}")
    checks: list[str] = []
    if variant != "iid-baseline":
        if sched_rec is None:
            raise ParseError("missing schedule record")
        rate = RateSequence.from_descriptor(header["rate"])
        n = sched_rec["n"]
        expected = expected_probe_count(variant, header["K"])
        if len(probes_recs) != expected:
            raise BoundMismatch(
                f"expected {expected} probe records, found {len(probes_recs)}"
            )
        try:
            for rec in probes_recs:
                _recheck_bound(rec, variant, sched_rec, rate, n, checks)
            if variant == "thm2":
                _recheck_density_values(probes_recs, sched_rec, checks)
        except (KeyError, IndexError, TypeError) as exc:
            raise ParseError(f"malformed certificate record: {exc!r}") from exc
    else:
        if len(probes_recs) != expected_probe_count(variant, header["K"]):
            raise BoundMismatch("wrong baseline probe count")
    for rec in probes_recs:
        _recheck_direction(rec, checks)
    return checks


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _recheck_bound(rec, variant, sched, rate, n, checks):
    name, k = rec["name"], rec["index"]
    if name == "llt":
        want = rate(n[k])
        if not _close(rec["bound"], want):
            raise BoundMismatch(f"llt[k={k}] bound {rec['bound']} != a_n = {want}")
        if variant == "thm1":
            cf = sched["d"][k] * (1.0 - sched["rho"][k])
            rec_cf = rec.get("details", {}).get("closed_form_bound")
            if rec_cf is None or not _close(rec_cf, cf):
                raise BoundMismatch(f"llt[k={k}] closed-form bound mismatch")
            if cf < want:
                raise BoundMismatch(f"llt[k={k}] d_k(1-rho_k) < a_n")
            checks.append(f"llt[k={k}]: d_k(1-rho_k)={cf:.6g} >= a_n={want:.6g}")
        else:
            qm = sched["p"][k] / 4.0
            rec_qm = rec.get("details", {}).get("quarter_mass_bound")
            if rec_qm is None or not _close(rec_qm, qm):
                raise BoundMismatch(f"llt[k={k}] quarter-mass bound mismatch")
            if qm < want:
                raise BoundMismatch(f"llt[k={k}] p_k/4 < a_n")
            checks.append(f"llt[k={k}]: p_k/4={qm:.6g} >= a_n={want:.6g}")
    elif name == "clt":
        want = rate(n[k]) / 2.0 if variant in ("thm1", "thm3") else rate(n[k])
        if not _close(rec["bound"], want):
            raise BoundMismatch(f"clt[k={k}] bound {rec['bound']} != {want}")
        checks.append(f"clt[k={k}]: bound={want:.6g} rechecked")
    elif name == "llt-ratio":
        want = sched["constants"]["L"]
        if not _close(rec["bound"], want):
            raise BoundMismatch(f"llt-ratio[k={k}] bound {rec['bound']} != L={want}")
        checks.append(f"llt-ratio[k={k}]: bound=L={want:.6g} rechecked")
    elif name == "mixing":
        det = rec.get("details", {})
        if "beta_at_m" in det:
            seven = [7.0 * e for e in sched["eps"]]
            rec_seven = det.get("seven_eps", [])
            if len(rec_seven) != len(seven) or any(
                not _close(a, b) for a, b in zip(rec_seven, seven)
            ):
                raise BoundMismatch("mixing probe 7*eps_k values mismatch")
            for i, (b_val, cap) in enumerate(zip(det["beta_at_m"], seven)):
                if b_val > cap:
                    raise BoundMismatch(f"mixing beta(m_{i}) > 7 eps_{i}")
            checks.append(f"mixing: beta(m_k) <= 7 eps_k for k < {len(seven)}")


def _recheck_density_values(probes_recs, sched, checks):
    """Re-derive each thm2 llt-ratio value from b_n, and each clt value from it.

    llt-ratio: tilde_tower_mass = (H_k - n_k + 1) p_k / H_k, (b_n, b_error)
    equal to root_n_interval_probability(n_k), value = tilde_tower_mass
    (b_n - b_error) / rho_k.  clt: ratio_lower = llt-ratio value - error and
    value = (ratio_lower / 2 - phi(0)) rho_k.  An exact label needs
    b_method "exact-rational".
    """
    ratio = {}
    for rec in probes_recs:
        if rec["name"] != "llt-ratio":
            continue
        k, det = rec["index"], rec["details"]
        n, H, p, rho = sched["n"][k], sched["H"][k], sched["p"][k], sched["rho"][k]
        if rec["method"].startswith("exact") and det["b_method"] != "exact-rational":
            raise BoundMismatch(
                f"llt-ratio[k={k}] is labelled {rec['method']} on b_method {det['b_method']!r}")
        g_frac = (H - n + 1) * p / H
        if not _close(det["tilde_tower_mass"], g_frac):
            raise BoundMismatch(f"llt-ratio[k={k}] tilde_tower_mass != (H-n+1)p/H = {g_frac}")
        b = root_n_interval_probability(n)
        if (det["b_n"], det["b_error"]) != (b.value, b.error):
            raise BoundMismatch(
                f"llt-ratio[k={k}] b_n = {det['b_n']} +- {det['b_error']}, "
                f"the rational bracket gives {b.value} +- {b.error}")
        want = g_frac * b.lower / rho
        if not _close(rec["value"], want):
            raise BoundMismatch(f"llt-ratio[k={k}] value {rec['value']} != {want}")
        ratio[k] = rec
        checks.append(f"llt-ratio[k={k}]: b_{n}={b.value:.12g} and value={want:.6g} re-derived")
    for rec in probes_recs:
        if rec["name"] != "clt":
            continue
        k, det = rec["index"], rec["details"]
        if k not in ratio:
            raise BoundMismatch(f"clt[k={k}] has no llt-ratio record to rest on")
        r_lower = ratio[k]["value"] - ratio[k]["error"]
        rho = sched["rho"][k]
        if not (_close(det["ratio_lower"], r_lower) and _close(det["rho_k"], rho)):
            raise BoundMismatch(f"clt[k={k}] ratio_lower or rho_k disagrees with llt-ratio[k={k}]")
        want = (r_lower / 2.0 - pr.PHI0) * rho
        if not _close(rec["value"], want):
            raise BoundMismatch(f"clt[k={k}] value {rec['value']} != (R/2 - phi(0)) rho = {want}")
        checks.append(f"clt[k={k}]: value={want:.6g} re-derived from llt-ratio")


def _recheck_direction(rec, checks):
    value, bound, err = rec["value"], rec["bound"], rec.get("error", 0.0)
    if rec["direction"] == ">=":
        ok = value - bound > err
    elif rec["direction"] == "<=":
        ok = bound - value > err
    else:
        raise ParseError(f"bad direction {rec['direction']!r}")
    if ok != rec["passed"]:
        raise BoundMismatch(
            f"probe {rec['name']}[{rec['index']}] pass flag inconsistent with values"
        )
    if not ok:
        raise BoundMismatch(
            f"probe {rec['name']}[{rec['index']}] records a failed inequality"
        )
    checks.append(f"{rec['name']}[{rec['index']}]: {value:.6g} {rec['direction']} {bound:.6g}")
