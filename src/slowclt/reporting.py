"""Experiment configuration, report generation, and certificate verification.

A run turns a JSON config into three artifacts in the output directory:
report.txt (human summary), report.ndjson (one record per probe, floats at
full precision), and curves.csv (per-index values for plotting).  The
ndjson stream doubles as a certificate: every record is a deterministic
function of the header, so verify_certificate reruns the experiment the
header describes and compares each record with the rerun, field by field.
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
    tower_chain_system,
)
from .distributions import LatticeDistribution, lattice_sum_distributions
from .errors import BoundMismatch, ConfigError, ParseError, SlowCltError
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
            if name in raw and (not isinstance(raw[name], typ) or isinstance(raw[name], bool)):
                raise ConfigError(f"config field {name!r} must be {typ.__name__}")
        if raw["variant"] not in _VARIANTS:
            raise ConfigError(f"variant must be one of {_VARIANTS}")
        for name, least in (("K", 1), ("seed", 0), ("mc_reps", 0)):
            if raw.get(name, least) < least:
                raise ConfigError(f"{name} must be >= {least}")
        try:
            RateSequence.from_descriptor(raw["rate"])
        except ValueError as exc:
            raise ConfigError(f"config field 'rate': {exc}") from exc
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


def run_experiment(config: ExperimentConfig) -> ReportBundle:
    t0 = time.monotonic()
    if config.variant == "iid-baseline":
        results = _run_baseline(config)
        return ReportBundle(config, None, results, time.monotonic() - t0)
    sched = schedule_of(config)
    model = build_counterexample(sched)
    results: list[pr.ProbeResult] = []
    if config.variant in ("thm1", "thm3"):
        for k, dist in enumerate(lattice_sum_distributions(model, sched.n)):
            results.append(pr.llt_probe_lattice(model, sched, k, dist=dist))
            results.append(pr.clt_probe(model, sched, k, dist=dist))
        results.append(pr.variance_probe(model))
        if config.variant == "thm1":
            results.append(pr.mds_conditional_mean_test(model, window=3))
        else:
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
        results.append(pr.mds_conditional_mean_test(model, window=3))
    return ReportBundle(config, sched, results, time.monotonic() - t0, model_summary(model))


def schedule_of(config: ExperimentConfig) -> Schedule:
    """The schedule of a (non-baseline) config's variant, rate, K and constants."""
    rate = RateSequence.from_descriptor(config.rate)
    return derive_schedule(config.variant, rate, config.K, **config.constants)


def model_summary(model: ProcessModel) -> dict:
    """The fields of a certificate's model record."""
    sys_ = model.system
    return {
        "towers": len(sys_.towers),
        "states": sys_.n_states,
        "heights": [int(h) for h in sys_.heights],
        "masses": [t.mass for t in sys_.towers],
        "mu_inactive": model.mu_inactive,
        "sigma2": model.sigma2,
        "noise": model.noise.kind,
    }


def _run_baseline(config: ExperimentConfig) -> list[pr.ProbeResult]:
    """Three sanity probes on the i.i.d. +-1 coin contrast."""
    coin = LatticeDistribution(-1, np.array([0.5, 0.0, 0.5]))
    results = []
    *values, bad = pr.gnedenko_baselines(
        coin, -1.0, [(100, 2.0), (200, 2.0), (400, 2.0), (400, 1.0)])
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
    results.append(pr.ProbeResult(
        name="baseline-bad-span", index=400, value=bad, bound=0.1,
        direction=">=", method="exact",
    ))
    return results


# -- serialization -----------------------------------------------------------


def _fmt(x) -> object:
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (float, np.floating)):
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


def _records(bundle: ReportBundle) -> list[dict]:
    """The certificate's records: header, schedule and model (when built), probes."""
    from . import __version__

    records = [_fmt({
        "record": "header",
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "variant": bundle.config.variant,
        "K": bundle.config.K,
        "rate": bundle.config.rate,
        "seed": bundle.config.seed,
        "mc_reps": bundle.config.mc_reps,
        "constants": bundle.config.constants,
    })]
    if bundle.schedule is not None:
        records.append(_schedule_record(bundle.schedule))
    if bundle.model_summary:
        records.append(_fmt({"record": "model", **bundle.model_summary}))
    return records + [_probe_record(r) for r in bundle.results]


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
    lines = [json.dumps(rec, sort_keys=True) for rec in _records(bundle)]
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
    """Rerun the experiment the header describes and compare every record with it.

    Returns one line per record compared.  Raises ParseError for malformed
    input, including a header that does not describe a run, and
    BoundMismatch when the records differ from the rerun's in kind or
    number, when any field differs from the rerun's (integers, strings,
    booleans and None exactly, floats within 1e-12 relative), or when a
    probe of the rerun fails.  The probes compute every bound from the
    schedule, so the rerun is the one source of the bounds the file must
    carry.
    """
    try:
        with open(ndjson_path) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot parse certificate: {exc}") from exc
    if not records or not isinstance(records[0], dict) or records[0].get("record") != "header":
        raise ParseError("first record must be the header")
    header = records[0]
    try:
        config = ExperimentConfig.from_dict(
            {k: v for k, v in header.items() if k not in ("record", "version")})
    except ConfigError as exc:
        raise ParseError(f"malformed certificate header: {exc}") from exc
    kinds = [rec.get("record") if isinstance(rec, dict) else None for rec in records[1:]]
    for kind in kinds:
        if kind not in ("schedule", "model", "probe"):
            raise ParseError(f"unknown record type {kind!r}")
    try:
        bundle = run_experiment(config)
    except (SlowCltError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"the header does not describe a run: {exc!r}") from exc
    found = kinds.count("probe")
    if found != len(bundle.results):
        raise BoundMismatch(f"expected {len(bundle.results)} probe records, found {found}")
    want = _records(bundle)
    if [rec["record"] for rec in want[1:]] != kinds:
        raise BoundMismatch(f"records {kinds} differ from the rerun's "
                            f"{[rec['record'] for rec in want[1:]]}")
    _compare(header, want[0], "header")
    checks: list[str] = []
    for got, rec in zip(records[1:], want[1:]):
        if rec["record"] == "probe":
            label = f"{rec['name']}[{rec['index']}]"
            _compare(got, rec, label)
            checks.append(f"{label}: every field re-derived")
        else:
            _compare(got, rec, rec["record"])
            checks.append(f"{rec['record']} record: every field rebuilt from the header")
    failed = [f"{r.name}[{r.index}]" for r in bundle.results if not r.passed]
    if failed:
        raise BoundMismatch(f"probes that fail on the rerun: {', '.join(failed)}")
    return checks


def _compare(got, want, where: str) -> None:
    """Raise unless got equals want: same keys and lengths, floats within 1e-12
    relative (inf only equal to inf), every other leaf exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            raise BoundMismatch(f"{where} is {got!r}, the rerun gives an object")
        missing = sorted(set(want) - set(got))
        if missing:
            raise ParseError(f"{where} lacks {missing}")
        extra = sorted(set(got) - set(want))
        if extra:
            raise BoundMismatch(f"{where} has fields {extra} the rerun does not")
        for key, value in want.items():
            _compare(got[key], value, f"{where}.{key}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            raise BoundMismatch(f"{where} is {got!r}, the rerun gives {want!r}")
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        if not (type(got) is float and (got == want or (
                math.isfinite(got) and math.isfinite(want)
                and abs(got - want) <= 1e-12 * max(abs(got), abs(want))))):
            raise BoundMismatch(f"{where} is {got!r}, the rerun gives {want!r}")
    elif type(got) is not type(want) or got != want:
        raise BoundMismatch(f"{where} is {got!r}, the rerun gives {want!r}")
