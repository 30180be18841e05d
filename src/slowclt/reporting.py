"""Experiment configuration, report generation, and certificate verification.

A run turns a JSON config into two artifacts in the output directory:
report.txt (human summary) and report.ndjson (one record per probe, floats
at full precision).  The ndjson stream doubles as a certificate: every
record is a deterministic function of the header, so verify_certificate
reruns the experiment the header describes and compares each record's line
with the rerun's text, field by field (floats within 1e-12 relative) only
where the text differs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
import time
from dataclasses import MISSING, dataclass, field
from typing import Optional, get_type_hints

import numpy as np

from .construction import (
    VARIANT_CONSTANTS,
    ProcessModel,
    RateSequence,
    Schedule,
    build_counterexample,
    derive_schedule,
)
from .distributions import LatticeDistribution, lattice_sum_distributions
from .errors import BoundMismatch, ConfigError, ParseError, SlowCltError
from . import probes as pr

SCHEMA_VERSION = 1

_VARIANTS = (*VARIANT_CONSTANTS, "iid-baseline")


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
        """The config of raw: schema_version and cls's fields, typed as declared."""
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        types, required = _schema(cls)
        unknown = set(raw) - set(types)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        missing = [f for f in required if f not in raw]
        if missing:
            raise ConfigError(f"missing config fields: {missing}")
        if raw["schema_version"] != SCHEMA_VERSION:
            raise ConfigError(f"schema_version {raw['schema_version']!r} not supported "
                              f"(expected {SCHEMA_VERSION})")
        for name, typ in types.items():
            if name in raw and (not isinstance(raw[name], typ) or isinstance(raw[name], bool)):
                raise ConfigError(f"config field {name!r} must be {typ.__name__}")
        if raw["variant"] not in _VARIANTS:
            raise ConfigError(f"variant must be one of {_VARIANTS}")
        if raw["variant"] == "iid-baseline" and raw.get("constants"):
            raise ConfigError("iid-baseline reads no constants")
        for name, least in (("K", 1), ("seed", 0), ("mc_reps", 0)):
            if raw.get(name, least) < least:
                raise ConfigError(f"{name} must be >= {least}")
        try:
            RateSequence.from_descriptor(raw["rate"])
        except ValueError as exc:
            raise ConfigError(f"config field 'rate': {exc}") from exc
        return cls(**{k: v for k, v in raw.items() if k != "schema_version"})

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


_SCHEMAS: dict[type, tuple[dict, tuple]] = {}


def _schema(cls) -> tuple[dict, tuple]:
    """({name: type}, required names) of a config of cls, made once per class."""
    if cls not in _SCHEMAS:
        hints, fields = get_type_hints(cls), dataclasses.fields(cls)
        _SCHEMAS[cls] = ({"schema_version": int, **{f.name: hints[f.name] for f in fields}},
                         ("schema_version", *(f.name for f in fields if f.default is MISSING
                                              and f.default_factory is MISSING)))
    return _SCHEMAS[cls]


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
    """The certificate's probe results, in the order report.ndjson records them.

    thm1: llt and clt at each k, then variance, mds (window 3) and
    variance-floor.  thm3: the same, with mixing between mds and
    variance-floor.  thm2: llt-ratio and clt at each odd k, then
    density-bound, variance and mds.  iid-baseline: baseline-span-decay,
    baseline-span-small and baseline-bad-span.  `slowclt probe` prints one
    of these records, so this is the one place a probe is run.
    """
    t0 = time.monotonic()
    if config.variant == "iid-baseline":
        results = _run_baseline(config)
        return ReportBundle(config, None, results, time.monotonic() - t0)
    sched = schedule_of(config)
    model = build_counterexample(sched)
    results: list[pr.ProbeResult] = []
    if config.variant in ("thm1", "thm3"):
        for k, dist in enumerate(lattice_sum_distributions(model, sched.n)):
            results += [pr.llt_probe_lattice(model, sched, k, dist=dist),
                        pr.clt_probe(model, sched, k, dist=dist)]
        results.append(pr.variance_probe(model))
        results.append(pr.mds_conditional_mean_test(model, window=3))
        if config.variant == "thm3":
            results.append(pr.mixing_probe(model.system, sched))
        results.append(pr.conditional_variance_floor(model))
    else:  # thm2
        for k in range(1, sched.K, 2):
            ratio = pr.llt_probe_density(model, sched, k, mc_reps=config.mc_reps, seed=config.seed)
            results += [ratio, pr.clt_probe(model, sched, k, ratio=ratio)]
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
        details={"sup_deviation": dict(zip(("100", "200", "400"), values))},
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


def _json_default(x) -> object:
    """A numpy scalar's Python value, and any other non-JSON object's str."""
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    return str(x)


# a record's line of report.ndjson; floats as their repr, which round-trips
_encode = json.JSONEncoder(sort_keys=True, default=_json_default).encode


def _fields(obj) -> dict:
    """A dataclass's fields by name, not copied."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _probe_record(r: pr.ProbeResult) -> dict:
    return {"record": "probe", **_fields(r), "passed": r.passed}


def _schedule_record(sched: Schedule) -> dict:
    return {"record": "schedule", **_fields(sched)}


def _records(bundle: ReportBundle) -> list[dict]:
    """The certificate's records: header, schedule and model (when built), probes."""
    from . import __version__

    config = {k: v for k, v in _fields(bundle.config).items() if k != "output_dir"}
    records = [{"record": "header", "schema_version": SCHEMA_VERSION, "version": __version__,
                **config}]
    if bundle.schedule is not None:
        records.append(_schedule_record(bundle.schedule))
    if bundle.model_summary:
        records.append({"record": "model", **bundle.model_summary})
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
    """Write report.txt and report.ndjson; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {ext: os.path.join(out_dir, f"report.{ext}") for ext in ("txt", "ndjson")}
    lines = [_encode(rec) for rec in _records(bundle)]
    _atomic_write(paths["ndjson"], "\n".join(lines) + "\n")
    _atomic_write(paths["txt"], _text_report(bundle))
    return paths


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
        for name in ("p", "d", "rho", "eps"):
            if getattr(s, name):  # eps is empty off thm3
                out.append(f"  {name:<3} = {['%.6g' % v for v in getattr(s, name)]}")
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
    """Rerun the experiment the header describes and compare every line with it.

    Returns one line per record compared.  Raises ParseError for input that
    does not parse: an unreadable file, a header that does not describe a
    run, or a line unlike the rerun's text that is not JSON or lacks a
    field.  Raises BoundMismatch when the line count differs from the
    rerun's, when such a line differs in a field (integers, strings,
    booleans and None exactly, floats within 1e-12 relative), or when a
    probe of the rerun fails.  Only the header and those lines are parsed.
    """
    try:
        with open(ndjson_path) as fh:
            lines = [line.rstrip("\n") for line in fh if line.strip()]
    except OSError as exc:
        raise ParseError(f"cannot parse certificate: {exc}") from exc
    header = _load(lines[0]) if lines else None
    if not isinstance(header, dict) or header.get("record") != "header":
        raise ParseError("first record must be the header")
    try:
        config = ExperimentConfig.from_dict(
            {k: v for k, v in header.items() if k not in ("record", "version")})
    except ConfigError as exc:
        raise ParseError(f"malformed certificate header: {exc}") from exc
    try:
        bundle = run_experiment(config)
    except (SlowCltError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"the header does not describe a run: {exc!r}") from exc
    want = _records(bundle)
    if len(lines) != len(want):
        raise BoundMismatch(f"{len(lines)} records, the rerun gives {len(want)}")
    checks: list[str] = []
    for line, rec in zip(lines, want):
        kind = rec["record"]
        where = f"{rec['name']}[{rec['index']}]" if kind == "probe" else kind
        text = _encode(rec)
        if line != text:
            _compare(header if kind == "header" else _load(line), json.loads(text), where)
        if kind == "probe":
            checks.append(f"{where}: every field re-derived")
        elif kind != "header":
            checks.append(f"{kind} record: every field rebuilt from the header")
    failed = [f"{r.name}[{r.index}]" for r in bundle.results if not r.passed]
    if failed:
        raise BoundMismatch(f"probes that fail on the rerun: {', '.join(failed)}")
    return checks


def _load(line: str):
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"cannot parse certificate: {exc}") from exc


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
