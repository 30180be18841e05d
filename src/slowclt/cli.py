"""Command-line entry point.

Subcommands:
  schedule  derive and print the per-index parameters for a variant
  build     construct the model and print its structural summary
  probe     run a single named probe
  report    run the full probe suite and write report.{txt,ndjson} + curves.csv
  verify    rerun a report.ndjson certificate from its header and compare

Exit codes: 0 on success with all inequalities holding, 1 when a probe or
certificate check fails, 2 on configuration or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .construction import build_counterexample, tower_chain_system
from .errors import BoundMismatch, ConfigError, ParseError, SlowCltError
from . import probes as pr
from .reporting import (
    SCHEMA_VERSION,
    ExperimentConfig,
    _fmt,
    _probe_record,
    _schedule_record,
    model_summary,
    run_experiment,
    schedule_of,
    verify_certificate,
    write_report,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _add_config_args(p: argparse.ArgumentParser, seeded: bool = False,
                     baseline: bool = False) -> None:
    """The flags a config is read from: --seed and --mc-reps when seeded, and
    the iid-baseline variant, with thm1 as the default, when baseline."""
    variants = ("thm1", "thm2", "thm3") + (("iid-baseline",) if baseline else ())
    p.add_argument("--variant", required=not baseline, default="thm1", choices=variants)
    p.add_argument("--rate-c", type=float, default=0.5, help="rate a_n = c * n^-beta")
    p.add_argument("--rate-beta", type=float, default=0.5)
    p.add_argument("--K", type=int, default=3, help="number of scheduled indices")
    p.add_argument("--constants", type=json.loads, default={},
                   help="JSON object of variant constants (L1, L2, L, eps0, ...)")
    if seeded:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--mc-reps", type=int, default=0)


def _config_from_args(args) -> ExperimentConfig:
    return ExperimentConfig.from_dict({
        "schema_version": SCHEMA_VERSION,
        "variant": args.variant,
        "rate": {"family": "power-law", "c": args.rate_c, "beta": args.rate_beta},
        "K": args.K,
        "seed": getattr(args, "seed", 0),
        "mc_reps": getattr(args, "mc_reps", 0),
        "constants": args.constants,
    })


def _print_record(record: dict) -> None:
    print(json.dumps(record, indent=2, sort_keys=True))


def _cmd_schedule(args) -> int:
    _print_record(_schedule_record(schedule_of(_config_from_args(args))))
    return EXIT_OK


def _cmd_build(args) -> int:
    model = build_counterexample(schedule_of(_config_from_args(args)))
    _print_record(_fmt({"record": "model", **model_summary(model), "variant": model.variant,
                        "aperiodic": model.system.is_aperiodic()}))
    return EXIT_OK


def _cmd_probe(args) -> int:
    config = _config_from_args(args)
    sched = schedule_of(config)
    k = args.k
    if not 0 <= k < sched.K:
        raise ConfigError(f"--k must be in [0, {sched.K}), got {k}")
    model = build_counterexample(sched)
    if args.name == "llt":
        if args.variant == "thm2":
            res = pr.llt_probe_density(model, sched, k, mc_reps=config.mc_reps,
                                       seed=config.seed)
        else:
            res = pr.llt_probe_lattice(model, sched, k)
    elif args.name == "clt":
        res = pr.clt_probe(model, sched, k)
    elif args.name == "mds":
        res = pr.mds_conditional_mean_test(model, window=3, reps=config.mc_reps,
                                           seed=config.seed)
    elif args.name == "mixing":
        res = pr.mixing_probe(tower_chain_system(sched), sched)
    else:
        res = pr.variance_probe(model)
    _print_record(_probe_record(res))
    return EXIT_OK if res.passed else EXIT_FAIL


def _cmd_report(args) -> int:
    config = ExperimentConfig.from_file(args.config) if args.config else _config_from_args(args)
    bundle = run_experiment(config)
    paths = write_report(bundle, args.out or config.output_dir)
    with open(paths["txt"]) as fh:
        sys.stdout.write(fh.read())
    return EXIT_OK if bundle.all_passed else EXIT_FAIL


def _cmd_verify(args) -> int:
    checks = verify_certificate(args.certificate)
    for line in checks:
        print("ok:", line)
    print(f"certificate verified: {len(checks)} checks")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slowclt",
        description="Stationary martingale-difference counterexamples to the "
                    "local limit theorem, with exact verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="derive per-index parameters")
    _add_config_args(p)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("build", help="build the model and print its summary")
    _add_config_args(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("probe", help="run a single named probe")
    _add_config_args(p, seeded=True)
    p.add_argument("name", choices=("llt", "clt", "mds", "mixing", "variance"))
    p.add_argument("--k", type=int, default=0)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("report", help="run the full suite and write reports")
    p.add_argument("--config", help="JSON config file (overrides other options)")
    _add_config_args(p, seeded=True, baseline=True)
    p.add_argument("--out", help="output directory (default: the config's output_dir, else .)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("verify", help="rerun a certificate from its header and compare")
    p.add_argument("certificate", help="path to report.ndjson")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SlowCltError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a certificate that does not parse or check fails; any other error is usage
        return EXIT_FAIL if isinstance(exc, (BoundMismatch, ParseError)) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
