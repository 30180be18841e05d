"""Command-line entry point.

Subcommands:
  schedule  derive and print the per-index parameters for a variant
  build     construct the model and print its structural summary
  probe     run the certificate's probes and print the one record of a name
  report    run the full probe suite and write report.txt and report.ndjson
  verify    rerun a report.ndjson certificate from its header and compare

probe is a filter over run_experiment, the one probe plan: it costs what
report costs, reads --seed and --mc-reps as report does, and exits 2 when
the certificate holds no record of that name (mixing off thm3) or index
(llt and clt at an even k of thm2).  Any record name is a probe name, and
llt also names thm2's llt-ratio.

Exit codes: 0 on success with all inequalities holding, 1 when a probe or
certificate check fails, 2 on configuration or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .construction import VARIANT_CONSTANTS, build_counterexample
from .errors import BoundMismatch, ConfigError, ParseError, SlowCltError
from .reporting import (
    SCHEMA_VERSION,
    _VARIANTS,
    ExperimentConfig,
    _json_default,
    _probe_record,
    _schema,
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
    variants = _VARIANTS if baseline else tuple(VARIANT_CONSTANTS)
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
    """The config of the flags: each flag named as a config field sets it."""
    types, _ = _schema(ExperimentConfig)
    return ExperimentConfig.from_dict({
        **{name: v for name, v in vars(args).items() if name in types},
        "schema_version": SCHEMA_VERSION,
        "rate": {"family": "power-law", "c": args.rate_c, "beta": args.rate_beta},
    })


def _print_record(record: dict) -> None:
    print(json.dumps(record, indent=2, sort_keys=True, default=_json_default))


def _cmd_schedule(args) -> int:
    _print_record(_schedule_record(schedule_of(_config_from_args(args))))
    return EXIT_OK


def _cmd_build(args) -> int:
    model = build_counterexample(schedule_of(_config_from_args(args)))
    _print_record({"record": "model", **model_summary(model), "variant": model.variant,
                   "aperiodic": model.system.is_aperiodic()})
    return EXIT_OK


def _cmd_probe(args) -> int:
    config = _config_from_args(args)
    k = args.k
    if not 0 <= k < config.K:
        raise ConfigError(f"--k must be in [0, {config.K}), got {k}")
    names = ("llt", "llt-ratio") if args.name == "llt" else (args.name,)
    named = [r for r in run_experiment(config).results if r.name in names]
    per_k = args.name in ("llt", "llt-ratio", "clt")  # every other name has one record
    res = next((r for r in named if not per_k or r.index == k), None)
    if res is None:  # mixing off thm3, llt or clt at an even k of thm2, or no such name
        why = ("schedules no eps_k to check mixing against" if args.name == "mixing"
               else f"certifies llt and clt at odd k only, got --k {k}" if named
               else f"certificate holds no {args.name!r} record")
        raise ConfigError(f"{config.variant} {why}")
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

    p = sub.add_parser("probe", help="print one probe record of the certificate")
    _add_config_args(p, seeded=True)
    p.add_argument("name", help="a probe record's name (llt also names llt-ratio)")
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
