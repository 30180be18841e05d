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

from .construction import RateSequence, build_counterexample, derive_schedule
from .errors import BoundMismatch, ConfigError, ParseError, SlowCltError
from . import probes as pr
from .reporting import (
    ExperimentConfig,
    ReportBundle,
    run_experiment,
    verify_certificate,
    write_report,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", required=True, choices=("thm1", "thm2", "thm3"))
    p.add_argument("--rate-c", type=float, default=0.5, help="rate a_n = c * n^-beta")
    p.add_argument("--rate-beta", type=float, default=0.5)
    p.add_argument("--K", type=int, default=3, help="number of scheduled indices")
    p.add_argument("--constants", type=json.loads, default={},
                   help="JSON object of variant constants (L1, L2, L, eps0, ...)")


def _schedule_from_args(args):
    if not isinstance(args.constants, dict):
        raise ConfigError(f"--constants must be a JSON object, got {args.constants!r}")
    rate = RateSequence.power_law(args.rate_c, args.rate_beta)
    return derive_schedule(args.variant, rate, args.K, **args.constants)


def _cmd_schedule(args) -> int:
    sched = _schedule_from_args(args)
    out = {
        "variant": sched.variant,
        "n": list(sched.n),
        "H": list(sched.H),
        "d": list(sched.d),
        "p": list(sched.p),
        "rho": list(sched.rho),
        "eps": list(sched.eps),
        "remainder_mass": sched.remainder_mass,
        "remainder_height": sched.remainder_height,
        "constants": sched.constants,
    }
    json.dump(out, sys.stdout, indent=2, default=float)
    print()
    return EXIT_OK


def _cmd_build(args) -> int:
    sched = _schedule_from_args(args)
    model = build_counterexample(sched)
    sys_ = model.system
    out = {
        "variant": model.variant,
        "towers": len(sys_.towers),
        "states": sys_.n_states,
        "heights": [int(h) for h in sys_.heights],
        "aperiodic": sys_.is_aperiodic(),
        "sigma2": model.sigma2,
        "mu_inactive": model.mu_inactive,
        "noise": model.noise.kind,
    }
    json.dump(out, sys.stdout, indent=2)
    print()
    return EXIT_OK


def _cmd_probe(args) -> int:
    sched = _schedule_from_args(args)
    k = args.k
    if not 0 <= k < sched.K:
        raise ConfigError(f"--k must be in [0, {sched.K}), got {k}")
    model = build_counterexample(sched)
    if args.name == "llt":
        if args.variant == "thm2":
            res = pr.llt_probe_density(model, sched, k, mc_reps=args.mc_reps,
                                       seed=args.seed)
        else:
            res = pr.llt_probe_lattice(model, sched, k)
    elif args.name == "clt":
        res = pr.clt_probe(model, sched, k)
    elif args.name == "mds":
        res = pr.mds_conditional_mean_test(model, window=3, reps=args.mc_reps,
                                           seed=args.seed)
    elif args.name == "mixing":
        from .construction import tower_chain_system

        res = pr.mixing_probe(tower_chain_system(sched), sched)
    elif args.name == "variance":
        res = pr.variance_probe(model)
    else:
        raise SlowCltError(f"unknown probe {args.name!r}")
    json.dump({
        "name": res.name, "index": res.index, "value": res.value,
        "bound": res.bound, "direction": res.direction, "method": res.method,
        "error": res.error, "passed": res.passed, "details": res.details,
    }, sys.stdout, indent=2, default=float)
    print()
    return EXIT_OK if res.passed else EXIT_FAIL


def _cmd_report(args) -> int:
    if args.config:
        config = ExperimentConfig.from_file(args.config)
    else:
        config = ExperimentConfig.from_dict({
            "schema_version": 1,
            "variant": args.variant,
            "rate": {"family": "power-law", "c": args.rate_c, "beta": args.rate_beta},
            "K": args.K,
            "seed": args.seed,
            "mc_reps": args.mc_reps,
            "constants": args.constants,
        })
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
    _add_model_args(p)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("build", help="build the model and print its summary")
    _add_model_args(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("probe", help="run a single named probe")
    _add_model_args(p)
    p.add_argument("name", choices=("llt", "clt", "mds", "mixing", "variance"))
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mc-reps", type=int, default=0)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("report", help="run the full suite and write reports")
    p.add_argument("--config", help="JSON config file (overrides other options)")
    p.add_argument("--variant", choices=("thm1", "thm2", "thm3", "iid-baseline"),
                   default="thm1")
    p.add_argument("--rate-c", type=float, default=0.5)
    p.add_argument("--rate-beta", type=float, default=0.5)
    p.add_argument("--K", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mc-reps", type=int, default=0)
    p.add_argument("--constants", type=json.loads, default={})
    p.add_argument("--out", help="output directory (default: the config's output_dir, else .)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("verify", help="rerun a certificate from its header and compare")
    p.add_argument("certificate", help="path to report.ndjson")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BoundMismatch, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (SlowCltError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
