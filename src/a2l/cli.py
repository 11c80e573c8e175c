"""Command-line entry point.

Subcommands: gen, run-gradient, run-bandit, run-fisher, fit-rate, verify.
Run config is JSON (see harness.ExperimentConfig); --seeds and --out
override the config file.  Log level comes from A2L_LOG_LEVEL.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import harness, verify
from .games import generate_game, save_game


def _add_run_flags(p):
    p.add_argument("--config", required=True, help="path to a JSON run config")
    p.add_argument("--out", help="output directory (overrides config out_dir)")
    p.add_argument("--seeds", help="comma-separated seed list (overrides config)")
    p.add_argument("--workers", type=int, help="parallel seed workers (overrides config)")


def build_parser():
    p = argparse.ArgumentParser(prog="a2l", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a built-in game as JSON")
    g.add_argument("--kind", required=True,
                   help="matching_pennies, rps, random_zs or random_general")
    g.add_argument("--players", type=int, default=2)
    g.add_argument("--actions", type=int, default=2)
    g.add_argument("--graph", default="complete", help="complete, cycle or gnp")
    g.add_argument("--p", type=float, default=0.5, help="gnp edge probability")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    for mode in ("gradient", "bandit", "fisher"):
        r = sub.add_parser(f"run-{mode}", help=f"run a {mode}-mode config")
        _add_run_flags(r)

    f = sub.add_parser("fit-rate", help="fit a log-log decay slope on a trajectory CSV")
    f.add_argument("--csv", required=True)
    f.add_argument("--column", default="tgap_last")
    f.add_argument("--t-min", type=float)
    f.add_argument("--t-max", type=float)

    v = sub.add_parser("verify", help="run a named acceptance suite")
    v.add_argument("suite", help="suite name, or 'all'")
    v.add_argument("--out", help="write the machine-readable report here as JSON")
    return p


def _run_mode(mode, args) -> int:
    overrides = {"mode": mode}
    if args.out:
        overrides["out_dir"] = args.out
    if args.seeds:
        overrides["seeds"] = [int(s) for s in args.seeds.split(",")]
    if args.workers:
        overrides["workers"] = args.workers
    with open(args.config) as fh:
        data = json.load(fh)
    data.update(overrides)
    cfg = harness.load_config(data)
    summary = harness.run(cfg)
    print(json.dumps({k: summary[k] for k in ("mode", "config_hash", "passed")}, indent=2))
    return 0 if summary["passed"] else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "gen":
        game = generate_game(args.kind, n=args.players, d=args.actions,
                             graph=args.graph, seed=args.seed, p=args.p)
        save_game(game, args.out)
        print(f"wrote {game!r} to {args.out}")
        return 0

    if args.command in ("run-gradient", "run-bandit", "run-fisher"):
        try:
            return _run_mode(args.command.removeprefix("run-"), args)
        except harness.ConfigError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    if args.command == "fit-rate":
        with open(args.csv) as fh:
            rows = list(csv.DictReader(fh))
        ts = [float(r["t"]) for r in rows]
        vals = [float(r[args.column]) for r in rows]
        try:
            fit = harness.fit_rate(ts, vals, t_min=args.t_min, t_max=args.t_max)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(json.dumps(fit, indent=2))
        return 0

    if args.command == "verify":
        try:
            result = verify.run_suite(args.suite)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        print(result.report())
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(result.to_dict(), fh, indent=2)
        return 0 if result.passed else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
