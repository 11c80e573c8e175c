"""Command-line entry point.

Subcommands: gen, run-gradient, run-bandit, run-fisher, fit-rate, verify.
Run config is JSON (see harness.ExperimentConfig); --seeds and --out
override the config file.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from . import harness, verify
from .games import save_game


def build_parser():
    p = argparse.ArgumentParser(prog="a2l", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write the game of the generator spec its flags give")
    g.add_argument("--kind", required=True,
                   help="matching_pennies, rps, random_zs or random_general")
    g.add_argument("--players", dest="n", type=int, help="the spec's n (default 2)")
    g.add_argument("--actions", dest="d", type=int, help="the spec's d (default 2)")
    g.add_argument("--graph", help="complete (default), cycle or gnp")
    g.add_argument("--p", type=float, help="gnp edge probability (default 0.5)")
    g.add_argument("--seed", type=int, help="random game seed (default 0)")
    g.add_argument("--out", required=True)

    for mode in ("gradient", "bandit", "fisher"):
        r = sub.add_parser(f"run-{mode}", help=f"run a {mode}-mode config")
        r.add_argument("--config", required=True, help="path to a JSON run config")
        r.add_argument("--out", help="output directory (overrides config out_dir)")
        r.add_argument("--seeds", help="comma-separated seed list (overrides config)")
        r.add_argument("--workers", type=int, help="parallel seed workers (overrides config)")

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
    if args.seeds is not None:
        try:
            overrides["seeds"] = [int(s) for s in args.seeds.split(",")]
        except ValueError:
            raise harness.ConfigError(f"--seeds must be comma-separated integers, "
                                      f"got {args.seeds!r}") from None
    if args.workers is not None:
        overrides["workers"] = args.workers
    cfg = harness.load_config({**harness.read_config_file(args.config), **overrides})
    summary = harness.run(cfg)
    print(json.dumps({k: summary[k] for k in ("mode", "config_hash", "passed")}, indent=2))
    return 0 if summary["passed"] else 1


def _unwritable(path):
    """Why no file can be written at ``path``, found without writing one;
    None when one can."""
    p = Path(path)
    if p.is_dir():
        return "it is a directory"
    if not (p.parent.is_dir() and os.access(p.parent, os.W_OK)):
        return f"{p.parent} is not a writable directory"
    return None


def _column(path, rows, name) -> list:
    """Column ``name`` of (line number, row) pairs as floats; a ValueError
    names the line and column of a missing or non-numeric cell."""
    values = []
    for line, row in rows:
        try:
            values.append(float(row[name]))
        except (TypeError, ValueError):
            what = "no value" if row[name] is None else f"{row[name]!r} is not a number"
            raise ValueError(f"{path} line {line}, column {name!r}: {what}") from None
    return values


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "gen":
        spec = {k: getattr(args, k) for k in ("kind", "n", "d", "graph", "p", "seed")
                if getattr(args, k) is not None}
        try:
            game = harness.resolve_game(spec)
            save_game(game, args.out)
        except (OSError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(f"wrote {game!r} to {args.out}")
        return 0

    if args.command in ("run-gradient", "run-bandit", "run-fisher"):
        try:
            return _run_mode(args.command.removeprefix("run-"), args)
        except harness.ConfigError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    if args.command == "fit-rate":
        try:
            with open(args.csv) as fh:
                reader = csv.DictReader(fh)
                missing = [c for c in ("t", args.column) if c not in (reader.fieldnames or [])]
                if missing:
                    raise ValueError(f"{args.csv} has no column {missing[0]!r}")
                rows = [(reader.line_num, row) for row in reader]
            fit = harness.fit_rate(_column(args.csv, rows, "t"),
                                   _column(args.csv, rows, args.column),
                                   t_min=args.t_min, t_max=args.t_max)
        except (OSError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(json.dumps(fit, indent=2))
        return 0

    if args.command == "verify":
        problem = args.out and _unwritable(args.out)
        if problem:  # refused before any suite runs
            print(f"cannot write {args.out}: {problem}", file=sys.stderr)
            return 2
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
