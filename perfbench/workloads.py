"""The benchmark's four workloads: inputs, operations and correctness checks.

A workload is built from a seed by ``build(name, seed, smoke, workdir)``,
which returns a ``Workload``: a fixed list of operations (one simulate call
or one ``harness.run`` config each) and a check over their outputs.  Every
pass of the timed loop runs the same operations on the same inputs.

Building generates the games and markets (including the zero-sum check) and
validates the harness configs; it touches no file.  Operations that go
through ``harness.run`` write their CSVs and ``summary.json`` under
``workdir``.

Every check compares the program's output with a figure the benchmark
computes itself from the inputs, or with a property the method must have.
None compares against stored output.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from a2l import bandit as bd
from a2l import dynamics as dyn
from a2l import fisher as fi
from a2l import games as gm
from a2l import harness

TOL_PLAY = 1e-12
TOL_UTIL = 1e-10
TOL_GAP_IDENTITY = 1e-10
TOL_RATE = 1e-9
TOL_AUDIT = 1e-6
TOL_PRICE = 1e-10
TOL_BUDGET = 1e-9


@dataclass
class Op:
    """One timed operation; ``rounds`` maps its output to simulated rounds."""

    name: str
    run: callable
    rounds: callable


@dataclass
class Workload:
    name: str
    ops: list
    check: callable            # outputs dict -> list of check records
    meta: dict = field(default_factory=dict)


def check_record(name, value, tol, passed=None):
    """One invariant: worst observed value, its tolerance, pass flag."""
    value = float(value)
    return {"check": name, "value": value, "tol": tol,
            "passed": bool(value <= tol if passed is None else passed)}


def _instance_seeds(seed, count):
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def _read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    cols = {h: np.array([float(r[k]) for r in body]) for k, h in enumerate(header)}
    return header, cols, len(body)


def _run_config(cfg):
    """`a2l run-*` path: harness.run writes CSVs and summary.json."""
    harness.run(cfg)
    return cfg.out_dir


def _read_summary(out_dir):
    with open(Path(out_dir) / "summary.json") as f:
        return json.load(f)


# -- equivalence-sweep --------------------------------------------------------
#
# The reduction-equivalence fixture: bare MWU/OMWU reference runs and
# A2L-wrapped runs under uniform and linear weights on matching pennies, RPS
# and random 3-player zero-sum games with 5 actions.  Many short runs, so
# per-round Python overhead in learners, reduction and dynamics dominates.

EQUIV_CELLS = (
    ("mwu", "mwu", None), ("omwu", "omwu", None),
    ("a2l-mwu", "mwu", "uniform"), ("a2l-mwu", "mwu", "linear"),
    ("a2l-omwu", "omwu", "uniform"), ("a2l-omwu", "omwu", "linear"),
)


def _equiv_eta(inner):
    # Bare MWU at the certified step amplifies last-bit rounding past 1e-12
    # within 1000 rounds; the verify suite runs the MWU cells at 0.15.
    return 0.15 if inner == "mwu" else None


def _weighted_running_mean(x, weights):
    t = np.arange(1.0, len(x) + 1.0)
    w = t if weights == "linear" else np.ones_like(t)
    return np.cumsum(w[:, None] * x, axis=0) / np.cumsum(w)[:, None]


def _avg_gap_and_mean_regret(game, inner, utils):
    """TGap of the running average of ``inner`` and mean inner regret.

    The gap is evaluated from the payoff matrices; regret from the logged
    iterates and utilities.  On zero-sum games the two agree at every t.
    """
    T = len(inner[0])
    t = np.arange(1.0, T + 1.0)[:, None]
    avg = [np.cumsum(x, axis=0) / t for x in inner]
    gap = np.zeros(T)
    regret = np.zeros(T)
    for i in range(game.n):
        v = np.zeros_like(avg[i])
        for (a, j), mat in game.edges.items():
            if a == i:
                v += avg[j] @ mat.T
        gap += v.max(axis=1) - np.einsum("td,td->t", avg[i], v)
        earned = np.cumsum(np.einsum("td,td->t", inner[i], utils[i]))
        regret += np.cumsum(utils[i], axis=0).max(axis=1) - earned
    return gap, regret / t[:, 0]


def _build_equivalence(seed, smoke, workdir):
    T = 50 if smoke else 1000
    games = [("matching_pennies", gm.generate_game("matching_pennies")),
             ("rps", gm.generate_game("rps"))]
    for s in _instance_seeds(seed, 1 if smoke else 4):
        games.append((f"zs3d5-{s}", gm.generate_game("random_zs", n=3, d=5, seed=s)))

    ops = []
    for key, game in games:
        for algo, inner, weights in EQUIV_CELLS:
            spec = dyn.LearnerSpec(algo=algo, eta=_equiv_eta(inner),
                                   weights=weights or "uniform")
            ops.append(Op(
                f"{key}/{algo}/{weights or 'bare'}",
                lambda g=game, sp=spec: dyn.run_full_feedback(g, sp, T, seed=seed),
                lambda tr: tr.T,
            ))

    def check(out):
        play = util = ident = 0.0
        for key, game in games:
            for algo, inner, weights in EQUIV_CELLS:
                tr = out.get(f"{key}/{algo}/{weights or 'bare'}")
                if tr is None:
                    continue
                gap, mean_reg = _avg_gap_and_mean_regret(game, tr.inner, tr.inner_utils)
                ident = max(ident, float(np.abs(gap - mean_reg).max()))
                ref = out.get(f"{key}/{inner}/bare")
                if weights is None or ref is None:
                    continue
                for i in range(game.n):
                    means = _weighted_running_mean(ref.played[i], weights)
                    play = max(play, float(np.abs(means - tr.played[i]).max()))
                    util = max(util, float(np.abs(tr.inner_utils[i] - ref.utils[i]).max()))
        return [
            check_record("wrapped play = weighted running mean of bare play", play, TOL_PLAY),
            check_record("recovered utilities = bare utilities", util, TOL_UTIL),
            check_record("TGap(running average) = mean inner regret", ident, TOL_GAP_IDENTITY),
        ]

    return Workload("equivalence-sweep", ops, check,
                    {"T": T, "games": [k for k, _ in games], "runs_per_game": len(EQUIV_CELLS)})


# -- gradient-long --------------------------------------------------------------
#
# The gradient-rate family at T = 10^4, one seed each, through the same path
# as `a2l run-gradient`: load_config, then harness.run with CSV and summary
# output.  Long horizons on larger and sparser games, with the post-run
# statistics and CSV formatting on the timed path.

GRADIENT_GAMES = (
    ("matching_pennies", {"kind": "matching_pennies"}, 2, 2),
    ("rps", {"kind": "rps"}, 2, 3),
    ("zs2d10", {"kind": "random_zs", "n": 2, "d": 10}, 2, 10),
    ("zs3d5", {"kind": "random_zs", "n": 3, "d": 5}, 3, 5),
    ("zs4d10cyc", {"kind": "random_zs", "n": 4, "d": 10, "graph": "cycle"}, 4, 10),
    ("zs4d6gnp", {"kind": "random_zs", "n": 4, "d": 6, "graph": "gnp", "p": 0.6}, 4, 6),
)


def _build_gradient(seed, smoke, workdir):
    T = 200 if smoke else 10_000
    chosen = GRADIENT_GAMES[2:4] if smoke else GRADIENT_GAMES
    cfgs = {}
    for (key, spec, n, d), s in zip(chosen, _instance_seeds(seed, len(chosen))):
        # No seed in the game spec: the instance comes from the run seed.
        cfgs[key] = (harness.load_config({
            "mode": "gradient", "game": spec, "algo": "a2l-omwu", "eta": None,
            "T": T, "seeds": [s], "out_dir": str(Path(workdir) / f"gradient-{key}"),
            "workers": 1,
        }), n, d)
    ops = [Op(key, lambda c=cfg: _run_config(c), lambda _o, T=T: T)
           for key, (cfg, _n, _d) in cfgs.items()]

    def check(out):
        passed, rows_ok, viol = True, True, -math.inf
        for key, (cfg, n, d) in cfgs.items():
            out_dir = out.get(key)
            if out_dir is None:
                continue
            passed &= bool(_read_summary(out_dir)["passed"])
            _h, cols, rows = _read_csv(Path(out_dir) / f"gradient_seed{cfg.seeds[0]}.csv")
            rows_ok &= rows == T and np.array_equal(cols["t"], np.arange(1, T + 1))
            eta = 1.0 / (2.0 * (n - 1))
            bound = n * math.log(d) / (eta * np.arange(1.0, T + 1.0))
            viol = max(viol, float((cols["tgap_last"] - bound).max()))
        return [
            check_record("summary.json passed", 0.0, 0.0, passed),
            check_record("CSV has T rows t = 1..T", 0.0, 0.0, rows_ok),
            check_record("tgap_last - sum_i log d_i / (eta t)", viol, TOL_RATE),
        ]

    return Workload("gradient-long", ops, check, {"T": T, "games": list(cfgs)})


# -- bandit-epochs ------------------------------------------------------------
#
# Two opposite uses of the bandit layer: few huge epochs (theory and theory_d
# schedules, audits and monitor on, the last epoch ~10^6 rounds) through the
# `a2l run-bandit` path, and thousands of tiny epochs in the bandit-monitor
# adversary; plus one self-play run whose monitor is forced to fire in epoch
# 1, which times the per-round fallback path.

def bait(t):
    """The bandit-monitor adversary: alternating utility vectors."""
    return np.array([1.0, 0.0]) if t % 2 == 1 else np.array([0.475, 0.525])


def _epoch_lengths(mode, epochs, d):
    t = np.arange(1, epochs + 1, dtype=np.int64)
    return t**4 * (d if mode == "theory_d" else 1)


def _build_bandit(seed, smoke, workdir):
    inst, run_seed, adv_seed, forced_seed = _instance_seeds(seed, 4)
    suite_game = {"kind": "random_zs", "n": 2, "d": 3, "seed": 11}
    zs3d5 = {"kind": "random_zs", "n": 3, "d": 5, "seed": inst}
    plan = (
        ("suite-theory", suite_game, 3, "theory", 6 if smoke else 32),
        ("suite-theory_d", suite_game, 3, "theory_d", 4 if smoke else 24),
        ("zs3d5-theory", zs3d5, 5, "theory", 5 if smoke else 30),
        ("zs3d5-theory_d", zs3d5, 5, "theory_d", 4 if smoke else 21),
    )
    cfgs = {}
    for key, game, d, mode, epochs in plan:
        cfgs[key] = (harness.load_config({
            "mode": "bandit", "game": game, "schedule": {"mode": mode},
            "epochs": epochs, "seeds": [run_seed],
            "out_dir": str(Path(workdir) / f"bandit-{key}"), "workers": 1,
        }), _epoch_lengths(mode, epochs, d))
    ops = [Op(key, lambda c=cfg: _run_config(c), lambda _o, B=B: int(B.sum()))
           for key, (cfg, B) in cfgs.items()]

    # Smoke size forces the adversary's monitor too: its natural switch
    # needs ~3600 epochs of 4000 rounds.
    adv_sched = bd.EpochSchedule.custom(coeff=40 if smoke else 4000, power=0.0,
                                        eps_coeff=0.5, eps_power=0.0)
    adv_c = -1e9 if smoke else 4.0

    def adversary():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return bd.run_bandit_vs_environment(
                2, bait, adv_sched, eta=1.0 / 12, seed=adv_seed, delta=0.05,
                monitor_c=adv_c, epochs=6000)

    forced_game = gm.generate_game("random_zs", n=2, d=3, seed=11)
    forced_sched = bd.EpochSchedule.custom(coeff=30 if smoke else 250, power=0.0,
                                           eps_coeff=0.5, eps_power=0.0)
    forced_epochs = 4 if smoke else 8

    def forced():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return bd.run_bandit(forced_game, forced_sched, epochs=forced_epochs,
                                 seed=forced_seed, monitor_c=-1e9)

    ops.append(Op("adversary", adversary, lambda r: int(r["B"].sum())))
    ops.append(Op("forced-switch", forced, lambda tr: int(tr.B.sum())))

    def check(out):
        passed = schedule_ok = True
        slack = math.inf
        honest_switches = 0
        for key, (cfg, B) in cfgs.items():
            out_dir = out.get(key)
            if out_dir is None:
                continue
            summary = _read_summary(out_dir)
            passed &= bool(summary["passed"])
            for res in summary["results"]:
                honest_switches += sum(sw is not None for sw in res["switch_epochs"])
                slack = min(slack, res["recovery_slack_min"], res["regret_bound_slack_min"])
            _h, cols, rows = _read_csv(Path(out_dir) / f"bandit_seed{cfg.seeds[0]}.csv")
            t = np.arange(1, len(B) + 1)
            schedule_ok &= (rows == len(B) and np.array_equal(cols["t"], t)
                            and np.array_equal(cols["B"], B.astype(float))
                            and np.array_equal(cols["eps"], 1.0 / t))
        records = [
            check_record("summary.json passed", 0.0, 0.0, passed),
            check_record("CSV B = t^4 or d t^4, eps = 1/t", 0.0, 0.0, schedule_ok),
            check_record("honest runs never switch", honest_switches, 0),
            check_record("negated min audit slack", -slack, TOL_AUDIT),
        ]
        adv = out.get("adversary")
        if adv is not None:
            records.append(check_record("adversary run switches", 0.0, 0.0,
                                        adv["switch_epoch"] is not None))
        tr = out.get("forced-switch")
        if tr is not None:
            records.append(check_record(
                "forced run switches in epoch 1 and completes", 0.0, 0.0,
                tr.switch_epoch == [1] * tr.n and tr.num_epochs == forced_epochs
                and all(np.isnan(r[1:]).all() for r in tr.recovered)))
        return records

    return Workload("bandit-epochs", ops, check,
                    {"configs": {k: int(B.sum()) for k, (_c, B) in cfgs.items()},
                     "adversary_epoch_rounds": int(adv_sched.coeff),
                     "forced_rounds": int(forced_sched.coeff) * forced_epochs})


# -- fisher-markets -----------------------------------------------------------
#
# `a2l run-fisher` configs on random linear markets from 5x5 to 50x20
# (agents x goods), plus the reference proportional response run on each.
# Per-agent Python loops in the PRD steps and per-round market_gap calls
# dominate.

FISHER_SIZES = ((5, 5), (10, 8), (20, 10), (35, 15), (50, 20))


def _build_fisher(seed, smoke, workdir):
    T = 50 if smoke else 1000
    sizes = FISHER_SIZES[:2] if smoke else FISHER_SIZES
    markets = {}
    ops = []
    for (m, n), s in zip(sizes, _instance_seeds(seed, len(sizes))):
        key = f"{m}x{n}"
        market = fi.random_linear_market(m, n, seed=s)
        cfg = harness.load_config({
            "mode": "fisher", "market": market.to_dict(), "T": T, "seeds": [0],
            "out_dir": str(Path(workdir) / f"fisher-{key}"), "workers": 1,
        })
        markets[key] = (market, cfg)
        ops.append(Op(f"{key}/run-fisher", lambda c=cfg: _run_config(c),
                      lambda _o, T=T: T))
        ops.append(Op(f"{key}/prd", lambda mk=market: fi.run_prd(mk, T), lambda _o, T=T: T))

    def check(out):
        passed, rows_ok = True, True
        price_dev = budget_dev = 0.0
        for key, (market, cfg) in markets.items():
            out_dir = out.get(f"{key}/run-fisher")
            if out_dir is None:
                continue
            passed &= bool(_read_summary(out_dir)["passed"])
            header, cols, rows = _read_csv(Path(out_dir) / "fisher_seed0.csv")
            rows_ok &= rows == T
            played = np.stack([cols[h] for h in header if h.startswith("p_")], axis=1)
            budget_dev = max(budget_dev, float(
                np.abs(played.sum(axis=1) - sum(cfg.market["budgets"])).max()))
            ref = out.get(f"{key}/prd")
            if ref is not None:
                running = np.cumsum(ref["prices"], axis=0) / np.arange(1.0, T + 1.0)[:, None]
                price_dev = max(price_dev, float(np.abs(played - running).max()))
        return [
            check_record("summary.json passed", 0.0, 0.0, passed),
            check_record("CSV has T rows", 0.0, 0.0, rows_ok),
            check_record("played prices = running mean of reference PRD prices",
                         price_dev, TOL_PRICE),
            check_record("sum_j p_j = sum_i B_i", budget_dev, TOL_BUDGET),
        ]

    return Workload("fisher-markets", ops, check, {"T": T, "markets": list(markets)})


_BUILD_BY_NAME = {
    "equivalence-sweep": _build_equivalence,
    "gradient-long": _build_gradient,
    "bandit-epochs": _build_bandit,
    "fisher-markets": _build_fisher,
}


def build(name, seed, smoke, workdir) -> Workload:
    return _BUILD_BY_NAME[name](seed, smoke, workdir)
