"""Acceptance suites: each named check is callable here and from the CLI.

Every suite returns a SuiteResult: a list of ``harness.Check`` records, each
an observed value, a comparison and a limit (with the derived slack and
pass flag), plus ``info``, the counts that are not checks.  The suite's pass
flag, its report (one line per check) and its machine-readable ``details``
(what ``a2l verify --out`` writes) all derive from the checks: a suite
passes when every check passes.  Runtime budgets are checks on wall time,
timed with the monotonic ``time.perf_counter``.  Expensive shared
computations (the reference runs, the long gradient sweep, the honest
bandit runs) are cached with ``functools.cache`` so that related suites
reuse them within a process.  The full-feedback suites run each (game,
algorithm, weights) cell over all its seeds in one batched call.

Suite fixtures, pinned:
- equivalence/identity/rvu suite: matching pennies, rock-paper-scissors and
  a 3-player complete-graph pairwise zero-sum game with d = 5 (one instance
  per seed), T = 1000, 20 seeds, certified step sizes.  The two fixed games
  have no randomness anywhere, so one run covers every seed.
- gradient rate suite: built-in zero-sum games with n <= 4, d <= 10
  (matching pennies, rock-paper-scissors, and pairwise zero-sum instances on
  complete, cycle and gnp graphs), T = 10^4, 20 seeds.
- bandit suite: 2-player pairwise zero-sum game with d = 3 (instance seed
  11), theory schedule, 12 epochs, 20 seeds, delta = 0.05.
- fisher suite: 20 random linear markets with m, n <= 5, T = 500 for the
  equivalence check and T = 2000 for the convergence trend.
"""

from __future__ import annotations

import functools
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bandit as bd
from . import dynamics as dyn
from . import fisher as fi
from . import harness
from .games import generate_game, random_profile
from .harness import TOL_AUDIT, TOL_BOUND, TOL_CONSERVATION, Check
from .learners import rvu_diagnostic

SEEDS = tuple(range(20))
TOL_EQUIV = 1e-12
TOL_IDENTITY = 1e-10
MAX_BIAS_SE = 3.0  # estimator bias allowed, in standard errors


@dataclass
class SuiteResult:
    """A suite's checks and the counts that are not checks.

    ``run_suite("all")`` holds the suites' own results as its checks.
    """

    name: str
    checks: list
    info: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def details(self) -> dict:
        return {"checks": [c.to_dict() for c in self.checks], **self.info}

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}

    def report(self) -> str:
        lines = [c.report() for c in self.checks]
        lines += [f"{k} = {_show(v)}" for k, v in self.info.items()]
        head = f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"
        return "\n".join([head] + [f"  {ln}" for text in lines for ln in text.splitlines()])


def _show(v) -> str:
    if isinstance(v, list):
        return "[" + ", ".join(map(_show, v)) + "]"
    return f"{v:.4g}" if isinstance(v, float) else str(v)


_SUITES = {}


def suite(name):
    def register(fn):
        _SUITES[name] = fn
        return fn
    return register


def available_suites():
    return sorted(_SUITES)


def run_suite(name) -> SuiteResult:
    if name == "all":
        return SuiteResult("all", [run_suite(n) for n in available_suites()])
    if name not in _SUITES:
        raise KeyError(
            f"unknown suite {name!r}; available: {', '.join(available_suites() + ['all'])}"
        )
    return _SUITES[name]()


# -- shared fixtures ---------------------------------------------------------

# Every game of the full-feedback suites: key -> generate_game arguments.
_GAMES = {
    "matching_pennies": {"kind": "matching_pennies"},
    "rps": {"kind": "rps"},
    "zs2d10": {"kind": "random_zs", "n": 2, "d": 10},
    "zs3d5": {"kind": "random_zs", "n": 3, "d": 5},
    "zs4d10cyc": {"kind": "random_zs", "n": 4, "d": 10, "graph": "cycle"},
    "zs4d6gnp": {"kind": "random_zs", "n": 4, "d": 6, "graph": "gnp", "p": 0.6},
}
_SUITE1_GAMES = ("matching_pennies", "rps", "zs3d5")  # the T = 1000 suites


def _game(key, seed):
    return generate_game(**_GAMES[key], seed=seed)


def _game_seeds(key):
    """The suite seeds a game runs on: a fixed game's one run covers them all."""
    return SEEDS if _GAMES[key]["kind"].startswith("random") else SEEDS[:1]


def _suite1_eta(algo):
    """Step size per inner algorithm for the T=1000 suite.

    The optimistic cells run at the certified default.  The plain-MWU cells
    run at 0.15: bare MWU diverges on zero-sum games, and at the certified
    default its trajectory amplifies last-bit rounding past the equivalence
    tolerance within 1000 rounds; the wrapped-equals-average property itself
    is step-size independent.
    """
    return 0.15 if algo == "mwu" else None


@functools.cache
def _reference_runs(key, algo):
    """Bare self-play runs over the game's seeds, as (game, trajectory) pairs,
    in one batched call; shared across suites."""
    seeds = _game_seeds(key)
    games = [_game(key, s) for s in seeds]
    spec = dyn.LearnerSpec(algo=algo, eta=_suite1_eta(algo))
    return list(zip(games, dyn.run_full_feedback_batch(games, spec, 1000, seeds)))


def _weighted_running_means(arr, weights):
    t = np.arange(1.0, len(arr) + 1.0)
    w = t if weights == "linear" else np.ones_like(t)
    return np.cumsum(w[:, None] * arr, axis=0) / np.cumsum(w)[:, None]


@suite("reduction-equivalence")
def check_reduction_equivalence() -> SuiteResult:
    """Wrapped play equals the running (weighted) average of the bare run.

    Coordinatewise at every round t <= 1000, within 1e-12, for both inner
    algorithms, both weight rules, all suite games and seeds; the recovered
    utilities must match the bare run's within 1e-10.
    """
    t0 = time.perf_counter()
    worst_x = 0.0
    worst_u = 0.0
    cells = 0
    for key in _SUITE1_GAMES:
        seeds = _game_seeds(key)
        for algo in ("mwu", "omwu"):
            refs = _reference_runs(key, algo)
            games = [game for game, _ in refs]
            for weights in ("uniform", "linear"):
                spec = dyn.LearnerSpec(algo=f"a2l-{algo}", eta=_suite1_eta(algo), weights=weights)
                wrapped = dyn.run_full_feedback_batch(games, spec, 1000, seeds)
                for (game, ref), tr in zip(refs, wrapped):
                    for i in range(game.n):
                        means = _weighted_running_means(ref.played[i], weights)
                        worst_x = max(worst_x, float(np.abs(means - tr.played[i]).max()))
                        dev_u = np.abs(tr.inner_utils[i] - ref.utils[i]).max()
                        worst_u = max(worst_u, float(dev_u))
                    cells += 1
    return SuiteResult("reduction-equivalence", [
        Check("max |played - reference running mean|", worst_x, "<=", TOL_EQUIV),
        Check("max |recovered - reference utility|", worst_u, "<=", TOL_IDENTITY),
        Check("wall time (s)", time.perf_counter() - t0, "<=", 10.0),
    ], {"cells": cells})


@suite("gap-regret-identity")
def check_gap_regret_identity() -> SuiteResult:
    """Total gap of the average profile equals mean regret, at every t.

    TGap(xbar^T) = (1/T) sum_i Reg_i(T) within 1e-10 on zero-sum games,
    with the gap freshly evaluated through the payoff matrices and regret
    measured on the inner iterates.
    """
    worst = 0.0
    runs = 0
    for key in _SUITE1_GAMES:
        for algo in ("mwu", "omwu"):
            refs = _reference_runs(key, algo)
            games = [game for game, _ in refs]
            wrapped = dyn.run_full_feedback_batch(
                games,
                dyn.LearnerSpec(algo=f"a2l-{algo}", eta=_suite1_eta(algo)),
                1000,
                _game_seeds(key),
            )
            for (game, ref), wr in zip(refs, wrapped):
                for tr in (ref, wr):
                    gaps = dyn.average_profile_gaps(game, tr.inner)
                    rep = dyn.inner_regret_report(tr)
                    T = np.arange(1.0, tr.T + 1.0)
                    rhs = rep["reg"].sum(axis=1) / T
                    worst = max(worst, float(np.abs(gaps - rhs).max()))
                    runs += 1
    return SuiteResult("gap-regret-identity",
                       [Check("max |TGap(avg) - mean regret|", worst, "<=", TOL_IDENTITY)],
                       {"runs": runs})


# -- gradient rate sweep (shared by two suites) -------------------------------


GRADIENT_T = 10_000


def _gradient_run_stats(game, tr) -> dict:
    eta = dyn.gradient_step_size(game.n)
    log_dim = float(np.log(game.action_counts).sum())
    ts = np.arange(1.0, GRADIENT_T + 1.0)
    bound = log_dim / (eta * ts)
    try:
        slope = harness.fit_rate(ts, tr.tgap_played, t_min=100, t_max=GRADIENT_T)["slope"]
    except ValueError:
        slope = None  # gap identically ~0: converged at the start
    dreg_bound = (log_dim / eta) * (1.0 + np.log(ts))
    return {
        "gap_violation": float((tr.tgap_played - bound).max()),
        "slope": slope,
        "dreg_violation": float((dyn.regret_report(tr)["dreg"] - dreg_bound[:, None]).max()),
    }


@functools.cache
def _gradient_sweep() -> dict:
    """A2L-OMWU at eta = 1/(2(n-1)), T = 10^4, across games and seeds.

    Keeps, per run: the worst anytime slack of the gap bound, the fitted
    log-log slope of the played gap and the worst dynamic-regret slack.
    The runs keep no records: the checks read only per-round statistics.
    """
    t0 = time.perf_counter()
    runs = []
    for key in _GAMES:
        seeds = _game_seeds(key)
        games = [_game(key, s) for s in seeds]
        # One batched call per game; its arrays are dropped before the next.
        spec = dyn.LearnerSpec(algo="a2l-omwu")
        runs += [_gradient_run_stats(game, tr) for game, tr in zip(
            games, dyn.run_full_feedback_batch(games, spec, GRADIENT_T, seeds, records=False))]
    return {"runs": runs, "elapsed_s": time.perf_counter() - t0}


@suite("gradient-rate")
def check_gradient_rate() -> SuiteResult:
    """Anytime gap bound TGap(xbar^t) <= sum_i log d_i / (eta t) + 1e-9.

    Checked at every t <= 10^4 (hence at T in {10, 10^2, 10^3, 10^4}) on
    every suite game and seed; the fitted log-log slope of the played gap
    over t in [10^2, 10^4] must be at most -0.9 wherever the gap is not
    already at the numerical floor.
    """
    stats = _gradient_sweep()
    slopes = [r["slope"] for r in stats["runs"] if r["slope"] is not None]
    return SuiteResult("gradient-rate", [
        Check("worst anytime gap-bound violation",
              max(r["gap_violation"] for r in stats["runs"]), "<=", TOL_BOUND),
        Check("worst fitted log-log slope", max(slopes, default=-np.inf), "<=", -0.9),
        Check("sweep wall time (s)", stats["elapsed_s"], "<=", 120.0),
    ], {"runs": len(stats["runs"]), "runs_at_floor": len(stats["runs"]) - len(slopes)})


@suite("dynamic-regret")
def check_dynamic_regret() -> SuiteResult:
    """DReg_i(t) <= (sum_i log d_i / eta)(1 + ln t) on the rate suite."""
    worst = max(r["dreg_violation"] for r in _gradient_sweep()["runs"])
    return SuiteResult("dynamic-regret", [
        Check("worst dynamic-regret bound violation", worst, "<=", TOL_BOUND)])


@suite("rvu")
def check_rvu() -> SuiteResult:
    """Regret-variation inequality and the utility-variation bound.

    The optimistic learner's regret bound slack must be >= -1e-9 on every
    suite self-play trajectory, and for 10^3 random profile pairs per game

        sum_i ||u_i(., x) - u_i(., x')||_inf^2
            <= (n-1)^2 sum_i ||x_i - x'_i||_1^2.
    """
    worst_slack = np.inf
    for key in _SUITE1_GAMES:
        for game, ref in _reference_runs(key, "omwu"):
            eta = dyn.gradient_step_size(game.n)
            for i in range(game.n):
                diag = rvu_diagnostic(ref.played[i], ref.utils[i], eta)
                worst_slack = min(worst_slack, diag["slack"])

    rng = np.random.default_rng(2024)
    worst_pair = np.inf
    pairs = 1000
    for key in _SUITE1_GAMES:
        game = _game(key, 0)
        for _ in range(pairs):
            x = random_profile(game, rng)
            y = random_profile(game, rng)
            lhs = sum(np.abs(game.utility_vector(i, x) - game.utility_vector(i, y)).max() ** 2
                      for i in range(game.n))
            rhs = (game.n - 1) ** 2 * sum(np.abs(x[i] - y[i]).sum() ** 2 for i in range(game.n))
            worst_pair = min(worst_pair, rhs - lhs)
    return SuiteResult("rvu", [
        Check("min regret-bound slack", float(worst_slack), ">=", -TOL_BOUND),
        Check("min utility-variation slack", float(worst_pair), ">=", -TOL_BOUND),
    ], {"pairs_per_game": pairs})


@suite("mwu-contrast")
def check_mwu_contrast() -> SuiteResult:
    """Bare MWU cycles on matching pennies while the wrapped run converges.

    Uniform is an exact fixed point of the dynamics on matching pennies, so
    both runs start from the off-center point (0.54, 0.46) (eta = 0.1).
    Over rounds 900..1000 the bare last-iterate gap must stay above 0.05 and
    the wrapped one below 0.01.
    """
    game = generate_game("matching_pennies")
    bias = list(np.log([0.54, 0.46]))
    window = slice(899, 1000)
    bare, wrapped = (dyn.run_full_feedback(game, dyn.LearnerSpec(algo=a, eta=0.1, bias=bias), 1000)
                     for a in ("mwu", "a2l-mwu"))
    return SuiteResult("mwu-contrast", [
        Check("bare MWU min gap over rounds 900..1000",
              float(bare.tgap_played[window].min()), ">", 0.05),
        Check("wrapped MWU max gap over rounds 900..1000",
              float(wrapped.tgap_played[window].max()), "<", 0.01),
    ])


# -- bandit suites -----------------------------------------------------------

BANDIT_EPOCHS = 12
BANDIT_DELTA = 0.05


def _bandit_game():
    return generate_game("random_zs", n=2, d=3, seed=11)


@functools.cache
def _bandit_sweep() -> dict:
    """Honest 12-epoch theory-schedule runs over 20 seeds, with audits."""
    t0 = time.perf_counter()
    game = _bandit_game()
    sched = bd.EpochSchedule.theory()
    gaps = np.empty((len(SEEDS), BANDIT_EPOCHS))
    min_rec_slack = np.inf
    min_reg_slack = np.inf
    switches = []
    for k, s in enumerate(SEEDS):
        traj = bd.run_bandit(game, sched, seed=s, delta=BANDIT_DELTA, epochs=BANDIT_EPOCHS)
        gaps[k] = traj.tgap_mixed
        truth = bd.audit_truths(traj, game)
        rec = bd.recovery_error_audit(traj, truth)
        min_rec_slack = min(min_rec_slack, float(rec["slack_first_order"].min()),
                            float(rec["slack_second_order"].min()))
        reg = bd.regret_error_bound_audit(traj, truth)
        min_reg_slack = min(min_reg_slack, float(reg["slack"].min()))
        switches.extend(traj.switch_epoch)
    return {
        "gaps": gaps,
        "min_recovery_slack": min_rec_slack,
        "min_regret_slack": min_reg_slack,
        "switches": switches,
        "elapsed_s": time.perf_counter() - t0,
    }


def _bandit_bias_se(estimator, resamples=10_000, seed=777) -> float:
    """Worst per-action bias of one epoch's estimates, in standard errors.

    Monte-Carlo resampling at fixed strategies: the seed-0 honest run's
    epoch-5 mixed profile (B = 625, eps = 1/5), for either the
    per-action-mean estimator ("epoch") or the importance-weighted
    accumulator ("iw").  Each resample is drawn by ``bandit.JointSampler``,
    the sampler ``run_bandit`` uses.
    """
    game = _bandit_game()
    traj = bd.run_bandit(game, bd.EpochSchedule.theory(), seed=0,
                         delta=BANDIT_DELTA, epochs=5, monitor_c=np.inf)
    t = 5
    B = int(traj.B[t - 1])
    plays = np.stack([x[t - 1] for x in traj.mixed])  # both players have d = 3
    truth_avg = bd.audit_truths(traj, game)["mixed_avg"][0][t - 1]
    sampler = bd.JointSampler(game)
    rng = np.random.default_rng(seed)
    est = np.empty((resamples, len(plays[0])))
    sums = np.empty_like(est)
    for r in range(resamples):
        counts, totals = sampler.epoch(rng, plays, B)
        est[r], sums[r] = bd.epoch_estimate(counts[0], totals[0]).estimate, totals[0]
    if estimator == "epoch":
        values, truth = est, truth_avg
    else:
        values, truth = sums / plays[0], B * truth_avg
    se = values.std(axis=0, ddof=1) / np.sqrt(resamples)
    return float((np.abs(values.mean(axis=0) - truth) / se).max())


@suite("bandit-audit")
def check_bandit_audit() -> SuiteResult:
    """Reconstruction and regret-bound audits, estimator checks, gap trend.

    (a) recovery and regret-bound inequalities hold at every epoch with
    slack >= -1e-6 over 20 honest runs; (b) the epoch estimator is unbiased
    within 3 standard errors over 10^4 resamples; (c) the estimation-error
    bound is violated in at most a 4*delta fraction of 200 repetitions per
    (epoch, player) cell with enough samples per action (B_t eps_t / d >=
    100); (d) the median played gap at epoch 12 is at most its epoch-3
    value.
    """
    t0 = time.perf_counter()
    stats = _bandit_sweep()
    bias_se = _bandit_bias_se("epoch")

    game = _bandit_game()
    sched = bd.EpochSchedule.theory()
    reps = 200
    d = game.dimensionality
    eligible = [t for t in range(1, BANDIT_EPOCHS + 1)
                if sched.epoch_length(t, d) * sched.mixing(t) / d >= 100]
    viol = np.zeros((len(eligible), game.n))
    for r in range(reps):
        traj = bd.run_bandit(game, sched, seed=1000 + r, delta=BANDIT_DELTA,
                             epochs=BANDIT_EPOCHS, monitor_c=np.inf)
        audit = bd.estimation_error_audit(traj, bd.audit_truths(traj, game))
        for k, t in enumerate(eligible):
            viol[k] += audit["violated"][t - 1]
    freq = viol / reps

    med = np.median(stats["gaps"], axis=0)
    return SuiteResult("bandit-audit", [
        Check("(a) min recovery slack", stats["min_recovery_slack"], ">=", -TOL_AUDIT),
        Check("(a) min regret-bound slack", stats["min_regret_slack"], ">=", -TOL_AUDIT),
        Check("(b) estimator bias (standard errors)", bias_se, "<=", MAX_BIAS_SE),
        Check("(c) worst bound-violation frequency", float(freq.max()), "<=", 4 * BANDIT_DELTA),
        Check("(d) median gap at epoch 12, against epoch 3",
              float(med[BANDIT_EPOCHS - 1]), "<=", float(med[2])),
        Check("wall time with the honest sweep (s)",
              time.perf_counter() - t0 + stats["elapsed_s"], "<=", 600.0),
    ], {"reps": reps, "eligible_epochs": eligible, "median_gaps": med.tolist()})


@suite("bandit-monitor")
def check_bandit_monitor() -> SuiteResult:
    """Honest play never switches; a constructed adversary does.

    The adversary alternates utility vectors so that the reconstruction
    amplification keeps the learner slamming between actions while one
    action stays better on average, making true regret grow linearly; the
    importance-weighted estimate then crosses c * T^{4/5} beyond its
    confidence radius.  Also re-checks the importance-weighted estimator's
    unbiasedness.
    """
    stats = _bandit_sweep()

    def bait(t):
        return np.array([1.0, 0.0]) if t % 2 == 1 else np.array([0.475, 0.525])

    sched = bd.EpochSchedule.custom(coeff=4000, power=0.0, eps_coeff=0.5, eps_power=0.0)
    epochs = 6000
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        adv = bd.run_bandit_vs_environment(2, bait, sched, eta=1.0 / 12, seed=1,
                                           delta=BANDIT_DELTA, epochs=epochs)
    switch = adv["switch_epoch"]
    return SuiteResult("bandit-monitor", [
        Check("honest self-play switches", sum(sw is not None for sw in stats["switches"]),
              "<=", 0),
        Check("adversary switch epoch", np.inf if switch is None else switch, "<=", epochs),
        Check("importance-weighted bias (standard errors)", _bandit_bias_se("iw"),
              "<=", MAX_BIAS_SE),
    ], {"honest_runs": len(SEEDS),
        "adversary_rounds": 0 if switch is None else int(adv["B"][:switch].sum())})


@suite("fisher")
def check_fisher() -> SuiteResult:
    """Average-playing budget dynamics: price equivalence and convergence.

    Last-iterate played prices must equal the reference run's average prices
    within 1e-10 for t <= 500 on 20 random linear markets; prices conserve
    total budget within 1e-9 everywhere; the hand-solved 2x2 market reaches
    its equilibrium (CE check at 1e-6) within 50 steps; and the averaged
    state's equilibrium gap is non-increasing in trend and below 1e-3 by
    t = 2000.
    """
    worst_equiv = 0.0
    worst_cons = 0.0
    worst_final_gap = 0.0
    worst_rise = -np.inf
    for s in SEEDS:
        m = 2 + s % 4
        n = 2 + (s // 4) % 4
        market = fi.random_linear_market(m, n, seed=s)
        ref = fi.run_prd(market, 2000)
        wrapped = fi.run_a2l_prd(market, 500)
        worst_equiv = max(worst_equiv, float(
            np.abs(wrapped["played_prices"] - ref["avg_prices"][:500]).max()))
        total = market.budgets.sum()
        for p in (ref["prices"], wrapped["played_prices"]):
            worst_cons = max(worst_cons, float(np.abs(p.sum(axis=1) - total).max()))
        gaps = ref["avg_gap"]
        worst_final_gap = max(worst_final_gap, float(gaps[-1]))
        checkpoints = gaps[np.array([9, 49, 199, 499, 1999])]
        worst_rise = max(worst_rise, float(np.diff(checkpoints).max()))

    market = fi.FisherMarket([1.0, 1.0], valuations=[[1.0, 0.0], [0.0, 1.0]])
    b = fi.uniform_spending(market)
    steps = 50
    reached = np.inf
    for t in range(1, steps + 1):
        b = fi.prd_step(market, b)
        if fi.verify_ce(market, fi.prices(b), fi.allocations(b), tol=1e-6).passed:
            reached = t
            break

    return SuiteResult("fisher", [
        Check("max |played - reference average| price dev", worst_equiv, "<=", TOL_IDENTITY),
        Check("max price-conservation dev", worst_cons, "<=", TOL_CONSERVATION),
        Check("max averaged-state gap at t=2000", worst_final_gap, "<", 1e-3),
        Check("max averaged-state gap rise between checkpoints", worst_rise, "<=", 1e-12),
        Check("hand-solved 2x2 market: steps to equilibrium", reached, "<=", steps),
    ])


@suite("determinism")
def check_determinism() -> SuiteResult:
    """Re-running identical configs yields byte-identical CSV output."""
    specs = [
        {"mode": "gradient", "game": {"kind": "random_zs", "n": 2, "d": 3, "seed": 5},
         "T": 300, "seeds": [0, 1]},
        {"mode": "bandit", "game": {"kind": "random_zs", "n": 2, "d": 3, "seed": 11},
         "epochs": 6, "seeds": [0, 1]},
        {"mode": "fisher", "market": {"m": 3, "n": 3, "seed": 2}, "T": 200, "seeds": [0]},
    ]
    checks = []
    with tempfile.TemporaryDirectory() as tmp:
        for spec in specs:
            out = Path(tmp) / spec["mode"]
            cfg = harness.load_config({**spec, "out_dir": str(out)})
            harness.run(cfg)
            first = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
            harness.run(cfg)
            second = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
            checks.append(Check(f"{spec['mode']}: CSVs byte-identical on re-run",
                                len(first) if first == second else 0, ">=", len(spec["seeds"])))
    return SuiteResult("determinism", checks)
