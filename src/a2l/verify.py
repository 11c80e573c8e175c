"""Acceptance suites: each named check is callable here and from the CLI.

Every suite returns a SuiteResult with a pass flag, human-readable lines and
machine-readable details.  Expensive shared computations (the long gradient
sweep, the honest bandit runs) are memoized at module level so that related
suites reuse them within a process.  The full-feedback suites run each
(game, algorithm, weights) cell over all its seeds in one batched call.
Runtime budgets are timed with the monotonic ``time.perf_counter``.

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
from .learners import rvu_diagnostic

SEEDS = tuple(range(20))
TOL_EQUIV = 1e-12
TOL_IDENTITY = 1e-10
TOL_BOUND = 1e-9
TOL_AUDIT = 1e-6


@dataclass
class SuiteResult:
    name: str
    passed: bool
    lines: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def report(self) -> str:
        head = f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"
        return "\n".join([head] + [f"  {ln}" for ln in self.lines])


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
        results = [run_suite(n) for n in available_suites()]
        return SuiteResult(
            "all",
            all(r.passed for r in results),
            [r.report() for r in results],
            {r.name: r.details for r in results},
        )
    if name not in _SUITES:
        raise KeyError(
            f"unknown suite {name!r}; available: {', '.join(available_suites() + ['all'])}"
        )
    return _SUITES[name]()


# -- shared fixtures ---------------------------------------------------------


def _suite1_games():
    """(key, seed-dependent?, factory) for the T=1000 suite."""
    return [
        ("matching_pennies", False, lambda s: generate_game("matching_pennies")),
        ("rps", False, lambda s: generate_game("rps")),
        ("zs3d5", True, lambda s: generate_game("random_zs", n=3, d=5, seed=s)),
    ]


def _suite1_eta(algo):
    """Step size per inner algorithm for the T=1000 suite.

    The optimistic cells run at the certified default.  The plain-MWU cells
    run at 0.15: bare MWU diverges on zero-sum games, and at the certified
    default its trajectory amplifies last-bit rounding past the equivalence
    tolerance within 1000 rounds; the wrapped-equals-average property itself
    is step-size independent.
    """
    return 0.15 if algo == "mwu" else None


_REF_CACHE = {}


def _reference_runs(key, seeds, factory, algo):
    """Bare self-play runs over the given seeds, as (game, trajectory) pairs.

    Seeds missing from the cache run together in one batched call; the
    cache is shared across suites.
    """
    missing = [s for s in seeds if (key, s, algo) not in _REF_CACHE]
    if missing:
        games = [factory(s) for s in missing]
        spec = dyn.LearnerSpec(algo=algo, eta=_suite1_eta(algo))
        trajs = dyn.run_full_feedback_batch(games, spec, 1000, missing)
        for s, game, traj in zip(missing, games, trajs):
            _REF_CACHE[(key, s, algo)] = (game, traj)
    return [_REF_CACHE[(key, s, algo)] for s in seeds]


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
    for key, seeded, factory in _suite1_games():
        seeds = SEEDS if seeded else SEEDS[:1]
        for algo in ("mwu", "omwu"):
            refs = _reference_runs(key, seeds, factory, algo)
            games = [game for game, _ in refs]
            for weights in ("uniform", "linear"):
                spec = dyn.LearnerSpec(algo=f"a2l-{algo}", eta=_suite1_eta(algo), weights=weights)
                wrapped = dyn.run_full_feedback_batch(games, spec, 1000, seeds)
                for (game, ref), tr in zip(refs, wrapped):
                    for i in range(game.n):
                        means = _weighted_running_means(ref.played[i], weights)
                        worst_x = max(worst_x, float(np.abs(means - tr.played[i]).max()))
                        worst_u = max(
                            worst_u,
                            float(np.abs(tr.inner_utils[i] - ref.utils[i]).max()),
                        )
                    cells += 1
    elapsed = time.perf_counter() - t0
    passed = worst_x <= TOL_EQUIV and worst_u <= TOL_IDENTITY and elapsed <= 10.0
    return SuiteResult(
        "reduction-equivalence",
        passed,
        [
            f"max |played - reference running mean| = {worst_x:.3e} (tol {TOL_EQUIV})",
            f"max |recovered - reference utility|  = {worst_u:.3e} (tol {TOL_IDENTITY})",
            f"{cells} cells in {elapsed:.1f} s (budget 10 s)",
        ],
        {"worst_strategy_dev": worst_x, "worst_utility_dev": worst_u,
         "cells": cells, "elapsed_s": elapsed},
    )


@suite("gap-regret-identity")
def check_gap_regret_identity() -> SuiteResult:
    """Total gap of the average profile equals mean regret, at every t.

    TGap(xbar^T) = (1/T) sum_i Reg_i(T) within 1e-10 on zero-sum games,
    with the gap freshly evaluated through the payoff matrices and regret
    measured on the inner iterates.
    """
    worst = 0.0
    runs = 0
    for key, seeded, factory in _suite1_games():
        seeds = SEEDS if seeded else SEEDS[:1]
        for algo in ("mwu", "omwu"):
            refs = _reference_runs(key, seeds, factory, algo)
            games = [game for game, _ in refs]
            wrapped = dyn.run_full_feedback_batch(
                games,
                dyn.LearnerSpec(algo=f"a2l-{algo}", eta=_suite1_eta(algo)),
                1000,
                seeds,
            )
            for (game, ref), wr in zip(refs, wrapped):
                for tr in (ref, wr):
                    gaps = dyn.average_profile_gaps(game, tr.inner)
                    rep = dyn.inner_regret_report(tr)
                    T = np.arange(1.0, tr.T + 1.0)
                    rhs = rep["reg"].sum(axis=1) / T
                    worst = max(worst, float(np.abs(gaps - rhs).max()))
                    runs += 1
    passed = worst <= TOL_IDENTITY
    return SuiteResult(
        "gap-regret-identity",
        passed,
        [f"max |TGap(avg) - mean regret| = {worst:.3e} over {runs} runs (tol {TOL_IDENTITY})"],
        {"worst_identity_dev": worst, "runs": runs},
    )


# -- gradient rate sweep (shared by two suites) -------------------------------


def _gradient_games():
    return [
        ("matching_pennies", False, lambda s: generate_game("matching_pennies")),
        ("rps", False, lambda s: generate_game("rps")),
        ("zs2d10", True, lambda s: generate_game("random_zs", n=2, d=10, seed=s)),
        ("zs3d5", True, lambda s: generate_game("random_zs", n=3, d=5, seed=s)),
        ("zs4d10cyc", True, lambda s: generate_game("random_zs", n=4, d=10, graph="cycle", seed=s)),
        ("zs4d6gnp", True, lambda s: generate_game("random_zs", n=4, d=6, graph="gnp", p=0.6, seed=s)),
    ]


_GRADIENT_STATS = None
GRADIENT_T = 10_000
GRADIENT_CHECKPOINTS = (10, 100, 1000, 10_000)


def _gradient_run_stats(key, seeded, seed, game, tr) -> dict:
    eta = dyn.gradient_step_size(game.n)
    log_dim = float(np.log(game.action_counts).sum())
    ts = np.arange(1.0, GRADIENT_T + 1.0)
    bound = log_dim / (eta * ts)
    gap_violation = float((tr.tgap_played - bound).max())
    try:
        fit = harness.fit_rate(ts, tr.tgap_played, t_min=100, t_max=GRADIENT_T)
        slope = fit["slope"]
    except ValueError:
        slope = None  # gap identically ~0: converged at the start
    rep = dyn.regret_report(tr)
    dreg_bound = (log_dim / eta) * (1.0 + np.log(ts))
    dreg_violation = float((rep["dreg"] - dreg_bound[:, None]).max())
    checkpoint_gaps = {t: float(tr.tgap_played[t - 1]) for t in GRADIENT_CHECKPOINTS}
    return {
        "game": key, "seed": seed, "eta": eta, "log_dim": log_dim,
        "gap_violation": gap_violation, "slope": slope,
        "dreg_violation": dreg_violation, "checkpoint_gaps": checkpoint_gaps,
        "seed_invariant": not seeded,
    }


def _gradient_sweep() -> dict:
    """A2L-OMWU at eta = 1/(2(n-1)), T = 10^4, across games and seeds.

    Caches, per run: the worst anytime slack of the gap bound, the fitted
    log-log slope of the played gap, the worst dynamic-regret slack, and
    the monitor's honest decision.
    """
    global _GRADIENT_STATS
    if _GRADIENT_STATS is not None:
        return _GRADIENT_STATS
    t0 = time.perf_counter()
    runs = []
    for key, seeded, factory in _gradient_games():
        seeds = SEEDS if seeded else SEEDS[:1]
        games = [factory(s) for s in seeds]
        # One batched call per game; its arrays are dropped before the next.
        spec = dyn.LearnerSpec(algo="a2l-omwu")
        runs += [_gradient_run_stats(key, seeded, s, game, tr) for s, game, tr in zip(
            seeds, games, dyn.run_full_feedback_batch(games, spec, GRADIENT_T, seeds))]
    _GRADIENT_STATS = {"runs": runs, "elapsed_s": time.perf_counter() - t0}
    return _GRADIENT_STATS


@suite("gradient-rate")
def check_gradient_rate() -> SuiteResult:
    """Anytime gap bound TGap(xbar^t) <= sum_i log d_i / (eta t) + 1e-9.

    Checked at every t <= 10^4 (hence at T in {10, 10^2, 10^3, 10^4}) on
    every suite game and seed; the fitted log-log slope of the played gap
    over t in [10^2, 10^4] must be at most -0.9 wherever the gap is not
    already at the numerical floor.
    """
    stats = _gradient_sweep()
    worst_violation = max(r["gap_violation"] for r in stats["runs"])
    slopes = [r["slope"] for r in stats["runs"] if r["slope"] is not None]
    worst_slope = max(slopes) if slopes else None
    converged = sum(1 for r in stats["runs"] if r["slope"] is None)
    slope_txt = "n/a" if worst_slope is None else f"{worst_slope:.3f}"
    passed = (
        worst_violation <= TOL_BOUND
        and (worst_slope is None or worst_slope <= -0.9)
        and stats["elapsed_s"] <= 120.0
    )
    return SuiteResult(
        "gradient-rate",
        passed,
        [
            f"worst anytime bound violation = {worst_violation:.3e} (tol {TOL_BOUND})",
            f"worst fitted slope = {slope_txt} over {len(slopes)} runs "
            f"({converged} runs converged to the floor)",
            f"{len(stats['runs'])} runs in {stats['elapsed_s']:.1f} s (budget 120 s)",
        ],
        {"worst_violation": worst_violation, "worst_slope": worst_slope,
         "runs": len(stats["runs"]), "elapsed_s": stats["elapsed_s"]},
    )


@suite("dynamic-regret")
def check_dynamic_regret() -> SuiteResult:
    """DReg_i(t) <= (sum_i log d_i / eta)(1 + ln t) on the rate suite."""
    stats = _gradient_sweep()
    worst = max(r["dreg_violation"] for r in stats["runs"])
    passed = worst <= TOL_BOUND
    return SuiteResult(
        "dynamic-regret",
        passed,
        [f"worst dynamic-regret bound violation = {worst:.3e} (tol {TOL_BOUND})"],
        {"worst_violation": worst},
    )


@suite("rvu")
def check_rvu() -> SuiteResult:
    """Regret-variation inequality and the utility-variation bound.

    The optimistic learner's regret bound slack must be >= -1e-9 on every
    suite self-play trajectory, and for 10^3 random profile pairs per game

        sum_i ||u_i(., x) - u_i(., x')||_inf^2
            <= (n-1)^2 sum_i ||x_i - x'_i||_1^2.
    """
    worst_slack = np.inf
    for key, seeded, factory in _suite1_games():
        for game, ref in _reference_runs(key, SEEDS if seeded else SEEDS[:1], factory, "omwu"):
            eta = dyn.gradient_step_size(game.n)
            for i in range(game.n):
                diag = rvu_diagnostic(ref.played[i], ref.utils[i], eta)
                worst_slack = min(worst_slack, diag["slack"])

    rng = np.random.default_rng(2024)
    worst_pair = np.inf
    for key, seeded, factory in _suite1_games():
        game = factory(0)
        for _ in range(1000):
            x = random_profile(game, rng)
            y = random_profile(game, rng)
            lhs = sum(
                np.abs(game.utility_vector(i, x) - game.utility_vector(i, y)).max() ** 2
                for i in range(game.n)
            )
            rhs = (game.n - 1) ** 2 * sum(
                np.abs(x[i] - y[i]).sum() ** 2 for i in range(game.n)
            )
            worst_pair = min(worst_pair, rhs - lhs)
    passed = worst_slack >= -TOL_BOUND and worst_pair >= -TOL_BOUND
    return SuiteResult(
        "rvu",
        passed,
        [
            f"min regret-bound slack = {worst_slack:.3e} (allowed >= -{TOL_BOUND})",
            f"min utility-variation slack = {worst_pair:.3e} over 3x1000 pairs",
        ],
        {"min_rvu_slack": float(worst_slack), "min_pair_slack": float(worst_pair)},
    )


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
    eta = 0.1
    window = slice(899, 1000)
    bare = dyn.run_full_feedback(game, dyn.LearnerSpec(algo="mwu", eta=eta, bias=bias), 1000)
    wrapped = dyn.run_full_feedback(game, dyn.LearnerSpec(algo="a2l-mwu", eta=eta, bias=bias), 1000)
    bare_min = float(bare.tgap_played[window].min())
    wrapped_max = float(wrapped.tgap_played[window].max())
    passed = bare_min > 0.05 and wrapped_max < 0.01
    return SuiteResult(
        "mwu-contrast",
        passed,
        [
            f"bare MWU min gap over rounds 900..1000 = {bare_min:.4f} (needs > 0.05)",
            f"wrapped MWU max gap over rounds 900..1000 = {wrapped_max:.4f} (needs < 0.01)",
        ],
        {"bare_min_gap": bare_min, "wrapped_max_gap": wrapped_max},
    )


# -- bandit suites -----------------------------------------------------------

_BANDIT_STATS = None
BANDIT_EPOCHS = 12
BANDIT_DELTA = 0.05


def _bandit_game():
    return generate_game("random_zs", n=2, d=3, seed=11)


def _bandit_sweep() -> dict:
    """Honest 12-epoch theory-schedule runs over 20 seeds, with audits."""
    global _BANDIT_STATS
    if _BANDIT_STATS is not None:
        return _BANDIT_STATS
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
        rec = bd.recovery_error_audit(traj)
        min_rec_slack = min(
            min_rec_slack,
            float(rec["slack_first_order"].min()),
            float(rec["slack_second_order"].min()),
        )
        reg = bd.regret_error_bound_audit(traj)
        min_reg_slack = min(min_reg_slack, float(reg["slack"].min()))
        switches.extend(traj.switch_epoch)
    _BANDIT_STATS = {
        "gaps": gaps,
        "min_recovery_slack": min_rec_slack,
        "min_regret_slack": min_reg_slack,
        "switches": switches,
        "elapsed_s": time.perf_counter() - t0,
    }
    return _BANDIT_STATS


def _bandit_resample(estimator, resamples=10_000, seed=777):
    """Monte-Carlo resampling of one epoch's estimates at fixed strategies.

    Uses the seed-0 honest run's epoch-5 mixed profile (B = 625, eps = 1/5)
    and returns per-action means, standard errors and the truth, for either
    the per-action-mean estimator ("epoch") or the importance-weighted
    accumulator ("iw").  Each resample is drawn by ``bandit.JointSampler``,
    the sampler ``run_bandit`` uses.
    """
    game = _bandit_game()
    traj = bd.run_bandit(game, bd.EpochSchedule.theory(), seed=0,
                         delta=BANDIT_DELTA, epochs=5, monitor_c=np.inf)
    t = 5
    B = int(traj.B[t - 1])
    plays = [x[t - 1] for x in traj.mixed]
    offset, scale = traj.meta["reward_map"]["offset"], traj.meta["reward_map"]["scale"]
    truth_avg = (game.edges[(0, 1)] @ plays[1] + offset) / scale  # true average utility vector
    sampler = bd.JointSampler(game)
    rng = np.random.default_rng(seed)
    est = np.empty((resamples, len(plays[0])))
    sums = np.empty_like(est)
    for r in range(resamples):
        ests = sampler.epoch(rng, plays, B)
        est[r], sums[r] = ests[0].estimate, ests[0].sums
    if estimator == "epoch":
        values, truth = est, truth_avg
    else:
        values, truth = sums / plays[0], B * truth_avg
    mean = values.mean(axis=0)
    se = values.std(axis=0, ddof=1) / np.sqrt(resamples)
    return mean, se, truth


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
    lines = []
    ok_a = stats["min_recovery_slack"] >= -TOL_AUDIT and stats["min_regret_slack"] >= -TOL_AUDIT
    lines.append(
        f"(a) min recovery slack = {stats['min_recovery_slack']:.3e}, "
        f"min regret-bound slack = {stats['min_regret_slack']:.3e} (allowed >= -{TOL_AUDIT})"
    )

    mean, se, truth = _bandit_resample("epoch")
    dev_in_se = np.abs(mean - truth) / se
    ok_b = bool((dev_in_se <= 3.0).all())
    lines.append(f"(b) estimator bias = {dev_in_se.max():.2f} standard errors (needs <= 3)")

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
        audit = bd.estimation_error_audit(traj)
        for k, t in enumerate(eligible):
            viol[k] += audit["violated"][t - 1]
    freq = viol / reps
    ok_c = bool((freq <= 4 * BANDIT_DELTA).all())
    lines.append(
        f"(c) worst bound-violation frequency = {freq.max():.3f} over {reps} reps "
        f"(needs <= {4 * BANDIT_DELTA}) on epochs {eligible}"
    )

    med = np.median(stats["gaps"], axis=0)
    ok_d = bool(med[BANDIT_EPOCHS - 1] <= med[2])
    lines.append(f"(d) median gap epoch 12 = {med[-1]:.4f} <= epoch 3 = {med[2]:.4f}")

    elapsed = time.perf_counter() - t0 + stats["elapsed_s"]
    lines.append(f"total {elapsed:.1f} s (budget 600 s)")
    passed = ok_a and ok_b and ok_c and ok_d and elapsed <= 600.0
    return SuiteResult(
        "bandit-audit", passed, lines,
        {"min_recovery_slack": stats["min_recovery_slack"],
         "min_regret_slack": stats["min_regret_slack"],
         "estimator_bias_se": float(dev_in_se.max()),
         "violation_freq_max": float(freq.max()),
         "median_gaps": med.tolist(), "elapsed_s": elapsed},
    )


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
    honest_ok = all(sw is None for sw in stats["switches"])
    lines = [f"honest self-play switches over {len(SEEDS)} runs: "
             f"{sum(sw is not None for sw in stats['switches'])} (needs 0)"]

    def bait(t):
        return np.array([1.0, 0.0]) if t % 2 == 1 else np.array([0.475, 0.525])

    sched = bd.EpochSchedule.custom(coeff=4000, power=0.0, eps_coeff=0.5, eps_power=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        adv = bd.run_bandit_vs_environment(2, bait, sched, eta=1.0 / 12, seed=1,
                                           delta=BANDIT_DELTA, epochs=6000)
    adv_ok = adv["switch_epoch"] is not None
    lines.append(
        f"adversary switch epoch = {adv['switch_epoch']} "
        f"({int(adv['B'][: adv['switch_epoch']].sum()) if adv_ok else 0} rounds)"
    )

    mean, se, truth = _bandit_resample("iw")
    dev_in_se = np.abs(mean - truth) / se
    iw_ok = bool((dev_in_se <= 3.0).all())
    lines.append(f"importance-weighted bias = {dev_in_se.max():.2f} standard errors (needs <= 3)")

    passed = honest_ok and adv_ok and iw_ok
    return SuiteResult(
        "bandit-monitor", passed, lines,
        {"honest_switches": sum(sw is not None for sw in stats["switches"]),
         "adversary_switch_epoch": adv["switch_epoch"],
         "iw_bias_se": float(dev_in_se.max())},
    )


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
    lines = []
    worst_equiv = 0.0
    worst_cons = 0.0
    worst_final_gap = 0.0
    trend_ok = True
    for s in SEEDS:
        m = 2 + s % 4
        n = 2 + (s // 4) % 4
        market = fi.random_linear_market(m, n, seed=s)
        ref = fi.run_prd(market, 2000)
        wrapped = fi.run_a2l_prd(market, 500)
        worst_equiv = max(worst_equiv, float(
            np.abs(wrapped["played_prices"] - ref["avg_prices"][:500]).max()))
        total = market.budgets.sum()
        worst_cons = max(
            worst_cons,
            float(np.abs(ref["prices"].sum(axis=1) - total).max()),
            float(np.abs(wrapped["played_prices"].sum(axis=1) - total).max()),
        )
        gaps = ref["avg_gap"]
        worst_final_gap = max(worst_final_gap, float(gaps[-1]))
        checkpoints = gaps[np.array([9, 49, 199, 499, 1999])]
        trend_ok = trend_ok and bool(np.all(np.diff(checkpoints) <= 1e-12))
    lines.append(f"max |played - reference average| price dev = {worst_equiv:.3e} (tol 1e-10)")
    lines.append(f"max price-conservation dev = {worst_cons:.3e} (tol 1e-9)")
    lines.append(f"max averaged-state gap at t=2000 = {worst_final_gap:.2e} "
                 f"(needs < 1e-3), trend non-increasing: {trend_ok}")

    market = fi.FisherMarket([1.0, 1.0], valuations=[[1.0, 0.0], [0.0, 1.0]])
    b = fi.uniform_spending(market)
    reached = None
    for t in range(1, 51):
        b = fi.prd_step(market, b)
        rep = fi.verify_ce(market, fi.prices(b), fi.allocations(b), tol=1e-6)
        if rep.passed:
            reached = t
            break
    lines.append(f"hand-solved 2x2 market reaches equilibrium at step {reached} (needs <= 50)")

    passed = (
        worst_equiv <= 1e-10 and worst_cons <= 1e-9
        and worst_final_gap < 1e-3 and trend_ok and reached is not None
    )
    return SuiteResult(
        "fisher", passed, lines,
        {"worst_price_dev": worst_equiv, "worst_conservation": worst_cons,
         "worst_final_gap": worst_final_gap, "trend_ok": trend_ok,
         "ce_reached_step": reached},
    )


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
    lines = []
    all_ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for spec in specs:
            out = Path(tmp) / spec["mode"]
            cfg = harness.load_config({**spec, "out_dir": str(out)})
            harness.run(cfg)
            first = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
            harness.run(cfg)
            second = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
            same = first == second and len(first) == len(spec["seeds"])
            all_ok = all_ok and same
            lines.append(f"{spec['mode']}: {len(first)} CSVs byte-identical: {same}")
    return SuiteResult("determinism", all_ok, lines, {})
