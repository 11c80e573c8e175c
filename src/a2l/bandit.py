"""Epoch-based bandit-feedback dynamics with utility-vector estimation.

Players only observe the realized payoff of the action they sample, so the
average-playing reduction cannot see utility vectors directly.  Instead,
play proceeds in epochs t = 1, 2, ...: each player i holds the running
average xbar^t of its inner OMWU iterates, mixes it with the uniform
distribution,

    xbar_eps^t = (1 - eps_t) xbar^t + eps_t * uniform,

plays that fixed strategy for B_t rounds while sampling actions i.i.d., and
estimates its average utility vector by per-action empirical means:

    Uhat^t[a] = (sum of rewards observed on action a) / (times a was drawn)

An action never drawn in the epoch gets estimate 0 and is flagged.  The
averaging and the reconstruction of the utility vector at the (unplayed)
inner iterate,

    uhat^t = t * Uhat^t - (t - 1) * Uhat^{t-1},

are the package's one reduction, ``reduction.A2L``, wrapped around OMWU
and fed Uhat^t once per epoch.  ``BanditPlayer`` holds one player's whole
pipeline (reduction, monitor, fallback); ``run_bandit`` drives one per
player on a game, ``run_bandit_vs_environment`` one against an
environment callback.

Schedules: "theory" uses B_t = t^4, "theory_d" uses B_t = d * t^4 (d = max
action count), both with eps_t = 1/t; anything else is "custom", which runs
but is flagged non-certified.  The certified step size is eta <= 1/(6n).

Rewards: built-in games pay in [-(n-1), n-1], so each player's bandit reward
is mapped affinely through r -> (r + (n-1)) / (2(n-1)) into [0, 1] before
estimation.  The map is monotone and per-player affine, hence preserves
argmax structure and regret ordering; gap statistics are reported in
original payoff units.

In simulator runs the true mixed strategies are known, so the run can also
log the true average utility vectors and the per-epoch estimation errors
(audit mode), plus a player-local importance-weighted regret estimate with
its confidence radius (monitor).  The monitor recommends switching to a
safe bandit learner once the estimate exceeds c * T_t^{4/5} beyond the
radius, where T_t is the cumulative round count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .csvrows import _csv_lines
from .games import PolymatrixGame
from .learners import OMWU, softmax
from .reduction import A2L


class DataError(ValueError):
    """Bandit rewards outside the normalized [0, 1] range."""


class ScheduleError(ValueError):
    """Epoch schedule parameters violate the type invariants."""


def bandit_step_size(n: int) -> float:
    """Largest certified step size for bandit runs, 1/(6n)."""
    return 1.0 / (6.0 * n)


@dataclass(frozen=True)
class EpochSchedule:
    """Epoch length rule t -> B_t and mixing rule t -> eps_t.

    theory modes satisfy B_t >= t^4 and eps_t = 1/t exactly; custom rules
    B_t = ceil(coeff * t^power), eps_t = min(1, eps_coeff * t^eps_power) run
    flagged as non-certified.
    """

    mode: str = "theory"
    coeff: float = 1.0
    power: float = 4.0
    eps_coeff: float = 1.0
    eps_power: float = -1.0

    def __post_init__(self):
        if self.mode not in ("theory", "theory_d", "custom"):
            raise ScheduleError(f"unknown schedule mode {self.mode!r}")
        if self.mode == "custom" and self.coeff < 1:
            raise ScheduleError("custom schedule needs coeff >= 1 so B_t >= 1")

    @classmethod
    def theory(cls):
        return cls(mode="theory")

    @classmethod
    def theory_d(cls):
        return cls(mode="theory_d")

    @classmethod
    def custom(cls, coeff, power, eps_coeff=1.0, eps_power=-1.0):
        return cls(mode="custom", coeff=coeff, power=power,
                   eps_coeff=eps_coeff, eps_power=eps_power)

    @property
    def certified(self) -> bool:
        return self.mode in ("theory", "theory_d")

    def epoch_length(self, t: int, d: int) -> int:
        if self.mode == "theory":
            return t**4
        if self.mode == "theory_d":
            return d * t**4
        return max(1, math.ceil(self.coeff * t**self.power))

    def mixing(self, t: int) -> float:
        if self.mode != "custom":
            return 1.0 / t
        eps = min(1.0, self.eps_coeff * t**self.eps_power)
        if not (0.0 < eps <= 1.0):
            raise ScheduleError(f"mixing rate must be in (0, 1], got {eps} at t={t}")
        return eps

    def to_dict(self) -> dict:
        return {"mode": self.mode, "coeff": self.coeff, "power": self.power,
                "eps_coeff": self.eps_coeff, "eps_power": self.eps_power}


@dataclass
class EpochEstimate:
    """Per-action reward totals, sample counts and empirical means."""

    sums: np.ndarray
    counts: np.ndarray
    estimate: np.ndarray
    unsampled: np.ndarray  # boolean mask of never-sampled actions


def mix_uniform(avg, eps):
    """(1 - eps) * avg + eps * uniform; every coordinate ends up >= eps/d."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"mixing rate must be in [0, 1], got {eps}")
    avg = np.asarray(avg, dtype=float)
    return (1.0 - eps) * avg + eps / avg.size


def estimate_epoch(actions, rewards, d) -> EpochEstimate:
    """Empirical per-action means of one epoch's bandit feedback.

    rewards must already be normalized to [0, 1]; never-sampled actions get
    estimate 0 and are flagged.
    """
    actions = np.asarray(actions, dtype=int)
    rewards = np.asarray(rewards, dtype=float)
    if actions.shape != rewards.shape or actions.ndim != 1:
        raise ValueError("actions and rewards must be equal-length vectors")
    if rewards.size and (rewards.min() < -1e-12 or rewards.max() > 1.0 + 1e-12):
        raise DataError(
            f"rewards outside [0, 1] after normalization: "
            f"[{rewards.min()}, {rewards.max()}]"
        )
    sums = np.bincount(actions, weights=rewards, minlength=d)
    counts = np.bincount(actions, minlength=d)
    unsampled = counts == 0
    estimate = np.divide(sums, counts, out=np.zeros(d), where=~unsampled)
    return EpochEstimate(sums, counts, estimate, unsampled)


def estimation_bound(d, B, eps, t, delta):
    """High-probability bound on ||Uhat - true average||_inf for one epoch."""
    return 2.0 * np.sqrt(d * np.log(B * t * t / delta) / (B * eps))


def _confidence_radius(spread, d_i, t, delta):
    """Confidence radius of the importance-weighted regret estimate at epoch
    t, from the spread sum_{k<=t} B_k (d_i/eps_k)^2:

    4 * sqrt(spread) * log(pi^2 d_i t^2 / (3 delta)); with eps_k = 1/k this
    is 4 d_i sqrt(sum_k k^2 B_k) log(pi^2 d_i t^2/(3 delta)).
    """
    return 4.0 * np.sqrt(spread) * np.log(np.pi**2 * d_i * t * t / (3.0 * delta))


def iw_radius(B_hist, eps_hist, d_i, t, delta):
    """The monitor's confidence radius from the whole epoch history."""
    B_hist = np.asarray(B_hist, dtype=float)
    eps_hist = np.asarray(eps_hist, dtype=float)
    return _confidence_radius(float((B_hist * (d_i / eps_hist) ** 2).sum()), d_i, t, delta)


class Exp3Fallback:
    """Importance-weighted MWU with eta_t = sqrt(log d / (d t)).

    Safe per-round bandit learner used after a robustness switch.
    """

    def __init__(self, d):
        self.d = d
        self.cum = np.zeros(d)
        self.t = 0
        self._p = None

    def next_strategy(self):
        eta = np.sqrt(np.log(max(self.d, 2)) / (self.d * (self.t + 1)))
        self._p = softmax(eta * self.cum)
        return self._p

    def observe_reward(self, action, reward01):
        est = np.zeros(self.d)
        est[action] = reward01 / self._p[action]
        self.cum += est
        self.t += 1


class BanditPlayer:
    """One player's epoch pipeline; it sees only its own actions and rewards.

    Each epoch it plays the eps-mixed running average of its inner OMWU
    iterates (``A2L(OMWU)``) and feeds the epoch's estimate Uhat^t to the
    wrapper, which reconstructs uhat^t = t Uhat^t - (t-1) Uhat^{t-1} and
    updates OMWU.  The importance-weighted regret monitor keeps running
    sums (IW utility vectors, their value under the played strategies, the
    round count T_t and the radius spread sum_k B_k (d/eps_k)^2), so an
    epoch costs O(d).  Once reg_est exceeds threshold + radius, play passes
    for good to an ``Exp3Fallback``, which learns round by round.
    monitor_c = inf never switches.
    """

    def __init__(self, d, eta, delta=0.05, monitor_c=4.0):
        self.d = d
        self.learner = A2L(OMWU(d, eta))
        self.delta = delta
        self.monitor_c = monitor_c
        self.t = 0
        self.rounds = 0
        self.spread = 0.0
        self.cum_iw = np.zeros(d)
        self.earned_iw = 0.0
        self.iw = None
        self.reg_est = 0.0
        self.radius = None
        self.threshold = None
        self.play = None
        self.fallback = None
        self.switch_epoch = None

    @property
    def switched(self) -> bool:
        return self.fallback is not None

    def begin_epoch(self, B, eps) -> np.ndarray:
        """Start the next epoch of B rounds; returns the strategy played in it
        (after a switch, the fallback's strategy at the epoch's start)."""
        self.t += 1
        self.rounds += B
        self.spread += B * (self.d / eps) ** 2
        self.radius = _confidence_radius(self.spread, self.d, self.t, self.delta)
        self.threshold = self.monitor_c * self.rounds ** 0.8
        if self.fallback is None:
            self.play = mix_uniform(self.learner.next_strategy(), eps)
        else:
            self.play = self.fallback.next_strategy().copy()
        return self.play

    def round_strategy(self) -> np.ndarray:
        """Strategy for the next round of the per-round path."""
        return self.play if self.fallback is None else self.fallback.next_strategy()

    def observe_round(self, action, reward01) -> None:
        """One round's own action and [0, 1] reward; only the fallback
        learns within an epoch."""
        if self.fallback is not None:
            self.fallback.observe_reward(action, reward01)

    def end_epoch(self, est: EpochEstimate) -> np.ndarray:
        """Feed the epoch's estimate before a switch; returns uhat^t."""
        uhat = self.learner.observe(est.estimate)
        self.iw = est.sums / self.play
        self.cum_iw += self.iw
        self.earned_iw += float(self.iw @ self.play)
        self.reg_est = self.cum_iw.max() - self.earned_iw
        if self.reg_est > self.threshold + self.radius:
            self.fallback = Exp3Fallback(self.d)
            self.switch_epoch = self.t
        return uhat


@dataclass
class BanditTrajectory:
    """Per-epoch log of one bandit run (arrays indexed by epoch)."""

    meta: dict
    t: np.ndarray
    B: np.ndarray
    eps: np.ndarray
    round_end: np.ndarray          # cumulative rounds T_t
    tgap_mixed: np.ndarray         # total gap of the played mixed profile
    mixed: list                    # per player (E, d_i) played strategies
    inner: list                    # per player (E, d_i) inner OMWU iterates
    estimates: list                # per player (E, d_i) Uhat, [0,1] units
    recovered: list                # per player (E, d_i) uhat
    counts: list                   # per player (E, d_i) sample counts
    unsampled: np.ndarray          # (E, n) counts of never-sampled actions
    true_mixed_avg: list | None    # audit: true average utility vectors
    true_inner: list | None        # audit: true utility at inner profiles
    delta_inf: np.ndarray | None   # audit: ||Uhat - truth||_inf
    delta_bound: np.ndarray | None  # audit: high-probability bound
    iw_estimates: list | None      # monitor: per-epoch IW vectors
    reg_est: np.ndarray | None     # monitor: anytime regret estimate
    radius: np.ndarray | None      # monitor: confidence radii
    reg_threshold: np.ndarray | None
    switch_epoch: list | None      # per player, first epoch the switch fired
    actions: list | None           # optional per-round action log

    @property
    def n(self) -> int:
        return self.unsampled.shape[1]

    @property
    def num_epochs(self) -> int:
        return len(self.t)

    def round_gaps(self) -> np.ndarray:
        """Real-time gap of the round-indexed play, one entry per round.

        The strategy is constant within an epoch, so the per-round sequence
        repeats each epoch's gap B_t times.
        """
        return np.repeat(self.tgap_mixed, self.B)


def run_bandit(game: PolymatrixGame, schedule: EpochSchedule, eta=None, seed=0,
               delta=0.05, epochs=12, audit=True, monitor=True, monitor_c=4.0,
               record_actions=False) -> BanditTrajectory:
    """Simulate the epoch-based bandit dynamics on a polymatrix game.

    Every player runs the same schedule.  Each epoch plays the mixed average
    for B_t rounds with fresh independent action draws per round and player,
    performs one OMWU update on the reconstructed estimate, and logs the
    total gap of the played profile.  A certified run needs a theory
    schedule and eta <= 1/(6n); violations warn and flag the run.
    """
    n = game.n
    if n < 2:
        raise ValueError("bandit dynamics need at least two players")
    if eta is None:
        eta = bandit_step_size(n)
    certified = schedule.certified and eta <= bandit_step_size(n) + 1e-12
    if not certified:
        warnings.warn(
            "non-certified bandit run: need a theory schedule and eta <= 1/(6n)",
            stacklevel=2,
        )
    rng = np.random.default_rng(seed)
    counts_d = game.action_counts
    dmax = game.dimensionality
    offset, scale = float(n - 1), 2.0 * float(n - 1)
    players = [BanditPlayer(d, eta, delta, monitor_c if monitor else math.inf)
               for d in counts_d]

    E = epochs
    t_arr = np.arange(1, E + 1)
    B_arr = np.array([schedule.epoch_length(t, dmax) for t in t_arr])
    eps_arr = np.array([schedule.mixing(t) for t in t_arr])
    round_end = np.cumsum(B_arr)
    tgap_mixed = np.empty(E)
    mixed = [np.empty((E, d)) for d in counts_d]
    inner = [np.empty((E, d)) for d in counts_d]
    estimates = [np.empty((E, d)) for d in counts_d]
    recovered = [np.empty((E, d)) for d in counts_d]
    counts = [np.empty((E, d), dtype=int) for d in counts_d]
    unsampled = np.zeros((E, n), dtype=int)
    true_mixed_avg = [np.full((E, d), np.nan) for d in counts_d] if audit else None
    true_inner = [np.full((E, d), np.nan) for d in counts_d] if audit else None
    delta_inf = np.full((E, n), np.nan) if audit else None
    delta_bnd = np.full((E, n), np.nan) if audit else None
    iw_all = [np.full((E, d), np.nan) for d in counts_d] if monitor else None
    reg_est = np.full((E, n), np.nan) if monitor else None
    radius = np.full((E, n), np.nan) if monitor else None
    reg_threshold = np.full(E, np.nan) if monitor else None
    action_log = [[] for _ in range(n)] if record_actions else None

    edge_mats = [[(j, game.edges[(i, j)]) for j in game.neighbors(i)] for i in range(n)]

    def rewards01(i, a):
        """Player i's [0, 1] rewards at the players' actions a: one array
        per player, or one round's actions."""
        raw = sum((m[a[i], a[j]] for j, m in edge_mats[i]), np.zeros(np.shape(a[i])))
        return (raw + offset) / scale

    for idx, t in enumerate(t_arr):
        B = int(B_arr[idx])
        eps = float(eps_arr[idx])
        plays = [p.begin_epoch(B, eps) for p in players]
        for i in range(n):
            mixed[i][idx] = plays[i]

        if not any(p.switched for p in players):
            acts = [rng.choice(counts_d[i], size=B, p=plays[i]) for i in range(n)]
            r01 = [rewards01(i, acts) for i in range(n)]
        else:
            # Per-round play once someone switched, so fallback learners
            # update within the epoch.
            acts = [np.empty(B, dtype=int) for _ in range(n)]
            r01 = [np.empty(B) for _ in range(n)]
            for k in range(B):
                a = [rng.choice(d, p=p.round_strategy()) for d, p in zip(counts_d, players)]
                for i, p in enumerate(players):
                    acts[i][k] = a[i]
                    r01[i][k] = rewards01(i, a)
                    p.observe_round(a[i], r01[i][k])

        if record_actions:
            for i in range(n):
                action_log[i].append(acts[i])

        for i, p in enumerate(players):
            est = estimate_epoch(acts[i], r01[i], counts_d[i])
            estimates[i][idx] = est.estimate
            counts[i][idx] = est.counts
            unsampled[idx, i] = int(est.unsampled.sum())
            if p.switched:
                recovered[i][idx] = np.nan
                inner[i][idx] = np.nan
                continue
            inner[i][idx] = p.learner.last_inner
            recovered[i][idx] = p.end_epoch(est)
            if monitor:
                iw_all[i][idx] = p.iw
                reg_est[idx, i] = p.reg_est
                radius[idx, i] = p.radius

        if monitor:
            reg_threshold[idx] = players[0].threshold

        if audit and not any(p.switched for p in players):
            inner_profile = [x[idx] for x in inner]
            for i in range(n):
                true_mixed_avg[i][idx] = (game.utility_vector(i, plays) + offset) / scale
                true_inner[i][idx] = (game.utility_vector(i, inner_profile) + offset) / scale
                delta_inf[idx, i] = np.abs(estimates[i][idx] - true_mixed_avg[i][idx]).max()
                delta_bnd[idx, i] = estimation_bound(dmax, B, eps, t, delta)

        tgap_mixed[idx] = game.total_gap(plays)

    meta = {
        "game": game.to_dict(),
        "game_name": game.name,
        "schedule": schedule.to_dict(),
        "eta": eta,
        "seed": seed,
        "delta": delta,
        "epochs": epochs,
        "certified": certified,
        "monitor_c": monitor_c,
        "reward_map": {"offset": offset, "scale": scale},
        "prng": "numpy-PCG64",
    }
    return BanditTrajectory(
        meta, t_arr, B_arr, eps_arr, round_end, tgap_mixed, mixed, inner,
        estimates, recovered, counts, unsampled, true_mixed_avg, true_inner,
        delta_inf, delta_bnd, iw_all, reg_est, radius, reg_threshold,
        [p.switch_epoch for p in players], action_log,
    )


# -- audits ------------------------------------------------------------------


def estimation_error_audit(traj: BanditTrajectory) -> dict:
    """Per-epoch, per-player estimation errors against the stored bound."""
    if traj.delta_inf is None:
        raise ValueError("trajectory was not run in audit mode")
    violated = traj.delta_inf > traj.delta_bound
    return {
        "t": traj.t,
        "delta_inf": traj.delta_inf,
        "bound": traj.delta_bound,
        "violated": violated,
        "violations": int(np.nansum(violated)),
    }


def recovery_error_audit(traj: BanditTrajectory) -> dict:
    """Check the reconstruction-error inequalities at every epoch.

    With delta^t = uhat^t - u^t (u^t the true utility vector at the inner
    profile, [0, 1] units) and Delta^t = Uhat^t - true epoch average:

        ||delta^t||_inf   <= ||t Delta^t||_inf + ||(t-1) Delta^{t-1}||_inf + 2 eps_t
        ||delta^t||_inf^2 <= 3 ||t Delta^t||^2 + 3 ||(t-1) Delta^{t-1}||^2 + 12 eps_t^2

    Returns the slacks (rhs - lhs), which must be nonnegative.
    """
    if traj.true_inner is None:
        raise ValueError("trajectory was not run in audit mode")
    E, n = traj.delta_inf.shape
    slack1 = np.empty((E, n))
    slack2 = np.empty((E, n))
    for i in range(n):
        delta = traj.recovered[i] - traj.true_inner[i]
        dinf = np.abs(delta).max(axis=1)
        tD = traj.t * traj.delta_inf[:, i]
        tD_prev = np.concatenate([[0.0], tD[:-1]])
        rhs1 = tD + tD_prev + 2.0 * traj.eps
        slack1[:, i] = rhs1 - dinf
        slack2[:, i] = 3.0 * tD**2 + 3.0 * tD_prev**2 + 12.0 * traj.eps**2 - dinf**2
    return {"slack_first_order": slack1, "slack_second_order": slack2}


def regret_error_bound_audit(traj: BanditTrajectory) -> dict:
    """Check the regret bound of the inner iterates against true utilities.

    For each player and every prefix length T, the regret of the inner OMWU
    iterates measured on the true ([0, 1]-unit) utility sequence must not
    exceed

        log(d_i)/eta + 4 eta sum_t ||u^t - u^{t-1}||_inf^2
        - 1/(8 eta) sum_t ||x^t - x^{t-1}||_1^2
        + 2 ||T Delta^T||_inf + 26 eta sum_{t<T} ||t Delta^t||_inf^2
        + 4 sum_t eps_t + 16 pi^2 eta

    with u^0 = 0 and x^0 = x^1.  Returns (E, n) arrays of regret, bound and
    slack, one row per prefix.
    """
    if traj.true_inner is None:
        raise ValueError("trajectory was not run in audit mode")
    eta = traj.meta["eta"]
    E, n = traj.delta_inf.shape
    regret = np.empty((E, n))
    bound = np.empty((E, n))
    for i in range(n):
        us = traj.true_inner[i]
        xs = traj.inner[i]
        d_i = us.shape[1]
        cum_u = np.cumsum(us, axis=0)
        earned = np.cumsum(np.einsum("td,td->t", xs, us))
        regret[:, i] = cum_u.max(axis=1) - earned
        du2 = np.abs(np.diff(us, axis=0, prepend=np.zeros((1, d_i)))).max(axis=1) ** 2
        dx2 = np.abs(np.diff(xs, axis=0, prepend=xs[:1])).sum(axis=1) ** 2
        tD2 = (traj.t * traj.delta_inf[:, i]) ** 2
        tD2_before = np.concatenate([[0.0], np.cumsum(tD2)[:-1]])  # sum over t < T
        bound[:, i] = (
            np.log(d_i) / eta
            + 4.0 * eta * np.cumsum(du2)
            - np.cumsum(dx2) / (8.0 * eta)
            + 2.0 * traj.t * traj.delta_inf[:, i]
            + 26.0 * eta * tD2_before
            + 4.0 * np.cumsum(traj.eps)
            + 16.0 * np.pi**2 * eta
        )
    return {"regret": regret, "bound": bound, "slack": bound - regret}


# -- adversarial environment ------------------------------------------------


def run_bandit_vs_environment(d, utility_fn, schedule: EpochSchedule, eta,
                              seed=0, delta=0.05, monitor_c=4.0, epochs=50,
                              stop_on_switch=True) -> dict:
    """One player's bandit pipeline against an arbitrary environment.

    utility_fn(t) returns the true utility vector in [0, 1]^d used for every
    round of epoch t; the player observes only sampled entries.  Runs the
    estimation/reconstruction/OMWU pipeline with the importance-weighted
    regret monitor, and switches to the Exp3-style fallback when it fires.
    Returns per-epoch monitor statistics and the true regret.
    """
    rng = np.random.default_rng(seed)
    player = BanditPlayer(d, eta, delta, monitor_c)
    cum_true = np.zeros(d)
    earned_true = 0.0
    rows = {"t": [], "B": [], "reg_est": [], "radius": [], "threshold": [],
            "true_reg": []}

    for t in range(1, epochs + 1):
        B = schedule.epoch_length(t, d)
        eps = schedule.mixing(t)
        v = np.asarray(utility_fn(t), dtype=float)
        if v.min() < 0.0 or v.max() > 1.0:
            raise DataError("environment utilities must lie in [0, 1]")

        play = player.begin_epoch(B, eps)
        if not player.switched:
            acts = rng.choice(d, size=B, p=play)
            player.end_epoch(estimate_epoch(acts, v[acts], d))
            cum_true += B * v
            earned_true += B * float(play @ v)
        else:
            for _ in range(B):
                p = player.round_strategy()
                a = int(rng.choice(d, p=p))
                player.observe_round(a, v[a])
                cum_true += v
                earned_true += float(p @ v)

        rows["t"].append(t)
        rows["B"].append(B)
        rows["reg_est"].append(player.reg_est)
        rows["radius"].append(player.radius)
        rows["threshold"].append(player.threshold)
        rows["true_reg"].append(cum_true.max() - earned_true)
        if stop_on_switch and player.switched:
            break

    return {
        "switch_epoch": player.switch_epoch,
        "decision": "switch" if player.switched else "continue",
        **{k: np.array(vv) for k, vv in rows.items()},
    }


# -- persistence -------------------------------------------------------------


def bandit_csv_lines(traj: BanditTrajectory):
    """Rows t, B, eps, tgap_mixed_avg, delta_inf_1..n, bound, unsampled_1..n."""
    n = traj.n
    header = (
        ["t", "B", "eps", "tgap_mixed_avg"]
        + [f"delta_inf_{i + 1}" for i in range(n)]
        + ["bound"]
        + [f"unsampled_{i + 1}" for i in range(n)]
    )
    if traj.delta_inf is not None:
        audit = list(traj.delta_inf.T) + [traj.delta_bound[:, 0]]
    else:
        audit = [np.full(traj.num_epochs, np.nan)] * (n + 1)
    columns = [traj.t, traj.B, traj.eps, traj.tgap_mixed] + audit + list(traj.unsampled.T)
    yield from _csv_lines(header, columns)
