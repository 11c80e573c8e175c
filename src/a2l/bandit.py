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

An action never drawn in the epoch gets estimate 0; the trajectory's
``unsampled`` column counts such actions.  The averaging and the
reconstruction of the utility vector at the (unplayed) inner iterate,

    uhat^t = t * Uhat^t - (t - 1) * Uhat^{t-1},

are the package's one reduction, ``reduction.A2L``, wrapped around OMWU
and fed Uhat^t once per epoch.  An importance-weighted regret monitor
passes a player to Exp3 (``learners.AnytimeMWU`` on importance-weighted
rewards, learning round by round) once its regret estimate exceeds
c * T_t^{4/5} beyond a confidence radius (T_t the cumulative round count;
monitor_c = inf never switches).  ``BanditPipeline`` runs this pipeline
for all players as the rows of one stacked state of shape (n, d_max): one
``A2L(OMWU)`` and one ``learners.FallbackSwitch``, with each player's
actions beyond its own count padded to exact zeros.  ``run_bandit``
drives it on a game; ``run_bandit_vs_environment`` is its single-player
use, without a row axis, against an environment.

Sampling: the estimator and the monitor need only each player's per-action
sample counts and reward sums, so ``JointSampler`` draws an epoch as those
statistics, with the law of B_t i.i.d. rounds and memory that does not grow
with B_t.  After a monitor switch ``_play_rounds`` plays round by round,
with the actions and generator stream of one ``Generator.choice`` per
player and round.

Schedules: "theory" uses B_t = t^4, "theory_d" uses B_t = d * t^4 (d = max
action count), both with eps_t = 1/t; anything else is "custom", which runs
but is flagged non-certified (``certificate_misses``).
B_t must fit in int64, the multinomial sampler's limit.  A run evaluates
both rules over the array of its epochs in one numpy pass.

Rewards: built-in games pay in [-(n-1), n-1], so each player's bandit reward
is mapped affinely through r -> (r + (n-1)) / (2(n-1)) into [0, 1] before
estimation.  The map is monotone and per-player affine, hence preserves
argmax structure and regret ordering; gap statistics are reported in
original payoff units.  A game whose mapped rewards leave [0, 1], or of one
player, whose map divides by zero, is refused when its ``JointSampler`` is
built, before any draw (``check_reward_range``, exact, from the payoff
matrices' row extremes).

A run logs only what play produces: the played and inner strategies, the
estimates and their counts, and the monitor columns.  In simulator runs
the game is known: ``audit_truths`` evaluates the true utility vectors of
every logged profile in one batched call, once per run, and the audits and
the CSV writer take the run's log and those truths.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import (LEARNER_RULES, PRNG_NAME, _cumulative_regrets, _number, check_count,
                       rule_errors)
from .games import PolymatrixGame
from .learners import OMWU, FallbackSwitch, padding
from .reduction import A2L


class DataError(ValueError):
    """Bandit rewards or environment utilities that are not finite values
    in the normalized [0, 1] range, or not one per action; or a game of one
    player, whose rewards have no normalized range."""


class ScheduleError(ValueError):
    """Epoch schedule parameters violate the type invariants."""


class FallbackEpochError(RuntimeError):
    """A post-switch epoch is too long to play round by round.

    ``epoch`` is the epoch t whose length exceeded ``ROUND_EPOCH_CAP``.
    """

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


# Joint action spaces of at most CELL_CAP cells are sampled as one
# multinomial draw over a reward table; larger ones CHUNK_ROUNDS rounds at
# a time.
CELL_CAP = 2**16
CHUNK_ROUNDS = 2**16
INT64_MAX = np.iinfo(np.int64).max
# Generator.choice's tolerance on the sum of a probability vector.
CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)
# After a monitor switch every round is played in Python, at about 18-22 us
# per round for two players with three actions (2-core x86-64 VM, Python
# 3.11, numpy 2.4), so this cap is three to four minutes of play.  Longer
# epochs would run for hours to years (B_t = t^4 passes 10^12 near
# t = 1000), so they raise instead; the longest post-switch epoch any suite,
# test or benchmark plays has 2800 rounds.
ROUND_EPOCH_CAP = 10**7
# The IW monitor's threshold constant c in c * T^{4/5} when none is given.
MONITOR_C = 4.0


def bandit_step_size(n: int) -> float:
    """Largest certified step size for bandit runs, 1/(6n)."""
    return 1.0 / (6.0 * n)


def certificate_misses(schedule, eta, n) -> list:
    """The bandit certificate's conditions that an n-player run at ``eta`` (None:
    ``bandit_step_size``) misses, as ``dynamics.certificate_misses`` lists them,
    with player None: a theory schedule and eta <= 1/(6n); not yet monitor_c."""
    limit = bandit_step_size(n)
    return [(None, field, need) for field, miss, need in (
        ("schedule", schedule.mode == "custom", "a theory schedule (B_t >= t^4, eps_t = 1/t)"),
        ("eta", eta is not None and eta > limit + 1e-12, f"{{}} <= 1/(6n) = {limit}")) if miss]


@dataclass(frozen=True)
class EpochSchedule:
    """Epoch length rule t -> B_t and mixing rule t -> eps_t.

    theory modes satisfy B_t >= t^4 and eps_t = 1/t exactly and read no
    other field, so they refuse a non-default one; custom rules
    B_t = ceil(coeff * t^power), eps_t = min(1, eps_coeff * t^eps_power) run
    flagged as non-certified.  The four numbers must be finite, and
    eps_coeff > 0; they are held as floats.
    """

    mode: str = "theory"
    coeff: float = 1.0
    power: float = 4.0
    eps_coeff: float = 1.0
    eps_power: float = -1.0

    def __post_init__(self):
        if self.mode not in ("theory", "theory_d", "custom"):
            raise ScheduleError(f"unknown schedule mode {self.mode!r}")
        for name in ("coeff", "power", "eps_coeff", "eps_power"):
            value = getattr(self, name)
            if not _number(value):
                raise ScheduleError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ScheduleError(f"{name} must be finite, got {value!r}")
            if self.mode != "custom" and value != getattr(EpochSchedule, name):
                raise ScheduleError(f"{name} is not read by a {self.mode} schedule, "
                                    f"got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.mode == "custom" and self.coeff < 1:
            raise ScheduleError("custom schedule needs coeff >= 1 so B_t >= 1")
        if self.eps_coeff <= 0:
            raise ScheduleError(f"eps_coeff must be > 0 so eps_t > 0, got {self.eps_coeff!r}")

    @classmethod
    def custom(cls, coeff, power, eps_coeff=1.0, eps_power=-1.0):
        return cls(mode="custom", coeff=coeff, power=power,
                   eps_coeff=eps_coeff, eps_power=eps_power)

    # Both rules take an epoch t >= 1 (giving an int, a float) or an array
    # of them (int64, float64), in one numpy pass.  float_power is the C
    # library's pow, as Python's ** is; np.power may use other code, such as
    # AVX-512's, which differs in the last bit.  A t^p past the float range
    # is inf: B_t is refused and eps_t capped at 1.

    def epoch_length(self, t, d: int):
        """B_t; raises ``ScheduleError`` naming the first t at which it
        exceeds int64."""
        ts = _epochs(t)
        if self.mode == "custom":
            with np.errstate(over="ignore"):
                B = np.maximum(1.0, np.ceil(self.coeff * np.float_power(ts, self.power)))
            bad = ~(B < 2.0**63)
        else:
            scale = d if self.mode == "theory_d" else 1
            # the largest t with scale * t^4 <= INT64_MAX
            bad = ts > math.isqrt(math.isqrt(INT64_MAX // scale))
        if bad.any():
            raise ScheduleError(f"epoch length B_t at t={ts[bad.argmax()]} exceeds int64")
        B = B.astype(np.int64) if self.mode == "custom" else scale * ts**4
        return B if np.ndim(t) else int(B[0])

    def mixing(self, t):
        """eps_t; raises ``ScheduleError`` naming the first t at which it
        underflows to 0."""
        ts = _epochs(t)
        if self.mode != "custom":
            eps = 1.0 / ts
        else:
            with np.errstate(over="ignore"):
                eps = np.minimum(1.0, self.eps_coeff * np.float_power(ts, self.eps_power))
            bad = ~(eps > 0.0)
            if bad.any():
                first = bad.argmax()
                raise ScheduleError(f"mixing rate must be in (0, 1], got {float(eps[first])} "
                                    f"at t={ts[first]}")
        return eps if np.ndim(t) else float(eps[0])


def _epochs(t) -> np.ndarray:
    """The epochs t as a flat int64 array; ``ScheduleError`` past int64."""
    try:
        return np.asarray(t, dtype=np.int64).reshape(-1)
    except OverflowError:
        raise ScheduleError(f"epoch t={t} exceeds int64") from None


def epoch_estimate(counts, sums, out=None) -> np.ndarray:
    """Empirical per-action means from one epoch's sample counts and [0, 1]
    reward sums, in ``out`` when given.  A never-sampled action, padded ones
    included, has sum 0, so its divisor 1 gives it estimate 0."""
    return np.divide(sums, np.maximum(counts, 1), out)


def estimate_epoch(actions, rewards, d) -> np.ndarray:
    """Empirical per-action means of one epoch's per-round bandit feedback.

    rewards must already be normalized to [0, 1]; never-sampled actions get
    estimate 0.
    """
    actions = np.asarray(actions, dtype=int)
    rewards = np.asarray(rewards, dtype=float)
    if actions.shape != rewards.shape or actions.ndim != 1:
        raise ValueError("actions and rewards must be equal-length vectors")
    if rewards.size and not -1e-12 <= rewards.min() <= rewards.max() <= 1.0 + 1e-12:
        raise DataError(f"rewards outside [0, 1] after normalization: "
                        f"[{rewards.min()}, {rewards.max()}]")
    return epoch_estimate(np.bincount(actions, minlength=d),
                          np.bincount(actions, weights=rewards, minlength=d))


def unit_rewards(raw, n):
    """The reward map r -> (r + (n-1)) / (2(n-1)) of an n-player game."""
    return (raw + float(n - 1)) / (2.0 * float(n - 1))


def check_reward_range(game: PolymatrixGame) -> list:
    """Each player's exact least and largest mapped reward over pure
    profiles, as (lo, hi) pairs; raises ``DataError`` for a game of fewer
    than two players, whose reward map divides by 2(n - 1) = 0, and naming
    the first player whose range leaves [0, 1] by more than 1e-12.

    Each neighbour j adds A_ij[a_i, a_j] at its own action, so summing the
    row minima (maxima) in the order ``JointSampler`` adds rewards gives,
    float addition being monotone, the exact least (largest) reward.
    """
    if game.n < 2:
        raise DataError(f"bandit rewards need at least two players, got {game.n}")
    ranges = []
    for i, d in enumerate(game.action_counts):
        mats = [game.edges[(i, j)] for j in game.neighbors(i)]
        lo = unit_rewards(sum((m.min(axis=1) for m in mats), np.zeros(d)), game.n).min()
        hi = unit_rewards(sum((m.max(axis=1) for m in mats), np.zeros(d)), game.n).max()
        if lo < -1e-12 or hi > 1.0 + 1e-12:
            raise DataError(f"player {i}: rewards outside [0, 1] after normalization: "
                            f"[{lo}, {hi}]")
        ranges.append((lo, hi))
    return ranges


class JointSampler:
    """Draws the players' per-action counts and [0, 1] reward sums of one
    epoch at fixed mixed strategies, with the law of i.i.d. rounds.

    Strategies, counts and sums are stacked (n, d_max) arrays, one row per
    player; padded actions have strategy 0 and get 0 counts and 0 sums.  Up
    to ``CELL_CAP`` joint cells, each player's reward table R_i over the
    joint cells is built once; an epoch draws the joint counts N ~
    Multinomial(B, x_1 (x) ... (x) x_n) and reduces N and N * R_i over the
    other players' axes, at O(prod_i d_i) cost whatever B is.  Larger joint
    spaces draw each player's actions ``CHUNK_ROUNDS`` rounds at a time and
    reduce every chunk to counts and sums.  A game whose rewards leave [0, 1]
    is refused here (``check_reward_range``), before any draw.
    """

    def __init__(self, game: PolymatrixGame):
        check_reward_range(game)
        n = game.n
        self.dims = tuple(game.action_counts)
        self.width = max(self.dims)
        self.others = [tuple(k for k in range(n) if k != i) for i in range(n)]
        self.edge_mats = [[(j, game.edges[(i, j)]) for j in game.neighbors(i)]
                          for i in range(n)]
        self.tables = None
        if math.prod(self.dims) <= CELL_CAP:
            grid = np.indices(self.dims, sparse=True)
            self.tables = [np.broadcast_to(self._rewards01(i, grid), self.dims)
                           for i in range(n)]

    def _rewards01(self, i, a):
        """Player i's [0, 1] rewards at the players' actions a: one array per
        player (broadcast together), or one round's actions."""
        raw = sum((m[a[i], a[j]] for j, m in self.edge_mats[i]), np.zeros(np.shape(a[i])))
        return unit_rewards(raw, len(self.dims))

    def _round_rewards(self, a) -> list:
        """Every player's [0, 1] reward in one round of actions a."""
        if self.tables is None:
            return [float(self._rewards01(i, a)) for i in range(len(self.dims))]
        a = tuple(a)
        return [float(R[a]) for R in self.tables]

    def epoch(self, rng, plays, B):
        """One epoch of B rounds at the stacked strategies ``plays``; returns
        the (n, d_max) sample counts and reward sums."""
        counts = np.zeros(plays.shape, dtype=np.int64)
        sums = np.zeros(plays.shape)
        if self.tables is None:
            for start in range(0, B, CHUNK_ROUNDS):
                size = min(CHUNK_ROUNDS, B - start)
                acts = [rng.choice(d, size=size, p=x[:d]) for d, x in zip(self.dims, plays)]
                for i, d in enumerate(self.dims):
                    r = self._rewards01(i, acts)
                    counts[i, :d] += np.bincount(acts[i], minlength=d)
                    sums[i, :d] += np.bincount(acts[i], weights=r, minlength=d)
            return counts, sums
        xs = [x[:d] for x, d in zip(plays, self.dims)]
        N = rng.multinomial(B, functools.reduce(np.multiply.outer, xs).ravel())
        N = N.reshape(self.dims)
        for i, (R, others, d) in enumerate(zip(self.tables, self.others, self.dims)):
            counts[i, :d] = np.add.reduce(N, others)
            sums[i, :d] = np.add.reduce(N * R, others)
        return counts, sums


def estimation_bound(d, B, eps, t, delta):
    """High-probability bound on ||Uhat - true average||_inf for one epoch."""
    return 2.0 * np.sqrt(d * np.log(B * t * t / delta) / (B * eps))


def _confidence_radius(spread, d_i, t, delta):
    """Confidence radius of the importance-weighted regret estimate at epoch
    t, from the spread sum_{k<=t} B_k (d_i/eps_k)^2:

    4 * sqrt(spread) * log(pi^2 d_i t^2 / (3 delta)); with eps_k = 1/k this
    is 4 d_i sqrt(sum_k k^2 B_k) log(pi^2 d_i t^2/(3 delta)).  spread and
    d_i may be per-row arrays.
    """
    return 4.0 * np.sqrt(spread) * np.log(np.pi**2 * d_i * t * t / (3.0 * delta))


def iw_radius(B_hist, eps_hist, d_i, t, delta):
    """The monitor's confidence radius from the whole epoch history."""
    B_hist = np.asarray(B_hist, dtype=float)
    eps_hist = np.asarray(eps_hist, dtype=float)
    return _confidence_radius(float((B_hist * (d_i / eps_hist) ** 2).sum()), d_i, t, delta)


class BanditPipeline:
    """Every player's epoch pipeline, as the rows of one stacked state.

    counts holds one action count per row (player), or one count for a
    single player without a row axis; B and eps are the run's epoch lengths
    and mixing rates.  Its OMWU, strategies, counts, sums, estimates and IW
    vectors have shape (rows, d_max); a row's padded actions stay at exact
    zeros.  Each epoch's mixing weights, and the monitor's radius and
    threshold, depend on the schedule alone and are computed for every
    epoch when the pipeline is built: ``radius`` (E, ...) and ``threshold``
    (E,) hold the monitor's; per epoch, from the sums, it adds the IW
    utility vector and its value under the play to ``switch``, a
    ``learners.FallbackSwitch``, at the limit threshold + radius.  A
    switched row plays Exp3, the switch's fallback with scale d_i, fed one
    IW reward vector per round (``round_strategy``, ``observe_round``; rows
    only), and its reduction runs on unread.  A caller reads the inner
    iterates and the means only through ``begin_epoch(inner=)`` and
    ``end_epoch(estimate=)``.
    """

    def __init__(self, counts, eta, B, eps, delta=0.05, monitor_c=MONITOR_C):
        self.counts = np.asarray(counts)
        col = self.counts[..., None]
        pad = padding(col) if self.counts.min() < self.counts.max() else None
        self._real = True if pad is None else pad == 0
        self.learner = A2L(OMWU(self.counts.shape + (self.counts.max(),), eta, bias=pad))
        eps = np.asarray(eps, dtype=float)
        d = col.astype(float)
        # Epoch t plays keep[t] * xbar + mix[t]: 1 - eps_t, and eps_t / d_i
        # at real actions and 0 at padded ones, where xbar is an exact 0.
        self._keep = (1.0 - eps).tolist()
        self._mix = np.divide.outer(eps, d)
        if pad is not None:
            self._mix = np.where(pad < 0, 0.0, self._mix)
        # The monitor's plans for every epoch, computed with epochs on the
        # last axis and stored one row per epoch.  cumsum adds the spread's
        # terms epoch by epoch; float_power squares with the C library's
        # pow, as Python's ** does (** on an array multiplies, which rounds
        # differently in about one value in 1000).
        spread = np.cumsum(np.asarray(B, dtype=float) * np.float_power(d / eps, 2), axis=-1)
        radius = _confidence_radius(spread, d, np.arange(1.0, len(eps) + 1.0), delta)
        # Summed as Python ints, which do not overflow.
        self.rounds = np.array(list(itertools.accumulate(np.asarray(B).tolist())), dtype=float)
        self.threshold = monitor_c * np.float_power(self.rounds, 0.8)
        self.radius = radius.T
        self._limit = (self.threshold + radius).T
        self.switch = FallbackSwitch(self.learner.shape, col, scale=d)
        self.t = 0
        self.play = None
        self._p = None

    def begin_epoch(self, inner=None) -> np.ndarray:
        """Start the next epoch; returns the strategies played in it (a
        switched row's: its fallback's at the epoch's start).  ``inner``,
        when given, receives the reduction's inner iterates."""
        t = self.t
        self.t += 1
        play = self._keep[t] * self.learner.next_strategy(inner=inner)
        play += self._mix[t]
        self.play = self.switch.play(play)
        return self.play

    def round_strategy(self) -> np.ndarray:
        """Strategies for the next round of the per-round path."""
        sw = self.switch
        self._p = sw.fallback.next_strategy() if sw.all else sw.play(self.play.copy())
        return self._p

    def observe_round(self, actions, rewards01) -> None:
        """One round's actions and [0, 1] rewards, one per row; only the
        switched rows learn within an epoch, from the importance-weighted
        reward r / p at the drawn action."""
        iw = np.zeros(self._p.shape)
        for i, (a, r, on) in enumerate(zip(actions, rewards01, self.switch.switched.tolist())):
            if on:
                iw[i, a] = r / self._p[i, a]
        self.switch.observe(iw)

    def end_epoch(self, counts, sums, estimate=None) -> np.ndarray:
        """Feed the epoch's (rows, d_max) sample counts and [0, 1] reward
        sums; returns uhat^t.  The reduction takes their per-action means,
        ``epoch_estimate``'s, written to ``estimate`` when given; the
        monitor takes the IW vector sums / play, 0 where the play is 0."""
        uhat = self.learner.observe(epoch_estimate(counts, sums, estimate))
        # Padded actions have no IW value; a switched row's Exp3 may also
        # play 0 on a real action.
        live = self.play > 0 if self.switch.any else self._real
        if live is True:
            iw = sums / self.play
        else:
            iw = np.divide(sums, self.play, out=np.zeros(self.play.shape), where=live)
        self.switch.add(iw, np.vecdot(iw, self.play), self._limit[self.t - 1], self.t)
        return uhat


@dataclass
class BanditTrajectory:
    """Per-epoch log of one bandit run (arrays indexed by epoch)."""

    meta: dict
    t: np.ndarray
    B: np.ndarray
    eps: np.ndarray
    round_end: np.ndarray          # cumulative rounds T_t, float64
    tgap_mixed: np.ndarray         # total gap of the played mixed profile
    mixed: list                    # per player (E, d_i) played strategies
    inner: list                    # per player (E, d_i) inner OMWU iterates
    estimates: list                # per player (E, d_i) Uhat, [0,1] units
    recovered: list                # per player (E, d_i) uhat
    counts: list                   # per player (E, d_i) sample counts
    unsampled: np.ndarray          # (E, n) counts of never-sampled actions
    reg_est: np.ndarray            # monitor: anytime regret estimate
    radius: np.ndarray             # monitor: confidence radii
    switch_epoch: list             # per player, first epoch the switch fired

    @property
    def n(self) -> int:
        return self.unsampled.shape[1]

    @property
    def num_epochs(self) -> int:
        return len(self.t)


def _draw_action(p, u) -> int:
    """The action ``Generator.choice(len(p), p=p)`` draws with the uniform
    double u, by choice's own lookup: after its check that p is a
    distribution, the cumulative sums of p are divided by their last entry
    and searched for u (``searchsorted(side="right")``).  In plain floats (p
    a list), which round every step as numpy does and cost less at small d."""
    cdf = list(itertools.accumulate(p))
    total = cdf[-1]
    if not (abs(total - 1.0) <= CHOICE_ATOL and min(p) >= 0.0):  # NaN fails too
        raise ValueError(f"round strategy is not a probability vector: {list(p)}")
    return bisect.bisect_right([c / total for c in cdf], u)


def _play_rounds(rng, sampler, pipeline, B):
    """One epoch played round by round, so that fallback rows learn within
    it; returns the stacked per-action counts and reward sums.

    Each chunk of at most ``CHUNK_ROUNDS`` rounds draws its uniforms in one
    call, round by round and player by player: the doubles, in the order,
    that one ``rng.choice`` per player and round would draw.
    """
    dims = sampler.dims
    counts = [[0] * sampler.width for _ in dims]
    sums = [[0.0] * sampler.width for _ in dims]
    for start in range(0, B, CHUNK_ROUNDS):
        for u in rng.random((min(CHUNK_ROUNDS, B - start), len(dims))):
            ps = pipeline.round_strategy().tolist()
            a = [_draw_action(p[:d], ui) for p, d, ui in zip(ps, dims, u.tolist())]
            r = sampler._round_rewards(a)
            for c, s, ai, ri in zip(counts, sums, a, r):
                c[ai] += 1
                s[ai] += ri
            pipeline.observe_round(a, r)
    return np.array(counts, dtype=np.int64), np.array(sums)


def _check_run_args(epochs, delta, eta, monitor_c):
    check_count("epochs", epochs)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    errors = rule_errors({k: LEARNER_RULES[k] for k in ("eta", "monitor_c")},
                         {"eta": eta, "monitor_c": monitor_c})
    if errors:
        raise ValueError(errors[0])


def run_bandit(game: PolymatrixGame, schedule: EpochSchedule, eta=None, seed=0,
               delta=0.05, epochs=12, monitor_c=MONITOR_C) -> BanditTrajectory:
    """Simulate the epoch-based bandit dynamics on a polymatrix game.

    Every player runs the same schedule, as a row of one ``BanditPipeline``.
    Each epoch plays the mixed average for B_t rounds with independent
    action draws per round and player and performs one OMWU update on the
    reconstructed estimate; the epoch loop only plays and logs play, into
    (n, E, d_max) logs that the trajectory's per-player arrays are views of.
    The total gap of every played profile is evaluated after the loop.
    After a monitor switch the epoch is played round by round, and an epoch
    longer than ``ROUND_EPOCH_CAP`` raises ``FallbackEpochError``.  Monitor
    columns are logged in every run, NaN after a switch.  A game of one
    player, or whose rewards leave [0, 1], raises ``DataError`` when the
    sampler is built, before any draw.  A run that misses the certificate
    (``certificate_misses``) warns and is flagged.
    """
    n = game.n
    _check_run_args(epochs, delta, eta, monitor_c)
    if eta is None:
        eta = bandit_step_size(n)
    misses = certificate_misses(schedule, eta, n)
    if misses:
        warnings.warn("non-certified bandit run: need "
                      + " and ".join(need.format(field) for _, field, need in misses), stacklevel=2)
    rng = np.random.default_rng(seed)
    sampler = JointSampler(game)
    epoch_ts = np.arange(1, epochs + 1)
    B_arr = schedule.epoch_length(epoch_ts, sampler.width)
    eps_arr = schedule.mixing(epoch_ts)
    pipe = BanditPipeline(game.action_counts, eta, B_arr, eps_arr, delta, monitor_c)
    # Epochs before actions, so a player's (E, d_i) log is contiguous when
    # d_i = d_max.
    shape = (n, epochs, sampler.width)
    mixed, inner, estimates, recovered = (np.empty(shape) for _ in range(4))
    counts = np.empty(shape, dtype=int)
    reg_est = np.empty((epochs, n))

    for idx, B in enumerate(B_arr.tolist()):
        play = pipe.begin_epoch(inner[:, idx])
        mixed[:, idx] = play
        if not pipe.switch.any:
            epoch_counts, sums = sampler.epoch(rng, play, B)
        elif B > ROUND_EPOCH_CAP:
            raise FallbackEpochError(
                f"epoch t={idx + 1}: {B} rounds after a monitor switch exceed the "
                f"round-by-round cap of {ROUND_EPOCH_CAP}", epoch=idx + 1
            )
        else:
            epoch_counts, sums = _play_rounds(rng, sampler, pipe, B)
        counts[:, idx] = epoch_counts
        recovered[:, idx] = pipe.end_epoch(epoch_counts, sums, estimates[:, idx])
        reg_est[idx] = pipe.switch.regret

    # A switched player's pipeline is not logged after its switch epoch.
    after = pipe.switch.switched & (epoch_ts[:, None] > pipe.switch.switched_at)
    radius = np.where(after, np.nan, pipe.radius)
    reg_est[after] = inner[after.T] = recovered[after.T] = np.nan
    unsampled = (counts == 0).sum(axis=2).T - (sampler.width - pipe.counts)

    meta = {
        "game": game.to_dict(),
        "game_name": game.name,
        "schedule": asdict(schedule),
        "eta": eta,
        "seed": seed,
        "delta": delta,
        "epochs": epochs,
        "certified": not misses,
        "monitor_c": monitor_c,
        "prng": PRNG_NAME,
    }
    mixed, inner, estimates, recovered, counts = (
        [a[i, :, :d] for i, d in enumerate(game.action_counts)]
        for a in (mixed, inner, estimates, recovered, counts)
    )
    return BanditTrajectory(
        meta, epoch_ts, B_arr, eps_arr, pipe.rounds, game.total_gap(mixed),
        mixed, inner, estimates, recovered, counts, unsampled, reg_est, radius,
        [int(e) if e else None for e in pipe.switch.switched_at],
    )


# -- audits ------------------------------------------------------------------


def audit_truths(traj: BanditTrajectory, game: PolymatrixGame) -> dict:
    """The audits' truths, derived from a run's log and its game.

    Returns, in [0, 1] reward units: "mixed_avg" and "inner", per player
    (E, d_i) true utility vectors at the played profiles (each epoch's true
    average utility vector) and at the inner profiles; "delta_inf", (E, n)
    ||Uhat^t - mixed_avg^t||_inf; and "bound", (E,) its high-probability
    bound ``estimation_bound``.  Rows from the first epoch in which any
    monitor switched on, that epoch included, are NaN.
    """
    n = game.n
    switched = [e for e in traj.switch_epoch if e is not None]
    live = min(switched) - 1 if switched else traj.num_epochs

    def truths(profile):
        head = [x[:live] for x in profile]
        out = []
        for i, x in enumerate(profile):
            u = np.full(x.shape, np.nan)
            u[:live] = unit_rewards(game.utility_vector(i, head), n)
            out.append(u)
        return out

    mixed_avg = truths(traj.mixed)
    delta_inf = np.stack([np.abs(est - u).max(axis=1)
                          for est, u in zip(traj.estimates, mixed_avg)], axis=1)
    # Python ints: B_t * t^2 exceeds int64 for t > 1448.
    bound = np.array([estimation_bound(game.dimensionality, int(B), float(eps), int(t),
                                       traj.meta["delta"])
                      for t, B, eps in zip(traj.t, traj.B, traj.eps)])
    bound[live:] = np.nan
    return {"mixed_avg": mixed_avg, "inner": truths(traj.inner),
            "delta_inf": delta_inf, "bound": bound}


def estimation_error_audit(traj: BanditTrajectory, truth: dict) -> dict:
    """Per-epoch, per-player estimation errors against their bound; truth is
    the run's ``audit_truths``."""
    violated = truth["delta_inf"] > truth["bound"][:, None]
    return {
        "t": traj.t,
        "delta_inf": truth["delta_inf"],
        "bound": truth["bound"],
        "violated": violated,
        "violations": int(violated.sum()),
    }


def recovery_error_audit(traj: BanditTrajectory, truth: dict) -> dict:
    """Check the reconstruction-error inequalities at every epoch; truth is
    the run's ``audit_truths``.

    With delta^t = uhat^t - u^t (u^t the true utility vector at the inner
    profile, [0, 1] units) and Delta^t = Uhat^t - true epoch average:

        ||delta^t||_inf   <= ||t Delta^t||_inf + ||(t-1) Delta^{t-1}||_inf + 2 eps_t
        ||delta^t||_inf^2 <= 3 ||t Delta^t||^2 + 3 ||(t-1) Delta^{t-1}||^2 + 12 eps_t^2

    Returns the slacks (rhs - lhs), which must be nonnegative.
    """
    dinf = np.stack([np.abs(rec - u).max(axis=1)
                     for rec, u in zip(traj.recovered, truth["inner"])], axis=1)
    tD = traj.t[:, None] * truth["delta_inf"]
    tD_prev = np.vstack([np.zeros((1, traj.n)), tD[:-1]])
    eps = traj.eps[:, None]
    return {"slack_first_order": tD + tD_prev + 2.0 * eps - dinf,
            "slack_second_order": 3.0 * tD**2 + 3.0 * tD_prev**2 + 12.0 * eps**2 - dinf**2}


def regret_error_bound_audit(traj: BanditTrajectory, truth: dict) -> dict:
    """Check the regret bound of the inner iterates against true utilities
    (truth is the run's ``audit_truths``).

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
    eta = traj.meta["eta"]
    E, n = traj.num_epochs, traj.n
    regret = np.empty((E, n))
    bound = np.empty((E, n))
    for i in range(n):
        us = truth["inner"][i]
        xs = traj.inner[i]
        d_i = us.shape[1]
        regret[:, i] = _cumulative_regrets(xs, us)[0]
        du2 = np.abs(np.diff(us, axis=0, prepend=np.zeros((1, d_i)))).max(axis=1) ** 2
        dx2 = np.abs(np.diff(xs, axis=0, prepend=xs[:1])).sum(axis=1) ** 2
        tD = traj.t * truth["delta_inf"][:, i]
        tD2_before = np.concatenate([[0.0], np.cumsum(tD**2)[:-1]])  # sum over t < T
        bound[:, i] = (
            np.log(d_i) / eta
            + 4.0 * eta * np.cumsum(du2)
            - np.cumsum(dx2) / (8.0 * eta)
            + 2.0 * tD
            + 26.0 * eta * tD2_before
            + 4.0 * np.cumsum(traj.eps)
            + 16.0 * np.pi**2 * eta
        )
    return {"regret": regret, "bound": bound, "slack": bound - regret}


# -- adversarial environment ------------------------------------------------


def run_bandit_vs_environment(d, utility_fn, schedule: EpochSchedule, eta,
                              seed=0, delta=0.05, monitor_c=MONITOR_C, epochs=50) -> dict:
    """One player's bandit pipeline against an arbitrary environment: a
    ``BanditPipeline`` without a row axis, planned for all ``epochs``.

    utility_fn(t) returns the true utility vector in [0, 1]^d used for every
    round of epoch t (``DataError`` naming t otherwise); the player observes
    only sampled entries.  Runs the estimation/reconstruction/OMWU pipeline
    with the importance-weighted regret monitor, and stops after the epoch
    in which the switch to the Exp3-style fallback fires, so every epoch it
    plays is an epoch of the pipeline.  Returns per-epoch monitor statistics
    and the true regret, computed after the loop from the logged plays and
    utility vectors.  ``d`` follows the count rule and ``eta`` must be
    positive and finite: without a player count, None has no default.
    """
    check_count("d", d)
    if eta is None:
        raise ValueError("eta must be a positive finite number, got None: an environment "
                         "run has no player count to resolve it from")
    _check_run_args(epochs, delta, eta, monitor_c)
    rng = np.random.default_rng(seed)
    ts = np.arange(1, epochs + 1)
    B = schedule.epoch_length(ts, d)
    pipe = BanditPipeline(d, eta, B, schedule.mixing(ts), delta, monitor_c)
    plays = np.empty((epochs, d))
    utils = np.empty((epochs, d))
    reg_est = np.empty(epochs)

    for t, B_t in enumerate(B.tolist(), 1):
        v = np.asarray(utility_fn(t), dtype=float)
        if v.shape != (d,):
            raise DataError(f"epoch t={t}: environment utility vector has shape "
                            f"{v.shape}, expected ({d},)")
        lo, hi = np.minimum.reduce(v), np.maximum.reduce(v)
        if not 0.0 <= lo <= hi <= 1.0:  # NaN fails every comparison
            problem = ("are not finite" if not np.isfinite(v).all()
                       else f"lie outside [0, 1]: [{lo}, {hi}]")
            raise DataError(f"epoch t={t}: environment utilities {problem}")

        plays[t - 1] = play = pipe.begin_epoch()
        utils[t - 1] = v
        counts = rng.multinomial(B_t, play)
        pipe.end_epoch(counts, counts * v)
        reg_est[t - 1] = pipe.switch.regret
        if pipe.switch.any:
            break

    B = B[:t]
    cum_true = np.cumsum(B[:, None] * utils[:t], axis=0)
    earned_true = np.cumsum(B * np.vecdot(plays[:t], utils[:t]))
    return {
        "switch_epoch": int(pipe.switch.switched_at) if pipe.switch.any else None,
        "decision": "switch" if pipe.switch.any else "continue",
        "t": ts[:t], "B": B, "reg_est": reg_est[:t], "radius": pipe.radius[:t],
        "threshold": pipe.threshold[:t], "true_reg": cum_true.max(axis=1) - earned_true,
    }


# -- persistence -------------------------------------------------------------


def bandit_csv_columns(traj: BanditTrajectory, truth: dict):
    """Header and columns t, B, eps, tgap_mixed_avg, delta_inf_1..n, bound,
    unsampled_1..n; truth is the run's ``audit_truths``."""
    n = traj.n
    header = (
        ["t", "B", "eps", "tgap_mixed_avg"]
        + [f"delta_inf_{i + 1}" for i in range(n)]
        + ["bound"]
        + [f"unsampled_{i + 1}" for i in range(n)]
    )
    columns = ([traj.t, traj.B, traj.eps, traj.tgap_mixed] + list(truth["delta_inf"].T)
               + [truth["bound"]] + list(traj.unsampled.T))
    return header, columns
