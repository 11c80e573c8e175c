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
and fed Uhat^t once per epoch.  An importance-weighted regret monitor
passes a player to Exp3 (``learners.AnytimeMWU`` on importance-weighted
rewards, learning round by round) once its regret estimate exceeds
c * T_t^{4/5} beyond a confidence radius (T_t the cumulative round count;
monitor_c = inf never switches).  ``BanditPipeline`` runs this pipeline
for all players as the rows of one stacked state of shape (n, d_max): one
``A2L(OMWU)``, per-row monitor sums, one ``AnytimeMWU`` and a per-row
switch mask, with each player's actions beyond its own count padded to
exact zeros.  ``run_bandit`` drives it on a game; ``run_bandit_vs_environment``
is its single-player use, without a row axis, against an environment.

Sampling: the estimator and the monitor need only each player's per-action
sample counts and reward sums, so ``JointSampler`` draws an epoch as those
statistics, with the law of B_t i.i.d. rounds and memory that does not grow
with B_t.  After a monitor switch ``_play_rounds`` plays round by round,
with the actions and generator stream of one ``Generator.choice`` per
player and round.

Schedules: "theory" uses B_t = t^4, "theory_d" uses B_t = d * t^4 (d = max
action count), both with eps_t = 1/t; anything else is "custom", which runs
but is flagged non-certified.  The certified step size is eta <= 1/(6n).
B_t must fit in int64, the multinomial sampler's limit.

Rewards: built-in games pay in [-(n-1), n-1], so each player's bandit reward
is mapped affinely through r -> (r + (n-1)) / (2(n-1)) into [0, 1] before
estimation.  The map is monotone and per-player affine, hence preserves
argmax structure and regret ordering; gap statistics are reported in
original payoff units.

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
from dataclasses import dataclass

import numpy as np

from .games import PolymatrixGame
from .learners import OMWU, AnytimeMWU, padding
from .reduction import A2L


class DataError(ValueError):
    """Bandit rewards or environment utilities that are not finite values
    in the normalized [0, 1] range, or not one per action."""


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
# After a monitor switch every round is played in Python, at about 35 us per
# round for two players with three actions (2-core x86-64 VM, Python 3.11,
# numpy 2.4), so this cap is about six minutes of play.  Longer epochs
# would run for hours to years (B_t = t^4 passes 10^12 near t = 1000), so
# they raise instead; the longest post-switch epoch any suite, test or
# benchmark plays has 2800 rounds.
ROUND_EPOCH_CAP = 10**7
# The IW monitor's threshold constant c in c * T^{4/5} when none is given.
MONITOR_C = 4.0


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
        """B_t; raises ``ScheduleError`` naming t when it exceeds int64."""
        if self.mode == "theory":
            B = t**4
        elif self.mode == "theory_d":
            B = d * t**4
        else:
            try:
                B = max(1, math.ceil(self.coeff * t**self.power))
            except OverflowError:
                B = math.inf
        if B > INT64_MAX:
            raise ScheduleError(f"epoch length B_t at t={t} exceeds int64")
        return B

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


def _check_rewards(rewards, player=None):
    """Raise ``DataError`` unless every reward lies in [0, 1]; the message
    names the player when one is given."""
    lo, hi = np.min(rewards), np.max(rewards)
    if lo < -1e-12 or hi > 1.0 + 1e-12:
        who = "" if player is None else f"player {player}: "
        raise DataError(f"{who}rewards outside [0, 1] after normalization: [{lo}, {hi}]")


def epoch_estimate(counts, sums) -> EpochEstimate:
    """Empirical per-action means from one epoch's sample counts and [0, 1]
    reward sums; never-sampled actions get estimate 0 and are flagged."""
    counts = np.asarray(counts)
    sums = np.asarray(sums, dtype=float)
    unsampled = counts == 0
    estimate = np.divide(sums, counts, out=np.zeros(sums.shape), where=~unsampled)
    return EpochEstimate(sums, counts, estimate, unsampled)


def estimate_epoch(actions, rewards, d) -> EpochEstimate:
    """Empirical per-action means of one epoch's per-round bandit feedback.

    rewards must already be normalized to [0, 1]; never-sampled actions get
    estimate 0 and are flagged.
    """
    actions = np.asarray(actions, dtype=int)
    rewards = np.asarray(rewards, dtype=float)
    if actions.shape != rewards.shape or actions.ndim != 1:
        raise ValueError("actions and rewards must be equal-length vectors")
    if rewards.size:
        _check_rewards(rewards)
    return epoch_estimate(np.bincount(actions, minlength=d),
                          np.bincount(actions, weights=rewards, minlength=d))


def unit_rewards(raw, n):
    """The reward map r -> (r + (n-1)) / (2(n-1)) of an n-player game."""
    return (raw + float(n - 1)) / (2.0 * float(n - 1))


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
    reduce every chunk to counts and sums.
    """

    def __init__(self, game: PolymatrixGame):
        n = game.n
        self.dims = tuple(game.action_counts)
        self.width = max(self.dims)
        self.others = [tuple(k for k in range(n) if k != i) for i in range(n)]
        self.edge_mats = [[(j, game.edges[(i, j)]) for j in game.neighbors(i)]
                          for i in range(n)]
        self.tables = self.bad_cells = None
        if math.prod(self.dims) <= CELL_CAP:
            grid = np.indices(self.dims, sparse=True)
            self.tables = [np.broadcast_to(self._rewards01(i, grid), self.dims)
                           for i in range(n)]
            bad = functools.reduce(np.logical_or, [(R < -1e-12) | (R > 1.0 + 1e-12)
                                                   for R in self.tables])
            self.bad_cells = bad if bad.any() else None

    def _rewards01(self, i, a):
        """Player i's [0, 1] rewards at the players' actions a: one array per
        player (broadcast together), or one round's actions."""
        raw = sum((m[a[i], a[j]] for j, m in self.edge_mats[i]), np.zeros(np.shape(a[i])))
        return unit_rewards(raw, len(self.dims))

    def _round_rewards(self, a) -> list:
        """Every player's [0, 1] reward in one round of actions a."""
        if self.tables is None:
            r = [float(self._rewards01(i, a)) for i in range(len(self.dims))]
        else:
            a = tuple(a)
            r = [float(R[a]) for R in self.tables]
            if self.bad_cells is None or not self.bad_cells[a]:
                return r
        for i, x in enumerate(r):
            _check_rewards(x, i)
        return r

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
                    _check_rewards(r, i)
                    counts[i, :d] += np.bincount(acts[i], minlength=d)
                    sums[i, :d] += np.bincount(acts[i], weights=r, minlength=d)
            return counts, sums
        xs = [x[:d] for x, d in zip(plays, self.dims)]
        N = rng.multinomial(B, functools.reduce(np.multiply.outer, xs).ravel())
        N = N.reshape(self.dims)
        if self.bad_cells is not None and N[self.bad_cells].any():
            sampled = N > 0
            for i, R in enumerate(self.tables):
                _check_rewards(R[sampled], i)
        for i, (R, others, d) in enumerate(zip(self.tables, self.others, self.dims)):
            counts[i, :d] = N.sum(axis=others)
            sums[i, :d] = (N * R).sum(axis=others)
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
    and mixing rates.  Strategies, estimates and IW vectors have shape
    (..., d_max); a row's padded actions stay at exact zeros.  The monitor's
    radius and threshold depend on the schedule alone, so ``radius``
    (E, ...) and ``threshold`` (E,) hold them for every epoch; per epoch it
    adds to per-row sums of IW utility vectors and of their value under the
    played strategies.  A row whose reg_est exceeds threshold + radius plays
    its row of ``fallback`` for good: Exp3, an ``AnytimeMWU`` with scale d_i
    that is restarted at the row's switch and fed one importance-weighted
    reward vector per round (``round_strategy``, ``observe_round``; rows
    only).  ``switched`` marks those rows and ``switch_epoch`` holds their
    switch epochs (0 for the others); their reduction and monitor run on
    unread.
    """

    def __init__(self, counts, eta, B, eps, delta=0.05, monitor_c=MONITOR_C):
        self.counts = np.asarray(counts)
        col = self.counts[..., None]
        self.pad = padding(col) if self.counts.min() < self.counts.max() else None
        self._real = True if self.pad is None else self.pad == 0
        self.learner = A2L(OMWU(int(self.counts.max()), eta, bias=self.pad))
        # Plans for every epoch, computed with epochs on the last axis and
        # stored one row per epoch.  cumsum adds the spread's terms epoch by
        # epoch; float_power squares with the C library's pow, as Python's
        # ** does (** on an array multiplies, which rounds differently in
        # about one value in 1000).
        self.eps = np.asarray(eps, dtype=float)
        self._d = col.astype(float)
        spread = np.cumsum(np.asarray(B, dtype=float) * np.float_power(self._d / self.eps, 2),
                           axis=-1)
        radius = _confidence_radius(spread, self._d, np.arange(1.0, len(self.eps) + 1.0),
                                    delta)
        # Summed as Python ints, which do not overflow.
        self.rounds = np.array(list(itertools.accumulate(np.asarray(B).tolist())), dtype=float)
        self.threshold = monitor_c * np.float_power(self.rounds, 0.8)
        self.radius = radius.T
        self._limit = (self.threshold + radius).T
        self.t = 0
        # -inf at padded actions, which never count as a comparator.
        self.cum_iw = padding(col)
        self.earned_iw = np.zeros(self.counts.shape)
        self.reg_est = np.zeros(self.counts.shape)
        self.play = None
        self.switched = np.zeros(self.counts.shape, dtype=bool)
        self.switch_epoch = np.zeros(self.counts.shape, dtype=int)
        self._switched_rows = []
        # Exp3: restarted at a row's switch, so a row learns only once it
        # has switched.
        self.fallback = AnytimeMWU(col, scale=self._d)
        self._p = None

    def begin_epoch(self) -> np.ndarray:
        """Start the next epoch; returns the strategies played in it (a
        switched row's: its fallback's at the epoch's start)."""
        eps = self.eps[self.t]
        self.t += 1
        play = (1.0 - eps) * self.learner.next_strategy() + eps / self._d
        if self.pad is not None:
            play = np.where(self.pad < 0, 0.0, play)
        if self._switched_rows:
            play = np.where(self.switched[..., None], self.fallback.next_strategy(), play)
        self.play = play
        return play

    def round_strategy(self) -> np.ndarray:
        """Strategies for the next round of the per-round path."""
        self._p = self.fallback.next_strategy()
        return np.where(self.switched[..., None], self._p, self.play)

    def observe_round(self, actions, rewards01) -> None:
        """One round's actions and [0, 1] rewards, one per row; only the
        switched rows learn within an epoch, from the importance-weighted
        reward r / p at the drawn action."""
        iw = np.zeros(self._p.shape)
        for i in self._switched_rows:
            a = actions[i]
            iw[i, a] = rewards01[i] / self._p[i, a]
        self.fallback.observe(iw)

    def end_epoch(self, est: EpochEstimate) -> np.ndarray:
        """Feed the epoch's estimate; returns uhat^t."""
        uhat = self.learner.observe(est.estimate)
        # Padded actions have no IW value; a switched row's Exp3 may also
        # play 0 on a real action.
        live = self.play > 0 if self._switched_rows else self._real
        iw = np.divide(est.sums, self.play, out=np.zeros(self.play.shape), where=live)
        self.cum_iw = self.cum_iw + iw
        self.earned_iw = self.earned_iw + np.vecdot(iw, self.play)
        self.reg_est = self.cum_iw.max(axis=-1) - self.earned_iw
        new = self.reg_est > self._limit[self.t - 1]
        if self._switched_rows:
            new &= ~self.switched
        if np.count_nonzero(new):
            self.switched = self.switched | new
            self.switch_epoch = np.where(new, self.t, self.switch_epoch)
            self._switched_rows = np.flatnonzero(self.switched).tolist()
            self.fallback.restart(new)
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


def _check_run_args(epochs, delta):
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")


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
    columns are logged in every run, NaN after a switch.  A reward outside
    [0, 1] raises ``DataError`` naming the epoch and the player.  A
    certified run needs a theory schedule and eta <= 1/(6n); violations
    warn and flag the run.
    """
    n = game.n
    if n < 2:
        raise ValueError("bandit dynamics need at least two players")
    _check_run_args(epochs, delta)
    if eta is None:
        eta = bandit_step_size(n)
    certified = schedule.certified and eta <= bandit_step_size(n) + 1e-12
    if not certified:
        warnings.warn(
            "non-certified bandit run: need a theory schedule and eta <= 1/(6n)",
            stacklevel=2,
        )
    rng = np.random.default_rng(seed)
    sampler = JointSampler(game)
    epoch_ts = range(1, epochs + 1)
    B_arr = np.array([schedule.epoch_length(t, sampler.width) for t in epoch_ts],
                     dtype=np.int64)
    eps_arr = np.array([schedule.mixing(t) for t in epoch_ts])
    pipe = BanditPipeline(game.action_counts, eta, B_arr, eps_arr, delta, monitor_c)
    # Epochs before actions, so a player's (E, d_i) log is contiguous when
    # d_i = d_max.
    shape = (n, epochs, sampler.width)
    mixed, inner, estimates, recovered = (np.empty(shape) for _ in range(4))
    counts = np.empty(shape, dtype=int)
    reg_est = np.empty((epochs, n))

    for idx, t in enumerate(epoch_ts):
        B = int(B_arr[idx])
        play = pipe.begin_epoch()
        mixed[:, idx] = play
        try:
            if not pipe.switched.any():
                stats = sampler.epoch(rng, play, B)
            elif B > ROUND_EPOCH_CAP:
                raise FallbackEpochError(
                    f"epoch t={t}: {B} rounds after a monitor switch exceed the "
                    f"round-by-round cap of {ROUND_EPOCH_CAP}", epoch=t
                )
            else:
                stats = _play_rounds(rng, sampler, pipe, B)
        except DataError as exc:
            raise DataError(f"epoch t={t}: {exc}") from exc
        est = epoch_estimate(*stats)
        estimates[:, idx] = est.estimate
        counts[:, idx] = est.counts
        inner[:, idx] = pipe.learner.last_inner
        recovered[:, idx] = pipe.end_epoch(est)
        reg_est[idx] = pipe.reg_est

    # A switched player's pipeline is not logged after its switch epoch.
    after = pipe.switched & (np.array(epoch_ts)[:, None] > pipe.switch_epoch)
    radius = np.where(after, np.nan, pipe.radius)
    reg_est[after] = inner[after.T] = recovered[after.T] = np.nan
    unsampled = (counts == 0).sum(axis=2).T - (sampler.width - pipe.counts)

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
        "prng": "numpy-PCG64",
    }
    mixed, inner, estimates, recovered, counts = (
        [a[i, :, :d] for i, d in enumerate(game.action_counts)]
        for a in (mixed, inner, estimates, recovered, counts)
    )
    return BanditTrajectory(
        meta, np.array(epoch_ts), B_arr, eps_arr, pipe.rounds, game.total_gap(mixed),
        mixed, inner, estimates, recovered, counts, unsampled, reg_est, radius,
        [int(e) if e else None for e in pipe.switch_epoch],
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
        cum_u = np.cumsum(us, axis=0)
        earned = np.cumsum(np.einsum("td,td->t", xs, us))
        regret[:, i] = cum_u.max(axis=1) - earned
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
    utility vectors.
    """
    _check_run_args(epochs, delta)
    rng = np.random.default_rng(seed)
    ts = range(1, epochs + 1)
    B = [schedule.epoch_length(t, d) for t in ts]
    pipe = BanditPipeline(d, eta, B, [schedule.mixing(t) for t in ts], delta, monitor_c)
    plays = np.empty((epochs, d))
    utils = np.empty((epochs, d))
    reg_est = np.empty(epochs)

    for t in ts:
        v = np.asarray(utility_fn(t), dtype=float)
        if v.shape != (d,):
            raise DataError(f"epoch t={t}: environment utility vector has shape "
                            f"{v.shape}, expected ({d},)")
        lo, hi = v.min(), v.max()
        if not 0.0 <= lo <= hi <= 1.0:  # NaN fails every comparison
            problem = ("are not finite" if not np.isfinite(v).all()
                       else f"lie outside [0, 1]: [{lo}, {hi}]")
            raise DataError(f"epoch t={t}: environment utilities {problem}")

        plays[t - 1] = play = pipe.begin_epoch()
        utils[t - 1] = v
        counts = rng.multinomial(B[t - 1], play)
        pipe.end_epoch(epoch_estimate(counts, counts * v))
        reg_est[t - 1] = pipe.reg_est
        if pipe.switched:
            break

    B = np.array(B[:t])
    cum_true = np.cumsum(B[:, None] * utils[:t], axis=0)
    earned_true = np.cumsum(B * np.vecdot(plays[:t], utils[:t]))
    return {
        "switch_epoch": int(pipe.switch_epoch) if pipe.switched else None,
        "decision": "switch" if pipe.switched else "continue",
        "t": np.arange(1, t + 1), "B": B, "reg_est": reg_est[:t], "radius": pipe.radius[:t],
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
