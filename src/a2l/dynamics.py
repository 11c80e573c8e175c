"""Uncoupled full-feedback simulation loop and gradient-mode diagnostics.

Each round, every player emits a mixed strategy; once all strategies for the
round are collected, each player receives its utility vector at the joint
profile and observes it.  Players never see each other's state: the loop
passes utility vectors only, so uncoupledness holds by construction.

One loop, ``run_full_feedback_batch``, runs S games of one shape (same n,
same action counts) at once, with all players of all games on array axes.
``build_learner`` turns the n learner specs into one learner whose state
has shape (S, n, d_max), d_max the largest action count: each player is a
row with its own step size, optimism flag, weight rule, bias and wrapped
or bare play, and a player's padded actions get a -inf logit, so its
strategy is exactly zero there.  A round is then a fixed number of numpy
calls whatever n is: one softmax, one running-average update, one matmul
with the block payoff tensor of shape (S, n d_max, n d_max), one recovery
step and one finiteness check.  ``run_full_feedback`` is its S = 1 call.

A trajectory holds, per round, the total gap of the played profile, the
total gap of the running uniform average of inner iterates (for
average-playing wrappers these are the wrapped learner's iterates; for
bare learners they coincide with the play), and per player the
instantaneous, external and dynamic regrets of the play.  The loop folds
these statistics in every ``CHUNK_ROUNDS`` rounds, carrying its running
sums across chunks, so they equal their formulas over the whole run bit
for bit.  With ``records=True`` (the default) the trajectory also keeps,
per round and for every player, the played profile and utility vectors,
the inner iterates and the recovered utilities: 4 S n T d_max floats for
S instances.  With ``records=False`` a run holds one chunk of rounds
instead, and its memory grows with T only by the 3n + 2 floats of
statistics per instance and round; the harness's gradient runs and the
verify rate sweep run so, while the equivalence checks, the RVU suite and
the reports on inner iterates keep records.  The metadata is sufficient
to reproduce the run exactly, and its ``switch_round`` lists, per player,
the round of its monitor switch (None when it never switched).

The gradient mode's one robustness monitor is ``RegretGuard``: each row
keeps its own running regret and switches to a safe no-regret fallback
once it crosses

    c * (sum_i log d_i / eta) * (1 + ln t)

which self-play of the average-playing dynamics cannot reach for c >= 2.
``guarded-a2l-omwu`` players are the guarded rows of the stacked state.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .csvrows import _csv_lines
from .games import PolymatrixGame
from .learners import MWU, OMWU, AnytimeMWU, padding
from .reduction import A2L

ALGORITHMS = ("mwu", "omwu", "a2l-mwu", "a2l-omwu", "guarded-a2l-omwu")
# The guard's budget constant c in monitor_threshold when a spec sets none.
MONITOR_C = 2.0
# Rounds per fold of the per-round statistics; the rounds a run without
# records keeps.
CHUNK_ROUNDS = 256


class SimulationError(ValueError):
    """A learner or the game failed inside the simulation loop.

    ``round`` is the 1-based round; the original error, with its type, is
    the ``__cause__``.
    """

    def __init__(self, message, round=None):
        super().__init__(message)
        self.round = round


def gradient_step_size(n: int) -> float:
    """Largest certified step size for gradient-feedback runs, 1/(2(n-1))."""
    return 1.0 / (2.0 * max(n - 1, 1))


@dataclass
class LearnerSpec:
    """Per-player algorithm choice for a simulation run."""

    algo: str = "a2l-omwu"
    eta: float | None = None  # None resolves to gradient_step_size(n)
    weights: str = "uniform"
    bias: list | None = None
    monitor_c: float = MONITOR_C

    def to_dict(self) -> dict:
        return asdict(self)


def build_learner(specs, counts):
    """One learner for all players, with state of shape (..., n, d_max).

    specs holds one LearnerSpec per player and counts the players' action
    counts.  Per-player parameters become per-row arrays of shape (n, 1).
    """
    algos = [spec.algo.lower() for spec in specs]
    for spec, algo in zip(specs, algos):
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {spec.algo!r}; choose from {ALGORITHMS}")
    n, d = len(counts), max(counts)
    col = np.array(counts)[:, None]
    eta = np.array([[gradient_step_size(n) if s.eta is None else float(s.eta)] for s in specs])
    bias = None
    if min(counts) < d or any(s.bias is not None for s in specs):
        bias = padding(col)
        for i, spec in enumerate(specs):
            if spec.bias is not None:
                bias[i, : counts[i]] += np.asarray(spec.bias, dtype=float)

    optimistic = np.array([[algo in ("omwu", "a2l-omwu", "guarded-a2l-omwu")] for algo in algos])
    wrapped = np.array([[algo in ("a2l-mwu", "a2l-omwu", "guarded-a2l-omwu")] for algo in algos])
    if optimistic.any():
        learner = OMWU(d, eta, bias=bias, rows=True if optimistic.all() else optimistic)
    else:
        learner = MWU(d, eta, bias=bias)
    if wrapped.any():
        # Bare rows take a wrapped row's rule; they never use it.
        rule = specs[int(np.argmax(wrapped))].weights
        weights = [spec.weights if w else rule for spec, w in zip(specs, wrapped[:, 0])]
        learner = A2L(learner, weights, rows=True if wrapped.all() else wrapped)
    guarded = np.array([algo == "guarded-a2l-omwu" for algo in algos])
    if guarded.any():
        c = np.where(guarded, [spec.monitor_c for spec in specs], np.inf)
        learner = RegretGuard(learner, col, eta[:, 0], np.log(counts).sum(), c)
    return learner


@dataclass
class Trajectory:
    """Columnar per-round log of one simulation run.

    played/utils/inner/inner_utils hold one (T, d_i) array per player, or
    are None when the run kept no records (``records=False``).  The
    per-round statistics are always there: the total gaps (T,), and the
    instantaneous, external and dynamic regrets of the played iterates
    (T, n), one column per player.
    """

    meta: dict
    played: list | None
    utils: list | None
    inner: list | None
    inner_utils: list | None
    tgap_played: np.ndarray
    tgap_inner_avg: np.ndarray
    instant_regret: np.ndarray
    reg: np.ndarray
    dreg: np.ndarray

    @property
    def T(self) -> int:
        return len(self.tgap_played)

    @property
    def n(self) -> int:
        return self.instant_regret.shape[1]


def run_full_feedback(game, specs, T, seed=0, records=True) -> Trajectory:
    """Simulate T rounds of simultaneous-move uncoupled play.

    specs: one LearnerSpec per player, or a single spec applied to all.
    This is the one-instance call of ``run_full_feedback_batch``.
    """
    return run_full_feedback_batch([game], specs, T, [seed], records=records)[0]


def run_full_feedback_batch(games, specs, T, seeds=None, records=True) -> list:
    """Simulate S games of one shape at once; one Trajectory per game.

    The games must share n and the action counts; the payoffs and the graph
    may differ.  One learner from ``build_learner`` advances every player
    of every instance per call, each row running the same learner code as a
    single run and staying uncoupled from the others.  Utilities come from
    one block payoff tensor of shape (S, D, D), D = n d_max, in which an
    absent edge or a padded action is a zero block and adds exact zeros.
    seeds (default all 0) are recorded in each trajectory's metadata.

    The statistics are folded in every ``CHUNK_ROUNDS`` rounds.  With
    ``records=True`` the rounds are logged into stacked (S, n, T, d_max)
    records, and the per-player arrays of a Trajectory are views into them.
    With ``records=False`` one (S, n, CHUNK_ROUNDS, d_max) buffer is reused
    chunk after chunk and the Trajectory's four record fields are None, so
    memory grows with T only by the per-round statistics.
    """
    games = list(games)
    S = len(games)
    if S < 1:
        raise ValueError("games: need at least one game")
    if T < 1:
        raise ValueError("T must be at least 1")
    n = games[0].n
    counts = games[0].action_counts
    for k, g in enumerate(games[1:], start=1):
        if g.n != n:
            raise ValueError(f"games[{k}]: n = {g.n} differs from games[0]'s n = {n}")
        if g.action_counts != counts:
            raise ValueError(
                f"games[{k}]: action_counts {g.action_counts} differ from games[0]'s {counts}"
            )
    seeds = [0] * S if seeds is None else list(seeds)
    if len(seeds) != S:
        raise ValueError(f"seeds: {len(seeds)} seeds for {S} games")
    if isinstance(specs, LearnerSpec):
        specs = [specs] * n
    if len(specs) != n:
        raise ValueError(f"{len(specs)} learner specs for {n} players")
    learner = build_learner(specs, counts)

    d = max(counts)
    D = n * d
    blocks = np.zeros((S, n, d, n, d))
    for k, g in enumerate(games):
        for (i, j), mat in g.edges.items():
            blocks[k, i, : counts[i], j, : counts[j]] = mat
    blocks = blocks.reshape(S, D, D)

    # Rounds before actions, so a player's (T, d_i) log is contiguous when
    # d_i = d_max.
    K = CHUNK_ROUNDS
    shape = (S, n, T if records else min(K, T), d)
    played = np.empty(shape)
    utils = np.empty(shape)
    # Bare play is its own inner iterate and feedback.
    bare = not hasattr(learner, "last_inner")
    inner = played if bare else np.empty(shape)
    inner_utils = utils if bare else np.empty(shape)
    logs = (played, utils, inner, inner_utils)
    stats = _Statistics(S, T, counts)

    for t0 in range(0, T, K):
        t1 = min(t0 + K, T)
        off = 0 if records else t0  # buffer row of round t0
        try:
            for t in range(t0, t1):
                x = learner.next_strategy()
                if not bare:
                    # Before observe: a guarded row that switches in this
                    # round still played its primary learner's inner iterate.
                    inner[:, :, t - off] = learner.last_inner
                v = np.matmul(blocks, x.reshape(-1, D, 1)).reshape(S, n, d)
                rec = learner.observe(v)
                played[:, :, t - off] = x
                utils[:, :, t - off] = v
                if not bare:
                    inner_utils[:, :, t - off] = rec
        except Exception as exc:
            raise SimulationError(
                f"round {t + 1}: {type(exc).__name__}: {exc}", round=t + 1
            ) from exc
        stats.fold(t0, *(a[:, :, t0 - off:t1 - off] for a in logs))

    tgap_played = stats.instant_regret.sum(axis=2)
    switch_rounds = np.broadcast_to(getattr(learner, "switch_rounds", 0), (S, n))

    def player_logs(k):
        if not records:
            return [None] * 4
        return [[a[k, i, :, :c] for i, c in enumerate(counts)] for a in logs]

    return [
        Trajectory(
            {
                "game": g.to_dict(),
                "game_name": g.name,
                "specs": [s.to_dict() for s in specs],
                "T": T,
                "seed": seed,
                "prng": "numpy-PCG64",
                "switch_round": [int(r) if r else None for r in switch_rounds[k]],
            },
            *player_logs(k),
            tgap_played[k],
            stats.tgap_inner_avg[k],
            stats.instant_regret[k],
            stats.reg[k],
            stats.dreg[k],
        )
        for k, (g, seed) in enumerate(zip(games, seeds))
    ]


def _cumsum(a, carry):
    """Cumulative sum along axis 1 that continues from ``carry``, the sum
    before a's first row (None at the start of the run).

    The carry enters as the first addition, so chunk after chunk this adds
    the same numbers in the same order as one cumsum over the whole run.
    Without a carry nothing is added: 0.0 + (-0.0) would turn a leading
    -0.0 into +0.0.
    """
    if carry is None:
        return np.cumsum(a, axis=1)
    out = a.copy()
    out[:, 0] += carry
    return np.cumsum(out, axis=1, out=out)


class _Statistics:
    """Per-round statistics of S runs, folded in one chunk of rounds at a time.

    Per instance, round and player: the instantaneous regret of the play,
    its running external regret Reg_i(t) and dynamic regret DReg_i(t); per
    instance and round, the total gap of the running uniform average of the
    inner iterates.  Every running sum carries across chunks (``_cumsum``),
    so each statistic is bit-identical to its formula over full records.
    """

    def __init__(self, S, T, counts):
        n = len(counts)
        self.counts = counts
        self.instant_regret = np.empty((S, T, n))
        self.reg = np.empty((S, T, n))
        self.dreg = np.empty((S, T, n))
        self.tgap_inner_avg = np.zeros((S, T))
        # Per player: the running sums of the played utilities, of the
        # earned and the best utility, of the inner iterates and of the
        # inner utilities, as of the last folded round.
        self.carry = [(None,) * 5] * n

    def fold(self, t0, played, utils, inner, inner_utils):
        """Fold rounds t0 + 1 .. t0 + K, logged as (S, n, K, d_max) arrays."""
        K = played.shape[2]
        rounds = slice(t0, t0 + K)
        denom = np.arange(t0 + 1.0, t0 + K + 1.0)[:, None]
        for i, c in enumerate(self.counts):
            x, v, y, w = (a[:, i, :, :c] for a in (played, utils, inner, inner_utils))
            best = v.max(axis=2)
            dot = np.einsum("std,std->st", x, v)
            sums = [_cumsum(a, prev) for a, prev in zip((v, dot, best, y, w), self.carry[i])]
            self.carry[i] = tuple(a[:, -1].copy() for a in sums)
            cum_v, earned, cum_best, ybar, wbar = sums
            self.instant_regret[:, rounds, i] = best - dot
            self.reg[:, rounds, i] = cum_v.max(axis=2) - earned
            self.dreg[:, rounds, i] = cum_best - earned
            # Linearity makes the mean of recovered utilities equal the
            # utility vector at the mean inner profile.
            ybar /= denom
            wbar /= denom
            self.tgap_inner_avg[:, rounds] += (
                wbar.max(axis=2) - np.einsum("std,std->st", ybar, wbar))


# -- regret reports ----------------------------------------------------------


def _cumulative_regrets(strategies, utils):
    """Running external and dynamic regret of one player's sequence."""
    cum_u = np.cumsum(utils, axis=0)
    earned = np.cumsum(np.einsum("td,td->t", strategies, utils))
    reg = cum_u.max(axis=1) - earned
    dreg = np.cumsum(utils.max(axis=1)) - earned
    return reg, dreg


def regret_report(traj: Trajectory) -> dict:
    """Cumulative Reg_i(t) and DReg_i(t) on the played iterates.

    DReg_i dominates Reg_i everywhere since the per-round best response is
    at least the best fixed action.
    """
    return {"reg": traj.reg, "dreg": traj.dreg,
            "final_reg": traj.reg[-1], "final_dreg": traj.dreg[-1]}


def inner_regret_report(traj: Trajectory) -> dict:
    """Same as regret_report but on inner iterates and recovered utilities;
    needs the run's records."""
    if traj.inner is None:
        raise ValueError("inner_regret_report needs a run with records=True")
    return _report(traj.inner, traj.inner_utils)


def _report(strats, utils) -> dict:
    T = len(strats[0])
    n = len(strats)
    reg = np.empty((T, n))
    dreg = np.empty((T, n))
    for i in range(n):
        reg[:, i], dreg[:, i] = _cumulative_regrets(strats[i], utils[i])
    return {"reg": reg, "dreg": dreg, "final_reg": reg[-1], "final_dreg": dreg[-1]}


def average_profile_gaps(game: PolymatrixGame, iterates) -> np.ndarray:
    """Total gap of the running uniform average profile, for every t.

    Fresh evaluation through the game's payoff matrices (no reuse of logged
    utility vectors), in one call over the log of averages.
    """
    denom = np.arange(1.0, len(iterates[0]) + 1.0)[:, None]
    return game.total_gap([np.cumsum(x, axis=0) / denom for x in iterates])


# -- robustness --------------------------------------------------------------


def monitor_threshold(t, eta, log_dim_sum, c=MONITOR_C):
    """Anytime regret budget c * (sum_i log d_i / eta) * (1 + ln t)."""
    return c * (log_dim_sum / eta) * (1.0 + np.log(t))


class RegretGuard:
    """A learner guarded by the regret monitor, row by row.

    Each row plays the primary learner (average-playing: its ``observe``
    returns the recovered utilities) while its own anytime regret stays
    under ``monitor_threshold``; from the round it crosses, that row plays
    the safe fallback (``AnytimeMWU``, MWU with decaying step size) for
    good, with its own action count and its own round count.  counts, eta
    and c are scalars or per-row arrays (counts with a trailing 1, as in
    ``learners.padding``; eta and c over the leading axes); c = inf leaves
    a row unguarded.  ``switch_rounds`` holds each row's switch round, 0
    while it has not switched.
    """

    def __init__(self, primary, counts, eta, log_dim_sum, c=MONITOR_C):
        self.primary = primary
        self.counts = counts
        self.eta = eta
        self.log_dim_sum = float(log_dim_sum)
        self.c = c
        self.fallback = None
        self.rounds = 0
        self.cum_utils = padding(counts) if np.ndim(counts) else np.zeros(counts)
        self.cum_earned = 0.0
        self.switched = np.zeros((), dtype=bool)
        self.switch_rounds = np.zeros((), dtype=int)
        self._x = None

    @property
    def last_inner(self):
        inner = self.primary.last_inner
        if self.fallback is None:
            return inner
        return np.where(self.switched[..., None], self._x, inner)

    def next_strategy(self) -> np.ndarray:
        x = self.primary.next_strategy()
        if self.fallback is not None:
            x = np.where(self.switched[..., None], self.fallback.next_strategy(), x)
        self._x = x
        return x

    def observe(self, u):
        u = np.asarray(u, dtype=float)
        rec = self.primary.observe(u)
        if self.fallback is not None:
            self.fallback.observe(u)
            rec = np.where(self.switched[..., None], u, rec)
        self.rounds += 1
        self.cum_utils = self.cum_utils + u
        self.cum_earned = self.cum_earned + np.einsum("...d,...d->...", self._x, u)
        regret_now = self.cum_utils.max(axis=-1) - self.cum_earned
        crossed = regret_now > monitor_threshold(self.rounds, self.eta, self.log_dim_sum, self.c)
        new = crossed & ~self.switched
        if new.any():
            self.switched = self.switched | new
            self.switch_rounds = np.where(new, self.rounds, self.switch_rounds)
            if self.fallback is None:
                self.fallback = AnytimeMWU(self.counts)
            self.fallback.restart(new)
        return rec


# -- persistence -------------------------------------------------------------


def trajectory_csv_columns(traj: Trajectory):
    """Header and columns t, tgap_last, tgap_avg, reg_1..reg_n, dreg_1..dreg_n."""
    n = traj.n
    header = (
        ["t", "tgap_last", "tgap_avg"]
        + [f"reg_{i + 1}" for i in range(n)]
        + [f"dreg_{i + 1}" for i in range(n)]
    )
    columns = (
        [np.arange(1, traj.T + 1), traj.tgap_played, traj.tgap_inner_avg]
        + list(traj.reg.T) + list(traj.dreg.T)
    )
    return header, columns


def trajectory_csv_lines(traj: Trajectory):
    """The CSV lines of ``trajectory_csv_columns``, header first."""
    yield from _csv_lines(*trajectory_csv_columns(traj))
