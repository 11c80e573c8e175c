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
step and a finiteness check of one dot product.  Each writes its result
straight into the round's slot of the logs, one (S, n, d_max) block per
log, so a round copies nothing; the loop gets a chunk's slots by
iterating the rounds axis of each log once.  ``run_full_feedback`` is its
S = 1 call.

A trajectory holds, per round, the total gap of the played profile, the
total gap of the running uniform average of inner iterates (for
average-playing wrappers these are the wrapped learner's iterates; for
bare learners they coincide with the play), and per player the external
and dynamic regrets of the play.  The loop folds these statistics in
every ``CHUNK_ROUNDS`` rounds, all players at once on the chunk's
(S, K, n, d_max) logs, so a fold's numpy calls do not grow with n
either.  It carries its running sums across chunks, so the
statistics equal their formulas over the whole run bit for bit.  With
``records=True`` (the default) the trajectory also keeps, per round and
for every player, the played profile and utility vectors, the inner
iterates and the recovered utilities: 4 S n T d_max floats for S
instances.  With ``records=False`` a run holds one chunk of rounds
instead, and its memory grows with T only by the 2n + 2 floats of
statistics per instance and round; the harness's gradient runs, the
verify rate sweep and the MWU contrast run so, while the equivalence checks, the RVU suite and
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

import math
from dataclasses import dataclass, asdict

import numpy as np

from .csvrows import _csv_lines
from .games import PolymatrixGame, _integer, _number
from .learners import MWU, OMWU, FallbackSwitch, padding
from .reduction import A2L, WEIGHT_RULES

ALGORITHMS = ("mwu", "omwu", "a2l-mwu", "a2l-omwu", "guarded-a2l-omwu")
# The guard's budget constant c in monitor_threshold when a spec sets none.
MONITOR_C = 2.0
# Rounds per fold of the per-round statistics; the rounds a run without
# records keeps (at least two).
CHUNK_ROUNDS = 256
# The bit generator of every run's np.random.default_rng, as run metadata names it.
PRNG_NAME = "numpy-PCG64"


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


def certificate_misses(specs) -> list:
    """(player, field, requirement) for each condition of ``gap_bound`` that
    self-play of ``specs``, one LearnerSpec per player, misses: A2L-OMWU,
    guarded with monitor_c >= MONITOR_C or not, uniform weights, the uniform
    start (the bound's log d_i is the divergence from it) and one eta <=
    1/(2(n-1)).  ``{}`` in a requirement stands for the field's name."""
    limit = gradient_step_size(len(specs))
    etas = [limit if s.eta is None else s.eta for s in specs]
    return [(i, field, need) for i, s in enumerate(specs) for field, miss, need in (
        ("algo", s.algo not in ("a2l-omwu", "guarded-a2l-omwu"),
         "{} in (a2l-omwu, guarded-a2l-omwu)"),
        ("weights", s.weights != "uniform", "{} = uniform"),
        ("bias", any(s.bias or ()), "{} absent or all zeros (the uniform start)"),
        ("monitor_c", s.algo == "guarded-a2l-omwu" and s.monitor_c < MONITOR_C,
         f"{{}} >= {MONITOR_C}"),
        ("eta", etas[i] > limit + 1e-12, f"{{}} <= 1/(2(n-1)) = {limit}"),
        ("eta", etas[i] != etas[0], "one eta for all players")) if miss]


def gap_bound(counts, eta, t):
    """The certified last-iterate gap bound sum_i log d_i / (eta t)."""
    return float(np.log(counts).sum()) / (eta * t)


# The package's one count rule, for T, epochs and workers: (test, what).
COUNT_RULE = (lambda v: _integer(v) and v >= 1, "a positive integer")

# The learner contract, which the harness's config checks share: field -> (test, what).
LEARNER_RULES = {
    "algo": (lambda v: v in ALGORITHMS, f"one of {ALGORITHMS}"),
    "eta": (lambda v: v is None or (_number(v) and 0 < v < math.inf), "a positive finite number"),
    "weights": (lambda v: v in sorted(WEIGHT_RULES), f"one of {sorted(WEIGHT_RULES)}"),
    "bias": (lambda v: v is None or (isinstance(v, (list, tuple, np.ndarray)) and all(
        _number(b) and math.isfinite(b) for b in v)), "a list of finite numbers"),
    "monitor_c": (lambda v: _number(v) and not math.isnan(v), "a number"),
}


def rule_errors(rules: dict, fields: dict, prefix="") -> list:
    """Problems of the ruled fields present in ``fields``, named prefix + field."""
    return [f"{prefix}{k} must be {what}, got {fields[k]!r}"
            for k, (ok, what) in rules.items() if k in fields and not ok(fields[k])]


def check_count(name, v):
    """Refuse a count v that breaks ``COUNT_RULE`` with a ValueError naming it."""
    errors = rule_errors({name: COUNT_RULE}, {name: v})
    if errors:
        raise ValueError(errors[0])


@dataclass
class LearnerSpec:
    """Per-player algorithm choice for a simulation run, checked by ``LEARNER_RULES``
    when built (a ValueError names every bad field); eta, bias and monitor_c held as floats."""

    algo: str = "a2l-omwu"
    eta: float | None = None  # None resolves to gradient_step_size(n)
    weights: str = "uniform"
    bias: list | None = None
    monitor_c: float = MONITOR_C

    def __post_init__(self):
        errors = rule_errors(LEARNER_RULES, vars(self))
        if errors:
            raise ValueError("; ".join(errors))
        self.eta = None if self.eta is None else float(self.eta)
        self.bias = None if self.bias is None else [float(b) for b in self.bias]
        self.monitor_c = float(self.monitor_c)


def build_learner(specs, counts, S):
    """One learner for all players of S instances, with state (S, n, d_max).

    specs holds one LearnerSpec per player and counts the players' action
    counts.  Per-player parameters become per-row arrays of shape (n, 1).
    A bias must have one entry per action of its player.
    """
    n, d = len(counts), max(counts)
    for i, (spec, c) in enumerate(zip(specs, counts)):
        if spec.bias is not None and len(spec.bias) != c:
            raise ValueError(f"specs[{i}].bias has {len(spec.bias)} entries, "
                             f"but player {i} has {c} actions")
    col = np.broadcast_to(np.array(counts)[:, None], (S, n, 1))
    eta = np.array([[gradient_step_size(n) if s.eta is None else s.eta] for s in specs])
    bias = None
    if min(counts) < d or any(s.bias is not None for s in specs):
        bias = padding(col)
        for i, spec in enumerate(specs):
            if spec.bias is not None:
                bias[:, i, : counts[i]] += spec.bias

    optimistic = np.array([[s.algo in ("omwu", "a2l-omwu", "guarded-a2l-omwu")] for s in specs])
    wrapped = np.array([[s.algo in ("a2l-mwu", "a2l-omwu", "guarded-a2l-omwu")] for s in specs])
    if optimistic.any():
        learner = OMWU((S, n, d), eta, bias=bias, rows=True if optimistic.all() else optimistic)
    else:
        learner = MWU((S, n, d), eta, bias=bias)
    if wrapped.any():
        # Bare rows take a wrapped row's rule; they never use it.
        rule = specs[int(np.argmax(wrapped))].weights
        weights = [spec.weights if w else rule for spec, w in zip(specs, wrapped[:, 0])]
        learner = A2L(learner, weights, rows=True if wrapped.all() else wrapped)
    guarded = np.array([s.algo == "guarded-a2l-omwu" for s in specs])
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
    external and dynamic regrets of the played iterates (T, n), one column
    per player.
    """

    meta: dict
    played: list | None
    utils: list | None
    inner: list | None
    inner_utils: list | None
    tgap_played: np.ndarray
    tgap_inner_avg: np.ndarray
    reg: np.ndarray
    dreg: np.ndarray

    @property
    def T(self) -> int:
        return len(self.tgap_played)

    @property
    def n(self) -> int:
        return self.reg.shape[1]


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
    ``records=True`` the rounds are logged into stacked (S, T, n, d_max)
    records, and the per-player arrays of a Trajectory are views into them.
    With ``records=False`` one (S, CHUNK_ROUNDS, n, d_max) buffer (at least
    two rounds) is reused chunk after chunk and the Trajectory's four record
    fields are None, so memory grows with T only by the per-round statistics.
    """
    games = list(games)
    S = len(games)
    if S < 1:
        raise ValueError("games: need at least one game")
    check_count("T", T)
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
    learner = build_learner(specs, counts, S)

    d = max(counts)
    D = n * d
    blocks = np.zeros((S, n, d, n, d))
    for k, g in enumerate(games):
        for (i, j), mat in g.edges.items():
            blocks[k, i, : counts[i], j, : counts[j]] = mat
    blocks = blocks.reshape(S, D, D)

    # One round's slot of each log is one (S, n, d_max) block, which the
    # learner and the matmul write in place.  The learner keeps a slot as
    # its state for one round, so consecutive rounds take distinct slots:
    # a run without records cycles through at least two.
    K = CHUNK_ROUNDS
    R = T if records else min(max(K, 2), T)
    shape = (S, R, n, d)
    played = np.empty(shape)
    utils = np.empty(shape)
    # Bare play is its own inner iterate and feedback.
    bare = isinstance(learner, MWU)
    inner = played if bare else np.empty(shape)
    inner_utils = utils if bare else np.empty(shape)
    logs = (played, utils, inner, inner_utils)
    # The same slots as (S, D, 1) columns, the matmul's operand and result.
    cols = played.reshape(S, R, D, 1), utils.reshape(S, R, D, 1)
    stats = _Statistics(S, T, counts)
    step, observe, matmul = learner.next_strategy, learner.observe, np.matmul

    for t0 in range(0, T, K):
        t1 = min(t0 + K, T)
        off = t0 - t0 % R  # slot of round t is t - off
        chunk = [a[:, t0 - off:t1 - off] for a in logs + cols]
        # Each log's slot of each round, one view per round from iterating
        # the chunk's rounds axis.
        slots = zip(*(a.swapaxes(0, 1) for a in chunk))
        try:
            for t, (x, u, y, w, x_col, u_col) in enumerate(slots, t0):
                # A bare learner's inner logs are its play and utilities; a
                # wrapper also writes its inner iterate and what it recovered.
                if bare:
                    step(x)
                    matmul(blocks, x_col, u_col)
                    observe(u)
                else:
                    step(x, y)
                    matmul(blocks, x_col, u_col)
                    observe(u, w)
        except Exception as exc:
            raise SimulationError(
                f"round {t + 1}: {type(exc).__name__}: {exc}", round=t + 1
            ) from exc
        stats.fold(t0, *chunk[:4])

    switched_at = (learner.switch.switched_at if isinstance(learner, RegretGuard)
                   else np.zeros((S, n), dtype=int))

    def player_logs(k):
        if not records:
            return [None] * 4
        return [[a[k, :, i, :c] for i, c in enumerate(counts)] for a in logs]

    return [
        Trajectory(
            {
                "game": g.to_dict(),
                "game_name": g.name,
                "specs": [asdict(s) for s in specs],
                "T": T,
                "seed": seed,
                "prng": PRNG_NAME,
                "switch_round": [int(r) if r else None for r in switched_at[k]],
            },
            *player_logs(k),
            stats.tgap_played[k],
            stats.tgap_inner_avg[k],
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

    Per instance, round and player: the running external regret Reg_i(t)
    and dynamic regret DReg_i(t) of the play; per instance and round, the
    total gap of the played profile and of the running uniform average of
    the inner iterates: 2n + 2 floats per instance and round.  A fold
    covers all players at once, on the chunk's (S, K, n, d_max) logs; a max
    over actions skips a player's padded ones.  Every running sum carries
    across chunks (``_cumsum``), so each statistic is bit-identical to its
    formula over full records.
    """

    def __init__(self, S, T, counts):
        n, d = len(counts), max(counts)
        self.reg = np.empty((S, T, n))
        self.dreg = np.empty((S, T, n))
        self.tgap_played = np.empty((S, T))
        self.tgap_inner_avg = np.empty((S, T))
        # The actions a player lacks, as a (d_max, 1, 1, n) mask; None when
        # every player has d_max.
        self.padded = None if min(counts) == d else (
            np.arange(d)[:, None, None, None] >= np.array(counts))
        # The running sums of the played utilities, of the earned and the
        # best utility, of the inner iterates and of the inner utilities, as
        # of the last folded round.
        self.carry = (None,) * 5

    def _best(self, a):
        """The max over each player's actions of a (S, K, n, d_max) array;
        a padded action's 0 never counts.

        The actions axis is copied outermost first: numpy then compares
        whole (S, K, n) blocks, one action after another, where along the
        innermost axis it would start a loop for each row of d_max actions
        (about 10x slower at d_max = 5).  A tie between -0.0 and +0.0 may
        settle on either sign, unlike numpy's innermost-axis max at 9 or 17
        actions; no suite game produces a -0.0 utility.
        """
        by_action = a.transpose(3, 0, 1, 2).copy()
        if self.padded is not None:
            np.copyto(by_action, -np.inf, where=self.padded)
        return np.maximum.reduce(by_action, 0)

    def fold(self, t0, played, utils, inner, inner_utils):
        """Fold rounds t0 + 1 .. t0 + K, logged as (S, K, n, d_max) arrays.

        No more than two arrays of the chunk's size are alive at a time, a
        running sum of a log or ``_best``'s copy, so that the fold's memory
        stays close to that of folding one player at a time.
        """
        K = played.shape[1]
        rounds = slice(t0, t0 + K)
        prev_v, prev_earned, prev_best, prev_y, prev_w = self.carry
        best = self._best(utils)
        dot = np.einsum("sknd,sknd->skn", played, utils)
        earned = _cumsum(dot, prev_earned)
        cum_best = _cumsum(best, prev_best)
        self.tgap_played[:, rounds] = (best - dot).sum(axis=2)
        self.dreg[:, rounds] = cum_best - earned
        cum_v = _cumsum(utils, prev_v)
        self.reg[:, rounds] = self._best(cum_v) - earned
        carry = [a[:, -1].copy() for a in (cum_v, earned, cum_best)]
        del cum_v
        ybar = _cumsum(inner, prev_y)
        wbar = _cumsum(inner_utils, prev_w)
        self.carry = (*carry, ybar[:, -1].copy(), wbar[:, -1].copy())
        # Linearity makes the mean of recovered utilities equal the utility
        # vector at the mean inner profile.
        denom = np.arange(t0 + 1.0, t0 + K + 1.0)[:, None, None]
        ybar /= denom
        wbar /= denom
        earned_bar = np.einsum("sknd,sknd->skn", ybar, wbar)
        del ybar
        gaps = self._best(wbar) - earned_bar
        # The total gap adds the players' gaps one after another, as its
        # formula does; a prefix sum keeps that order, which numpy's sum
        # does not.
        self.tgap_inner_avg[:, rounds] = np.add.accumulate(gaps, 2)[..., -1]


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
    strats, utils = traj.inner, traj.inner_utils
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
    returns the recovered utilities) until its row of ``switch``, a
    ``learners.FallbackSwitch`` at the limit ``monitor_threshold``, switches.
    The rows are the leading axes of counts, which has a trailing 1 as in
    ``learners.padding``; eta and c are scalars or arrays over the rows, and
    c = inf leaves a row unguarded.  A switched row's primary runs on unread:
    the guard writes that row's play, inner iterate and recovered utilities
    over the primary's, in the arrays the primary keeps as its state.
    """

    def __init__(self, primary, counts, eta, log_dim_sum, c=MONITOR_C):
        self.primary = primary
        self.eta = eta
        self.log_dim_sum = float(log_dim_sum)
        self.c = c
        self.rounds = 0
        self.switch = FallbackSwitch(primary.shape, counts)
        self._x = None

    def next_strategy(self, out=None, inner=None) -> np.ndarray:
        """The play, in ``out`` when given; ``inner``, when given, receives
        each row's inner iterate: its primary's, or a switched row's play."""
        x = self._x = self.switch.play(self.primary.next_strategy(out=out, inner=inner))
        if inner is not None and self.switch.any:
            np.copyto(inner, x, where=self.switch.switched[..., None])
        return x

    def observe(self, u, out=None):
        """Feed u; returns the utilities each row's inner iterate learned
        from (a switched row's: u), in ``out`` when given."""
        u = np.asarray(u, dtype=float)
        rec = self.primary.observe(u, out=out)
        if self.switch.any:
            self.switch.observe(u)
            np.copyto(rec, u, where=self.switch.switched[..., None])
        self.rounds += 1
        limit = monitor_threshold(self.rounds, self.eta, self.log_dim_sum, self.c)
        self.switch.add(u, np.einsum("...d,...d->...", self._x, u), limit, self.rounds)
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
