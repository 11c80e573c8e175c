"""Uncoupled full-feedback simulation loop and gradient-mode diagnostics.

Each round, every player emits a mixed strategy; once all strategies for the
round are collected, each player receives its utility vector at the joint
profile and observes it.  Players never see each other's state: the loop
passes utility vectors only, so uncoupledness holds by construction.

One loop, ``run_full_feedback_batch``, runs S games of one shape (same n,
same action counts) at once: each player's learner holds state of shape
(S, d_i) and works on the trailing action axis, and one block payoff
tensor gives every utility vector of the round in a single matmul.
``run_full_feedback`` is its S = 1 call.

A trajectory logs, per round and for every player, the played profile and
utility vectors, the inner iterates (for average-playing wrappers these are
the wrapped learner's iterates; for bare learners they coincide with the
play), the total gap of the played profile, the total gap of the running
uniform average of inner iterates, and per-player instantaneous regrets.
The metadata is sufficient to reproduce the run exactly.

The gradient mode's one robustness monitor is ``GuardedA2LOMWU``: it keeps
the player's own running regret and switches to a safe no-regret fallback
once it crosses

    c * (sum_i log d_i / eta) * (1 + ln t)

which self-play of the average-playing dynamics cannot reach for c >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .csvrows import _csv_lines
from .games import PolymatrixGame
from .learners import MWU, OMWU, AnytimeMWU
from .reduction import A2L

ALGORITHMS = ("mwu", "omwu", "a2l-mwu", "a2l-omwu", "guarded-a2l-omwu")


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
    monitor_c: float = 2.0

    def to_dict(self) -> dict:
        return asdict(self)


def build_learner(spec: LearnerSpec, d: int, n: int, log_dim_sum=None):
    algo = spec.algo.lower()
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {spec.algo!r}; choose from {ALGORITHMS}")
    eta = gradient_step_size(n) if spec.eta is None else float(spec.eta)
    bias = None if spec.bias is None else np.asarray(spec.bias, dtype=float)
    if algo == "mwu":
        return MWU(d, eta, bias=bias)
    if algo == "omwu":
        return OMWU(d, eta, bias=bias)
    if algo == "a2l-mwu":
        return A2L(MWU(d, eta, bias=bias), spec.weights)
    if algo == "a2l-omwu":
        return A2L(OMWU(d, eta, bias=bias), spec.weights)
    return GuardedA2LOMWU(
        d, eta, log_dim_sum=log_dim_sum, c=spec.monitor_c, weights=spec.weights, bias=bias
    )


@dataclass
class Trajectory:
    """Columnar per-round log of one simulation run.

    played/utils/inner/inner_utils hold one (T, d_i) array per player.
    """

    meta: dict
    played: list
    utils: list
    inner: list
    inner_utils: list
    tgap_played: np.ndarray
    tgap_inner_avg: np.ndarray
    instant_regret: np.ndarray

    @property
    def T(self) -> int:
        return len(self.tgap_played)

    @property
    def n(self) -> int:
        return self.instant_regret.shape[1]


def run_full_feedback(game, specs, T, seed=0) -> Trajectory:
    """Simulate T rounds of simultaneous-move uncoupled play.

    specs: one LearnerSpec per player, or a single spec applied to all.
    This is the one-instance call of ``run_full_feedback_batch``.
    """
    return run_full_feedback_batch([game], specs, T, [seed])[0]


def run_full_feedback_batch(games, specs, T, seeds=None) -> list:
    """Simulate S games of one shape at once; one Trajectory per game.

    The games must share n and the action counts; the payoffs and the graph
    may differ.  Each player is one learner object whose state has shape
    (S, d_i), so every instance runs the same learner code as a single run
    and stays uncoupled from the others.  Utilities come from one block
    payoff tensor of shape (S, D, D), D = sum_i d_i, in which an edge absent
    from an instance is a zero block and adds exact zeros.  seeds (default
    all 0) are recorded in each trajectory's metadata.  The guarded learner
    tracks one regret per player, so it runs one instance per call.
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
    if S > 1:
        for i, spec in enumerate(specs):
            if spec.algo.lower() == "guarded-a2l-omwu":
                raise ValueError(
                    f"specs[{i}].algo: {spec.algo!r} tracks one regret per player and "
                    f"runs one instance per call, got {S} games"
                )
    log_dim_sum = float(np.log(counts).sum())
    learners = [build_learner(specs[i], counts[i], n, log_dim_sum) for i in range(n)]

    offsets = np.concatenate([[0], np.cumsum(counts)])
    cols = [slice(offsets[i], offsets[i + 1]) for i in range(n)]
    blocks = np.zeros((S, offsets[-1], offsets[-1]))
    for k, g in enumerate(games):
        for (i, j), mat in g.edges.items():
            blocks[k, cols[i], cols[j]] = mat
    profile = np.empty((S, offsets[-1], 1))

    played = [np.empty((S, T, d)) for d in counts]
    utils = [np.empty((S, T, d)) for d in counts]
    inner = [np.empty((S, T, d)) for d in counts]
    inner_utils = [np.empty((S, T, d)) for d in counts]

    for t in range(T):
        try:
            xs = [lr.next_strategy() for lr in learners]
            for i in range(n):
                profile[:, cols[i], 0] = xs[i]
            util = np.matmul(blocks, profile)[..., 0]
            for i, lr in enumerate(learners):
                v = util[:, cols[i]]
                rec = lr.observe(v)
                if rec is None:
                    rec = v
                x_in = getattr(lr, "last_inner", None)
                if x_in is None:
                    x_in = xs[i]
                played[i][:, t] = xs[i]
                utils[i][:, t] = v
                inner[i][:, t] = x_in
                inner_utils[i][:, t] = rec
        except Exception as exc:
            raise SimulationError(
                f"round {t + 1}: {type(exc).__name__}: {exc}", round=t + 1
            ) from exc

    # Per-round statistics, vectorized over instances and rounds.
    instant_regret = np.stack(
        [utils[i].max(axis=2) - np.einsum("std,std->st", played[i], utils[i]) for i in range(n)],
        axis=2,
    )
    tgap_played = instant_regret.sum(axis=2)
    denom = np.arange(1.0, T + 1.0)[:, None]
    tgap_inner_avg = np.zeros((S, T))
    for i in range(n):
        # Linearity makes the mean of recovered utilities equal the utility
        # vector at the mean inner profile.
        xbar = np.cumsum(inner[i], axis=1)
        xbar /= denom
        ubar = np.cumsum(inner_utils[i], axis=1)
        ubar /= denom
        tgap_inner_avg += ubar.max(axis=2) - np.einsum("std,std->st", xbar, ubar)

    return [
        Trajectory(
            {
                "game": g.to_dict(),
                "game_name": g.name,
                "specs": [s.to_dict() for s in specs],
                "T": T,
                "seed": seed,
                "prng": "numpy-PCG64",
            },
            [x[k] for x in played],
            [x[k] for x in utils],
            [x[k] for x in inner],
            [x[k] for x in inner_utils],
            tgap_played[k],
            tgap_inner_avg[k],
            instant_regret[k],
        )
        for k, (g, seed) in enumerate(zip(games, seeds))
    ]


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
    return _report(traj.played, traj.utils)


def inner_regret_report(traj: Trajectory) -> dict:
    """Same as regret_report but on inner iterates and recovered utilities."""
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
    utility vectors), vectorized over rounds.
    """
    T = len(iterates[0])
    denom = np.arange(1.0, T + 1.0)[:, None]
    avgs = [np.cumsum(x, axis=0) / denom for x in iterates]
    gap = np.zeros(T)
    for i in range(game.n):
        v = np.zeros((T, game.action_counts[i]))
        for j in game.neighbors(i):
            v += avgs[j] @ game.edges[(i, j)].T
        gap += v.max(axis=1) - np.einsum("td,td->t", avgs[i], v)
    return gap


# -- robustness --------------------------------------------------------------


def monitor_threshold(t, eta, log_dim_sum, c=2.0):
    """Anytime regret budget c * (sum_i log d_i / eta) * (1 + ln t)."""
    return c * (log_dim_sum / eta) * (1.0 + np.log(t))


class GuardedA2LOMWU:
    """Average-playing OMWU guarded by the regret monitor.

    Runs A2L-wrapped OMWU while its own anytime regret stays under the
    monitor threshold; afterwards it plays the safe fallback (MWU with
    decaying step size) for good.
    """

    def __init__(self, d, eta, log_dim_sum, c=2.0, weights="uniform", bias=None):
        self.d = d
        self.eta = eta
        self.log_dim_sum = float(log_dim_sum if log_dim_sum is not None else np.log(d))
        self.c = c
        self.primary = A2L(OMWU(d, eta, bias=bias), weights)
        self.fallback = None
        self.switch_round = None
        self.rounds = 0
        self.cum_utils = np.zeros(d)
        self.cum_earned = 0.0
        self._x = None

    @property
    def last_inner(self):
        return self.primary.last_inner if self.fallback is None else self._x

    def next_strategy(self) -> np.ndarray:
        src = self.primary if self.fallback is None else self.fallback
        self._x = src.next_strategy()
        return self._x

    def observe(self, u):
        u = np.asarray(u, dtype=float)
        rec = (self.primary if self.fallback is None else self.fallback).observe(u)
        self.rounds += 1
        self.cum_utils = self.cum_utils + u
        self.cum_earned += float(np.vdot(self._x, u))
        regret_now = self.cum_utils.max() - self.cum_earned
        if self.fallback is None and regret_now > monitor_threshold(
            self.rounds, self.eta, self.log_dim_sum, self.c
        ):
            self.switch_round = self.rounds
            self.fallback = AnytimeMWU(self.d)
        return rec if rec is not None else u


# -- persistence -------------------------------------------------------------


def trajectory_csv_lines(traj: Trajectory):
    """Rows t, tgap_last, tgap_avg, reg_1..reg_n, dreg_1..dreg_n."""
    rep = regret_report(traj)
    n = traj.n
    header = (
        ["t", "tgap_last", "tgap_avg"]
        + [f"reg_{i + 1}" for i in range(n)]
        + [f"dreg_{i + 1}" for i in range(n)]
    )
    columns = (
        [np.arange(1, traj.T + 1), traj.tgap_played, traj.tgap_inner_avg]
        + list(rep["reg"].T) + list(rep["dreg"].T)
    )
    yield from _csv_lines(header, columns)
