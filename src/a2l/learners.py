"""Online learners over the probability simplex.

All learners follow the same pull/push contract: ``next_strategy()`` is a
pure function of the current state and returns a mixed strategy, after which
``observe(u)`` feeds back a utility vector and advances the state.

MWU with step size eta > 0 plays

    x^t[a] ~ exp( eta * sum_{k < t} u^k[a] )

and the optimistic variant OMWU counts the most recent utility twice:

    x^t[a] ~ exp( eta * ( sum_{k < t} u^k[a] + u^{t-1}[a] ) )

with u^0 := 0, so both start uniform.  States store cumulative utilities
rather than log-weights, and the exponent is max-shifted before
exponentiation, so long runs neither drift nor overflow.

The math is written once over arrays with a trailing action axis: a state
and its feedback may have shape (..., d), where the leading axes index
independent rows (seeds, games of one shape, or players) that share the
round counter.  A state starts with shape (d,) and takes the batch shape of
its first utility array, so one learner object runs a whole batch with the
same code as a single run.  Parameters may differ by row: the step size is
a scalar or an array that broadcasts against the state (say (n, 1) for one
step size per player), and the bias may carry -inf at actions a row does
not have, so rows of different action counts share one padded width and
get exact zeros there.  Inputs are validated on the last axis, and the
finiteness check covers the whole array.

``rvu_diagnostic`` evaluates the regret-bounded-by-variation-in-utilities
inequality for OMWU trajectories:

    Reg(T) <= log(d)/eta + eta * sum_t ||u^t - u^{t-1}||_inf^2
              - 1/(4 eta) * sum_t ||x^t - x^{t-1}||_1^2

where regret compares against the best fixed action in hindsight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def softmax(z: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the trailing axis; safe for exponents up to
    ~700 in magnitude."""
    w = np.exp(z - z.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    return w


@dataclass
class LearnerState:
    """State shared by the multiplicative-weights family.

    cum_utils holds sum_{k <= t} u^k and last_util holds u^t, both zero
    before any feedback; both have shape (d,) or, once batched feedback has
    arrived, (..., d).  ``eta`` is a scalar or a per-row array.  ``bias``
    is an optional fixed log-weight offset that moves the initial strategy
    away from uniform (softmax of ``bias`` at t = 0), of shape (d,) or per
    row (..., d); it defaults to None, i.e. a uniform start.
    """

    d: int
    eta: float | np.ndarray
    cum_utils: np.ndarray = None
    last_util: np.ndarray = None
    t: int = 0
    bias: np.ndarray = None

    def __post_init__(self):
        if not np.all(np.asarray(self.eta) > 0):
            raise ValueError(f"step size must be positive, got {self.eta}")
        if self.cum_utils is None:
            self.cum_utils = np.zeros(self.d)
        if self.last_util is None:
            self.last_util = np.zeros(self.d)
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=float)
            if self.bias.ndim == 0 or self.bias.shape[-1] != self.d:
                raise ValueError("bias must have one entry per action")


def padding(counts):
    """Log-weight offsets that pad rows of ``counts`` actions to the largest.

    counts is an integer array that broadcasts against the leading axes of
    a state, e.g. shape (n, 1) for one count per player.  The result has
    the counts' shape with a trailing axis of max(counts): 0 at the actions
    a row has and -inf beyond them, so a softmax gives exact zeros there.
    """
    counts = np.asarray(counts)
    return np.where(np.arange(counts.max()) < counts, 0.0, -np.inf)


def mwu_next(state: LearnerState) -> np.ndarray:
    z = state.eta * state.cum_utils
    if state.bias is not None:
        z = z + state.bias
    return softmax(z)


def omwu_next(state: LearnerState, rows=True) -> np.ndarray:
    """OMWU's strategy.  ``rows``, a 0/1 array that broadcasts like a
    per-row eta, limits the optimism to the rows marked 1; the rows marked
    0 get exactly MWU's strategy."""
    last = state.last_util if rows is True else rows * state.last_util
    z = state.eta * (state.cum_utils + last)
    if state.bias is not None:
        z = z + state.bias
    return softmax(z)


def advance(state: LearnerState, u) -> None:
    u = np.asarray(u, dtype=float)
    if u.ndim == 0 or u.shape[-1] != state.d:
        raise ValueError(f"utility vector has shape {u.shape}, expected (..., {state.d})")
    if not np.isfinite(u).all():
        raise ValueError("utility vector has non-finite entries")
    state.cum_utils = state.cum_utils + u
    state.last_util = u
    state.t += 1


class MWU:
    """Multiplicative weights update under the pull/push contract."""

    optimistic = False

    def __init__(self, d, eta, bias=None):
        self.state = LearnerState(d=d, eta=eta, bias=bias)

    @property
    def d(self):
        return self.state.d

    @property
    def eta(self):
        return self.state.eta

    def next_strategy(self) -> np.ndarray:
        return mwu_next(self.state)

    def observe(self, u) -> None:
        advance(self.state, u)


class OMWU(MWU):
    """Optimistic multiplicative weights: last utility counted twice.

    ``rows`` as in ``omwu_next``: a 0/1 mask lets MWU and OMWU rows share
    one state.
    """

    optimistic = True

    def __init__(self, d, eta, bias=None, rows=True):
        super().__init__(d, eta, bias=bias)
        self.rows = rows

    def next_strategy(self) -> np.ndarray:
        return omwu_next(self.state, self.rows)


class AnytimeMWU:
    """MWU with the horizon-free decaying step size eta_t = sqrt(log d / t).

    Standard O(sqrt(T))-regret fallback; used after a robustness switch.
    ``d`` is an action count or an integer array of per-row counts, as in
    ``padding``; rows are then padded to the largest count.  Each row keeps
    its own round count, and ``restart`` starts chosen rows afresh.
    """

    def __init__(self, d):
        counts = np.asarray(d)
        self.d = int(counts.max())
        self.log_d = np.log(np.maximum(counts, 2))
        self.pad = padding(counts) if counts.ndim else None
        self.cum_utils = np.zeros(self.d)
        self.t = np.zeros((), dtype=int)

    def next_strategy(self) -> np.ndarray:
        eta = np.sqrt(self.log_d / (self.t[..., None] + 1))
        z = eta * self.cum_utils
        if self.pad is not None:
            z = z + self.pad
        return softmax(z)

    def observe(self, u) -> None:
        self.cum_utils = self.cum_utils + np.asarray(u, dtype=float)
        self.t = self.t + 1

    def restart(self, rows) -> None:
        """Start the rows marked in the boolean mask ``rows`` (over the
        leading axes) from a uniform strategy at round 0."""
        self.cum_utils = np.where(rows[..., None], 0.0, self.cum_utils)
        self.t = np.where(rows, 0, self.t)


def regret(strategies, utils) -> float:
    """Best fixed action's cumulative utility minus the realized one."""
    xs = np.asarray(strategies, dtype=float)
    us = np.asarray(utils, dtype=float)
    return float(us.sum(axis=0).max() - np.einsum("td,td->", xs, us))


def rvu_diagnostic(strategies, utils, eta) -> dict:
    """Evaluate the RVU inequality on an OMWU trajectory.

    Conventions: u^0 = 0 and x^0 = x^1 (the first movement term is zero,
    which only weakens the subtracted side).  Returns regret, the bound's
    right-hand side, and the slack rhs - regret.
    """
    xs = np.asarray(strategies, dtype=float)
    us = np.asarray(utils, dtype=float)
    if xs.ndim != 2 or len(xs) == 0 or xs.shape != us.shape:
        raise ValueError("need matching nonempty (T, d) strategy and utility arrays")
    d = xs.shape[1]
    du = np.abs(np.diff(us, axis=0, prepend=np.zeros((1, d)))).max(axis=1)
    dx = np.abs(np.diff(xs, axis=0)).sum(axis=1)
    reg = regret(xs, us)
    rhs = np.log(d) / eta + eta * float(du @ du) - float(dx @ dx) / (4.0 * eta)
    return {"regret": reg, "bound_rhs": rhs, "slack": rhs - reg}
