"""Online learners over the probability simplex.

All learners follow the same pull/push contract: ``next_strategy()`` is a
pure function of the current state and returns a mixed strategy, after which
``observe(u)`` feeds back a utility vector and advances the state.

MWU with step size eta > 0 plays

    x^t[a] ~ exp( eta * sum_{k < t} u^k[a] )

and the optimistic variant OMWU counts the most recent utility twice:

    x^t[a] ~ exp( eta * ( sum_{k < t} u^k[a] + u^{t-1}[a] ) )

with u^0 := 0, so both start uniform.  ``MWU`` is the one class of the
family: it holds the state, and ``OMWU`` and ``AnytimeMWU`` (decaying step,
the fallback of the gradient monitor and, fed importance-weighted rewards,
the bandit's Exp3) are its subclasses.  Every one of them plays through
``mwu_next`` or ``omwu_next`` and learns through ``advance``.  States store
cumulative utilities rather than log-weights, and the exponent is
max-shifted before exponentiation, so long runs neither drift nor overflow.

The math is written once over arrays with a trailing action axis: a state
and its feedback may have shape (..., d), where the leading axes index
independent rows (seeds, games of one shape, or players).  A state starts
with shape (d,) and takes the batch shape of its first utility array, so
one learner object runs a whole batch with the same code as a single run.
Parameters may differ by row: the step size is a scalar or an array that
broadcasts against the state (say (n, 1) for one step size per player),
and the bias may carry -inf at actions a row does not have, so rows of
different action counts share one padded width and get exact zeros there.
Inputs are validated on the last axis, and the finiteness check covers the
whole array.

``rvu_diagnostic`` evaluates the regret-bounded-by-variation-in-utilities
inequality for OMWU trajectories:

    Reg(T) <= log(d)/eta + eta * sum_t ||u^t - u^{t-1}||_inf^2
              - 1/(4 eta) * sum_t ||x^t - x^{t-1}||_1^2

where regret compares against the best fixed action in hindsight.
"""

from __future__ import annotations

import numpy as np


def softmax(z: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the trailing axis; safe for exponents up to
    ~700 in magnitude."""
    w = np.exp(z - z.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    return w


def padding(counts):
    """Log-weight offsets that pad rows of ``counts`` actions to the largest.

    counts is an integer array that broadcasts against the leading axes of
    a state, e.g. shape (n, 1) for one count per player.  The result has
    the counts' shape with a trailing axis of max(counts): 0 at the actions
    a row has and -inf beyond them, so a softmax gives exact zeros there.
    """
    counts = np.asarray(counts)
    return np.where(np.arange(counts.max()) < counts, 0.0, -np.inf)


def mwu_next(lrn: MWU) -> np.ndarray:
    z = lrn.eta * lrn.cum_utils
    if lrn.bias is not None:
        z = z + lrn.bias
    return softmax(z)


def omwu_next(lrn: MWU, rows=True) -> np.ndarray:
    """OMWU's strategy.  ``rows``, a 0/1 array that broadcasts like a
    per-row eta, limits the optimism to the rows marked 1; the rows marked
    0 get exactly MWU's strategy."""
    last = lrn.last_util if rows is True else rows * lrn.last_util
    z = lrn.eta * (lrn.cum_utils + last)
    if lrn.bias is not None:
        z = z + lrn.bias
    return softmax(z)


def advance(lrn: MWU, u) -> None:
    u = np.asarray(u, dtype=float)
    if u.ndim == 0 or u.shape[-1] != lrn.d:
        raise ValueError(f"utility vector has shape {u.shape}, expected (..., {lrn.d})")
    if not np.isfinite(u).all():
        raise ValueError("utility vector has non-finite entries")
    lrn.cum_utils = lrn.cum_utils + u
    lrn.last_util = u


class MWU:
    """Multiplicative weights update under the pull/push contract.

    cum_utils holds sum_{k <= t} u^k and last_util holds u^t, both zero
    before any feedback; both have shape (d,) or, once batched feedback has
    arrived, (..., d).  ``eta`` is a scalar or a per-row array.  ``bias``
    is an optional fixed log-weight offset that moves the initial strategy
    away from uniform (softmax of ``bias`` at t = 0), of shape (d,) or per
    row (..., d); None means a uniform start.
    """

    def __init__(self, d, eta, bias=None):
        if not np.all(np.asarray(eta) > 0):
            raise ValueError(f"step size must be positive, got {eta}")
        if bias is not None:
            bias = np.asarray(bias, dtype=float)
            if bias.ndim == 0 or bias.shape[-1] != d:
                raise ValueError("bias must have one entry per action")
        self.d = d
        self.eta = eta
        self.bias = bias
        self.cum_utils = np.zeros(d)
        self.last_util = np.zeros(d)

    def next_strategy(self) -> np.ndarray:
        return mwu_next(self)

    def observe(self, u) -> None:
        advance(self, u)


class OMWU(MWU):
    """Optimistic multiplicative weights: last utility counted twice.

    ``rows`` as in ``omwu_next``: a 0/1 mask lets MWU and OMWU rows share
    one state.
    """

    def __init__(self, d, eta, bias=None, rows=True):
        super().__init__(d, eta, bias=bias)
        self.rows = rows

    def next_strategy(self) -> np.ndarray:
        return omwu_next(self, self.rows)


class AnytimeMWU(MWU):
    """MWU with the horizon-free step eta = sqrt(log d / (scale s)) in a
    row's s-th round: the O(sqrt(T))-regret fallback, with scale = 1 for
    full feedback and, as Exp3, scale = d on importance-weighted rewards.
    ``d`` is an action count or an integer array of per-row counts, as in
    ``padding`` (unequal counts are padded to the largest; ``scale``
    broadcasts like them).  Each row keeps its own round count, and
    ``restart`` starts chosen rows afresh.
    """

    def __init__(self, d, scale=1):
        counts = np.asarray(d)
        self.log_d = np.log(np.maximum(counts, 2))
        self.scale = scale
        self.t = np.zeros((), dtype=int)
        pad = counts.ndim and counts.min() < counts.max()
        super().__init__(int(counts.max()), np.sqrt(self.log_d / scale),
                         bias=padding(counts) if pad else None)

    def next_strategy(self) -> np.ndarray:
        self.eta = np.sqrt(self.log_d / (self.scale * (self.t[..., None] + 1)))
        return mwu_next(self)

    def observe(self, u) -> None:
        advance(self, u)
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
