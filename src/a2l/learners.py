"""Online learners over the probability simplex.

All learners follow the same pull/push contract: ``next_strategy()`` is a
pure function of the current state and returns a mixed strategy, after which
``observe(u)`` feeds back a utility vector and advances the state.

``next_strategy(out=None)`` (and ``softmax``, ``mwu_next``, ``omwu_next``)
writes its result into ``out``, a caller's array of the state's shape, and
returns it; the default None allocates a new array each round, which no
later round overwrites.  The wrappers (``reduction.A2L``,
``dynamics.RegretGuard``) also write their inner iterate and, from
``observe(u, out=None)``, the utilities they recovered.  A learner keeps the
arrays of one round, the strategy it returned and the feedback it observed,
as its state until the next round has been observed: a caller that writes
into the arrays it passes gives consecutive rounds distinct ones and leaves
each as written until then.

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

The math is written once over arrays with a trailing action axis.  A
learner is built at its state's shape, an action count d or a tuple
(..., d) whose leading axes index independent rows (seeds, games of one
shape, or players), and refuses feedback of any other shape, so one
learner object runs a whole batch with the same code as a single run.
Parameters may differ by row: the step size is a scalar or an array that
broadcasts against the state (say (n, 1) for one step size per player),
and the bias may carry -inf at actions a row does not have, so rows of
different action counts share one padded width and get exact zeros there.
Both are spread over the state once, at construction; the finiteness check
covers the whole feedback array, in one dot product when it is finite.

``rvu_diagnostic`` evaluates the regret-bounded-by-variation-in-utilities
inequality for OMWU trajectories:

    Reg(T) <= log(d)/eta + eta * sum_t ||u^t - u^{t-1}||_inf^2
              - 1/(4 eta) * sum_t ||x^t - x^{t-1}||_1^2

where regret compares against the best fixed action in hindsight.
"""

from __future__ import annotations

import math

import numpy as np


def softmax(z: np.ndarray, out=None) -> np.ndarray:
    """Max-shifted softmax over the trailing axis, into ``out`` when given;
    safe for exponents up to ~700 in magnitude."""
    # Reductions called with (array, axis, dtype, out, keepdims) by
    # position: numpy parses those faster than keywords.
    w = np.exp(z - np.maximum.reduce(z, -1, None, None, True), out=out)
    w /= np.add.reduce(w, -1, None, None, True)
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


def mwu_next(lrn: MWU, out=None) -> np.ndarray:
    z = lrn.eta * lrn.cum_utils
    if lrn.bias is not None:
        z += lrn.bias
    return softmax(z, out)


def omwu_next(lrn: MWU, rows=True, out=None) -> np.ndarray:
    """OMWU's strategy.  ``rows``, a 0/1 array that broadcasts like a
    per-row eta, limits the optimism to the rows marked 1; the rows marked
    0 get exactly MWU's strategy."""
    z = lrn.cum_utils + (lrn.last_util if rows is True else rows * lrn.last_util)
    z *= lrn.eta
    if lrn.bias is not None:
        z += lrn.bias
    return softmax(z, out)


def advance(lrn: MWU, u) -> None:
    u = np.asarray(u, float)
    if u.shape != lrn.shape:
        raise ValueError(f"utility vector has shape {u.shape}, expected {lrn.shape}")
    # The sum of squares is not finite when an entry is NaN or infinite, or
    # when it overflows (an entry near 1e154 or beyond); only then does the
    # check go entry by entry.  vdot is not a ufunc, so none of these makes
    # numpy warn, and it is faster than a ufunc reduction.
    if not math.isfinite(np.vdot(u, u)) and not np.isfinite(u).all():
        raise ValueError("utility vector has non-finite entries")
    lrn.cum_utils = lrn.cum_utils + u
    lrn.last_util = u


def _spread(name, value, shape) -> np.ndarray:
    """A float copy of ``value`` at the state's ``shape``; a ValueError names
    the parameter and both shapes when it does not broadcast there."""
    try:
        spread = np.broadcast_to(value, shape)
    except ValueError:
        raise ValueError(f"{name} has shape {np.shape(value)}, which does not broadcast "
                         f"to the state's shape {shape}") from None
    return spread.astype(float)


class MWU:
    """Multiplicative weights update under the pull/push contract.

    cum_utils holds sum_{k <= t} u^k and last_util holds u^t, both zero
    before any feedback and of the state's ``shape``, d or (..., d), the
    only shape ``observe`` takes.  ``eta`` is a scalar or a per-row array.
    ``bias`` is an optional fixed log-weight offset that moves the initial
    strategy away from uniform (softmax of ``bias`` at t = 0), of shape (d,)
    or per row (..., d); None means a uniform start.
    """

    def __init__(self, shape, eta, bias=None):
        if not np.all(np.asarray(eta) > 0):
            raise ValueError(f"step size must be positive, got {eta}")
        self.cum_utils = np.zeros(shape)
        self.shape = self.cum_utils.shape
        self.last_util = np.zeros(self.shape)
        self.eta = _spread("eta", eta, self.shape)
        self.bias = None if bias is None else _spread("bias", bias, self.shape)

    def next_strategy(self, out=None) -> np.ndarray:
        return mwu_next(self, out)

    def observe(self, u) -> None:
        advance(self, u)


class OMWU(MWU):
    """Optimistic multiplicative weights: last utility counted twice.

    ``rows`` as in ``omwu_next``: a 0/1 mask lets MWU and OMWU rows share
    one state.
    """

    def __init__(self, shape, eta, bias=None, rows=True):
        super().__init__(shape, eta, bias=bias)
        self.rows = rows

    def next_strategy(self, out=None) -> np.ndarray:
        return omwu_next(self, self.rows, out)


class AnytimeMWU(MWU):
    """MWU with the horizon-free step eta = sqrt(log d / (scale s)) in a
    row's s-th round: the O(sqrt(T))-regret fallback, with scale = 1 for
    full feedback and, as Exp3, scale = d on importance-weighted rewards.
    ``counts`` (default: the state's d) is an integer array of per-row
    counts, as in ``padding`` (unequal counts are padded to d; ``scale``
    broadcasts like them).  Each row keeps its own round count, and
    ``restart`` starts chosen rows afresh.
    """

    def __init__(self, shape, scale=1, counts=None):
        counts = np.asarray(np.atleast_1d(shape)[-1] if counts is None else counts)
        self.log_d = np.log(np.maximum(counts, 2))
        self.scale = scale
        super().__init__(shape, np.sqrt(self.log_d / scale),
                         bias=padding(counts) if np.ptp(counts) else None)
        self.t = np.zeros(self.shape[:-1], dtype=int)

    def next_strategy(self, out=None) -> np.ndarray:
        self.eta = np.sqrt(self.log_d / (self.scale * (self.t[..., None] + 1)))
        return mwu_next(self, out)

    def observe(self, u) -> None:
        advance(self, u)
        self.t = self.t + 1

    def restart(self, rows) -> None:
        """Start the rows marked in the boolean mask ``rows`` (over the
        leading axes) from a uniform strategy at round 0."""
        self.cum_utils = np.where(rows[..., None], 0.0, self.cum_utils)
        self.t = np.where(rows, 0, self.t)


class FallbackSwitch:
    """Both regret monitors' switch: once a row's running regret, max_a
    sum u[a] - sum earned over its real actions, exceeds its limit, the row
    plays its row of ``fallback`` for good, an ``AnytimeMWU`` at the state's
    ``shape`` (..., d) with ``counts`` and ``scale``, restarted at the switch.
    ``switched_at`` holds each row's switch time (0 before); ``any`` turns
    True at the first switch, and ``all`` once every row has switched."""

    def __init__(self, shape, counts, scale=1):
        self.fallback = AnytimeMWU(shape, scale=scale, counts=counts)
        rows = self.fallback.shape[:-1]
        self.cum_utils = np.broadcast_to(padding(counts), self.fallback.shape)
        self.earned = np.zeros(rows)
        self.regret = np.zeros(rows)
        self.switched = np.zeros(rows, dtype=bool)
        self.switched_at = np.zeros(rows, dtype=int)
        self.any = self.all = False

    def add(self, u, earned, limit, now) -> None:
        """Add the utility vectors u and the values earned; each row whose
        regret now exceeds ``limit`` (a scalar or per row) switches at
        ``now`` if it has not yet."""
        self.cum_utils = self.cum_utils + u
        self.earned = self.earned + earned
        self.regret = np.maximum.reduce(self.cum_utils, -1) - self.earned
        new = self.regret > limit
        if self.any:
            new &= ~self.switched
        if np.count_nonzero(new):
            self.any = True
            self.switched = self.switched | new
            self.all = bool(self.switched.all())
            self.switched_at = np.where(new, now, self.switched_at)
            self.fallback.restart(new)

    def play(self, x) -> np.ndarray:
        """Write each switched row's fallback strategy into x; returns x."""
        if self.any:
            np.copyto(x, self.fallback.next_strategy(), where=self.switched[..., None])
        return x

    def observe(self, u) -> None:
        """Feed the fallback one round's utilities."""
        self.fallback.observe(u)


def rvu_diagnostic(strategies, utils, eta) -> dict:
    """Evaluate the RVU inequality on an OMWU trajectory.

    Conventions: u^0 = 0 and x^0 = x^1 (the first movement term is zero,
    which only weakens the subtracted side).  Returns regret, the bound's
    right-hand side, and the slack rhs - regret.
    """
    # Contiguous, so that the sums below add in one order whatever the
    # layout of the caller's arrays (a run's logs are views with row gaps).
    xs = np.ascontiguousarray(strategies, dtype=float)
    us = np.ascontiguousarray(utils, dtype=float)
    if xs.ndim != 2 or len(xs) == 0 or xs.shape != us.shape:
        raise ValueError("need matching nonempty (T, d) strategy and utility arrays")
    d = xs.shape[1]
    du = np.abs(np.diff(us, axis=0, prepend=np.zeros((1, d)))).max(axis=1)
    dx = np.abs(np.diff(xs, axis=0)).sum(axis=1)
    reg = float(us.sum(axis=0).max() - np.einsum("td,td->", xs, us))
    rhs = np.log(d) / eta + eta * float(du @ du) - float(dx @ dx) / (4.0 * eta)
    return {"regret": reg, "bound_rhs": rhs, "slack": rhs - reg}
