"""Average-playing wrapper around any simplex learner.

The A2L wrapper runs an inner learner R as a subroutine.  Each round it
pulls x^t from R, plays the running (weighted) average

    xbar^t = xbar^{t-1} + (alpha_t / sum_{k<=t} alpha_k) (x^t - xbar^{t-1})

and, once the utility vector ubar^t observed at xbar^t arrives, reconstructs
the utility vector at the unplayed inner iterate x^t.  Because utilities are
linear in the opponents' strategies, and the opponents also play averages
with the same weights, the reconstruction is exact:

    u^t = ( (sum_{k<=t} alpha_k) ubar^t - sum_{k<t} alpha_k u^k ) / alpha_t

The recovered u^t is forwarded to R, so R sees exactly the feedback it would
have seen running bare, and the wrapper's play equals the weighted running
average of the bare run's iterates.  Everything is player-local: the wrapper
touches only its own feedback.

Strategies and utilities carry a trailing action axis: with an inner learner
that runs a batch of rows (see ``learners``), iterates and feedback have
shape (..., d) and every update above applies row by row.  The weights depend
on the round alone.  One rule may serve all rows, or each row of axis -2
(each player of a stacked state) may name its own; a boolean ``rows`` mask
leaves the unmarked rows bare, playing the inner iterate and passing their
feedback through unchanged.

Weight rules are a fixed enumeration (uniform alpha_t = 1, linear
alpha_t = t) so that independent players provably agree on the weights;
arbitrary weight functions are accepted only as an explicit shared callable.
"""

from __future__ import annotations

import numpy as np

WEIGHT_RULES = {
    "uniform": lambda t: 1.0,
    "linear": lambda t: float(t),
}


class ProtocolError(RuntimeError):
    """next_strategy/observe were not called in strict alternation."""


def update_running_mean(avg, x, weight, cum_weight):
    """One incremental weighted-mean step; O(d) per row and drift-bounded."""
    if avg is None:
        return np.array(x, dtype=float)
    return avg + (weight / cum_weight) * (x - avg)


def _weight_rule(names):
    """The weight function of a rule name, or of rules named row by row.

    For a sequence of names, one per row of axis -2, alpha_t has shape
    (len(names), 1); each distinct rule is evaluated once per round, so the
    cost does not grow with the number of rows.
    """
    distinct = list(dict.fromkeys([names] if isinstance(names, str) else names))
    for name in distinct:
        if name not in WEIGHT_RULES:
            raise ValueError(f"unknown weight rule {name!r}; choose from {sorted(WEIGHT_RULES)}")
    rules = [WEIGHT_RULES[name] for name in distinct]
    if len(rules) == 1:
        return rules[0]
    index = np.array([[distinct.index(name)] for name in names])
    return lambda t: np.array([rule(t) for rule in rules])[index]


class A2L:
    """Wrap a learner so the played iterate is its running average.

    The inner learner must expose next_strategy()/observe(u).  The wrapper
    satisfies the same contract, with the strict alternation enforced, for
    single strategies of shape (d,) and for batches of shape (..., d).
    ``weights`` is a rule name, a shared callable, or a sequence of rule
    names, one per row of axis -2.  ``rows`` (default: all) is a boolean
    mask that broadcasts against the leading axes plus a trailing 1, e.g.
    (n, 1); the rows it leaves out play bare.
    """

    def __init__(self, inner, weights="uniform", rows=True):
        self._weight = weights if callable(weights) else _weight_rule(weights)
        self.inner = inner
        self.rows = rows
        self.t = 0
        self.avg = None
        self.cum_weight = 0.0
        self.last_inner = None
        self._prev_weight = 0.0
        self._prev_avg_util = np.zeros(inner.d)
        self._alpha = None
        self._awaiting = False

    @property
    def d(self):
        return self.inner.d

    def next_strategy(self) -> np.ndarray:
        if self._awaiting:
            raise ProtocolError("next_strategy called twice without observe")
        x = self.inner.next_strategy()
        self._alpha = self._weight(self.t + 1)
        self._prev_weight = self.cum_weight
        # Not +=: with per-row weights cum_weight is an array that
        # _prev_weight must not share.
        self.cum_weight = self.cum_weight + self._alpha
        self.avg = update_running_mean(self.avg, x, self._alpha, self.cum_weight)
        self.last_inner = x
        self._awaiting = True
        return self.avg.copy() if self.rows is True else np.where(self.rows, self.avg, x)

    def observe(self, avg_util) -> np.ndarray:
        """Feed the utility vector seen at the played average.

        Returns the recovered utility vector that was forwarded to the inner
        learner (handy for logging).  The recovery
        ((sum_{k<=t} alpha_k) ubar^t - sum_{k<t} alpha_k u^k) / alpha_t is
        evaluated in the algebraically identical update form

            u^t = ubar^t + (sum_{k<t} alpha_k / alpha_t) (ubar^t - ubar^{t-1})

        which avoids multiplying rounding error by t.
        """
        if not self._awaiting:
            raise ProtocolError("observe called before next_strategy")
        avg_util = np.asarray(avg_util, dtype=float)
        u = avg_util + (self._prev_weight / self._alpha) * (avg_util - self._prev_avg_util)
        if self.rows is not True:
            u = np.where(self.rows, u, avg_util)
        self.inner.observe(u)
        self._prev_avg_util = avg_util
        self.t += 1
        self._awaiting = False
        return u
