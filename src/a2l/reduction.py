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

Strategies and utilities carry a trailing action axis: the wrapper works at
its inner learner's state shape (..., d), and every update above applies
row by row.  The weights depend on the round alone.  One rule may serve all
rows, or each row of axis -2 (each player of a stacked state) may name its
own; a boolean ``rows`` mask leaves the unmarked rows bare, playing the
inner iterate and passing their feedback through unchanged.

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


def update_running_mean(avg, x, weight, cum_weight, out=None):
    """One incremental weighted-mean step, into ``out`` when given; O(d) per
    row and drift-bounded."""
    return np.add(avg, (weight / cum_weight) * (x - avg), out)


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
    satisfies the same contract, with the strict alternation enforced, at
    the inner learner's ``shape``, (d,) or a batch (..., d), and no other.
    ``weights`` is a rule name, a shared callable, or a sequence of rule
    names, one per row of axis -2.  ``rows`` (default: all) is a boolean
    mask that broadcasts against the leading axes plus a trailing 1, e.g.
    (n, 1); the rows it leaves out play bare.
    """

    def __init__(self, inner, weights="uniform", rows=True):
        self._weight = weights if callable(weights) else _weight_rule(weights)
        self.inner = inner
        self._bare = None if rows is True else np.logical_not(rows)
        self.t = 0
        self.avg = np.zeros(inner.shape)
        self.cum_weight = 0.0
        self._prev_avg_util = np.zeros(inner.shape)
        self._lift = None
        self._awaiting = False

    @property
    def shape(self):
        return self.inner.shape

    def next_strategy(self, out=None, inner=None) -> np.ndarray:
        """The played average, in ``out`` when given; ``inner``, when
        given, receives the inner iterate, passed as the inner learner's
        first argument, ``out``: the one way a caller reads that iterate.

        The returned array is the wrapper's running average until the next
        call.  A bare row's entries hold its inner iterate, which it plays;
        nothing reads a bare row's average.
        """
        if self._awaiting:
            raise ProtocolError("next_strategy called twice without observe")
        x = self.inner.next_strategy() if inner is None else self.inner.next_strategy(inner)
        alpha = self._weight(self.t + 1)
        prev = self.cum_weight
        cum = self.cum_weight = prev + alpha
        # observe's factor sum_{k<t} alpha_k / alpha_t.
        self._lift = prev / alpha
        avg = self.avg = update_running_mean(self.avg, x, alpha, cum, out)
        if self._bare is not None:
            np.copyto(avg, x, where=self._bare)
        self._awaiting = True
        return avg

    def observe(self, avg_util, out=None) -> np.ndarray:
        """Feed the utility vector seen at the played average.

        Returns the recovered utility vector that was forwarded to the inner
        learner (handy for logging), in ``out`` when given.  The recovery
        ((sum_{k<=t} alpha_k) ubar^t - sum_{k<t} alpha_k u^k) / alpha_t is
        evaluated in the algebraically identical update form

            u^t = ubar^t + (sum_{k<t} alpha_k / alpha_t) (ubar^t - ubar^{t-1})

        The rounding in ubar^t - ubar^{t-1} is multiplied by sum_{k<t} alpha_k / alpha_t,
        so the recovered vector's rounding error can grow linearly in t: on zs3d5, A2L-OMWU's
        max |recovered - bare utility| is 3.7e-13, 3.9e-12 and 5.1e-11 at T = 10^3, 10^4, 10^5.

        ``avg_util`` is kept as ubar^{t-1} until the next call, so the next
        round's feedback must come in another array.
        """
        if not self._awaiting:
            raise ProtocolError("observe called before next_strategy")
        avg_util = np.asarray(avg_util, float)
        if avg_util.shape != self.avg.shape:
            raise ValueError(f"utility vector has shape {avg_util.shape}, expected {self.shape}")
        u = np.add(avg_util, self._lift * (avg_util - self._prev_avg_util), out)
        if self._bare is not None:
            np.copyto(u, avg_util, where=self._bare)
        self.inner.observe(u)
        self._prev_avg_util = avg_util
        self.t += 1
        self._awaiting = False
        return u
