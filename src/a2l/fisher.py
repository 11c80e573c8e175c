"""Proportional response dynamics in linear Fisher markets, with average-playing variant.

A Fisher market has m agents with budgets B_i > 0 and n divisible goods in
unit supply; agent i has the linear utility u_i(x_i) = <a_i, x_i>, with
finite valuations a_i >= 0, a_i != 0.  Agents repeatedly split their
budgets: given a spending matrix b (rows sum to budgets), prices are column
sums p_j = sum_i b_ij and goods are allocated proportionally to spending,
x_ij = b_ij / p_j.  Proportional response then reweights each agent's
spending by the utility earned per good:

    b'_ij = B_i * x_ij a_ij / sum_j' x_ij' a_ij'

The average-playing variant is the package's one reduction,
``reduction.A2L``, wrapped around the agents' proportional response
(``ProportionalResponse``, one agent per row of the spend matrix).  Every
agent spends the running average bbar^t_i of its internal iterates b^t_i.
The observed allocation row xbar^t_i = bbar^t_i / pbar^t reveals the
average prices (pbar_j = bbar_ij / xbar_ij wherever the agent spends), the
wrapper reconstructs the current internal price vector

    p^t = t * pbar^t - sum_{k<t} p^k

and the agent re-derives its internal allocation x^t_ij = b^t_ij / p^t_j
and applies the ordinary update to its internal spending.  The played
prices then equal the running average of the internal run's prices, so
average-price convergence becomes last-iterate price convergence.  Prices
always conserve money: sum_j p_j = sum_i B_i.

Every run starts at the interior point b^1_ij = B_i / n, as the
proportional response analysis does, so every average spend stays positive
and each agent can always infer every price.

``run_prd`` returns ``prices``, ``avg_prices`` and ``avg_gap``;
``run_a2l_prd`` returns ``played_prices`` and ``played_gap``.  Both take
exactly T rounds and compute no step past round T: on a market with a good
no agent values, ``run_prd`` reports round 1 and fails at round 2, where
that good's price drops to zero, while ``run_a2l_prd``'s averages keep
round 1's spends.  Each spend matrix is priced once per round, each error
guard is one reduction, and a divide is masked only when some entry is not
positive.  A round of ``run_prd`` costs about 13-15 us on a 5x5 market and
29-38 us on a 50x20 one, and one of ``run_a2l_prd`` 17-22 and 35-45 us, on
a 2-core x86-64 VM at T = 1000 (medians of interleaved runs, which move
with the host's speed).  Neither keeps a (T, m, n) spend log: the spends
pass through one reused buffer of ``dynamics.CHUNK_ROUNDS`` (256) rounds,
whose max gaps are folded into the (T,) column once per chunk, so a run
holds O(256 m n + T n) floats.  On a 50x20 market at T = 10^4 their
tracemalloc peaks are 5.6 and 4.1 MiB.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn
from .games import _reals
from .reduction import A2L


class DegenerateMarketError(ValueError):
    """Some good has nonpositive price, so allocations are undefined."""


class StallError(RuntimeError):
    """An agent derives zero marginal utility from its whole bundle."""

    def __init__(self, agent):
        self.agent = agent
        super().__init__(f"agent {agent} has zero bundle-weighted marginal utility")


class FisherMarket:
    """Linear market instance: finite budgets B_i > 0 and finite valuation
    rows a_i >= 0, a_i != 0, one per agent, all entries real numbers."""

    def __init__(self, budgets, valuations):
        self.budgets = _reals("budgets", budgets)
        if self.budgets.ndim != 1 or self.budgets.size == 0 or not np.all(
                (self.budgets > 0) & (self.budgets < np.inf)):  # NaN fails too
            raise ValueError("budgets must be a nonempty vector of positive finite numbers")
        v = _reals("valuations", valuations)
        if v.ndim != 2 or v.shape[0] != self.budgets.size:
            raise ValueError("valuations must be one row per agent")
        if not np.all((v >= 0) & (v < np.inf)) or np.any(v.sum(axis=1) == 0):
            raise ValueError("linear valuations need finite a_i >= 0 and a_i != 0")
        self.valuations = v
        self.m_agents, self.n_goods = v.shape

    def to_dict(self) -> dict:
        return {"budgets": self.budgets.tolist(), "valuations": self.valuations.tolist()}

    @classmethod
    def from_dict(cls, data) -> "FisherMarket":
        for key in ("budgets", "valuations"):
            if key not in data:
                raise ValueError(f"missing key {key!r}")
        return cls(data["budgets"], valuations=data["valuations"])


def load_market(path) -> FisherMarket:
    with open(path) as f:
        return FisherMarket.from_dict(json.load(f))


def random_linear_market(m, n, seed=None) -> FisherMarket:
    """Random linear market: valuations uniform on [0.25, 1), budgets on [0.5, 1.5)."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.25, 1.0, size=(m, n))
    budgets = rng.uniform(0.5, 1.5, size=m)
    return FisherMarket(budgets, valuations=vals)


def uniform_spending(market) -> np.ndarray:
    """Interior start b_ij = B_i / n; every price starts positive."""
    return np.tile(market.budgets[:, None] / market.n_goods, (1, market.n_goods))


def _priced(spend) -> np.ndarray:
    """Prices of a spend array, refused unless every one is positive."""
    p = spend.sum(axis=0)
    if p.min() <= 0:
        raise DegenerateMarketError(f"nonpositive prices: {p}")
    return p


def allocations(spend) -> np.ndarray:
    spend = np.asarray(spend)
    return spend / _priced(spend)


def _respond(valuations, budgets, alloc) -> np.ndarray:
    """Proportional response of every agent (row) to its allocation row;
    ``budgets`` is the (m, 1) budget column."""
    w = alloc * valuations
    denom = w.sum(axis=1, keepdims=True)
    if denom.min() <= 0:
        raise StallError(int(np.flatnonzero(denom <= 0)[0]))
    return budgets * w / denom


def _divide_where(num, den, mask) -> np.ndarray:
    """num / den where mask > 0, 0 elsewhere; one plain divide when every
    mask entry is positive."""
    if mask.min() > 0:
        return num / den
    return np.divide(num, den, out=np.zeros_like(num), where=mask > 0)


def prd_step(market, spend) -> np.ndarray:
    """One proportional response update of the whole spending matrix."""
    return _respond(market.valuations, market.budgets[:, None], allocations(spend))


def _fold_gaps(market, T, rounds):
    """(T, n) prices and (T,) max ``market_gap`` of the T >= 1 (spend,
    prices) pairs that ``rounds`` yields, the spends copied into one reused
    (CHUNK_ROUNDS, m, n) buffer and folded once per chunk."""
    K = min(dyn.CHUNK_ROUNDS, T)
    buf = np.empty((K, market.m_agents, market.n_goods))
    p = np.empty((T, market.n_goods))
    gaps = []
    for t, (spend, price) in enumerate(rounds):
        k = t % K
        buf[k] = spend
        p[t] = price
        if k == K - 1 or t == T - 1:
            gaps.append(market_gap(market, p[t - k:t + 1], buf[:k + 1]).max(axis=1))
    return p, np.concatenate(gaps)


def run_prd(market, T) -> dict:
    """Iterate proportional response for exactly T >= 1 rounds from the
    uniform start b_ij = B_i / n.

    Returns the (T, n) ``prices``, the running average ``avg_prices`` and
    the (T,) max equilibrium gap ``avg_gap`` of the averaged spends.  Round
    t + 1's spends are computed only when t < T, so no step past round T is
    taken.
    """
    dyn.check_count("T", T)
    prices = np.empty((T, market.n_goods))

    def averaged(b):
        budgets = market.budgets[:, None]
        for t in range(T):
            if t:
                b = _respond(market.valuations, budgets, b / p)
                bbar = bbar + (b - bbar) / (t + 1.0)
            else:
                bbar = b
            p = prices[t] = _priced(b)
            yield bbar, bbar.sum(axis=0)

    avg_prices, avg_gap = _fold_gaps(market, T, averaged(uniform_spending(market)))
    return {"prices": prices, "avg_prices": avg_prices, "avg_gap": avg_gap}


class ProportionalResponse:
    """The agents' proportional response as one inner learner for ``A2L``.

    The state is the (m, n) spend matrix, its ``shape``, one agent per row
    on the trailing axis.  next_strategy() posts the spends; observe(p)
    takes each agent's price row, allocates x_ij = b_ij / p_ij where
    p_ij > 0 (0 elsewhere) and applies the proportional response update.
    Each agent uses only its own row.
    """

    def __init__(self, market, spend):
        self.market = market
        self.spend = spend
        self._budgets = market.budgets[:, None]

    @property
    def shape(self):
        return self.spend.shape

    def next_strategy(self) -> np.ndarray:
        return self.spend

    def observe(self, p) -> None:
        alloc = _divide_where(self.spend, p, p)
        self.spend = _respond(self.market.valuations, self._budgets, alloc)


def a2l_prd_init(market) -> A2L:
    """Average-playing PRD from the uniform start: the agents'
    ``ProportionalResponse`` wrapped in ``A2L`` with uniform weights."""
    return A2L(ProportionalResponse(market, uniform_spending(market)), "uniform")


def a2l_prd_step(market, state: A2L) -> np.ndarray:
    """One round of average-playing proportional response.

    Posts the running average bbar of the internal spends, lets each agent
    infer the average prices from its own allocation row only (pbar_j =
    bbar_ij / xbar_ij where it spends, 0 elsewhere) and feeds them to
    ``state``, which reconstructs the internal prices and updates the
    internal spends.  ``state`` is ``a2l_prd_init(market)``, which starts
    at the uniform spends, or ``A2L(ProportionalResponse(market, b0),
    "uniform")`` for another start b0 with budget rows and a positive spend
    on every good.  Returns the averaged spending that was played.
    """
    bbar = state.next_strategy()
    state.observe(_divide_where(bbar, bbar / _priced(bbar), bbar))
    return bbar


def run_a2l_prd(market, T) -> dict:
    """Iterate the average-playing dynamics for exactly T >= 1 rounds from
    the uniform start.

    Returns the (T, n) ``played_prices``, which equal the running average
    of the internal run's prices, so average-price convergence shows up in
    the last iterate, and the (T,) max equilibrium gap ``played_gap`` of
    the played spends.  These are ``a2l_prd_step``'s rounds, except that
    round T's inferred prices are never observed, so the internal step past
    T is not taken.
    """
    def played():
        for t in range(T):
            if t:
                state.observe(_divide_where(bbar, bbar / p, bbar))
            bbar = state.next_strategy()
            p = _priced(bbar)
            yield bbar, p

    dyn.check_count("T", T)
    state = a2l_prd_init(market)
    played_prices, gaps = _fold_gaps(market, T, played())
    return {"played_prices": played_prices, "played_gap": gaps}


def market_gap(market, p, spend) -> np.ndarray:
    """Per-agent utility shortfall against the best bang-per-buck bundle.

    gap_i = B_i * max_j a_ij / p_j - <a_i, spend_i / p>; zero for every
    agent exactly at a competitive equilibrium.  The allocation
    spend / p is never formed.  Leading axes broadcast: prices (T, n) with
    (T, m, n) spends give the (T, m) gaps of T rounds in one call, with no
    temporary of the spends' size.
    """
    a = market.valuations
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0):
        raise DegenerateMarketError(f"nonpositive prices: {p}")
    best = functools.reduce(np.maximum, (a[:, j] / p[..., j, None] for j in range(a.shape[1])))
    return market.budgets * best - np.einsum("ij,...ij,...j->...i", a, spend, 1.0 / p)


@dataclass
class CEReport:
    """Per-condition competitive equilibrium check."""

    budget_ok: bool
    utility_ok: bool
    clears_ok: bool
    worst_budget_violation: float
    worst_bpb_violation: float
    worst_clearing_violation: float

    @property
    def passed(self) -> bool:
        return self.budget_ok and self.utility_ok and self.clears_ok


def verify_ce(market, p, x, tol=1e-6) -> CEReport:
    """Check budget feasibility, utility maximization, market clearing.

    For linear utilities, maximization is checked as: every good an agent
    spends on attains the best bang-per-buck a_ij / p_j within tol.
    """
    p = np.asarray(p, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.all(p <= 0):
        raise DegenerateMarketError("all prices are zero")
    if np.any(p < 0):
        raise DegenerateMarketError(f"negative prices: {p}")
    if np.any((p == 0) & (market.valuations.max(axis=0) > 0)):
        raise DegenerateMarketError("zero price on a valued good")

    spend = x * p
    budget_viol = float((spend.sum(axis=1) - market.budgets).max())

    bpb = np.where(p > 0, market.valuations / np.where(p > 0, p, 1.0), 0.0)
    best = bpb.max(axis=1)
    spends_on = spend > tol * market.budgets[:, None]
    shortfall = (best[:, None] - bpb) * spends_on
    bpb_viol = float(shortfall.max()) if spends_on.any() else 0.0

    supply = x.sum(axis=0)
    over = float((supply - 1.0).max())
    under = float(np.where(p > 0, 1.0 - supply, 0.0).max())
    clearing_viol = max(over, under)

    return CEReport(
        budget_ok=budget_viol <= tol,
        utility_ok=bpb_viol <= tol,
        clears_ok=clearing_viol <= tol,
        worst_budget_violation=budget_viol,
        worst_bpb_violation=bpb_viol,
        worst_clearing_violation=clearing_viol,
    )


def price_csv_columns(price_hist, gaps):
    """Header and columns t, p_1..p_n, max_bpb_violation."""
    T, n = price_hist.shape
    header = ["t"] + [f"p_{j + 1}" for j in range(n)] + ["max_bpb_violation"]
    return header, [np.arange(1, T + 1)] + list(price_hist.T) + [gaps]
