"""Proportional response dynamics in Fisher markets, with average-playing variant.

A Fisher market has m agents with budgets B_i > 0 and n divisible goods in
unit supply.  Agents repeatedly split their budgets: given a spending matrix
b (rows sum to budgets), prices are column sums p_j = sum_i b_ij and goods
are allocated proportionally to spending, x_ij = b_ij / p_j.  Proportional
response then reweights each agent's spending by the utility earned per
good:

    b'_ij = B_i * x_ij grad_j u_i(x_i) / sum_j' x_ij' grad_j' u_i(x_i)

For linear utilities u_i(x_i) = <a_i, x_i> the gradient is the constant
valuation vector a_i.

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

Interior starts (b^1_ij = B_i / n) keep every price positive and every
average spend positive, so each agent can always infer every price.  If an
agent has zero average spend on a good (impossible from an interior start,
since spending is nonnegative) its internal spend there is zero too, the
allocation is zero and the price is not needed.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .reduction import A2L


class DegenerateMarketError(ValueError):
    """Some good has nonpositive price, so allocations are undefined."""


class StallError(RuntimeError):
    """An agent derives zero marginal utility from its whole bundle."""

    def __init__(self, agent):
        self.agent = agent
        super().__init__(f"agent {agent} has zero bundle-weighted marginal utility")


class FisherMarket:
    """Market instance: budgets plus either linear valuations or a gradient.

    For linear utilities pass `valuations` with rows a_i >= 0, a_i != 0.
    Other (e.g. gross-substitutes) utilities are supported only through a
    user-supplied `gradient(i, bundle) -> vector`; no validity check is
    performed on such oracles.
    """

    def __init__(self, budgets, valuations=None, gradient=None):
        self.budgets = np.asarray(budgets, dtype=float)
        if self.budgets.ndim != 1 or self.budgets.size == 0 or np.any(self.budgets <= 0):
            raise ValueError("budgets must be a nonempty vector of positive numbers")
        if (valuations is None) == (gradient is None):
            raise ValueError("pass exactly one of valuations or gradient")
        self.m_agents = self.budgets.size
        if valuations is not None:
            v = np.asarray(valuations, dtype=float)
            if v.ndim != 2 or v.shape[0] != self.m_agents:
                raise ValueError("valuations must be one row per agent")
            if np.any(v < 0) or np.any(v.sum(axis=1) == 0):
                raise ValueError("linear valuations need a_i >= 0 and a_i != 0")
            self.valuations = v
            self.n_goods = v.shape[1]
            self._gradient = None
        else:
            self.valuations = None
            self._gradient = gradient
            self.n_goods = None  # unknown until first bundle is seen

    @property
    def linear(self) -> bool:
        return self.valuations is not None

    def gradient(self, i, bundle) -> np.ndarray:
        if self.linear:
            return self.valuations[i]
        return np.asarray(self._gradient(i, bundle), dtype=float)

    def utility(self, i, bundle) -> float:
        if not self.linear:
            raise ValueError("utility values are only defined for linear markets")
        return float(self.valuations[i] @ bundle)

    def to_dict(self) -> dict:
        if not self.linear:
            raise ValueError("only linear markets serialize to JSON")
        return {"budgets": self.budgets.tolist(), "valuations": self.valuations.tolist()}

    @classmethod
    def from_dict(cls, data) -> "FisherMarket":
        return cls(data["budgets"], valuations=data["valuations"])


def save_market(market, path):
    with open(path, "w") as f:
        json.dump(market.to_dict(), f, indent=2)


def load_market(path) -> FisherMarket:
    with open(path) as f:
        return FisherMarket.from_dict(json.load(f))


def random_linear_market(m, n, seed=None, value_range=(0.25, 1.0),
                         budget_range=(0.5, 1.5)) -> FisherMarket:
    """Random linear market; valuations bounded away from zero."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(*value_range, size=(m, n))
    budgets = rng.uniform(*budget_range, size=m)
    return FisherMarket(budgets, valuations=vals)


def uniform_spending(market) -> np.ndarray:
    """Interior start b_ij = B_i / n; every price starts positive."""
    if market.n_goods is None:
        raise ValueError("market needs a known number of goods")
    return np.tile(market.budgets[:, None] / market.n_goods, (1, market.n_goods))


def prices(spend) -> np.ndarray:
    return np.asarray(spend).sum(axis=0)


def allocations(spend) -> np.ndarray:
    p = prices(spend)
    if np.any(p <= 0):
        raise DegenerateMarketError(f"nonpositive prices: {p}")
    return spend / p


def check_spending(market, spend, tol=1e-9):
    spend = np.asarray(spend, dtype=float)
    if np.any(spend < 0):
        raise ValueError("spending must be nonnegative")
    if np.abs(spend.sum(axis=1) - market.budgets).max() > tol:
        raise ValueError("row sums of spending must equal budgets")
    return spend


def _respond(market, alloc) -> np.ndarray:
    """Proportional response of every agent (row) to its allocation row.

    The gradient oracle of a non-linear market is called once per row.
    """
    if market.linear:
        w = alloc * market.valuations
    else:
        w = np.stack([alloc[i] * market.gradient(i, alloc[i]) for i in range(len(alloc))])
    denom = w.sum(axis=1)
    stalled = np.flatnonzero(denom <= 0)
    if stalled.size:
        raise StallError(int(stalled[0]))
    return market.budgets[:, None] * w / denom[:, None]


def prd_step(market, spend) -> np.ndarray:
    """One proportional response update of the whole spending matrix."""
    return _respond(market, allocations(spend))


def run_prd(market, T, spend0=None) -> dict:
    """Iterate proportional response for T steps from an interior start.

    Returns the spend/price trajectories plus the running average prices
    and the equilibrium-gap metric of the averaged state.
    """
    b = uniform_spending(market) if spend0 is None else check_spending(market, spend0)
    m, n = b.shape
    spends = np.empty((T, m, n))
    price_hist = np.empty((T, n))
    avg_prices = np.empty((T, n))
    avg_spends = np.empty((T, m, n))
    bbar = None
    for t in range(T):
        spends[t] = b
        price_hist[t] = prices(b)
        bbar = b if bbar is None else bbar + (b - bbar) / (t + 1.0)
        avg_spends[t] = bbar
        avg_prices[t] = prices(bbar)
        b = prd_step(market, b)
    gaps = market_gap(market, avg_prices, spend=avg_spends).max(axis=1) if market.linear else None
    return {
        "spends": spends,
        "prices": price_hist,
        "avg_prices": avg_prices,
        "avg_spends": avg_spends,
        "avg_gap": gaps,
    }


class ProportionalResponse:
    """The agents' proportional response as one inner learner for ``A2L``.

    The state is the (m, n) spend matrix, one agent per row on the trailing
    axis.  next_strategy() posts the spends; observe(p) takes each agent's
    price row, allocates x_ij = b_ij / p_ij where p_ij > 0 (0 elsewhere) and
    applies the proportional response update.  Each agent uses only its own
    row.
    """

    def __init__(self, market, spend):
        self.market = market
        self.spend = spend
        self.last_prices = None

    @property
    def d(self):
        return self.spend.shape[1]

    def next_strategy(self) -> np.ndarray:
        return self.spend

    def observe(self, p) -> None:
        self.last_prices = p
        alloc = np.divide(self.spend, p, out=np.zeros_like(self.spend), where=p > 0)
        self.spend = _respond(self.market, alloc)


def a2l_prd_init(market, spend0=None) -> A2L:
    """Average-playing PRD: the agents' ``ProportionalResponse`` wrapped in
    ``A2L`` with uniform weights."""
    b = uniform_spending(market) if spend0 is None else check_spending(market, spend0)
    return A2L(ProportionalResponse(market, b), "uniform")


def a2l_prd_step(market, state: A2L) -> np.ndarray:
    """One round of average-playing proportional response.

    Posts the running average bbar of the internal spends, lets each agent
    infer the average prices from its own allocation row only (pbar_j =
    bbar_ij / xbar_ij where it spends, 0 elsewhere) and feeds them to
    ``state``, which reconstructs the internal prices and updates the
    internal spends.  ``state`` comes from ``a2l_prd_init(market)``.
    Returns the averaged spending that was played.
    """
    bbar = state.next_strategy()
    x_bar = allocations(bbar)
    state.observe(np.divide(bbar, x_bar, out=np.zeros_like(bbar), where=bbar > 0))
    return bbar


def run_a2l_prd(market, T, spend0=None) -> dict:
    """Iterate the average-playing dynamics for T rounds.

    The played prices equal the running average of the internal run's
    prices, so average-price convergence shows up in the last iterate.
    """
    state = a2l_prd_init(market, spend0)
    m, n = state.inner.spend.shape
    played_prices = np.empty((T, n))
    played_spends = np.empty((T, m, n))
    recovered = np.empty((T, m, n))
    for k in range(T):
        bbar = a2l_prd_step(market, state)
        played_spends[k] = bbar
        played_prices[k] = prices(bbar)
        recovered[k] = state.inner.last_prices
    return {
        "played_prices": played_prices,
        "played_spends": played_spends,
        "recovered_prices": recovered,
    }


def market_gap(market, p, x=None, *, spend=None) -> np.ndarray:
    """Per-agent utility shortfall against the best bang-per-buck bundle.

    gap_i = B_i * max_j a_ij / p_j - <a_i, x_i>; zero for every agent
    exactly at a competitive equilibrium.  Linear markets only.  Pass the
    allocation x, or the spending, whose allocation x = spend / p is then
    never formed.  Leading axes broadcast: prices (T, n) with (T, m, n)
    allocations or spends give the (T, m) gaps of T rounds in one call,
    with no temporary of the spends' size.
    """
    if not market.linear:
        raise ValueError("equilibrium gap is only defined for linear markets")
    a = market.valuations
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0):
        raise DegenerateMarketError(f"nonpositive prices: {p}")
    best = functools.reduce(np.maximum, (a[:, j] / p[..., j, None] for j in range(a.shape[1])))
    if spend is None:
        got = np.einsum("ij,...ij->...i", a, np.asarray(x, dtype=float))
    else:
        got = np.einsum("ij,...ij,...j->...i", a, spend, 1.0 / p)
    return market.budgets * best - got


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


def price_csv_columns(price_hist, gaps=None):
    """Header and columns t, p_1..p_n, max_bpb_violation."""
    T, n = price_hist.shape
    header = ["t"] + [f"p_{j + 1}" for j in range(n)] + ["max_bpb_violation"]
    columns = (
        [np.arange(1, T + 1)] + list(price_hist.T)
        + [np.full(T, np.nan) if gaps is None else gaps]
    )
    return header, columns
