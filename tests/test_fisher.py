import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2l import dynamics as dyn
from a2l import fisher
from a2l.csvrows import _csv_lines
from a2l.fisher import (
    CEReport,
    DegenerateMarketError,
    FisherMarket,
    ProportionalResponse,
    StallError,
    a2l_prd_init,
    a2l_prd_step,
    allocations,
    load_market,
    market_gap,
    prd_step,
    price_csv_columns,
    random_linear_market,
    run_a2l_prd,
    run_prd,
    uniform_spending,
    verify_ce,
)
from a2l.reduction import A2L, update_running_mean


def hand_market():
    return FisherMarket([1.0, 1.0], valuations=[[1.0, 0.0], [0.0, 1.0]])


def test_market_validation():
    with pytest.raises(ValueError):
        FisherMarket([1.0, -1.0], valuations=[[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        FisherMarket([1.0], valuations=[[0.0, 0.0]])  # values nothing
    with pytest.raises(ValueError, match="one row per agent"):
        FisherMarket([1.0, 1.0], valuations=[1.0, 1.0])
    with pytest.raises(ValueError, match="nonempty"):  # no agents, as games need players
        FisherMarket([], valuations=np.zeros((0, 3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="positive finite"):
            FisherMarket([bad, 1.0], [[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ValueError, match="finite a_i"):
            FisherMarket([1.0, 1.0], [[1.0, bad], [0.5, 1.0]])


def test_single_good_is_fixed_point():
    market = FisherMarket([2.0, 3.0, 1.0], valuations=[[1.0], [2.0], [0.5]])
    b = uniform_spending(market)
    for _ in range(5):
        b = prd_step(market, b)
        assert np.allclose(b[:, 0], market.budgets)


def test_hand_market_one_step():
    market = hand_market()
    b = prd_step(market, uniform_spending(market))
    assert np.allclose(b, [[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(b.sum(axis=0), [1.0, 1.0])
    # and it stays there
    assert np.allclose(prd_step(market, b), b)


def test_price_conservation_every_step():
    market = random_linear_market(4, 3, seed=0)
    total = market.budgets.sum()
    b = uniform_spending(market)
    for _ in range(100):
        b = prd_step(market, b)
        assert abs(b.sum(axis=0).sum() - total) < 1e-9


def test_stall_error_names_agent():
    # Agent 0 values only good 0 and spends nothing on it.
    market = FisherMarket([1.0, 1.0], [[1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(StallError) as err:
        prd_step(market, np.array([[0.0, 1.0], [0.5, 0.5]]))
    assert err.value.agent == 0


def test_degenerate_prices_rejected():
    market = hand_market()
    dead_good = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegenerateMarketError):
        prd_step(market, dead_good)
    with pytest.raises(DegenerateMarketError):
        allocations(dead_good)


def a2l_prd_from(market, b0=None) -> A2L:
    """The average-playing state from b0, or from the runs' uniform start."""
    return a2l_prd_init(market) if b0 is None else A2L(ProportionalResponse(market, b0), "uniform")


def played_spends(market, T, b0=None):
    """The (T, m, n) spends the average-playing dynamics play, via the step API."""
    state = a2l_prd_from(market, b0)
    return np.array([a2l_prd_step(market, state) for _ in range(T)])


def test_a2l_first_round_matches_internal():
    market = random_linear_market(3, 4, seed=1)
    state = a2l_prd_init(market)
    seen = []  # the price rows the inner learner observes

    def spy(p, observe=state.inner.observe):
        seen.append(p)
        observe(p)

    state.inner.observe = spy
    played = a2l_prd_step(market, state)
    ref = run_prd(market, 1)
    assert np.allclose(played, uniform_spending(market))
    assert np.allclose(seen[0], ref["prices"][0], atol=1e-12)


def test_a2l_prices_equal_reference_average():
    for seed in (0, 1, 2):
        market = random_linear_market(3, 4, seed=seed)
        ref = run_prd(market, 500)
        out = run_a2l_prd(market, 500)
        assert np.abs(out["played_prices"] - ref["avg_prices"]).max() < 1e-10


def random_start(market, seed):
    """Non-uniform start with some zero entries; every agent and every good
    keeps a positive spend."""
    m, n = market.m_agents, market.n_goods
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, size=(m, n))
    w[rng.random((m, n)) < 0.3] = 0.0
    for i in range(m):
        if not w[i].any():
            w[i, i % n] = 1.0
    for j in range(n):
        if not w[:, j].any():
            w[j % m, j] = 1.0
    return market.budgets[:, None] * w / w.sum(axis=1, keepdims=True)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 5), n=st.integers(1, 5), seed=st.integers(0, 2**31 - 1),
       uniform=st.booleans())
def test_a2l_prd_prices_equal_running_mean_and_conserve_budgets(m, n, seed, uniform):
    # At the step level, so that the reduction is checked from starts with
    # zero entries too.
    market = random_linear_market(m, n, seed=seed)
    ref, out = all_rounds_reference(market, 200, None if uniform else random_start(market, seed))
    assert np.abs(out["played_prices"] - ref["avg_prices"]).max() <= 1e-10
    assert np.abs(out["played_prices"].sum(axis=1) - market.budgets.sum()).max() <= 1e-9


def test_budget_rescaling_homogeneity():
    market = random_linear_market(3, 3, seed=5)
    big = FisherMarket(market.budgets * 10.0, valuations=market.valuations)
    a = run_a2l_prd(market, 50)
    b = run_a2l_prd(big, 50)
    assert np.allclose(b["played_prices"], 10.0 * a["played_prices"], atol=1e-9)
    alloc_a = played_spends(market, 50)[-1] / a["played_prices"][-1]
    alloc_b = played_spends(big, 50)[-1] / b["played_prices"][-1]
    assert np.allclose(alloc_a, alloc_b, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(3, 20), n=st.integers(3, 10), seed=st.integers(0, 2**32 - 1),
       power=st.integers(-4, 4), k=st.floats(0.1, 10.0))
def test_scaling_the_budgets_scales_the_prices_and_keeps_the_gaps(m, n, seed, power, k):
    # Every price and spend is a sum of budget shares, and a gap compares
    # terms that all scale with the budgets.  Scaling by a power of two
    # rounds nowhere, so the runs agree bit for bit; another factor gives a
    # relative error of a few ulps, measured for a gap against the run's
    # largest, since the gap is a difference of terms of the budgets' size.
    market = random_linear_market(m, n, seed=seed)
    for factor, exact in ((2.0**power, True), (k, False)):
        scaled = FisherMarket(market.budgets * factor, valuations=market.valuations)
        for run, prices, gap in ((run_prd, ("prices", "avg_prices"), "avg_gap"),
                                 (run_a2l_prd, ("played_prices",), "played_gap")):
            a, b = run(market, 300), run(scaled, 300)
            for key in prices:
                if exact:
                    assert np.array_equal(b[key], factor * a[key]), key
                else:
                    assert np.abs(b[key] - factor * a[key]).max() <= 1e-12 * np.abs(
                        factor * a[key]).min(), key
            if exact:
                assert np.array_equal(b[gap], a[gap]), gap
            else:
                assert np.abs(b[gap] - a[gap]).max() <= 1e-12 * np.abs(a[gap]).max(), gap


def test_average_gap_decreases():
    market = random_linear_market(4, 4, seed=7)
    out = run_prd(market, 2000)
    g = out["avg_gap"]
    assert g[-1] < 1e-3
    checkpoints = g[np.array([9, 99, 499, 1999])]
    assert np.all(np.diff(checkpoints) < 0)


def test_verify_ce_hand_market():
    market = hand_market()
    rep = verify_ce(market, np.array([1.0, 1.0]), np.eye(2), tol=1e-9)
    assert rep.passed and isinstance(rep, CEReport)


def test_verify_ce_oversupply_fails():
    market = hand_market()
    rep = verify_ce(market, np.array([1.0, 1.0]), np.array([[1.0, 0.0], [0.3, 1.0]]))
    assert not rep.clears_ok
    assert rep.worst_clearing_violation == pytest.approx(0.3)


def test_verify_ce_bad_bang_per_buck_fails():
    market = FisherMarket([1.0], valuations=[[2.0, 1.0]])
    # spending on good 2 although good 1 has twice the bang per buck
    rep = verify_ce(market, np.array([1.0, 1.0]), np.array([[0.0, 1.0]]))
    assert not rep.utility_ok
    assert rep.worst_bpb_violation == pytest.approx(1.0)


def test_verify_ce_rejects_degenerate_prices():
    market = hand_market()
    with pytest.raises(DegenerateMarketError):
        verify_ce(market, np.zeros(2), np.eye(2))
    with pytest.raises(DegenerateMarketError):
        verify_ce(market, np.array([1.0, -0.5]), np.eye(2))
    with pytest.raises(DegenerateMarketError):
        verify_ce(market, np.array([1.0, 0.0]), np.eye(2))  # valued good at 0


def test_market_gap_zero_at_equilibrium():
    market = hand_market()
    p = np.array([1.0, 1.0])
    assert np.allclose(market_gap(market, p, spend=np.eye(2) * p), 0.0)
    assert np.all(market_gap(market, p, spend=np.eye(2) * 0.5 * p) >= 0)


def test_market_gap_over_all_rounds_matches_per_round_calls():
    market = random_linear_market(6, 4, seed=3)
    p, spends = run_a2l_prd(market, 50)["played_prices"], played_spends(market, 50)
    per_round = np.array([market_gap(market, p[t], spend=spends[t]) for t in range(50)])
    assert np.abs(market_gap(market, p, spend=spends) - per_round).max() <= 1e-14


def test_json_round_trip(tmp_path):
    market = random_linear_market(3, 2, seed=9)
    path = tmp_path / "market.json"
    with open(path, "w") as f:
        json.dump(market.to_dict(), f)
    loaded = load_market(path)
    assert np.array_equal(loaded.budgets, market.budgets)
    assert np.array_equal(loaded.valuations, market.valuations)


def test_price_csv_lines():
    hist = np.array([[1.0, 2.0], [1.5, 1.5]])
    lines = list(_csv_lines(*price_csv_columns(hist, gaps=np.array([0.5, 0.25]))))
    assert lines[0] == "t,p_1,p_2,max_bpb_violation"
    assert lines[1] == "1,1,2,0.5"
    assert len(lines) == 3


def test_step_api_matches_run():
    market = random_linear_market(3, 3, seed=2)
    out = run_a2l_prd(market, 20)
    state = a2l_prd_init(market)
    for k in range(20):
        bbar = a2l_prd_step(market, state)
        assert np.array_equal(bbar.sum(axis=0), out["played_prices"][k])
        gap = market_gap(market, bbar.sum(axis=0), spend=bbar).max()
        assert abs(gap - out["played_gap"][k]) <= 1e-14
    assert state.t == 20


def all_rounds_reference(market, T, b0):
    """run_prd's and run_a2l_prd's outputs from b0 (None: the uniform start),
    with spends logged through the step API and each gap column from one
    market_gap call over all rounds."""
    b = uniform_spending(market) if b0 is None else b0
    raw, avg, bbar = [], [], None
    for t in range(T):
        raw.append(b)
        bbar = b if bbar is None else bbar + (b - bbar) / (t + 1.0)
        avg.append(bbar)
        b = prd_step(market, b)

    def priced(log):
        p = np.array([s.sum(axis=0) for s in log])
        return p, market_gap(market, p, spend=np.array(log)).max(axis=1)

    (avg_p, avg_gap), (played_p, played_gap) = priced(avg), priced(played_spends(market, T, b0))
    return ({"prices": np.array([s.sum(axis=0) for s in raw]), "avg_prices": avg_p, "avg_gap": avg_gap},
            {"played_prices": played_p, "played_gap": played_gap})


def start_runs_at(monkeypatch, market, uniform, seed):
    """The start the runs take: the uniform one, or a random start with zero
    entries put in its place, so that the runs' masked divides meet the step
    API's.  Returns it as ``all_rounds_reference`` takes it."""
    if uniform:
        return None
    b0 = random_start(market, seed)
    monkeypatch.setattr(fisher, "uniform_spending", lambda _market: b0)
    return b0


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "random-start"])
def test_chunked_gaps_equal_the_all_rounds_formula(monkeypatch, uniform):
    market = random_linear_market(4, 3, seed=11)
    b0 = start_runs_at(monkeypatch, market, uniform, 11)
    for T in (1, 6, 7, 8, 23, 600):
        want = all_rounds_reference(market, T, b0)
        for chunk in (1, 7, 256):
            monkeypatch.setattr(dyn, "CHUNK_ROUNDS", chunk)
            for run, ref in zip((run_prd, run_a2l_prd), want):
                got = run(market, T)
                assert set(got) == set(ref)
                for key in ref:
                    assert np.array_equal(got[key], ref[key]), (T, chunk, run.__name__, key)


@pytest.mark.parametrize("run", [run_prd, run_a2l_prd])
def test_run_memory_does_not_grow_with_the_spend_log(run):
    # Both kept (T, m, n) spend logs, 16 MB each here at T = 10^4, and
    # run_a2l_prd returned two of them.
    market = random_linear_market(20, 10, seed=4)
    extra = {}
    for T in (10_000, 40_000):
        tracemalloc.start()
        out = run(market, T)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert all(a.shape in ((T,), (T, market.n_goods)) for a in out.values())
        extra[T] = peak - sum(a.nbytes for a in out.values())
        assert extra[T] < T * market.m_agents * market.n_goods * 8 / 4
    assert extra[40_000] / extra[10_000] < 1.5


@pytest.mark.parametrize("run", [run_prd, run_a2l_prd])
@pytest.mark.parametrize("T", [-1, 0, 2.5])
def test_runs_refuse_a_bad_T(run, T):
    with pytest.raises(ValueError, match="T must be a positive integer"):
        run(hand_market(), T)


def test_runs_stop_at_the_horizon(monkeypatch):
    # No agent values good 1: round 1 prices it at 1, and run_prd's step to
    # round 2 leaves it no spend.
    market = FisherMarket([1.0, 1.0], [[1.0, 0.0], [1.0, 0.0]])
    ref, out = run_prd(market, 1), run_a2l_prd(market, 1)
    for p in (ref["prices"], ref["avg_prices"], out["played_prices"]):
        assert np.array_equal(p, [[1.0, 1.0]])
    for gap in (ref["avg_gap"], out["played_gap"]):
        assert np.array_equal(gap, [0.5])
    with pytest.raises(DegenerateMarketError):
        run_prd(market, 2)
    # The played averages keep round 1's spends, so run_a2l_prd plays on;
    # the round-T prices are never observed.
    observed, observe = [], ProportionalResponse.observe

    def counted(self, p):
        observed.append(p)
        observe(self, p)

    monkeypatch.setattr(ProportionalResponse, "observe", counted)
    for T in (1, 2, 300):
        observed.clear()
        assert run_a2l_prd(market, T)["played_prices"].shape == (T, 2)
        assert len(observed) == T - 1


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "random-start"])
def test_runs_equal_the_step_api_on_the_benchmark_markets(monkeypatch, uniform):
    # The market sizes of the benchmark's fisher-markets workload; T around
    # one chunk boundary and at the benchmark's horizon.
    for k, (m, n) in enumerate(((5, 5), (10, 8), (20, 10), (35, 15), (50, 20))):
        market = random_linear_market(m, n, seed=k)
        want = all_rounds_reference(market, 1000, start_runs_at(monkeypatch, market, uniform, k))
        for T in (1, 255, 256, 257, 1000):
            for run, ref in zip((run_prd, run_a2l_prd), want):
                got = run(market, T)
                assert set(got) == set(ref)
                for key in ref:
                    assert np.array_equal(got[key], ref[key][:T]), (m, n, T, run.__name__, key)


def test_played_spends_are_not_overwritten_by_later_rounds():
    market = random_linear_market(4, 3, seed=8)
    state = a2l_prd_from(market, random_start(market, 8))
    played, kept, inner = [], [], []
    for _ in range(10):
        inner.append(state.inner.next_strategy())
        played.append(a2l_prd_step(market, state))
        kept.append(played[-1].copy())
    avg = np.zeros(state.shape)
    for t, (b, x, want) in enumerate(zip(played[:3], inner, kept), start=1):
        avg = update_running_mean(avg, x, 1.0, float(t))
        assert np.array_equal(b, want) and np.array_equal(b, avg)
