import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2l.csvrows import _csv_lines
from a2l.fisher import (
    CEReport,
    DegenerateMarketError,
    FisherMarket,
    StallError,
    allocations,
    check_spending,
    load_market,
    market_gap,
    prd_step,
    price_csv_columns,
    prices,
    random_linear_market,
    run_a2l_prd,
    run_prd,
    save_market,
    uniform_spending,
    verify_ce,
)


def hand_market():
    return FisherMarket([1.0, 1.0], valuations=[[1.0, 0.0], [0.0, 1.0]])


def test_market_validation():
    with pytest.raises(ValueError):
        FisherMarket([1.0, -1.0], valuations=[[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        FisherMarket([1.0], valuations=[[0.0, 0.0]])  # values nothing
    with pytest.raises(ValueError):
        FisherMarket([1.0], valuations=[[1.0]], gradient=lambda i, x: x)
    with pytest.raises(ValueError):
        FisherMarket([1.0])
    with pytest.raises(ValueError, match="nonempty"):  # no agents, as games need players
        FisherMarket([], valuations=np.zeros((0, 3)))


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
    assert np.allclose(prices(b), [1.0, 1.0])
    # and it stays there
    assert np.allclose(prd_step(market, b), b)


def test_price_conservation_every_step():
    market = random_linear_market(4, 3, seed=0)
    total = market.budgets.sum()
    b = uniform_spending(market)
    for _ in range(100):
        b = prd_step(market, b)
        assert abs(prices(b).sum() - total) < 1e-9


def test_stall_error_names_agent():
    market = FisherMarket([1.0, 1.0], gradient=lambda i, x: np.zeros(2))
    with pytest.raises(StallError) as err:
        prd_step(market, np.full((2, 2), 0.5))
    assert err.value.agent == 0


def test_degenerate_prices_rejected():
    market = hand_market()
    dead_good = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegenerateMarketError):
        prd_step(market, dead_good)
    with pytest.raises(DegenerateMarketError):
        allocations(dead_good)


def test_check_spending_rows():
    market = hand_market()
    with pytest.raises(ValueError):
        check_spending(market, [[0.7, 0.2], [0.5, 0.5]])
    with pytest.raises(ValueError):
        check_spending(market, [[1.2, -0.2], [0.5, 0.5]])


def test_a2l_first_round_matches_internal():
    market = random_linear_market(3, 4, seed=1)
    out = run_a2l_prd(market, 1)
    ref = run_prd(market, 1)
    assert np.allclose(out["played_spends"][0], ref["spends"][0])
    assert np.allclose(out["recovered_prices"][0], ref["prices"][0], atol=1e-12)


def test_a2l_prices_equal_reference_average():
    for seed in (0, 1, 2):
        market = random_linear_market(3, 4, seed=seed)
        ref = run_prd(market, 500)
        out = run_a2l_prd(market, 500)
        assert np.abs(out["played_prices"] - ref["avg_prices"]).max() < 1e-10


def random_start(market, seed):
    """Non-uniform spend0 with some zero entries; every agent and every good
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
    market = random_linear_market(m, n, seed=seed)
    spend0 = None if uniform else random_start(market, seed)
    ref = run_prd(market, 200, spend0)
    out = run_a2l_prd(market, 200, spend0)
    assert np.abs(out["played_prices"] - ref["avg_prices"]).max() <= 1e-10
    assert np.abs(out["played_prices"].sum(axis=1) - market.budgets.sum()).max() <= 1e-9


def test_budget_rescaling_homogeneity():
    market = random_linear_market(3, 3, seed=5)
    big = FisherMarket(market.budgets * 10.0, valuations=market.valuations)
    a = run_a2l_prd(market, 50)
    b = run_a2l_prd(big, 50)
    assert np.allclose(b["played_prices"], 10.0 * a["played_prices"], atol=1e-9)
    alloc_a = a["played_spends"][-1] / a["played_prices"][-1]
    alloc_b = b["played_spends"][-1] / b["played_prices"][-1]
    assert np.allclose(alloc_a, alloc_b, atol=1e-9)


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
    gap = market_gap(market, np.array([1.0, 1.0]), np.eye(2))
    assert np.allclose(gap, 0.0)
    assert np.all(market_gap(market, np.array([1.0, 1.0]), np.eye(2) * 0.5) >= 0)


def test_market_gap_over_all_rounds_matches_per_round_calls():
    market = random_linear_market(6, 4, seed=3)
    out = run_a2l_prd(market, 50)
    p, spends = out["played_prices"], out["played_spends"]
    x = spends / p[:, None, :]
    per_round = np.array([market_gap(market, p[t], x[t]) for t in range(50)])
    assert np.abs(market_gap(market, p, x) - per_round).max() <= 1e-14
    assert np.abs(market_gap(market, p, spend=spends) - per_round).max() <= 1e-14


def test_json_round_trip(tmp_path):
    market = random_linear_market(3, 2, seed=9)
    path = tmp_path / "market.json"
    save_market(market, path)
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
    from a2l.fisher import a2l_prd_init, a2l_prd_step

    market = random_linear_market(3, 3, seed=2)
    out = run_a2l_prd(market, 20)
    state = a2l_prd_init(market)
    for k in range(20):
        bbar = a2l_prd_step(market, state)
        assert np.array_equal(bbar, out["played_spends"][k])
    assert state.t == 20
