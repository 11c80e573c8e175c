import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from a2l.games import (
    DimensionMismatchError,
    PolymatrixGame,
    ZeroSumViolationError,
    generate_game,
    load_game,
    random_profile,
    save_game,
)


def brute_force_utility_vector(game, i, profile):
    """Oracle: for each own action, enumerate all opponent pure profiles."""
    n = game.n
    others = [j for j in range(n) if j != i]
    v = np.zeros(game.action_counts[i])
    for a in range(game.action_counts[i]):
        total = 0.0
        for rest in itertools.product(*[range(game.action_counts[j]) for j in others]):
            pure = [0] * n
            pure[i] = a
            for j, aj in zip(others, rest):
                pure[j] = aj
            w = np.prod([profile[j][pure[j]] for j in others])
            total += w * sum(
                game.edges[(i, j)][pure[i], pure[j]] for j in game.neighbors(i)
            )
        v[a] = total
    return v


def utilities(game, profile):
    """Realized utilities (u_1(x), ..., u_n(x)), each u_i(x) = <x_i, u_i(., x_-i)>."""
    return np.array([np.vecdot(profile[i], game.utility_vector(i, profile))
                     for i in range(game.n)])


def test_matching_pennies_utility_vector_uniform_opponent():
    game = generate_game("matching_pennies")
    v = game.utility_vector(0, [np.full(2, 1 / 2), np.full(2, 1 / 2)])
    assert np.allclose(v, [0.5, 0.5])


def test_matching_pennies_utility_vector_pure_opponent():
    game = generate_game("matching_pennies")
    v = game.utility_vector(0, [np.full(2, 1 / 2), np.array([1.0, 0.0])])
    assert np.allclose(v, [1.0, 0.0])  # column selection


def test_three_player_cycle_matches_brute_force():
    game = generate_game("random_zs", n=3, d=3, graph="cycle", seed=5)
    rng = np.random.default_rng(0)
    profile = random_profile(game, rng)
    for i in range(3):
        got = game.utility_vector(i, profile)
        want = brute_force_utility_vector(game, i, profile)
        assert np.allclose(got, want, atol=1e-12)


def test_utility_matching_pennies_uniform():
    game = generate_game("matching_pennies")
    u = utilities(game, [np.full(2, 1 / 2), np.full(2, 1 / 2)])
    assert np.allclose(u, [0.5, -0.5])


def test_zero_sum_utilities_sum_to_zero():
    game = generate_game("random_zs", n=4, d=4, seed=9)
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = utilities(game, random_profile(game, rng))
        assert abs(u.sum()) < 1e-9


def test_all_ones_matrix_gives_constant_utility():
    game = PolymatrixGame(
        (2, 3), {(0, 1): np.ones((2, 3)), (1, 0): np.zeros((3, 2))}
    )
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = utilities(game, random_profile(game, rng))
        assert abs(u[0] - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    counts=st.lists(st.integers(2, 5), min_size=2, max_size=4),
    graph=st.sampled_from(["complete", "gnp"]),
    lead=st.sampled_from([(7,), (3, 5)]),
)
# A gnp draw with 2 of its 6 pairs, so player 2 has no neighbour at all.
@example(seed=1, counts=[2, 3, 4, 2], graph="gnp", lead=(3, 5))
def test_log_evaluation_equals_per_profile_evaluation(seed, counts, graph, lead):
    # Over strategies with leading axes every row is bit-equal to the
    # evaluation of that row's profile alone.
    game = generate_game("random_zs", n=len(counts), d=counts, graph=graph, p=0.4, seed=seed)
    rng = np.random.default_rng(seed)
    log = [rng.dirichlet(np.ones(d), size=lead) for d in counts]
    vectors = [game.utility_vector(i, log) for i in range(game.n)]
    terms, gaps = game.gap_terms(log), game.total_gap(log)
    assert terms.shape == lead + (game.n,) and gaps.shape == lead
    for idx in np.ndindex(*lead):
        profile = [x[idx] for x in log]
        for i in range(game.n):
            assert np.array_equal(vectors[i][idx], game.utility_vector(i, profile))
        assert np.array_equal(terms[idx], game.gap_terms(profile))
        assert gaps[idx] == game.total_gap(profile)


def test_total_gap_matching_pennies():
    game = generate_game("matching_pennies")
    assert game.total_gap([np.full(2, 1 / 2)] * 2) == pytest.approx(0.0, abs=1e-12)
    pure = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
    # player 1 is best-responding; player 2 gains 1 by deviating
    assert game.total_gap(pure) == pytest.approx(1.0, abs=1e-12)


def test_total_gap_zero_sum_equals_sum_of_maxima():
    game = generate_game("random_zs", n=3, d=4, seed=3)
    rng = np.random.default_rng(3)
    for _ in range(10):
        prof = random_profile(game, rng)
        want = sum(game.utility_vector(i, prof).max() for i in range(3))
        assert game.total_gap(prof) == pytest.approx(want, abs=1e-9)


def test_rps_uniform_is_equilibrium():
    game = generate_game("rps")
    assert game.total_gap([np.full(3, 1 / 3)] * 2) < 1e-12


def test_utility_vector_ignores_own_strategy():
    game = generate_game("random_zs", n=3, d=4, seed=8)
    rng = np.random.default_rng(4)
    prof = random_profile(game, rng)
    v1 = game.utility_vector(0, prof)
    prof2 = list(prof)
    prof2[0] = random_profile(game, rng)[0]
    v2 = game.utility_vector(0, prof2)
    assert np.array_equal(v1, v2)


def test_linearity_in_opponents():
    game = generate_game("random_zs", n=3, d=5, seed=10)
    rng = np.random.default_rng(5)
    a = random_profile(game, rng)
    b = random_profile(game, rng)
    mid = [(x + y) / 2 for x, y in zip(a, b)]
    for i in range(3):
        v = game.utility_vector(i, mid)
        w = (game.utility_vector(i, a) + game.utility_vector(i, b)) / 2
        assert np.abs(v - w).max() < 1e-12


def test_utility_variation_bounded_by_strategy_variation():
    # sum_i ||u_i(., x) - u_i(., x')||_inf^2 <= (n-1)^2 sum_i ||x_i - x'_i||_1^2
    rng = np.random.default_rng(6)
    for seed in range(5):
        game = generate_game("random_zs", n=3, d=5, seed=seed)
        for _ in range(200):
            x = random_profile(game, rng)
            y = random_profile(game, rng)
            lhs = sum(
                np.abs(game.utility_vector(i, x) - game.utility_vector(i, y)).max() ** 2
                for i in range(game.n)
            )
            rhs = (game.n - 1) ** 2 * sum(
                np.abs(x[i] - y[i]).sum() ** 2 for i in range(game.n)
            )
            assert lhs <= rhs + 1e-9


def test_generate_matching_pennies_matrices():
    game = generate_game("matching_pennies")
    assert np.array_equal(game.edges[(0, 1)], np.eye(2))
    assert np.array_equal(game.edges[(1, 0)], -np.eye(2))
    assert game.zero_sum


def test_generate_rps_circulant():
    game = generate_game("rps")
    a = game.edges[(0, 1)]
    assert a.shape == (3, 3)
    assert np.array_equal(np.diag(a), np.zeros(3))
    assert sorted(np.unique(a)) == [-1.0, 0.0, 1.0]
    # circulant: each row is the previous one rotated right
    assert np.array_equal(np.roll(a[0], 1), a[1])
    assert np.array_equal(np.roll(a[1], 1), a[2])


def test_generate_deterministic():
    g1 = generate_game("random_zs", n=3, d=4, seed=7)
    g2 = generate_game("random_zs", n=3, d=4, seed=7)
    assert g1.action_counts == g2.action_counts
    for k in g1.edges:
        assert np.array_equal(g1.edges[k], g2.edges[k])


def test_generate_zero_sum_pairwise_structure():
    game = generate_game("random_zs", n=4, d=3, seed=12)
    for (i, j), mat in game.edges.items():
        assert np.array_equal(game.edges[(j, i)], -mat.T)
        assert mat.min() >= -1.0 and mat.max() <= 1.0


def test_generate_graphs():
    cyc = generate_game("random_zs", n=4, d=2, graph="cycle", seed=0)
    assert len(cyc.edges) == 8  # 4 undirected pairs
    none = generate_game("random_zs", n=3, d=2, graph="gnp", p=0.0, seed=0)
    assert len(none.edges) == 0
    full = generate_game("random_zs", n=3, d=2, graph="gnp", p=1.0, seed=0)
    assert len(full.edges) == 6
    with pytest.raises(ValueError):
        generate_game("random_zs", n=3, d=2, graph="gnp", p=1.5)
    with pytest.raises(ValueError):
        generate_game("random_zs", n=3, d=2, graph="star")


def test_generate_errors():
    with pytest.raises(ValueError):
        generate_game("nonsense")
    with pytest.raises(ValueError):
        generate_game("random_zs", n=1, d=3)
    with pytest.raises(ValueError):
        generate_game("random_zs", n=2, d=1)


def test_general_sum_not_zero_sum():
    game = generate_game("random_general", n=2, d=3, seed=1)
    assert not game.zero_sum
    a, b = game.edges[(0, 1)], game.edges[(1, 0)]
    assert not np.allclose(b, -a.T)


def test_json_round_trip(tmp_path):
    game = generate_game("random_zs", n=3, d=4, seed=2)
    path = tmp_path / "game.json"
    save_game(game, path)
    loaded = load_game(path)
    assert loaded.action_counts == game.action_counts
    assert loaded.zero_sum == game.zero_sum
    for k in game.edges:
        assert np.array_equal(loaded.edges[k], game.edges[k])


def test_loader_rejects_invalid():
    with pytest.raises(ValueError):
        PolymatrixGame((2, 2), {(0, 1): np.eye(2)})  # reverse edge missing
    with pytest.raises(DimensionMismatchError):
        PolymatrixGame((2, 3), {(0, 1): np.eye(2), (1, 0): np.eye(2)})
    with pytest.raises(ZeroSumViolationError):
        PolymatrixGame(
            (2, 2), {(0, 1): np.eye(2), (1, 0): np.eye(2)}, zero_sum=True
        )
    with pytest.raises(ValueError):
        PolymatrixGame.from_dict(
            {"n": 3, "action_counts": [2, 2], "zero_sum": False, "edges": []}
        )


@pytest.mark.parametrize("entry", ["1", True, None], ids=repr)
def test_a_payoff_entry_that_is_not_a_real_number_is_refused_by_edge(entry):
    # "1" and True loaded as the payoff 1.0 (np.array(..., dtype=float)).
    message = rf"^edge \(0, 1\) payoffs must be real numbers, got {re.escape(repr(entry))}$"
    with pytest.raises(ValueError, match=message):
        PolymatrixGame((2, 2), {(0, 1): [[1, entry], [0, 1]], (1, 0): np.eye(2)})


def test_payoffs_take_int_float_and_numpy_entries_alike():
    spellings = [[[1, 0], [2, 1]], [[1.0, 0.0], [2.0, 1.0]], np.array([[1, 0], [2, 1]]),
                 [[np.int64(1), np.float32(0)], [np.uint8(2), 1]]]
    games = [PolymatrixGame((2, 2), {(0, 1): m, (1, 0): np.eye(2)}) for m in spellings]
    assert all(g.to_dict() == games[1].to_dict() for g in games)
    assert all(g.edges[(0, 1)].dtype == np.float64 for g in games)


def test_zero_sum_check_is_exact_beyond_enumeration():
    # 6^8 > 10^6 pure profiles: the block check needs no enumeration, and it
    # finds one entry raised by 1e-6 in a cycle of eight players.
    n, d = 8, 6
    edges = {}
    rng = np.random.default_rng(0)
    for i in range(n):
        j = (i + 1) % n
        a = rng.uniform(-1, 1, size=(d, d))
        edges[(i, j)] = a
        edges[(j, i)] = -a.T
    assert PolymatrixGame((d,) * n, edges, zero_sum=True).zero_sum_bound() == 0.0
    edges[(3, 4)] = edges[(3, 4)].copy()
    edges[(3, 4)][5, 0] += 1e-6
    with pytest.raises(ZeroSumViolationError):
        PolymatrixGame((d,) * n, edges, zero_sum=True)


def test_one_raised_entry_among_millions_of_profiles_is_not_zero_sum():
    # 200^3 pure profiles; the sum is 1 on the 200 profiles through (199, 199).
    game = generate_game("random_zs", n=3, d=200, seed=1)
    edges = {k: m.copy() for k, m in game.edges.items()}
    edges[(0, 1)][199, 199] += 1
    with pytest.raises(ZeroSumViolationError):
        PolymatrixGame(game.action_counts, edges, zero_sum=True)


def pure_utility_sums(game):
    """Oracle: sum_i u_i(a) at every pure profile a, by enumeration."""
    grid = np.indices(game.action_counts, sparse=True)
    return sum((m[grid[i], grid[j]] for (i, j), m in game.edges.items()),
               np.zeros(game.action_counts))


def cancelling_game(counts, seed, noise):
    """Pairwise zero-sum blocks plus main effects and constants that cancel
    across each player's edges; ``noise`` is added to one random entry."""
    rng = np.random.default_rng(seed)
    n = len(counts)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = {}
    for i, j in pairs:
        a = rng.uniform(-1, 1, size=(counts[i], counts[j]))
        edges[(i, j)], edges[(j, i)] = a, -a.T
    for i in range(n):
        out = [(i, j) for j in range(n) if j != i]
        effects = rng.uniform(-1, 1, size=(len(out), counts[i])) + rng.uniform(-1, 1)
        effects -= effects.mean(axis=0)  # sums to 0 over the edges, up to rounding
        for (a, b), e in zip(out, effects):
            edges[(a, b)] = edges[(a, b)] + e[:, None]
    i, j = pairs[rng.integers(len(pairs))]
    edges[(i, j)][rng.integers(counts[i]), rng.integers(counts[j])] += noise
    return edges


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("noise", [0.0, 1e-12, 1e-6, 0.5])
def test_zero_sum_verdict_equals_enumeration(seed, noise):
    n = 2 + seed % 3
    counts = tuple(2 + (seed + k) % 3 for k in range(n))
    edges = cancelling_game(counts, seed, noise)
    game = PolymatrixGame(counts, edges)
    brute = float(np.abs(pure_utility_sums(game)).max())
    assert brute <= game.zero_sum_bound() + 1e-15
    assert (game.zero_sum_bound() <= 1e-9) == (brute <= 1e-9) == (noise < 1e-9)
    if noise < 1e-9:
        PolymatrixGame(counts, edges, zero_sum=True)
    else:
        with pytest.raises(ZeroSumViolationError):
            PolymatrixGame(counts, edges, zero_sum=True)
    # General-sum games: the verdict still equals enumeration.
    general = generate_game("random_general", n=n, d=counts, seed=seed)
    assert general.zero_sum_bound() > 1e-9
    assert float(np.abs(pure_utility_sums(general)).max()) > 1e-9


@pytest.mark.parametrize("kind, kw", [
    ("matching_pennies", {}), ("rps", {}),
    ("random_zs", {"n": 2, "d": 7}), ("random_zs", {"n": 4, "d": (2, 5, 3, 4)}),
    ("random_zs", {"n": 5, "d": 3, "graph": "cycle"}),
    ("random_zs", {"n": 6, "d": 4, "graph": "gnp", "p": 0.4}),
])
def test_generated_zero_sum_games_have_bound_exactly_zero(kind, kw):
    for seed in range(5):
        assert generate_game(kind, seed=seed, **kw).zero_sum_bound() == 0.0


def test_dimension_error_names_player():
    game = generate_game("matching_pennies")
    with pytest.raises(DimensionMismatchError) as err:
        game.utility_vector(0, [np.full(2, 1 / 2), np.full(3, 1 / 3)])
    assert "player 1" in str(err.value)
    assert err.value.expected == 2 and err.value.actual == 3


def test_immutability():
    game = generate_game("matching_pennies")
    with pytest.raises(ValueError):
        game.edges[(0, 1)][0, 0] = 5.0
