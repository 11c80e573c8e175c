import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2l.games import generate_game
from a2l.learners import MWU, OMWU
from a2l.reduction import A2L, ProtocolError, WEIGHT_RULES, update_running_mean


class ScriptedLearner:
    """Inner stub that plays a fixed strategy script and records feedback."""

    def __init__(self, script):
        self.script = [np.asarray(x, dtype=float) for x in script]
        self.shape = self.script[0].shape
        self.k = 0
        self.seen = []

    def next_strategy(self):
        x = self.script[self.k]
        self.k += 1
        return x

    def observe(self, u):
        self.seen.append(np.asarray(u, dtype=float))


def literal_recovery(avg_utils, weights):
    """Oracle: the defining formula u^t = (W_t ubar^t - sum_{k<t} a_k u^k) / a_t."""
    wfun = WEIGHT_RULES[weights]
    out = []
    cum = np.zeros_like(avg_utils[0])
    cumw = 0.0
    for t, ubar in enumerate(avg_utils, start=1):
        a = wfun(t)
        cumw += a
        u = (cumw * ubar - cum) / a
        cum = cum + a * u
        out.append(u)
    return out


def test_first_round_plays_inner_strategy():
    inner = ScriptedLearner([[0.2, 0.8]])
    wrap = A2L(inner)
    assert np.array_equal(wrap.next_strategy(), [0.2, 0.8])


def test_uniform_average_of_two_points():
    inner = ScriptedLearner([[1.0, 0.0], [0.0, 1.0]])
    wrap = A2L(inner)
    wrap.next_strategy()
    wrap.observe(np.zeros(2))
    assert np.allclose(wrap.next_strategy(), [0.5, 0.5])


def test_linear_weighted_average_of_two_points():
    inner = ScriptedLearner([[1.0, 0.0], [0.0, 1.0]])
    wrap = A2L(inner, weights="linear")
    wrap.next_strategy()
    wrap.observe(np.zeros(2))
    assert np.allclose(wrap.next_strategy(), [1 / 3, 2 / 3], atol=1e-15)


def test_uniform_average_matches_arithmetic_mean():
    rng = np.random.default_rng(0)
    script = [rng.dirichlet(np.ones(4)) for _ in range(50)]
    inner = ScriptedLearner(script)
    wrap = A2L(inner)
    for t in range(1, 51):
        played = wrap.next_strategy()
        assert np.abs(played - np.mean(script[:t], axis=0)).max() < 1e-12
        wrap.observe(rng.uniform(size=4))


def test_recovery_first_round_passthrough():
    inner = ScriptedLearner([[0.5, 0.5]])
    wrap = A2L(inner)
    wrap.next_strategy()
    u = wrap.observe(np.array([0.3, 0.9]))
    assert np.array_equal(u, [0.3, 0.9])
    assert np.array_equal(inner.seen[0], [0.3, 0.9])


def test_recovery_second_round_doubles_and_subtracts():
    inner = ScriptedLearner([[1, 0], [1, 0]])
    wrap = A2L(inner)
    wrap.next_strategy()
    wrap.observe(np.array([0.2, 0.8]))
    wrap.next_strategy()
    u = wrap.observe(np.array([0.3, 0.7]))
    assert np.allclose(u, [0.4, 0.6], atol=1e-15)


def test_constant_feedback_recovers_constant():
    inner = ScriptedLearner([[0.5, 0.5]] * 30)
    wrap = A2L(inner)
    c = np.array([0.25, 0.75])
    for _ in range(30):
        wrap.next_strategy()
        wrap.observe(c)
    for u in inner.seen:
        assert np.abs(u - c).max() < 1e-12


@pytest.mark.parametrize("weights", ["uniform", "linear"])
def test_recovery_matches_literal_formula(weights):
    rng = np.random.default_rng(1)
    avg_utils = [rng.uniform(-1, 1, size=3) for _ in range(200)]
    inner = ScriptedLearner([rng.dirichlet(np.ones(3)) for _ in range(200)])
    wrap = A2L(inner, weights=weights)
    for ubar in avg_utils:
        wrap.next_strategy()
        wrap.observe(ubar)
    want = literal_recovery(avg_utils, weights)
    for got, exp in zip(inner.seen, want):
        assert np.abs(got - exp).max() < 1e-9


def test_cum_recovered_tracks_weighted_sum():
    # The vectors observe returns (and forwards) rebuild the weighted sum:
    # sum_{k<=t} alpha_k u^k = (sum_{k<=t} alpha_k) ubar^t at every t.
    rng = np.random.default_rng(2)
    inner = ScriptedLearner([rng.dirichlet(np.ones(2)) for _ in range(20)])
    wrap = A2L(inner, weights="linear")
    cum, cum_weight = np.zeros(2), 0.0
    for t in range(1, 21):
        wrap.next_strategy()
        ubar = rng.uniform(size=2)
        u = wrap.observe(ubar)
        assert np.array_equal(u, inner.seen[-1])
        cum, cum_weight = cum + t * u, cum_weight + t
        assert np.abs(cum - cum_weight * ubar).max() < 1e-9


def test_protocol_strict_alternation():
    inner = ScriptedLearner([[1, 0], [1, 0]])
    wrap = A2L(inner)
    with pytest.raises(ProtocolError):
        wrap.observe(np.zeros(2))
    wrap.next_strategy()
    with pytest.raises(ProtocolError):
        wrap.next_strategy()
    wrap.observe(np.zeros(2))  # back in sync


def test_weight_rules():
    with pytest.raises(ValueError):
        A2L(ScriptedLearner([[1, 0]]), weights="exponential")
    wrap = A2L(ScriptedLearner([[1, 0], [0, 1]]), weights=lambda t: 2.0 * t)
    wrap.next_strategy()
    wrap.observe(np.zeros(2))
    # alpha = (2, 4): weighted mean (2*x1 + 4*x2) / 6
    assert np.allclose(wrap.next_strategy(), [1 / 3, 2 / 3])


def test_running_mean_helper():
    assert np.array_equal(update_running_mean(np.zeros(1), np.array([1.0]), 1.0, 1.0), [1.0])
    avg = update_running_mean(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1.0, 2.0)
    assert np.allclose(avg, [0.5, 0.5])


@pytest.mark.parametrize("weights", ["uniform", "linear", ("linear", "uniform") * 2 + ("linear",)])
def test_batched_wrapper_matches_per_row_wrappers(weights):
    # A sequence gives each row of axis -2 its own rule.
    rng = np.random.default_rng(4)
    feedback = rng.uniform(-1, 1, size=(40, 5, 3))  # rounds x instances x actions
    batch = A2L(OMWU((5, 3), 0.3), weights=weights)
    rows = [A2L(OMWU(3, 0.3), weights=weights if isinstance(weights, str) else weights[k])
            for k in range(5)]
    for ubar in feedback:
        played = batch.next_strategy()
        rec = batch.observe(ubar)
        for k, wrap in enumerate(rows):
            assert np.array_equal(played[k], wrap.next_strategy())
            assert np.array_equal(rec[k], wrap.observe(ubar[k]))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 40).flatmap(lambda T: st.tuples(
        st.lists(st.floats(0.1, 10.0), min_size=T, max_size=T),
        st.lists(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
                 min_size=T, max_size=T),
    )),
    st.sampled_from([MWU, OMWU]),
    st.floats(0.05, 1.0),
)
def test_recovery_is_exact_under_random_weights_and_utilities(stream, cls, eta):
    # The bare learner sees u^1..u^T.  The wrapper, with the same weights as
    # one shared callable, sees the alpha-weighted running mean of that
    # stream, as it would if its opponents played weighted averages in a
    # game with linear utilities.  It must forward exactly u^t to its inner
    # learner and play the alpha-weighted running mean of the bare iterates.
    alphas, utils = np.array(stream[0]), np.array(stream[1])
    cum_alpha = np.cumsum(alphas)
    seen = np.cumsum(alphas[:, None] * utils, axis=0) / cum_alpha[:, None]
    bare = cls(3, eta)
    wrap = A2L(cls(3, eta), weights=lambda t: alphas[t - 1])
    bare_xs, played, recovered = [], [], []
    for u, ubar in zip(utils, seen):
        bare_xs.append(bare.next_strategy())
        bare.observe(u)
        played.append(wrap.next_strategy())
        recovered.append(wrap.observe(ubar))
    want_play = np.cumsum(alphas[:, None] * np.array(bare_xs), axis=0) / cum_alpha[:, None]
    # rounding in ubar^t is scaled by at most sum_{k<t} alpha_k / alpha_t < 4000
    assert np.abs(np.array(recovered) - utils).max() <= 1e-11
    assert np.abs(np.array(played) - want_play).max() <= 1e-12


def test_played_averages_are_not_overwritten_by_later_rounds():
    # A batch of 5 rows; each returned average must keep its value, and equal
    # the running mean of the inner iterates, after the later rounds.
    rng = np.random.default_rng(6)
    wrap = A2L(OMWU((5, 3), 0.3))
    played, kept, inner = [], [], []
    for ubar in rng.uniform(-1, 1, size=(10, 5, 3)):
        inner.append(np.empty((5, 3)))
        played.append(wrap.next_strategy(inner=inner[-1]))
        kept.append(played[-1].copy())
        wrap.observe(ubar)
    avg = np.zeros((5, 3))
    for t, (x, want, xin) in enumerate(zip(played[:3], kept, inner), start=1):
        avg = update_running_mean(avg, xin, 1.0, float(t))
        assert np.array_equal(x, want) and np.array_equal(x, avg)


class DirichletLearner:
    """An inner learner with only the black-box contract: it plays seeded
    Dirichlet iterates and ignores its feedback."""

    def __init__(self, d, seed):
        self.shape = (d,)
        self._rng = np.random.default_rng(seed)
        self._x = self._rng.dirichlet(np.ones(d))

    def next_strategy(self, out=None):
        if out is None:
            return self._x
        out[...] = self._x
        return out

    def observe(self, u):
        self._x = self._rng.dirichlet(np.ones(self.shape[0]))


@pytest.mark.parametrize("game_seed", [0, 1, 2])
@pytest.mark.parametrize("weights", ["uniform", "linear"])
def test_the_reduction_holds_over_a_black_box_inner_learner(weights, game_seed):
    # Whatever the inner iterates are, each wrapper plays the weighted
    # running mean of its own, and recovers the utility of its inner iterate
    # at the profile of every player's inner iterate.
    game = generate_game("random_general", n=3, d=(2, 5, 3), seed=game_seed)
    dims = game.action_counts
    wraps = [A2L(DirichletLearner(d, seed=10 * game_seed + i), weights)
             for i, d in enumerate(dims)]
    alpha = WEIGHT_RULES[weights]
    sums, cum = [np.zeros(d) for d in dims], 0.0
    play_dev = recovered_dev = 0.0
    for t in range(1, 1001):
        inner = [np.empty(d) for d in dims]
        played = [w.next_strategy(inner=x) for w, x in zip(wraps, inner)]
        cum += alpha(t)
        for i, x in enumerate(inner):
            sums[i] += alpha(t) * x
            play_dev = max(play_dev, np.abs(played[i] - sums[i] / cum).max())
        for i, w in enumerate(wraps):
            rec = w.observe(game.utility_vector(i, played))
            recovered_dev = max(recovered_dev,
                                np.abs(rec - game.utility_vector(i, inner)).max())
    assert play_dev <= 1e-12, play_dev
    assert recovered_dev <= 1e-10, recovered_dev
