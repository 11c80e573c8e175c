import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2l.learners import (
    MWU,
    OMWU,
    AnytimeMWU,
    mwu_next,
    omwu_next,
    rvu_diagnostic,
    softmax,
)
from a2l.dynamics import RegretGuard
from a2l.reduction import A2L

# frozen from the scalar softmax: exp(0.5) / (1 + exp(0.5))
OMWU_HALF = 0.6224593312018546
# exp(1) / (1 + exp(1)) and exp(2) / (1 + exp(2))
MWU_ONE = 0.7310585786300049
OMWU_TWO = 0.8807970779778823


def mwu_with(d, eta, cum_utils, last_util):
    """An MWU learner whose sums are set to the given values."""
    lrn = MWU(d, eta)
    lrn.cum_utils = np.array(cum_utils)
    lrn.last_util = np.array(last_util)
    return lrn


def test_first_strategy_is_uniform():
    for cls in (MWU, OMWU):
        lrn = cls(4, eta=0.3)
        assert np.array_equal(lrn.next_strategy(), np.full(4, 0.25))


def test_omwu_closed_form_two_actions():
    lrn = mwu_with(2, 0.5, [1.0, 0.0], [0.0, 0.0])
    x = omwu_next(lrn)
    assert x[0] == pytest.approx(OMWU_HALF, abs=1e-15)
    assert x[1] == pytest.approx(1.0 - OMWU_HALF, abs=1e-15)


def test_softmax_shift_invariance():
    lrn = mwu_with(3, 0.7, [0.5, -1.0, 2.0], [0.2, 0.0, -0.3])
    x = omwu_next(lrn)
    # adding a constant to cum + last shifts every exponent equally
    shifted = mwu_with(3, 0.7, lrn.cum_utils + 5.0, lrn.last_util + 5.0)
    y = omwu_next(shifted)
    assert np.abs(x - y).max() < 1e-12


def test_mwu_equals_omwu_without_last_utility():
    lrn = mwu_with(3, 1.2, [1.0, 0.5, -0.5], np.zeros(3))
    assert np.array_equal(mwu_next(lrn), omwu_next(lrn))


def test_mwu_and_omwu_differ_with_last_utility():
    lrn = mwu_with(2, 1.0, [1.0, 0.0], [1.0, 0.0])
    x_mwu = mwu_next(lrn)    # softmax(1, 0)
    x_omwu = omwu_next(lrn)  # softmax(2, 0): last utility counted twice
    assert x_mwu[0] == pytest.approx(MWU_ONE, abs=1e-15)
    assert x_omwu[0] == pytest.approx(OMWU_TWO, abs=1e-15)
    assert x_omwu[0] > x_mwu[0]


def test_determinism_bitwise():
    s1 = mwu_with(4, 0.4, [0.1, 0.2, 0.3, 0.4], [0.0, 0.1, 0.0, -0.1])
    s2 = mwu_with(4, 0.4, s1.cum_utils.copy(), s1.last_util.copy())
    assert np.array_equal(omwu_next(s1), omwu_next(s2))


def test_no_overflow_for_large_exponents():
    lrn = mwu_with(3, 1.0, [700.0, -700.0, 0.0], np.zeros(3))
    x = mwu_next(lrn)
    assert np.all(np.isfinite(x)) and abs(x.sum() - 1.0) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_softmax_always_on_simplex(z):
    x = softmax(np.array(z))
    assert np.all(x >= 0)
    assert abs(x.sum() - 1.0) < 1e-12


def test_batched_state_runs_each_row_as_a_single_learner():
    rng = np.random.default_rng(3)
    us = rng.uniform(-1, 1, size=(30, 4, 3))  # rounds x instances x actions
    for cls in (MWU, OMWU):
        batch = cls((4, 3), eta=0.4, bias=[0.1, 0.0, -0.2])
        rows = [cls(3, eta=0.4, bias=[0.1, 0.0, -0.2]) for _ in range(4)]
        for u in us:
            xb = batch.next_strategy()
            for k, lrn in enumerate(rows):
                assert np.array_equal(xb[k], lrn.next_strategy())
                lrn.observe(u[k])
            batch.observe(u)
        assert batch.cum_utils.shape == (4, 3)


def test_batched_observe_validates_input():
    lrn = OMWU((4, 3), eta=0.5)
    with pytest.raises(ValueError, match="expected"):
        lrn.observe(np.zeros((4, 2)))
    bad = np.zeros((4, 3))
    bad[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        lrn.observe(bad)
    # The check sums the squares first: a sum that overflows, of finite
    # entries, is accepted; infinities that cancel to NaN, or alone, are not.
    big = np.zeros((4, 3))
    big[1] = [1e308, 1e308, 0.0]
    lrn.observe(big)
    for row in ([np.inf, -np.inf, 0.0], [0.0, -np.inf, 0.0]):
        bad = np.zeros((4, 3))
        bad[3] = row
        with pytest.raises(ValueError, match="non-finite"):
            lrn.observe(bad)
    assert np.array_equal(lrn.cum_utils, big)


def test_the_finiteness_check_never_warns():
    # Finite feedback whose sum or sum of squares overflows is accepted, and
    # feedback with NaN or infinities refused, without a numpy warning: with
    # no warning filter set, none is recorded.
    lrn = OMWU((2, 3), eta=0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.resetwarnings()
        for row in ([1e308, 1e308, 0.0], [1e200, -1e200, 1e155]):
            lrn.observe(np.array([row, [0.0, 0.0, 0.0]]))
        for row in ([np.inf, -np.inf, 0.0], [0.0, -np.inf, 0.0], [np.nan, 1.0, 0.0]):
            with pytest.raises(ValueError, match="non-finite"):
                lrn.observe(np.array([[0.0, 0.0, 0.0], row]))
    assert [str(w.message) for w in caught] == []
    assert np.array_equal(lrn.cum_utils, [[1e308, 1e308, 1e155], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize("make", [
    lambda: OMWU((2, 3), 0.5),
    lambda: AnytimeMWU((2, 3)),
    lambda: A2L(OMWU((2, 3), 0.5)),
], ids=["omwu", "anytime-mwu", "a2l-omwu"])
@pytest.mark.parametrize("bad", [(3,), (2, 2), (1, 2, 3), (4, 2, 3)])
def test_a_learner_refuses_feedback_of_another_shape(make, bad):
    # Built at (2, 3), a learner takes (2, 3) feedback and nothing that
    # would broadcast to it or grow it; a refusal leaves its state as it was.
    u = np.arange(6.0).reshape(2, 3) / 6
    lrn, ref = make(), make()
    for learner in (lrn, ref):
        learner.next_strategy()
        learner.observe(u)
        assert learner.next_strategy().shape == (2, 3)
    with pytest.raises(ValueError, match=re.escape(f"shape {bad}, expected (2, 3)")):
        lrn.observe(np.ones(bad))
    for learner in (lrn, ref):
        learner.observe(u)
    assert np.array_equal(lrn.next_strategy(), ref.next_strategy())


@pytest.mark.parametrize("make, name, shape", [
    (lambda: OMWU(3, np.ones((2, 1))), "eta", (2, 1)),
    (lambda: MWU((2, 3), 0.5, bias=np.zeros(4)), "bias", (4,)),
    (lambda: OMWU((4, 3), 0.5, bias=np.zeros((2, 3))), "bias", (2, 3)),
], ids=["eta-more-axes", "bias-wrong-width", "bias-wrong-rows"])
def test_a_learner_refuses_parameters_that_do_not_broadcast_to_its_state(make, name, shape):
    # numpy's own refusal named neither the parameter nor the shapes.
    with pytest.raises(ValueError, match=re.escape(f"{name} has shape {shape}, which does not "
                                                   f"broadcast to the state's shape")):
        make()


def test_softmax_trailing_axis():
    z = np.array([[0.5, -1.0, 2.0], [700.0, -700.0, 0.0]])
    x = softmax(z)
    for row, zr in zip(x, z):
        assert np.array_equal(row, softmax(zr))


def test_observe_validates_input():
    lrn = OMWU(3, eta=0.5)
    with pytest.raises(ValueError):
        lrn.observe(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        lrn.observe(np.array([1.0, np.inf, 0.0]))
    with pytest.raises(ValueError):
        MWU(2, 0.0)


def test_state_tracks_cumulative_and_last():
    lrn = OMWU(2, eta=0.5)
    lrn.next_strategy()
    lrn.observe(np.array([1.0, 0.0]))
    lrn.observe(np.array([0.5, 0.5]))
    assert np.array_equal(lrn.cum_utils, [1.5, 0.5])
    assert np.array_equal(lrn.last_util, [0.5, 0.5])


def test_bias_moves_initial_strategy():
    lrn = MWU(2, eta=0.5, bias=np.log([0.7, 0.3]))
    x = lrn.next_strategy()
    assert np.allclose(x, [0.7, 0.3], atol=1e-12)


def test_rvu_constant_utilities():
    # constant utility sequence: variation terms vanish except the first
    u = np.array([0.3, -0.2, 0.1])
    xs, us = [], []
    lrn = OMWU(3, eta=0.5)
    for _ in range(40):
        xs.append(lrn.next_strategy())
        lrn.observe(u)
        us.append(u)
    diag = rvu_diagnostic(xs, us, eta=0.5)
    assert diag["slack"] >= -1e-9
    assert diag["regret"] <= np.log(3) / 0.5 + 0.5 * np.abs(u).max() ** 2 + 1e-9


def test_rvu_single_zero_round():
    diag = rvu_diagnostic([np.array([0.5, 0.5])], [np.zeros(2)], eta=0.7)
    assert diag["regret"] == pytest.approx(0.0, abs=1e-15)
    assert diag["bound_rhs"] == pytest.approx(np.log(2) / 0.7, abs=1e-12)


def test_rvu_selfplay_zero_sum():
    # 50 rounds of optimistic self-play in a 2-player zero-sum game
    rng = np.random.default_rng(7)
    a = rng.uniform(-1, 1, size=(4, 4))
    p1, p2 = OMWU(4, eta=0.25), OMWU(4, eta=0.25)
    xs, us = [], []
    for _ in range(50):
        x, y = p1.next_strategy(), p2.next_strategy()
        u1, u2 = a @ y, -a.T @ x
        p1.observe(u1)
        p2.observe(u2)
        xs.append(x)
        us.append(u1)
    assert rvu_diagnostic(xs, us, eta=0.25)["slack"] >= -1e-9


def test_rvu_rejects_empty():
    with pytest.raises(ValueError):
        rvu_diagnostic([], [], eta=0.5)


def test_regret_best_fixed_action():
    xs = np.array([[1.0, 0.0], [1.0, 0.0]])
    us = np.array([[0.0, 1.0], [0.0, 1.0]])
    assert rvu_diagnostic(xs, us, eta=0.5)["regret"] == pytest.approx(2.0)


def test_anytime_mwu_learns_best_action():
    lrn = AnytimeMWU(3)
    u = np.array([0.0, 1.0, 0.2])
    for _ in range(400):
        lrn.next_strategy()
        lrn.observe(u)
    assert lrn.next_strategy()[1] > 0.95


def test_anytime_mwu_observe_validates_input():
    lrn = AnytimeMWU((2, 3), counts=np.array([[2], [3]]))
    with pytest.raises(ValueError, match="expected"):
        lrn.observe(np.zeros((2, 2)))
    bad = np.zeros((2, 3))
    bad[1, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        lrn.observe(bad)
    assert lrn.t.tolist() == [0, 0] and not lrn.cum_utils.any()


# -- writing into the caller's arrays ------------------------------------------

ROWS = np.array([[True], [False], [True]])
CONTRACT_LEARNERS = {
    "mwu": lambda: MWU((2, 3), 0.4, bias=[0.1, 0.0, -0.2]),
    "omwu-rows": lambda: OMWU((2, 3, 3), 0.3, rows=ROWS.astype(int)),
    "anytime-mwu": lambda: AnytimeMWU((2, 3), counts=np.array([[2], [3]])),
    "a2l-rows": lambda: A2L(OMWU((2, 3, 3), 0.3), ["linear", "uniform", "linear"], rows=ROWS),
    # Row 0 is guarded tightly enough to switch within the run; row 1 is not guarded.
    "regret-guard": lambda: RegretGuard(A2L(OMWU((2, 3), 0.5)), 3, 0.5, np.log(9),
                                        np.array([0.02, np.inf])),
}


def drive(lrn, rounds, slots):
    """Play the feedback ``rounds`` against lrn; returns per round what it
    returned and, for a wrapper, its inner iterate and recovered utilities,
    written into fresh per-round slots when ``slots``."""
    wrapper = not isinstance(lrn, MWU)
    logs = np.zeros((3,) + rounds.shape)  # strategies, inner iterates, recovered
    got = []
    for t, u in enumerate(rounds):
        if not slots:
            inner = np.empty(u.shape)
            x = lrn.next_strategy(inner=inner) if wrapper else lrn.next_strategy()
            got.append((x, inner, lrn.observe(u)))
        elif wrapper:
            lrn.next_strategy(out=logs[0, t], inner=logs[1, t])
            lrn.observe(u, out=logs[2, t])
        else:
            lrn.next_strategy(out=logs[0, t])
            lrn.observe(u)
    return got if not slots else logs


@pytest.mark.parametrize("name", CONTRACT_LEARNERS)
def test_a_learner_writing_into_slots_plays_as_it_does_without(name):
    make = CONTRACT_LEARNERS[name]
    rounds = np.random.default_rng(5).uniform(-1, 1, size=(40,) + make().next_strategy().shape)
    lrn = make()
    got = drive(lrn, rounds, slots=False)
    logs = drive(make(), rounds, slots=True)
    assert all(np.array_equal(x, want) for x, want in zip(logs[0], (g[0] for g in got)))
    if not isinstance(lrn, MWU):
        for t, (_x, inner, rec) in enumerate(got):
            assert np.array_equal(logs[1, t], inner), t
            assert np.array_equal(logs[2, t], rec), t
    if name == "regret-guard":
        assert lrn.switch_rounds.tolist()[1] == 0 and 0 < lrn.switch_rounds[0] < 30


@pytest.mark.parametrize("name", CONTRACT_LEARNERS)
def test_results_returned_without_out_are_not_overwritten(name):
    make = CONTRACT_LEARNERS[name]
    rounds = np.random.default_rng(6).uniform(-1, 1, size=(40,) + make().next_strategy().shape)
    lrn = make()
    kept, copies = [], []
    for u in rounds:
        x = lrn.next_strategy()
        rec = lrn.observe(u)
        kept.append((x, rec))
        copies.append((x.copy(), None if rec is None else rec.copy()))
    for (x, rec), (x0, rec0) in zip(kept, copies):
        assert np.array_equal(x, x0)
        assert rec is None or np.array_equal(rec, rec0)
