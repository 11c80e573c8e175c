import collections
import dataclasses
import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from a2l import bandit
from a2l.bandit import (
    CHUNK_EPOCHS,
    BanditPipeline,
    BanditTrajectory,
    DataError,
    EpochSchedule,
    JointSampler,
    ScheduleError,
    audit_truths,
    bandit_csv_columns,
    bandit_step_size,
    epoch_estimate,
    estimate_epoch,
    estimation_error_audit,
    iw_radius,
    recovery_error_audit,
    regret_error_bound_audit,
    run_bandit,
    run_bandit_vs_environment,
)
from a2l.csvrows import _csv_lines
from a2l.games import PolymatrixGame, generate_game
from a2l.learners import OMWU, AnytimeMWU, softmax
from a2l.reduction import A2L


def small_game():
    return generate_game("random_zs", n=2, d=3, seed=11)


def quiet_run(**kw):
    game = kw.pop("game", small_game())
    sched = kw.pop("schedule", EpochSchedule())
    return run_bandit(game, sched, **kw)


# -- schedules ---------------------------------------------------------------


def test_theory_schedule_values():
    s = EpochSchedule()
    assert [s.epoch_length(t, 3) for t in (1, 2, 3)] == [1, 16, 81]
    assert [s.mixing(t) for t in (1, 2, 4)] == [1.0, 0.5, 0.25]
    assert bandit.certificate_misses(s, None, 2) == []


def test_theory_d_schedule_scales_by_dimension():
    s = EpochSchedule(mode="theory_d")
    assert s.epoch_length(2, 5) == 80
    assert s.mixing(2) == 0.5


def test_custom_schedule():
    s = EpochSchedule.custom(coeff=3, power=2, eps_coeff=0.4, eps_power=0.0)
    assert [field for _, field, _ in bandit.certificate_misses(s, None, 2)] == ["schedule"]
    assert s.epoch_length(4, 10) == 48
    assert s.mixing(4) == 0.4
    # held as floats, so an int and a float written for one number build one schedule
    assert s == EpochSchedule.custom(coeff=3.0, power=2.0, eps_coeff=0.4, eps_power=0)
    assert all(type(getattr(s, k)) is float for k in ("coeff", "power", "eps_coeff", "eps_power"))
    with pytest.raises(ScheduleError, match="^power must be a number, got '2'"):
        EpochSchedule.custom(coeff=3, power="2")
    with pytest.raises(ScheduleError):
        EpochSchedule(mode="nope")
    with pytest.raises(ScheduleError):
        EpochSchedule.custom(coeff=0.0, power=1)
    # eps_coeff * t^eps_power passes the float range: eps_t is capped at 1
    assert EpochSchedule.custom(coeff=1, power=1, eps_power=1000).mixing(3) == 1.0


@pytest.mark.parametrize("field, value", [
    ("coeff", math.nan), ("power", math.inf), ("eps_coeff", math.nan),
    ("eps_power", -math.inf), ("eps_coeff", 0), ("eps_coeff", -0.5),
])
def test_custom_schedule_refuses_numbers_its_run_cannot_play(field, value):
    # NaN eps_coeff used to mix at eps_t = 1 in every epoch (min(1, nan) is 1),
    # NaN coeff to fail inside the run, and eps_coeff <= 0 at t = 1.
    with pytest.raises(ScheduleError, match=f"^{field} must be "):
        EpochSchedule.custom(**{"coeff": 1, "power": 1, field: value})


def per_t_length(s, t, d):
    """B_t by the schedule's rule in Python numbers, one epoch at a time;
    None where it exceeds int64."""
    if s.mode == "theory":
        B = t**4
    elif s.mode == "theory_d":
        B = d * t**4
    else:
        try:
            B = max(1, math.ceil(s.coeff * t**s.power))
        except OverflowError:
            B = math.inf
    return None if B > np.iinfo(np.int64).max else B


def per_t_mixing(s, t):
    """eps_t by the schedule's rule in Python numbers; None outside (0, 1]."""
    if s.mode != "custom":
        return 1.0 / t
    try:
        eps = min(1.0, s.eps_coeff * t**s.eps_power)
    except OverflowError:
        eps = 1.0
    return eps if 0.0 < eps <= 1.0 else None


EPOCHS = st.one_of(st.integers(1, 200), st.integers(1, 2**63 - 1))


@settings(max_examples=300, deadline=None)
@given(
    mode=st.sampled_from(["theory", "theory_d", "custom"]),
    coeff=st.floats(1.0, 1e20),
    power=st.one_of(st.floats(-3.0, 3.0), st.floats(-60.0, 60.0)),
    eps_coeff=st.one_of(st.floats(0.01, 1.0), st.floats(1e-300, 1e300)),
    eps_power=st.one_of(st.floats(-3.0, 3.0), st.floats(-400.0, 400.0)),
    d=st.integers(1, 2**20),
    ts=st.lists(EPOCHS, min_size=1, max_size=40),
)
@example(mode="theory", coeff=1.0, power=4.0, eps_coeff=1.0, eps_power=-1.0, d=1,
         ts=[55107, 55108, 55109, 55110])  # 55109^4 is the first t^4 past int64
@example(mode="theory_d", coeff=1.0, power=4.0, eps_coeff=1.0, eps_power=-1.0, d=3,
         ts=[1, 41871, 41872])  # 3 * 41872^4 is the first past int64
@example(mode="custom", coeff=1.0, power=30.0, eps_coeff=1.0, eps_power=1000.0, d=2,
         ts=[1, 2, 3, 4, 5])  # B_5 = 5^30 passes int64; t^1000 overflows: eps_t = 1
@example(mode="custom", coeff=1.0, power=1.0, eps_coeff=1.0, eps_power=-1000.0, d=2,
         ts=[1, 2, 3])  # 3^-1000 underflows: eps_3 = 0 is refused
@example(mode="custom", coeff=1.5, power=0.7, eps_coeff=0.5, eps_power=-0.37, d=2,
         ts=list(range(1, 41)))  # numpy's own power differs here in a few last bits
@example(mode="custom", coeff=2.0**63, power=-1.0, eps_coeff=1.0, eps_power=-1.0, d=2,
         ts=[2, 1])  # B_2 = 2^62 fits, B_1 = 2^63 does not
def test_the_array_schedule_equals_its_per_epoch_rules(mode, coeff, power, eps_coeff,
                                                       eps_power, d, ts):
    # One numpy pass over an array of epochs gives the per-epoch rules' B_t
    # and eps_t bit for bit, or refuses naming the first t they refuse.  The
    # suite turns numpy's RuntimeWarning into an error, so an overflowing
    # t^p must not warn.
    s = (EpochSchedule.custom(coeff, power, eps_coeff, eps_power) if mode == "custom"
         else EpochSchedule(mode=mode))
    t_arr = np.array(ts, dtype=np.int64)
    for rule, fn, dtype in ((per_t_length, lambda t: s.epoch_length(t, d), np.int64),
                            (per_t_mixing, s.mixing, np.float64)):
        want = [rule(s, t, d) if rule is per_t_length else rule(s, t) for t in ts]
        if None in want:
            first = ts[want.index(None)]
            for t in (t_arr, first):
                with pytest.raises(ScheduleError, match=rf" at t={first}\b"):
                    fn(t)
            continue
        got = fn(t_arr)
        assert got.dtype == dtype and got.tolist() == want
        assert all(type(fn(t)) is type(w) and fn(t) == w for t, w in zip(ts, want))


# -- estimator pieces ---------------------------------------------------------


def test_estimate_epoch_constant_rewards():
    est = estimate_epoch([1] * 5, [0.7] * 5, d=3)
    assert est[1] == pytest.approx(0.7)
    assert est[0] == 0.0 and est[2] == 0.0


def test_estimate_epoch_mean():
    est = estimate_epoch([0, 0, 0, 0], [1.0, 0.0, 1.0, 1.0], d=2)
    assert est.tolist() == [0.75, 0.0]


def test_estimate_epoch_rejects_out_of_range():
    with pytest.raises(DataError):
        estimate_epoch([0, 1], [0.5, 1.7], d=2)
    with pytest.raises(DataError):
        estimate_epoch([0, 1], [-0.2, 0.5], d=2)


def test_recover_estimated():
    # the wrapper fed epoch estimates recovers uhat^t = t Uhat^t - (t-1) Uhat^{t-1}
    cur = estimate_epoch([0, 1], [0.4, 0.6], d=2)
    wrapper = A2L(OMWU(2, bandit_step_size(2)))
    wrapper.next_strategy()
    assert np.allclose(wrapper.observe(cur), cur)
    wrapper.next_strategy()
    wrapper.observe(np.array([0.4, 0.6]))
    wrapper.next_strategy()
    u = wrapper.observe(np.array([0.5, 0.5]))
    assert np.allclose(u, [0.7, 0.3], atol=1e-15)


# -- full runs ----------------------------------------------------------------


def test_first_epoch_plays_uniform():
    traj = quiet_run(epochs=3, seed=0)
    for i in range(2):
        assert np.allclose(traj.mixed[i][0], np.full(3, 1 / 3), atol=1e-15)


def test_epoch_one_undersampling_is_flagged():
    # B_1 = 1 with d = 3 leaves exactly two actions unsampled
    traj = quiet_run(epochs=2, seed=0)
    assert traj.unsampled[0].tolist() == [2, 2]


def test_reproducibility():
    a = quiet_run(epochs=6, seed=3)
    b = quiet_run(epochs=6, seed=3)
    for i in range(2):
        assert np.array_equal(a.estimates[i], b.estimates[i])
        assert np.array_equal(a.mixed[i], b.mixed[i])
        assert np.array_equal(a.counts[i], b.counts[i])
    c = quiet_run(epochs=6, seed=4)
    assert not np.array_equal(a.estimates[0], c.estimates[0])


def test_inner_iterates_replay_as_plain_omwu():
    traj = quiet_run(epochs=8, seed=1)
    for i in range(2):
        lrn = OMWU(3, traj.meta["eta"])
        for k in range(8):
            assert np.abs(lrn.next_strategy() - traj.inner[i][k]).max() <= 1e-12
            lrn.observe(traj.recovered[i][k])


def test_uncertified_run_warns():
    game = small_game()
    with pytest.warns(UserWarning):
        run_bandit(game, EpochSchedule.custom(coeff=10, power=1), epochs=3)
    with pytest.warns(UserWarning):
        traj = run_bandit(game, EpochSchedule(), eta=1.0, epochs=2)
    assert not traj.meta["certified"]


def test_certificate_misses_name_the_schedule_and_the_step_size():
    assert bandit.certificate_misses(EpochSchedule(), None, 2) == []
    assert bandit.certificate_misses(EpochSchedule(mode="theory_d"), 1 / 12, 2) == []
    custom = EpochSchedule.custom(coeff=10, power=1)
    misses = bandit.certificate_misses(custom, 1 / 12 + 1e-9, 2)
    assert [(player, field) for player, field, _ in misses] == [(None, "schedule"), (None, "eta")]
    with pytest.warns(UserWarning, match=r"need a theory schedule .* and eta <= 1/\(6n\) = "):
        run_bandit(small_game(), custom, eta=0.2, epochs=2)


def test_default_step_size_is_certified():
    traj = quiet_run(epochs=2, seed=0)
    assert traj.meta["eta"] == pytest.approx(bandit_step_size(2))
    assert traj.meta["certified"]


def test_rewards_renormalized_into_unit_interval():
    traj = quiet_run(epochs=6, seed=2)
    for i in range(2):
        est = traj.estimates[i]
        assert est.min() >= 0.0 and est.max() <= 1.0


def test_single_action_players_estimate_exactly():
    # both players have one action: rewards are constant, estimates exact
    # (payoff 0.5 renormalizes to the dyadic 0.75, so sums stay exact)
    game = PolymatrixGame(
        (1, 1), {(0, 1): [[0.5]], (1, 0): [[-0.5]]}, zero_sum=True
    )
    traj = run_bandit(game, EpochSchedule(), epochs=4, seed=0)
    truth = audit_truths(traj, game)
    assert np.abs(estimation_error_audit(traj, truth)["delta_inf"]).max() == 0.0
    assert np.allclose(traj.tgap_mixed, 0.0)


def test_zero_variance_game_estimates_exactly_when_sampled():
    half = np.full((3, 3), 0.5)
    game = PolymatrixGame((3, 3), {(0, 1): half, (1, 0): -half}, zero_sum=True)
    traj = run_bandit(game, EpochSchedule(), epochs=5, seed=0)
    delta_inf = estimation_error_audit(traj, audit_truths(traj, game))["delta_inf"]
    for k in range(5):
        if traj.unsampled[k].sum() == 0:
            assert delta_inf[k].max() == 0.0


def test_audit_inequalities_hold():
    traj = quiet_run(epochs=10, seed=5)
    truth = audit_truths(traj, small_game())
    rec = recovery_error_audit(traj, truth)
    assert rec["slack_first_order"].min() >= -1e-6
    assert rec["slack_second_order"].min() >= -1e-6
    reg = regret_error_bound_audit(traj, truth)
    assert reg["slack"].min() >= -1e-6
    audit = estimation_error_audit(traj, truth)
    assert audit["violated"].shape == (10, 2)


def test_monitor_columns_logged():
    traj = quiet_run(epochs=4, seed=0)
    assert traj.reg_est.shape == (4, 2)
    assert np.all(np.isfinite(traj.radius))
    assert traj.switch_epoch == [None, None]
    # audit truths too, in every run without a switch
    truth = audit_truths(traj, small_game())
    assert np.all(np.isfinite(truth["delta_inf"])) and np.all(np.isfinite(truth["bound"]))
    assert all(np.all(np.isfinite(u)) for u in truth["inner"] + truth["mixed_avg"])
    # monitor_c = inf logs the monitor and never switches
    never = quiet_run(epochs=4, seed=0, monitor_c=np.inf)
    assert np.array_equal(never.reg_est, traj.reg_est)
    assert never.switch_epoch == [None, None]


def test_forced_switch_runs_fallback_path():
    # a zero switching threshold plus zero radius would be degenerate, so
    # force the trigger with a negative constant instead
    game = small_game()
    sched = EpochSchedule.custom(coeff=30, power=0.0, eps_coeff=0.5, eps_power=0.0)
    with pytest.warns(UserWarning):
        traj = run_bandit(game, sched, epochs=4, seed=0, monitor_c=-1e9)
    assert traj.switch_epoch[0] == 1 and traj.switch_epoch[1] == 1
    assert np.all(np.isnan(traj.recovered[0][1:]))  # pipeline stopped
    assert traj.num_epochs == 4  # run still completes


def test_audit_rows_are_nan_from_the_first_switch_epoch():
    # the monitors switch in epochs 9 and 7; rows from epoch 7 on, epoch 7
    # included, have no truth, and every audit reads them as NaN
    sched = EpochSchedule.custom(coeff=200, power=1.0, eps_coeff=0.5, eps_power=0.0)
    with pytest.warns(UserWarning):
        traj = quiet_run(schedule=sched, epochs=14, seed=0, monitor_c=-15.0)
    assert traj.switch_epoch == [9, 7]
    game = small_game()
    truth = audit_truths(traj, game)
    rows = {
        "delta_inf": truth["delta_inf"],
        "bound": truth["bound"][:, None],
        "mixed_avg": np.hstack(truth["mixed_avg"]),
        "inner": np.hstack(truth["inner"]),
        "recovery": recovery_error_audit(traj, truth)["slack_first_order"],
        "regret": regret_error_bound_audit(traj, truth)["slack"],
    }
    for name, a in rows.items():
        assert np.all(np.isfinite(a[:6])), name
        assert np.all(np.isnan(a[6:])), name
    assert estimation_error_audit(traj, truth)["violated"][6:].sum() == 0


def test_audit_truths_match_per_epoch_evaluation():
    game = generate_game("random_zs", n=3, d=(2, 4, 3), seed=4)
    traj = run_bandit(game, EpochSchedule(), epochs=8, seed=9)
    truth = audit_truths(traj, game)
    for k in range(8):
        plays = [x[k] for x in traj.mixed]
        inner = [x[k] for x in traj.inner]
        for i in range(3):
            want = (game.utility_vector(i, plays) + 2.0) / 4.0
            assert np.array_equal(truth["mixed_avg"][i][k], want)
            assert truth["delta_inf"][k, i] == np.abs(traj.estimates[i][k] - want).max()
            want = (game.utility_vector(i, inner) + 2.0) / 4.0
            assert np.array_equal(truth["inner"][i][k], want)
        assert traj.tgap_mixed[k] == game.total_gap(plays)


def test_iw_monitor_per_comparator_unbiased():
    # constant utility vector: <IW, x> equals the realized total exactly,
    # so each comparator estimate has mean B * (u[a] - <x, u>) = 0
    rng = np.random.default_rng(0)
    x = np.array([0.5, 0.3, 0.2])
    r = 0.6
    B, M = 200, 4000
    devs = np.zeros(3)
    vals = np.zeros((M, 3))
    for m in range(M):
        acts = rng.choice(3, size=B, p=x)
        sums = np.bincount(acts, weights=np.full(B, r), minlength=3)
        iw = sums / x
        vals[m] = iw - float(iw @ x)
    mean = vals.mean(axis=0)
    se = vals.std(axis=0, ddof=1) / np.sqrt(M)
    assert np.all(np.abs(mean - 0.0) <= 3 * se)


def run_monitor(iw_hist, B_hist, eps_hist):
    """Feed a one-row pipeline epoch estimates whose IW vectors are iw_hist."""
    pipe = BanditPipeline([2], bandit_step_size(2), B_hist, eps_hist, delta=0.05)
    for t, (B, iw) in enumerate(zip(B_hist, iw_hist), 1):
        x = pipe.begin_epoch()
        counts = np.full((1, 2), B // 2)
        sums = np.asarray(iw) * x
        pipe.end_epoch(counts, sums)
        pipe.monitor(x, sums, t)
    return pipe


def test_iw_regret_monitor_switch_rule():
    # synthetic epoch data with an inflated estimate fires the rule
    B_hist = [10, 10, 10]
    eps_hist = [1.0, 0.5, 1 / 3]
    calm = np.tile([5.0, 5.0], (3, 1))
    pipe = run_monitor(calm, B_hist, eps_hist)
    assert np.allclose(pipe.play, [[0.5, 0.5]])
    assert pipe.switch.switched.tolist() == [False] and pipe.switch.switched_at.tolist() == [0]
    spiked = calm.copy()
    spiked[2, 0] = 1e9
    pipe = run_monitor(spiked, B_hist, eps_hist)
    assert pipe.switch.switched.tolist() == [True] and pipe.switch.switched_at.tolist() == [3]


@settings(max_examples=30, deadline=None)
@given(
    coeff=st.floats(1.0, 50.0),
    power=st.floats(0.0, 3.0),
    eps_coeff=st.floats(0.05, 1.0),
    eps_power=st.floats(-1.5, 0.0),
    d=st.integers(2, 6),
    epochs=st.integers(1, 60),
)
def test_running_radius_equals_history_radius(coeff, power, eps_coeff, eps_power, d, epochs):
    sched = EpochSchedule.custom(coeff, power, eps_coeff, eps_power)
    B_hist = [sched.epoch_length(t, d) for t in range(1, epochs + 1)]
    eps_hist = [sched.mixing(t) for t in range(1, epochs + 1)]
    pipe = BanditPipeline([d], 0.1, B_hist, eps_hist, delta=0.05, monitor_c=np.inf)
    for t in range(1, epochs + 1):
        pipe.begin_epoch()
        pipe.end_epoch(np.ones((1, d), dtype=int), np.zeros((1, d)))
        ref = iw_radius(B_hist[:t], eps_hist[:t], d, t, 0.05)
        assert pipe.radius[t - 1, 0] == pytest.approx(ref, rel=1e-12)
        assert pipe.rounds[t - 1] == sum(B_hist[:t])


def environment_failing_at(t_bad, bad):
    """Utility vectors in [0, 1]^2 until epoch t_bad, then ``bad``."""
    return lambda t: np.array(bad if t == t_bad else [0.2, 0.7])


def test_environment_run_validates_range():
    sched = EpochSchedule.custom(coeff=10, power=0.0, eps_coeff=0.5, eps_power=0.0)
    with pytest.raises(DataError, match="epoch t=1: .*outside \\[0, 1\\]"):
        run_bandit_vs_environment(2, lambda t: np.array([2.0, 0.0]), sched,
                                  eta=0.1, epochs=2)
    with pytest.raises(DataError, match="epoch t=3: .*outside \\[0, 1\\]"):
        run_bandit_vs_environment(2, environment_failing_at(3, [-0.5, 0.5]), sched,
                                  eta=0.1, monitor_c=np.inf, epochs=5)


@pytest.mark.parametrize("bad, problem", [
    ([np.nan, 0.5], "not finite"),
    ([0.5, np.inf], "not finite"),
    ([0.2, 0.3, 0.5], "shape \\(3,\\), expected \\(2,\\)"),
    ([0.5], "shape \\(1,\\), expected \\(2,\\)"),
])
def test_environment_run_rejects_bad_utilities_naming_the_epoch(bad, problem):
    sched = EpochSchedule.custom(coeff=10, power=0.0, eps_coeff=0.5, eps_power=0.0)
    with pytest.raises(DataError, match=f"epoch t=3: .*{problem}"):
        run_bandit_vs_environment(2, environment_failing_at(3, bad), sched,
                                  eta=0.1, monitor_c=np.inf, epochs=5)


def bait(t):
    """The bandit-monitor adversary: alternating utility vectors."""
    return np.array([1.0, 0.0]) if t % 2 == 1 else np.array([0.475, 0.525])


def random_utilities(d):
    return lambda t: np.random.default_rng(t).random(d)


@pytest.mark.parametrize("d, utility_fn, coeff, monitor_c", [
    (2, bait, 4000, 4.0),               # the bandit-monitor adversary, 3639 epochs
    (5, random_utilities(5), 37, np.inf),
    (17, random_utilities(17), 5, 4.0),
])
def test_environment_true_regret_equals_running_bookkeeping(monkeypatch, d, utility_fn,
                                                            coeff, monitor_c):
    # true_reg, computed after the loop, equals the running sums kept in it
    plays = []
    begin = BanditPipeline.begin_epoch

    def spy(self):
        play = begin(self)
        plays.append(play.copy())
        return play

    monkeypatch.setattr(BanditPipeline, "begin_epoch", spy)
    sched = EpochSchedule.custom(coeff=coeff, power=0.0, eps_coeff=0.5, eps_power=0.0)
    res = run_bandit_vs_environment(d, utility_fn, sched, eta=1.0 / 12, seed=3,
                                    monitor_c=monitor_c, epochs=6000 if d == 2 else 300)
    cum_true = np.zeros(d)
    earned_true = 0.0
    want = []
    # The run plays its switch epoch's whole chunk and returns the epochs up
    # to the switch.
    E = len(res["t"])
    assert len(plays) == min(-(-E // CHUNK_EPOCHS) * CHUNK_EPOCHS, 6000 if d == 2 else 300)
    for t, play in zip(res["t"], plays[:E], strict=True):
        B, v = sched.epoch_length(int(t), d), utility_fn(t)
        cum_true += B * v
        earned_true += B * float(play @ v)
        want.append(cum_true.max() - earned_true)
    assert res["true_reg"].dtype == np.float64
    assert np.array_equal(res["true_reg"], np.array(want))


def test_environment_run_stops_in_its_switch_epoch():
    sched = EpochSchedule.custom(coeff=10, power=0.0, eps_coeff=0.5, eps_power=0.0)
    res = run_bandit_vs_environment(2, lambda t: np.array([0.2, 0.7]), sched,
                                    eta=0.1, monitor_c=-1e9, epochs=5)
    assert res["decision"] == "switch" and res["switch_epoch"] == 1
    assert all(len(res[k]) == 1 for k in ("t", "B", "reg_est", "radius", "true_reg"))


# -- the environment run, one chunk of epochs at a time ------------------------

CALM = EpochSchedule.custom(coeff=40, power=0.0, eps_coeff=0.5, eps_power=0.0)


def environment_by_epoch(d, utility_fn, schedule, eta, seed=0, delta=0.05, monitor_c=4.0,
                         epochs=50):
    """``run_bandit_vs_environment`` one epoch at a time: each epoch's vector
    is checked, played and folded into the monitor before the next one is
    asked for, and the run stops in its switch epoch."""
    rng = np.random.default_rng(seed)
    ts = np.arange(1, epochs + 1)
    B = schedule.epoch_length(ts, d)
    pipe = BanditPipeline(d, eta, B, schedule.mixing(ts), delta, monitor_c)
    plays, utils, reg_est = [], [], []
    for t, B_t in zip(ts.tolist(), B.tolist()):
        v = np.asarray(utility_fn(t), dtype=float)
        if v.shape != (d,) or not ((v >= 0.0) & (v <= 1.0)).all():
            raise DataError(f"epoch t={t}")
        play = pipe.begin_epoch()
        counts = rng.multinomial(B_t, play)
        pipe.end_epoch(counts, counts * v)
        reg_est.append(pipe.monitor(play, counts * v, t))
        plays.append(play)
        utils.append(v)
        if pipe.switch.any:
            break
    E = len(plays)
    B, plays, utils = B[:E], np.array(plays), np.array(utils)
    true_reg = (np.cumsum(B[:, None] * utils, axis=0).max(axis=1)
                - np.cumsum(B * np.vecdot(plays, utils)))
    return {"switch_epoch": E if pipe.switch.any else None,
            "decision": "switch" if pipe.switch.any else "continue",
            "t": ts[:E], "B": B, "reg_est": np.array(reg_est), "radius": pipe.radius[:E],
            "threshold": pipe.threshold[:E], "true_reg": true_reg}


def assert_same_environment_run(res, ref):
    assert res.keys() == ref.keys()
    for key, want in ref.items():
        if isinstance(want, np.ndarray):
            assert res[key].dtype == want.dtype and np.array_equal(res[key], want), key
        else:
            assert res[key] == want, key


def monitor_c_switching_at(s):
    """A monitor_c at which the bait run under CALM switches in epoch s.

    Before its switch a run plays the same whatever monitor_c is.  Epoch t
    then switches once monitor_c < (reg_est - radius) / T_t^{4/5}.  Take
    the midpoint between that value in epoch s and its highest before, which
    is lower for the epochs s these tests use."""
    if s == 1:
        return -1e9
    res = run_bandit_vs_environment(2, bait, CALM, eta=1.0 / 12, monitor_c=np.inf, epochs=s)
    g = (res["reg_est"] - res["radius"]) / np.float_power(np.cumsum(res["B"]), 0.8)
    assert g[-1] > g[:-1].max()
    return (g[:-1].max() + g[-1]) / 2


@pytest.mark.parametrize("s", [1, CHUNK_EPOCHS, CHUNK_EPOCHS + 1],
                         ids=["first-epoch", "chunk-end", "next-chunk-start"])
def test_environment_run_switching_at_a_chunk_edge_equals_the_epoch_by_epoch_run(s):
    kw = {"eta": 1.0 / 12, "monitor_c": monitor_c_switching_at(s), "epochs": 3 * CHUNK_EPOCHS}
    res = run_bandit_vs_environment(2, bait, CALM, **kw)
    assert res["switch_epoch"] == s
    assert_same_environment_run(res, environment_by_epoch(2, bait, CALM, **kw))


def test_environment_run_without_a_switch_equals_the_epoch_by_epoch_run():
    kw = {"eta": 1.0 / 12, "seed": 2, "monitor_c": np.inf, "epochs": 2 * CHUNK_EPOCHS + 5}
    res = run_bandit_vs_environment(5, random_utilities(5), CALM, **kw)
    assert res["decision"] == "continue" and len(res["t"]) == 2 * CHUNK_EPOCHS + 5
    assert_same_environment_run(res, environment_by_epoch(5, random_utilities(5), CALM, **kw))


@pytest.mark.parametrize("bad", [[2.0, 0.0], [np.nan, 0.5], [0.5], ["1", "0"]])
def test_a_bad_vector_after_the_switch_in_its_chunk_returns(bad):
    # The switch fires in epoch 10; the chunk's epoch 12 would be refused.
    env = lambda t: bad if t == 12 else bait(t)  # noqa: E731
    kw = {"eta": 1.0 / 12, "monitor_c": monitor_c_switching_at(10), "epochs": 3 * CHUNK_EPOCHS}
    res = run_bandit_vs_environment(2, env, CALM, **kw)
    assert res["switch_epoch"] == 10
    assert_same_environment_run(res, environment_by_epoch(2, env, CALM, **kw))


@pytest.mark.parametrize("t_bad, bad, message", [
    (8, [-0.5, 0.5], "epoch t=8: environment utilities lie outside [0, 1]: [-0.5, 0.5]"),
    (8, [0.2, 0.3, 0.5], "epoch t=8: environment utility vector has shape (3,), expected (2,)"),
    (CHUNK_EPOCHS + 1, [np.nan, 0.5],
     f"epoch t={CHUNK_EPOCHS + 1}: environment utilities are not finite"),
], ids=["range", "shape", "next-chunk-start"])
@pytest.mark.parametrize("switch", [10 + CHUNK_EPOCHS, None])
def test_a_bad_vector_before_the_switch_raises_naming_its_epoch(t_bad, bad, message, switch):
    env = lambda t: bad if t == t_bad else bait(t)  # noqa: E731
    c = np.inf if switch is None else monitor_c_switching_at(switch)
    with pytest.raises(DataError) as err:
        run_bandit_vs_environment(2, env, CALM, eta=1.0 / 12, monitor_c=c,
                                  epochs=3 * CHUNK_EPOCHS)
    assert str(err.value) == message


@pytest.mark.parametrize("bad, entry", [
    (["1", "0"], "'1'"),
    ([True, False], "True"),
    ([0.5, None], "None"),
    (np.array([0.5, True], dtype=object), "True"),
])
def test_environment_utilities_must_be_real_numbers(bad, entry):
    # These ran as [1.0, 0.0] (strings and bools) or were reported as not
    # finite (None).
    with pytest.raises(DataError) as err:
        run_bandit_vs_environment(2, lambda t: bad if t == 3 else [0.2, 0.7], CALM,
                                  eta=0.1, monitor_c=np.inf, epochs=5)
    assert str(err.value) == f"epoch t=3: environment utilities must be real numbers, got {entry}"


def test_integer_environment_utilities_run_as_floats():
    runs = [run_bandit_vs_environment(2, lambda t: cast([1, 0] if t % 2 else [0, 1]), CALM,
                                      eta=0.1, monitor_c=np.inf, epochs=70)
            for cast in (np.array, lambda v: np.array(v, dtype=float))]
    assert_same_environment_run(*runs)


def test_exp3_fallback_learns():
    # monitor_c = -inf switches the row in epoch 1; from epoch 2 it plays
    # Exp3 from its first round
    rng = np.random.default_rng(1)
    pipe = BanditPipeline([3], 0.1, [1, 3000], [1.0, 1.0], monitor_c=-np.inf)
    x = pipe.begin_epoch()
    pipe.end_epoch(np.zeros((1, 3), dtype=int), np.zeros((1, 3)))
    pipe.monitor(x, np.zeros((1, 3)), 1)
    assert pipe.switch.switched.tolist() == [True] and pipe.switch.fallback.t.tolist() == [0]
    pipe.begin_epoch()
    u = np.array([0.1, 0.9, 0.2])
    for _ in range(3000):
        p = pipe.round_strategy()[0]
        a = int(rng.choice(3, p=p))
        pipe.observe_round([a], [u[a]])
    assert pipe.round_strategy()[0][1] > 0.8


def test_end_epoch_writes_exact_zero_means_into_its_log_slot():
    # rows of 2, 4 and 3 actions; row 1's real action 2 is never drawn
    pipe = BanditPipeline([2, 4, 3], 0.05, [10], [0.5], monitor_c=np.inf)
    pipe.begin_epoch()
    counts = np.array([[4, 6, 0, 0], [3, 5, 0, 2], [1, 2, 7, 0]])
    sums = np.array([[1.5, 2.25, 0.0, 0.0], [0.5, 4.0, 0.0, 1.75], [0.25, 1.0, 3.5, 0.0]])
    log = np.empty((3, 2, 4))
    log.fill(np.nan)  # stale values a skipped entry would leave
    uhat = pipe.end_epoch(counts, sums, log[:, 0])
    slot = log[:, 0]
    zero = np.array([[False, False, True, True], [False, False, True, False],
                     [False, False, False, True]])
    assert slot[zero].tolist() == [0.0] * 4 and not np.signbit(slot[zero]).any()
    assert np.array_equal(slot, epoch_estimate(counts, sums))
    assert np.isnan(log[:, 1]).all()
    assert np.array_equal(uhat, slot)  # epoch 1 recovers its own estimate


def test_csv_lines():
    traj = quiet_run(epochs=3, seed=0)
    lines = list(_csv_lines(*bandit_csv_columns(traj, audit_truths(traj, small_game()))))
    head = lines[0].split(",")
    assert head == ["t", "B", "eps", "tgap_mixed_avg", "delta_inf_1",
                    "delta_inf_2", "bound", "unsampled_1", "unsampled_2"]
    assert len(lines) == 4
    assert lines[1].startswith("1,1,1,")


# -- joint-count sampling -----------------------------------------------------


def test_epoch_estimate_from_counts_and_sums():
    est = epoch_estimate(np.array([2, 0, 4]), np.array([1.0, 0.0, 1.0]))
    assert est.tolist() == [0.5, 0.0, 0.25]
    ref = estimate_epoch([0, 2, 0, 2, 2, 2], [0.5, 0.0, 0.5, 1.0, 0.0, 0.0], d=3)
    assert np.allclose(ref, est)


def per_round_statistics(game, plays, B, reps, rng):
    """Counts and [0, 1] reward sums of i.i.d. per-round draws, (reps, d_i)
    per player, computed from the payoff matrices."""
    n = game.n
    acts = [rng.choice(len(x), size=(reps, B), p=x) for x in plays]
    counts, sums = [], []
    for i in range(n):
        raw = sum(game.edges[(i, j)][acts[i], acts[j]] for j in game.neighbors(i))
        r = (raw + (n - 1)) / (2.0 * (n - 1))
        hit = acts[i][:, :, None] == np.arange(len(plays[i]))
        counts.append(hit.sum(axis=1))
        sums.append((hit * r[:, :, None]).sum(axis=1))
    return counts, sums


@pytest.mark.parametrize("n, d", [(2, 3), (3, (2, 3, 2))])
@pytest.mark.parametrize("branch", ["table", "chunks"])
def test_joint_sampler_has_the_law_of_per_round_draws(monkeypatch, n, d, branch):
    if branch == "chunks":
        monkeypatch.setattr(bandit, "CELL_CAP", 0)
        monkeypatch.setattr(bandit, "CHUNK_ROUNDS", 16)
    game = generate_game("random_zs", n=n, d=d, seed=5)
    sampler = JointSampler(game)
    assert (sampler.tables is None) == (branch == "chunks")
    rng = np.random.default_rng(12)
    plays = [rng.dirichlet(np.ones(k)) for k in game.action_counts]
    stacked = np.zeros((n, sampler.width))
    for i, x in enumerate(plays):
        stacked[i, : len(x)] = x
    B, reps = 40, 3000
    joint = [[np.empty((reps, k)) for k in game.action_counts] for _ in range(2)]
    for r in range(reps):
        counts, sums = sampler.epoch(rng, stacked, B)
        assert not counts[stacked == 0].any() and not sums[stacked == 0].any()
        for i, k in enumerate(game.action_counts):
            joint[0][i][r], joint[1][i][r] = counts[i, :k], sums[i, :k]
    ref = per_round_statistics(game, plays, B, reps, rng)
    for a_stat, b_stat in zip(joint, ref):
        for a, b in zip(a_stat, b_stat):
            se = np.sqrt((a.var(axis=0, ddof=1) + b.var(axis=0, ddof=1)) / reps)
            assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 4 * se + 1e-12)
    for i, x in enumerate(plays):  # and both match the exact mean count B x_i
        assert np.all(np.abs(joint[0][i].mean(axis=0) - B * x)
                      <= 4 * np.sqrt(B * x * (1 - x) / reps) + 1e-12)


@pytest.mark.parametrize("kind", ["self-play", "forced-switch", "chunks",
                                  "forced-switch-chunks"])
def test_epoch_counts_sum_to_epoch_length(monkeypatch, kind):
    kw = {"epochs": 5, "seed": 3}
    if kind.startswith("forced-switch"):
        kw.update(schedule=EpochSchedule.custom(coeff=30, power=0.0, eps_coeff=0.5,
                                                eps_power=0.0), monitor_c=-1e9)
    if kind.endswith("chunks"):  # with the switch: per-round rewards without tables
        monkeypatch.setattr(bandit, "CELL_CAP", 0)
        monkeypatch.setattr(bandit, "CHUNK_ROUNDS", 50)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the forced-switch schedule is uncertified
        traj = quiet_run(**kw)
    assert traj.num_epochs == 5
    for i in range(traj.n):
        assert np.array_equal(traj.counts[i].sum(axis=1), traj.B)
        assert np.array_equal((traj.counts[i] == 0).sum(axis=1), traj.unsampled[:, i])


def test_round_rewards_without_tables_equal_the_table_lookup(monkeypatch):
    game = generate_game("random_zs", n=3, d=(2, 4, 3), seed=4)
    with_tables = JointSampler(game)
    monkeypatch.setattr(bandit, "CELL_CAP", 0)
    without = JointSampler(game)
    assert with_tables.tables is not None and without.tables is None
    for a in itertools.product(*map(range, game.action_counts)):
        assert without._round_rewards(a) == with_tables._round_rewards(a)


def test_theory_run_memory_does_not_grow_with_epoch_length():
    # the last epoch has B_32 = 32^4 > 10^6 rounds; per-round sampling held
    # 16 bytes per round and player there
    tracemalloc.start()
    try:
        traj = quiet_run(epochs=32, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.B[-1] >= 10**6
    assert peak < 4 * 2**20


def test_large_game_runs_through_chunks():
    game = generate_game("random_zs", n=5, d=10, seed=2)
    assert JointSampler(game).tables is None  # 10^5 joint cells
    traj = run_bandit(game, EpochSchedule(), epochs=5, seed=0)
    for i in range(5):
        assert np.array_equal(traj.counts[i].sum(axis=1), traj.B)
    assert np.all(np.isfinite(traj.tgap_mixed))


def no_draws(monkeypatch):
    """Make every way of drawing an epoch fail the test."""
    def fail(*args):
        pytest.fail("an epoch was drawn")
    monkeypatch.setattr(JointSampler, "epoch", fail)
    monkeypatch.setattr(bandit, "_play_rounds", fail)


@pytest.mark.parametrize("cap", [bandit.CELL_CAP, 0])
def test_out_of_range_rewards_raise(monkeypatch, cap):
    # The sampler refuses the game when it is built, before any draw.
    monkeypatch.setattr(bandit, "CELL_CAP", cap)
    no_draws(monkeypatch)
    big = np.array([[3.0, 0.0], [0.0, 0.0]])
    game = PolymatrixGame((2, 2), {(0, 1): big, (1, 0): -big.T}, zero_sum=True)
    message = r"^player 0: rewards outside \[0, 1\] after normalization: \[0\.5, 2\.0\]$"
    with pytest.raises(DataError, match=message):
        JointSampler(game)
    with pytest.raises(DataError, match=message):
        run_bandit(game, EpochSchedule(), epochs=6, seed=0)


@pytest.mark.parametrize("cap", [bandit.CELL_CAP, 0])
def test_reward_out_of_range_at_one_cell_fails_before_any_draw(monkeypatch, cap):
    # Only player 1 is paid outside [0, 1], at the action pair (1, 1), which
    # a run with a switched monitor and one-round epochs meets only in a
    # later, per-round epoch.  The sampler refuses the game when built.
    monkeypatch.setattr(bandit, "CELL_CAP", cap)
    no_draws(monkeypatch)
    big = np.array([[0.0, 0.0], [0.0, 3.0]])
    game = PolymatrixGame((2, 2), {(0, 1): np.zeros((2, 2)), (1, 0): big}, zero_sum=False)
    sched = EpochSchedule.custom(coeff=1, power=0.0, eps_coeff=0.5, eps_power=0.0)
    with pytest.warns(UserWarning), pytest.raises(
            DataError, match=r"^player 1: rewards outside \[0, 1\] after normalization: "
                             r"\[0\.5, 2\.0\]$"):
        run_bandit(game, sched, epochs=20, seed=0, monitor_c=-1e9)


def test_a_one_player_game_is_refused_before_any_draw():
    # The reward map r -> (r + (n-1)) / (2(n-1)) divides by zero at n = 1.
    game = PolymatrixGame((3,), {})
    for build in (bandit.check_reward_range, JointSampler,
                  lambda g: run_bandit(g, EpochSchedule(), epochs=2)):
        with pytest.raises(DataError, match=r"^bandit rewards need at least two players, got 1$"):
            build(game)


def test_a_bandit_sweep_whose_monitor_switches_fails_its_audit_checks(monkeypatch):
    # After a switch the audits read NaN.  A fold that kept its running
    # minimum over a NaN read +inf slacks here, which passed.
    from a2l import verify

    sched = EpochSchedule.custom(coeff=250, power=0.0, eps_coeff=0.5, eps_power=0.0)
    monkeypatch.setattr(verify, "SEEDS", (0,))
    monkeypatch.setattr(verify, "BANDIT_EPOCHS", 8)
    monkeypatch.setattr(verify.bd, "run_bandit",
                        lambda game, _, **kw: run_bandit(game, sched, monitor_c=-1e9, **kw))
    with pytest.warns(UserWarning):  # the custom schedule is uncertified
        stats = verify._bandit_sweep.__wrapped__()
    assert stats["switches"] == [1, 1]
    for name in ("min_recovery_slack", "min_regret_slack"):
        assert not verify.Check(name, stats[name], ">=", -verify.TOL_AUDIT).passed


def test_reward_range_equals_the_reward_tables():
    # Random general-sum games, complete and sparse graphs, mixed counts;
    # gnp at p = 0.3 leaves some players without neighbours.
    isolated = 0
    for seed in range(24):
        n = 2 + seed % 3
        counts = tuple(2 + (seed + k) % 3 for k in range(n))
        graph = "gnp" if seed % 2 else "complete"
        game = generate_game("random_general", n=n, d=counts, graph=graph, p=0.3, seed=seed)
        isolated += sum(not game.neighbors(i) for i in range(n))
        ranges = bandit.check_reward_range(game)
        tables = JointSampler(game).tables
        assert ranges == [(R.min(), R.max()) for R in tables]
    assert isolated > 0


@pytest.mark.parametrize("kw, name", [
    ({"epochs": 0}, "epochs"),
    ({"epochs": -1}, "epochs"),
    ({"delta": 0.0}, "delta"),
    ({"delta": 1.0}, "delta"),
    ({"delta": np.nan}, "delta"),
])
def test_bad_run_arguments_are_refused_by_name(kw, name):
    with pytest.raises(ValueError, match=f"^{name} "):
        quiet_run(**kw)
    with pytest.raises(ValueError, match=f"^{name} "):
        run_bandit_vs_environment(2, lambda t: np.array([0.2, 0.7]), EpochSchedule(),
                                  eta=0.1, **kw)


def environment_run(**kw):
    return run_bandit_vs_environment(kw.pop("d", 2), lambda t: np.array([0.2, 0.7]),
                                     EpochSchedule(), **{"eta": 0.1, **kw})


@pytest.mark.parametrize("run, kw, name", [
    (quiet_run, {"eta": np.inf}, "eta"),
    (quiet_run, {"eta": np.nan}, "eta"),
    (environment_run, {"eta": np.inf}, "eta"),
    (environment_run, {"eta": None}, "eta"),  # no player count to resolve it from
    (environment_run, {"d": 0}, "d"),
    (environment_run, {"d": 2.0}, "d"),
], ids=["run_bandit-eta-inf", "run_bandit-eta-nan", "environment-eta-inf",
        "environment-eta-None", "environment-d-0", "environment-d-float"])
def test_bad_eta_and_d_are_refused_by_name(run, kw, name):
    # These failed at the first draw (numpy's "pvals < 0, pvals > 1 or pvals
    # contains NaNs"), in a reduction over zero actions, or with a TypeError.
    with pytest.raises(ValueError, match=f"^{name} must be "):
        run(**kw)


def test_a_nan_monitor_c_is_refused_by_both_runs():
    # nan switched the monitor off: regret > nan is always False.
    env = lambda t: np.array([0.2, 0.7])  # noqa: E731
    with pytest.raises(ValueError, match="^monitor_c must be a number, got nan"):
        quiet_run(monitor_c=np.nan)
    with pytest.raises(ValueError, match="^monitor_c must be a number, got nan"):
        run_bandit_vs_environment(2, env, EpochSchedule(), eta=0.1, monitor_c=np.nan)
    for c in (np.inf, -np.inf, -1e9):
        quiet_run(monitor_c=c, epochs=2)
        run_bandit_vs_environment(2, env, EpochSchedule(), eta=0.1, monitor_c=c, epochs=2)


def test_epoch_length_beyond_int64_names_the_epoch():
    sched = EpochSchedule.custom(coeff=1, power=30)
    assert sched.epoch_length(4, 2) == 4**30
    with pytest.raises(ScheduleError, match="t=5"):
        sched.epoch_length(5, 2)
    with pytest.raises(ScheduleError, match="t=3"):
        EpochSchedule.custom(coeff=1, power=1000.0).epoch_length(3, 2)
    with pytest.warns(UserWarning), pytest.raises(ScheduleError, match="t=5"):
        run_bandit(small_game(), sched, epochs=6)


def test_round_end_counts_rounds_past_int64():
    # T_3 = 1.2e19 passes 2^63 - 1: an int64 cumulative sum of B_t wraps
    # negative there, the logged count stays exact
    sched = EpochSchedule.custom(coeff=4e18, power=0.0)
    with pytest.warns(UserWarning):
        traj = run_bandit(small_game(), sched, epochs=3, seed=0, monitor_c=np.inf)
    assert traj.round_end.dtype == np.float64
    assert traj.round_end.tolist() == [4e18, 8e18, 12e18]


def test_post_switch_epoch_beyond_the_cap_names_the_epoch():
    # The monitor fires in epoch 1; epoch 2 has 2^30 rounds, which the
    # round-by-round fallback path must refuse rather than start.
    sched = EpochSchedule.custom(coeff=1, power=30)
    assert sched.epoch_length(2, 2) > bandit.ROUND_EPOCH_CAP >= 250
    with pytest.warns(UserWarning), pytest.raises(bandit.FallbackEpochError, match="t=2") as err:
        run_bandit(small_game(), sched, epochs=3, seed=0, monitor_c=-1e9)
    assert err.value.epoch == 2


# -- the per-player reference ---------------------------------------------------
#
# The bandit pipeline as it ran before its players were stacked: one
# ReferencePlayer per player, each with its own A2L(OMWU(d_i)), scalar
# monitor sums and Exp3 learner, a per-player epoch loop, and one
# rng.choice per player and round after a switch.


class ReferenceExp3:
    """The per-player Exp3 fallback, eta = sqrt(log d / (d t)), with numpy's
    log and sqrt every round and a zeros temporary per update."""

    def __init__(self, d):
        self.d = d
        self.cum = np.zeros(d)
        self.t = 0
        self._p = None

    def next_strategy(self):
        eta = np.sqrt(np.log(max(self.d, 2)) / (self.d * (self.t + 1)))
        self._p = softmax(eta * self.cum)
        return self._p

    def observe_reward(self, action, reward01):
        est = np.zeros(self.d)
        est[action] = reward01 / self._p[action]
        self.cum += est
        self.t += 1


class ReferencePlayer:
    """One player's epoch pipeline: reduction, IW monitor, Exp3 fallback."""

    def __init__(self, d, eta, delta, monitor_c):
        self.d = d
        self.learner = A2L(OMWU(d, eta))
        self.delta = delta
        self.monitor_c = monitor_c
        self.t = 0
        self.rounds = 0
        self.spread = 0.0
        self.cum_iw = np.zeros(d)
        self.earned_iw = 0.0
        self.reg_est = 0.0
        self.radius = None
        self.threshold = None
        self.play = None
        self.inner = None
        self.fallback = None
        self.switch_epoch = None

    @property
    def switched(self):
        return self.fallback is not None

    def begin_epoch(self, B, eps):
        self.t += 1
        self.rounds += B
        self.spread += B * (self.d / eps) ** 2
        self.radius = 4.0 * math.sqrt(self.spread) * np.log(
            np.pi**2 * self.d * self.t * self.t / (3.0 * self.delta))
        self.threshold = self.monitor_c * self.rounds ** 0.8
        if self.fallback is None:
            self.inner = np.empty(self.d)
            avg = self.learner.next_strategy(inner=self.inner)
            self.play = (1.0 - eps) * avg + eps / avg.size
        else:
            self.play = self.fallback.next_strategy().copy()
        return self.play

    def round_strategy(self):
        return self.play if self.fallback is None else self.fallback.next_strategy()

    def observe_round(self, action, reward01):
        if self.fallback is not None:
            self.fallback.observe_reward(action, reward01)

    def end_epoch(self, counts, sums):
        uhat = self.learner.observe(reference_means(counts, sums))
        iw = sums / self.play
        self.cum_iw += iw
        self.earned_iw += float(iw @ self.play)
        self.reg_est = self.cum_iw.max() - self.earned_iw
        if self.reg_est > self.threshold + self.radius:
            self.fallback = ReferenceExp3(self.d)
            self.switch_epoch = self.t
        return uhat


def reference_means(counts, sums):
    """Per-action means by a masked divide, 0 where no action was drawn."""
    return np.divide(sums, counts, out=np.zeros(len(sums)), where=counts > 0)


def reference_epoch(sampler, rng, plays, B):
    """A pre-switch epoch from the joint counts: each player's counts and
    reward sums."""
    assert sampler.tables is not None
    N = rng.multinomial(B, functools.reduce(np.multiply.outer, plays).ravel())
    N = N.reshape(sampler.dims)
    n = len(sampler.dims)
    stats = []
    for i in range(n):
        others = tuple(k for k in range(n) if k != i)
        stats.append((N.sum(axis=others), (N * sampler.tables[i]).sum(axis=others)))
    return stats


def reference_play_rounds(rng, sampler, players, B):
    """A post-switch epoch with one ``rng.choice`` per player and round."""
    dims = sampler.dims
    counts = [np.zeros(d, dtype=np.int64) for d in dims]
    sums = [np.zeros(d) for d in dims]
    for _ in range(B):
        a = [int(rng.choice(d, p=p.round_strategy())) for d, p in zip(dims, players)]
        for i, (p, r) in enumerate(zip(players, sampler._round_rewards(a))):
            counts[i][a[i]] += 1
            sums[i][a[i]] += r
            p.observe_round(a[i], r)
    return list(zip(counts, sums))


def reference_run(game=None, schedule=EpochSchedule(), eta=None, seed=0,
                  delta=0.05, epochs=12, monitor_c=4.0):
    """``run_bandit`` with one ReferencePlayer per player."""
    game = small_game() if game is None else game
    n = game.n
    eta = bandit_step_size(n) if eta is None else eta
    rng = np.random.default_rng(seed)
    sampler = JointSampler(game)
    dims = game.action_counts
    players = [ReferencePlayer(d, eta, delta, monitor_c) for d in dims]
    ts = range(1, epochs + 1)
    B_arr = np.array([schedule.epoch_length(t, game.dimensionality) for t in ts],
                     dtype=np.int64)
    eps_arr = np.array([schedule.mixing(t) for t in ts])
    mixed, inner, estimates, recovered = ([np.empty((epochs, d)) for d in dims]
                                          for _ in range(4))
    counts = [np.empty((epochs, d), dtype=int) for d in dims]
    unsampled = np.zeros((epochs, n), dtype=int)
    reg_est = np.full((epochs, n), np.nan)
    radius = np.full((epochs, n), np.nan)
    for idx in range(epochs):
        B, eps = int(B_arr[idx]), float(eps_arr[idx])
        plays = [p.begin_epoch(B, eps) for p in players]
        for i in range(n):
            mixed[i][idx] = plays[i]
        if not any(p.switched for p in players):
            stats = reference_epoch(sampler, rng, plays, B)
        else:
            stats = reference_play_rounds(rng, sampler, players, B)
        for i, (p, (c, s)) in enumerate(zip(players, stats)):
            estimates[i][idx] = reference_means(c, s)
            counts[i][idx] = c
            unsampled[idx, i] = int((c == 0).sum())
            if p.switched:
                recovered[i][idx] = inner[i][idx] = np.nan
                continue
            inner[i][idx] = p.inner
            recovered[i][idx] = p.end_epoch(c, s)
            reg_est[idx, i] = p.reg_est
            radius[idx, i] = p.radius
    meta = {
        "game": game.to_dict(), "game_name": game.name, "schedule": dataclasses.asdict(schedule),
        "eta": eta, "seed": seed, "delta": delta, "epochs": epochs,
        "certified": schedule.mode != "custom" and eta <= bandit_step_size(n) + 1e-12,
        "monitor_c": monitor_c, "prng": "numpy-PCG64",
    }
    return BanditTrajectory(
        meta, np.array(ts), B_arr, eps_arr,
        np.array(list(itertools.accumulate(B_arr.tolist())), dtype=float), game.total_gap(mixed),
        mixed, inner, estimates, recovered, counts, unsampled, reg_est, radius,
        [p.switch_epoch for p in players],
    )


def assert_same_trajectory(a, b):
    for field in dataclasses.fields(BanditTrajectory):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if field.name in ("meta", "switch_epoch"):
            assert x == y, field.name
            continue
        if isinstance(x, np.ndarray):
            x, y = [x], [y]
        assert len(x) == len(y), field.name
        for u, v in zip(x, y):
            assert u.dtype == v.dtype, field.name
            assert np.array_equal(u, v, equal_nan=True), field.name


# name -> (run_bandit arguments, switch epochs)
SWITCHING_RUNS = {
    "forced in epoch 1": (dict(
        schedule=EpochSchedule.custom(coeff=30, power=0.0, eps_coeff=0.5, eps_power=0.0),
        epochs=5, seed=0, monitor_c=-1e9), [1, 1]),
    "mid-run": (dict(
        schedule=EpochSchedule.custom(coeff=200, power=1.0, eps_coeff=0.5, eps_power=0.0),
        epochs=14, seed=0, monitor_c=-15.0), [9, 7]),
    "(2, 4, 3) actions": (dict(
        game=generate_game("random_zs", n=3, d=(2, 4, 3), seed=4),
        schedule=EpochSchedule.custom(coeff=100, power=1.0, eps_coeff=0.5, eps_power=0.0),
        epochs=8, seed=0, monitor_c=-30.0), [1, 6, 2]),
}


@pytest.mark.parametrize("name", list(SWITCHING_RUNS))
def test_switching_runs_equal_the_per_round_choice_loop(name):
    kw, switch_epochs = SWITCHING_RUNS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the custom schedules are uncertified
        want = reference_run(**kw)
        got = quiet_run(**kw)
    assert got.switch_epoch == switch_epochs
    assert_same_trajectory(got, want)


def test_anytime_mwu_is_the_per_player_exp3_row_by_row():
    # One AnytimeMWU over padded rows of 2, 4 and 3 actions with scale d_i,
    # fed one importance-weighted vector per round and restarted row by row
    # mid-run, plays each row's ReferenceExp3 bit for bit.
    dims = (2, 4, 3)
    col = np.array(dims)[:, None]
    stacked = AnytimeMWU((3, 4), scale=col.astype(float), counts=col)
    refs = [ReferenceExp3(d) for d in dims]
    rng = np.random.default_rng(5)
    restarts = {150: 0, 400: 1}  # round -> row
    for k in range(600):
        if k in restarts:
            row = restarts[k]
            stacked.restart(np.arange(len(dims)) == row)
            refs[row] = ReferenceExp3(dims[row])
        p = stacked.next_strategy()
        iw = np.zeros(p.shape)
        for i, (d, ref) in enumerate(zip(dims, refs)):
            q = ref.next_strategy()
            assert np.array_equal(p[i, :d], q) and not p[i, d:].any()
            a, r = int(rng.choice(d, p=q)), float(rng.random())
            iw[i, a] = r / p[i, a]
            ref.observe_reward(a, r)
        stacked.observe(iw)
    assert stacked.t.tolist() == [450, 200, 600]


# -- the stacked pipeline against the per-player reference ---------------------


def random_game(counts, seed):
    """A pairwise zero-sum game on the complete graph with payoffs uniform
    in [-1, 1]; unlike ``generate_game`` it allows one-action players."""
    rng = np.random.default_rng(seed)
    edges = {}
    for i, j in itertools.combinations(range(len(counts)), 2):
        a = rng.uniform(-1.0, 1.0, size=(counts[i], counts[j]))
        edges[(i, j)], edges[(j, i)] = a, -a.T
    return PolymatrixGame(tuple(counts), edges, zero_sum=True)


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(1, 7), min_size=2, max_size=4),
    game_seed=st.integers(0, 2**16),
    coeff=st.floats(1.0, 40.0),
    power=st.floats(0.0, 1.5),
    eps_coeff=st.floats(0.05, 1.0),
    eps_power=st.floats(-1.0, 0.0),
    monitor_c=st.one_of(st.sampled_from([np.inf, 4.0, -1e9]),
                        st.floats(1.0, 3.0).map(lambda e: -(10**e))),
    epochs=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_stacked_pipeline_equals_the_per_player_reference(counts, game_seed, coeff, power,
                                                          eps_coeff, eps_power, monitor_c,
                                                          epochs, seed):
    kw = dict(game=random_game(counts, game_seed), epochs=epochs, seed=seed,
              schedule=EpochSchedule.custom(coeff, power, eps_coeff, eps_power),
              monitor_c=monitor_c)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = reference_run(**kw)
        got = quiet_run(**kw)
    assert_same_trajectory(got, want)


@pytest.mark.parametrize("monitor_c", [np.inf, -50.0])
def test_wide_padded_rows_stay_within_rounding_of_the_reference(monitor_c):
    # With d_max >= 8, numpy sums a row's trailing axis in eight interleaved
    # partial sums, so a row padded with zeros adds its entries in another
    # order than the player's own (d_i,) array: softmax normalizers and IW
    # values may differ in the last bits.  Counts and switch epochs stay
    # equal, and every float within 1e-12.
    kw = dict(game=random_game((9, 3, 5), 2), epochs=10, seed=0, monitor_c=monitor_c,
              schedule=EpochSchedule.custom(coeff=60, power=1.0, eps_coeff=0.5, eps_power=0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = reference_run(**kw)
        got = quiet_run(**kw)
    assert got.switch_epoch == want.switch_epoch
    assert (monitor_c < 0) == any(got.switch_epoch)

    def pairs(name):
        x, y = getattr(got, name), getattr(want, name)
        return zip(x, y) if isinstance(x, list) else [(x, y)]

    for name in ("counts", "unsampled"):
        assert all(np.array_equal(u, v) for u, v in pairs(name)), name
    for name in ("mixed", "inner", "estimates", "recovered", "reg_est", "radius",
                 "tgap_mixed"):
        for u, v in pairs(name):
            np.testing.assert_allclose(u, v, rtol=1e-12, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("n", [2, 4])
def test_one_pre_switch_epoch_is_one_stacked_reduction_step(monkeypatch, n):
    # no Python loop over players: one epoch of n players makes one
    # A2L.next_strategy call and one A2L.observe call
    calls = collections.Counter()
    for name in ("next_strategy", "observe"):
        def spy(self, *args, _name=name, _method=getattr(A2L, name), **kw):
            calls[_name] += 1
            return _method(self, *args, **kw)
        monkeypatch.setattr(A2L, name, spy)
    traj = run_bandit(generate_game("random_zs", n=n, d=3, seed=1), EpochSchedule(),
                      epochs=1, seed=0, monitor_c=np.inf)
    assert traj.n == n
    assert calls == {"next_strategy": 1, "observe": 1}


# -- the per-round path after a monitor switch ---------------------------------


@pytest.mark.parametrize("chunk", [1, 7, 30])
def test_chunked_draws_cross_chunk_boundaries_like_choice(monkeypatch, chunk):
    # 30-round post-switch epochs in chunks of 1, 7 (a partial last chunk)
    # and 30 rounds: every post-switch epoch, and so the stream each one
    # leaves to the next, matches per-round choice
    kw, _ = SWITCHING_RUNS["forced in epoch 1"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = reference_run(**kw)
        monkeypatch.setattr(bandit, "CHUNK_ROUNDS", chunk)
        got = quiet_run(**kw)
    assert got.B.tolist() == [30] * 5
    assert_same_trajectory(got, want)


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=8)
    .filter(lambda w: sum(w) > 0),
    seed=st.integers(0, 2**32 - 1),
)
def test_draw_picks_the_action_generator_choice_picks(weights, seed):
    p = np.array(weights) / np.sum(weights)
    want = np.random.default_rng(seed).choice(len(p), p=p, size=16)
    u = np.random.default_rng(seed).random(16)
    assert [bandit._draw_action(p, x) for x in u.tolist()] == want.tolist()
    # ties, which random doubles in [0, 1) almost never hit: u = 0 and u on
    # a cumulative sum land right of it, so a zero-probability action is
    # never drawn
    cdf = p.cumsum()
    cdf /= cdf[-1]
    for x in [0.0, *(c for c in cdf.tolist() if c < 1.0)]:
        a = bandit._draw_action(p, x)
        assert a == cdf.searchsorted(x, side="right") and p[a] > 0


@pytest.mark.parametrize("p", [[0.5, np.nan, 0.5], [1.2, -0.2], [0.5, 0.4],
                               [np.inf, 0.0]])
def test_draw_refuses_what_generator_choice_refuses(p):
    p = np.array(p)
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(len(p), p=p)
    with pytest.raises(ValueError, match="not a probability vector"):
        bandit._draw_action(p, 0.5)


def test_post_switch_epoch_memory_scales_with_the_chunk(monkeypatch):
    # One post-switch epoch of 8 x 256 rounds in chunks of 256.  Its peak
    # holds at most two chunks of uniforms (a chunk's last row keeps it
    # alive while the next is drawn) plus per-round temporaries; drawing
    # the whole epoch at once would hold 8 chunks.
    monkeypatch.setattr(bandit, "CHUNK_ROUNDS", 256)
    play_rounds = bandit._play_rounds
    peaks = []

    def measured(*args):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = play_rounds(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return out

    monkeypatch.setattr(bandit, "_play_rounds", measured)
    game = small_game()
    sched = EpochSchedule.custom(coeff=8 * 256, power=0.0, eps_coeff=0.5, eps_power=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tracemalloc.start()
        try:
            traj = run_bandit(game, sched, epochs=2, seed=0, monitor_c=-1e9)
        finally:
            tracemalloc.stop()
    assert traj.switch_epoch == [1, 1] and len(peaks) == 1
    chunk_bytes = 256 * game.n * 8
    assert peaks[0] < 2 * chunk_bytes + 12 * 2**10
