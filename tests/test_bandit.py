import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2l.bandit import (
    BanditPlayer,
    DataError,
    EpochEstimate,
    EpochSchedule,
    Exp3Fallback,
    ScheduleError,
    bandit_csv_lines,
    bandit_step_size,
    estimate_epoch,
    estimation_error_audit,
    iw_radius,
    mix_uniform,
    recovery_error_audit,
    regret_error_bound_audit,
    run_bandit,
    run_bandit_vs_environment,
)
from a2l.games import PolymatrixGame, generate_game
from a2l.learners import OMWU
from a2l.reduction import A2L


def small_game():
    return generate_game("random_zs", n=2, d=3, seed=11)


def quiet_run(**kw):
    game = kw.pop("game", small_game())
    sched = kw.pop("schedule", EpochSchedule.theory())
    return run_bandit(game, sched, **kw)


# -- schedules ---------------------------------------------------------------


def test_theory_schedule_values():
    s = EpochSchedule.theory()
    assert [s.epoch_length(t, 3) for t in (1, 2, 3)] == [1, 16, 81]
    assert [s.mixing(t) for t in (1, 2, 4)] == [1.0, 0.5, 0.25]
    assert s.certified


def test_theory_d_schedule_scales_by_dimension():
    s = EpochSchedule.theory_d()
    assert s.epoch_length(2, 5) == 80
    assert s.mixing(2) == 0.5


def test_custom_schedule():
    s = EpochSchedule.custom(coeff=3, power=2, eps_coeff=0.4, eps_power=0.0)
    assert not s.certified
    assert s.epoch_length(4, 10) == 48
    assert s.mixing(4) == 0.4
    with pytest.raises(ScheduleError):
        EpochSchedule(mode="nope")
    with pytest.raises(ScheduleError):
        EpochSchedule.custom(coeff=0.0, power=1)


# -- estimator pieces ---------------------------------------------------------


def test_mix_uniform():
    assert np.allclose(mix_uniform([1.0, 0.0], 1.0), [0.5, 0.5])
    assert np.allclose(mix_uniform([0.3, 0.7], 0.0), [0.3, 0.7])
    assert np.allclose(mix_uniform([1.0, 0.0], 0.5), [0.75, 0.25])
    x = mix_uniform([0.9, 0.05, 0.05], 0.3)
    assert x.min() >= 0.1 - 1e-15  # every coordinate >= eps/d
    with pytest.raises(ValueError):
        mix_uniform([1.0, 0.0], 1.5)


def test_estimate_epoch_constant_rewards():
    est = estimate_epoch([1] * 5, [0.7] * 5, d=3)
    assert est.estimate[1] == pytest.approx(0.7)
    assert est.counts.tolist() == [0, 5, 0]
    assert est.unsampled.tolist() == [True, False, True]
    assert est.estimate[0] == 0.0 and est.estimate[2] == 0.0


def test_estimate_epoch_mean():
    est = estimate_epoch([0, 0, 0, 0], [1.0, 0.0, 1.0, 1.0], d=2)
    assert est.estimate[0] == pytest.approx(0.75)
    assert est.counts.sum() == 4


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
    assert np.allclose(wrapper.observe(cur.estimate), cur.estimate)
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
    a = quiet_run(epochs=6, seed=3, record_actions=True)
    b = quiet_run(epochs=6, seed=3, record_actions=True)
    for i in range(2):
        assert np.array_equal(a.estimates[i], b.estimates[i])
        assert np.array_equal(a.mixed[i], b.mixed[i])
        for e in range(6):
            assert np.array_equal(a.actions[i][e], b.actions[i][e])
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
        traj = run_bandit(game, EpochSchedule.theory(), eta=1.0, epochs=2)
    assert not traj.meta["certified"]


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
    traj = run_bandit(game, EpochSchedule.theory(), epochs=4, seed=0)
    assert np.abs(traj.delta_inf).max() == 0.0
    assert np.allclose(traj.tgap_mixed, 0.0)


def test_zero_variance_game_estimates_exactly_when_sampled():
    half = np.full((3, 3), 0.5)
    game = PolymatrixGame((3, 3), {(0, 1): half, (1, 0): -half}, zero_sum=True)
    traj = run_bandit(game, EpochSchedule.theory(), epochs=5, seed=0)
    for k in range(5):
        if traj.unsampled[k].sum() == 0:
            assert traj.delta_inf[k].max() == 0.0


def test_audit_inequalities_hold():
    traj = quiet_run(epochs=10, seed=5)
    rec = recovery_error_audit(traj)
    assert rec["slack_first_order"].min() >= -1e-6
    assert rec["slack_second_order"].min() >= -1e-6
    reg = regret_error_bound_audit(traj)
    assert reg["slack"].min() >= -1e-6
    audit = estimation_error_audit(traj)
    assert audit["violated"].shape == (10, 2)


def test_audit_requires_audit_mode():
    traj = quiet_run(epochs=2, seed=0, audit=False)
    with pytest.raises(ValueError):
        recovery_error_audit(traj)


def test_monitor_columns_logged():
    traj = quiet_run(epochs=4, seed=0)
    assert traj.reg_est.shape == (4, 2)
    assert np.all(np.isfinite(traj.radius))
    assert traj.switch_epoch == [None, None]


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
    """Feed a player epoch estimates whose IW vectors are iw_hist."""
    player = BanditPlayer(2, bandit_step_size(2), delta=0.05)
    for B, eps, iw in zip(B_hist, eps_hist, iw_hist):
        x = player.begin_epoch(B, eps)
        counts = np.full(2, B // 2)
        sums = np.asarray(iw) * x
        player.end_epoch(EpochEstimate(sums, counts, sums / counts, counts == 0))
    return player


def test_iw_regret_monitor_switch_rule():
    # synthetic epoch data with an inflated estimate fires the rule
    B_hist = [10, 10, 10]
    eps_hist = [1.0, 0.5, 1 / 3]
    calm = np.tile([5.0, 5.0], (3, 1))
    player = run_monitor(calm, B_hist, eps_hist)
    assert np.allclose(player.play, [0.5, 0.5])
    assert not player.switched and player.switch_epoch is None
    spiked = calm.copy()
    spiked[2, 0] = 1e9
    player = run_monitor(spiked, B_hist, eps_hist)
    assert player.switched and player.switch_epoch == 3


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
    player = BanditPlayer(d, 0.1, delta=0.05, monitor_c=np.inf)
    B_hist, eps_hist = [], []
    for t in range(1, epochs + 1):
        B_hist.append(sched.epoch_length(t, d))
        eps_hist.append(sched.mixing(t))
        player.begin_epoch(B_hist[-1], eps_hist[-1])
        zero = np.zeros(d)
        player.end_epoch(EpochEstimate(zero, np.ones(d, dtype=int), zero, zero > 0))
        ref = iw_radius(B_hist, eps_hist, d, t, 0.05)
        assert player.radius == pytest.approx(ref, rel=1e-12)
        assert player.rounds == sum(B_hist)


def test_environment_run_validates_range():
    sched = EpochSchedule.custom(coeff=10, power=0.0, eps_coeff=0.5, eps_power=0.0)
    with pytest.raises(DataError):
        run_bandit_vs_environment(2, lambda t: np.array([2.0, 0.0]), sched,
                                  eta=0.1, epochs=2)


def test_exp3_fallback_learns():
    rng = np.random.default_rng(1)
    lrn = Exp3Fallback(3)
    u = np.array([0.1, 0.9, 0.2])
    for _ in range(3000):
        p = lrn.next_strategy()
        a = int(rng.choice(3, p=p))
        lrn.observe_reward(a, u[a])
    assert lrn.next_strategy()[1] > 0.8


def test_csv_lines():
    traj = quiet_run(epochs=3, seed=0)
    lines = list(bandit_csv_lines(traj))
    head = lines[0].split(",")
    assert head == ["t", "B", "eps", "tgap_mixed_avg", "delta_inf_1",
                    "delta_inf_2", "bound", "unsampled_1", "unsampled_2"]
    assert len(lines) == 4
    assert lines[1].startswith("1,1,1,")


def test_round_gaps_expand_epochs():
    traj = quiet_run(epochs=3, seed=0)
    gaps = traj.round_gaps()
    assert len(gaps) == traj.round_end[-1]
    assert gaps[0] == traj.tgap_mixed[0]
    assert np.all(gaps[1:17] == traj.tgap_mixed[1])  # epoch 2 spans rounds 2..17
