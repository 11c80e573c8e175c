import pickle

import numpy as np
import pytest

import a2l.dynamics as dyn
from a2l.dynamics import (
    GuardedA2LOMWU,
    LearnerSpec,
    SimulationError,
    average_profile_gaps,
    build_learner,
    gradient_step_size,
    inner_regret_report,
    monitor_threshold,
    regret_report,
    run_full_feedback,
    run_full_feedback_batch,
    trajectory_csv_lines,
)
from a2l import verify
from a2l.games import DimensionMismatchError, PolymatrixGame, generate_game, uniform_strategy


def bait_feedback(t):
    """Alternating feedback that punishes average-playing learners."""
    return np.array([1.0, 0.0]) if t % 2 == 1 else np.array([0.475, 0.525])


def play_against(learner, feedback, T):
    """Drive one learner for T rounds of feedback(t), t = 1..T; returns its
    strategies and utilities as (T, d) arrays."""
    xs, us = [], []
    for t in range(1, T + 1):
        xs.append(learner.next_strategy())
        us.append(feedback(t))
        learner.observe(us[-1])
    return np.array(xs), np.array(us)


def test_single_player_game_stays_uniform():
    game = PolymatrixGame((3,), {})
    traj = run_full_feedback(game, LearnerSpec(algo="omwu", eta=0.5), 20)
    assert np.array_equal(traj.utils[0], np.zeros((20, 3)))
    assert np.allclose(traj.played[0], np.tile(uniform_strategy(3), (20, 1)))
    assert np.allclose(traj.tgap_played, 0.0)


def test_runs_are_bit_reproducible():
    game = generate_game("random_zs", n=3, d=4, seed=6)
    a = run_full_feedback(game, LearnerSpec(algo="a2l-omwu"), 300, seed=1)
    b = run_full_feedback(game, LearnerSpec(algo="a2l-omwu"), 300, seed=1)
    for i in range(3):
        assert np.array_equal(a.played[i], b.played[i])
        assert np.array_equal(a.inner_utils[i], b.inner_utils[i])
    assert np.array_equal(a.tgap_played, b.tgap_played)


def test_meta_reproduces_run():
    game = generate_game("random_zs", n=2, d=3, seed=4)
    traj = run_full_feedback(game, LearnerSpec(algo="a2l-mwu", eta=0.2), 50, seed=9)
    game2 = PolymatrixGame.from_dict(traj.meta["game"])
    specs = [LearnerSpec(**s) for s in traj.meta["specs"]]
    traj2 = run_full_feedback(game2, specs, traj.meta["T"], seed=traj.meta["seed"])
    assert np.array_equal(traj.played[0], traj2.played[0])


def test_gap_columns_are_nonnegative_and_consistent():
    game = generate_game("random_zs", n=3, d=5, seed=2)
    traj = run_full_feedback(game, LearnerSpec(algo="a2l-omwu"), 400)
    assert traj.tgap_played.min() >= -1e-12
    assert traj.tgap_inner_avg.min() >= -1e-12
    assert np.allclose(traj.tgap_played, traj.instant_regret.sum(axis=1))


def test_average_profile_gap_matches_direct_evaluation():
    game = generate_game("random_zs", n=3, d=4, seed=1)
    traj = run_full_feedback(game, LearnerSpec(algo="omwu"), 100)
    gaps = average_profile_gaps(game, traj.inner)
    for t in (1, 10, 100):
        avg = [traj.inner[i][:t].mean(axis=0) for i in range(3)]
        assert gaps[t - 1] == pytest.approx(game.total_gap(avg), abs=1e-11)


def test_regret_report_orders():
    game = generate_game("random_zs", n=2, d=4, seed=3)
    traj = run_full_feedback(game, LearnerSpec(algo="omwu"), 500)
    rep = regret_report(traj)
    assert np.all(rep["dreg"] >= rep["reg"] - 1e-12)
    inner_rep = inner_regret_report(traj)  # bare runs: inner == played
    assert np.allclose(rep["reg"], inner_rep["reg"])


def test_best_responder_has_zero_dynamic_regret():
    # hand-built sequence: the player always plays the argmax action
    us = np.array([[0.2, 0.9], [0.8, 0.1], [0.3, 0.35]])
    xs = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    from a2l.dynamics import _cumulative_regrets

    reg, dreg = _cumulative_regrets(xs, us)
    assert dreg[-1] == pytest.approx(0.0, abs=1e-12)
    assert np.all(reg <= dreg + 1e-12)


def test_monitor_first_round_continues():
    # regret 0.5 after one round, far below the threshold 2 * (2 ln 2 / 0.5) = 5.5
    g = GuardedA2LOMWU(2, 0.5, log_dim_sum=2 * np.log(2), c=2.0)
    assert np.array_equal(g.next_strategy(), [0.5, 0.5])
    g.observe(np.array([1.0, 0.0]))
    assert g.rounds == 1 and g.switch_round is None and g.fallback is None
    assert g.cum_utils.max() - g.cum_earned == 0.5


def test_monitor_honest_selfplay_continues():
    # equal bit for bit to the unguarded run: the monitor never switched
    game = generate_game("random_zs", n=2, d=5, seed=8)
    guarded = run_full_feedback(game, LearnerSpec(algo="guarded-a2l-omwu"), 3000)
    plain = run_full_feedback(game, LearnerSpec(algo="a2l-omwu"), 3000)
    for field in ("played", "utils", "inner", "inner_utils"):
        for i in range(2):
            assert np.array_equal(getattr(guarded, field)[i], getattr(plain, field)[i])
    assert np.array_equal(guarded.tgap_played, plain.tgap_played)
    assert np.array_equal(guarded.tgap_inner_avg, plain.tgap_inner_avg)


def test_monitor_adversary_triggers_switch():
    # the switch fires at the first round whose regret, recomputed here from
    # the played strategies and utilities, crosses the threshold
    g = GuardedA2LOMWU(2, 0.5, log_dim_sum=2 * np.log(2), c=2.0)
    xs, us = play_against(g, bait_feedback, 600)
    reg = np.cumsum(us, axis=0).max(axis=1) - np.cumsum(np.einsum("td,td->t", xs, us))
    crossed = reg > monitor_threshold(np.arange(1, 601), 0.5, 2 * np.log(2), c=2.0)
    assert crossed.any()
    assert g.switch_round == int(np.argmax(crossed)) + 1 < 600


def test_guarded_learner_switches_to_fallback():
    g = GuardedA2LOMWU(2, 0.5, log_dim_sum=2 * np.log(2), c=2.0)
    play_against(g, bait_feedback, 400)
    assert g.switch_round is not None
    assert g.fallback is not None and g.fallback.t > 0


def test_guarded_learner_stays_primary_when_honest():
    game = generate_game("rps")
    spec = LearnerSpec(algo="guarded-a2l-omwu")
    traj = run_full_feedback(game, spec, 500)
    assert traj.tgap_played[-1] < 0.05  # still converging like the plain wrapper


def test_csv_round_trip():
    game = generate_game("random_zs", n=2, d=3, seed=5)
    traj = run_full_feedback(game, LearnerSpec(algo="a2l-omwu"), 40)
    lines = list(trajectory_csv_lines(traj))
    assert lines[0].split(",") == [
        "t", "tgap_last", "tgap_avg", "reg_1", "reg_2", "dreg_1", "dreg_2",
    ]
    assert len(lines) == 41
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(traj.tgap_played[-1])


def test_error_carries_round_index():
    class Broken:
        d = 2
        eta = 0.5

        def __init__(self):
            self.t = 0

        def next_strategy(self):
            return np.array([0.5, 0.5])

        def observe(self, u):
            self.t += 1
            if self.t == 4:
                raise ValueError("boom")

    game = generate_game("matching_pennies")
    specs = [LearnerSpec(algo="omwu"), LearnerSpec(algo="omwu")]
    traj = run_full_feedback(game, specs, 3)
    assert traj.T == 3

    import a2l.dynamics as dyn

    orig = dyn.build_learner
    try:
        dyn.build_learner = lambda spec, d, n, lds=None: Broken()
        with pytest.raises(ValueError, match="round 4"):
            run_full_feedback(game, specs, 10)
    finally:
        dyn.build_learner = orig


def test_loop_error_keeps_its_type_as_cause(monkeypatch):
    class Mismatched:
        d = 2

        def next_strategy(self):
            return np.array([0.5, 0.5])

        def observe(self, u):
            raise DimensionMismatchError(1, 2, 3)

    monkeypatch.setattr(dyn, "build_learner", lambda spec, d, n, lds=None: Mismatched())
    with pytest.raises(SimulationError, match="round 1: DimensionMismatchError") as err:
        run_full_feedback(generate_game("matching_pennies"), LearnerSpec(algo="omwu"), 5)
    assert err.value.round == 1
    assert isinstance(err.value.__cause__, DimensionMismatchError)
    assert err.value.__cause__.expected == 2
    assert pickle.loads(pickle.dumps(err.value)).round == 1


def test_spec_validation():
    game = generate_game("matching_pennies")
    with pytest.raises(ValueError):
        run_full_feedback(game, LearnerSpec(algo="omwu"), 0)
    with pytest.raises(ValueError):
        run_full_feedback(game, [LearnerSpec()], 10)  # one spec, two players
    with pytest.raises(ValueError):
        build_learner(LearnerSpec(algo="ftrl"), 2, 2)


def test_default_step_size():
    assert gradient_step_size(2) == 0.5
    assert gradient_step_size(4) == pytest.approx(1 / 6)
    lrn = build_learner(LearnerSpec(algo="omwu"), 3, 3)
    assert lrn.eta == pytest.approx(0.25)


# Every learner cell of the T = 1000 reduction-equivalence suite.
SUITE_CELLS = [
    (algo, weights)
    for algo in ("mwu", "omwu", "a2l-mwu", "a2l-omwu")
    for weights in (("uniform", "linear") if algo.startswith("a2l") else ("uniform",))
]


@pytest.mark.parametrize("key", ["matching_pennies", "rps", "zs3d5"])
def test_batched_run_matches_per_instance_runs(key):
    # One batched call over the suite seeds reproduces each one-instance run:
    # seed-invariant games run as 20 copies of the same game.
    games = [verify._game(key, s) for s in verify.SEEDS]
    for algo, weights in SUITE_CELLS:
        spec = LearnerSpec(algo=algo, eta=verify._suite1_eta(algo.removeprefix("a2l-")),
                           weights=weights)
        batch = run_full_feedback_batch(games, spec, 1000, verify.SEEDS)
        single = {}
        for s, game, tr in zip(verify.SEEDS, games, batch):
            ref_key = s if len(verify._game_seeds(key)) > 1 else 0
            if ref_key not in single:
                single[ref_key] = run_full_feedback(game, spec, 1000, seed=s)
            one = single[ref_key]
            assert tr.meta["seed"] == s
            for i in range(game.n):
                for field in ("played", "utils", "inner", "inner_utils"):
                    got, want = getattr(tr, field)[i], getattr(one, field)[i]
                    assert np.abs(got - want).max() <= 1e-13, (algo, weights, s, field)
            assert np.abs(tr.tgap_played - one.tgap_played).max() <= 1e-13
            assert np.abs(tr.tgap_inner_avg - one.tgap_inner_avg).max() <= 1e-13


def test_batch_absent_edges_enter_as_zero_blocks():
    # gnp graphs differ per seed; each instance still plays its own game
    games = [generate_game("random_zs", n=4, d=3, graph="gnp", p=0.5, seed=s)
             for s in range(6)]
    assert len({tuple(sorted(g.edges)) for g in games}) > 1
    batch = run_full_feedback_batch(games, LearnerSpec(algo="a2l-omwu"), 200)
    for game, tr in zip(games, batch):
        one = run_full_feedback(game, LearnerSpec(algo="a2l-omwu"), 200)
        for i in range(4):
            assert np.abs(tr.played[i] - one.played[i]).max() <= 1e-13
            assert np.abs(tr.utils[i] - one.utils[i]).max() <= 1e-13
        assert PolymatrixGame.from_dict(tr.meta["game"]).edges.keys() == game.edges.keys()


def test_batch_refuses_what_it_cannot_run():
    mp = generate_game("matching_pennies")
    with pytest.raises(ValueError, match=r"games\[1\]: action_counts"):
        run_full_feedback_batch([mp, generate_game("rps")], LearnerSpec(algo="omwu"), 10)
    with pytest.raises(ValueError, match=r"games\[1\]: n = 3"):
        run_full_feedback_batch([mp, generate_game("random_zs", n=3, d=2, seed=0)],
                                LearnerSpec(algo="omwu"), 10)
    with pytest.raises(ValueError, match=r"specs\[0\]\.algo"):
        run_full_feedback_batch([mp, mp], LearnerSpec(algo="guarded-a2l-omwu"), 10)
    with pytest.raises(ValueError, match="seeds"):
        run_full_feedback_batch([mp, mp], LearnerSpec(algo="omwu"), 10, seeds=[0])
    with pytest.raises(ValueError, match="games"):
        run_full_feedback_batch([], LearnerSpec(algo="omwu"), 10)
    # one instance of the guarded learner is fine
    (traj,) = run_full_feedback_batch([mp], LearnerSpec(algo="guarded-a2l-omwu"), 10)
    assert traj.T == 10
