import pickle

import numpy as np
import pytest

import a2l.dynamics as dyn
from a2l.dynamics import (
    LearnerSpec,
    RegretGuard,
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
from a2l.learners import MWU, OMWU
from a2l.reduction import A2L
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


def guarded_omwu():
    """A2L-OMWU on two actions at eta = 0.5, guarded at c = 2."""
    return RegretGuard(A2L(OMWU(2, 0.5)), 2, 0.5, 2 * np.log(2), 2.0)


def test_monitor_first_round_continues():
    # regret 0.5 after one round, far below the threshold 2 * (2 ln 2 / 0.5) = 5.5
    g = guarded_omwu()
    assert np.array_equal(g.next_strategy(), [0.5, 0.5])
    g.observe(np.array([1.0, 0.0]))
    assert g.rounds == 1 and g.switch_rounds == 0 and g.fallback is None
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
    g = guarded_omwu()
    xs, us = play_against(g, bait_feedback, 600)
    reg = np.cumsum(us, axis=0).max(axis=1) - np.cumsum(np.einsum("td,td->t", xs, us))
    crossed = reg > monitor_threshold(np.arange(1, 601), 0.5, 2 * np.log(2), c=2.0)
    assert crossed.any()
    assert g.switch_rounds == int(np.argmax(crossed)) + 1 < 600


def test_guarded_learner_switches_to_fallback():
    g = guarded_omwu()
    play_against(g, bait_feedback, 400)
    assert g.switch_rounds > 0
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
            return np.full((2, 2), 0.5)  # players x actions

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
        dyn.build_learner = lambda specs, counts: Broken()
        with pytest.raises(ValueError, match="round 4"):
            run_full_feedback(game, specs, 10)
    finally:
        dyn.build_learner = orig


def test_loop_error_keeps_its_type_as_cause(monkeypatch):
    class Mismatched:
        d = 2

        def next_strategy(self):
            return np.full((2, 2), 0.5)

        def observe(self, u):
            raise DimensionMismatchError(1, 2, 3)

    monkeypatch.setattr(dyn, "build_learner", lambda specs, counts: Mismatched())
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
        build_learner([LearnerSpec(algo="ftrl")] * 2, (2, 2))


def test_default_step_size():
    assert gradient_step_size(2) == 0.5
    assert gradient_step_size(4) == pytest.approx(1 / 6)
    lrn = build_learner([LearnerSpec(algo="omwu")] * 3, (3, 3, 3))
    assert np.array_equal(lrn.eta, np.full((3, 1), 0.25))


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
    with pytest.raises(ValueError, match="seeds"):
        run_full_feedback_batch([mp, mp], LearnerSpec(algo="omwu"), 10, seeds=[0])
    with pytest.raises(ValueError, match="games"):
        run_full_feedback_batch([], LearnerSpec(algo="omwu"), 10)


def test_guarded_batch_switches_row_by_row():
    # Player 2 is a follow-the-leader exploiter whose payoffs grow with the
    # instance; only in the last instance does it push the guarded player
    # past its threshold.  Each instance equals its one-instance run.
    mp = np.array([[1.0, -1.0], [-1.0, 1.0]])
    games = [PolymatrixGame((2, 2), {(0, 1): mp, (1, 0): -scale * mp.T})
             for scale in (0.25, 0.5, 1.0, 5.0)]
    specs = [LearnerSpec(algo="guarded-a2l-omwu"),
             LearnerSpec(algo="mwu", eta=2.0, bias=[1.0, 0.0])]
    batch = run_full_feedback_batch(games, specs, 1000)
    assert [tr.meta["switch_round"] for tr in batch] == [[None, None]] * 3 + [[737, None]]
    for game, tr in zip(games, batch):
        one = run_full_feedback(game, specs, 1000)
        assert tr.meta["switch_round"] == one.meta["switch_round"]
        for i in range(2):
            for field in ("played", "utils", "inner", "inner_utils"):
                got, want = getattr(tr, field)[i], getattr(one, field)[i]
                assert np.abs(got - want).max() <= 1e-13, field
        assert np.abs(tr.tgap_inner_avg - one.tgap_inner_avg).max() <= 1e-13


def test_guard_logs_the_inner_iterate_in_its_switch_round():
    # In the switch round the guarded row still played its primary learner,
    # so its logged inner iterate is the unguarded run's, not the play.
    mp = np.array([[1.0, -1.0], [-1.0, 1.0]])
    game = PolymatrixGame((2, 2), {(0, 1): mp, (1, 0): -5.0 * mp.T})
    opponent = LearnerSpec(algo="mwu", eta=2.0, bias=[1.0, 0.0])
    guarded = run_full_feedback(game, [LearnerSpec(algo="guarded-a2l-omwu"), opponent], 1000)
    plain = run_full_feedback(game, [LearnerSpec(algo="a2l-omwu"), opponent], 1000)
    assert guarded.meta["switch_round"] == [737, None]
    for field in ("inner", "inner_utils"):
        assert np.array_equal(getattr(guarded, field)[0][:737], getattr(plain, field)[0][:737])
    assert not np.array_equal(guarded.inner[0][736], guarded.played[0][736])
    assert guarded.tgap_inner_avg[736] == pytest.approx(0.487415, abs=1e-6)


def reference_loop(game, specs, T):
    """One learner object per player, utilities evaluated player by player:
    the loop the stacked state replaces.  Returns played, utils, inner and
    inner_utils as lists of (T, d_i) arrays."""
    eta = gradient_step_size(game.n)
    learners = []
    for spec, d in zip(specs, game.action_counts):
        inner = (OMWU if spec.algo.endswith("omwu") else MWU)(d, eta)
        learners.append(A2L(inner, spec.weights) if spec.algo.startswith("a2l") else inner)
    logs = [[[] for _ in range(game.n)] for _ in range(4)]
    for _ in range(T):
        xs = [lr.next_strategy() for lr in learners]
        for i, lr in enumerate(learners):
            u = game.utility_vector(i, xs)
            rec = lr.observe(u)
            inner_x = getattr(lr, "last_inner", xs[i])
            for log, value in zip(logs, (xs[i], u, inner_x, u if rec is None else rec)):
                log[i].append(value)
    return [[np.array(rows) for rows in log] for log in logs]


@pytest.mark.parametrize("algos", [
    ("a2l-omwu",) * 3, ("omwu",) * 3, ("a2l-mwu",) * 3, ("a2l-omwu", "omwu", "a2l-mwu"),
])
def test_unequal_action_counts_match_per_player_loop(algos):
    # Rows padded to 7 actions sum over exact zeros in another order than
    # the unpadded loop does: last-bit differences only.  With players of
    # mixed algorithms the opponents do not all play averages, so the
    # recovered utilities vary more, and recovery scales their rounding by
    # sum_{k<t} alpha_k / alpha_t = (t - 1) / 2 < 250 here.
    game = generate_game("random_zs", n=3, d=(3, 7, 4), seed=12)
    specs = [LearnerSpec(algo=a, weights="linear") for a in algos]
    traj = run_full_feedback(game, specs, 500)
    want = reference_loop(game, specs, 500)
    tol = {"played": 1e-12, "utils": 1e-12, "inner": 1e-12,
           "inner_utils": 1e-12 if len(set(algos)) == 1 else 1e-11}
    for field, ref in zip(("played", "utils", "inner", "inner_utils"), want):
        for i in range(3):
            got = getattr(traj, field)[i]
            assert got.shape == ref[i].shape
            assert np.abs(got - ref[i]).max() <= tol[field], (field, i)
    for x in traj.played:
        assert np.abs(x.sum(axis=1) - 1.0).max() <= 1e-12


# -- statistics folded chunk by chunk ------------------------------------------


def record_statistics(tr):
    """The statistics by their formulas over the run's full records."""
    T = tr.T
    instant = np.stack([u.max(axis=1) - np.einsum("td,td->t", x, u)
                        for x, u in zip(tr.played, tr.utils)], axis=1)
    denom = np.arange(1.0, T + 1.0)[:, None]
    tgap_avg = np.zeros(T)
    for x, u in zip(tr.inner, tr.inner_utils):
        xbar = np.cumsum(x, axis=0) / denom
        ubar = np.cumsum(u, axis=0) / denom
        tgap_avg += ubar.max(axis=1) - np.einsum("td,td->t", xbar, ubar)
    regrets = [dyn._cumulative_regrets(x, u) for x, u in zip(tr.played, tr.utils)]
    return {
        "instant_regret": instant,
        "tgap_played": instant.sum(axis=1),
        "tgap_inner_avg": tgap_avg,
        "reg": np.stack([r for r, _ in regrets], axis=1),
        "dreg": np.stack([r for _, r in regrets], axis=1),
    }


STATISTICS = ("instant_regret", "tgap_played", "tgap_inner_avg", "reg", "dreg")


def same_bits(a, b):
    """Equal bit for bit: signs of zero and NaN positions included."""
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def fold_cell(name, S):
    """S games and the player specs of one kind of run; the guarded row of
    "guarded" switches in round 13 (scale 1) and round 5 (scale 5), and
    never at scale 1/4."""
    if name == "guarded":
        mp = np.array([[1.0, -1.0], [-1.0, 1.0]])
        games = [PolymatrixGame((2, 2), {(0, 1): mp, (1, 0): -scale * mp.T})
                 for scale in (1.0, 5.0, 0.25)[:S]]
        return games, [LearnerSpec(algo="guarded-a2l-omwu", monitor_c=0.2),
                       LearnerSpec(algo="mwu", eta=2.0, bias=[1.0, 0.0])]
    if name == "mixed":  # unequal action counts: padded rows
        games = [generate_game("random_zs", n=3, d=(3, 7, 4), seed=s) for s in range(S)]
        return games, [LearnerSpec(algo=a, weights="linear")
                       for a in ("a2l-omwu", "omwu", "a2l-mwu")]
    games = [generate_game("random_zs", n=3, d=4, seed=s) for s in range(S)]
    return games, LearnerSpec(algo={"bare": "omwu", "wrapped": "a2l-omwu"}[name])


def test_chunked_cumsum_equals_one_cumsum_bit_for_bit():
    # Leading -0.0s stay -0.0 (no carry is added to the first chunk), and
    # a NaN carries to the end of its own column only.
    a = np.random.default_rng(0).standard_normal((3, 23, 4))
    a[:, :2] = -0.0
    a[1, 9, 2] = np.nan
    want = np.cumsum(a, axis=1)
    for K in (1, 6, 7, 8, 23):
        parts, carry = [], None
        for t0 in range(0, 23, K):
            parts.append(dyn._cumsum(a[:, t0:t0 + K], carry))
            carry = parts[-1][:, -1].copy()
        assert same_bits(np.concatenate(parts, axis=1), want), K


@pytest.mark.parametrize("name", ["bare", "wrapped", "mixed", "guarded"])
@pytest.mark.parametrize("S", [1, 3])
def test_folded_statistics_equal_the_record_formulas(monkeypatch, name, S):
    monkeypatch.setattr(dyn, "CHUNK_ROUNDS", 7)
    games, specs = fold_cell(name, S)
    for T in (1, 6, 7, 8, 23):
        kept = run_full_feedback_batch(games, specs, T)
        streamed = run_full_feedback_batch(games, specs, T, records=False)
        for tr, lean in zip(kept, streamed):
            want = record_statistics(tr)
            for stat in STATISTICS:
                assert same_bits(getattr(tr, stat), want[stat]), (T, stat)
                assert same_bits(getattr(lean, stat), want[stat]), (T, stat)
            assert lean.meta == tr.meta
            assert (lean.played, lean.utils, lean.inner, lean.inner_utils) == (None,) * 4
    if name == "guarded":
        assert [tr.meta["switch_round"][0] for tr in kept] == [13, 5, None][:S]


def test_run_without_records_writes_the_same_csv(tmp_path):
    # The harness runs without records; its CSV equals the lines formatted
    # from the record formulas of a run that kept them.
    from a2l import harness
    from a2l.csvrows import _csv_lines

    cfg = harness.load_config({"mode": "gradient", "T": 600, "seeds": [3],
                               "game": {"kind": "random_zs", "n": 3, "d": 4},
                               "out_dir": str(tmp_path / "out")})
    harness.run(cfg)
    game = harness.resolve_game(cfg.game, seed=3)
    tr = run_full_feedback(game, harness._learner_specs(cfg, game), 600, seed=3)
    want = record_statistics(tr)
    header, _ = dyn.trajectory_csv_columns(tr)
    columns = ([np.arange(1, 601), want["tgap_played"], want["tgap_inner_avg"]]
               + list(want["reg"].T) + list(want["dreg"].T))
    text = "".join(line + "\n" for line in _csv_lines(header, columns))
    assert (tmp_path / "out" / "gradient_seed3.csv").read_text() == text
    assert "".join(line + "\n" for line in trajectory_csv_lines(tr)) == text


def test_run_without_records_needs_memory_independent_of_T():
    import tracemalloc

    n, d = 4, 10
    game = generate_game("random_zs", n=n, d=d, seed=1)
    spec = LearnerSpec(algo="a2l-omwu")

    def traced(T):
        tracemalloc.start()
        try:
            tr = run_full_feedback(game, spec, T, records=False)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tr.T == T and tr.played is None
        return held, peak

    short_held, short_peak = traced(10_000)
    long_held, long_peak = traced(40_000)
    # What a run needs beyond the per-round statistics it returns does not
    # grow with T ...
    assert (long_peak - long_held) / (short_peak - short_held) < 1.5
    # ... and its whole peak is under a quarter of the four (T, n, d) records
    # a run with records=True holds (and so under a quarter of that run's peak).
    assert long_peak < 4 * n * 40_000 * d * 8 / 4
