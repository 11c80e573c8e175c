import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2l import cli, harness, verify
from a2l import dynamics as dyn
from a2l.bandit import EpochSchedule, ScheduleError
from a2l.fisher import FisherMarket
from a2l.games import PolymatrixGame, generate_game, load_game, save_game
from a2l.harness import Check, ConfigError, ExperimentConfig, config_hash, fit_rate, load_config


def gradient_cfg(tmp_path, **overrides):
    cfg = {
        "mode": "gradient",
        "game": {"kind": "random_zs", "n": 2, "d": 3, "seed": 7},
        "T": 200,
        "seeds": [0, 1],
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return cfg


# -- config validation ---------------------------------------------------------


def test_load_valid_config(tmp_path):
    cfg = load_config(gradient_cfg(tmp_path))
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.T == 200


def test_unknown_field_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config field"):
        load_config(gradient_cfg(tmp_path, horizon=10))


def test_all_errors_enumerated(tmp_path):
    bad = gradient_cfg(tmp_path, T=0, seeds=[], algo="ftrl")
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    msg = str(err.value)
    assert "T must" in msg and "seeds" in msg and "ftrl" in msg


@pytest.mark.parametrize("field, value", [
    ("T", "10"),
    ("eta", -1.0),
    ("eta", float("nan")),
    ("eta", float("inf")),
    ("weights", "quadratic"),
    ("seeds", [True]),
    ("delta", 0.0),
    ("delta", 1.0),
    ("monitor_c", float("nan")),
    ("players", 3),
    ("players[0].foo", 1),
    ("players[1].weights", "quadratic"),
    ("players[0].algo", "nope"),
    ("players[1].eta", -0.1),
    ("players[0].bias", [0.0, 1.0]),
    ("players[1].bias", [0.0, float("inf"), 1.0]),
    ("players", [{}, {}, {}]),
    # ints beyond the float range: was an OverflowError at load
    pytest.param("monitor_c", 10**400, id="monitor_c-int_above_float_max"),
    pytest.param("eta", 10**400, id="eta-int_above_float_max"),
    pytest.param("seeds", [0, 0], id="seeds-duplicate"),  # would run and write seed 0 twice
    # numpy's generators take no negative seed: a run of a fixed game ended
    # in default_rng's ValueError, a generated game failed as its game spec
    pytest.param("seeds", [3, -1], id="seeds-negative"),
    ("algo", "MWU"),  # one spelling per algorithm
    ("players[0].algo", "MWU"),
])
@pytest.mark.parametrize("mode", ["gradient", "bandit"])
def test_bad_field_raises_config_error_naming_it(tmp_path, mode, field, value):
    entry = re.fullmatch(r"players\[(\d)\]\.(\w+)", field)
    if entry:  # one bad field in one entry of a two-player spec list
        players = [{}, {}]
        players[int(entry[1])][entry[2]] = value
        overrides = {"players": players}
    else:
        overrides = {field: value}
    cfg = gradient_cfg(tmp_path, mode=mode, certified=False, **overrides)
    with pytest.raises(ConfigError, match=rf"- {re.escape(field)} must"):
        load_config(cfg)


def test_certified_gradient_eta_refused(tmp_path):
    bad = gradient_cfg(tmp_path, eta=0.6)  # above 1/(2(n-1)) = 0.5
    with pytest.raises(ConfigError, match=r"eta <= 1/\(2\(n-1\)\)"):
        load_config(bad)
    # allowed once certification is waived
    load_config(gradient_cfg(tmp_path, eta=0.6, certified=False))
    # a player's own eta is held to the same limit
    players = [{"algo": "a2l-omwu"}, {"algo": "omwu", "eta": 5.0}]
    with pytest.raises(ConfigError, match=r"players\[1\]\.eta <= 1/\(2\(n-1\)\)"):
        load_config(gradient_cfg(tmp_path, players=players))
    load_config(gradient_cfg(tmp_path, players=players, certified=False))
    # the certified bound has one eta, so the players' own must agree
    players = [{"algo": "a2l-omwu", "eta": 0.01}, {"algo": "a2l-omwu", "eta": 0.3}]
    with pytest.raises(ConfigError, match=r"one eta for all players; got players\[1\]\.eta"):
        load_config(gradient_cfg(tmp_path, players=players))


GUARDED_LOW = {"algo": "guarded-a2l-omwu", "monitor_c": -1}


# Configs that break a condition of the gradient certificate, and the field
# named for it.  Certified, their bound check can fail, or pass although the
# reduction is broken, so only an uncertified run may load them.
UNCERTIFIED = {
    "mwu": ({"algo": "mwu"}, "algo"),
    "omwu": ({"algo": "omwu"}, "algo"),
    "a2l-mwu": ({"algo": "a2l-mwu"}, "algo"),
    "linear-weights": ({"weights": "linear"}, "weights"),
    "bias-0": ({"players": [{"bias": [8, 0, 0]}, {}]}, "players[0].bias"),
    "bias-1": ({"players": [{}, {"bias": [0, 8, 0]}]}, "players[1].bias"),
    "mixed-weights": ({"players": [{"weights": "uniform"}, {"weights": "linear"}]},
                      "players[1].weights"),
    "mixed-algos": ({"players": [{"algo": "a2l-omwu"}, {"algo": "omwu"}]}, "players[1].algo"),
    "guarded-monitor_c": ({"players": [GUARDED_LOW, GUARDED_LOW]}, "players[0].monitor_c"),
}


@pytest.mark.parametrize("name", list(UNCERTIFIED))
def test_certified_gradient_runs_refuse_what_the_certificate_excludes(tmp_path, name):
    fields, named = UNCERTIFIED[name]
    with pytest.raises(ConfigError) as err:
        load_config(gradient_cfg(tmp_path, **fields))
    assert str(err.value).count(f"- certified gradient runs need {named} ") == 1
    summary = harness.run(load_config(gradient_cfg(tmp_path, certified=False, T=50, **fields)))
    assert summary["results"][0]["checks"] == []  # an uncertified run checks no bound


def test_certified_bandit_eta_refused(tmp_path):
    cfg = {"mode": "bandit", **MODE_BASE["bandit"], "eta": 0.1}  # above 1/(6n) = 1/12
    with pytest.raises(ConfigError, match=r"- certified bandit runs need eta <= 1/\(6n\)"):
        load_config(cfg)
    load_config({**cfg, "certified": False})


def test_gradient_certificate_holds_for_certified_self_play():
    specs = [dyn.LearnerSpec(), dyn.LearnerSpec(algo="guarded-a2l-omwu", bias=[0, 0],
                                                monitor_c=np.inf)]
    assert dyn.certificate_misses(specs) == []
    assert dyn.certificate_misses([dyn.LearnerSpec(eta=0.2)] * 3) == []
    assert dyn.certificate_misses([dyn.LearnerSpec(eta=0.2), dyn.LearnerSpec()]) == [
        (1, "eta", "one eta for all players")]


def test_certified_bound_uses_the_players_eta(tmp_path):
    players = [{"algo": "a2l-omwu", "eta": 0.01}] * 2
    summary = harness.run(load_config(gradient_cfg(
        tmp_path, game={"kind": "random_zs", "n": 2, "d": 3, "seed": 5}, seeds=[0],
        players=players)))
    (result,) = summary["results"]
    assert result["gap_bound"] == pytest.approx(np.log(9) / (0.01 * 200))
    assert result["final_tgap_last"] > 0.5  # outside the eta = 0.5 bound of 0.022
    assert summary["passed"]


def test_certified_bandit_schedule_refused(tmp_path):
    bad = {
        "mode": "bandit",
        "game": {"kind": "random_zs", "n": 2, "d": 3, "seed": 7},
        "schedule": {"mode": "custom", "coeff": 10, "power": 1},
        "seeds": [0],
        "out_dir": str(tmp_path / "o"),
    }
    with pytest.raises(ConfigError, match="theory schedule"):
        load_config(bad)


def test_missing_game_file_listed(tmp_path):
    bad = gradient_cfg(tmp_path, game={"file": str(tmp_path / "nope.json")})
    with pytest.raises(ConfigError, match="not found"):
        load_config(bad)


def test_config_hash_stable(tmp_path):
    cfg1 = load_config(gradient_cfg(tmp_path))
    cfg2 = load_config(gradient_cfg(tmp_path))
    assert config_hash(cfg1) == config_hash(cfg2)
    cfg3 = load_config(gradient_cfg(tmp_path, T=201))
    assert config_hash(cfg1) != config_hash(cfg3)
    # where a run is written and how many processes run it change no result
    for where in ({"out_dir": str(tmp_path / "elsewhere")}, {"workers": 2}):
        assert config_hash(load_config(gradient_cfg(tmp_path, **where))) == config_hash(cfg1)


@pytest.mark.parametrize("mode", ["gradient", "bandit"])
def test_config_hash_reads_numbers_as_their_declared_type(mode):
    # monitor_c written as an int, as a float or left at its default 4.0
    # means the same run; so do an int and a float in a players entry or in
    # the schedule.
    def hash_of(**fields):
        return config_hash(load_config({"mode": mode, **MODE_BASE[mode], **fields}))

    assert hash_of() == hash_of(monitor_c=4) == hash_of(monitor_c=4.0)
    if mode == "gradient":  # a bias leaves the uniform start, so the run is uncertified
        players = [{"eta": 0.5, "monitor_c": 2, "bias": [1, 0, 0]}, {"eta": 0.5}]
        assert hash_of(certified=False, players=players) == hash_of(certified=False, players=[
            {"eta": 0.5, "monitor_c": 2.0, "bias": [1.0, 0.0, 0.0]}, {"eta": 0.5}])
    else:
        schedule = {"mode": "custom", "coeff": 10, "power": 1}
        assert hash_of(certified=False, schedule=schedule) == hash_of(
            certified=False, schedule={**schedule, "coeff": 10.0, "power": 1.0})


def test_config_hash_fills_nested_specs_with_their_defaults():
    def hash_of(mode, **fields):
        return config_hash(load_config({"mode": mode, **MODE_BASE[mode], **fields}))

    # Every entry is the spec the top-level fields give: hashed as no players.
    assert hash_of("gradient") == hash_of("gradient", players=[{}, {}]) == hash_of(
        "gradient", players=[{"eta": None}, {"algo": "a2l-omwu", "weights": "uniform"}])
    # A bare mwu player is outside the gradient certificate.
    assert hash_of("gradient", certified=False, players=[{"algo": "mwu"}, {}]) == hash_of(
        "gradient", certified=False, players=[{"algo": "mwu", "monitor_c": 2}, {"bias": None}])
    assert hash_of("gradient", certified=False, players=[{"algo": "mwu"}, {}]) != hash_of(
        "gradient", certified=False)
    assert hash_of("bandit") == hash_of("bandit", schedule={"mode": "theory"}) == hash_of(
        "bandit", schedule={"mode": "theory", "coeff": 1.0, "eps_power": -1})
    # A mode that reads no schedule takes the default one written out.
    for mode in ("gradient", "fisher"):
        assert hash_of(mode) == hash_of(mode, schedule={"mode": "theory", "coeff": 1.0})
    assert hash_of("bandit", schedule={"mode": "theory_d"}) == hash_of(
        "bandit", schedule={"mode": "theory_d", "power": 4})
    custom = {"mode": "custom", "coeff": 10, "power": 1}
    assert hash_of("bandit", certified=False, schedule=custom) == hash_of(
        "bandit", certified=False, schedule={**custom, "eps_coeff": 1, "eps_power": -1.0})


def test_config_hash_drops_generator_keys_at_their_defaults():
    # A generator game spec with a default written out builds the same game.
    def hash_of(game):
        return config_hash(load_config({"mode": "gradient", "game": game, "T": 5}))

    assert hash_of({"kind": "rps"}) == hash_of({"kind": "rps", "n": 2}) == "422e14f287575af9"
    zs = {"kind": "random_zs", "d": 3, "seed": 1}
    assert hash_of(zs) == hash_of({**zs, "n": 2}) == hash_of(
        {**zs, "n": 2, "graph": "complete"}) == "80383728cebfc43d"
    assert hash_of({**zs, "graph": "cycle", "n": 3}) != hash_of({**zs, "n": 3})


def test_players_refuse_the_top_level_learner_fields():
    # Each players entry carries its own algo, eta and weights.
    with pytest.raises(ConfigError) as err:
        load_config({"mode": "gradient", **MODE_BASE["gradient"], "algo": "mwu", "eta": 0.3,
                     "weights": "linear", "players": [{}, {}], "certified": False})
    for name in ("algo", "eta", "weights"):
        assert f"- {name} is not read when players is set: set players[i].{name}" in str(
            err.value)


@pytest.mark.parametrize("mode", ["theory", "theory_d"])
@pytest.mark.parametrize("field, value", [("coeff", 7.0), ("power", 3.0), ("eps_coeff", 0.5),
                                          ("eps_power", -2.0)])
def test_theory_schedules_refuse_the_custom_fields(mode, field, value):
    with pytest.raises(ScheduleError, match=f"^{field} is not read by a {mode} schedule"):
        EpochSchedule(mode=mode, **{field: value})
    with pytest.raises(ConfigError, match=f"- schedule invalid: {field} is not read"):
        load_config({"mode": "bandit", **MODE_BASE["bandit"],
                     "schedule": {"mode": mode, field: value}})
    # The default written out is the same schedule.
    assert EpochSchedule(mode=mode, **{field: getattr(EpochSchedule, field)}) == EpochSchedule(
        mode=mode)


@settings(max_examples=40, deadline=None)
@given(
    mode=st.sampled_from(["gradient", "bandit", "fisher"]),
    eta_share=st.none() | st.floats(0.01, 1.0),
    weights=st.sampled_from(["uniform", "linear"]),
    T=st.integers(1, 10**6),
    epochs=st.integers(1, 40),
    seeds=st.lists(st.integers(0, 2**31), min_size=1, max_size=4, unique=True),
    delta=st.floats(0.001, 0.999),
    monitor_c=st.floats(-1e9, 1e9) | st.just(float("inf")),
    out_dir=st.text("abc/_-", min_size=1, max_size=12),
    workers=st.integers(1, 8),
)
def test_config_round_trip_keeps_its_hash(mode, eta_share, weights, T, epochs, seeds,
                                          delta, monitor_c, out_dir, workers):
    limit = 0.5 if mode == "gradient" else 1 / 12  # certified step sizes for n = 2
    drawn = {
        "game": {"kind": "random_zs", "n": 2, "d": 3, "seed": 7},
        "market": {"m": 2, "n": 3, "seed": 1},
        "eta": None if eta_share is None else eta_share * limit,
        "weights": weights, "T": T, "epochs": epochs, "delta": delta, "monitor_c": monitor_c,
        # linear weights are outside the gradient certificate
        "certified": mode != "gradient" or weights == "uniform",
    }
    cfg = load_config({
        "mode": mode, "seeds": seeds, "out_dir": out_dir, "workers": workers,
        **{k: v for k, v in drawn.items() if k in harness.MODE_FIELDS[mode]},
    })
    again = load_config(json.loads(json.dumps(cfg.to_dict())))
    assert again.to_dict() == cfg.to_dict()
    assert config_hash(again) == config_hash(cfg)
    moved = load_config({**cfg.to_dict(), "out_dir": out_dir + "2", "workers": workers + 1})
    assert config_hash(moved) == config_hash(cfg)


# A valid non-default value of every field beyond harness.COMMON_FIELDS.
NON_DEFAULT = {
    "game": {"kind": "matching_pennies"},
    "market": {"m": 2, "n": 2, "seed": 3},
    "algo": "mwu",
    "players": [{}, {}],
    "eta": 0.05,
    "weights": "linear",
    "T": 50,
    "epochs": 3,
    "schedule": {"mode": "theory_d"},
    "delta": 0.1,
    "monitor_c": 1.0,
    "certified": False,
}
MODE_BASE = {
    "gradient": {"game": {"kind": "random_zs", "n": 2, "d": 3, "seed": 7}},
    "bandit": {"game": {"kind": "random_zs", "n": 2, "d": 3, "seed": 7}},
    "fisher": {"market": {"m": 3, "n": 3, "seed": 4}},
}


def test_every_field_is_common_or_listed_for_a_mode():
    fields = set(ExperimentConfig.__dataclass_fields__) - set(harness.COMMON_FIELDS)
    assert set(NON_DEFAULT) == fields
    assert set().union(*harness.MODE_FIELDS.values()) == fields
    defaults = {name: f.default_factory() if f.default is dataclasses.MISSING else f.default
                for name, f in ExperimentConfig.__dataclass_fields__.items()}
    assert all(NON_DEFAULT[k] != defaults[k] for k in fields)


@pytest.mark.parametrize("mode, field", [(m, f) for m in MODE_BASE for f in NON_DEFAULT])
def test_a_mode_accepts_its_fields_and_refuses_the_rest(tmp_path, mode, field):
    cfg = {"mode": mode, **MODE_BASE[mode], field: NON_DEFAULT[field],
           "out_dir": str(tmp_path / "o")}
    if mode == "gradient" and field in ("algo", "weights"):  # outside the certificate
        cfg["certified"] = False
    if field in harness.MODE_FIELDS[mode]:
        assert getattr(load_config(cfg), field) == NON_DEFAULT[field]
    else:
        with pytest.raises(ConfigError, match=rf"- {field} is not read in {mode} mode"):
            load_config(cfg)


def test_fisher_mode_refuses_the_learner_fields():
    with pytest.raises(ConfigError) as err:
        load_config({"mode": "fisher", "market": {"m": 2, "n": 3, "seed": 1},
                     "players": [{"algo": "mwu"}], "eta": 0.3, "algo": "guarded-a2l-omwu",
                     "weights": "linear", "monitor_c": -5})
    for field in ("players", "eta", "algo", "weights", "monitor_c"):
        assert f"- {field} is not read in fisher mode" in str(err.value)


@pytest.mark.parametrize("market", [
    {"m": 2},
    {"m": 2.5, "n": 3},
    {"m": 0, "n": 3},
    {"m": 2, "n": 3, "foo": 1},
    {"m": 2, "n": 3, "seed": None},  # would draw a fresh market on every run
    pytest.param({"budgets": [np.nan, 1.0], "valuations": [[1.0, 0.5], [0.5, 1.0]]},
                 id="nan-budget"),
    pytest.param({"budgets": [1.0, 1.0], "valuations": [[1.0, np.inf], [0.5, 1.0]]},
                 id="inf-valuation"),
])
def test_bad_market_spec_fails_at_load(market):
    with pytest.raises(ConfigError, match="- market spec invalid"):
        load_config({"mode": "fisher", "market": market})


def test_game_seed_null_fails_at_load(tmp_path):
    # A null seed would draw a fresh game on every run of one config hash.
    with pytest.raises(ConfigError, match=r"- game spec invalid: game\.seed must be an integer"):
        load_config(gradient_cfg(tmp_path, game={"kind": "random_zs", "n": 2, "d": 2,
                                                  "seed": None}))


@pytest.mark.parametrize("field, spec", [
    ("game", {"file": "game.json", "foo": 1}),
    ("game", {"inline": {}, "foo": 1}),
    ("game", {"kind": "random_zs", "n": 2, "d": 2, "foo": 1}),
    ("market", {"file": "market.json", "foo": 1}),
    ("market", {"budgets": [1, 1], "valuations": [[1, 0], [0, 1]], "foo": 1}),
])
def test_extra_key_in_an_instance_spec_fails_at_load(tmp_path, field, spec):
    # Written out, the file and inline forms would load but for the extra key.
    harness_io = {"game": ("game.json", generate_game("rps").to_dict()),
                  "market": ("market.json", {"budgets": [1, 1],
                                             "valuations": [[1, 0], [0, 1]]})}
    name, data = harness_io[field]
    (tmp_path / name).write_text(json.dumps(data))
    spec = {**spec, **({"file": str(tmp_path / name)} if "file" in spec else {})}
    if "inline" in spec:
        spec["inline"] = data
    mode = "fisher" if field == "market" else "gradient"
    with pytest.raises(ConfigError, match=rf"- {field} spec invalid: .*'foo'"):
        load_config({"mode": mode, field: spec})
    del spec["foo"]
    load_config({"mode": mode, field: spec})


@pytest.mark.parametrize("game, key, at_default", [
    ({"kind": "rps", "n": 5, "d": 9, "graph": "cycle", "p": 0.1}, "n", {"kind": "rps", "n": 2}),
    ({"kind": "matching_pennies", "seed": 3}, "seed", {"kind": "matching_pennies"}),
    ({"kind": "random_zs", "n": 3, "d": 4, "seed": 1, "p": 0.9}, "p",
     {"kind": "random_zs", "n": 3, "d": 4, "seed": 1, "p": 0.5}),
    ({"kind": "random_zs", "n": 3, "d": 4, "graph": "cycle", "p": 0.9}, "p",
     {"kind": "random_zs", "n": 3, "d": 4, "graph": "gnp", "p": 0.9}),
], ids=["rps", "matching_pennies-seed", "complete-p", "cycle-p"])
def test_a_generator_key_the_kind_does_not_read_is_refused(tmp_path, game, key, at_default):
    # Each ran the game without the key, under a hash of its own.
    with pytest.raises(ConfigError, match=rf"- game spec invalid: game\.{key} is not read by"):
        load_config(gradient_cfg(tmp_path, game=game))
    load_config(gradient_cfg(tmp_path, game=at_default))  # or read, on a gnp graph


@pytest.mark.parametrize("size, name", [
    ({"d": 2.5}, "d"), ({"n": 2.0}, "n"), ({"d": [2, 3.7]}, "d"), ({"d": True}, "d"),
], ids=["d-float", "n-float", "d-entry-float", "d-bool"])
def test_a_game_size_that_is_not_an_integer_is_refused(tmp_path, size, name):
    # d = 2.5 ran a d = 2 game under a hash of its own; the others failed in
    # Python's own type errors, which named no argument.
    with pytest.raises(ConfigError, match=rf"- game spec invalid: {name} must be an integer"):
        load_config(gradient_cfg(tmp_path, game={"kind": "random_zs", "n": 2, "d": 2, **size}))
    # Numpy integers stay accepted.
    game = generate_game("random_zs", n=np.int64(2), d=[np.int32(2), 3], seed=0)
    assert game.action_counts == (2, 3)
    assert generate_game("random_zs", n=2, d=np.int64(3), seed=0).action_counts == (3, 3)


def test_load_config_reads_a_json_file(tmp_path):
    cfg = gradient_cfg(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert load_config(path) == load_config(str(path)) == load_config(cfg)
    with pytest.raises(ConfigError, match=f"config file not found: {re.escape(str(tmp_path))}"):
        load_config(tmp_path / "missing.json")
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="must hold a JSON object, not list"):
        load_config(path)


def test_missing_market_file_listed(tmp_path):
    with pytest.raises(ConfigError, match="- market file not found"):
        load_config({"mode": "fisher", "market": {"file": str(tmp_path / "nope.json")}})


@pytest.mark.parametrize("mode, extra", [
    ("gradient", {"T": 20, "algo": "guarded-a2l-omwu"}),
    ("bandit", {"epochs": 2, "monitor_c": float("inf")}),
    ("fisher", {"T": 20}),
])
def test_summary_records_the_fields_the_mode_read(tmp_path, mode, extra):
    summary = harness.run(load_config({
        "mode": mode, **MODE_BASE[mode], **extra, "out_dir": str(tmp_path / "o")}))
    assert set(summary["config"]) == set(harness.COMMON_FIELDS + harness.MODE_FIELDS[mode])
    on_disk = json.loads((tmp_path / "o" / "summary.json").read_text())
    for recorded in (summary["config"], on_disk["config"]):
        assert config_hash(load_config(recorded)) == summary["config_hash"]


def test_readme_lists_the_fields_each_mode_reads():
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| mode | fields it reads"))
    assert tuple(re.findall(r"`(\w+)`", lines[start])) == harness.COMMON_FIELDS
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:])
    listed = {re.findall(r"`(\w+)`", row)[0]: tuple(re.findall(r"`(\w+)`", row)[1:])
              for row in rows}
    assert listed == harness.MODE_FIELDS


def test_gradient_mode_refuses_the_top_level_monitor_c(tmp_path):
    # guarded players read players[i].monitor_c, never the top-level field
    with pytest.raises(ConfigError, match=r"monitor_c is not read.*players\[i\]\.monitor_c"):
        load_config(gradient_cfg(tmp_path, algo="guarded-a2l-omwu", monitor_c=-1e9))
    guarded = {"algo": "guarded-a2l-omwu", "monitor_c": -1e9}  # below the certificate's 2.0
    load_config(gradient_cfg(tmp_path, players=[guarded, guarded], certified=False))


@pytest.mark.parametrize("fields, refused", [
    ({"players": [{"monitor_c": 7}, {}]}, "players[0].monitor_c is not read by a2l-omwu players"),
    ({"players": [{}, {"algo": "omwu", "weights": "linear"}]},
     "players[1].weights is not read by omwu players"),
    ({"algo": "mwu", "weights": "linear"}, "weights is not read by mwu players"),
], ids=["players-monitor_c", "players-weights", "weights"])
def test_learner_fields_the_algorithm_does_not_read_are_refused(tmp_path, fields, refused):
    # Set off its default, such a field would change the hash but no output.
    with pytest.raises(ConfigError, match=re.escape(f"- {refused}")):
        load_config(gradient_cfg(tmp_path, certified=False, **fields))


def test_bandit_mode_refuses_players(tmp_path):
    with pytest.raises(ConfigError, match="players is not read in bandit mode"):
        load_config(gradient_cfg(tmp_path, mode="bandit", players=[{}, {}]))


def test_a_config_is_checked_when_built():
    with pytest.raises(ConfigError, match="- game spec is required$"):
        ExperimentConfig(mode="gradient")


def test_a_built_config_cannot_be_reassigned(tmp_path):
    cfg = load_config(gradient_cfg(tmp_path))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.T = 5


@pytest.mark.parametrize("mode, fields, mutate", [
    ("gradient", {"players": [{}, {}], "certified": False},
     lambda spec: spec["players"][0].update(eta=0.05)),
    ("bandit", {"schedule": {"mode": "theory"}},
     lambda spec: spec["schedule"].update(mode="theory_d")),
    ("gradient", {}, lambda spec: spec["game"].update(seed=8)),
], ids=["players", "schedule", "game"])
def test_a_built_config_owns_its_specs(tmp_path, mode, fields, mutate):
    # Changing the caller's dicts after the build changes neither the run nor its hash.
    summaries = []
    for name in ("kept", "mutated"):
        written = json.loads(json.dumps({  # a deep copy: MODE_BASE stays as it is
            "mode": mode, **MODE_BASE[mode], "seeds": [0], "out_dir": str(tmp_path / name),
            **({"T": 50} if mode == "gradient" else {"epochs": 3}), **fields}))
        cfg = load_config(written)
        if name == "mutated":
            mutate(written)
        summary = harness.run(cfg)
        del summary["config"]["out_dir"]
        summaries.append(summary)
    assert summaries[0] == summaries[1]


@pytest.mark.parametrize("seeds, generated", [([0], 0), ([0, 1, 2], 2)])
def test_a_run_plays_the_game_its_build_resolved(tmp_path, monkeypatch, seeds, generated):
    # The first seed's game is the one the build checked; other seeds are resolved per run.
    cfg = load_config(gradient_cfg(tmp_path, game={"kind": "random_zs", "n": 2, "d": 3},
                                   T=20, seeds=seeds))
    calls = []
    monkeypatch.setattr(harness, "generate_game",
                        lambda *a, **kw: calls.append(kw["seed"]) or generate_game(*a, **kw))
    summary = harness.run(cfg)
    assert len(calls) == generated and calls == seeds[1:]
    assert summary["config_hash"] == config_hash(cfg) == cfg.hash


@pytest.mark.parametrize("mode, fields, edit", [
    ("gradient", {"game": {"kind": "random_zs", "n": 2, "d": 3}},
     lambda echo: echo["game"].update(d=4)),
    ("gradient", {"players": [{}, {"bias": [0.5, 0, 0]}], "certified": False},
     lambda echo: echo["players"][1]["bias"].__setitem__(0, 9.0)),
    ("bandit", {}, lambda echo: echo["schedule"].update(mode="theory_d")),
    ("fisher", {}, lambda echo: echo["market"].update(m=5)),
], ids=["game", "players", "schedule", "market"])
def test_editing_a_returned_summary_leaves_the_config_as_built(tmp_path, mode, fields, edit):
    # The summary echoes copies of the config's specs: a caller's edit of the
    # echo reaches neither the config, nor the seeds it resolves, nor its next run.
    cfg = load_config({"mode": mode, **MODE_BASE[mode], "seeds": [0, 1],
                       "out_dir": str(tmp_path / "out"),
                       **({"epochs": 3} if mode == "bandit" else {"T": 20}), **fields})
    built = json.dumps(cfg.to_dict(), sort_keys=True)
    summary = harness.run(cfg)
    edit(summary["config"])
    summary["config"]["seeds"].append(2)
    assert cfg.seeds == [0, 1]
    assert json.dumps(cfg.to_dict(), sort_keys=True) == built
    assert harness.run(cfg)["config"] != summary["config"]
    if mode == "gradient":
        assert cfg.instance(1).action_counts == (3, 3)


# -- runs ------------------------------------------------------------------


def test_gradient_run_outputs(tmp_path):
    cfg = load_config(gradient_cfg(tmp_path))
    summary = harness.run(cfg)
    out = tmp_path / "out"
    assert (out / "gradient_seed0.csv").exists()
    assert (out / "gradient_seed1.csv").exists()
    assert summary["schema_version"] == 3
    assert summary["prng"] == "numpy-PCG64"
    assert summary["passed"]
    assert len(summary["results"]) == 2
    for res in summary["results"]:
        (check,) = res["checks"]
        assert check["name"] == "bound_slack" and check["limit"] == -harness.TOL_BOUND
        assert check["value"] == res["bound_slack"] and check["passed"]
    assert summary["passed"] == all(c["passed"] for r in summary["results"] for c in r["checks"])
    on_disk = json.loads((out / "summary.json").read_text())
    assert on_disk["config_hash"] == summary["config_hash"]


@pytest.mark.parametrize("written", [
    pytest.param({"T": np.int64(50), "seeds": [np.int64(0), np.int64(1)]}, id="numpy-ints"),
    pytest.param({"T": 50, "seeds": [1, 0]}, id="unsorted-seeds"),
])
def test_configs_that_mean_one_run_write_one_summary(tmp_path, written):
    for name, fields in (("plain", {"T": 50, "seeds": [0, 1]}), ("written", written)):
        harness.run(load_config(gradient_cfg(tmp_path, **fields, out_dir=str(tmp_path / name))))
    summaries = [json.loads((tmp_path / name / "summary.json").read_text())
                 for name in ("plain", "written")]
    for summary in summaries:
        del summary["config"]["out_dir"]
    assert summaries[0] == summaries[1]
    assert summaries[1]["config"]["seeds"] == [0, 1]
    for csv in ("gradient_seed0.csv", "gradient_seed1.csv"):
        assert (tmp_path / "plain" / csv).read_bytes() == (tmp_path / "written" / csv).read_bytes()


@pytest.mark.parametrize("mode, spec, written", [
    ("gradient", "game", {"kind": "random_zs", "n": np.int64(2), "d": 3, "seed": 7}),
    ("gradient", "game", {"kind": "random_zs", "n": 2, "d": np.array([3, 3]),
                          "seed": np.int32(7)}),
    ("fisher", "market", {"m": np.int64(3), "n": 3, "seed": 2}),
], ids=["game-int64", "game-array", "market-int64"])
def test_numpy_numbers_in_an_instance_spec_mean_the_plain_run(tmp_path, mode, spec, written):
    # They failed to hash (TypeError: int64 is not JSON serializable).
    plain = {"mode": mode, spec: _plain_numbers(written), "T": 50, "seeds": [0]}
    assert config_hash(load_config({**plain, spec: written})) == config_hash(load_config(plain))
    for name, fields in (("plain", plain), ("written", {**plain, spec: written})):
        harness.run(load_config({**fields, "out_dir": str(tmp_path / name)}))
    summaries = [json.loads((tmp_path / name / "summary.json").read_text())
                 for name in ("plain", "written")]
    for summary in summaries:
        del summary["config"]["out_dir"]
    assert summaries[0] == summaries[1]
    csv = f"{mode}_seed0.csv"
    assert (tmp_path / "plain" / csv).read_bytes() == (tmp_path / "written" / csv).read_bytes()


@pytest.mark.parametrize("mode, field", [
    ("gradient", "out_dir"), ("gradient", "game"), ("fisher", "market"),
])
def test_paths_in_a_config_mean_their_str(tmp_path, mode, field):
    # They loaded, then failed to hash or to write summary.json
    # (TypeError: PosixPath is not JSON serializable).
    instance = {"game": generate_game("rps").to_dict(),
                "market": {"budgets": [1, 2], "valuations": [[1, 0.5], [0.5, 1]]}}
    spec = "market" if mode == "fisher" else "game"
    (tmp_path / "spec.json").write_text(json.dumps(instance[spec]))
    plain = {"mode": mode, spec: {"file": str(tmp_path / "spec.json")}, "T": 50, "seeds": [0]}
    runs = {"plain": {**plain, "out_dir": str(tmp_path / "plain")},
            "path": {**plain, "out_dir": str(tmp_path / "path")}}
    if field == "out_dir":
        runs["path"]["out_dir"] = tmp_path / "path"
    else:
        runs["path"][spec] = {"file": tmp_path / "spec.json"}
    cfgs = {name: load_config(fields) for name, fields in runs.items()}
    assert cfgs["path"].to_dict() == {**cfgs["plain"].to_dict(), "out_dir": str(tmp_path / "path")}
    assert config_hash(cfgs["path"]) == config_hash(cfgs["plain"])
    for cfg in cfgs.values():
        harness.run(cfg)
    summaries = [json.loads((tmp_path / name / "summary.json").read_text()) for name in runs]
    for summary in summaries:
        del summary["config"]["out_dir"]
    assert summaries[0] == summaries[1]
    csv = f"{mode}_seed0.csv"
    assert (tmp_path / "plain" / csv).read_bytes() == (tmp_path / "path" / csv).read_bytes()


@pytest.mark.parametrize("mode, field, spec, key", [
    ("fisher", "market", {"budgets": [1, 1]}, "valuations"),
    ("fisher", "market", {"file": "market.json"}, "valuations"),
    ("gradient", "game", {"inline": {"n": 2}}, "action_counts"),
    ("gradient", "game", {"file": "game.json"}, "edges"),
])
def test_a_spec_missing_a_key_names_it(tmp_path, mode, field, spec, key):
    # They said only "market spec invalid: 'valuations'" (a bare KeyError).
    (tmp_path / "market.json").write_text(json.dumps({"budgets": [1, 1]}))
    (tmp_path / "game.json").write_text(json.dumps({"n": 2, "action_counts": [2, 2]}))
    if "file" in spec:
        spec = {"file": str(tmp_path / spec["file"])}
    with pytest.raises(ConfigError, match=rf"- {field} spec invalid: missing key '{key}'$"):
        load_config({"mode": mode, field: spec})


_MP = generate_game("matching_pennies").to_dict()


@pytest.mark.parametrize("key, value", [
    ("zero_sum", "false"), ("zero_sum", 1), ("n", 2.9), ("n", True),
    ("action_counts", [2.6, 2]), ("action_counts", [True, 2]), ("i", 0.7), ("j", 1.0),
], ids=repr)
@pytest.mark.parametrize("form", ["file", "inline"])
def test_a_game_spec_key_of_the_wrong_json_type_is_refused_by_name(tmp_path, form, key, value):
    # zero_sum "false" loaded as zero-sum (bool("false") is True), and 2.9,
    # 2.6 and 0.7 loaded as 2, 2 and 0 (int()), each as another game.
    spec = json.loads(json.dumps(_MP))
    if key in ("i", "j"):
        spec["edges"][0][key] = value
        key = rf"edges\[0\]\.{key}"
    else:
        spec[key] = value
    path = tmp_path / "game.json"
    path.write_text(json.dumps(spec))
    message = rf"{key} must be (an integer|integers|true or false), got "
    with pytest.raises(ValueError, match=message):
        load_game(path)
    game = {"file": str(path)} if form == "file" else {"inline": spec}
    with pytest.raises(ConfigError, match="- game spec invalid: " + message):
        load_config({"mode": "gradient", "game": game})


def test_a_saved_game_loads_as_itself_with_numpy_integers_accepted(tmp_path):
    game = generate_game("random_general", n=3, d=[2, 3, 4], graph="cycle", seed=5)
    save_game(game, tmp_path / "game.json")
    assert load_game(tmp_path / "game.json").to_dict() == game.to_dict()
    spec = {**_MP, "n": np.int64(2), "action_counts": [np.int32(2), np.int64(2)],
            "zero_sum": np.bool_(True),
            "edges": [{**e, "i": np.int64(e["i"]), "j": np.int8(e["j"])} for e in _MP["edges"]]}
    assert PolymatrixGame.from_dict(spec).to_dict() == _MP


@pytest.mark.parametrize("market, named", [
    ({"budgets": ["1", "2"], "valuations": [[1, 0], [0, 1]]}, "budgets"),
    ({"budgets": [True, True], "valuations": [[1, 0], [0, 1]]}, "budgets"),
    ({"budgets": [1, True], "valuations": [[1, 0], [0, 1]]}, "budgets"),
    ({"budgets": [1, 2], "valuations": [[True, False], [False, True]]}, "valuations"),
    ({"budgets": [1, 2], "valuations": [[1, None], [0, 1]]}, "valuations"),
], ids=["string-budgets", "bool-budgets", "one-bool-budget", "bool-valuations",
        "null-valuation"])
def test_a_market_entry_that_is_not_a_real_number_is_refused_by_name(market, named):
    # The strings and bools loaded as numbers (np.asarray(..., dtype=float)).
    with pytest.raises(ConfigError, match=rf"- market spec invalid: {named} must be real numbers"):
        load_config({"mode": "fisher", "market": market})


def test_a_market_takes_int_and_float_entries_alike():
    spellings = [{"budgets": [1, 2], "valuations": [[1, 0], [2, 1]]},
                 {"budgets": [1.0, 2.0], "valuations": [[1.0, 0.0], [2.0, 1.0]]},
                 {"budgets": np.array([1, 2]), "valuations": np.array([[1, 0], [2, 1]])}]
    markets = [FisherMarket.from_dict(spec) for spec in spellings]
    assert all(m.to_dict() == spellings[1] for m in markets)


def test_numbers_spelled_as_ints_or_floats_hash_alike():
    # Each pair hashed apart: the inline specs and p were hashed as written.
    game = {"n": 2, "action_counts": [2, 2], "zero_sum": False, "edges": [
        {"i": 0, "j": 1, "matrix": [[1, 0], [0, 1]]}, {"i": 1, "j": 0, "matrix": [[0, 1], [1, 0]]}]}
    float_game = {**game, "edges": [{**e, "matrix": np.array(e["matrix"], float).tolist()}
                                    for e in game["edges"]]}
    market = {"budgets": [1, 2], "valuations": [[1, 0], [2, 1]]}
    float_market = {"budgets": [1.0, 2.0], "valuations": [[1.0, 0.0], [2.0, 1.0]]}
    gnp = {"kind": "random_zs", "n": 3, "graph": "gnp", "seed": 1, "p": 1}
    for mode, field, a, b in (("gradient", "game", {"inline": game}, {"inline": float_game}),
                              ("fisher", "market", market, float_market),
                              ("gradient", "game", gnp, {**gnp, "p": 1.0})):
        assert config_hash(load_config({"mode": mode, field: a})) == config_hash(
            load_config({"mode": mode, field: b})), (field, a)
    message = r"- game spec invalid: p, the gnp edge probability, must be a number in \[0, 1\]"
    with pytest.raises(ConfigError, match=message):
        load_config({"mode": "gradient", "game": {**gnp, "p": True}})


def _plain_numbers(spec):
    return {k: v.tolist() if isinstance(v, (np.generic, np.ndarray)) else v
            for k, v in spec.items()}


def test_rerun_byte_identical(tmp_path):
    cfg = load_config(gradient_cfg(tmp_path))
    harness.run(cfg)
    first = (tmp_path / "out" / "gradient_seed0.csv").read_bytes()
    harness.run(cfg)
    assert (tmp_path / "out" / "gradient_seed0.csv").read_bytes() == first


def test_game_seed_semantics(tmp_path):
    # explicit game seed: all run seeds see the same game and the gradient
    # dynamics are deterministic, so the CSVs coincide
    cfg = load_config(gradient_cfg(tmp_path))
    harness.run(cfg)
    out = tmp_path / "out"
    a = (out / "gradient_seed0.csv").read_bytes()
    b = (out / "gradient_seed1.csv").read_bytes()
    assert a == b
    # no game seed: each run seed generates its own instance
    cfg2 = load_config(gradient_cfg(tmp_path, game={"kind": "random_zs", "n": 2, "d": 3},
                                    out_dir=str(tmp_path / "out2")))
    harness.run(cfg2)
    a = (tmp_path / "out2" / "gradient_seed0.csv").read_bytes()
    b = (tmp_path / "out2" / "gradient_seed1.csv").read_bytes()
    assert a != b


def test_parallel_workers_match_serial(tmp_path):
    cfg = load_config(gradient_cfg(tmp_path, out_dir=str(tmp_path / "serial")))
    harness.run(cfg)
    cfg2 = load_config(gradient_cfg(tmp_path, out_dir=str(tmp_path / "par"), workers=2))
    harness.run(cfg2)
    for seed in (0, 1):
        a = (tmp_path / "serial" / f"gradient_seed{seed}.csv").read_bytes()
        b = (tmp_path / "par" / f"gradient_seed{seed}.csv").read_bytes()
        assert a == b


def test_importing_harness_leaves_the_process_pool_unloaded():
    # Only workers > 1 uses the pool, and it costs about a tenth of importing
    # a2l.harness; nothing in a2l logs.
    src = str(Path(harness.__file__).resolve().parents[1])
    code = ("import sys, a2l.harness; "
            "print([m in sys.modules for m in ('concurrent.futures.process', 'logging')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[False, False]"


def test_bandit_run_outputs(tmp_path):
    cfg = load_config({
        "mode": "bandit",
        "game": {"kind": "random_zs", "n": 2, "d": 3, "seed": 11},
        "epochs": 5,
        "seeds": [0],
        "out_dir": str(tmp_path / "b"),
    })
    summary = harness.run(cfg)
    assert summary["passed"]
    (res,) = summary["results"]
    assert res["recovery_slack_min"] >= -1e-6
    assert [(c["name"], c["value"], c["limit"]) for c in res["checks"]] == [
        (key, res[key], -harness.TOL_AUDIT)
        for key in ("recovery_slack_min", "regret_bound_slack_min")]
    assert summary["passed"] == all(c["passed"] for c in res["checks"])
    assert (tmp_path / "b" / "bandit_seed0.csv").exists()


def test_fisher_run_outputs(tmp_path):
    cfg = load_config({
        "mode": "fisher",
        "market": {"m": 3, "n": 3, "seed": 4},
        "T": 150,
        "seeds": [0],
        "out_dir": str(tmp_path / "f"),
    })
    summary = harness.run(cfg)
    assert summary["passed"]
    (res,) = summary["results"]
    assert res["conservation_dev"] <= 1e-9
    (check,) = res["checks"]
    assert (check["name"], check["value"]) == ("conservation_dev", res["conservation_dev"])
    assert check["limit"] == harness.TOL_CONSERVATION
    assert summary["passed"] == check["passed"]


# -- rate fitting ------------------------------------------------------------


def test_fit_rate_exact_power_laws():
    ts = np.arange(1, 2001)
    fit = fit_rate(ts, 3.0 / ts)
    assert fit["slope"] == pytest.approx(-1.0, abs=1e-6)
    assert fit["stderr"] < 1e-6
    fit = fit_rate(ts, ts ** -0.2)
    assert fit["slope"] == pytest.approx(-0.2, abs=1e-6)


def test_fit_rate_window_and_exclusions():
    ts = np.arange(1, 101)
    vals = 1.0 / ts
    vals[:5] = 0.0  # nonpositive points are dropped and counted
    fit = fit_rate(ts, vals, t_min=1, t_max=50)
    assert fit["n_excluded"] == 5
    assert fit["n_used"] == 45
    with pytest.raises(ValueError, match="at least 10"):
        fit_rate(ts[:8], vals[:8])


# -- verify registry -----------------------------------------------------------


def test_unknown_suite_lists_available():
    with pytest.raises(KeyError, match="mwu-contrast"):
        verify.run_suite("nope")


def test_suite_runs_and_reports():
    res = verify.run_suite("mwu-contrast")
    assert res.passed
    assert "bare MWU" in res.report()


@pytest.mark.parametrize("op, strict", [("<=", False), ("<", True), (">=", False), (">", True)])
@pytest.mark.parametrize("offset", [-1e-3, 0.0, 1e-3])
def test_check_compares_value_to_limit(op, strict, offset):
    check = Check("x", 0.5 + offset, op, 0.5)
    on_passing_side = offset < 0 if op.startswith("<") else offset > 0
    assert check.passed == (on_passing_side or (offset == 0.0 and not strict))
    assert check.slack == pytest.approx(abs(offset) if on_passing_side else -abs(offset))
    # the slack's sign tells the verdict; strict comparisons fail at zero slack
    assert check.passed == (check.slack > 0 if strict else check.slack >= 0)
    assert check.to_dict() == {"name": "x", "value": 0.5 + offset, "op": op, "limit": 0.5,
                               "slack": check.slack, "passed": check.passed}


def test_suite_result_derives_from_its_checks():
    good = Check("drift", 1e-13, "<=", 1e-12)
    bad = Check("worst gap", 0.25, "<", 0.01)
    res = verify.SuiteResult("demo", [good, bad], {"runs": 3})
    assert not res.passed
    text = res.report()
    assert text.startswith("[FAIL] demo")
    assert "[FAIL] worst gap = 0.25" in text and "runs = 3" in text
    assert res.details["checks"][1] == {"name": "worst gap", "value": 0.25, "op": "<",
                                        "limit": 0.01, "slack": bad.slack, "passed": False}
    assert res.details["checks"][1]["slack"] == pytest.approx(-0.24)
    assert res.details["runs"] == 3
    assert verify.SuiteResult("demo", [good]).passed
    # "all" nests the suite results as its checks
    outer = verify.SuiteResult("all", [verify.SuiteResult("ok", [good]), res])
    assert not outer.passed and "\n  [FAIL] demo\n" in outer.report()
    assert "\n    [FAIL] worst gap" in outer.report()


# -- CLI -----------------------------------------------------------------------


def test_cli_gen_and_run(tmp_path):
    game_path = tmp_path / "g.json"
    rc = cli.main(["gen", "--kind", "random_zs", "--players", "2",
                   "--actions", "3", "--seed", "7", "--out", str(game_path)])
    assert rc == 0
    assert json.loads(game_path.read_text()) == generate_game(
        "random_zs", n=2, d=3, seed=7).to_dict()

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "game": {"file": str(game_path)},
        "T": 100,
        "seeds": [0],
    }))
    rc = cli.main(["run-gradient", "--config", str(cfg_path),
                   "--out", str(tmp_path / "runout")])
    assert rc == 0
    assert (tmp_path / "runout" / "gradient_seed0.csv").exists()

    rc = cli.main(["fit-rate", "--csv", str(tmp_path / "runout" / "gradient_seed0.csv"),
                   "--column", "tgap_avg", "--t-min", "10"])
    assert rc == 0


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "game": {"kind": "matching_pennies"},
        "T": 50,
        "seeds": [0],
    }))
    rc = cli.main(["run-gradient", "--config", str(cfg_path),
                   "--out", str(tmp_path / "o"), "--seeds", "3,4"])
    assert rc == 0
    assert (tmp_path / "o" / "gradient_seed3.csv").exists()
    assert (tmp_path / "o" / "gradient_seed4.csv").exists()


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"game": {"kind": "rps"}, "T": 0, "seeds": [0]}))
    rc = cli.main(["run-gradient", "--config", str(cfg_path),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "T must" in capsys.readouterr().err


@pytest.mark.parametrize("schedule, epochs, named", [
    ({"mode": "custom", "coeff": 1e18, "power": 4}, 3, "epoch length B_t at t=3 exceeds int64"),
    ({"mode": "custom", "coeff": 1e19, "power": -1}, 3, "epoch length B_t at t=1 exceeds int64"),
    ({"mode": "theory"}, 60000, "epoch length B_t at t=60000 exceeds int64"),
    ({"mode": "custom", "coeff": 1, "power": 1, "eps_power": -1000}, 3,
     "mixing rate must be in (0, 1], got 0.0 at t=3"),
    ({"mode": "custom", "coeff": 1, "power": 1, "eps_coeff": float("nan")}, 3,
     "eps_coeff must be finite, got nan"),
    ({"mode": "custom", "coeff": 1, "power": 1, "eps_coeff": 0}, 3,
     "eps_coeff must be > 0 so eps_t > 0, got 0.0"),
    # B_t = 1 in every epoch, but no run plays 2^64 epochs
    ({"mode": "custom", "coeff": 1, "power": 0}, 2**64,
     "epoch t=18446744073709551616 exceeds int64"),
], ids=["B_t-at-last-epoch", "B_t-at-first-epoch", "theory-B_t", "eps_t-underflow",
        "nan-eps_coeff", "zero-eps_coeff", "epochs-past-int64"])
def test_cli_refuses_a_bandit_schedule_its_run_cannot_play(tmp_path, capsys, schedule, epochs,
                                                            named):
    # B_t and eps_t are checked at the first and last epoch when the config is built.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mode": "bandit", **MODE_BASE["bandit"], "seeds": [0],
                                    "schedule": schedule, "epochs": epochs,
                                    "certified": False}))
    rc = cli.main(["run-bandit", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"- schedule invalid: {named}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_refuses_a_bandit_game_paying_outside_the_unit_interval(tmp_path, capsys):
    # Player 0 is paid 3 at (0, 0): reward 2.0 after the map r -> (r + 1) / 2.
    game = {"n": 2, "action_counts": [2, 2], "zero_sum": True, "edges": [
        {"i": 0, "j": 1, "matrix": [[3.0, 0.0], [0.0, 0.0]]},
        {"i": 1, "j": 0, "matrix": [[-3.0, 0.0], [0.0, 0.0]]}]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"game": {"inline": game}, "epochs": 3, "seeds": [0]}))
    rc = cli.main(["run-bandit", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert ("- game invalid in bandit mode: player 0: rewards outside [0, 1] after "
            "normalization: [0.5, 2.0]") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_refuses_a_one_player_bandit_game(tmp_path, capsys):
    game = {"n": 1, "action_counts": [3], "zero_sum": False, "edges": []}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"game": {"inline": game}, "epochs": 3, "seeds": [0]}))
    rc = cli.main(["run-bandit", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert ("- game invalid in bandit mode: bandit rewards need at least two players, "
            "got 1") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--seeds", "1,,2", "--seeds must be comma-separated integers, got '1,,2'"),
    ("--seeds", "a", "--seeds must be comma-separated integers, got 'a'"),
    ("--seeds", "-1", "seeds must be a nonempty list of distinct non-negative integers, "
                      "got [-1]"),
    ("--workers", "0", "workers must be a positive integer, got 0"),
])
def test_cli_refuses_bad_overrides(tmp_path, capsys, flag, value, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"game": {"kind": "rps"}, "T": 10, "seeds": [0]}))
    rc = cli.main(["run-gradient", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                   flag, value])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, named", [
    (["run-gradient", "--config", "{tmp}/missing.json"], "missing.json"),
    (["run-fisher", "--config", "{tmp}/broken.json"], "broken.json"),
    (["run-bandit", "--config", "{tmp}/list.json"], "list.json"),
    (["fit-rate", "--csv", "{tmp}/missing.csv"], "missing.csv"),
    (["fit-rate", "--csv", "{tmp}/run.csv", "--column", "tgap_typo"], "'tgap_typo'"),
    (["fit-rate", "--csv", "{tmp}/short.csv"], "short.csv line 3, column 'tgap_last': no value"),
    (["fit-rate", "--csv", "{tmp}/text.csv"],
     "text.csv line 2, column 'tgap_last': 'abc' is not a number"),
    (["gen", "--kind", "rps", "--players", "5", "--actions", "7", "--out", "{tmp}/g.json"],
     "game.n is not read by rps games"),
    (["gen", "--kind", "random_zs", "--graph", "cycle", "--p", "0.9", "--out", "{tmp}/g.json"],
     "game.p is not read by cycle graph games"),
    (["gen", "--kind", "nope", "--out", "{tmp}/g.json"], "unknown game kind 'nope'"),
    (["gen", "--kind", "random_zs", "--players", "1", "--out", "{tmp}/g.json"], "n >= 2"),
], ids=["missing-config", "invalid-json", "json-list", "missing-csv", "unknown-column",
        "short-row", "non-numeric-cell", "gen-unread-players", "gen-unread-p",
        "gen-unknown-kind", "gen-one-player"])
def test_cli_bad_input_exits_2_with_one_line_naming_it(tmp_path, capsys, argv, named):
    (tmp_path / "broken.json").write_text('{"T": 10,')
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "run.csv").write_text("t,tgap_last\n1,0.5\n2,0.25\n")
    (tmp_path / "short.csv").write_text("t,tgap_last\n1,0.5\n2\n")
    (tmp_path / "text.csv").write_text("t,tgap_last\n1,abc\n2,0.25\n")
    rc = cli.main([a.format(tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1 and named in err, err


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "rps", "--out", "{tmp}/file/g.json"],
    ["run-gradient", "--config", "{tmp}/gradient.json", "--out", "{tmp}/file/o"],
    ["run-bandit", "--config", "{tmp}/bandit.json", "--out", "{tmp}/file/o"],
    ["run-fisher", "--config", "{tmp}/fisher.json", "--out", "{tmp}/file/o"],
    ["verify", "mwu-contrast", "--out", "{tmp}/file/report.json"],
    ["verify", "mwu-contrast", "--out", "{tmp}"],
], ids=["gen", "run-gradient", "run-bandit", "run-fisher", "verify", "verify-to-a-directory"])
def test_cli_refuses_an_output_path_it_cannot_write(tmp_path, capsys, argv):
    # A regular file stands where the output's parent directory should be.
    (tmp_path / "file").write_text("kept")
    for mode, base in MODE_BASE.items():
        (tmp_path / f"{mode}.json").write_text(json.dumps({**base, "seeds": [0]}))
    before = sorted(tmp_path.iterdir())
    rc = cli.main([a.format(tmp=tmp_path) for a in argv])
    out, err = capsys.readouterr()
    assert rc == 2 and err.count("\n") == 1, err
    assert "Traceback" not in out + err and out == ""  # refused before any run or suite
    assert argv[-1].format(tmp=tmp_path) in err
    assert sorted(tmp_path.iterdir()) == before and (tmp_path / "file").read_text() == "kept"


def test_cli_unknown_suite(tmp_path, capsys):
    rc = cli.main(["verify", "wrong-name"])
    assert rc == 2
    assert "available" in capsys.readouterr().err


def test_cli_verify_writes_report(tmp_path):
    report = tmp_path / "report.json"
    rc = cli.main(["verify", "mwu-contrast", "--out", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["passed"] is True
    checks = data["details"]["checks"]
    assert len(checks) == 2
    for check in checks:
        assert {"name", "value", "limit", "slack", "passed"} <= set(check)
        assert check["passed"] is True
