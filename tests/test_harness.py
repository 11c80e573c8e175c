import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2l import cli, harness, verify
from a2l.games import generate_game
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
    if mode == "gradient":
        players = [{"eta": 0.5, "monitor_c": 2}, {"eta": 0.5}]
        assert hash_of(players=players) == hash_of(
            players=[{"eta": 0.5, "monitor_c": 2.0}, {"eta": 0.5}])
    else:
        schedule = {"mode": "custom", "coeff": 10, "power": 1}
        assert hash_of(certified=False, schedule=schedule) == hash_of(
            certified=False, schedule={**schedule, "coeff": 10.0, "power": 1.0})


@settings(max_examples=40, deadline=None)
@given(
    mode=st.sampled_from(["gradient", "bandit", "fisher"]),
    eta_share=st.none() | st.floats(0.01, 1.0),
    weights=st.sampled_from(["uniform", "linear"]),
    T=st.integers(1, 10**6),
    epochs=st.integers(1, 40),
    seeds=st.lists(st.integers(0, 2**31), min_size=1, max_size=4),
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
    defaults = ExperimentConfig().to_dict()
    assert all(NON_DEFAULT[k] != defaults[k] for k in fields)


@pytest.mark.parametrize("mode, field", [(m, f) for m in MODE_BASE for f in NON_DEFAULT])
def test_a_mode_accepts_its_fields_and_refuses_the_rest(tmp_path, mode, field):
    cfg = {"mode": mode, **MODE_BASE[mode], field: NON_DEFAULT[field],
           "out_dir": str(tmp_path / "o")}
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
    guarded = {"algo": "guarded-a2l-omwu", "monitor_c": -1e9}
    load_config(gradient_cfg(tmp_path, players=[guarded, guarded]))


def test_bandit_mode_refuses_players(tmp_path):
    with pytest.raises(ConfigError, match="players is not read in bandit mode"):
        load_config(gradient_cfg(tmp_path, mode="bandit", players=[{}, {}]))


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
    assert rc == 0 and game_path.exists()

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


@pytest.mark.parametrize("flag, value, message", [
    ("--seeds", "1,,2", "--seeds must be comma-separated integers, got '1,,2'"),
    ("--seeds", "a", "--seeds must be comma-separated integers, got 'a'"),
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
