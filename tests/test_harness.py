import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2l import cli, harness, verify
from a2l.harness import ConfigError, ExperimentConfig, config_hash, fit_rate, load_config


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
    cfg = load_config({
        "mode": mode, "game": {"kind": "random_zs", "n": 2, "d": 3, "seed": 7},
        "market": {"m": 2, "n": 3, "seed": 1},
        "eta": None if eta_share is None else eta_share * limit,
        "weights": weights, "T": T, "epochs": epochs, "seeds": seeds, "delta": delta,
        "monitor_c": monitor_c, "out_dir": out_dir, "workers": workers,
    })
    again = load_config(json.loads(json.dumps(cfg.to_dict())))
    assert again.to_dict() == cfg.to_dict()
    assert config_hash(again) == config_hash(cfg)
    moved = load_config({**cfg.to_dict(), "out_dir": out_dir + "2", "workers": workers + 1})
    assert config_hash(moved) == config_hash(cfg)


# -- runs ------------------------------------------------------------------


def test_gradient_run_outputs(tmp_path):
    cfg = load_config(gradient_cfg(tmp_path))
    summary = harness.run(cfg)
    out = tmp_path / "out"
    assert (out / "gradient_seed0.csv").exists()
    assert (out / "gradient_seed1.csv").exists()
    assert summary["schema_version"] == 2
    assert summary["prng"] == "numpy-PCG64"
    assert summary["passed"]
    assert len(summary["results"]) == 2
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
    assert summary["results"][0]["recovery_slack_min"] >= -1e-6
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
    assert summary["results"][0]["conservation_dev"] <= 1e-9


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
