"""Config-driven experiment runner: validation, execution, persistence.

Configs are plain JSON.  A run produces one CSV per seed plus a summary
JSON (schema_version, config hash, PRNG name, per-seed results).  Each
seed's result lists its invariant checks as ``Check`` records (name,
observed value, comparison, limit, slack, passed); the summary's "passed"
is true exactly when every check passed.  The verify suites report through
the same record.  Identical configs reproduce byte-identical CSVs.  Random
games and markets described without an explicit seed are regenerated per
run seed, so multi-seed suites sweep instances; with an explicit seed the
instance is fixed and only the sampling varies.

Certified runs are refused when the step size or schedule violates the
conditions that back the convergence guarantees (gradient: eta <= 1/(2(n-1));
bandit: theory schedule and eta <= 1/(6n)).  Set "certified": false to run
anyway; bandit runs then proceed flagged, with a warning.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import operator
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import bandit as bandit_mod
from . import dynamics as dyn
from . import fisher as fisher_mod
from .games import PolymatrixGame, generate_game, load_game
from .reduction import WEIGHT_RULES

SCHEMA_VERSION = 3  # 3: each per-seed result carries its "checks" records
PRNG_NAME = "numpy-PCG64"
TOL_BOUND = 1e-9  # slack allowed on the paper's gap and regret bounds
TOL_AUDIT = 1e-6  # slack allowed on the bandit reconstruction and regret audits
TOL_CONSERVATION = 1e-9  # |sum of prices - sum of budgets| allowed in Fisher runs

log = logging.getLogger("a2l")
log.setLevel(os.environ.get("A2L_LOG_LEVEL", "WARNING").upper())


class ConfigError(ValueError):
    """Invalid experiment config; message enumerates every problem found."""


_COMPARE = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}


@dataclass(frozen=True)
class Check:
    """One invariant check: the observed ``value`` must satisfy ``value op limit``.

    ``slack`` is the signed distance to the limit, positive on the passing
    side; a strict comparison fails at zero slack.
    """

    name: str
    value: float
    op: str
    limit: float

    @property
    def passed(self) -> bool:
        return bool(_COMPARE[self.op](self.value, self.limit))

    @property
    def slack(self) -> float:
        return self.limit - self.value if self.op in ("<=", "<") else self.value - self.limit

    def to_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "op": self.op, "limit": self.limit,
                "slack": self.slack, "passed": self.passed}

    def report(self) -> str:
        return (f"[{'ok' if self.passed else 'FAIL'}] {self.name} = {self.value:.4g} "
                f"({self.op} {self.limit:g}, slack {self.slack:.3g})")


@dataclass
class ExperimentConfig:
    mode: str = "gradient"
    game: dict | None = None
    market: dict | None = None
    algo: str = "a2l-omwu"
    players: list | None = None
    eta: float | None = None
    weights: str = "uniform"
    T: int = 1000
    epochs: int = 12
    schedule: dict = field(default_factory=lambda: {"mode": "theory"})
    seeds: list = field(default_factory=lambda: [0])
    delta: float = 0.05
    monitor_c: float = 4.0
    certified: bool = True
    out_dir: str = "out"
    workers: int = 1

    def to_dict(self) -> dict:
        return {**asdict(self), "seeds": list(self.seeds)}


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the fields that change results: not out_dir, not workers."""
    fields = {k: v for k, v in cfg.to_dict().items() if k not in ("out_dir", "workers")}
    blob = json.dumps(fields, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def load_config(source) -> ExperimentConfig:
    """Build and validate a config from a dict or a JSON file path."""
    if isinstance(source, (str, Path)):
        if not Path(source).exists():
            raise ConfigError(f"config file not found: {source}")
        with open(source) as f:
            data = json.load(f)
    else:
        data = dict(source)
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(data) - known
    errors = [f"unknown config field {k!r}" for k in sorted(unknown)]
    cfg = ExperimentConfig(**{k: v for k, v in data.items() if k in known})
    errors += validate_config(cfg)
    if errors:
        raise ConfigError("invalid config:\n  - " + "\n  - ".join(errors))
    return cfg


def _integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _number(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


# Learner fields checked alike at the top level and in each "players" entry:
# field -> (test, what the value must be).
_LEARNER_CHECKS = {
    "algo": (lambda v: v in dyn.ALGORITHMS, f"one of {dyn.ALGORITHMS}"),
    "eta": (lambda v: v is None or (_number(v) and 0 < v < math.inf), "a positive finite number"),
    "weights": (lambda v: v in sorted(WEIGHT_RULES), f"one of {sorted(WEIGHT_RULES)}"),
    "monitor_c": (lambda v: _number(v) and not math.isnan(v), "a number"),
}


def _learner_errors(fields: dict, prefix="") -> list:
    """Problems of the learner fields present in ``fields``, named prefix + field."""
    return [f"{prefix}{k} must be {what}, got {fields[k]!r}"
            for k, (ok, what) in _LEARNER_CHECKS.items() if k in fields and not ok(fields[k])]


def _player_errors(players, dims) -> list:
    """Problems of the per-player specs; dims are the game's action counts."""
    if not (isinstance(players, list) and all(isinstance(p, dict) for p in players)):
        return [f"players must be a list of player specs (objects), got {players!r}"]
    errors = []
    if dims and len(players) != len(dims):
        errors.append(f"players must have one spec per player ({len(dims)}), got {len(players)}")
    for i, spec in enumerate(players):
        errors += [f"players[{i}].{k} must not be set: unknown player field"
                   for k in sorted(set(spec) - set(dyn.LearnerSpec.__dataclass_fields__))]
        errors += _learner_errors(spec, f"players[{i}].")
        bias = spec.get("bias")
        if bias is not None and i < len(dims) and not (
                isinstance(bias, list) and len(bias) == dims[i]
                and all(_number(b) and math.isfinite(b) for b in bias)):
            errors.append(f"players[{i}].bias must be {dims[i]} finite numbers, got {bias!r}")
    return errors


def validate_config(cfg: ExperimentConfig) -> list:
    """Collect every validation problem; empty list means the config is fine.

    Field types are checked before any range, so a wrongly typed field is
    reported by name instead of failing a comparison.
    """
    errors = []
    if cfg.mode not in ("gradient", "bandit", "fisher"):
        errors.append(f"mode must be gradient, bandit or fisher, got {cfg.mode!r}")
    seeds_ok = (isinstance(cfg.seeds, list) and len(cfg.seeds) > 0
                and all(_integer(s) for s in cfg.seeds))
    if not seeds_ok:
        errors.append(f"seeds must be a nonempty list of integers, got {cfg.seeds!r}")
    used = {"T": cfg.mode in ("gradient", "fisher"), "epochs": cfg.mode == "bandit",
            "workers": True}
    for name, in_use in used.items():
        value = getattr(cfg, name)
        if not _integer(value):
            errors.append(f"{name} must be an integer, got {value!r}")
        elif in_use and value < 1:
            errors.append(f"{name} must be at least 1")
    learner = {"eta": cfg.eta, "weights": cfg.weights, "monitor_c": cfg.monitor_c}
    if cfg.mode == "gradient":
        learner["algo"] = cfg.algo
    errors += _learner_errors(learner)
    # A field the mode does not read is refused rather than dropped.
    if cfg.mode == "gradient" and cfg.monitor_c != ExperimentConfig.monitor_c:
        errors.append("monitor_c is not read in gradient mode: set players[i].monitor_c "
                      "for each guarded-a2l-omwu player")
    if cfg.mode == "bandit" and cfg.players is not None:
        errors.append("players is not read in bandit mode: every player runs the top-level "
                      "eta and monitor_c")
    if not (_number(cfg.delta) and 0.0 < cfg.delta < 1.0):
        errors.append(f"delta must be a number in (0, 1), got {cfg.delta!r}")
    if not isinstance(cfg.certified, bool):
        errors.append(f"certified must be true or false, got {cfg.certified!r}")

    game = None
    if cfg.mode in ("gradient", "bandit"):
        if cfg.game is None:
            errors.append("game spec is required")
        else:
            if "file" in cfg.game and not Path(cfg.game["file"]).exists():
                errors.append(f"game file not found: {cfg.game['file']}")
            try:
                game = resolve_game(cfg.game, seed=cfg.seeds[0] if seeds_ok else 0)
            except Exception as exc:  # surfaced as config problem
                errors.append(f"game spec invalid: {exc}")
    if cfg.players is not None:
        errors += _player_errors(cfg.players, game.action_counts if game is not None else ())
    if game is not None and cfg.certified:
        etas = {"eta": cfg.eta}
        if cfg.mode == "gradient" and isinstance(cfg.players, list):
            etas.update((f"players[{i}].eta", p.get("eta"))
                        for i, p in enumerate(cfg.players) if isinstance(p, dict))
        rule, limit = (("1/(2(n-1))", dyn.gradient_step_size(game.n)) if cfg.mode == "gradient"
                       else ("1/(6n)", bandit_mod.bandit_step_size(game.n)))
        for name, eta in etas.items():
            if eta is not None and not _learner_errors({"eta": eta}) and eta > limit + 1e-12:
                errors.append(f"certified {cfg.mode} runs need {name} <= {rule} = {limit}; "
                              f"got {name} = {eta}")
        # The certified gap bound has one eta: the one every player runs.
        own = [(name, dyn.gradient_step_size(game.n) if eta is None else eta)
               for name, eta in etas.items() if name != "eta"]
        odd = [f"{name} = {eta}" for name, eta in own if eta != own[0][1]]
        if odd:
            errors.append(f"certified gradient runs need one eta for all players; "
                          f"got {odd[0]} but {own[0][0]} = {own[0][1]}")
    if cfg.mode == "bandit":
        try:
            sched = resolve_schedule(cfg.schedule)
            if cfg.certified and not sched.certified:
                errors.append(
                    "certified bandit runs need a theory schedule "
                    "(B_t >= t^4, eps_t = 1/t); set certified: false to override"
                )
        except Exception as exc:
            errors.append(f"schedule invalid: {exc}")
    if cfg.mode == "fisher":
        if cfg.market is None:
            errors.append("market spec is required")
        elif "file" in cfg.market and not Path(cfg.market["file"]).exists():
            errors.append(f"market file not found: {cfg.market['file']}")
    return errors


def resolve_game(spec: dict, seed=0) -> PolymatrixGame:
    """Game from {"file": path}, {"inline": dict} or generator kwargs.

    Generator specs without an explicit "seed" use the run seed, so seed
    sweeps range over game instances.
    """
    if "file" in spec:
        return load_game(spec["file"])
    if "inline" in spec:
        return PolymatrixGame.from_dict(spec["inline"])
    kw = dict(spec)
    kind = kw.pop("kind")
    kw.setdefault("seed", seed)
    return generate_game(kind, **kw)


def resolve_market(spec: dict, seed=0) -> fisher_mod.FisherMarket:
    if "file" in spec:
        return fisher_mod.load_market(spec["file"])
    if "budgets" in spec:
        return fisher_mod.FisherMarket.from_dict(spec)
    kw = dict(spec)
    kw.setdefault("seed", seed)
    return fisher_mod.random_linear_market(kw["m"], kw["n"], seed=kw["seed"])


def resolve_schedule(spec: dict) -> bandit_mod.EpochSchedule:
    return bandit_mod.EpochSchedule(**spec)


def _learner_specs(cfg: ExperimentConfig, game: PolymatrixGame):
    if cfg.players is not None:
        return [dyn.LearnerSpec(**p) for p in cfg.players]
    return [
        dyn.LearnerSpec(algo=cfg.algo, eta=cfg.eta, weights=cfg.weights)
        for _ in range(game.n)
    ]


# -- per-seed cells ----------------------------------------------------------


def _gradient_cell(cfg: ExperimentConfig, seed: int) -> dict:
    game = resolve_game(cfg.game, seed=seed)
    specs = _learner_specs(cfg, game)
    traj = dyn.run_full_feedback(game, specs, cfg.T, seed=seed)
    # Certified runs have one eta (validate_config); otherwise the loosest bound.
    eta = min(dyn.gradient_step_size(game.n) if s.eta is None else s.eta for s in specs)
    bound = float(np.log(game.action_counts).sum()) / (eta * cfg.T)
    final_gap = float(traj.tgap_played[-1])
    result = {
        "seed": seed,
        "final_tgap_last": final_gap,
        "final_tgap_avg": float(traj.tgap_inner_avg[-1]),
        "gap_bound": bound,
        "bound_slack": bound - final_gap,
    }
    csv_text = "\n".join(dyn.trajectory_csv_lines(traj)) + "\n"
    checks = [Check("bound_slack", bound - final_gap, ">=", -TOL_BOUND)] if cfg.certified else []
    return {"result": result, "csv": csv_text, "checks": checks}


def _bandit_cell(cfg: ExperimentConfig, seed: int) -> dict:
    game = resolve_game(cfg.game, seed=seed)
    sched = resolve_schedule(cfg.schedule)
    with warnings.catch_warnings():
        if not cfg.certified:
            warnings.simplefilter("ignore")
        traj = bandit_mod.run_bandit(
            game, sched, eta=cfg.eta, seed=seed, delta=cfg.delta,
            epochs=cfg.epochs, monitor_c=cfg.monitor_c,
        )
    truth = bandit_mod.audit_truths(traj, game)
    rec = bandit_mod.recovery_error_audit(traj, truth)
    reg = bandit_mod.regret_error_bound_audit(traj, truth)
    est = bandit_mod.estimation_error_audit(traj, truth)
    result = {
        "seed": seed,
        "final_tgap_mixed": float(traj.tgap_mixed[-1]),
        "recovery_slack_min": float(
            min(rec["slack_first_order"].min(), rec["slack_second_order"].min())
        ),
        "regret_bound_slack_min": float(reg["slack"].min()),
        "estimation_violations": est["violations"],
        "switch_epochs": traj.switch_epoch,
        "certified": traj.meta["certified"],
    }
    checks = [Check(key, result[key], ">=", -TOL_AUDIT)
              for key in ("recovery_slack_min", "regret_bound_slack_min")]
    csv_text = "\n".join(bandit_mod.bandit_csv_lines(traj, truth)) + "\n"
    return {"result": result, "csv": csv_text, "checks": checks}


def _fisher_cell(cfg: ExperimentConfig, seed: int) -> dict:
    market = resolve_market(cfg.market, seed=seed)
    out = fisher_mod.run_a2l_prd(market, cfg.T)
    p = out["played_prices"]
    gaps = fisher_mod.market_gap(market, p, spend=out["played_spends"]).max(axis=1)
    conservation = float(np.abs(p.sum(axis=1) - market.budgets.sum()).max())
    result = {
        "seed": seed,
        "final_prices": p[-1].tolist(),
        "final_gap": float(gaps[-1]),
        "conservation_dev": conservation,
    }
    csv_text = "\n".join(fisher_mod.price_csv_lines(p, gaps)) + "\n"
    checks = [Check("conservation_dev", conservation, "<=", TOL_CONSERVATION)]
    return {"result": result, "csv": csv_text, "checks": checks}


_CELLS = {"gradient": _gradient_cell, "bandit": _bandit_cell, "fisher": _fisher_cell}


def _run_cell(cfg_dict: dict, seed: int) -> dict:
    cfg = ExperimentConfig(**cfg_dict)
    return _CELLS[cfg.mode](cfg, seed)


def run(cfg: ExperimentConfig) -> dict:
    """Execute all seeds of a validated config and persist the outputs.

    Returns the summary dict (also written to out_dir/summary.json).  Each
    per-seed result lists its check records under "checks"; the summary's
    "passed" is true exactly when all of them passed.
    """
    errors = validate_config(cfg)
    if errors:
        raise ConfigError("invalid config:\n  - " + "\n  - ".join(errors))
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    seeds = sorted(cfg.seeds)
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            cells = list(pool.map(_run_cell, [cfg.to_dict()] * len(seeds), seeds))
    else:
        cells = [_run_cell(cfg.to_dict(), s) for s in seeds]

    results = []
    for seed, cell in zip(seeds, cells):  # merged in deterministic seed order
        csv_path = out_dir / f"{cfg.mode}_seed{seed}.csv"
        with open(csv_path, "w", newline="\n") as f:
            f.write(cell["csv"])
        results.append({**cell["result"], "checks": [c.to_dict() for c in cell["checks"]]})
        log.info("seed %s -> %s", seed, csv_path)

    summary = {
        "schema_version": SCHEMA_VERSION,
        "mode": cfg.mode,
        "config": cfg.to_dict(),
        "config_hash": config_hash(cfg),
        "prng": PRNG_NAME,
        "results": results,
        "passed": all(c.passed for cell in cells for c in cell["checks"]),
    }
    with open(out_dir / "summary.json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    return summary


# -- rate fitting ------------------------------------------------------------


def fit_rate(ts, values, t_min=None, t_max=None) -> dict:
    """Least-squares slope of log(value) against log(t) inside a window.

    Nonpositive values in the window are excluded and counted.  Requires at
    least 10 usable points.  Returns slope, its standard error, and counts.
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = np.ones(len(ts), dtype=bool)
    if t_min is not None:
        keep &= ts >= t_min
    if t_max is not None:
        keep &= ts <= t_max
    in_window = int(keep.sum())
    keep &= values > 0
    excluded = in_window - int(keep.sum())
    n = int(keep.sum())
    if n < 10:
        raise ValueError(f"need at least 10 positive points in the window, got {n}")
    x = np.log(ts[keep])
    y = np.log(values[keep])
    xc = x - x.mean()
    slope = float((xc @ y) / (xc @ xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = max(n - 2, 1)
    stderr = float(np.sqrt((resid @ resid) / dof / (xc @ xc)))
    return {"slope": slope, "stderr": stderr, "n_used": n, "n_excluded": excluded}
