"""Config-driven experiment runner: validation, execution, persistence.

Configs are plain JSON; ``MODE_FIELDS`` lists the fields each mode reads.
A run produces one CSV per seed plus a summary JSON (schema_version, the
fields the mode read, the full config's hash, PRNG name, per-seed results).
Each seed's result lists its invariant checks as ``Check`` records (name,
observed value, comparison, limit, slack, passed); the summary's "passed"
is true exactly when every check passed.  The verify suites report through
the same record.  Each seed's run returns its CSV as a header and columns;
once every seed has run, the CSVs are written line by line, so a failed run
writes none.  Identical configs reproduce byte-identical CSVs.  Random
games and markets described without a seed are regenerated per run seed,
so multi-seed suites sweep instances.

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
import typing
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import bandit as bandit_mod
from . import dynamics as dyn
from . import fisher as fisher_mod
from .csvrows import _csv_lines
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
    monitor_c: float = bandit_mod.MONITOR_C
    certified: bool = True
    out_dir: str = "out"
    workers: int = 1

    def to_dict(self) -> dict:
        return {**asdict(self), "seeds": list(self.seeds)}


# The fields each mode reads beyond COMMON_FIELDS.  Any other field must keep
# its default (validate_config), and summary.json's "config" lists only these.
COMMON_FIELDS = ("mode", "seeds", "out_dir", "workers")
MODE_FIELDS = {
    "gradient": ("game", "algo", "players", "eta", "weights", "T", "certified"),
    "bandit": ("game", "eta", "epochs", "schedule", "delta", "monitor_c", "certified"),
    "fisher": ("market", "T"),
}
# For a field one mode does not read: what that mode reads in its place.
_UNREAD_HINTS = {
    ("monitor_c", "gradient"): "set players[i].monitor_c for each guarded-a2l-omwu player",
    ("players", "bandit"): "every player runs the top-level eta and monitor_c",
}
# Certified step-size rule of each mode that certifies runs: (rule, n -> limit).
_STEP_LIMITS = {"gradient": ("1/(2(n-1))", dyn.gradient_step_size),
                "bandit": ("1/(6n)", bandit_mod.bandit_step_size)}


def _as_declared(fields: dict, cls) -> dict:
    """fields with each number converted to the type ``cls`` declares for it."""
    hints = typing.get_type_hints(cls)
    out = dict(fields)
    for k, v in fields.items():
        declared = typing.get_args(hints.get(k)) or (hints.get(k),)
        if _number(v) and float in declared:
            out[k] = float(v)
        elif _integer(v) and int in declared:
            out[k] = int(v)
    return out


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the fields that change results: not out_dir, not workers.

    Numbers are hashed as their declared type, here and in each players
    entry and the schedule, so ``monitor_c`` written 4, written 4.0 or left
    at its default 4.0 hashes alike.
    """
    fields = {k: v for k, v in _as_declared(cfg.to_dict(), ExperimentConfig).items()
              if k not in ("out_dir", "workers")}
    if isinstance(fields["players"], list):
        fields["players"] = [_as_declared(p, dyn.LearnerSpec) if isinstance(p, dict) else p
                             for p in fields["players"]]
    if isinstance(fields["schedule"], dict):
        fields["schedule"] = _as_declared(fields["schedule"], bandit_mod.EpochSchedule)
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
    """A real number that converts to a float: no bool, no int past 2^1024."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        return False
    try:
        float(v)
    except OverflowError:
        return False
    return True


# Field checks, alike in every mode: field -> (test, what the value must be).
# The learner fields of each "players" entry take the same tests.
_FIELD_CHECKS = {
    "mode": (lambda v: isinstance(v, str) and v in MODE_FIELDS, "gradient, bandit or fisher"),
    "seeds": (lambda v: isinstance(v, list) and len(v) > 0 and all(map(_integer, v)),
              "a nonempty list of integers"),
    **dict.fromkeys(("T", "epochs", "workers"),
                    (lambda v: _integer(v) and v >= 1, "a positive integer")),
    "algo": (lambda v: v in dyn.ALGORITHMS, f"one of {dyn.ALGORITHMS}"),
    "eta": (lambda v: v is None or (_number(v) and 0 < v < math.inf), "a positive finite number"),
    "weights": (lambda v: v in sorted(WEIGHT_RULES), f"one of {sorted(WEIGHT_RULES)}"),
    "monitor_c": (lambda v: _number(v) and not math.isnan(v), "a number"),
    "delta": (lambda v: _number(v) and 0.0 < v < 1.0, "a number in (0, 1)"),
    "certified": (lambda v: isinstance(v, bool), "true or false"),
}


def _field_errors(fields: dict, prefix="") -> list:
    """Problems of the checked fields present in ``fields``, named prefix + field."""
    return [f"{prefix}{k} must be {what}, got {fields[k]!r}"
            for k, (ok, what) in _FIELD_CHECKS.items() if k in fields and not ok(fields[k])]


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
        errors += _field_errors(spec, prefix=f"players[{i}].")
        bias = spec.get("bias")
        if bias is not None and i < len(dims) and not (
                isinstance(bias, list) and len(bias) == dims[i]
                and all(_number(b) and math.isfinite(b) for b in bias)):
            errors.append(f"players[{i}].bias must be {dims[i]} finite numbers, got {bias!r}")
    return errors


def validate_config(cfg: ExperimentConfig) -> list:
    """Collect every validation problem; empty list means the config is fine.

    Every field is checked alike in every mode, its type before its range.
    A field the mode does not read (``MODE_FIELDS``) must keep its default,
    and the mode's game or market is built here, so a bad spec fails at load.
    """
    fields, defaults = vars(cfg), vars(ExperimentConfig())
    errors = _field_errors(fields)
    reads = MODE_FIELDS[cfg.mode] if _FIELD_CHECKS["mode"][0](cfg.mode) else ()
    for name, value in fields.items():
        if reads and name not in COMMON_FIELDS + reads and value != defaults[name]:
            hint = _UNREAD_HINTS.get((name, cfg.mode))
            errors.append(f"{name} is not read in {cfg.mode} mode" + (f": {hint}" if hint else ""))
    try:
        sched = resolve_schedule(cfg.schedule)
    except Exception as exc:
        errors.append(f"schedule invalid: {exc}")
    else:
        if "schedule" in reads and cfg.certified and not sched.certified:
            errors.append("certified bandit runs need a theory schedule "
                          "(B_t >= t^4, eps_t = 1/t); set certified: false to override")

    seed = cfg.seeds[0] if _FIELD_CHECKS["seeds"][0](cfg.seeds) else 0
    instances = {}
    for name, resolve in (("game", resolve_game), ("market", resolve_market)):
        if name in reads and fields[name] is None:
            errors.append(f"{name} spec is required")
        elif name in reads:
            try:
                instances[name] = resolve(fields[name], seed=seed)
            except FileNotFoundError as exc:
                errors.append(f"{name} file not found: {exc.filename}")
            except Exception as exc:  # surfaced as config problem
                errors.append(f"{name} spec invalid: {exc}")
    game = instances.get("game")
    if cfg.players is not None:
        errors += _player_errors(cfg.players, game.action_counts if game is not None else ())
    if game is not None and cfg.certified:
        etas = {"eta": cfg.eta}
        if "players" in reads and isinstance(cfg.players, list):
            etas.update((f"players[{i}].eta", p.get("eta"))
                        for i, p in enumerate(cfg.players) if isinstance(p, dict))
        rule, step_size = _STEP_LIMITS[cfg.mode]
        limit = step_size(game.n)
        for name, eta in etas.items():
            if eta is not None and not _field_errors({"eta": eta}) and eta > limit + 1e-12:
                errors.append(f"certified {cfg.mode} runs need {name} <= {rule} = {limit}; "
                              f"got {name} = {eta}")
        # The certified gap bound has one eta: the one every player runs.
        own = [(name, dyn.gradient_step_size(game.n) if eta is None else eta)
               for name, eta in etas.items() if name != "eta"]
        odd = [f"{name} = {eta}" for name, eta in own if eta != own[0][1]]
        if odd:
            errors.append(f"certified gradient runs need one eta for all players; "
                          f"got {odd[0]} but {own[0][0]} = {own[0][1]}")
    return errors


def _only_keys(spec: dict, keys: tuple):
    """Refuse keys of an instance spec beside the ones its form reads."""
    extra = sorted(set(spec) - set(keys))
    if extra:
        raise ValueError(f"unexpected key {extra[0]!r} beside {' and '.join(map(repr, keys))}")


def resolve_game(spec: dict, seed=0) -> PolymatrixGame:
    """Game from {"file": path}, {"inline": dict} or generator kwargs.

    Generator specs without a "seed" use the run seed, so seed sweeps range
    over game instances; a "seed" given must be an integer.
    """
    if "file" in spec:
        _only_keys(spec, ("file",))
        return load_game(spec["file"])
    if "inline" in spec:
        _only_keys(spec, ("inline",))
        return PolymatrixGame.from_dict(spec["inline"])
    kw = dict(spec)
    kind = kw.pop("kind")
    if "seed" in kw and not _integer(kw["seed"]):
        raise ValueError(f"game.seed must be an integer (omit it to use the run seed), "
                         f"got {kw['seed']!r}")
    kw.setdefault("seed", seed)
    return generate_game(kind, **kw)


def resolve_market(spec: dict, seed=0) -> fisher_mod.FisherMarket:
    """Market from {"file": path}, {"budgets", "valuations"} or {"m", "n"[, "seed"]}."""
    if "file" in spec:
        _only_keys(spec, ("file",))
        return fisher_mod.load_market(spec["file"])
    if "budgets" in spec:
        _only_keys(spec, ("budgets", "valuations"))
        return fisher_mod.FisherMarket.from_dict(spec)
    if set(spec) - {"seed"} != {"m", "n"} or not all(map(_integer, spec.values())):
        raise ValueError(f"a random market takes integers m, n and optionally seed: {spec!r}")
    return fisher_mod.random_linear_market(spec["m"], spec["n"], seed=spec.get("seed", seed))


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
    traj = dyn.run_full_feedback(game, specs, cfg.T, seed=seed, records=False)
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
    checks = [Check("bound_slack", bound - final_gap, ">=", -TOL_BOUND)] if cfg.certified else []
    return {"result": result, "csv": dyn.trajectory_csv_columns(traj), "checks": checks}


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
    return {"result": result, "csv": bandit_mod.bandit_csv_columns(traj, truth), "checks": checks}


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
    checks = [Check("conservation_dev", conservation, "<=", TOL_CONSERVATION)]
    return {"result": result, "csv": fisher_mod.price_csv_columns(p, gaps), "checks": checks}


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
            f.writelines(line + "\n" for line in _csv_lines(*cell["csv"]))
        results.append({**cell["result"], "checks": [c.to_dict() for c in cell["checks"]]})
        log.info("seed %s -> %s", seed, csv_path)

    summary = {
        "schema_version": SCHEMA_VERSION,
        "mode": cfg.mode,
        "config": {k: v for k, v in cfg.to_dict().items()
                   if k in COMMON_FIELDS + MODE_FIELDS[cfg.mode]},
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
