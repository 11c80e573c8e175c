"""Config-driven experiment runner: validation, execution, persistence.

Configs are plain JSON; ``MODE_FIELDS`` lists the fields each mode reads.
A config is checked, resolved and copied once, when it is built, and
``run`` reads it as built: it neither checks nor rehashes it.
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

A certified run must meet its mode's certificate (``certificate_misses`` in
``dynamics`` and ``bandit``).  Set "certified": false to run anyway; bandit
runs then proceed flagged, with a warning.
"""

from __future__ import annotations

import functools
import hashlib
import json
import operator
import os
import warnings
from dataclasses import MISSING, asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import bandit as bandit_mod
from . import dynamics as dyn
from . import fisher as fisher_mod
from .csvrows import _csv_lines
from .games import PolymatrixGame, generate_game, load_game

SCHEMA_VERSION = 3  # 3: each per-seed result carries its "checks" records
TOL_BOUND = 1e-9  # slack allowed on the paper's gap and regret bounds
TOL_AUDIT = 1e-6  # slack allowed on the bandit reconstruction and regret audits
TOL_CONSERVATION = 1e-9  # |sum of prices - sum of budgets| allowed in Fisher runs
# Taken at import: a functools.wraps wrapper of generate_game has no defaults.
_GAME_DEFAULTS = generate_game.__kwdefaults__


class ConfigError(ValueError):
    """Invalid experiment config; the message enumerates every problem found,
    and ``problems`` lists them when a config's build raised it."""

    def __init__(self, message, problems=()):
        super().__init__(message)
        self.problems = list(problems)


def _invalid(problems) -> ConfigError:
    return ConfigError("invalid config:\n  - " + "\n  - ".join(problems), problems)


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


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the fields that change results: not out_dir, not workers.

    The config is hashed as built, so configs that mean one run hash alike:
    numbers in their canonical type, seeds sorted, and the nested specs as
    the ``LearnerSpec`` and ``EpochSchedule`` they build.  A players list
    whose every entry is the spec the top-level fields give hashes as no
    list, a schedule equal to the default one as the default, a generator
    game spec without the keys at ``generate_game``'s defaults and with
    ``p`` a float, and an inline game or market as the ``to_dict()`` of
    the instance it builds.  A built config keeps its hash as ``cfg.hash``.
    """
    fields = {k: v for k, v in cfg.to_dict().items() if k not in ("out_dir", "workers")}
    if cfg.game and "kind" in cfg.game:
        fields["game"] = {k: float(v) if k == "p" else v for k, v in cfg.game.items()
                          if k not in _GAME_DEFAULTS or v != _GAME_DEFAULTS[k]}
    elif cfg.game and "inline" in cfg.game:
        fields["game"] = {"inline": cfg._instance.to_dict()}
    if cfg.market and "budgets" in cfg.market:
        fields["market"] = cfg._instance.to_dict()
    own, players = cfg._specs
    fields["players"] = None if all(p == own for p in players) else list(map(asdict, players))
    fields["schedule"] = (_DEFAULTS["schedule"] if cfg._schedule == bandit_mod.EpochSchedule()
                          else asdict(cfg._schedule))
    blob = json.dumps(fields, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's config.  Building it puts numbers in canonical type, sorts
    the seeds, copies the nested specs as plain Python and checks every
    field (``_problems``), raising one ``ConfigError`` for all problems.
    A built config is frozen and owns its specs; it keeps what the check
    built (``_problems``) and, from first use, its ``hash``.
    """

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

    def __post_init__(self):
        put = functools.partial(object.__setattr__, self)
        for name, kind in {**dict.fromkeys(("eta", "delta", "monitor_c"), float),
                           **dict.fromkeys(("T", "epochs", "workers"), int)}.items():
            if (dyn._number if kind is float else dyn._integer)(getattr(self, name)):
                put(name, kind(getattr(self, name)))
        if isinstance(self.seeds, list) and all(map(dyn._integer, self.seeds)):
            put("seeds", sorted(map(int, self.seeds)))
        for name in ("game", "market", "players", "schedule", "out_dir"):
            put(name, _plain(getattr(self, name)))
        problems, built = _problems(self)
        if problems:
            raise _invalid(problems)
        for name, value in built.items():
            put(name, value)

    hash = functools.cached_property(config_hash)

    def instance(self, seed: int):
        """The game (or market, in fisher mode) of the run at ``seed``."""
        if seed == self.seeds[0]:
            return self._instance
        if self.mode == "fisher":
            return resolve_market(self.market, seed=seed)
        return resolve_game(self.game, seed=seed)

    def to_dict(self) -> dict:
        return {**asdict(self), "seeds": list(self.seeds)}


# Each field's default, read from the dataclass: no config is built for it.
_DEFAULTS = {name: f.default_factory() if f.default is MISSING else f.default
             for name, f in ExperimentConfig.__dataclass_fields__.items()}

# The fields each mode reads beyond COMMON_FIELDS.  Any other field must keep
# its default (_problems), and summary.json's "config" lists only these.
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


def read_config_file(path) -> dict:
    """The JSON object in a config file; ConfigError naming the file otherwise."""
    try:
        with open(path) as f:
            data = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config file {path} is not readable JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, not {type(data).__name__}")
    return data


def load_config(source) -> ExperimentConfig:
    """Build a config from a dict or a JSON file path; one ConfigError lists
    its unknown fields and every problem its build found."""
    data = read_config_file(source) if isinstance(source, (str, Path)) else dict(source)
    errors = [f"unknown config field {k!r}" for k in sorted(set(data) - set(_DEFAULTS))]
    try:
        cfg = ExperimentConfig(**{k: v for k, v in data.items() if k in _DEFAULTS})
    except ConfigError as exc:
        errors += exc.problems
    if errors:
        raise _invalid(errors)
    return cfg


def _plain(v):
    """v with its numpy scalars and arrays as Python numbers and lists and its
    paths as str, in dicts and lists too."""
    if isinstance(v, (dict, list, tuple)):
        return {k: _plain(x) for k, x in v.items()} if isinstance(v, dict) else list(map(_plain, v))
    if isinstance(v, os.PathLike):
        return os.fspath(v)
    return v.tolist() if isinstance(v, (np.generic, np.ndarray)) else v


def _echo(v):
    """A copy of a plain value's dicts and lists, sharing its immutable leaves:
    what a caller edits in the echo does not reach the config."""
    if isinstance(v, dict):
        return {k: _echo(x) for k, x in v.items()}
    return list(map(_echo, v)) if isinstance(v, list) else v


# Field checks, alike in every mode: field -> (test, what the value must be).
# The learner fields take the rules LearnerSpec is built by.
_FIELD_CHECKS = {
    "mode": (lambda v: isinstance(v, str) and v in MODE_FIELDS, "gradient, bandit or fisher"),
    "seeds": (lambda v: isinstance(v, list) and len(v) > 0
              and all(dyn._integer(s) and s >= 0 for s in v)
              and len(set(v)) == len(v), "a nonempty list of distinct non-negative integers"),
    **dict.fromkeys(("T", "epochs", "workers"), dyn.COUNT_RULE),
    **{k: dyn.LEARNER_RULES[k] for k in ("algo", "eta", "weights", "monitor_c")},
    "delta": (lambda v: dyn._number(v) and 0.0 < v < 1.0, "a number in (0, 1)"),
    "certified": (lambda v: isinstance(v, bool), "true or false"),
}


def _unread_learner_fields(spec: dict, prefix="") -> list:
    """Learner fields set off their default that the spec's algo does not read."""
    algo = spec.get("algo", dyn.LearnerSpec.algo)
    unread = {"weights": algo in ("mwu", "omwu"), "monitor_c": algo != "guarded-a2l-omwu"}
    return [f"{prefix}{k} is not read by {algo} players" for k, no in unread.items()
            if no and k in spec and spec[k] != getattr(dyn.LearnerSpec, k)]


def _player_errors(players, dims) -> list:
    """Problems of the per-player specs; dims are the game's action counts."""
    if not (isinstance(players, list) and all(isinstance(p, dict) for p in players)):
        return [f"players must be a list of player specs (objects), got {players!r}"]
    errors = []
    if dims and len(players) != len(dims):
        errors.append(f"players must have one spec per player ({len(dims)}), got {len(players)}")
    for i, spec in enumerate(players):
        prefix = f"players[{i}]."
        errors += [f"{prefix}{k} must not be set: unknown player field"
                   for k in sorted(set(spec) - set(dyn.LEARNER_RULES))]
        bad = dyn.rule_errors(dyn.LEARNER_RULES, spec, prefix)
        bias = spec.get("bias")
        if not bad and bias is not None and i < len(dims) and len(bias) != dims[i]:
            bad.append(f"{prefix}bias must be {dims[i]} finite numbers, got {bias!r}")
        errors += bad or _unread_learner_fields(spec, prefix)
    return errors


def _problems(cfg: ExperimentConfig):
    """Every problem of a config being built, and what it built: the game
    or market for ``seeds[0]`` (``_instance``), the learner specs
    (``_specs``: the top-level one and the players') and the ``_schedule``;
    no problems means the config is fine.

    Every field is checked alike in every mode, its type before its range.
    A field the mode does not read (``MODE_FIELDS``) must keep its default,
    as must a learner field that the player's algo does not read.  A bad
    game or market spec fails here, as does a bandit game paying outside
    [0, 1]; a valid certified config must then meet its mode's certificate.
    """
    fields = {name: getattr(cfg, name) for name in _DEFAULTS}
    errors = dyn.rule_errors(_FIELD_CHECKS, fields)
    try:
        schedule = bandit_mod.EpochSchedule(**cfg.schedule)
    except Exception as exc:
        errors.append(f"schedule invalid: {exc}")
        schedule = None
    # The schedule is compared as built, so a written-out default is the default.
    defaults = {**_DEFAULTS, "schedule": bandit_mod.EpochSchedule()}
    reads = MODE_FIELDS[cfg.mode] if _FIELD_CHECKS["mode"][0](cfg.mode) else ()
    for name, value in {**fields, "schedule": schedule}.items():
        if reads and name not in COMMON_FIELDS + reads and value != defaults[name]:
            hint = _UNREAD_HINTS.get((name, cfg.mode))
            errors.append(f"{name} is not read in {cfg.mode} mode" + (f": {hint}" if hint else ""))
    if "players" in reads and cfg.players is not None:  # each entry sets its own
        errors += [f"{name} is not read when players is set: set players[i].{name}"
                   for name in ("algo", "eta", "weights") if fields[name] != defaults[name]]
    elif "players" in reads:
        errors += _unread_learner_fields({"algo": cfg.algo, "weights": cfg.weights})

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
    if game is not None and cfg.mode == "bandit":
        try:
            bandit_mod.check_reward_range(game)
        except bandit_mod.DataError as exc:
            errors.append(f"game invalid in bandit mode: {exc}")
        # B_t and eps_t are monotone in t: the first and last epochs bound the rest.
        if schedule is not None and dyn.COUNT_RULE[0](cfg.epochs):
            try:
                for t in (1, cfg.epochs):
                    schedule.epoch_length(t, game.dimensionality)
                    schedule.mixing(t)
            except bandit_mod.ScheduleError as exc:
                errors.append(f"schedule invalid: {exc}")
    if cfg.players is not None:
        errors += _player_errors(cfg.players, game.action_counts if game is not None else ())
    specs = None
    if not errors:  # every learner field passed the rules LearnerSpec is built by
        specs = (dyn.LearnerSpec(algo=cfg.algo, eta=cfg.eta, weights=cfg.weights),
                 [dyn.LearnerSpec(**p) for p in cfg.players or ()])
    if game is not None and cfg.certified and specs:  # the mode's certificate
        own, players = specs
        for i, field, need in (dyn.certificate_misses(players or [own] * game.n)
                               if cfg.mode == "gradient"
                               else bandit_mod.certificate_misses(schedule, cfg.eta, game.n)):
            name, spec = (f"players[{i}].{field}", players[i]) if players else (field, cfg)
            errors.append(f"certified {cfg.mode} runs need {need.format(name)}; "
                          f"got {name} = {getattr(spec, field)!r}")
    # the top-level spec's misses once, not per player
    return list(dict.fromkeys(errors)), {
        "_instance": instances.get("game", instances.get("market")),
        "_specs": specs, "_schedule": schedule}


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
    if "seed" in kw and not dyn._integer(kw["seed"]):
        raise ValueError(f"game.seed must be an integer (omit it to use the run seed), "
                         f"got {kw['seed']!r}")
    fixed = kind in ("matching_pennies", "rps")
    for key in kw if fixed else ["p"] if "p" in kw and kw.get("graph") != "gnp" else []:
        if kw[key] != _GAME_DEFAULTS.get(key, kw[key]):  # unread: at its default
            where = kind if fixed else f"{kw.get('graph', 'complete')} graph"
            raise ValueError(f"game.{key} is not read by {where} games")
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
    if set(spec) - {"seed"} != {"m", "n"} or not all(map(dyn._integer, spec.values())):
        raise ValueError(f"a random market takes integers m, n and optionally seed: {spec!r}")
    return fisher_mod.random_linear_market(spec["m"], spec["n"], seed=spec.get("seed", seed))


# -- per-seed cells ----------------------------------------------------------


def _gradient_cell(cfg: ExperimentConfig, seed: int) -> dict:
    game = cfg.instance(seed)
    own, players = cfg._specs
    traj = dyn.run_full_feedback(game, players or own, cfg.T, seed=seed, records=False)
    # Certified runs have one eta (checked when built); otherwise the loosest bound.
    eta = min(dyn.gradient_step_size(game.n) if s.eta is None else s.eta for s in players or [own])
    bound = dyn.gap_bound(game.action_counts, eta, cfg.T)
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
    game = cfg.instance(seed)
    with warnings.catch_warnings():
        if not cfg.certified:
            warnings.simplefilter("ignore")
        traj = bandit_mod.run_bandit(
            game, cfg._schedule, eta=cfg.eta, seed=seed, delta=cfg.delta,
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
    market = cfg.instance(seed)
    out = fisher_mod.run_a2l_prd(market, cfg.T)
    p, gaps = out["played_prices"], out["played_gap"]
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


def run(cfg: ExperimentConfig) -> dict:
    """Execute all seeds of a built config and persist the outputs.

    The config was checked when it was built and is read as built.  Returns
    the summary dict (also written to out_dir/summary.json).  Each per-seed
    result lists its check records under "checks"; the summary's "passed"
    is true exactly when all of them passed.  An out_dir that cannot be
    created raises ``ConfigError`` naming it, before any seed runs.
    """
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create out_dir {out_dir}: {exc.strerror}") from None

    if cfg.workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~20 ms to import; only here

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            cells = list(pool.map(_CELLS[cfg.mode], [cfg] * len(cfg.seeds), cfg.seeds))
    else:
        cells = [_CELLS[cfg.mode](cfg, s) for s in cfg.seeds]

    results = []
    for seed, cell in zip(cfg.seeds, cells):  # merged in (sorted) seed order
        with open(out_dir / f"{cfg.mode}_seed{seed}.csv", "w", newline="\n") as f:
            f.writelines(line + "\n" for line in _csv_lines(*cell["csv"]))
        results.append({**cell["result"], "checks": [c.to_dict() for c in cell["checks"]]})

    summary = {
        "schema_version": SCHEMA_VERSION,
        "mode": cfg.mode,
        "config": {k: _echo(getattr(cfg, k)) for k in COMMON_FIELDS + MODE_FIELDS[cfg.mode]},
        "config_hash": cfg.hash,
        "prng": dyn.PRNG_NAME,
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
