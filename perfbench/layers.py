"""Per-layer metrics computed from a traced run.

Layers are the a2l modules.  Each metric below is read from the tracer's
aggregates.  Time metrics are per call (or per simulated round); where the
workload's own operations never reach the callable, the value comes from
the probe (one smoke-size pass of every workload, run after the timed
phase), so every layer reads a measured cost in every traced run.  Counts
and bytes always describe the workload itself and read 0 where it never
reaches the layer.

Which end-to-end metric each of these should move, and on which workload,
is listed in README.md.
"""

from __future__ import annotations

from pathlib import Path

OWN = ("setup", "timed")
PROBE = ("probe",)

# name -> (unit, better); the order is the order of BENCHMARK.json.
LAYER_METRICS = {
    "games.generate_ms": ("ms", "lower"),
    "games.total_gap_us": ("us", "lower"),
    "games.calls": ("count", "lower"),
    "learners.next_us": ("us", "lower"),
    "learners.observe_us": ("us", "lower"),
    "learners.calls": ("count", "lower"),
    "reduction.next_us": ("us", "lower"),
    "reduction.observe_us": ("us", "lower"),
    "reduction.calls": ("count", "lower"),
    "dynamics.round_us": ("us", "lower"),
    "dynamics.regret_report_ms": ("ms", "lower"),
    "dynamics.csv_ms": ("ms", "lower"),
    "dynamics.csv_bytes": ("bytes", "lower"),
    "bandit.round_ns": ("ns", "lower"),
    "bandit.estimate_epoch_ms": ("ms", "lower"),
    "bandit.samples": ("count", "lower"),
    "bandit.epoch_bytes": ("bytes", "lower"),
    "bandit.audit_ms": ("ms", "lower"),
    "bandit.env_epoch_us": ("us", "lower"),
    "bandit.fallback_round_us": ("us", "lower"),
    "fisher.prd_step_us": ("us", "lower"),
    "fisher.a2l_prd_step_us": ("us", "lower"),
    "fisher.calls": ("count", "lower"),
    "fisher.market_gap_us": ("us", "lower"),
    "harness.load_config_ms": ("ms", "lower"),
    "harness.run_self_ms": ("ms", "lower"),
    "harness.bytes_written": ("bytes", "lower"),
    "cli.startup_s": ("s", "lower"),
    "verify.determinism_s": ("s", "lower"),
    "verify.mwu-contrast_s": ("s", "lower"),
    "trace.rounds_per_s": ("rounds/s", "higher"),
}

# Verify suites fast enough to run in every traced run; the other eight are
# timed by `run.py --verify-suites`.
TRACED_SUITES = ("determinism", "mwu-contrast")

# An epoch's action and reward arrays: int64 actions, float64 rewards.
BYTES_PER_SAMPLE = 16


def _run_bandit(args, kwargs, traj, dur):
    B = traj.B
    work = {"rounds": int(B.sum()), "samples": traj.n * int(B.sum()),
            "epoch_bytes_max": BYTES_PER_SAMPLE * traj.n * int(B.max())}
    switched = [e for e in traj.switch_epoch if e is not None]
    if switched:
        work["fallback_rounds"] = int(B[min(switched):].sum())
        work["fallback_time"] = dur
    return work


def _run_env(args, kwargs, res, dur):
    B = res["B"]
    return {"epochs": len(B), "samples": int(B.sum()),
            "epoch_bytes_max": BYTES_PER_SAMPLE * int(B.max())}


def _estimate_epoch(args, kwargs, res, dur):
    size = len(kwargs.get("actions", args[0] if args else ()))
    return {f"time@{size}": dur, f"calls@{size}": 1}


def _harness_run(args, kwargs, summary, dur):
    cfg = kwargs.get("cfg", args[0] if args else None)
    out = Path(cfg.out_dir)
    return {"bytes": sum(p.stat().st_size for p in out.iterdir() if p.is_file())}


HOOKS = {
    "dynamics.run_full_feedback": lambda a, k, tr, d: {"rounds": tr.T},
    "bandit.run_bandit": _run_bandit,
    "bandit.run_bandit_vs_environment": _run_env,
    "bandit.estimate_epoch": _estimate_epoch,
    "harness.run": _harness_run,
}


def compute(tr, passes, extra):
    """Every metric of LAYER_METRICS; ``extra`` holds the ones measured
    outside the tracer (cli startup, verify suites, traced rounds/s).

    Returns (metrics, names read from the probe).
    """
    from_probe = []

    def phases(nids, key=None):
        if key is None:
            reached = tr.total(OWN, nids, "count") > 0
        else:
            reached = tr.work_total(OWN, nids, key) > 0
        return OWN if reached else PROBE

    def per_call(metric, names, field, scale):
        nids = tr.ids(*names)
        ph = phases(nids)
        if ph is PROBE:
            from_probe.append(metric)
        n = tr.total(ph, nids, "count")
        return tr.total(ph, nids, field) / n * scale if n else 0.0

    def per_work(metric, names, field, key, scale, time_key=None):
        nids = tr.ids(*names)
        ph = phases(nids, key)
        if ph is PROBE:
            from_probe.append(metric)
        work = tr.work_total(ph, nids, key)
        if time_key is not None:
            spent = tr.work_total(ph, nids, time_key)
        else:
            spent = tr.total(ph, nids, field)
        return spent / work * scale if work else 0.0

    def per_pass(layer):
        return tr.total(("timed",), tr.layer_ids(layer), "count") / passes

    def estimate_at_largest():
        nids = tr.ids("bandit.estimate_epoch")
        ph = phases(nids)
        if ph is PROBE:
            from_probe.append("bandit.estimate_epoch_ms")
        sizes = [int(k[2].split("@")[1]) for k in tr.work
                 if k[0] in ph and k[1] in nids and k[2].startswith("calls@")]
        if not sizes:
            return 0.0
        big = max(sizes)
        return (tr.work_total(ph, nids, f"time@{big}")
                / tr.work_total(ph, nids, f"calls@{big}") * 1e3)

    csv_ids = tr.ids("dynamics.trajectory_csv_lines")
    csv_count = tr.instance_count(OWN, csv_ids)
    csv_ph = phases(csv_ids)
    if csv_ph is PROBE:
        from_probe.append("dynamics.csv_ms")
    csv_ms = (tr.total(csv_ph, csv_ids, "self_") / tr.instance_count(csv_ph, csv_ids) * 1e3
              if tr.instance_count(csv_ph, csv_ids) else 0.0)
    run_ids = tr.ids("harness.run")
    run_count = tr.total(OWN, run_ids, "count")
    sampling = tr.ids("bandit.run_bandit", "bandit.run_bandit_vs_environment")

    m = {
        "games.generate_ms": per_call("games.generate_ms", ["games.generate_game"], "incl", 1e3),
        "games.total_gap_us": per_call("games.total_gap_us",
                                       ["games.PolymatrixGame.total_gap"], "incl", 1e6),
        "games.calls": per_pass("games"),
        "learners.next_us": per_call("learners.next_us",
                                     ["learners.mwu_next", "learners.omwu_next"], "incl", 1e6),
        "learners.observe_us": per_call("learners.observe_us", ["learners.advance"], "incl", 1e6),
        "learners.calls": per_pass("learners"),
        "reduction.next_us": per_call("reduction.next_us",
                                      ["reduction.A2L.next_strategy"], "inlayer", 1e6),
        "reduction.observe_us": per_call("reduction.observe_us",
                                         ["reduction.A2L.observe"], "inlayer", 1e6),
        "reduction.calls": per_pass("reduction"),
        "dynamics.round_us": per_work("dynamics.round_us", ["dynamics.run_full_feedback"],
                                      "inlayer", "rounds", 1e6),
        "dynamics.regret_report_ms": per_call("dynamics.regret_report_ms",
                                              ["dynamics.regret_report"], "incl", 1e3),
        "dynamics.csv_ms": csv_ms,
        "dynamics.csv_bytes": (tr.work_total(OWN, csv_ids, "bytes") / csv_count
                               if csv_count else 0.0),
        "bandit.round_ns": per_work("bandit.round_ns", ["bandit.run_bandit"],
                                    "inlayer", "rounds", 1e9),
        "bandit.estimate_epoch_ms": estimate_at_largest(),
        "bandit.samples": tr.work_total(("timed",), sampling, "samples") / passes,
        "bandit.epoch_bytes": tr.work_max(OWN, sampling, "epoch_bytes_max"),
        "bandit.audit_ms": per_call("bandit.audit_ms", [
            "bandit.estimation_error_audit", "bandit.recovery_error_audit",
            "bandit.regret_error_bound_audit"], "incl", 1e3),
        "bandit.env_epoch_us": per_work("bandit.env_epoch_us",
                                        ["bandit.run_bandit_vs_environment"],
                                        "incl", "epochs", 1e6),
        "bandit.fallback_round_us": per_work("bandit.fallback_round_us", ["bandit.run_bandit"],
                                             None, "fallback_rounds", 1e6,
                                             time_key="fallback_time"),
        "fisher.prd_step_us": per_call("fisher.prd_step_us", ["fisher.prd_step"], "incl", 1e6),
        "fisher.a2l_prd_step_us": per_call("fisher.a2l_prd_step_us",
                                           ["fisher.a2l_prd_step"], "incl", 1e6),
        "fisher.calls": per_pass("fisher"),
        "fisher.market_gap_us": per_call("fisher.market_gap_us",
                                         ["fisher.market_gap"], "incl", 1e6),
        "harness.load_config_ms": per_call("harness.load_config_ms",
                                           ["harness.load_config"], "incl", 1e3),
        "harness.run_self_ms": per_call("harness.run_self_ms", ["harness.run"], "inlayer", 1e3),
        "harness.bytes_written": (tr.work_total(OWN, run_ids, "bytes") / run_count
                                  if run_count else 0.0),
    }
    m.update(extra)
    missing = set(LAYER_METRICS) - set(m)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {k: m[k] for k in LAYER_METRICS}, from_probe
