#!/usr/bin/env python3
"""Benchmark for the a2l library.

One workload per process, from a seed, BLAS threads pinned to 1:

    python3 perfbench/run.py --workload equivalence-sweep --seed 0 --seconds 20 --trace 0

prints every end-to-end metric by name and unit and, as its last line, one
JSON object {"correct", "attempted", "failed", "metrics"}.  ``--trace 1``
reports the per-layer metrics instead (see layers.py).  Other modes:

    --workload all      every workload, each in its own fresh process
    --smoke             every workload at a tiny size, untraced and traced
    --reference         reference figures for README.md: wall time and pass
                        flag of each `a2l verify` suite (one process each),
                        and the figures of reference.py

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("equivalence-sweep", "gradient-long", "bandit-epochs", "fisher-markets")
SETUP_REPEATS = 7
CAL_ITERS = 1000      # one gauge slice: about 5 ms
CAL_REF_S = 5e-3      # slice time on the reference host
CAL_SHARE = 0.1       # gauge time after each operation, as a share of its time
SETUP_CAL_SHARE = 0.5  # the same after each set-up child
STARTUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
END_TO_END = {
    "setup_s": "s",
    "rounds_per_s": "rounds/s",
    "run_s_p50": "s",
    "peak_rss_mb": "MiB",
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, timeout=CHILD_TIMEOUT_S):
    """Run a child to completion (killed and reaped on timeout)."""
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)


def last_json_line(text):
    return json.loads(text.strip().splitlines()[-1])


def provenance(a2l_module=None):
    import numpy as np

    try:
        git = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True, text=True, timeout=10)
        describe = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        describe = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "a2l": getattr(a2l_module, "__version__", None),
        "platform": platform.platform(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_describe": describe,
    }


def import_program():
    """Import a2l from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import a2l

    if SRC.resolve() not in Path(a2l.__file__).resolve().parents:
        raise SystemExit(f"a2l imported from {a2l.__file__}, not from {SRC}")
    return a2l


class HostGauge:
    """Speed of the host, sampled between the operations it scales.

    The host is a shared VM whose speed drifts by up to 2x over seconds to
    minutes, so a raw wall time mostly says when a run was made.  The gauge runs slices of a fixed loop of small numpy operations,
    independent of a2l and shaped like one multiplicative-weights round,
    right after each timed operation for a fixed share of its duration, so
    its samples fall evenly over the timed phase.  ``factor`` is the mean
    slice time over ``CAL_REF_S``: above 1 on a host slower than the
    reference.  Dividing a measured time by it gives the time on the
    reference host.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        a = np.linspace(-1.0, 1.0, 25).reshape(5, 5)
        self._a = a - a.T
        self.wall = 0.0
        self.slices = 0

    def _slice(self):
        np, a = self._np, self._a
        p = np.full(5, 0.2)
        start = perf_counter()
        for _ in range(CAL_ITERS):
            w = p * np.exp(0.1 * (a @ p))
            w /= w.sum()
        self.wall += perf_counter() - start
        self.slices += 1

    def sample(self, seconds):
        """Run slices for about ``seconds`` (at least one); their mean time."""
        wall, slices = self.wall, self.slices
        end = perf_counter() + seconds
        self._slice()
        while perf_counter() < end:
            self._slice()
        return (self.wall - wall) / (self.slices - slices)

    def factor(self):
        return self.wall / self.slices / CAL_REF_S

    def summary(self):
        return {"slices": self.slices, "slice_ms_mean": 1e3 * self.wall / self.slices,
                "ref_ms": 1e3 * CAL_REF_S, "factor": self.factor()}


# -- one workload ---------------------------------------------------------------


def median_child_seconds(argv, repeats, ready_line=None, gauge=None):
    """Median wall time of fresh processes: until ``ready_line`` or exit.

    With a ``gauge``, each child is followed by ``SETUP_CAL_SHARE`` of its
    time in gauge slices, and its time is scaled to the reference host by
    the factor of those slices before the median: the host's speed changes
    from one child to the next.  Returns the median and each child's
    measured time and factor.
    """
    times, factors = [], []
    for _ in range(repeats):
        start = perf_counter()
        with subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            try:
                if ready_line is not None:
                    line = proc.stdout.readline().strip()
                    elapsed = perf_counter() - start
                    out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
                else:
                    out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
                    line, elapsed = ready_line, perf_counter() - start
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if proc.returncode != 0 or line != ready_line:
            raise RuntimeError(f"child {argv} failed ({proc.returncode}): {err[-2000:]}")
        times.append(elapsed)
        factors.append(1.0 if gauge is None
                       else gauge.sample(SETUP_CAL_SHARE * elapsed) / CAL_REF_S)
    return statistics.median(t / f for t, f in zip(times, factors)), times, factors


def timed_passes(workload, seconds, smoke, tracer, gauge):
    """Repeat whole passes over the workload's operations until ``seconds``.

    Each operation is timed alone; its output is checked after the pass,
    outside the timed region.
    """
    op_times, rounds, passes = [], 0, 0
    attempted = failed = 0
    errors, checks, rss_mb = [], {}, []
    start = perf_counter()
    while passes == 0 or (not smoke and perf_counter() - start < seconds):
        outputs = {}
        if tracer:
            tracer.phase = "timed"
        for op in workload.ops:
            attempted += 1
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # one failed operation; the run goes on
                failed += 1
                errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            op_times.append((op.name, perf_counter() - t0))
            gauge.sample(CAL_SHARE * op_times[-1][1])
            rounds += op.rounds(out)
            outputs[op.name] = out
        rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer:
            tracer.phase = "check"
        for rec in workload.check(outputs):
            prev = checks.get(rec["check"])
            if prev is None or rec["value"] > prev["value"] or not rec["passed"]:
                checks[rec["check"]] = rec
        passes += 1
    return {
        "op_times": op_times, "rounds": rounds, "passes": passes,
        "attempted": attempted, "failed": failed, "errors": errors,
        "checks": list(checks.values()), "peak_rss_mb_by_pass": rss_mb,
        "timed_wall_s": perf_counter() - start,
    }


def op_median_s(op_times):
    """Median over the workload's operations of each one's mean time.

    A pass holds an even number of operations of different sizes, so the
    median of all times sits between two of them and is the mean of one
    operation's slowest and another's fastest repetition; taking each
    operation's mean over passes first keeps it off those extremes.  The
    mean rather than the median over passes: with two to six passes a
    median is one or two samples, and the mean is what the gauge's factor
    (a mean over the same span) scales.
    """
    by_op = {}
    for name, t in op_times:
        by_op.setdefault(name, []).append(t)
    return statistics.median(statistics.fmean(v) for v in by_op.values()) if by_op else 0.0


def summarize_ops(op_times):
    times = [t for _, t in op_times]
    out = {"count": len(times), "p50_s": statistics.median(times)}
    if len(times) >= 40:
        # The highest percentile with at least ten samples beyond it.
        q = 1.0 - 10.0 / len(times)
        out["tail"] = {"q": q, "s": sorted(times)[int(q * len(times)) - 1]}
    by_op = {}
    for name, t in op_times:
        by_op.setdefault(name, []).append(t)
    out["per_op_s"] = by_op
    return out


def run_suite_children(names):
    """Wall time and pass flag of verify suites, each in a fresh process."""
    out = {}
    for name in names:
        proc = run_child([str(HERE / "run.py"), "--suite", name], timeout=None)
        if proc.returncode != 0:
            raise RuntimeError(f"suite {name} crashed: {proc.stderr[-2000:]}")
        out[name] = last_json_line(proc.stdout)
    return out


def run_probe(tracer, workdir):
    """One smoke-size pass of every workload, traced as phase "probe"."""
    import workloads

    checks = []
    for name in WORKLOADS:
        tracer.phase = "probe"
        wl = workloads.build(name, 0, True, workdir / f"probe-{name}")
        outputs = {op.name: op.run() for op in wl.ops}
        tracer.phase = "check"
        checks += [{**rec, "check": f"probe {name}: {rec['check']}"}
                   for rec in wl.check(outputs)]
    return checks


def run_workload(name, seed, seconds, trace, smoke):
    setup_argv = [str(HERE / "run.py"), "--setup-only", "--workload", name,
                  "--seed", str(seed)] + (["--smoke"] if smoke else [])
    setup_gauge = HostGauge()
    setup_s, setup_all, setup_factors = median_child_seconds(
        setup_argv, 1 if smoke else SETUP_REPEATS, ready_line="ready", gauge=setup_gauge)

    tracer = None
    if trace:
        from tracer import Tracer
        import layers

        tracer = Tracer()
        tracer.hooks.update(layers.HOOKS)
    a2l = import_program()
    if tracer:
        import a2l.cli  # noqa: F401  (cli and verify are not imported by a2l itself)
        import a2l.verify  # noqa: F401
        tracer.install(a2l)
    import workloads

    workdir = OUT / f"work-{name}-{os.getpid()}"
    try:
        wl = workloads.build(name, seed, smoke, workdir)
        gauge = HostGauge()
        res = timed_passes(wl, seconds, smoke, tracer, gauge)
        # Peak over set-up and the first pass: later passes repeat the same
        # work, and what they add is allocator fragmentation, not live data.
        peak_rss_mb = res["peak_rss_mb_by_pass"][0]
        op_total = sum(t for _, t in res["op_times"])
        raw = {"rounds_per_s": res["rounds"] / op_total if op_total > 0 else 0.0,
               "run_s_p50": op_median_s(res["op_times"])}
        rounds_per_s = raw["rounds_per_s"] * gauge.factor()
        checks = res["checks"]
        if tracer:
            checks += run_probe(tracer, workdir)
            tracer.phase = "extra"
            startup_s, _, _ = median_child_seconds(
                ["-m", "a2l.cli", "--help"], 1 if smoke else STARTUP_REPEATS)
            suites = run_suite_children(layers.TRACED_SUITES)
            extra = {"cli.startup_s": startup_s, "trace.rounds_per_s": rounds_per_s}
            for suite, r in suites.items():
                extra[f"verify.{suite}_s"] = r["elapsed_s"]
                checks.append({"check": f"verify {suite} passes", "value": 0.0,
                               "tol": 0.0, "passed": r["passed"]})
            metrics, from_probe = layers.compute(tracer, res["passes"], extra)
            units = {k: u for k, (u, _b) in layers.LAYER_METRICS.items()}
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{name}-seed{seed}.json"
            tracer.dump(spans_path)
        else:
            metrics = {"setup_s": setup_s,
                       "rounds_per_s": rounds_per_s,
                       "run_s_p50": raw["run_s_p50"] / gauge.factor(),
                       "peak_rss_mb": peak_rss_mb}
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = all(c["passed"] for c in checks)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "provenance": provenance(a2l),
        "host": {"setup": setup_gauge.summary(), "timed": gauge.summary()}, "raw": raw,
        "inputs": wl.meta,
        "passes": res["passes"], "rounds": res["rounds"],
        "timed_wall_s": res["timed_wall_s"],
        "ops": summarize_ops(res["op_times"]) if res["op_times"] else {},
        "setup_runs_s": setup_all, "setup_factors": setup_factors, "peak_rss_mb_by_pass": res["peak_rss_mb_by_pass"],
        "checks": checks, "errors": res["errors"],
    }
    if trace:
        report["layer_self_s"] = tracer.layer_self_seconds(("timed",))
        report["metrics_from_probe"] = from_probe
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"report-{name}-seed{seed}-trace{int(trace)}.json", "w") as f:
        json.dump(report, f, indent=2, default=str)

    for c in checks:
        print(f"check {'ok  ' if c['passed'] else 'FAIL'} {c['check']}: "
              f"{c['value']:.3e} (tol {c['tol']})")
    for e in res["errors"]:
        print(f"error {e}")
    for k, v in metrics.items():
        print(f"{name} {k} = {v:.6g} {units[k]}")
    if not trace:
        print(f"{name} measured, before scaling by the host factor "
              f"{gauge.factor():.4f}: "
              + ", ".join(f"{k} = {v:.6g} {units[k]}" for k, v in raw.items()))
    print(json.dumps({"provenance": report["provenance"]}))
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


# -- several workloads, each in a fresh process --------------------------------


def run_many(plan, seed, seconds):
    """Run (workload, trace) pairs in fresh processes; one summary line."""
    results, correct, attempted, failed = {}, True, 0, 0
    for name, trace, smoke in plan:
        argv = [str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        proc = run_child(argv + (["--smoke"] if smoke else []))
        if proc.returncode != 0:
            print(proc.stdout[-4000:] + proc.stderr[-4000:], file=sys.stderr)
            raise SystemExit(f"workload {name} (trace {trace}) exited {proc.returncode}")
        r = last_json_line(proc.stdout)
        results.setdefault(name, {})[str(trace)] = r
        correct &= r["correct"]
        attempted += r["attempted"]
        failed += r["failed"]
        print(f"== {name} trace={trace} correct={r['correct']} "
              f"attempted={r['attempted']} failed={r['failed']}")
        for k, m in r["metrics"].items():
            print(f"   {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "workloads": results}))
    return 0


def reference_figures():
    a2l = import_program()
    import a2l.verify
    import reference

    suites = run_suite_children(a2l.verify.available_suites())
    report = {"provenance": provenance(a2l), "suites": suites, **reference.figures()}
    OUT.mkdir(exist_ok=True)
    with open(OUT / "reference.json", "w") as f:
        json.dump(report, f, indent=2, default=str)
    for name, r in suites.items():
        print(f"verify {name:24s} {'PASS' if r['passed'] else 'FAIL'} {r['elapsed_s']:8.2f} s")
    print(json.dumps(report, default=str))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, one pass; alone: every workload, trace 0 and 1")
    p.add_argument("--reference", action="store_true",
                   help="verify suite wall times and the figures of reference.py")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--suite", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "a2l" / "__init__.py").is_file():
        print(f"a2l sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))

    if args.setup_only:
        import_program()
        import workloads

        workloads.build(args.workload, args.seed, args.smoke, OUT / "setup-only")
        print("ready", flush=True)
        return 0
    if args.suite:
        import_program()
        from a2l import verify

        start = perf_counter()
        result = verify.run_suite(args.suite)
        print(json.dumps({"passed": result.passed, "elapsed_s": perf_counter() - start,
                          "details": result.details}, default=str))
        return 0
    if args.reference:
        return reference_figures()
    if args.workload == "all":
        return run_many([(w, args.trace, args.smoke) for w in WORKLOADS],
                        args.seed, args.seconds)
    if args.workload is None:
        if args.smoke:
            return run_many([(w, t, True) for t in (0, 1) for w in WORKLOADS],
                            args.seed, args.seconds)
        p.error("give --workload, --smoke or --reference")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
