"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, each in its own process.  Every metric named in BENCHMARK.json must
appear with its unit, every check must pass and no operation may fail.

Run with ``python -m pytest perfbench/test_smoke.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke_reports_every_metric_with_zero_failures():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0

    wanted = {"0": spec["end_to_end"], "1": spec["per_layer"]}
    assert set(result["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, runs in result["workloads"].items():
        for trace, metrics in wanted.items():
            run = runs[trace]
            assert run["correct"] is True, (name, trace)
            assert run["attempted"] >= 1 and run["failed"] == 0, (name, trace)
            assert set(run["metrics"]) == {m["name"] for m in metrics}, (name, trace)
            for m in metrics:
                got = run["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (name, m["name"])
                assert isinstance(got["value"], (int, float)), (name, m["name"])
