"""Every a2l name the benchmark's code reads must exist.

perfbench/layers.py selects traced calls by quoted "<module>.<name>"
strings.  A renamed or deleted callable does not fail the benchmark: its
metric silently reads 0.  The other perfbench files call a2l through module
aliases (``bd.EpochSchedule.custom``, ``harness.load_config``); a rename
there breaks a workload or ``run.py --reference`` only when the benchmark
runs.  These tests resolve each such name on a2l, and check that a traced
run calls each learner and reduction name once a round.
"""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import a2l

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"
TRACER = PERFBENCH / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    quoted = set(re.findall(r'"([a-z_]+\.[A-Za-z_][\w.]*)"', LAYERS.read_text()))
    return sorted(quoted - set(layers.LAYER_METRICS))


def test_layer_metrics_name_existing_callables():
    names = traced_names()
    assert "fisher.a2l_prd_step" in names and "reduction.A2L.observe" in names
    missing = []
    for name in names:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"a2l.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(name)
    assert missing == []


def _dotted(node):
    """The dotted name of an attribute chain on a name, such as bd.EpochSchedule.custom;
    None for any other chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def alias_reads(path):
    """Each "<alias>.<name>..." that a file reads, the alias bound to an a2l module."""
    tree = ast.parse(path.read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "a2l":
            aliases.update((a.asname or a.name, f"a2l.{a.name}") for a in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(("a2l", "a2l") for a in node.names if a.name.split(".")[0] == "a2l")
    reads = {_dotted(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return {(name, aliases[name.split(".")[0]]) for name in reads - {None}
            if name.split(".")[0] in aliases}


def test_perfbench_reads_existing_a2l_names():
    for info in pkgutil.iter_modules(a2l.__path__):
        importlib.import_module(f"a2l.{info.name}")  # cli and verify load on demand
    reads = set().union(*(alias_reads(path) for path in sorted(PERFBENCH.glob("*.py"))))
    names = {name for name, _ in reads}
    assert {"bd.iw_radius", "bd.EpochSchedule.custom", "fi.run_prd",
            "harness.load_config", "a2l.verify.available_suites"} <= names
    assert [name for name, module in sorted(reads) if not _resolves(name, module)] == []


def _resolves(name, module) -> bool:
    obj = importlib.import_module(module)
    for attr in name.split(".")[1:]:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


# Runs in a fresh interpreter, since installing the tracer wraps a2l's
# callables for the rest of the process: argv is the tracer's path, T and
# the algorithms to run.  Prints each run's call count per traced name.
TRACED_RUNS = """
import importlib.util, json, sys
import a2l, a2l.dynamics as dyn
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tr = tracer.Tracer()
tr.install(a2l)
game = a2l.games.generate_game("random_zs", n=3, d=(2, 4, 3), seed=5)
counts = {}
for algo in sys.argv[3:]:
    tr.phase = algo
    dyn.run_full_feedback(game, dyn.LearnerSpec(algo=algo), int(sys.argv[2]), records=False)
    counts[algo] = {tr.names[i]: st.count for (phase, i), st in tr.stats.items() if phase == algo}
print(json.dumps(counts))
"""


def test_learner_and_reduction_layers_are_traced_once_a_round():
    # learners.* and reduction.* per-layer metrics time the calls of these
    # names; a round that skipped one, or called it twice, would skew them.
    names = [n for n in traced_names() if n.split(".")[0] in ("learners", "reduction")]
    assert sorted(names) == ["learners.advance", "learners.mwu_next", "learners.omwu_next",
                             "reduction.A2L.next_strategy", "reduction.A2L.observe"]
    T = 300  # past one chunk of rounds
    algos = ("a2l-omwu", "a2l-mwu", "omwu", "mwu")
    src = str(Path(a2l.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", TRACED_RUNS, str(TRACER), str(T), *algos],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    counts = json.loads(out.stdout)
    for algo in algos:
        step = "learners.omwu_next" if algo.endswith("omwu") else "learners.mwu_next"
        wrapped = algo.startswith("a2l")
        want = {"learners.advance": T, step: T,
                "reduction.A2L.next_strategy": T if wrapped else 0,
                "reduction.A2L.observe": T if wrapped else 0}
        assert {name: counts[algo].get(name, 0) for name in names} == {
            name: want.get(name, 0) for name in names}, algo
