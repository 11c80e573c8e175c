"""Every a2l name the benchmark's code reads must exist.

perfbench/layers.py selects traced calls by quoted "<module>.<name>"
strings.  A renamed or deleted callable does not fail the benchmark: its
metric silently reads 0.  The other perfbench files call a2l through module
aliases (``bd.EpochSchedule.custom``, ``harness.load_config``); a rename
there breaks a workload or ``run.py --reference`` only when the benchmark
runs.  These tests resolve each such name on a2l.
"""

import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import a2l

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"


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
