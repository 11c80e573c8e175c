"""Every a2l name the benchmark's per-layer metrics read must exist.

perfbench/layers.py selects traced calls by quoted "<module>.<name>"
strings.  A renamed or deleted callable does not fail the benchmark: its
metric silently reads 0.  This test resolves each such name on a2l.
"""

import importlib
import importlib.util
import re
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


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
