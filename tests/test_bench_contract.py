"""The per-layer metrics of perfbench/tracer.py must stay measurable.

The tracer wraps names listed in its TARGETS table and reports each layer
of its METRICS table from the wrapped names.  A layer none of whose names
exists any more prints null metrics, so deleting or renaming the last
traced name of a layer has to fail here, not only in a traced benchmark
run.  The tracer module is loaded from its file and never installed.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    """Execute tracer.py from its source, writing no bytecode next to it."""
    module = types.ModuleType("perfbench_tracer")
    code = compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec")
    exec(code, module.__dict__)
    return module


def _resolves(module_name, name):
    owner = importlib.import_module("braidwalk." + module_name)
    for part in name.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return callable(owner)


tracer = _load_tracer()
LAYERS = sorted({layer for _, layer in tracer.METRICS.values() if layer is not None})


@pytest.mark.parametrize("layer", LAYERS)
def test_every_metric_layer_has_a_traced_name(layer):
    names = [
        "%s.%s" % (module_name, name)
        for module_name, name, target_layer, _, _ in tracer.TARGETS
        if target_layer == layer and _resolves(module_name, name)
    ]
    assert names, "no TARGETS name of layer %r exists in braidwalk" % layer
