"""The per-layer metrics of perfbench/tracer.py must stay measurable.

The tracer wraps names listed in its TARGETS table and reports each layer
of its METRICS table from the wrapped names.  A layer none of whose names
exists any more prints null metrics, so deleting or renaming the last
traced name of a layer has to fail here, not only in a traced benchmark
run.  The tracer's hitting_series wrapper must also leave the CLI output
unchanged.  The tracer module is loaded from its file and never installed.
"""

import importlib
import types
from pathlib import Path

import pytest

from braidwalk import cli, walks

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


def _walk_and_tables(capsys, out_dir):
    """stdout of `walk --exact --steps 4` and the files `reproduce
    paper-tables` writes into out_dir."""
    assert cli.main(["walk", "--exact", "--steps", "4"]) == 0
    walk = capsys.readouterr().out
    assert cli.main(["reproduce", "paper-tables", "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    return walk, {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def test_traced_hitting_series_keeps_cli_output(monkeypatch, capsys, tmp_path):
    # the wrapper counts calls of the predicate it is handed, which must be
    # a function: it has no name lookup of its own for PREDICATES
    plain = _walk_and_tables(capsys, tmp_path / "plain")
    traced = tracer.Tracer()
    monkeypatch.setattr(cli, "hitting_series", traced._wrap_hitting_series(walks.hitting_series))
    assert _walk_and_tables(capsys, tmp_path / "traced") == plain
    # one predicate call per step: k = 0..4 for walk, 0..12 for the z11 table
    assert traced.counters["walks.dp.distinct_states"] == 5 + 13
