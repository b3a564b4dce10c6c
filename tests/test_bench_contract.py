"""The per-layer metrics of perfbench/tracer.py must stay measurable.

The tracer wraps names listed in its TARGETS table and reports each layer
of its METRICS table from the wrapped names.  A layer none of whose names
exists any more prints null metrics, so deleting or renaming the last
traced name of a layer has to fail here, not only in a traced benchmark
run.  The tracer's hitting_series wrapper must also leave the CLI output
unchanged.  Each workload's own correctness checks must pass on one
untraced pass, so that a change the benchmark would reject as giving wrong
outputs fails here too.  The tracer and workload modules are loaded from
their files and never installed.
"""

import importlib
import types
from pathlib import Path

import pytest

from braidwalk import cli, walks

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    """Execute perfbench/<name>.py from its source, writing no bytecode
    next to it."""
    path = ROOT / "perfbench" / (name + ".py")
    module = types.ModuleType("perfbench_" + name)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _resolves(module_name, name):
    owner = importlib.import_module("braidwalk." + module_name)
    for part in name.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return callable(owner)


tracer = _load("tracer")
workloads = _load("workloads")
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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_checks_pass(name, tmp_path):
    # one untraced pass of the benchmark workload, judged by its own checks:
    # these read the names and the CLI bytes that the benchmark depends on
    inputs, solve, check, _ = workloads.WORKLOADS[name]
    given = inputs(1, str(ROOT))
    checks = check(given, solve(given, tracer.NullTracer(), str(tmp_path)))
    assert checks and all(ok is True for ok in checks), (
        "workload %r: checks %s fail" % (name, [i for i, ok in enumerate(checks) if ok is not True])
    )
