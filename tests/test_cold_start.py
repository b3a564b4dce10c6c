"""braidwalk in a fresh interpreter: the package and every command that
never walks start without numpy, and a walk command, which imports numpy
on first use, prints the same bytes as in-process."""

import json
import os
import subprocess
import sys
from pathlib import Path

from braidwalk import cli

SRC = Path(__file__).resolve().parents[1] / "src"

# commands whose work is pure integer arithmetic
NO_NUMPY_COMMANDS = [
    ["signature", "--word", "1 1 1"],
    ["verify", "oracle", "--maxlen", "3"],
    ["lissajous", "classify", "--q", "5", "--p", "7"],
    ["lissajous", "table", "--qmax", "13"],
    ["lissajous", "sample", "--q", "3", "--p", "2", "--samples", "8"],
    ["lissajous", "sweep", "--q", "2", "--p", "1"],
    ["alexander", "--word", "1 1 1 2", "--strands", "3"],
    ["meyer", "--g1", "1 1 0 1", "--g2", "1 0 -1 1"],
    ["burau", "--word", "1 -2", "--strands", "3"],
]

# each command through cli.main; one JSON line: whether numpy was loaded
# after the imports and after each command, and what each command printed
CHILD = """
import contextlib, io, json, sys
import braidwalk.cli
runs = [{"argv": None, "numpy": "numpy" in sys.modules}]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = braidwalk.cli.main(argv)
    runs.append({"argv": argv, "rc": rc, "out": out.getvalue(),
                 "numpy": "numpy" in sys.modules})
print(json.dumps(runs))
"""


def fresh_cli(commands):
    """CHILD's record of the argv lists, run in a new interpreter with src
    on its path; it writes no bytecode into the tree."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_and_integer_commands_load_no_numpy(capsys):
    imports, *runs = fresh_cli(NO_NUMPY_COMMANDS)
    assert imports["numpy"] is False
    assert [run["argv"] for run in runs] == NO_NUMPY_COMMANDS
    for run in runs:
        assert run["rc"] == 0 and run["numpy"] is False, run["argv"]
        assert cli.main(run["argv"]) == 0
        assert run["out"] == capsys.readouterr().out, run["argv"]
    assert runs[0]["out"] == "-2\n"


def test_walk_in_a_fresh_interpreter_prints_the_in_process_bytes(capsys):
    argv = ["walk", "--exact", "--steps", "4"]
    imports, run = fresh_cli([argv])
    # the walk code imports numpy on first use
    assert imports["numpy"] is False and run["numpy"] is True
    assert run["rc"] == 0 and cli.main(argv) == 0
    assert run["out"] == capsys.readouterr().out
