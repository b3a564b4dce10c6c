"""braidwalk benchmark: time to a verified exact answer, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; workloads are defined in workloads.py.  Every
timed pass runs in a fresh interpreter (perfbench/child.py with
PYTHONPATH=src), one at a time, so that module-level caches such as the
Meyer cocycle's lru_cache start cold, as they do for a CLI user.  Passes
repeat until the next one would end after S seconds, with at least
MIN_PASSES of them; a run stops within RUN_LIMIT_S whatever happens.

--trace 0 prints the end-to-end metrics: setup_s (median time from spawning
an interpreter to having imported braidwalk.cli), solve_s (median pass
time after set-up) and peak_rss_mb (median peak resident memory of a pass
process).  --trace 1 alternates untraced and traced passes and prints the
per-layer metrics of tracer.py, with trace.overhead_s the difference of
their median pass times; the spans go to .bench_out/.  setup_s and solve_s
are in reference seconds, corrected for the speed of the host as measured
inside each child (see child.py); per-layer self times are raw.

The line before the last holds run metadata; the last line is the result:
{"correct", "attempted", "failed", "metrics"}, where attempted and failed
count correctness checks (a pass that crashes counts as one failed check).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
MIN_PASSES = 2
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # a run, set-up probes included, ends within this
# the names of workloads.WORKLOADS; this process never imports braidwalk
WORKLOADS = ("tables", "sweep", "long-words", "walks")

sys.path.insert(0, HERE)
from tracer import METRICS  # noqa: E402


def child_env(root):
    env = dict(os.environ)
    env.pop("BRAIDWALK_THREADS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(root, env, argv, deadline):
    """One child interpreter, killed at the deadline (a monotonic time);
    its JSON line with setup_s added, or None."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, *argv], cwd=root, env=env,
            stdout=subprocess.PIPE, text=True, timeout=max(deadline - spawned, 1),
        )
    except subprocess.TimeoutExpired:
        print("pass timed out: %s" % " ".join(argv), file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("pass failed with exit code %d: %s" % (proc.returncode, " ".join(argv)),
              file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_wall_s"] = result["ready"] - spawned
    result["setup_s"] = (result["setup_wall_s"] - result["setup_sampling_s"]) * result["setup_speed"]
    return result


def git_sha(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_lines(root):
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def median_metrics(layer_runs):
    """Median of each per-layer value over the traced passes."""
    out = {}
    for name in layer_runs[0]:
        values = [run[name] for run in layer_runs if run[name] is not None]
        out[name] = statistics.median(values) if values else None
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ("src/braidwalk/cli.py", "tables/walk_z11_table.csv"):
        if not os.path.isfile(os.path.join(root, needed)):
            print("run from the braidwalk repository root: %s is missing" % needed,
                  file=sys.stderr)
            return 2

    out_dir = os.path.join(root, ".bench_out")
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = child_env(root)
    deadline = time.monotonic() + RUN_LIMIT_S

    setups = []
    for _ in range(SETUP_PROBES):
        probe = run_child(root, env, ["--probe"], deadline)
        if probe is not None:
            setups.append(probe)

    pass_argv = ["--workload", args.workload, "--seed", str(args.seed), "--tmp", tmp_dir]
    results = {0: [], 1: []}
    attempted = failed = 0
    durations = []
    start = time.monotonic()
    try:
        while True:
            for traced in ((0, 1) if args.trace else (0,)):
                began = time.monotonic()
                result = run_child(root, env, pass_argv + ["--trace", str(traced)], deadline)
                durations.append(time.monotonic() - began)
                if result is None:
                    attempted += 1
                    failed += 1
                    continue
                attempted += result["attempted"]
                failed += result["failed"]
                results[traced].append(result)
                setups.append(result)
            rounds = len(durations) // (2 if args.trace else 1)
            per_round = statistics.median(durations) * (2 if args.trace else 1)
            now = time.monotonic()
            if now + per_round > deadline or (
                rounds >= MIN_PASSES and now - start + per_round > args.seconds
            ):
                break
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    untraced = results[0]
    if not untraced or (args.trace and not results[1]):
        print("no pass completed", file=sys.stderr)
        return 1
    solve_s = statistics.median(r["solve_s"] for r in untraced)
    notes = []
    if args.trace:
        traced = results[1]
        layers = median_metrics([r["layers"] for r in traced])
        layers["trace.overhead_s"] = statistics.median(r["solve_s"] for r in traced) - solve_s
        notes = sorted({note for r in traced for note in r["notes"]})
        metrics = {
            name: {"value": layers[name], "unit": unit} for name, (unit, _) in METRICS.items()
        }
        trace_path = os.path.join(out_dir, "trace-%s-seed%d.json" % (args.workload, args.seed))
        with open(trace_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "notes": notes,
                       "passes": [{"spans": r["spans"], "layers": r["layers"]} for r in traced]},
                      fh)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in setups), "unit": "s"},
            "solve_s": {"value": solve_s, "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(r["peak_rss_mb"] for r in untraced), "unit": "MB"
            },
        }
    for note in notes:
        print("note: %s" % note, file=sys.stderr)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": untraced[0]["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(root),
        "passes": len(untraced),
        "solve_s_samples": [r["solve_s"] for r in untraced],
        "solve_wall_s_samples": [r["solve_wall_s"] for r in untraced],
        "solve_speed_samples": [r["solve_speed"] for r in untraced],
        "setup_s_samples": [r["setup_s"] for r in setups],
        "setup_wall_s_samples": [r["setup_wall_s"] for r in setups],
        "fail_ratio": failed / attempted,
        "notes": notes,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
