"""One benchmark pass in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/child.py --probe
    PYTHONPATH=src python3 perfbench/child.py --workload NAME --seed N --trace 0|1 --tmp DIR

Run from the repository root.  The interpreter first imports braidwalk.cli,
which is the set-up being measured, then builds the workload's inputs, times
one pass, reads the peak resident memory and only then checks the outputs.
Prints one JSON line on stdout; the program's own stdout is captured by the
workload.  ``--probe`` stops after the import.

A shared host runs the same code up to twice as fast or slow for stretches
of seconds to minutes, so the child also measures the speed of the host
while it works: from its first line to the end of the pass, a SIGALRM every
SAMPLE_PERIOD_S times ``chunk()``, a fixed piece of pure-Python work that
calls nothing in braidwalk.  setup_s and solve_s are reported in reference
seconds: wall time less the time spent in the samples, times
CHUNK_REF_S / (mean CPU time of a chunk over the same stretch).  The raw
wall times and these speed factors are reported too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback

SAMPLE_PERIOD_S = 0.02
CHUNK_ROUNDS = 600
# chunk() takes about this long on a 2-core x86-64 VM in its faster phases
CHUNK_REF_S = 0.0002
MIN_SETUP_SAMPLES = 8


def chunk():
    """(wall seconds, CPU seconds of this thread) for a fixed amount of
    integer arithmetic and tuple-keyed dict stores, the kind of interpreter
    work braidwalk does.  The speed is taken from the CPU time, so that
    other processes or threads of the program itself, which take the core
    or the GIL from the sample, count far less as a slow host."""
    start = time.perf_counter()
    cpu = time.thread_time()
    x = 1
    table = {}
    for i in range(CHUNK_ROUNDS):
        x = (x * 1103515245 + 12345) % 2147483648
        table[(i & 63, x & 15)] = x
    return time.perf_counter() - start, time.thread_time() - cpu


class SpeedSampler:
    """Times chunk() every SAMPLE_PERIOD_S seconds of wall time."""

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def _sample(self, signum, frame):
        self.samples.append(chunk())

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def since(self, first):
        """(wall time spent sampling, reference seconds per second) over
        the samples from index `first` on."""
        window = self.samples[first:]
        return (sum(wall for wall, _ in window),
                CHUNK_REF_S / statistics.fmean(cpu for _, cpu in window))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp")
    args = ap.parse_args()
    sampler = SpeedSampler()

    import braidwalk.cli  # noqa: F401  (the set-up being measured)

    ready = time.monotonic()
    setup_sampling_s, _ = sampler.since(0)
    while len(sampler.samples) < MIN_SETUP_SAMPLES:
        sampler.samples.append(chunk())
    _, setup_speed = sampler.since(0)
    out = {
        "ready": ready,
        "setup_sampling_s": setup_sampling_s,
        "setup_speed": setup_speed,
    }
    if args.probe:
        sampler.stop()
        print(json.dumps(out))
        return 0

    import numpy

    import tracer as tracing
    import workloads

    make_inputs, solve, check, extra = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed, os.getcwd())
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracer.install()
    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        first = len(sampler.samples)
        start = time.perf_counter()
        with tracer.span(args.workload):
            outputs = solve(inputs, tracer, tmp)
        solve_wall_s = time.perf_counter() - start
        sampler.stop()
        sampling_s, solve_speed = sampler.since(first)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        layers = tracer.metrics(extra(inputs)) if args.trace else None
        try:
            results = check(inputs, outputs)
        except Exception:
            traceback.print_exc()
            results = [False]
    out.update({
        "solve_s": (solve_wall_s - sampling_s) * solve_speed,
        "solve_wall_s": solve_wall_s,
        "solve_speed": solve_speed,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(results),
        "failed": results.count(False),
        "numpy": numpy.__version__,
    })
    if args.trace:
        out.update(layers=layers, spans=tracer.spans, notes=tracer.notes)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
