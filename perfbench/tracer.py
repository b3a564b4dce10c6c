"""Per-layer tracing for the benchmark's traced passes.

The tracer wraps public functions of each braidwalk module in place and
aggregates, per layer, the number of calls, the self time (a call's
duration minus the time spent in wrapped calls beneath it) and a few work
counters.  Hot kernels such as ``linalg.mat_mul`` run millions of times, so
module calls are folded into counters instead of being recorded one span
each; only workload and item boundaries are kept as spans.

A name is patched in every ``braidwalk`` namespace that holds it (the
package, ``meyer.mat_mul``, ``burau.mat_mul`` and ``linalg.mat_mul`` all
get the same wrapper).  A name that no longer exists is skipped with a
note, and a layer left with no wrapped name reports null metrics.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _letters(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "word").letters)


def _dim(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "gram"))


_KIND_COUNTERS = {
    "zero-signature-hyperbolic": "lissajous.pairs.zero_sig",
    "torus-conjugate": "lissajous.pairs.torus",
    "three-component": "lissajous.pairs.three_component",
}


def _classify_kind(tracer, args, kwargs, result):
    tracer.count(_KIND_COUNTERS[result.kind], 1)


def _finite_walk(tracer, args, kwargs, result):
    tracer.count("walks.finite.group_order", result.group_order)
    tracer.count("walks.finite.steps", len(result.tv) - 1)


def _counter(name, amount):
    def record(tracer, args, kwargs, result):
        tracer.count(name, amount(args, kwargs, result))
    return record


# (module, name, layer, counts as a call, counter on the result)
TARGETS = [
    ("braid", "BraidWord.__post_init__", "braid", True, None),
    ("braid", "parse_word", "braid", True, None),
    ("braid", "format_word", "braid", True, None),
    ("braid", "concat", "braid", True, None),
    ("braid", "inverse", "braid", True, None),
    ("braid", "conjugate", "braid", True, None),
    ("braid", "permutation", "braid", True, None),
    ("braid", "closure_components", "braid", True, None),
    ("braid", "writhe", "braid", True, None),
    ("laurent", "LaurentPoly.__add__", "laurent", True, None),
    ("laurent", "LaurentPoly.__sub__", "laurent", True, None),
    ("laurent", "LaurentPoly.__rsub__", "laurent", True, None),
    ("laurent", "LaurentPoly.__neg__", "laurent", True, None),
    ("laurent", "LaurentPoly.__mul__", "laurent", True, None),
    ("laurent", "LaurentPoly.__eq__", "laurent", True, None),
    ("laurent", "LaurentPoly.shift", "laurent", True, None),
    ("laurent", "LaurentPoly.evaluate", "laurent", True, None),
    ("laurent", "LaurentPoly.divide_exact", "laurent", True, None),
    ("linalg", "mat_mul", "linalg.mat_mul", True, None),
    ("linalg", "det_ring", "linalg.det", True, None),
    ("linalg", "det_fraction", "linalg.det", True, None),
    ("linalg", "rref", "linalg.subspace", True, None),
    ("linalg", "kernel_basis", "linalg.subspace", True, None),
    ("linalg", "image_basis", "linalg.subspace", True, None),
    ("linalg", "span_contains", "linalg.subspace", True, None),
    ("linalg", "subspace_intersection", "linalg.subspace", True, None),
    ("linalg", "solve_particular", "linalg.subspace", True, None),
    ("linalg", "form_signature", "linalg.form_signature", True,
     _counter("linalg.form_signature.dim_sum", _dim)),
    ("burau", "burau_minus1", "burau.minus1", True,
     _counter("burau.minus1.letters", _letters)),
    ("burau", "burau_generator", "burau.generic", True, None),
    ("burau", "burau_matrix", "burau.generic", True, None),
    ("burau", "burau_eval", "burau.generic", True, None),
    ("burau", "alexander_poly", "burau.alexander", True, None),
    ("burau", "alexander_at_minus1", "burau.alexander", True, None),
    ("burau", "mat_sub_identity_det", "burau.alexander", True, None),
    ("meyer", "meyer_cocycle", "meyer.cocycle", True, None),
    ("meyer", "gg_signature", "meyer.gg", True,
     _counter("meyer.gg.letters", _letters)),
    ("meyer", "power_signatures", "meyer.gg", False, None),
    ("meyer", "seifert_signature_oracle", "meyer.seifert", True, None),
    ("meyer", "seifert_matrix", "meyer.seifert", False,
     _counter("meyer.seifert.dim_sum", lambda a, k, r: len(r))),
    ("lissajous", "classify", "lissajous.classify", True, _classify_kind),
    ("lissajous", "percentage_table", "lissajous.table", True, None),
    ("walks", "hitting_series", "walks.dp", True, None),
    ("walks", "hitting_probability", "walks.dp", True, None),
    ("walks", "step_distribution", "walks.dp", True, None),
    ("walks", "finite_walk_tv", "walks.finite", True, _finite_walk),
    ("walks", "finite_step_distribution", "walks.finite", True, None),
    ("walks", "reduce_mod_p", "walks.finite", True, None),
    ("walks", "zero_density", "walks.density", True, None),
    ("walks", "monte_carlo_hitting", "walks.mc", True,
     _counter("walks.mc.trials", lambda a, k, r: r["trials"])),
    ("cli", "main", "cli", True, None),
]

# Per-layer metrics printed by a traced run: name -> (unit, layer it needs).
# Counters computed by the workload itself (not by a wrapper) have no layer.
METRICS = {
    "linalg.mat_mul.calls": ("count", "linalg.mat_mul"),
    "linalg.mat_mul.self_s": ("s", "linalg.mat_mul"),
    "burau.minus1.calls": ("count", "burau.minus1"),
    "burau.minus1.letters": ("count", "burau.minus1"),
    "burau.minus1.self_s": ("s", "burau.minus1"),
    "braid.calls": ("count", "braid"),
    "braid.self_s": ("s", "braid"),
    "lissajous.classify.calls": ("count", "lissajous.classify"),
    "lissajous.classify.self_s": ("s", "lissajous.classify"),
    "lissajous.table.self_s": ("s", "lissajous.table"),
    "lissajous.pairs.zero_sig": ("count", "lissajous.classify"),
    "lissajous.pairs.torus": ("count", "lissajous.classify"),
    "lissajous.pairs.three_component": ("count", "lissajous.classify"),
    "meyer.cocycle.calls": ("count", "meyer.cocycle"),
    "meyer.cocycle.self_s": ("s", "meyer.cocycle"),
    "meyer.gg.calls": ("count", "meyer.gg"),
    "meyer.gg.letters": ("count", "meyer.gg"),
    "meyer.gg.self_s": ("s", "meyer.gg"),
    "meyer.pair_repeat_share": ("ratio", None),
    "linalg.subspace.self_s": ("s", "linalg.subspace"),
    "meyer.seifert.calls": ("count", "meyer.seifert"),
    "meyer.seifert.dim_sum": ("count", "meyer.seifert"),
    "meyer.seifert.self_s": ("s", "meyer.seifert"),
    "linalg.form_signature.calls": ("count", "linalg.form_signature"),
    "linalg.form_signature.dim_sum": ("count", "linalg.form_signature"),
    "linalg.form_signature.self_s": ("s", "linalg.form_signature"),
    "laurent.calls": ("count", "laurent"),
    "laurent.self_s": ("s", "laurent"),
    "linalg.det.calls": ("count", "linalg.det"),
    "linalg.det.self_s": ("s", "linalg.det"),
    "burau.generic.self_s": ("s", "burau.generic"),
    "burau.alexander.self_s": ("s", "burau.alexander"),
    "walks.dp.self_s": ("s", "walks.dp"),
    "walks.dp.distinct_states": ("count", "walks.dp"),
    "walks.finite.self_s": ("s", "walks.finite"),
    "walks.finite.group_order": ("count", "walks.finite"),
    "walks.finite.steps": ("count", "walks.finite"),
    "walks.density.self_s": ("s", "walks.density"),
    "walks.mc.trials": ("count", "walks.mc"),
    "walks.mc.self_s": ("s", "walks.mc"),
    "cli.self_s": ("s", "cli"),
    "cli.emit_bytes": ("bytes", "cli"),
    "trace.overhead_s": ("s", None),
}


class NullTracer:
    """Stand-in used by untraced passes: records nothing."""

    @contextmanager
    def span(self, name):
        yield

    def count(self, name, amount):
        pass


class Tracer:
    """Spans at workload and item boundaries, counters per layer.

    Each open span or wrapped call owns one frame on a stack; a frame
    accumulates the time of its wrapped children, which is subtracted
    from its own duration to give self time.
    """

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[dict] = []
        self.installed: set[str] = set()
        self.notes: list[str] = []
        self._stack = [[0.0]]
        self._open: list[int] = []

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def span(self, name):
        frame = [0.0]
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self._stack.append(frame)
        self._open.append(index)
        self.spans.append({"id": index, "parent": parent, "name": name})
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._open.pop()
            self._stack[-1][0] += end - start
            self.spans[index].update(
                start=start, end=end, self_s=end - start - frame[0]
            )

    def _wrap(self, fn, layer, counts_call, record):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter
        calls.setdefault(layer, 0)
        self_s.setdefault(layer, 0.0)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][0] += duration
                self_s[layer] += duration - frame[0]
                if counts_call:
                    calls[layer] += 1
            if record is not None:
                record(tracer, args, kwargs, result)
            return result

        return wrapper

    def _wrap_hitting_series(self, fn):
        """hitting_series with a predicate that counts its evaluations.

        hitting_series evaluates its predicate once per distinct matrix, so
        the count is the number of distinct states the DP visited.
        """
        counters = self.counters

        def with_counting_predicate(mu, predicate, *args, **kwargs):
            if isinstance(predicate, str):
                predicate = sys.modules["braidwalk.walks"].PREDICATES[predicate][0]

            def counted(m):
                counters["walks.dp.distinct_states"] = (
                    counters.get("walks.dp.distinct_states", 0) + 1
                )
                return predicate(m)

            return fn(mu, counted, *args, **kwargs)

        return with_counting_predicate

    def install(self):
        """Patch every target found in the loaded braidwalk modules."""
        namespaces = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "braidwalk" or name.startswith("braidwalk."))
        ]
        for module_name, name, layer, counts_call, record in TARGETS:
            owner = sys.modules.get("braidwalk." + module_name)
            parts = name.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            orig = getattr(owner, parts[-1], None) if owner is not None else None
            if orig is None:
                self.notes.append("braidwalk.%s.%s not found; not traced" % (module_name, name))
                continue
            fn = orig
            if module_name == "walks" and name == "hitting_series":
                fn = self._wrap_hitting_series(orig)
            wrapper = self._wrap(fn, layer, counts_call, record)
            holders = [owner] if len(parts) > 1 else namespaces
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapper)
            self.installed.add(layer)

    def metrics(self, extra):
        """Per-layer metric values; extra holds workload-level values."""
        out = {}
        for name, (unit, layer) in METRICS.items():
            if layer is None:
                value = extra.get(name)
            elif layer not in self.installed:
                value = None
            elif name.endswith(".calls"):
                value = self.calls[layer]
            elif name.endswith(".self_s"):
                value = self.self_s[layer]
            else:
                value = self.counters.get(name, 0)
            out[name] = value
        return out
