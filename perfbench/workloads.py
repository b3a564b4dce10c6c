"""Workload inputs, passes and correctness checks.

Each workload has three parts:

* ``inputs(seed, root)`` builds the inputs.  ``tables`` and ``sweep`` are
  fixed by definition; the seed drives only the ``long-words`` draws and
  the Monte Carlo seed of ``walks``.
* ``solve(inputs, tracer, tmp)`` is the timed pass.  It hands the program
  only the generated inputs, through its public API or ``cli.main``.
* ``check(inputs, outputs)`` compares the outputs with exact values that do
  not come from the same code path, and returns one boolean per check.

Why these four: ``tables`` is the headline CLI command and never touches
the Meyer cocycle; ``sweep`` repeats 96 % of its Meyer inputs, so it leans
on the cocycle cache, while ``long-words`` repeats under 3 % and so pays
for nearly every cocycle evaluation; ``walks`` exercises the walk DP, the finite
quotient walks and Monte Carlo, which no other workload runs.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from fractions import Fraction

import numpy as np

from braidwalk import braid, burau, cli, meyer, walks

TABLE_FILES = (
    "walk_z11_table.csv",
    "lissajous_table_literal.csv",
    "lissajous_table_full_range.csv",
)

# t = -1 Burau images of the 3-strand generators, written out here so that
# the repeat share of Meyer inputs is a property of the words alone.
_GEN3 = {
    1: (1, 0, -1, 1),
    -1: (1, 0, 1, 1),
    2: (1, 1, 0, 1),
    -2: (1, -1, 0, 1),
}


def _mul2(a, b):
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def meyer_pair_repeat_share(words, power_n=1):
    """Share of (prefix image, generator) Meyer inputs seen before.

    gg_signature evaluates the cocycle on (image of the prefix, image of
    the next letter) for every letter; power_signatures(w, n) adds
    (image(w)^j, image(w)) for j = 1..n-1.
    """
    seen = set()
    total = 0
    for letters in words:
        prefix = (1, 0, 0, 1)
        for g in letters:
            seen.add((prefix, _GEN3[g]))
            total += 1
            prefix = _mul2(prefix, _GEN3[g])
        power = prefix
        for _ in range(1, power_n):
            seen.add((power, prefix))
            total += 1
            power = _mul2(power, prefix)
    return 1 - len(seen) / total if total else 0.0


def _run_cli(argv, tracer):
    """cli.main with its stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    text = buf.getvalue()
    tracer.count("cli.emit_bytes", len(text.encode()))
    return code, text


def _random_word(rng, strands, length):
    """Freely reduced word of exactly `length` letters."""
    letters = []
    while len(letters) < length:
        g = rng.randrange(1, strands) * rng.choice((1, -1))
        if not letters or letters[-1] != -g:
            letters.append(g)
    return tuple(letters)


def _read_z11_table(root):
    """Exact step-k values from the committed z11 hitting table."""
    exact = {}
    with open(os.path.join(root, "tables", "walk_z11_table.csv")) as fh:
        for line in fh:
            if line[0].isdigit():
                k, value, _ = line.strip().split(",")
                exact[int(k)] = Fraction(value)
    return exact


# ---------------------------------------------------------------------------
# tables: `braidwalk reproduce paper-tables`


def tables_inputs(seed, root):
    expected = {}
    for name in TABLE_FILES:
        with open(os.path.join(root, "tables", name), "rb") as fh:
            expected[name] = fh.read()
    return {"expected": expected}


def tables_solve(inputs, tracer, tmp):
    out_dir = os.path.join(tmp, "tables")
    with tracer.span("reproduce paper-tables"):
        code, _ = _run_cli(["reproduce", "paper-tables", "--out-dir", out_dir], tracer)
    written = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            written[name] = fh.read()
    tracer.count("cli.emit_bytes", sum(len(v) for v in written.values()))
    return {"code": code, "written": written}


def tables_check(inputs, outputs):
    checks = [outputs["code"] == 0, sorted(outputs["written"]) == sorted(TABLE_FILES)]
    for name, data in inputs["expected"].items():
        checks.append(outputs["written"].get(name) == data)
    return checks


# ---------------------------------------------------------------------------
# sweep: every freely reduced 3-braid word up to length 8


SWEEP_MAXLEN = 8


def sweep_inputs(seed, root):
    by_length = [[()]]
    for _ in range(SWEEP_MAXLEN):
        by_length.append([
            w + (g,) for w in by_length[-1] for g in (1, -1, 2, -2)
            if not w or w[-1] != -g
        ])
    return {"by_length": by_length}


def sweep_solve(inputs, tracer, tmp):
    pairs = []
    for length, words in enumerate(inputs["by_length"]):
        with tracer.span("length %d" % length):
            for letters in words:
                word = braid.BraidWord(3, letters)
                pairs.append((
                    meyer.gg_signature(word).value,
                    meyer.seifert_signature_oracle(word),
                ))
    return {"pairs": pairs}


def sweep_check(inputs, outputs):
    pairs = outputs["pairs"]
    expected = sum(len(w) for w in inputs["by_length"])
    return [a == b for a, b in pairs] + [len(pairs) == expected]


def sweep_extra(inputs):
    words = [w for ws in inputs["by_length"] for w in ws]
    return {"meyer.pair_repeat_share": meyer_pair_repeat_share(words)}


# ---------------------------------------------------------------------------
# long-words: seeded long 3-braids, Seifert subset, many-strand Alexander


# The cost of a word varies by 10-20 % from one seeded word to the next, so
# a pass takes many words and its time varies little with the seed.
LONG_WORDS = 32
LONG_LENGTH = 200
LONG_POWERS = 3
# The Seifert oracle costs about length^3: 2.5 s at length 200 and 0.4 s at
# 100.  It runs on ORACLE_WORDS extra words of ORACLE_LENGTH, so that it
# does not swamp the Meyer recursion the workload is for.
ORACLE_WORDS = 8
ORACLE_LENGTH = 100
DOUBLED_CHECKS = 4
ALEXANDER_WORDS = ((8, 40), (9, 40), (11, 40), (12, 40)) * 2


def long_words_inputs(seed, root):
    rng = random.Random(seed)
    return {
        "words": [_random_word(rng, 3, LONG_LENGTH) for _ in range(LONG_WORDS)]
        + [_random_word(rng, 3, ORACLE_LENGTH) for _ in range(ORACLE_WORDS)],
        "alexander": [
            (strands, _random_word(rng, strands, length))
            for strands, length in ALEXANDER_WORDS
        ],
    }


def long_words_solve(inputs, tracer, tmp):
    out = {"powers": [], "oracle": [], "alexander": []}
    for i, letters in enumerate(inputs["words"]):
        with tracer.span("3-braid %d" % i):
            word = braid.BraidWord(3, letters)
            # power_signatures starts with gg_signature(word) itself
            out["powers"].append(meyer.power_signatures(word, LONG_POWERS))
            if i >= LONG_WORDS:
                out["oracle"].append(meyer.seifert_signature_oracle(word))
    for strands, letters in inputs["alexander"]:
        with tracer.span("alexander %d strands" % strands):
            out["alexander"].append(burau.alexander_poly(braid.BraidWord(strands, letters)))
    return out


def long_words_check(inputs, outputs):
    """The signature against the Seifert oracle on the oracle words; the second
    power signature against gg_signature on the doubled word for the first
    DOUBLED_CHECKS words; Alexander polynomials against det(B(-1) - I) for
    odd strands and against Delta(1), which is +-1 for knots and 0 for
    links."""
    words = inputs["words"]
    checks = [
        len(outputs["oracle"]) == ORACLE_WORDS,
        len(outputs["powers"]) == len(words),
        len(outputs["alexander"]) == len(ALEXANDER_WORDS),
    ]
    for powers, oracle in zip(outputs["powers"][LONG_WORDS:], outputs["oracle"]):
        checks.append(powers[0] == oracle)
    for letters, powers in zip(words[:DOUBLED_CHECKS], outputs["powers"]):
        doubled = meyer.gg_signature(braid.BraidWord(3, letters + letters)).value
        checks.append(powers[1] == doubled)
    for (strands, letters), poly in zip(inputs["alexander"], outputs["alexander"]):
        word = braid.BraidWord(strands, letters)
        at_one = abs(poly.evaluate(1))
        checks.append(at_one == (1 if braid.closure_components(word) == 1 else 0))
        if strands % 2 == 1:
            checks.append(abs(poly.evaluate(-1)) == abs(burau.alexander_at_minus1(word)))
    return checks


def long_words_extra(inputs):
    return {"meyer.pair_repeat_share": meyer_pair_repeat_share(inputs["words"], LONG_POWERS)}


# ---------------------------------------------------------------------------
# walks: exact DP, finite quotient walk, zero density, Monte Carlo via the CLI


DP_STEPS = 15
DP5_STEPS = 5
FINITE_P = 7
FINITE_STEPS = 60
DENSITY = ("m11", 2, 3)
MC_STEPS = 12
MC_TRIALS = 50_000


def walks_inputs(seed, root):
    return {"mc_seed": seed, "z11": _read_z11_table(root)}


def walks_solve(inputs, tracer, tmp):
    out = {}
    mu3 = walks.GenMeasure.uniform_generators(3)
    with tracer.span("dp z11 k=%d" % DP_STEPS):
        out["z11"] = walks.hitting_series(mu3, walks.predicate_z11, DP_STEPS)
    with tracer.span("dp 5 strands k=%d" % DP5_STEPS):
        mu5 = walks.GenMeasure.uniform_generators(5)
        out["z11_5"] = walks.hitting_series(mu5, walks.predicate_z11, DP5_STEPS)
    with tracer.span("finite walk PSL(2,%d)" % FINITE_P):
        out["finite"] = walks.finite_walk_tv(
            mu3, FINITE_P, projective=True, steps=FINITE_STEPS
        )
    with tracer.span("zero density %s l=%d p=%d" % DENSITY):
        out["density"] = walks.zero_density(*DENSITY)
    with tracer.span("monte carlo"):
        out["mc"] = _run_cli([
            "walk", "--steps", str(MC_STEPS), "--trials", str(MC_TRIALS),
            "--seed", str(inputs["mc_seed"]),
        ], tracer)
    return out


def _enumerated_series(strands, kmax):
    """Exact z11 hitting series by enumerating every word of length k."""
    gens = [g for i in range(1, strands) for g in (i, -i)]
    mats = np.array(
        [burau.burau_minus1(braid.BraidWord(strands, (g,))) for g in gens], dtype=np.int64
    )
    d = mats.shape[1]
    cur = np.eye(d, dtype=np.int64)[None]
    series = [Fraction(int(np.abs(cur[:, 0, 0]).max() > 2))]
    for k in range(1, kmax + 1):
        cur = (cur[:, None] @ mats[None]).reshape(-1, d, d)
        series.append(Fraction(int((np.abs(cur[:, 0, 0]) > 2).sum()), len(gens) ** k))
    return series


def walks_check(inputs, outputs):
    """DP against the committed table and a brute-force enumeration; group
    order and TV at step 0 against |PSp(2,p)|; the density against the
    orbit count (p^(2l-1) - 1)/(p^(2l) - 1) (Sp is transitive on nonzero
    vectors); Monte Carlo within 5 standard errors of the exact values."""
    checks = []
    exact = inputs["z11"]
    z11 = outputs["z11"]
    checks += [z11[k] == exact[k] for k in range(1, 13)]
    checks.append(len(z11) == DP_STEPS + 1)
    checks.append(outputs["z11_5"] == _enumerated_series(5, DP5_STEPS))
    finite = outputs["finite"]
    order = walks.psp_order(1, FINITE_P)
    checks.append(finite.group_order == order and finite.generated)
    checks.append(len(finite.tv) == FINITE_STEPS + 1 and finite.tv[0] == 1 - Fraction(1, order))
    _, l, p = DENSITY
    checks.append(outputs["density"] == Fraction(p ** (2 * l - 1) - 1, p ** (2 * l) - 1))
    code, text = outputs["mc"]
    rows = [line.split(",") for line in text.splitlines() if line[:1].isdigit()]
    checks.append(code == 0 and len(rows) == MC_STEPS)
    for k, estimate, _ in rows:
        prob = exact[int(k)]
        stderr = (prob * (1 - prob) / MC_TRIALS) ** 0.5
        checks.append(abs(Fraction(estimate) - prob) <= 5 * stderr)
    return checks


def no_meyer_extra(inputs):
    return {"meyer.pair_repeat_share": 0.0}


# name -> (inputs, solve, check, workload-level per-layer values)
WORKLOADS = {
    "tables": (tables_inputs, tables_solve, tables_check, no_meyer_extra),
    "sweep": (sweep_inputs, sweep_solve, sweep_check, sweep_extra),
    "long-words": (long_words_inputs, long_words_solve, long_words_check, long_words_extra),
    "walks": (walks_inputs, walks_solve, walks_check, no_meyer_extra),
}
