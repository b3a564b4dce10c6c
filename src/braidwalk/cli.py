"""Command-line front end: invariants of single words, walk experiments,
finite-group statistics, Lissajous classification, table reproduction and
the exhaustive signature check.

Each subcommand handler returns its output lines and main writes them, to
stdout or to the file named by --out; reproduce also writes its three
table files.  An --out that names a directory or lies in a missing one is
refused before any work.  Exit codes: 0 on success, 1 on usage errors and
on output paths that cannot be written, 2 when a computation rejects its
input (the diagnostic names the violated precondition).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .braid import BraidWord, format_word, parse_word
from .burau import alexander_at_minus1, alexander_poly, burau_matrix, burau_minus1
from .lissajous import (
    DEFAULT_TABLE_QS,
    MODES,
    braid_from_parametrization,
    classify,
    lissajous_braid,
    percentage_table,
    percentage_tables,
    sample_polyline,
)
from .meyer import gg_signature, meyer_cocycle, seifert_signature_oracle
from .walks import (
    ENTRY_POLYNOMIALS,
    GenMeasure,
    PREDICATES,
    finite_walk_tv,
    hitting_series,
    monte_carlo_hitting,
    zero_density,
)


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; we reserve 2 for
    computation errors and use 1 for usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        sys.exit(1)


def _csv_lines(columns, rows, *notes):
    """A CSV table: the tool and version, one '# ' line per note (the
    parameters the rows depend on), the column line, then the rows."""
    lines = ["# tool=braidwalk version=%s" % __version__]
    lines.extend("# " + note for note in notes)
    lines.append(columns)
    lines.extend(rows)
    return lines


def _check_out(path):
    """Refuse an --out path that names a directory or lies in a missing
    one, before any work: the error open() would raise after it."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _emit(lines, out_path=None):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its output lines


def _cmd_burau(args):
    word = parse_word(args.word, args.strands)
    if args.generic:
        m = burau_matrix(word)
        payload = [[repr(entry) for entry in row] for row in m]
    else:
        payload = [list(row) for row in burau_minus1(word)]
    return [json.dumps({"strands": args.strands, "matrix": payload})]


def _cmd_alexander(args):
    word = parse_word(args.word, args.strands)
    poly = alexander_poly(word)
    out = {"polynomial": repr(poly)}
    if args.strands % 2 == 1:
        out["at_minus1"] = alexander_at_minus1(word)
    return [json.dumps(out)]


def _cmd_signature(args):
    word = parse_word(args.word, args.strands)
    if args.oracle:
        value = seifert_signature_oracle(word)
    else:
        if args.strands != 3:
            raise ValueError(
                "the cocycle route needs strands = 3; pass --oracle for other counts"
            )
        value = gg_signature(word).value
    return [str(value)]


def _parse_sl2(text):
    parts = [int(x) for x in text.split()]
    if len(parts) != 4:
        raise ValueError("expected four integers 'a b c d'")
    return ((parts[0], parts[1]), (parts[2], parts[3]))


def _cmd_meyer(args):
    g1 = _parse_sl2(args.g1)
    g2 = _parse_sl2(args.g2)
    return [str(meyer_cocycle(g1, g2))]


def _walk_lines(series, *notes):
    """CSV of the values series[1:], one row per step k >= 1."""
    rows = ("%d,%s,%.6f" % (k, series[k], float(series[k])) for k in range(1, len(series)))
    return _csv_lines("step,exact_rational,decimal", rows, *notes)


def _cmd_walk(args):
    mu = GenMeasure.uniform_generators(args.strands)
    predicate = PREDICATES[args.predicate]
    if args.exact:
        return _walk_lines(hitting_series(mu, predicate, args.steps))
    est = monte_carlo_hitting(
        mu, predicate, args.steps, trials=args.trials, seed=args.seed
    )
    series = [Fraction(hits, args.trials) for hits in est["hits_by_step"]]
    return _walk_lines(series, "seed=%d" % args.seed)


def _cmd_density(args):
    d = zero_density(args.poly, args.l, args.p)
    return [json.dumps({"poly": args.poly, "l": args.l, "p": args.p,
                        "density": str(d), "decimal": float(d)})]


def _cmd_finite_walk(args):
    mu = GenMeasure.uniform_generators(args.strands)
    res = finite_walk_tv(mu, args.p, projective=args.projective, steps=args.steps)
    rows = ("%d,%s,%.9f" % (k, tv, float(tv)) for k, tv in enumerate(res.tv))
    return _csv_lines("step,tv_exact,tv_decimal", rows,
                      "group_order=%d generated=%s" % (res.group_order, res.generated))


def _lissajous_table_lines(rows, mode, fmt):
    if fmt == "markdown":
        qs = " | ".join(str(r["q"]) for r in rows)
        pct = " | ".join(str(r["percent"]) for r in rows)
        return [
            "<!-- tool=braidwalk version=%s mode=%s -->" % (__version__, mode),
            "| q | " + qs + " |",
            "|---" * (len(rows) + 1) + "|",
            "| % | " + pct + " |",
        ]
    if fmt == "json":
        return [json.dumps({
            "mode": mode,
            "version": __version__,
            "rows": [dict(r, fraction=str(r["fraction"])) for r in rows],
        })]
    csv_rows = ("%d,%d,%d,%s,%d" % (r["q"], r["numerator"], r["denominator"],
                                    r["fraction"], r["percent"]) for r in rows)
    return _csv_lines("q,numerator,denominator,fraction,percent", csv_rows,
                      "mode=%s" % mode)


def _cmd_lissajous_classify(args):
    c = classify(args.q, args.p)
    word = lissajous_braid(args.q, args.p)
    return [json.dumps({
        "q": args.q, "p": args.p, "kind": c.kind, "h": c.h,
        "trace": c.trace, "p_matrix": [list(r) for r in c.p_matrix],
        "braid": format_word(word),
    })]


def _cmd_lissajous_table(args):
    qs = tuple(q for q in DEFAULT_TABLE_QS if q <= args.qmax)
    if not qs:
        raise ValueError("--qmax %d selects no q; the smallest table q is %d"
                         % (args.qmax, DEFAULT_TABLE_QS[0]))
    rows = percentage_table(qs=qs, mode=args.mode)
    return _lissajous_table_lines(rows, args.mode, args.format)


def _cmd_lissajous_sample(args):
    poly = sample_polyline(args.q, args.p, alpha=args.alpha, samples=args.samples)
    return [json.dumps(poly)]


def _cmd_lissajous_sweep(args):
    word = braid_from_parametrization(args.q, args.p)
    return [json.dumps({"q": args.q, "p": args.p, "braid": format_word(word)})]


def _cmd_reproduce(args):
    os.makedirs(args.out_dir, exist_ok=True)
    mu = GenMeasure.uniform_generators(3)
    series = hitting_series(mu, PREDICATES["z11"], 12)
    tables = {"walk_z11_table.csv": _walk_lines(series)}
    for mode, rows in percentage_tables().items():
        name = "lissajous_table_%s.csv" % mode.replace("-", "_")
        tables[name] = _lissajous_table_lines(rows, mode, "csv")
    paths = [os.path.join(args.out_dir, name) for name in tables]
    for path, lines in zip(paths, tables.values()):
        _emit(lines, path)
    return [json.dumps({"written": paths})]


def _cmd_verify_oracle(args):
    """gg_signature against the Seifert oracle on every freely reduced
    3-braid word of length <= maxlen, depth first."""
    if args.maxlen < 0:
        raise ValueError("--maxlen must be >= 0, got %d" % args.maxlen)
    words = 0
    stack = [()]
    while stack:
        letters = stack.pop()
        word = BraidWord(3, letters)
        words += 1
        fast, oracle = gg_signature(word).value, seifert_signature_oracle(word)
        if fast != oracle:
            raise RuntimeError("signature mismatch on the word '%s': gg_signature "
                               "%d, Seifert oracle %d" % (format_word(word), fast, oracle))
        if len(letters) < args.maxlen:
            stack.extend(letters + (g,) for g in (1, -1, 2, -2)
                         if not letters or letters[-1] != -g)
    return [json.dumps({"maxlen": args.maxlen, "words": words, "mismatches": 0})]


# ---------------------------------------------------------------------------
# parser assembly


def build_parser():
    parser = _Parser(prog="braidwalk", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    p = sub.add_parser("burau", help="Burau matrix of a braid word")
    p.add_argument("--word", required=True, help="signed generator indices, e.g. '1 -2'")
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--generic", action="store_true", help="emit Laurent-polynomial entries")
    p.set_defaults(fn=_cmd_burau)

    p = sub.add_parser("alexander", help="Alexander polynomial of the closure")
    p.add_argument("--word", required=True)
    p.add_argument("--strands", type=int, required=True)
    p.set_defaults(fn=_cmd_alexander)

    p = sub.add_parser("signature", help="signature of the closure")
    p.add_argument("--word", required=True)
    p.add_argument("--strands", type=int, default=3)
    p.add_argument("--oracle", action="store_true",
                   help="use the Seifert-matrix route (any strand count)")
    p.set_defaults(fn=_cmd_signature)

    p = sub.add_parser("meyer", help="Meyer cocycle of two SL(2,Z) matrices")
    p.add_argument("--g1", required=True, help="four integers 'a b c d'")
    p.add_argument("--g2", required=True)
    p.set_defaults(fn=_cmd_meyer)

    p = sub.add_parser(
        "walk", help="hitting probabilities of the Burau walk, uniform on generators"
    )
    p.add_argument("--strands", type=int, default=3)
    p.add_argument("--predicate", choices=tuple(PREDICATES), default="z11")
    p.add_argument("--steps", type=int, default=12)
    p.add_argument("--exact", action="store_true", help="exact convolution instead of sampling")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(fn=_cmd_walk)

    p = sub.add_parser("density", help="zero density of an entry polynomial on Sp(2l,p)")
    p.add_argument("--poly", choices=tuple(ENTRY_POLYNOMIALS), default="m11")
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("finite-walk", help="TV distance to uniform on Sp(2l,F_p)")
    p.add_argument("--strands", type=int, default=3)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--projective", action="store_true")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_finite_walk)

    p = sub.add_parser("lissajous", help="Lissajous toric knot tools")
    lsub = p.add_subparsers(dest="lissajous_cmd", required=True, parser_class=_Parser)

    pc = lsub.add_parser("classify", help="trichotomy class of a frequency pair")
    pc.add_argument("--q", type=int, required=True)
    pc.add_argument("--p", type=int, required=True)
    pc.set_defaults(fn=_cmd_lissajous_classify)

    pt = lsub.add_parser("table", help="zero-signature percentage table")
    pt.add_argument("--qmax", type=int, default=101)
    pt.add_argument("--mode", choices=MODES, default="literal")
    pt.add_argument("--format", choices=("csv", "json", "markdown"), default="csv")
    pt.add_argument("--out", default=None)
    pt.set_defaults(fn=_cmd_lissajous_table)

    ps = lsub.add_parser("sample", help="export the space curve as a polyline")
    ps.add_argument("--q", type=int, required=True)
    ps.add_argument("--p", type=int, required=True)
    ps.add_argument("--alpha", type=float, default=0.0)
    ps.add_argument("--samples", type=int, default=2000)
    ps.add_argument("--out", default=None)
    ps.set_defaults(fn=_cmd_lissajous_sample)

    pw = lsub.add_parser("sweep", help="braid word read off the parametrised curve")
    pw.add_argument("--q", type=int, required=True)
    pw.add_argument("--p", type=int, required=True)
    pw.set_defaults(fn=_cmd_lissajous_sweep)

    p = sub.add_parser("reproduce", help="regenerate the statistics tables")
    p.add_argument("target", choices=("paper-tables",))
    p.add_argument("--out-dir", default="tables")
    p.set_defaults(fn=_cmd_reproduce)

    p = sub.add_parser("verify", help="exhaustive checks of the fast routes")
    vsub = p.add_subparsers(dest="verify_cmd", required=True, parser_class=_Parser)

    pv = vsub.add_parser(
        "oracle", help="3-braid signatures against the Seifert oracle, every word"
    )
    pv.add_argument("--maxlen", type=int, default=8,
                    help="check every freely reduced word of at most this length")
    pv.set_defaults(fn=_cmd_verify_oracle)

    return parser


def _glue_alpha(argv):
    """Join each --alpha token to the token after it, as --alpha=<value>:
    argparse reads a value such as -1e5 or -inf after an option as an
    option of its own."""
    out = []
    for token in argv:
        if out and out[-1] == "--alpha":
            out[-1] = "--alpha=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_glue_alpha(sys.argv[1:] if argv is None else argv))
    out = getattr(args, "out", None)
    try:
        if out:
            _check_out(out)
        _emit(args.fn(args), out)
    except (ValueError, RuntimeError, OverflowError, ZeroDivisionError) as exc:
        print("braidwalk: computation error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("braidwalk: cannot write output: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
