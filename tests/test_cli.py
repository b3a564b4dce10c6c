"""End-to-end checks of the braidwalk command line interface."""

import json
import random
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest

from braidwalk import cli, lissajous, walks
from braidwalk.braid import BraidWord
from braidwalk.linalg import form_signature
from braidwalk.walks import GenMeasure, monte_carlo_hitting
from meyer_oracle import seifert_matrix_by_pair


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_burau_full_twist(capsys):
    rc, out, _ = run(capsys, "burau", "--word", "1 2 1 1 2 1", "--strands", "3")
    assert rc == 0
    assert json.loads(out) == {"strands": 3, "matrix": [[-1, 0], [0, -1]]}


def test_burau_generic(capsys):
    rc, out, _ = run(capsys, "burau", "--word", "1", "--strands", "3", "--generic")
    assert rc == 0
    data = json.loads(out)
    assert data["strands"] == 3
    assert isinstance(data["matrix"][0][0], str)  # Laurent entries as text


def test_alexander(capsys):
    rc, out, _ = run(capsys, "alexander", "--word", "1 1 1", "--strands", "2")
    assert rc == 0
    assert json.loads(out)["polynomial"] == "t^-1 - 1 + t"
    rc, out, _ = run(capsys, "alexander", "--word", "1 1 1 2", "--strands", "3")
    assert rc == 0
    data = json.loads(out)
    assert data["at_minus1"] == 3  # trefoil determinant via the 3-strand closure


def test_signature_recursion_and_oracle(capsys):
    rc, out, _ = run(capsys, "signature", "--word", "1 1 1", "--strands", "3")
    assert rc == 0 and out.strip() == "-2"
    rc, out, _ = run(capsys, "signature", "--word", "1 1 1", "--strands", "2",
                     "--oracle")
    assert rc == 0 and out.strip() == "-2"
    # the cocycle recursion is only wired for 3 strands
    rc, _, err = run(capsys, "signature", "--word", "1 1 1", "--strands", "2")
    assert rc == 2 and "computation error" in err


def test_signature_oracle_on_a_300_letter_6_strand_word(capsys):
    # against the pair-sorted Seifert matrix, eliminated in its own order;
    # -1 is also what the dense gcd elimination of version 0.1.0 gave
    rng = random.Random(6)
    letters = []
    while len(letters) < 300:
        g = rng.randrange(1, 6) * rng.choice((1, -1))
        if not letters or letters[-1] != -g:
            letters.append(g)
    v = seifert_matrix_by_pair(BraidWord(6, tuple(letters)))
    expected = form_signature(tuple(
        tuple(v[i][j] + v[j][i] for j in range(len(v))) for i in range(len(v))))
    assert len(v) == 295 and expected == -1
    for sign in (1, -1):  # the mirror negates the signature
        word = " ".join(str(sign * g) for g in letters)
        rc, out, _ = run(capsys, "signature", "--word", word, "--strands", "6", "--oracle")
        assert rc == 0 and out.strip() == str(sign * expected)


def test_meyer(capsys):
    rc, out, _ = run(capsys, "meyer", "--g1", "1 0 -1 1", "--g2", "1 1 0 1")
    assert rc == 0 and out.strip() == "0"
    rc, out, _ = run(capsys, "meyer", "--g1", "1 0 -1 1", "--g2", "1 0 -1 1")
    assert rc == 0 and out.strip() == "1"
    rc, _, err = run(capsys, "meyer", "--g1", "1 0 0 2", "--g2", "1 1 0 1")
    assert rc == 2 and "g1 must have determinant 1" in err


def test_walk_exact_csv(capsys):
    rc, out, _ = run(capsys, "walk", "--steps", "4", "--predicate", "z11",
                     "--exact")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# tool=braidwalk version=")
    assert lines[1] == "step,exact_rational,decimal"
    assert lines[2] == "1,0,0.000000"
    assert lines[4] == "3,1/16,0.062500"
    assert lines[5] == "4,7/64,0.109375"


def test_walk_monte_carlo_seeded(capsys):
    args = ("walk", "--steps", "3", "--trials", "2000", "--seed", "5")
    rc, out1, _ = run(capsys, *args)
    assert rc == 0
    assert "# seed=5" in out1
    rc, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_walk_monte_carlo_is_one_run(capsys):
    rc, out, _ = run(capsys, "walk", "--steps", "7", "--trials", "3000", "--seed", "9")
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines() if line[:1].isdigit()]
    est = monte_carlo_hitting(GenMeasure.uniform_generators(3), "z11", 7,
                              trials=3000, seed=9)
    assert [int(k) for k, _, _ in rows] == list(range(1, 8))
    for k, frac, dec in rows:
        hits = est["hits_by_step"][int(k)]
        assert Fraction(frac) == Fraction(hits, 3000)
        assert dec == "%.6f" % (hits / 3000)


def test_walk_monte_carlo_refuses_negative_seed(capsys):
    rc, out, err = run(capsys, "walk", "--steps", "3", "--seed", "-1")
    assert rc == 2 and out == ""
    assert err == "braidwalk: computation error: seed must be >= 0, got -1\n"


def test_walk_exact_refuses_entry_overflow(capsys):
    start = time.monotonic()
    rc, _, err = run(capsys, "walk", "--exact", "--strands", "5", "--steps", "40")
    assert time.monotonic() - start < 1.0
    assert rc == 2 and "2^62" in err


@pytest.mark.parametrize("argv", [
    ("walk", "--exact", "--steps", "3"),
    ("walk", "--steps", "3", "--trials", "10"),
    ("finite-walk", "--p", "3", "--steps", "2"),
], ids=["walk-exact", "walk-monte-carlo", "finite-walk"])
@pytest.mark.parametrize("strands", ["1", "0"])
def test_walk_refuses_fewer_than_two_strands(capsys, argv, strands):
    rc, out, err = run(capsys, *argv, "--strands", strands)
    assert rc == 2 and out == ""
    assert err == "braidwalk: computation error: need at least 2 strands, got %s\n" % strands


@pytest.mark.parametrize("argv", [
    ("walk", "--measure", "uniform4"),
    ("burau", "--word", "1", "--strands", "3", "--at", "-1"),
    ("lissajous", "sample", "--q", "3", "--p", "2", "--N", "3"),
], ids=["walk-measure", "burau-at", "lissajous-sample-N"])
def test_removed_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("walk", "--predicate", "nope"),
    ("density", "--poly", "m13", "--p", "5"),
], ids=["walk-predicate", "density-poly"])
def test_unknown_names_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 1
    assert "invalid choice" in capsys.readouterr().err


def test_density(capsys):
    rc, out, _ = run(capsys, "density", "--poly", "m11", "--l", "1", "--p", "5")
    assert rc == 0
    data = json.loads(out)
    assert data["density"] == "1/6"
    assert abs(data["decimal"] - 1 / 6) < 1e-12


def test_finite_walk(capsys):
    rc, out, _ = run(capsys, "finite-walk", "--p", "3", "--steps", "6")
    assert rc == 0
    lines = out.strip().splitlines()
    assert "# group_order=24 generated=True" in lines[1]
    assert lines[2] == "step,tv_exact,tv_decimal"
    assert lines[3].startswith("0,23/24,")
    assert len(lines) == 3 + 7  # steps 0..6


@pytest.mark.parametrize("argv", [
    ("finite-walk", "--p", "101"),
    ("density", "--l", "2", "--p", "5"),
], ids=["finite-walk-p101", "density-l2-p5"])
def test_group_order_budget_exits_2(capsys, argv):
    start = time.monotonic()
    rc, _, err = run(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert rc == 2 and "MAX_GROUP_ORDER" in err


def test_finite_walk_negative_steps_exits_2(capsys, monkeypatch):
    def no_search(*args):
        raise AssertionError("group enumerated for a refused step count")

    monkeypatch.setattr(walks, "_symplectic_group", no_search)
    rc, out, err = run(capsys, "finite-walk", "--p", "3", "--steps", "-1")
    assert rc == 2 and "step count" in err
    assert out == ""


def test_lissajous_classify(capsys):
    rc, out, _ = run(capsys, "lissajous", "classify", "--q", "5", "--p", "7")
    assert rc == 0
    data = json.loads(out)
    assert data["kind"] == "zero-signature-hyperbolic"
    assert data["braid"] == "2 -1 2 -1 2 1 -2 1 -2 1"


def test_lissajous_table_csv(capsys):
    rc, out, _ = run(capsys, "lissajous", "table", "--qmax", "13", "--mode",
                     "full-range", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[1] == "# mode=full-range"
    assert lines[2] == "q,numerator,denominator,fraction,percent"
    assert lines[3] == "5,3,5,3/5,60"
    assert lines[6] == "13,7,13,7/13,53"


def test_lissajous_table_markdown(capsys):
    rc, out, _ = run(capsys, "lissajous", "table", "--qmax", "7", "--mode",
                     "literal", "--format", "markdown")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[1] == "| q | 5 | 7 |"
    assert lines[3] == "| % | 100 | 50 |"


@pytest.mark.parametrize("fmt", ["csv", "json", "markdown"])
def test_lissajous_table_refuses_a_qmax_below_every_q(capsys, monkeypatch, tmp_path, fmt):
    # an empty table printed a header alone (csv, json) or a malformed one
    def no_work(*args, **kwargs):
        raise AssertionError("the computation started")

    monkeypatch.setattr(cli, "percentage_table", no_work)
    target = tmp_path / "table.txt"
    for qmax in ("4", "-7"):
        argv = ("lissajous", "table", "--qmax", qmax, "--format", fmt)
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert "--qmax %s selects no q; the smallest table q is 5" % qmax in err
        assert run(capsys, *argv, "--out", str(target)) == (2, "", err)
    assert not target.exists()


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_lissajous_sample_refuses_a_non_finite_alpha(capsys, tmp_path, alpha):
    # json.dumps writes NaN, which is not JSON, and math.cos(inf) raises
    target = tmp_path / "curve.json"
    rc, out, err = run(capsys, "lissajous", "sample", "--q", "3", "--p", "2",
                       "--alpha", alpha, "--out", str(target))
    assert rc == 2 and out == ""
    assert "computation error: alpha must be finite, got %s" % alpha in err
    assert not target.exists()


@pytest.mark.parametrize("alpha", ["-1e5", "-0.5"])
def test_lissajous_sample_takes_a_negative_alpha_as_its_value(capsys, alpha):
    argv = ("lissajous", "sample", "--q", "3", "--p", "2", "--samples", "8")
    rc, out, err = run(capsys, *argv, "--alpha", alpha)
    assert rc == 0 and err == ""
    assert json.loads(out)["alpha"] == float(alpha)
    assert run(capsys, *argv, "--alpha=" + alpha) == (0, out, "")


def test_lissajous_sample_out(capsys, tmp_path):
    target = tmp_path / "curve.json"
    rc, _, _ = run(capsys, "lissajous", "sample", "--q", "3", "--p", "2",
                   "--samples", "16", "--out", str(target))
    assert rc == 0
    data = json.loads(target.read_text())
    assert len(data["x"]) == 16 and data["q"] == 3


def test_lissajous_sweep(capsys):
    rc, out, _ = run(capsys, "lissajous", "sweep", "--q", "2", "--p", "1")
    assert rc == 0
    assert json.loads(out)["braid"] == "2 -1 -2 1"


def test_reproduce_idempotent(capsys, tmp_path):
    out_dir = tmp_path / "tables"
    rc, out, _ = run(capsys, "reproduce", "paper-tables", "--out-dir", str(out_dir))
    assert rc == 0
    written = json.loads(out)["written"]
    assert len(written) == 3
    first = {name: (out_dir / name).read_bytes()
             for name in ("walk_z11_table.csv", "lissajous_table_literal.csv",
                          "lissajous_table_full_range.csv")}
    rc, _, _ = run(capsys, "reproduce", "paper-tables", "--out-dir", str(out_dir))
    assert rc == 0
    for name, blob in first.items():
        assert (out_dir / name).read_bytes() == blob


def test_reproduce_matches_committed_tables(capsys, monkeypatch, tmp_path):
    committed = Path(__file__).resolve().parents[1] / "tables"
    calls = []
    real = lissajous.classify

    def counting(q, p):
        calls.append((q, p))
        return real(q, p)

    monkeypatch.setattr(lissajous, "classify", counting)
    rc, out, _ = run(capsys, "reproduce", "paper-tables", "--out-dir", str(tmp_path))
    assert rc == 0
    # one census pass for both modes: each reduced both-odd pair once
    assert len(calls) == len(set(calls)) == 522
    names = ("walk_z11_table.csv", "lissajous_table_literal.csv",
             "lissajous_table_full_range.csv")
    assert sorted(json.loads(out)["written"]) == sorted(str(tmp_path / n) for n in names)
    for name in names:
        assert (tmp_path / name).read_bytes() == (committed / name).read_bytes(), name


def test_reproduce_unknown_target_is_usage_error(capsys, tmp_path):
    out_dir = tmp_path / "tables"
    with pytest.raises(SystemExit) as exc:
        cli.main(["reproduce", "nope", "--out-dir", str(out_dir)])
    assert exc.value.code == 1
    assert "invalid choice" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ("walk", "--steps", "3", "--trials", "500", "--seed", "2"),
    ("finite-walk", "--p", "3", "--steps", "4"),
    ("lissajous", "table", "--qmax", "13", "--format", "markdown"),
    ("lissajous", "sample", "--q", "3", "--p", "2", "--samples", "8"),
], ids=["walk", "finite-walk", "lissajous-table", "lissajous-sample"])
def test_out_writes_the_stdout_bytes(capsys, tmp_path, argv):
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    target = tmp_path / "out.txt"
    rc, rest, _ = run(capsys, *argv, "--out", str(target))
    assert rc == 0 and rest == ""
    assert target.read_bytes() == out.encode()


def test_unwritable_output_exits_1(capsys, tmp_path):
    missing = tmp_path / "missing" / "x.csv"
    rc, out, err = run(capsys, "walk", "--exact", "--steps", "3", "--out", str(missing))
    assert rc == 1 and out == ""
    assert "braidwalk: cannot write output:" in err and "Traceback" not in err
    a_file = tmp_path / "a_file"
    a_file.write_text("kept\n")
    rc, out, err = run(capsys, "reproduce", "paper-tables", "--out-dir", str(a_file))
    assert rc == 1 and out == ""
    assert "braidwalk: cannot write output:" in err
    assert a_file.read_text() == "kept\n"


@pytest.mark.parametrize("argv,work", [
    (("walk", "--exact", "--steps", "3"), "hitting_series"),
    (("walk", "--steps", "3", "--trials", "10"), "monte_carlo_hitting"),
    (("finite-walk", "--p", "3", "--steps", "4"), "finite_walk_tv"),
    (("lissajous", "table", "--qmax", "13"), "percentage_table"),
    (("lissajous", "sample", "--q", "3", "--p", "2"), "sample_polyline"),
], ids=["walk-exact", "walk", "finite-walk", "lissajous-table", "lissajous-sample"])
def test_unwritable_out_is_refused_before_work(capsys, monkeypatch, tmp_path, argv, work):
    def no_work(*args, **kwargs):
        raise AssertionError("the computation started")

    monkeypatch.setattr(cli, work, no_work)
    for bad in (tmp_path / "missing" / "x.csv", tmp_path):
        rc, out, err = run(capsys, *argv, "--out", str(bad))
        assert rc == 1 and out == ""
        assert "braidwalk: cannot write output:" in err and str(bad) in err
    assert list(tmp_path.iterdir()) == []


def test_failed_computation_writes_no_out_file(capsys, tmp_path):
    target = tmp_path / "x.csv"
    rc, out, err = run(capsys, "walk", "--exact", "--strands", "5", "--steps", "40",
                       "--out", str(target))
    assert rc == 2 and "2^62" in err
    assert not target.exists()


def test_verify_oracle(capsys):
    rc, out, _ = run(capsys, "verify", "oracle", "--maxlen", "4")
    assert rc == 0
    assert json.loads(out) == {"maxlen": 4, "words": 161, "mismatches": 0}


def test_verify_oracle_mismatch_exits_2(capsys, monkeypatch):
    oracle = cli.seifert_signature_oracle

    def planted(word):
        return oracle(word) + (word.letters == (1, -2))

    monkeypatch.setattr(cli, "seifert_signature_oracle", planted)
    rc, out, err = run(capsys, "verify", "oracle", "--maxlen", "3")
    assert rc == 2 and out == ""
    assert "signature mismatch on the word '1 -2'" in err


def test_verify_oracle_negative_maxlen_exits_2(capsys):
    rc, out, err = run(capsys, "verify", "oracle", "--maxlen", "-1")
    assert rc == 2 and out == ""
    assert "--maxlen" in err


def test_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["burau", "--word", "1 2"])  # missing --strands
    assert exc.value.code == 1
    capsys.readouterr()
    rc, _, err = run(capsys, "burau", "--word", "1 5", "--strands", "3")
    assert rc == 2 and "computation error" in err
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()


# tests/cli_pins.txt: the pinned lines that CI checks on the installed script
PINS = [line.split("\t") for line in
        (Path(__file__).parent / "cli_pins.txt").read_text().splitlines()
        if line and not line.startswith("#")]


@pytest.mark.parametrize("args, which, expected", PINS,
                         ids=["%s | %s" % (args, which) for args, which, _ in PINS])
def test_cli_pin(capsys, args, which, expected):
    rc, out, err = run(capsys, *shlex.split(args))
    if which == "exit":
        assert rc == int(expected)
    elif which == "stderr":
        assert err.splitlines()[-1] == expected
    elif which == "only":
        assert rc == 0 and out == expected + "\n"
    else:
        lines = out.splitlines()
        assert rc == 0 and lines[-1 if which == "$" else int(which) - 1] == expected
