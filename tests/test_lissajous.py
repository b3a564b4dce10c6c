"""Lissajous toric braids: crossing words, classification, census tables."""

import re
from fractions import Fraction
from math import gcd, pi, sin

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from braidwalk import lissajous, meyer
from braidwalk.braid import BraidWord, closure_components
from braidwalk.burau import burau_minus1
from braidwalk.lissajous import (
    DEFAULT_TABLE_QS,
    TORUS,
    ZERO_SIG,
    bezout_a,
    braid_from_parametrization,
    classify,
    lambda_seq,
    lissajous_braid,
    percentage_table,
    percentage_tables,
    power_signature,
    sample_polyline,
)
from braidwalk.meyer import power_signatures
import lissajous_oracle


def valid_pairs(qmax=35, pmax=30):
    pairs = []
    for q in range(5, qmax + 1, 2):
        if q % 3 == 0:
            continue
        for p in range(1, pmax + 1):
            if p % 3 == 0 or gcd(q, p) != 1:
                continue
            pairs.append((q, p))
    return pairs


def test_params_validation():
    # lambda_seq's rules, which classify, lissajous_braid and
    # power_signature take through it
    for fn in (lambda_seq, classify):
        fn(5, 7)
        for q, p, message in [
            (4, 5, "q must be a positive odd integer"),  # even q
            (9, 2, "q and p must be prime to 3"),  # 3 | q
            (5, 6, "q and p must be prime to 3"),  # 3 | p
            (5, 10, "q and p must be coprime"),  # gcd 5
            (-5, 2, "q must be a positive odd integer"),
        ]:
            with pytest.raises(ValueError, match="^%s$" % message):
                fn(q, p)


W3 = BraidWord(3, (1, 2, 1, 2))

# (name of the count, a call that passes value as that count)
COUNT_CALLS = {
    "lambda_seq": [("q", lambda v: lambda_seq(v, 7)), ("p", lambda v: lambda_seq(5, v))],
    "classify": [("q", lambda v: classify(v, 11)), ("p", lambda v: classify(7, v))],
    "lissajous_braid": [("q", lambda v: lissajous_braid(v, 7)),
                        ("p", lambda v: lissajous_braid(5, v))],
    "bezout_a": [("q", lambda v: bezout_a(v))],
    "power_signature": [("q", lambda v: power_signature(v, 7, 2)),
                        ("p", lambda v: power_signature(5, v, 2)),
                        ("n", lambda v: power_signature(5, 7, v))],
    "percentage_tables": [("q", lambda v: percentage_tables((5, v)))],
    "percentage_table": [("q", lambda v: percentage_table((v,), "full-range"))],
    "braid_from_parametrization": [("q", lambda v: braid_from_parametrization(v, 1)),
                                   ("p", lambda v: braid_from_parametrization(2, v))],
    "sample_polyline": [("q", lambda v: sample_polyline(v, 2)),
                        ("p", lambda v: sample_polyline(3, v)),
                        ("samples", lambda v: sample_polyline(3, 2, samples=v))],
    "power_signatures": [("nmax", lambda v: power_signatures(W3, v))],
}


@pytest.mark.parametrize("entry", sorted(COUNT_CALLS))
def test_counts_are_refused_by_name_before_any_work(monkeypatch, entry):
    # a bool, float or string count used to run (True as 1), to raise
    # TypeError from inside range, gcd or pow, or to sample an open curve
    def no_work(*args, **kwargs):
        raise AssertionError("the work started")

    monkeypatch.setattr(lissajous, "_minus1_3", no_work)
    monkeypatch.setattr(lissajous, "_crossing_events", no_work)
    monkeypatch.setattr(lissajous, "sin", no_work)
    monkeypatch.setattr(meyer, "burau_minus1", no_work)
    for name, call in COUNT_CALLS[entry]:
        for value in (True, 5.0, "5"):
            message = "^%s must be an int, got %s$" % (name, re.escape(repr(value)))
            with pytest.raises(ValueError, match=message):
                call(value)


def test_numpy_counts_run_as_ints():
    i64 = np.int64
    assert lambda_seq(i64(5), i64(7)) == lambda_seq(5, 7)
    res = classify(i64(7), i64(11))
    assert res == classify(7, 11) and type(res.q) is int and type(res.p) is int
    assert lissajous_braid(i64(5), i64(7)) == lissajous_braid(5, 7)
    assert bezout_a(i64(7)) == 6 and type(bezout_a(i64(7))) is int
    assert power_signature(i64(5), i64(1), i64(4)) == -6
    tables = percentage_tables((i64(5), i64(7)))
    assert tables == percentage_tables((5, 7))
    assert all(type(row["q"]) is int for rows in tables.values() for row in rows)
    assert percentage_table((i64(7),), "literal") == percentage_table((7,), "literal")
    assert braid_from_parametrization(i64(2), i64(1)) == braid_from_parametrization(2, 1)
    poly = sample_polyline(i64(3), i64(2), samples=i64(8))
    assert poly == sample_polyline(3, 2, samples=8) and type(poly["q"]) is int
    assert power_signatures(W3, i64(4)) == power_signatures(W3, 4)


def test_bezout():
    assert bezout_a(5) == 1
    assert bezout_a(7) == 6
    assert bezout_a(11) == 2
    assert bezout_a(13) == 11
    for q in (5, 7, 11, 13, 17):
        assert (6 * bezout_a(q)) % q == 1
    with pytest.raises(ValueError):
        bezout_a(6)
    with pytest.raises(ValueError):
        bezout_a(9)


def test_lambda_anchor():
    assert lambda_seq(5, 7) == (1, -1, 1, -1)
    assert len(lambda_seq(13, 2)) == 12
    assert all(v in (1, -1) for v in lambda_seq(13, 2))


@given(st.sampled_from(valid_pairs()))
@settings(max_examples=60, deadline=None)
def test_lambda_antisymmetry(pair):
    q, p = pair
    lam = lambda_seq(q, p)
    for k in range(1, q):
        assert lam[q - k - 1] == -lam[k - 1]


@given(st.sampled_from(valid_pairs()))
@settings(max_examples=60, deadline=None)
def test_lambda_depends_on_p_mod_q(pair):
    q, p = pair
    shifted = p + q
    if shifted % 3 == 0 or gcd(q, shifted) != 1:
        return
    assert lambda_seq(q, shifted) == lambda_seq(q, p)


def test_braid_word_anchor():
    word = lissajous_braid(5, 7)
    assert word.strands == 3
    assert word.letters == (2, -1, 2, -1, 2, 1, -2, 1, -2, 1)
    # always 2q letters after the conjugation pattern
    for q, p in ((7, 2), (11, 2), (13, 5)):
        assert len(lissajous_braid(q, p).letters) == 2 * q


def test_classify_anchors():
    res = classify(5, 7)
    assert res.kind == ZERO_SIG
    assert res.p_matrix == ((2, 1), (1, 1))
    assert res.trace == -23
    assert res.h is None

    res = classify(1, 2)
    assert res.kind == TORUS and res.h == 0 and res.trace == 1

    res = classify(5, 1)
    assert res.kind == TORUS and res.h == 1

    assert classify(7, 11).kind == ZERO_SIG
    assert classify(11, 13).trace == -287


def test_classify_trace_identity():
    # trace(Q) = 2 - (a^2 + b^2)^2 with (a, b) the top row of P
    for q, p in valid_pairs(qmax=17, pmax=12):
        res = classify(q, p)
        a, b = res.p_matrix[0]
        assert res.trace == 2 - (a * a + b * b) ** 2
        if res.kind == ZERO_SIG:
            assert abs(a) > 1 or abs(b) > 1
        else:
            assert res.kind == TORUS and (a == 0 or b == 0)


def test_power_signatures():
    # hyperbolic class: every admissible power of the braid has signature 0
    for n in (1, 2, 4, 5):
        assert power_signature(5, 7, n) == 0
    # torus class: signatures grow along powers
    assert power_signature(5, 1, 1) == 0
    assert power_signature(5, 1, 4) == -6
    with pytest.raises(ValueError):
        power_signature(5, 7, 3)
    with pytest.raises(ValueError):
        power_signature(5, 7, 0)


def test_percentage_table_frozen_rows():
    lit = {r["q"]: (r["numerator"], r["denominator"]) for r in
           percentage_table(qs=(5, 7, 11, 13), mode="literal")}
    assert lit == {5: (1, 1), 7: (1, 2), 11: (2, 3), 13: (2, 4)}
    full = {r["q"]: (r["numerator"], r["denominator"]) for r in
            percentage_table(qs=(5, 7, 11, 13), mode="full-range")}
    assert full == {5: (3, 5), 7: (4, 7), 11: (6, 11), 13: (7, 13)}
    row = percentage_table(qs=(7,), mode="full-range")[0]
    assert row["fraction"] == Fraction(4, 7)
    assert row["percent"] == 57  # integer part, not rounding
    with pytest.raises(ValueError):
        percentage_table(qs=(5,), mode="bogus")


@pytest.mark.parametrize("mode", ["literal", "full-range"])
def test_percentage_table_matches_two_branch_oracle(mode):
    # q = 1 has no literal candidate: denominator 0
    qs = tuple(q for q in range(1, 152, 2) if q % 3 != 0)
    assert percentage_table(qs, mode) == lissajous_oracle.percentage_table(qs, mode)


def _count_classify(monkeypatch):
    """Record the (q, p) of every lissajous.classify call."""
    calls = []
    real = lissajous.classify

    def counting(q, p):
        calls.append((q, p))
        return real(q, p)

    monkeypatch.setattr(lissajous, "classify", counting)
    return calls


def test_census_classifies_each_reduced_pair_once(monkeypatch):
    calls = _count_classify(monkeypatch)
    percentage_tables()
    assert len(calls) == len(set(calls)) == 522
    assert all(gcd(q, p) == 1 and q % 2 == p % 2 == 1 for q, p in calls)


@pytest.mark.parametrize("call", [
    lambda: percentage_tables((5, 9)),
    lambda: percentage_table((5, 9), "literal"),
    lambda: percentage_table((5, 7, 8), "full-range"),
    lambda: percentage_tables((5, -7)),
], ids=["tables", "literal", "full-range", "negative"])
def test_census_checks_every_q_before_classifying(monkeypatch, call):
    calls = _count_classify(monkeypatch)
    with pytest.raises(ValueError, match="positive, odd and prime to 3"):
        call()
    assert calls == []


@pytest.mark.parametrize("length,message", [
    (10, "half-word factorisation failed for \\(11, 13\\)"),
    (22, "trace identity failed for \\(11, 13\\)"),
], ids=["factorisation", "trace"])
def test_classify_identity_checks_are_live(monkeypatch, length, message):
    # plant a wrong image of Q (q - 1 letters) or of the full braid (2q)
    real = lissajous._minus1_3

    def planted(letters):
        (a, b), (c, d) = real(letters)
        return ((a + (len(letters) == length), b), (c, d))

    classify(11, 13)
    monkeypatch.setattr(lissajous, "_minus1_3", planted)
    with pytest.raises(RuntimeError, match=message):
        classify(11, 13)


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=200))
@settings(max_examples=150, deadline=None)
def test_letter_tuple_words_match_concat_inverse_reference(k, p):
    q = 2 * k + 1
    assume(q % 3 != 0 and p % 3 != 0 and gcd(q, p) == 1)
    assert lissajous_braid(q, p) == lissajous_oracle.lissajous_braid(q, p)
    assert classify(q, p) == lissajous_oracle.classify(q, p)


def test_default_table_qs():
    assert DEFAULT_TABLE_QS[0] == 5 and DEFAULT_TABLE_QS[-1] == 101
    assert all(q % 2 == 1 and q % 3 != 0 for q in DEFAULT_TABLE_QS)
    assert len(DEFAULT_TABLE_QS) == 33


def test_parametrization_anchors():
    assert braid_from_parametrization(1, 1).letters == (2, 1)
    w = braid_from_parametrization(2, 1)
    assert w.letters == (2, -1, -2, 1)
    assert closure_components(w) == 1
    # both routes produce the identical word for the flagship pair
    assert braid_from_parametrization(5, 7).letters == lissajous_braid(5, 7).letters


def test_parametrization_matches_crossing_count():
    # a (q, p) toric curve on 3 strands crosses itself 2q times in projection
    for q, p in ((1, 1), (2, 1), (1, 2), (4, 1), (5, 2)):
        w = braid_from_parametrization(q, p)
        assert len(w.letters) == 2 * q


def test_parametrization_agrees_with_lambda_route():
    # the closed-form word is derived for odd p; compare the two routes there
    for q, p in ((5, 1), (5, 7), (7, 5), (11, 1), (13, 7)):
        direct = braid_from_parametrization(q, p)
        via_lambda = lissajous_braid(q, p)
        assert closure_components(direct) == closure_components(via_lambda) == 1
        m1 = burau_minus1(direct)
        m2 = burau_minus1(via_lambda)
        assert m1[0][0] + m1[1][1] == m2[0][0] + m2[1][1]


def test_parametrization_validation():
    with pytest.raises(ValueError):
        braid_from_parametrization(3, 1)  # 3 | q
    with pytest.raises(ValueError):
        braid_from_parametrization(5, 10)  # not coprime
    with pytest.raises(ValueError):
        braid_from_parametrization(0, 1)


def _sweep_outcome(sweep, q, p):
    try:
        return sweep(q, p).letters
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def test_parametrization_matches_fraction_sweep():
    # every pair up to 40, valid or not: the same letters or the same refusal
    words = 0
    for q in range(1, 41):
        for p in range(1, 41):
            got = _sweep_outcome(braid_from_parametrization, q, p)
            assert got == _sweep_outcome(lissajous_oracle.braid_from_parametrization, q, p), (q, p)
            words += isinstance(got, tuple)
    assert words == 479  # the pairs prime to 3 and to each other


@given(st.integers(min_value=-10**5, max_value=10**5), st.integers(min_value=1, max_value=1000))
@settings(max_examples=300, deadline=None)
def test_sin_sign_is_the_sign_of_sin(num, den):
    sign = lissajous._sin_sign(num, den)
    assert sign == lissajous_oracle.sin_sign(Fraction(num, den))
    value = sin(pi * num / den)
    if abs(value) > 1e-9:
        assert sign == (1 if value > 0 else -1)
    assert lissajous._sin_sign(num * den, den) == 0


@given(st.integers(min_value=-10**4, max_value=10**4), st.integers(min_value=-10**4, max_value=10**4))
@settings(max_examples=300, deadline=None)
def test_radial_rank_orders_as_sine(a, b):
    rank = lissajous._radial_rank
    sa, sb = sin(pi * a / 12), sin(pi * b / 12)
    if abs(sa - sb) < 1e-9:
        assert rank(a) == rank(b)
    else:
        assert (rank(a) < rank(b)) == (sa < sb)
    # sin(pi n/12) is level on n + 24 and on the mirror 12 - n
    assert rank(a) == rank(a + 24) == rank(12 - a)


def test_sample_polyline():
    poly = sample_polyline(3, 2, samples=64)
    assert sorted(poly) == ["alpha", "p", "q", "x", "y", "z"]
    assert len(poly["x"]) == len(poly["y"]) == len(poly["z"]) == 64
    # points stay on the solid torus: radial distance in [1, 3], |z| <= 1
    for x, y, z in zip(poly["x"], poly["y"], poly["z"]):
        assert 1.0 - 1e-9 <= (x * x + y * y) ** 0.5 <= 3.0 + 1e-9
        assert -1.0 <= z <= 1.0
    with pytest.raises(ValueError):
        sample_polyline(0, 1)
    with pytest.raises(ValueError):
        sample_polyline(3, 2, samples=1)


@given(st.sampled_from(valid_pairs(qmax=23, pmax=16)))
@settings(max_examples=40, deadline=None)
def test_braid_closes_to_knot(pair):
    q, p = pair
    word = lissajous_braid(q, p)
    assert closure_components(word) == 1
    assert word.strands == 3
