"""Acceptance suite: every advertised guarantee pinned at its stated tolerance.

Each test here is an end-to-end contract.  Reference decimals and counts are
frozen; loosening a tolerance or weakening an assertion to make a test pass
is never the right fix.
"""

import random
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from braidwalk.braid import BraidWord, closure_components, inverse
from braidwalk.burau import (
    alexander_at_minus1,
    alexander_poly,
    burau_matrix,
    burau_minus1,
    intersection_form,
    is_form_preserving,
    radical_vector,
)
from braidwalk.linalg import identity, mat_mul, mat_pow, mat_vec
from braidwalk.lissajous import (
    DEFAULT_TABLE_QS,
    TORUS,
    ZERO_SIG,
    braid_from_parametrization,
    classify,
    lambda_seq,
    lissajous_braid,
    percentage_table,
    power_signature,
)
from braidwalk.meyer import (
    check_big_entries,
    gg_signature,
    is_hyperbolic,
    meyer_cocycle,
    power_signatures,
    seifert_signature_oracle,
)
from braidwalk.walks import (
    GenMeasure,
    count_group_bruteforce,
    finite_walk_tv,
    hitting_series,
    sp_order,
    zero_density,
)

TABLES_DIR = Path(__file__).resolve().parents[1] / "tables"


def random_word(rng, strands, min_len=1, max_len=12):
    gens = [g for i in range(1, strands) for g in (i, -i)]
    n = rng.randint(min_len, max_len)
    return BraidWord(strands, tuple(rng.choice(gens) for _ in range(n)))


def random_sl2(rng, factors=8):
    parabolics = (
        ((1, 0), (-1, 1)),
        ((1, 0), (1, 1)),
        ((1, 1), (0, 1)),
        ((1, -1), (0, 1)),
    )
    m = identity(2)
    for _ in range(rng.randint(1, factors)):
        m = mat_mul(m, rng.choice(parabolics))
    return m


# ---------------------------------------------------------------------------
# 1. exact hitting probabilities reproduce the two-decimal reference table

REFERENCE_HITTING = (0.00, 0.00, 0.06, 0.11, 0.17, 0.22, 0.27, 0.32,
                     0.36, 0.41, 0.45, 0.48)


def test_01_hitting_table_within_rounding():
    start = time.monotonic()
    series = hitting_series(GenMeasure.uniform_generators(3), "z11", 12)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    for k, printed in enumerate(REFERENCE_HITTING, start=1):
        assert abs(float(series[k]) - printed) <= 0.01


# ---------------------------------------------------------------------------
# 2. the cocycle recursion equals the Seifert-matrix oracle


def reduced_3braid_words(max_len):
    """All 3-braid words of length <= max_len with no immediate cancellation."""
    stack = [()]
    while stack:
        letters = stack.pop()
        if letters:
            yield BraidWord(3, letters)
        if len(letters) == max_len:
            continue
        for g in (1, -1, 2, -2):
            if letters and g == -letters[-1]:
                continue
            stack.append(letters + (g,))


def test_02_recursion_equals_oracle_exhaustively():
    count = 0
    for w in reduced_3braid_words(8):
        assert gg_signature(w).value == seifert_signature_oracle(w)
        count += 1
    assert count == 13120  # 4 * (3^8 - 1) / 2 reduced words


def test_02_recursion_equals_oracle_on_long_random_words():
    rng = random.Random(20260815)
    for _ in range(500):
        n = rng.randint(1, 30)
        w = BraidWord(3, tuple(rng.choice((1, -1, 2, -2)) for _ in range(n)))
        assert gg_signature(w).value == seifert_signature_oracle(w)


# ---------------------------------------------------------------------------
# 3. Meyer cocycle identity, bound, and vanishing on hyperbolic powers


def test_03_cocycle_identity_and_bound():
    rng = random.Random(3)
    for _ in range(1000):
        a, b, c = (random_sl2(rng) for _ in range(3))
        lhs = meyer_cocycle(a, b) + meyer_cocycle(mat_mul(a, b), c)
        rhs = meyer_cocycle(b, c) + meyer_cocycle(a, mat_mul(b, c))
        assert lhs == rhs
        assert abs(meyer_cocycle(a, b)) <= 2
        assert abs(meyer_cocycle(b, c)) <= 2
        assert abs(meyer_cocycle(a, c)) <= 2


def test_03_meyer_vanishes_on_hyperbolic_powers():
    rng = random.Random(7)
    seen = 0
    while seen < 50:
        gamma = random_sl2(rng)
        if not is_hyperbolic(gamma):
            continue
        seen += 1
        for a in range(1, 6):
            for b in range(1, 6):
                assert meyer_cocycle(mat_pow(gamma, a), mat_pow(gamma, b)) == 0


# ---------------------------------------------------------------------------
# 4. conjugated families built from big-entry braids are signature-free


def test_04_big_entry_families_have_vanishing_signatures():
    rng = random.Random(11)
    betas = []
    while len(betas) < 200:
        beta = random_word(rng, 3, min_len=4, max_len=12)
        if check_big_entries(beta):
            betas.append(beta)
    for beta in betas:
        beta_inv = inverse(beta)
        for a in (1, 2):
            for b in (1, 2):
                family = (BraidWord(3, (a,)) * beta
                          * BraidWord(3, (b,)) * beta_inv)
                assert power_signatures(family, 20) == [0] * 20


# ---------------------------------------------------------------------------
# 5. Burau relations and the preserved bilinear form


@pytest.mark.parametrize("n", range(3, 8))
def test_05_braid_relations_generic(n):
    for i in range(1, n - 1):
        lhs = burau_matrix(BraidWord(n, (i, i + 1, i)))
        rhs = burau_matrix(BraidWord(n, (i + 1, i, i + 1)))
        assert lhs == rhs
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            assert (burau_matrix(BraidWord(n, (i, j)))
                    == burau_matrix(BraidWord(n, (j, i))))


@pytest.mark.parametrize("n", (3, 5, 7))
def test_05_form_preserved_on_random_words(n):
    rng = random.Random(100 + n)
    form = intersection_form(n - 1)
    for _ in range(1000):
        w = random_word(rng, n, min_len=0, max_len=12)
        assert is_form_preserving(burau_minus1(w), form)


@pytest.mark.parametrize("n", (4, 6))
def test_05_radical_fixed_pointwise(n):
    rng = random.Random(200 + n)
    k = radical_vector(n - 1)
    for _ in range(300):
        w = random_word(rng, n, min_len=0, max_len=12)
        assert mat_vec(burau_minus1(w), k) == k


# ---------------------------------------------------------------------------
# 6. Alexander determinant anchors and route agreement


def test_06_alexander_determinant_anchors():
    assert abs(alexander_at_minus1(BraidWord(3, (1, 1, 1, 2)))) == 3   # trefoil
    assert abs(alexander_at_minus1(BraidWord(3, (1, -2, 1, -2)))) == 5  # figure-eight
    for w in (BraidWord(3, (1, 2)), BraidWord(3, (2, 1)),
              BraidWord(5, (1, 2, 3, 4))):
        assert abs(alexander_at_minus1(w)) == 1  # unknot braids


def test_06_generic_route_agrees_at_minus_one():
    rng = random.Random(42)
    seen = 0
    while seen < 200:
        n = rng.choice((3, 5, 7))
        w = random_word(rng, n, min_len=1, max_len=12)
        if closure_components(w) != 1:
            continue
        seen += 1
        assert abs(alexander_poly(w).evaluate(-1)) == abs(alexander_at_minus1(w))


# ---------------------------------------------------------------------------
# 7. symplectic group orders, zero densities, mixing of the mod-p walk


def test_07_orders_match_bruteforce():
    for l, p in ((1, 3), (1, 5), (1, 7), (2, 3)):
        assert count_group_bruteforce(l, p) == sp_order(l, p)


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_07_corner_entry_zero_density(p):
    assert zero_density("m11", 1, p) == Fraction(1, p + 1)


def test_07_projective_walk_mixes_monotonically():
    res = finite_walk_tv(GenMeasure.uniform_generators(3), 7,
                         projective=True, steps=200)
    assert res.generated
    assert all(b <= a for a, b in zip(res.tv, res.tv[1:]))
    assert res.tv[-1] < Fraction(1, 1000)


# ---------------------------------------------------------------------------
# 8. Lissajous toric anchors, identities, and the parametrization oracle


def test_08_flagship_word_and_classification():
    assert lissajous_braid(5, 7).letters == (2, -1, 2, -1, 2, 1, -2, 1, -2, 1)
    assert classify(5, 7).kind == ZERO_SIG
    for n in (1, 2, 4, 5, 7, 8, 10):
        assert power_signature(5, 7, n) == 0


@pytest.mark.parametrize("q", (7, 11, 13))
def test_08_near_diagonal_pairs_are_torus(q):
    assert classify(q, q + 6).kind == TORUS


def test_08_lambda_and_factorization_identities_up_to_201():
    count = 0
    for q in range(5, 202, 2):
        if q % 3 == 0:
            continue
        for p in range(1, q):
            if p % 3 == 0 or gcd(q, p) != 1:
                continue
            count += 1
            lam = lambda_seq(q, p)
            for k in range(1, q):
                assert lam[q - k - 1] == -lam[k - 1]
            # classify re-derives the quadratic word matrix as P P^T and
            # cross-checks the trace identity internally, raising on failure
            classify(q, p)
    assert count == 4128


def test_08_parametrization_oracle_agrees_on_both_odd_pairs():
    pairs = [(q, p) for q in (5, 7, 11, 13) for p in range(1, q, 2)
             if p % 3 != 0 and gcd(q, p) == 1]
    assert len(pairs) == 10
    for q, p in pairs:
        direct = braid_from_parametrization(q, p)
        via_lambda = lissajous_braid(q, p)
        assert closure_components(direct) == closure_components(via_lambda) == 1
        m1, m2 = burau_minus1(direct), burau_minus1(via_lambda)
        assert m1[0][0] + m1[1][1] == m2[0][0] + m2[1][1]
        assert (abs(alexander_at_minus1(direct))
                == abs(alexander_at_minus1(via_lambda)))


# ---------------------------------------------------------------------------
# 9. census property: zero-signature classes dominate in both counting modes
#
# The two eligibility modes disagree on which (q, p) pairs a row counts, and
# the literal mode lands on exactly 1/2 for q in {7, 13}; those two rows are
# strict expected failures rather than a loosened bound.  The full two-mode
# table is rebuilt in a temporary directory and must equal the committed
# tables/two_mode_census.csv byte for byte.


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    tables = {mode: {row["q"]: row for row in percentage_table(mode=mode)}
              for mode in ("literal", "full-range")}
    lines = ["q,mode,numerator,denominator,fraction,percent"]
    for mode in ("literal", "full-range"):
        for q in DEFAULT_TABLE_QS:
            row = tables[mode][q]
            lines.append("%d,%s,%d,%d,%s,%d" % (
                q, mode, row["numerator"], row["denominator"],
                row["fraction"], row["percent"]))
    out = tmp_path_factory.mktemp("census") / "two_mode_census.csv"
    out.write_text("\n".join(lines) + "\n")
    assert out.read_bytes() == (TABLES_DIR / "two_mode_census.csv").read_bytes()
    return tables


def majority_cases():
    exactly_half = {("literal", 7), ("literal", 13)}
    for mode in ("literal", "full-range"):
        for q in DEFAULT_TABLE_QS:
            if q < 7:
                continue
            if (mode, q) in exactly_half:
                yield pytest.param(mode, q, marks=pytest.mark.xfail(
                    strict=True,
                    reason="census fraction is exactly 1/2, not a majority"))
            else:
                yield pytest.param(mode, q)


@pytest.mark.parametrize("mode,q", list(majority_cases()))
def test_09_zero_signature_majority(census, mode, q):
    assert census[mode][q]["fraction"] > Fraction(1, 2)


def test_09_audit_table_emitted(census):
    text = (TABLES_DIR / "two_mode_census.csv").read_text()
    assert len(text.strip().splitlines()) == 1 + 2 * len(DEFAULT_TABLE_QS)


# ---------------------------------------------------------------------------
# 10. the 3-braid signature is a quasimorphism with defect at most 2


def test_10_signature_defect_bounded():
    rng = random.Random(1234)
    for _ in range(1000):
        a = random_word(rng, 3, min_len=0, max_len=12)
        b = random_word(rng, 3, min_len=0, max_len=12)
        defect = (gg_signature(a * b).value
                  - gg_signature(a).value - gg_signature(b).value)
        assert abs(defect) <= 2
