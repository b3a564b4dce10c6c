"""Meyer cocycle, the signature recursion, and the Seifert-matrix oracle."""

import random
from fractions import Fraction
from math import gcd
from operator import add

import pytest
from hypothesis import assume, given, settings, strategies as st

from braidwalk.braid import BraidWord, closure_components
from braidwalk.burau import burau_minus1
from braidwalk.linalg import form_signature, mat_mul, mat_pow
from braidwalk.meyer import (
    check_big_entries,
    gg_signature,
    is_hyperbolic,
    meyer_cocycle,
    power_signatures,
    rademacher_phi,
    seifert_signature_oracle,
)
from linalg_oracle import form_signature_fraction
from meyer_oracle import (
    meyer_gram,
    meyer_space,
    pair_sorted_loops,
    seifert_matrix,
    seifert_matrix_by_pair,
)

S1 = ((1, 0), (-1, 1))
S2 = ((1, 1), (0, 1))


def sl2_words(max_size=8):
    return st.lists(st.sampled_from([S1, S2,
                                     ((1, 0), (1, 1)), ((1, -1), (0, 1))]),
                    max_size=max_size)


def sl2_matrices(max_size=8):
    def prod(ms):
        out = ((1, 0), (0, 1))
        for m in ms:
            out = mat_mul(out, m)
        return out
    return sl2_words(max_size).map(prod)


def words3(max_size=10):
    return st.lists(st.sampled_from([1, -1, 2, -2]), max_size=max_size).map(
        lambda ls: BraidWord(3, ls)
    )


def test_meyer_anchors():
    assert meyer_cocycle(S1, S1) == 1
    assert meyer_cocycle(S1, S2) == 0
    assert meyer_cocycle(S2, S2) == 1
    prod = mat_mul(S1, S2)
    assert meyer_cocycle(prod, prod) == 2
    with pytest.raises(ValueError):
        meyer_cocycle(((1, 0), (0, 2)), S2)  # det 2
    with pytest.raises(ValueError):
        meyer_cocycle(((1, 0, 0), (0, 1, 0)), S2)  # 2x3
    with pytest.raises(ValueError):
        meyer_cocycle(S1, ((1, 0), (0, 1), (0, 0)))  # 3x2
    with pytest.raises(ValueError):
        meyer_cocycle(((Fraction(1, 2), 0), (0, 2)), S2)  # not integral


def test_meyer_space_and_gram():
    # gamma1 = gamma2 = s1: E is one-dimensional
    e = meyer_space(S1, S1)
    assert len(e) == 1
    basis, gram = meyer_gram(S1, S1)
    assert len(basis) == 1 and len(gram) == 1
    # identity against anything gives the empty space
    assert meyer_space(((1, 0), (0, 1)), S1) == []
    assert meyer_cocycle(((1, 0), (0, 1)), S1) == 0


@settings(max_examples=120)
@given(sl2_matrices(6), sl2_matrices(6), sl2_matrices(6))
def test_cocycle_identity(a, b, c):
    lhs = meyer_cocycle(a, b) + meyer_cocycle(mat_mul(a, b), c)
    rhs = meyer_cocycle(b, c) + meyer_cocycle(a, mat_mul(b, c))
    assert lhs == rhs


@given(sl2_matrices(8), sl2_matrices(8))
def test_meyer_bounded(a, b):
    assert abs(meyer_cocycle(a, b)) <= 2


def test_hyperbolic_powers_vanish():
    gamma = ((1, 1), (1, 2))
    assert is_hyperbolic(gamma)
    for a in range(1, 5):
        for b in range(1, 5):
            assert meyer_cocycle(mat_pow(gamma, a), mat_pow(gamma, b)) == 0
    assert not is_hyperbolic(S1)
    assert not is_hyperbolic(((0, 1), (-1, 0)))


def test_gg_signature_anchors():
    cases = {
        (): 0,
        (1,): 0,
        (1, 1): -1,
        (1, 1, 1): -2,
        (1, 2, 1, 2): -2,            # trefoil
        (1, -2, 1, -2): 0,           # figure eight
        (1, 2, 1, 2, 1, 2): -4,      # (3,3) torus link
        (1, 2, 1, 2, 1, 2, 1, 2): -6,    # (3,4) torus knot
        (1, 2) * 5: -8,              # (3,5) torus knot
    }
    for letters, expected in cases.items():
        res = gg_signature(BraidWord(3, letters))
        assert res.value == expected, (letters, res.value)


def test_gg_signature_result_fields():
    res = gg_signature(BraidWord(3, (1, 2, 1, 2)))
    assert res.value == -2


def test_gg_requires_three_strands():
    with pytest.raises(ValueError):
        gg_signature(BraidWord(2, (1, 1, 1)))
    with pytest.raises(ValueError):
        gg_signature(BraidWord(4, (1, 2, 3)))


def test_seifert_matrix_anchor():
    v = seifert_matrix(BraidWord(2, (1, 1, 1)))
    assert v == ((-1, 1), (0, -1))
    assert seifert_signature_oracle(BraidWord(2, (1, 1, 1))) == -2


def test_seifert_oracle_on_other_strand_counts():
    assert seifert_signature_oracle(BraidWord(2, (1, 1))) == -1    # Hopf
    assert seifert_signature_oracle(BraidWord(4, (1, 2, 3))) == 0  # unknot
    assert seifert_signature_oracle(BraidWord(4, (1, 1, 2, 2, 3, 3))) == -3
    assert seifert_signature_oracle(BraidWord(3, ())) == 0


def reduced_words(strands, length, seed):
    """Seeded freely reduced word of exactly `length` letters."""
    rng = random.Random(seed)
    letters = []
    while len(letters) < length:
        g = rng.randrange(1, strands) * rng.choice((1, -1))
        if not letters or letters[-1] != -g:
            letters.append(g)
    return BraidWord(strands, tuple(letters))


@st.composite
def words_on_2_to_6_strands(draw, max_size=24):
    n = draw(st.integers(min_value=2, max_value=6))
    gens = [g for i in range(1, n) for g in (i, -i)]
    return BraidWord(n, tuple(draw(st.lists(st.sampled_from(gens), max_size=max_size))))


@settings(max_examples=300, deadline=None)
@given(words_on_2_to_6_strands())
def test_start_ordered_seifert_matrix_is_pair_sorted_one_permuted(w):
    # loop x of the pair-sorted matrix is loop rank(start_x) by start position
    old = seifert_matrix_by_pair(w)
    starts = [a for _, a, _ in pair_sorted_loops(w)]
    rank = {a: r for r, a in enumerate(sorted(starts))}
    perm = [rank[a] for a in starts]
    new = seifert_matrix(w)
    assert len(new) == len(old)
    assert all(new[perm[x]][perm[y]] == old[x][y]
               for x in range(len(old)) for y in range(len(old)))


def _bandwidth(v):
    return max((abs(i - j) for i, row in enumerate(v) for j, x in enumerate(row) if x),
               default=0)


def test_start_ordered_seifert_matrix_is_banded():
    # a loop meets only loops that start before it ends
    for seed in range(5):
        w = reduced_words(3, 100, seed)
        assert _bandwidth(seifert_matrix(w)) <= 10 < 40 <= _bandwidth(seifert_matrix_by_pair(w))


def test_seifert_oracle_reaches_length_400():
    for seed in range(4):
        w = reduced_words(3, 400, seed)
        assert seifert_signature_oracle(w) == gg_signature(w).value


def _symmetrised(v):
    return tuple(tuple(map(add, row, col)) for row, col in zip(v, zip(*v)))


@settings(max_examples=300, deadline=None)
@given(words_on_2_to_6_strands(max_size=40))
def test_sparse_row_oracle_matches_dense_forms(w):
    # the oracle never forms V + V^T; these routes do, in both loop orders
    by_pair = _symmetrised(seifert_matrix_by_pair(w))
    sig = seifert_signature_oracle(w)
    assert sig == form_signature(_symmetrised(seifert_matrix(w)))
    assert sig == form_signature(by_pair)
    assert sig == form_signature_fraction(by_pair)


def test_seifert_oracle_reaches_length_1600():
    for seed in range(3):
        w = reduced_words(3, 1600, seed)
        assert seifert_signature_oracle(w) == gg_signature(w).value


@settings(max_examples=150, deadline=None)
@given(words3(14))
def test_recursion_matches_oracle(w):
    assert gg_signature(w).value == seifert_signature_oracle(w)


def test_mirror_negates_signature():
    rng = random.Random(7)
    for _ in range(40):
        letters = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 16)))
        w = BraidWord(3, letters)
        mirror = BraidWord(3, tuple(-g for g in letters))
        assert gg_signature(mirror).value == -gg_signature(w).value


@settings(max_examples=80, deadline=None)
@given(words3(10), words3(10))
def test_quasimorphism_defect(a, b):
    d = gg_signature(a * b).value - gg_signature(a).value - gg_signature(b).value
    assert abs(d) <= 2


def test_power_signatures_match_expansion():
    w = BraidWord(3, (1, 2))
    sigs = power_signatures(w, 6)
    for n in range(1, 7):
        assert sigs[n - 1] == gg_signature(w ** n).value


@settings(max_examples=60, deadline=None)
@given(words3(8), st.integers(min_value=1, max_value=12))
def test_power_signatures_match_expanded_words(w, nmax):
    assert power_signatures(w, nmax) == [
        gg_signature(w ** n).value for n in range(1, nmax + 1)
    ]


def test_power_signatures_rejects_nmax_below_one():
    w = BraidWord(3, (1, 2))
    for nmax in (0, -3):
        with pytest.raises(ValueError):
            power_signatures(w, nmax)
    with pytest.raises(ValueError):
        power_signatures(BraidWord(4, (1, 2, 3)), 2)


# The closed form against its definitions -----------------------------------

I2 = ((1, 0), (0, 1))
S = ((0, -1), (1, 0))
ST = mat_mul(S, S2)


def _neg(m):
    return tuple(tuple(-x for x in row) for row in m)


def signed_sl2(max_size=12):
    """+- products of the generator images, +-I, +-T^n, S, ST and (ST)^2."""
    special = st.sampled_from([I2, _neg(I2), S, ST, mat_mul(ST, ST)])
    shears = st.integers(min_value=-6, max_value=6).map(lambda n: ((1, n), (0, 1)))
    base = st.one_of(sl2_matrices(max_size), shears, special)
    return st.tuples(base, st.booleans()).map(lambda mb: _neg(mb[0]) if mb[1] else mb[0])


def generic_meyer(a, b):
    """Signature of the Meyer form on E, 0 when E = 0."""
    _, gram = meyer_gram(a, b)
    return form_signature_fraction(gram) if gram else 0


@settings(max_examples=400, deadline=None)
@given(signed_sl2(), signed_sl2())
def test_closed_form_matches_generic_meyer(a, b):
    assert meyer_cocycle(a, b) == generic_meyer(a, b)


def _sawtooth(x):
    if x.denominator == 1:
        return Fraction(0)
    return x - x.numerator // x.denominator - Fraction(1, 2)


def dedekind_sum(h, k):
    """s(h, k) straight from the sawtooth definition."""
    return sum(_sawtooth(Fraction(i, k)) * _sawtooth(Fraction(h * i, k))
               for i in range(1, k))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-60, max_value=60).filter(bool),
       st.integers(min_value=-300, max_value=300),
       st.integers(min_value=-4, max_value=4),
       st.booleans())
def test_rademacher_phi_matches_dedekind_sum(c, d, shift, negate):
    assume(gcd(c, d) == 1)
    a = pow(d, -1, abs(c)) + shift * c  # a d = 1 mod c
    b = (a * d - 1) // c
    m = ((a, b), (c, d))
    if negate:
        m = _neg(m)
    a, b, c, d = m[0] + m[1]
    sign = 1 if c > 0 else -1
    assert rademacher_phi(m) == Fraction(a + d, c) - 12 * sign * dedekind_sum(d, abs(c))


def test_rademacher_phi_upper_triangular():
    for n in range(-5, 6):
        assert rademacher_phi(((1, n), (0, 1))) == n
        assert rademacher_phi(((-1, -n), (0, -1))) == n


def test_check_big_entries():
    assert not check_big_entries(BraidWord(3, (1,)))
    assert not check_big_entries(BraidWord(3, ()))
    found = None
    rng = random.Random(1)
    while found is None:
        letters = tuple(rng.choice([1, -1, 2, -2]) for _ in range(10))
        w = BraidWord(3, letters)
        if check_big_entries(w):
            found = w
    m = burau_minus1(found)
    assert all(abs(x) > 2 for row in m for x in row)
    with pytest.raises(ValueError):
        check_big_entries(BraidWord(4, (1, 2, 3)))


def test_big_entries_kill_conjugated_signatures():
    # the transience mechanism in one example: big entries force zero
    # signature for the whole conjugated family
    rng = random.Random(3)
    beta = None
    while beta is None:
        letters = tuple(rng.choice([1, -1, 2, -2]) for _ in range(12))
        w = BraidWord(3, letters)
        if check_big_entries(w):
            beta = w
    for a in (1, 2):
        for b in (1, 2):
            word = BraidWord(3, (a,)) * beta * BraidWord(3, (b,)) * (beta ** -1)
            sigs = power_signatures(word, 8)
            assert all(s == 0 for s in sigs)
