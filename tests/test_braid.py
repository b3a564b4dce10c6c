"""Braid word container: validation, free reduction, group operations."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from braidwalk.braid import (
    BraidWord,
    closure_components,
    concat,
    format_word,
    inverse,
    parse_word,
    permutation,
    writhe,
)


def letters(strands=3, max_size=12):
    alphabet = [g for i in range(1, strands) for g in (i, -i)]
    return st.lists(st.sampled_from(alphabet), max_size=max_size).map(tuple)


def words(strands=3, max_size=12):
    return letters(strands, max_size).map(lambda ls: BraidWord(strands, ls))


def test_validation():
    with pytest.raises(ValueError):
        BraidWord(1, ())
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord(3, (-3,))
    BraidWord(2, (1, 1, 1))  # fine


@pytest.mark.parametrize("strands, letters", [
    (3, (1.5, 1.5, 1.5)),
    (3, (1.0,)),
    (3, (1, Fraction(2), -1)),
    (3, (Fraction(1, 2),)),
    (3.0, (1,)),
    (Fraction(3), (1,)),
    (3, ("1",)),
])
def test_non_integer_letters_and_strands_are_refused(strands, letters):
    with pytest.raises(ValueError, match="must be integers"):
        BraidWord(strands, letters)


def test_numpy_integers_become_ints():
    w = BraidWord(np.int64(4), (np.int64(1), np.int32(-3), np.int8(2), 2))
    assert w == BraidWord(4, (1, -3, 2, 2))
    assert type(w.strands) is int
    assert all(type(g) is int for g in w.letters)


def test_free_reduction():
    assert BraidWord(3, (1, -1)).letters == ()
    assert BraidWord(3, (1, 2, -2, -1)).letters == ()
    assert BraidWord(3, (1, 2, -2, 1)).letters == (1, 1)
    assert BraidWord(3, (2, 1, -1, -2, 1)).letters == (1,)


def test_mul_pow_inverse():
    w = BraidWord(3, (1, 2))
    assert (w * inverse(w)).letters == ()
    assert (w ** 0).letters == ()
    assert (w ** 2).letters == (1, 2, 1, 2)
    assert (w ** -1).letters == inverse(w).letters == (-2, -1)
    assert (w ** -2).letters == (inverse(w) ** 2).letters


@given(
    st.one_of(words(), st.just(BraidWord(3, (1, 2, -1))), st.just(BraidWord(3, (2, 1, 2)))),
    st.integers(min_value=-4, max_value=6),
)
def test_pow_matches_iterated_concat(w, n):
    # (1, 2, -1) cancels across the join: its square is (1, 2, 2, -1)
    base = w if n >= 0 else inverse(w)
    expected = BraidWord(3)
    for _ in range(abs(n)):
        expected = concat(expected, base)
    assert (w ** n).letters == expected.letters


def test_parse_format_roundtrip():
    w = parse_word("1 -2 2 1", 3)
    assert w.letters == (1, 1)
    assert format_word(w) == "1 1"
    with pytest.raises(ValueError):
        parse_word("1 x", 3)
    with pytest.raises(ValueError):
        parse_word("4", 3)


def test_permutation():
    assert permutation(BraidWord(3, (1,))) == (1, 0, 2)
    assert permutation(BraidWord(3, (1, 2, 1, 1, 2, 1))) == (0, 1, 2)
    assert permutation(BraidWord(3, ())) == (0, 1, 2)


def test_closure_components():
    assert closure_components(BraidWord(3, ())) == 3
    assert closure_components(BraidWord(2, (1,))) == 1
    assert closure_components(BraidWord(2, (1, 1))) == 2  # Hopf link
    assert closure_components(BraidWord(2, (1, 1, 1))) == 1  # trefoil
    assert closure_components(BraidWord(3, (1, 2, 1, 2))) == 1


def conjugate(w: BraidWord, by: BraidWord) -> BraidWord:
    # by * w * by^-1
    return concat(concat(by, w), inverse(by))


def test_writhe_and_conjugate():
    assert writhe(BraidWord(3, (1, -2, 2, 1))) == 2
    w = BraidWord(3, (1,))
    g = BraidWord(3, (2,))
    assert conjugate(w, g).letters == (2, 1, -2)
    assert concat(w, g).letters == (1, 2)


@given(words())
def test_inverse_cancels(w):
    assert (w * inverse(w)).letters == ()
    assert (inverse(w) * w).letters == ()


@st.composite
def words_on_2_to_8_strands(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    return draw(words(strands=n, max_size=30))


@given(words_on_2_to_8_strands())
def test_permutation_composes_transpositions(w):
    # letter +-i swaps positions i-1 and i, applied after the letters before it
    img = tuple(range(w.strands))
    for g in w.letters:
        i = abs(g) - 1
        swap = {i: i + 1, i + 1: i}
        img = tuple(swap.get(p, p) for p in img)
    assert permutation(w) == img


@given(words(), words())
def test_permutation_is_homomorphism(a, b):
    # strands pass through a first, then b
    pa, pb = permutation(a), permutation(b)
    pab = permutation(a * b)
    composed = tuple(pb[pa[i]] for i in range(3))
    assert pab == composed


@given(words(strands=4, max_size=10))
def test_component_count_bounds_and_parity(w):
    c = closure_components(w)
    assert 1 <= c <= 4
    # each letter is a transposition, flipping the cycle count parity
    assert (c - 4) % 2 == len(w.letters) % 2
