"""Burau matrices, the symplectic structure at t = -1, Alexander polynomials."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import braidwalk.burau as burau_module
from braidwalk.braid import BraidWord, closure_components, inverse
from braidwalk.burau import (
    alexander_at_minus1,
    alexander_poly,
    burau_matrix,
    burau_minus1,
    intersection_form,
    is_form_preserving,
    radical_vector,
    symplectic_image,
    symplectic_quotient,
)
from braidwalk.laurent import LaurentPoly
from braidwalk.linalg import identity, mat_mul, mat_transpose, mat_vec
from burau_oracle import burau_generator, burau_generator_minus1
from linalg_oracle import det_laplace


def words(strands, max_size=10):
    alphabet = [g for i in range(1, strands) for g in (i, -i)]
    return st.lists(st.sampled_from(alphabet), max_size=max_size).map(
        lambda ls: BraidWord(strands, ls)
    )


def test_generator_anchors_minus1():
    # 3-strand images at t = -1
    s1 = burau_minus1(BraidWord(3, (1,)))
    s2 = burau_minus1(BraidWord(3, (2,)))
    assert s1 == ((1, 0), (-1, 1))
    assert s2 == ((1, 1), (0, 1))
    # transpose relation between the two parabolic generators
    assert mat_transpose(s1) == burau_minus1(BraidWord(3, (-2,)))


def test_generator_inverse_is_matrix_inverse():
    for n in (3, 4, 5):
        for i in range(1, n):
            g = burau_generator(n, i)
            ginv = burau_generator(n, i, inverse=True)
            prod = mat_mul(g, ginv)
            assert prod == identity(n - 1)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_braid_relations_generic(n):
    gens = [burau_generator(n, i) for i in range(1, n)]
    for i in range(len(gens)):
        for j in range(len(gens)):
            if abs(i - j) >= 2:
                assert mat_mul(gens[i], gens[j]) == mat_mul(gens[j], gens[i])
    for i in range(len(gens) - 1):
        lhs = mat_mul(mat_mul(gens[i], gens[i + 1]), gens[i])
        rhs = mat_mul(mat_mul(gens[i + 1], gens[i]), gens[i + 1])
        assert lhs == rhs


def test_half_twist_and_full_twist():
    half = BraidWord(3, (1, 2, 1))
    assert burau_minus1(half) == ((0, 1), (-1, 0))
    assert burau_minus1(BraidWord(3, (1, 2, 1, 1, 2, 1))) == ((-1, 0), (0, -1))
    assert burau_minus1(half ** 4) == identity(2)


@given(words(3, max_size=8))
def test_word_inverse_generic(w):
    m = burau_matrix(w)
    minv = burau_matrix(inverse(w))
    assert mat_mul(m, minv) == identity(2)


@settings(max_examples=50)
@given(st.sampled_from([3, 5]), st.data())
def test_form_preserved_odd(n, data):
    w = data.draw(words(n, max_size=12))
    m = burau_minus1(w)
    assert is_form_preserving(m)


@settings(max_examples=40)
@given(st.sampled_from([4, 6]), st.data())
def test_radical_fixed_even(n, data):
    w = data.draw(words(n, max_size=10))
    m = burau_minus1(w)
    k = radical_vector(n - 1)
    assert mat_vec(m, k) == k


def test_radical_vector_shape():
    assert radical_vector(3) == (1, 0, 1)
    assert radical_vector(5) == (1, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        radical_vector(2)


def test_intersection_form_shape():
    j = intersection_form(4)
    assert j == (
        (0, 1, 0, 0),
        (-1, 0, 1, 0),
        (0, -1, 0, 1),
        (0, 0, -1, 0),
    )


def test_symplectic_quotient_anchor():
    m = burau_minus1(BraidWord(4, (1,)))
    assert symplectic_quotient(m) == ((1, 1), (0, 1))


@given(words(4, max_size=8), words(4, max_size=8))
def test_quotient_is_multiplicative(a, b):
    qa = symplectic_quotient(burau_minus1(a))
    qb = symplectic_quotient(burau_minus1(b))
    qab = symplectic_quotient(burau_minus1(a * b))
    assert qab == mat_mul(qa, qb)


def test_symplectic_image_dispatch():
    assert symplectic_image(BraidWord(3, (1,))) == ((1, 0), (-1, 1))
    assert symplectic_image(BraidWord(4, (1,))) == ((1, 1), (0, 1))


def _minus1_product(w):
    """Burau matrix at t = -1 as the mat_mul product of the generator images."""
    n = w.strands
    out = identity(n - 1)
    for g in w.letters:
        out = mat_mul(out, burau_generator_minus1(n, abs(g), inverse=g < 0))
    return out


def _is_int_matrix(m):
    return type(m) is tuple and all(
        type(row) is tuple and all(type(x) is int for x in row) for row in m
    )


@settings(max_examples=200)
@given(st.integers(min_value=2, max_value=9).flatmap(lambda n: words(n, 16)))
def test_minus1_column_operations_match_generator_product(w):
    assert burau_minus1(w) == _minus1_product(w)


@st.composite
def long_3_strand_words(draw):
    """3-braids of up to 300 letters, mixing single letters with runs of
    sigma_1 sigma_2^-1, whose image entries grow like Fibonacci numbers."""
    chunks = draw(st.lists(
        st.one_of(
            st.sampled_from([(1,), (-1,), (2,), (-2,)]),
            st.integers(min_value=1, max_value=150).map(lambda k: (1, -2) * k),
        ),
        max_size=60,
    ))
    return BraidWord(3, tuple(g for chunk in chunks for g in chunk)[:300])


@settings(max_examples=200, deadline=None)
@given(long_3_strand_words())
def test_3_strand_kernel_matches_generator_product(w):
    got = burau_minus1(w)
    assert got == _minus1_product(w)
    assert _is_int_matrix(got)


def test_3_strand_kernel_anchors():
    anchors = {
        (1,): ((1, 0), (-1, 1)),
        (-1,): ((1, 0), (1, 1)),
        (2,): ((1, 1), (0, 1)),
        (-2,): ((1, -1), (0, 1)),
    }
    for letters, image in anchors.items():
        w = BraidWord(3, letters)
        assert burau_minus1(w) == image == _minus1_product(w)
    # the full twist Delta^2 = (sigma_1 sigma_2)^3 maps to -I
    assert burau_minus1(BraidWord(3, (1, 2) * 3)) == ((-1, 0), (0, -1))
    assert burau_minus1(BraidWord(3, (1, 2, 1))) == burau_minus1(BraidWord(3, (2, 1, 2)))
    # (sigma_1 sigma_2^-1)^k = ((F(2k-1), -F(2k)), (-F(2k), F(2k+1)))
    fib = [0, 1]
    while len(fib) < 302:
        fib.append(fib[-1] + fib[-2])
    k = 150
    got = burau_minus1(BraidWord(3, (1, -2) * k))
    assert got == ((fib[2 * k - 1], -fib[2 * k]), (-fib[2 * k], fib[2 * k + 1]))
    assert fib[2 * k] > 2**200
    assert _is_int_matrix(got)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=40).map(tuple))
@example((1, -1, 2, -2, -2, 2, 1, 1, -1))
def test_3_strand_letter_kernel_matches_word_image(letters):
    # tuples that are not freely reduced included: the image is a homomorphism
    product = identity(2)
    for g in letters:
        product = mat_mul(product, burau_generator_minus1(3, abs(g), inverse=g < 0))
    got = burau_module._minus1_3(letters)
    assert got == burau_minus1(BraidWord(3, letters)) == product
    assert _is_int_matrix(got)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 4]).flatmap(lambda n: words(n, 40)))
def test_2_and_4_strand_words_keep_the_column_path(w):
    got = burau_minus1(w)
    assert got == _minus1_product(w)
    assert _is_int_matrix(got)


def _generator_product(w):
    """Burau matrix as the mat_mul product of the generator images."""
    n = w.strands
    out = identity(n - 1)
    for g in w.letters:
        out = mat_mul(out, burau_generator(n, abs(g), inverse=g < 0))
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=9).flatmap(lambda n: words(n, 14)))
def test_column_operations_match_generator_product(w):
    assert burau_matrix(w) == _generator_product(w)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=9).flatmap(lambda n: words(n, 40)))
@example(BraidWord(3, (1, 2, -1)))
def test_burau_eval_matches_specialization(w):
    # both rings of the one column kernel; on 3 strands the t = -1 side is
    # _minus1_3, so this also ties the Laurent ring to the 3-strand path
    m = tuple(tuple(p.evaluate(-1) for p in row) for row in burau_matrix(w))
    assert m == burau_minus1(w)
    assert _is_int_matrix(burau_minus1(w))


def test_alexander_anchors():
    trefoil2 = BraidWord(2, (1, 1, 1))
    trefoil3 = BraidWord(3, (1, 2, 1, 2))
    fig8 = BraidWord(3, (1, -2, 1, -2))
    unknot2 = BraidWord(2, (1,))
    unknot3 = BraidWord(3, (1, 2))
    hopf = BraidWord(2, (1, 1))

    assert alexander_poly(trefoil2) == LaurentPoly({-1: 1, 0: -1, 1: 1})
    assert alexander_poly(trefoil3) == LaurentPoly({-1: 1, 0: -1, 1: 1})
    assert alexander_poly(fig8) == LaurentPoly({-1: -1, 0: 3, 1: -1})
    assert alexander_poly(unknot2) == LaurentPoly({0: 1})
    assert alexander_poly(unknot3) == LaurentPoly({0: 1})
    assert alexander_poly(hopf) == LaurentPoly({0: -1, 1: 1})


def test_alexander_at_minus1_anchors():
    assert alexander_at_minus1(BraidWord(3, (1, 2, 1, 2))) == 3
    assert abs(alexander_at_minus1(BraidWord(3, (1, -2, 1, -2)))) == 5
    assert abs(alexander_at_minus1(BraidWord(3, (1, 2)))) == 1
    with pytest.raises(ValueError):
        alexander_at_minus1(BraidWord(2, (1, 1, 1)))
    with pytest.raises(ValueError):
        alexander_at_minus1(BraidWord(4, (1, 2, 3)))


@settings(max_examples=60)
@given(words(3, max_size=12))
def test_alexander_symmetric_up_to_sign(w):
    # Delta(1/t) = +- t^-s Delta(t); s = 0 for knots, but even-component
    # links can sit half a step off centre
    p = alexander_poly(w)
    if p == LaurentPoly({}):
        return
    # t^s Delta(1/t) with s = min_exp + max_exp
    s = p.min_exp() + p.max_exp()
    flipped = LaurentPoly({s - e: v for e, v in p.coeffs.items()})
    assert flipped == p or flipped == -p


@settings(max_examples=60)
@given(st.sampled_from([3, 5]), st.data())
def test_generic_route_matches_minus1_route(n, data):
    w = data.draw(words(n, max_size=10))
    p = alexander_poly(w)
    direct = alexander_at_minus1(w)
    assert abs(p.evaluate(Fraction(-1))) == abs(direct)


def _word_16(rng, length, knot):
    """Seeded word on 16 strands whose closure is a knot (or not)."""
    while True:
        letters = tuple(rng.randrange(1, 16) * rng.choice((1, -1)) for _ in range(length))
        w = BraidWord(16, letters)
        if (closure_components(w) == 1) == knot:
            return w


def test_alexander_reach_16_strands(monkeypatch):
    # a 16-cycle is odd, so a knot needs an odd number of letters
    rng = random.Random(7)
    knot, link = _word_16(rng, 41, True), _word_16(rng, 40, False)
    fast = {}
    for w in (knot, link):
        start = time.perf_counter()
        fast[w] = alexander_poly(w)
        assert time.perf_counter() - start < 1.0
    assert abs(fast[knot].evaluate(1)) == 1
    assert fast[link].evaluate(1) == 0
    # the same polynomials from the generator product and Laplace expansion
    monkeypatch.setattr(burau_module, "burau_matrix", _generator_product)
    monkeypatch.setattr(burau_module, "det_ring", det_laplace)
    for w in (knot, link):
        assert alexander_poly(w) == fast[w]
