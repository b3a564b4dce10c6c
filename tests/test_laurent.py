"""Integer Laurent polynomials: arithmetic, exact division, evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from braidwalk.laurent import ONE, T, LaurentPoly


def polys(max_terms=5, max_exp=4, max_coeff=9):
    pairs = st.tuples(
        st.integers(min_value=-max_exp, max_value=max_exp),
        st.integers(min_value=-max_coeff, max_value=max_coeff),
    )
    return st.lists(pairs, max_size=max_terms).map(
        lambda ps: LaurentPoly(dict(ps))
    )


def test_normalization_drops_zeros():
    p = LaurentPoly({0: 1, 2: 0, -1: 3})
    assert p.coeffs == {0: 1, -1: 3}
    assert LaurentPoly({5: 0}) == LaurentPoly({})


def test_constants_and_arithmetic():
    assert T * T == LaurentPoly({2: 1})
    assert (T + ONE) * (T - ONE) == LaurentPoly({2: 1, 0: -1})
    assert T + (-T) == LaurentPoly({})
    assert (T + ONE) - ONE == T
    assert 2 * T == T + T == T * 2


def test_exponent_range_and_shift():
    p = LaurentPoly({-2: 1, 3: 4})
    assert p.min_exp() == -2 and p.max_exp() == 3
    q = p.shift(2)
    assert q.min_exp() == 0 and q.max_exp() == 5


def test_evaluate():
    p = LaurentPoly({-1: 1, 0: -1, 1: 1})  # t^-1 - 1 + t
    assert p.evaluate(Fraction(-1)) == -3
    assert p.evaluate(Fraction(2)) == Fraction(3, 2)
    with pytest.raises((ValueError, ZeroDivisionError)):
        LaurentPoly({-1: 1}).evaluate(Fraction(0))


def substitute_inverse(p: LaurentPoly) -> LaurentPoly:
    """t -> 1/t."""
    return LaurentPoly({-e: v for e, v in p.coeffs.items()})


def test_substitute_inverse():
    p = LaurentPoly({-1: 1, 0: -1, 1: 1})
    assert substitute_inverse(p) == p  # symmetric
    q = LaurentPoly({0: 1, 2: 5})
    assert substitute_inverse(q) == LaurentPoly({0: 1, -2: 5})


def test_divide_exact_errors():
    num = LaurentPoly({0: 1, 1: 1})
    with pytest.raises(ValueError):
        num.divide_exact(LaurentPoly({0: 2}))  # 2 does not divide 1
    with pytest.raises(ValueError):
        num.divide_exact(LaurentPoly({0: 1, 2: 1}))  # not a factor
    with pytest.raises((ValueError, ZeroDivisionError)):
        num.divide_exact(LaurentPoly({}))


@given(polys(), polys())
def test_product_then_exact_division(a, b):
    prod = a * b
    if b == LaurentPoly({}):
        return
    assert prod.divide_exact(b) == a


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)


@given(polys(), st.fractions(min_value=-5, max_value=5))
def test_evaluation_is_multiplicative(a, x):
    if x == 0 and (a.coeffs and a.min_exp() < 0):
        return
    if x == 0:
        return
    assert (a * a).evaluate(x) == a.evaluate(x) ** 2
