"""Exact linear algebra: determinants, solving, subspaces, form signatures."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidwalk.linalg import (
    det_fraction,
    det_ring,
    form_signature,
    identity,
    image_basis,
    kernel_basis,
    mat_inverse,
    mat_mul,
    mat_pow,
    mat_transpose,
    mat_vec,
    rref,
    solve_particular,
    span_contains,
    subspace_intersection,
)


def int_matrices(d, lo=-6, hi=6):
    row = st.tuples(*[st.integers(min_value=lo, max_value=hi)] * d)
    return st.tuples(*[row] * d)


def test_identity_and_mul():
    i3 = identity(3)
    m = ((1, 2, 0), (0, 1, 3), (4, 0, 1))
    assert mat_mul(i3, m) == m == mat_mul(m, i3)
    assert mat_vec(m, (1, 0, 0)) == (1, 0, 4)


def test_mat_pow_negative():
    m = ((1, 1), (0, 1))
    assert mat_pow(m, 3) == ((1, 3), (0, 1))
    assert mat_pow(m, -2) == ((1, -2), (0, 1))
    assert mat_pow(m, 0) == identity(2)


@given(int_matrices(2))
def test_det_ring_matches_fraction_2x2(m):
    assert det_ring(m) == det_fraction(m)


@settings(max_examples=60)
@given(int_matrices(4, lo=-3, hi=3))
def test_det_ring_matches_fraction_4x4(m):
    assert det_ring(m) == det_fraction(m)


@given(int_matrices(3))
def test_inverse_roundtrip(m):
    if det_fraction(m) == 0:
        with pytest.raises(ValueError):
            mat_inverse(m)
        return
    inv = mat_inverse(m)
    assert mat_mul(m, inv) == identity(3, one=Fraction(1), zero=Fraction(0))


@given(int_matrices(3, lo=-4, hi=4))
def test_kernel_and_image(m):
    for v in kernel_basis(m):
        assert mat_vec(m, v) == (0,) * 3
    img = image_basis(m)
    cols = [tuple(m[i][j] for i in range(3)) for j in range(3)]
    for c in cols:
        assert span_contains(img, c)


@given(int_matrices(3, lo=-4, hi=4))
def test_rank_nullity(m):
    assert len(kernel_basis(m)) + len(image_basis(m)) == 3


@given(int_matrices(3, lo=-3, hi=3), int_matrices(3, lo=-3, hi=3))
def test_intersection_contained_in_both(a, b):
    ua = image_basis(a)
    ub = image_basis(b)
    for v in subspace_intersection(ua, ub):
        assert span_contains(ua, v)
        assert span_contains(ub, v)


@given(int_matrices(3, lo=-4, hi=4),
       st.tuples(*[st.integers(min_value=-4, max_value=4)] * 3))
def test_solve_particular(m, x):
    b = mat_vec(m, x)
    sol = solve_particular(m, b)
    assert mat_vec(m, sol) == tuple(Fraction(v) for v in b)


def test_solve_inconsistent_raises():
    m = ((1, 0), (1, 0))
    with pytest.raises(ValueError):
        solve_particular(m, (0, 1))


def test_rref_shape():
    rows, pivots = rref([(2, 4), (1, 2)])
    assert len(rows) == 1 and pivots == [0]


def test_form_signature_anchors():
    assert form_signature(((2, 0), (0, 3))) == 2
    assert form_signature(((-1, 0), (0, 5))) == 0
    assert form_signature(((0, 1), (1, 0))) == 0  # hyperbolic plane
    assert form_signature(((0, 0), (0, 0))) == 0
    assert form_signature(((2, 1), (1, 2))) == 2
    assert form_signature(((1, 2), (2, 1))) == 0  # eigenvalues 3, -1


def _random_unimodular(rng_ints, d):
    """Product of elementary shears picked from a list of small ints."""
    m = identity(d)
    k = 0
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            shear = [list(r) for r in identity(d)]
            shear[i][j] = rng_ints[k % len(rng_ints)]
            k += 1
            m = mat_mul(m, tuple(tuple(r) for r in shear))
    return m


@settings(max_examples=40)
@given(int_matrices(3, lo=-3, hi=3),
       st.lists(st.integers(min_value=-2, max_value=2), min_size=3, max_size=8))
def test_signature_congruence_invariant(m, shears):
    sym = tuple(
        tuple(m[i][j] + m[j][i] for j in range(3)) for i in range(3)
    )
    a = _random_unimodular(shears or [1], 3)
    conj = mat_mul(mat_transpose(a), mat_mul(sym, a))
    assert form_signature(conj) == form_signature(sym)
