"""Exact linear algebra: determinants, solving, subspaces, form signatures."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from braidwalk.linalg import (
    det_ring,
    form_signature,
    identity,
    mat_mul,
    mat_pow,
    mat_transpose,
    mat_vec,
    rref,
)
from braidwalk.laurent import LaurentPoly
from linalg_oracle import det_fraction, det_laplace, form_signature_fraction, mat_inverse
from meyer_oracle import (
    image_basis,
    kernel_basis,
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
    assert mat_pow(m, 0) == identity(2)
    # no inverse over Q in braidwalk: a negative exponent is refused
    with pytest.raises(ValueError, match="n >= 0"):
        mat_pow(m, -2)


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
    assert mat_mul(m, inv) == identity(3)


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


# ---------------------------------------------------------------------------
# integer kernels against the slow oracles in linalg_oracle


@st.composite
def symmetric_int_matrices(draw, max_dim=10, lo=-5, hi=5):
    """Symmetric integer matrices: full, low rank (B^T D B) or with the
    diagonal zeroed."""
    d = draw(st.integers(min_value=0, max_value=max_dim))
    kind = draw(st.sampled_from(["full", "low-rank", "zero-diagonal"]))
    if kind == "low-rank":
        r = draw(st.integers(min_value=0, max_value=max(d - 1, 0)))
        b = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                          min_size=r, max_size=r))
        diag = draw(st.lists(st.sampled_from([-2, -1, 1, 2, 3]), min_size=r, max_size=r))
        return tuple(
            tuple(sum(b[k][i] * diag[k] * b[k][j] for k in range(r)) for j in range(d))
            for i in range(d)
        )
    upper = draw(st.lists(st.integers(lo, hi), min_size=d * d, max_size=d * d))
    m = [[upper[min(i, j) * d + max(i, j)] for j in range(d)] for i in range(d)]
    if kind == "zero-diagonal":
        for i in range(d):
            m[i][i] = 0
    return tuple(tuple(row) for row in m)


@settings(max_examples=400, deadline=None)
@given(symmetric_int_matrices())
def test_form_signature_matches_fraction_oracle(m):
    assert form_signature(m) == form_signature_fraction(m)


@st.composite
def banded_symmetric(draw, max_dim=12):
    """Banded symmetric matrices with mostly zero diagonals (Lagrange's
    fix-up before most pivots), zeroed rows, and a tail of rows that are
    combinations of earlier ones (singular tails): B^T M B with
    B = [I | C], C banded."""
    d = draw(st.integers(min_value=1, max_value=max_dim))
    width = draw(st.integers(min_value=1, max_value=3))
    m = [[0] * d for _ in range(d)]
    for i in range(d):
        if draw(st.integers(0, 3)) == 0:
            m[i][i] = draw(st.integers(-3, 3))
        for j in range(i + 1, min(i + width + 1, d)):
            m[i][j] = m[j][i] = draw(st.integers(-3, 3))
    for i in draw(st.sets(st.integers(0, d - 1), max_size=d // 3)):
        for j in range(d):
            m[i][j] = m[j][i] = 0
    tail = draw(st.integers(min_value=0, max_value=3))
    # column t of C combines the last `width` rows of the head
    b = [[int(i == j) for j in range(d)] + [0] * tail for i in range(d)]
    for t in range(tail):
        for i in range(max(0, d - width), d):
            b[i][d + t] = draw(st.integers(-2, 2))
    bt = mat_transpose(tuple(map(tuple, b)))
    return mat_mul(bt, mat_mul(tuple(map(tuple, m)), tuple(map(tuple, b))))


@settings(max_examples=400, deadline=None)
@given(banded_symmetric())
def test_sparse_kernel_on_banded_zero_diagonal_matrices(m):
    assert form_signature(m) == form_signature_fraction(m)


@settings(max_examples=150, deadline=None)
@given(st.one_of(symmetric_int_matrices(max_dim=8, lo=-2 ** 40, hi=2 ** 40),
                 banded_symmetric(max_dim=8).map(
                     lambda m: tuple(tuple(x * 2 ** 38 for x in row) for row in m)),
                 st.integers(0, 6).flatmap(
                     lambda d: st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=d, max_size=d))
                 .map(lambda v: tuple(tuple(a * b for b in v) for a in v))))
def test_sparse_kernel_on_big_entries(m):
    # full or zero-diagonal, scaled banded and rank one v v^T: exact
    # big-int divisions
    assert form_signature(m) == form_signature_fraction(m)


def test_form_signature_pivot_cases():
    # negative pivots, then a block left with a zero diagonal
    assert form_signature(((-1, 1, 0), (1, 0, 1), (0, 1, 0))) == -1
    assert form_signature(((-2, 1, 1), (1, 0, 3), (1, 3, 0))) == -1
    assert form_signature(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 2), (0, 0, 2, 0))) == 0
    assert form_signature(((0, 1, 1), (1, 0, 1), (1, 1, 0))) == -1  # eigenvalues 2, -1, -1
    # Lagrange's fix-up e_k <- e_k + s e_j of a zero diagonal
    assert form_signature(((0, 1), (1, -2))) == 0  # c + 2b = 0, so s = -1
    assert form_signature(((0, 0, 1), (0, 1, 0), (1, 0, 0))) == 1  # partner past a band gap
    assert form_signature(((0, 1), (1, -1))) == 0  # the fix-up zeroes x[j]
    assert form_signature(((0, 0, 1), (0, 0, 1), (1, 1, 0))) == 0  # column j above its diagonal
    assert form_signature(()) == 0


def test_form_signature_validation():
    with pytest.raises(ValueError, match="square"):
        form_signature(((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError, match="symmetric"):
        form_signature(((1, 2), (3, 1)))
    with pytest.raises(ValueError, match="integer"):
        form_signature(((Fraction(1, 2), 0), (0, 1)))
    with pytest.raises(ValueError, match="integer"):
        form_signature(((Fraction(2), 0), (0, 1)))
    with pytest.raises(ValueError, match="integer"):
        form_signature(((1.0, 0), (0, 1)))


def _singular(m, data):
    """m with its last row replaced by a combination of the others."""
    d = len(m)
    if d < 2 or not data.draw(st.booleans()):
        return m
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=d - 1, max_size=d - 1))
    last = tuple(sum(c * m[i][j] for i, c in enumerate(coeffs)) for j in range(d))
    return m[:-1] + (last,)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.data())
def test_det_ring_bareiss_matches_laplace_int(d, data):
    m = data.draw(int_matrices(d, lo=-4, hi=4)) if d else ()
    m = _singular(m, data)
    assert det_ring(m) == det_laplace(m)


laurent_polys = st.dictionaries(
    st.integers(min_value=-2, max_value=2), st.integers(min_value=-3, max_value=3), max_size=3
).map(LaurentPoly)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_det_ring_bareiss_matches_laplace_laurent(d, data):
    row = st.tuples(*[laurent_polys] * d)
    m = data.draw(st.tuples(*[row] * d))
    m = _singular(m, data)
    det = det_ring(m)
    assert isinstance(det, LaurentPoly)
    assert det == det_laplace(m)


def test_det_ring_anchors():
    assert det_ring(()) == 1
    assert det_ring(((0, 1), (1, 0))) == -1  # one row swap
    assert det_ring(((0, 2, 1), (0, 3, 4), (0, 5, 6))) == 0
    t = LaurentPoly.t_power(1)
    zero = LaurentPoly({})
    det = det_ring(((zero, t), (zero, t)))
    assert isinstance(det, LaurentPoly) and det.is_zero()


@pytest.mark.parametrize("d", [2, 3])
def test_det_ring_refuses_fraction_entries(d):
    m = tuple(tuple(Fraction(i == j) for j in range(d)) for i in range(d))
    with pytest.raises(TypeError, match="Fraction"):
        det_ring(m)


def test_det_ring_refuses_floats_and_non_square_matrices():
    with pytest.raises(TypeError, match="float"):
        det_ring(((1, 0), (0, 1.0)))
    with pytest.raises(ValueError, match="square"):
        det_ring(((1, 0), (0,)))


# entries for the Kronecker substitution: wide coefficients and exponents,
# plain ints among them, and whole rows of zeros
wide_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-10**6, max_value=10**6),
    max_size=4,
).map(LaurentPoly)
wide_entries = st.one_of(wide_polys, st.integers(min_value=-10**6, max_value=10**6))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_det_ring_substitution_matches_laplace(d, data):
    m = [list(data.draw(st.tuples(*[wide_entries] * d))) for _ in range(d)]
    m[0][data.draw(st.integers(0, d - 1))] = data.draw(wide_polys.filter(bool))
    if data.draw(st.booleans()):
        m[data.draw(st.integers(0, d - 1))] = [LaurentPoly()] * d
    m = _singular(tuple(map(tuple, m)), data)
    det = det_ring(m)
    assert isinstance(det, LaurentPoly)
    assert det == det_laplace(m)


@pytest.mark.parametrize("coefficients, exponents", [
    ((3,), (-4,)),
    ((5, 7), (2, -9)),
    ((-3, 11, 13), (0, 5, -1)),
    ((1000003, -999983, 3), (6, -6, 1)),
])
@pytest.mark.parametrize("sign", [1, -1])
def test_det_ring_substitution_at_the_bound(coefficients, exponents, sign):
    # a diagonal of monomials c_i t^e_i: the determinant's one coefficient
    # is prod |c_i| = bound, the most the digits must hold
    coefficients = (sign * coefficients[0],) + coefficients[1:]
    d = len(coefficients)
    m = tuple(tuple(LaurentPoly.t_power(e, c) if i == j else 0 for j in range(d))
              for i, (c, e) in enumerate(zip(coefficients, exponents)))
    assert det_ring(m) == LaurentPoly.t_power(sum(exponents), prod(coefficients))
