"""Reduced Burau representation of the braid groups.

For B(n) the representation has degree m = n - 1.  The generator sigma_i
acts as the identity except on row r = m - i (0-based):

    row r:  (r, r-1) = -1,   (r, r) = -t,   (r, r+1) = -t

with out-of-range entries omitted.  Words act left to right, so
rho(ab) = rho(a) rho(b) and the matrix of a word is the product of the
generator matrices in word order.

At t = -1 every generator image is an integer transvection preserving the
antisymmetric tridiagonal form J (J[i][i+1] = 1, J[i+1][i] = -1).  For an
even number of strands J is degenerate with one radical line, fixed
pointwise by the image; quotienting by it gives a genuinely symplectic
representation one dimension down.

One column kernel, _columns, applies the letters over Z[t, 1/t] and at
t = -1; the 3-strand image at t = -1 is four ints (_minus1_3).
"""

from __future__ import annotations

from operator import mul

from .braid import BraidWord
from .laurent import ONE, LaurentPoly
from .linalg import Matrix, det_ring, identity, mat_mul, mat_sub, mat_transpose


def _columns(word: BraidWord, one, times, factors) -> Matrix:
    """Burau matrix of word in the ring of one, as column operations on the
    identity: with (u, v, w) = factors[g > 0], a letter g (r = m - |g|) sets
    col[r-1] -= u col[r], col[r+1] -= v col[r] and col[r] = -w col[r], where
    times(y, u) is u y; zero entries of col[r] are skipped."""
    m = word.strands - 1
    zero = one - one
    cols = [[one if i == j else zero for i in range(m)] for j in range(m)]
    for g in word.letters:
        r = m - abs(g)
        u, v, w = factors[g > 0]
        col = cols[r]
        if r > 0:
            cols[r - 1] = [x - times(y, u) if y else x for x, y in zip(cols[r - 1], col)]
        if r + 1 < m:
            cols[r + 1] = [x - times(y, v) if y else x for x, y in zip(cols[r + 1], col)]
        cols[r] = [-times(y, w) if y else y for y in col]
    return tuple(zip(*cols))


def burau_matrix(word: BraidWord) -> Matrix:
    """Burau matrix of a braid word over Z[t, 1/t] (product in word order):
    the column operations of _columns with (u, v, w) = (1, t, t) for sigma_i
    and (t^-1, 1, t^-1) for sigma_i^-1, as exponents of t."""
    return _columns(word, ONE, LaurentPoly.shift, ((-1, 0, -1), (0, 1, 1)))


def _minus1_3(letters) -> Matrix:
    """Integer Burau matrix at t = -1 of 3-strand letters (+-1, +-2).

    The image ((a, b), (c, d)) is four ints: sigma_1^s sets a -= s b,
    c -= s d and sigma_2^s sets b += s a, d += s c.  The letters need not
    be freely reduced, since the image is a homomorphism.
    """
    a, b, c, d = 1, 0, 0, 1
    for g in letters:
        if g == 1:
            a -= b
            c -= d
        elif g == -1:
            a += b
            c += d
        elif g == 2:
            b += a
            d += c
        else:
            b -= a
            d -= c
    return ((a, b), (c, d))


def burau_minus1(word: BraidWord) -> Matrix:
    """Integer Burau matrix at t = -1 (product in word order).

    At t = -1, sigma_i^s (s = +-1, r = m - i) is the transvection
    I + s e_r (e_{r+1} - e_{r-1})^T, so multiplying by it on the right
    changes two columns only: col[r-1] -= s col[r] and col[r+1] += s col[r].
    These are the operations of burau_matrix with the signs of its powers
    of t; on 3 strands _minus1_3 applies them to four ints.
    """
    if word.strands == 3:
        return _minus1_3(word.letters)
    return _columns(word, 1, mul, ((-1, 1, -1), (1, -1, -1)))


def intersection_form(m: int) -> Matrix:
    """Antisymmetric tridiagonal form J on Z^m preserved at t = -1."""
    rows = [[0] * m for _ in range(m)]
    for i in range(m - 1):
        rows[i][i + 1] = 1
        rows[i + 1][i] = -1
    return tuple(tuple(row) for row in rows)


def is_form_preserving(matrix: Matrix, form: Matrix | None = None) -> bool:
    """Whether matrix^T J matrix == J."""
    if form is None:
        form = intersection_form(len(matrix))
    lhs = mat_mul(mat_mul(mat_transpose(matrix), form), matrix)
    return lhs == tuple(tuple(row) for row in form)


def radical_vector(m: int) -> tuple[int, ...]:
    """Spanning vector (1, 0, 1, ..., 0, 1) of the radical of J, odd m only."""
    if m % 2 == 0:
        raise ValueError("J is nondegenerate when m is even")
    return tuple(1 if i % 2 == 0 else 0 for i in range(m))


def symplectic_quotient(matrix: Matrix) -> Matrix:
    """Quotient of a J-preserving integer matrix by the radical line.

    Defined for odd m (even strand count).  Coordinates are reduced modulo
    the radical vector k by v -> v - v[m-1] * k, keeping coordinates
    0..m-2; the result preserves the nondegenerate top-left block of J.
    """
    m = len(matrix)
    k = radical_vector(m)
    cols = []
    for j in range(m - 1):
        col = [matrix[i][j] for i in range(m)]
        last = col[m - 1]
        red = [c - last * ki for c, ki in zip(col, k)]
        cols.append(red[: m - 1])
    return tuple(tuple(cols[j][i] for j in range(m - 1)) for i in range(m - 1))


def symplectic_image(word: BraidWord) -> Matrix:
    """Image of the word in Sp(2l, Z).

    For an odd strand count this is burau_minus1 itself (J nondegenerate,
    m = 2l); for an even count the radical line is quotiented away first.
    """
    m = burau_minus1(word)
    if word.strands % 2 == 0:
        return symplectic_quotient(m)
    return m


def alexander_poly(word: BraidWord) -> LaurentPoly:
    """Alexander polynomial of the closure of the word.

    Computed as det(B_t(word) - I) / (1 + t + ... + t^(n-1)), then
    normalised: exponents centred so p(t) matches p(1/t) up to the
    component-count sign, and overall sign fixed by p(1) > 0 (falling back
    to a positive leading coefficient when p(1) = 0).
    """
    b = burau_matrix(word)
    delta = det_ring(mat_sub(b, identity(len(b))))
    if delta.is_zero():
        return LaurentPoly.const(0)
    quot = delta.divide_exact(LaurentPoly({e: 1 for e in range(word.strands)}))
    lo, hi = quot.min_exp(), quot.max_exp()
    centred = quot.shift(-((lo + hi) // 2))
    at_one = centred.evaluate(1)
    if at_one != 0:
        return -centred if at_one < 0 else centred
    lead = centred.coeffs[centred.max_exp()]
    return -centred if lead < 0 else centred


def alexander_at_minus1(word: BraidWord) -> int:
    """det(B_{-1}(word) - I), the Alexander value at t = -1 up to sign.

    Only defined for an odd strand count; for even n the reduced Burau
    matrix at t = -1 has the radical as eigenspace, so det(B - I) = 0 and
    the determinant carries no information.
    """
    n = word.strands
    if n % 2 == 0:
        raise ValueError("determinant at t = -1 degenerates for even strand count")
    m = burau_minus1(word)
    return det_ring(mat_sub(m, identity(len(m))))
