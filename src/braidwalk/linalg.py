"""Exact linear algebra on tuple-of-tuples matrices.

Matrices are tuples of row tuples.  mat_mul and its relatives take any ring
entries (python ints, Fractions, LaurentPoly).  The two kernels of the
n-strand invariants are fraction-free eliminations in python ints:
det_ring is Bareiss elimination over Z, and over Z[t, 1/t] by Kronecker
substitution t = 2^w, and row_signature is sparse symmetric Bareiss
elimination on dicts of nonzero entries, with one pivot kind: a zero
diagonal first gets Lagrange's congruence e_k <- e_k +- e_j.
form_signature is its dense entry: it checks a tuple matrix and hands over
the upper triangle; the Seifert oracle builds its rows itself and never
forms a dense matrix.  Every division in both kernels is exact and
checked: a remainder raises ArithmeticError.  rref is the one elimination
over Q, with Fractions; nothing here inverts a matrix, so mat_pow takes
n >= 0 only.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress
from math import prod
from typing import Sequence

from .laurent import LaurentPoly

Matrix = tuple[tuple, ...]
Vector = tuple


def identity(d: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise ValueError("shape mismatch in mat_mul")
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(a[i][s] * bt[j][s] for s in range(k)) for j in range(m))
        for i in range(n)
    )


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_pow(a: Matrix, n: int) -> Matrix:
    if n < 0:
        raise ValueError("mat_pow needs an exponent n >= 0, got %d" % n)
    result = identity(len(a))
    base = a
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        n >>= 1
    return result


def _divide_exact(x: int, y: int) -> int:
    """x / y for an int y known to divide x; a nonzero remainder raises
    ArithmeticError."""
    q, r = divmod(x, y)
    if r:
        raise ArithmeticError("inexact division")
    return q


def det_ring(a: Matrix):
    """Determinant of a square matrix over Z or Z[t, 1/t] by fraction-free
    Bareiss elimination in integers (Bareiss, Math. Comp. 22 (1968)).

    Step k replaces every entry below and right of the pivot by
    (p m[i][j] - m[i][k] m[k][j]) / p_prev, an exact division, so entries
    stay minors of the input; a row swap flips the sign.  Entries are
    python ints or LaurentPolys, else TypeError.

    With a LaurentPoly entry the determinant is a LaurentPoly, found by
    Kronecker substitution.  Row i times t^-lo_i, lo_i its lowest
    exponent, has polynomial entries P_ij, and the determinant D of these
    rows is a sum of products, one entry per row, so its coefficients are
    at most |D|_1 <= perm(|P_ij|_1) <= bound = prod_i sum_j |P_ij|_1, with
    |.|_1 the sum of the absolute coefficients.  Eliminating on the
    integers P_ij(2^w), w = bound.bit_length() + 1, gives D(2^w), whose
    balanced base-2^w digits are the coefficients of D; the determinant is
    t^(sum_i lo_i) D.  A zero row gives bound 0 and the zero polynomial.
    """
    d = len(a)
    if any(len(row) != d for row in a):
        raise ValueError("det_ring needs a square matrix")
    kinds = set(map(type, chain.from_iterable(a)))
    for kind in kinds:
        if not issubclass(kind, (int, LaurentPoly)):
            raise TypeError("det_ring takes int or LaurentPoly entries, not %s" % kind.__name__)
    if not d:
        return 1
    laurent = any(issubclass(kind, LaurentPoly) for kind in kinds)
    if laurent:
        rows = [[x.coeffs if isinstance(x, LaurentPoly) else {0: x} if x else {} for x in row]
                for row in a]
        bound = prod(sum(abs(c) for x in row for c in x.values()) for row in rows)
        if not bound:
            return LaurentPoly()
        w = bound.bit_length() + 1
        los = [min(e for x in row for e in x) for row in rows]
        m = [[sum(c << w * (e - lo) for e, c in x.items()) for x in row]
             for row, lo in zip(rows, los)]
    else:
        m = [list(row) for row in a]
    sign, prev = 1, None
    for k in range(d - 1):
        pivot = next((r for r in range(k, d) if m[r][k]), None)
        if pivot is None:
            det = 0
            break
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        rowk = m[k]
        p = rowk[k]
        for row in m[k + 1 :]:
            f = row[k]
            for j in range(k + 1, d):
                x = p * row[j] - f * rowk[j]
                row[j] = x if prev is None else _divide_exact(x, prev)
        prev = p
    else:
        det = sign * m[d - 1][d - 1]
    if not laurent:
        return det
    coeffs, e = {}, sum(los)
    mask, half = (1 << w) - 1, 1 << (w - 1)
    while det:
        coeffs[e] = c = ((det + half) & mask) - half
        det = (det - c) >> w
        e += 1
    return LaurentPoly(coeffs)


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (rows, pivot_columns) with
    zero rows dropped."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def _rescaled(rows: list, stamps: list[int], i: int, det: int) -> dict:
    """Row i brought to the scale det: its entries were bordered minors
    over the pivot block whose determinant was stamps[i], and a row that no
    pivot touched since then only changed by the factor det / stamps[i]."""
    row, stamp = rows[i], stamps[i]
    if stamp != det:
        row = rows[i] = {j: _divide_exact(v * det, stamp) for j, v in row.items()}
        stamps[i] = det
    return row


def form_signature(gram: Matrix) -> int:
    """Signature (#positive - #negative eigenvalues) of a symmetric integer
    matrix (python ints), exactly: its upper triangle as row dicts, handed
    to row_signature.  Raises ValueError on a non-square, non-symmetric or
    non-integer matrix.
    """
    d = len(gram)
    if any(len(row) != d for row in gram):
        raise ValueError("form_signature needs a square matrix")
    if not all(issubclass(t, int) for t in set(map(type, chain.from_iterable(gram)))):
        raise ValueError("form_signature needs integer entries")
    if list(zip(*gram)) != list(map(tuple, gram)):
        raise ValueError("form_signature needs a symmetric matrix")
    return row_signature([dict(compress(enumerate(row[i:], i), row[i:]))
                          for i, row in enumerate(gram)])


def row_signature(rows: list[dict[int, int]]) -> int:
    """Signature of the symmetric integer matrix M whose upper triangle is
    rows: rows[i] maps each j >= i with M[i][j] != 0 to that int.  The
    rows are consumed; the input is not checked.

    Sparse fraction-free elimination in index order (Bareiss, Math. Comp.
    22 (1968)), with D the determinant of the pivots so far.  A zero
    diagonal at k in a nonzero row first gets Lagrange's congruence
    e_k <- e_k + s e_j, with j its first nonzero column and s = +-1 such
    that p = M[j][j] + 2 s M[k][j] != 0.  Each pivot p adds sgn(p D), sets
    M[i][l] <- (p M[i][l] - M[k][i] M[k][l]) / D on its neighbours i, l
    and D <- p; a zero row is dropped.  Entries stay bordered minors, so
    every division is exact (else ArithmeticError).  A row that no pivot
    touches is rescaled when next read, and banded input (the Seifert
    oracle's) stays banded: about d w^2 work for bandwidth w.
    """
    d = len(rows)
    stamps = [1] * d
    det, sig = 1, 0
    for k in range(d):
        x = _rescaled(rows, stamps, k, det)
        p = x.pop(k, 0)
        if not p:
            if not x:
                continue  # a zero row
            j = min(x)
            # row j past k; column j above its diagonal lies in rows k+1..j-1
            y = {i: _rescaled(rows, stamps, i, det)[j]
                 for i in range(k + 1, j) if j in rows[i]}
            y.update(_rescaled(rows, stamps, j, det))
            b, c = x[j], y.get(j, 0)
            s = 1 if c + 2 * b else -1
            p = c + 2 * s * b
            for l, v in y.items():
                x[l] = x.get(l, 0) + s * v
        sig += 1 if (p > 0) == (det > 0) else -1
        for i, xi in x.items():
            row = _rescaled(rows, stamps, i, det)
            new = {}
            for l in row.keys() | x.keys():
                if l >= i and (v := p * row.get(l, 0) - xi * x.get(l, 0)):
                    if det != 1:
                        v, r = divmod(v, det)
                        if r:
                            raise ArithmeticError("inexact division")
                    new[l] = v
            rows[i] = new
            stamps[i] = p
        det = p
    return sig
