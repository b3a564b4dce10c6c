"""Exact linear algebra on tuple-of-tuples matrices.

Matrices are tuples of row tuples.  mat_mul and its relatives take any ring
entries (python ints, Fractions, LaurentPoly).  The two kernels of the
n-strand invariants stay in integers: det_ring is fraction-free Bareiss
elimination over Z or Z[t, 1/t], and form_signature is integer symmetric
elimination with gcd reduction.  rref is the one elimination over Q, with
Fractions; mat_inverse (and so mat_pow with a negative exponent) is built
on it.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

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
        return mat_pow(mat_inverse(a), -n)
    result = identity(len(a))
    base = a
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        n >>= 1
    return result


def _divide_exact(x, y):
    """x / y for a y known to divide x: ints by divmod, LaurentPolys by
    divide_exact; a nonzero remainder raises ArithmeticError."""
    if isinstance(x, int):
        q, r = divmod(x, y)
        if r:
            raise ArithmeticError("inexact division in det_ring")
        return q
    return x.divide_exact(y)


def det_ring(a: Matrix):
    """Determinant of a square matrix over Z or Z[t, 1/t] by fraction-free
    Bareiss elimination (Bareiss, Math. Comp. 22 (1968)).

    Step k replaces every entry below and right of the pivot by
    (p m[i][j] - m[i][k] m[k][j]) / p_prev, an exact division, so entries
    stay minors of the input; a row swap flips the sign.  Entries are
    python ints or LaurentPolys.  A zero pivot column gives the zero of the
    entry type.
    """
    d = len(a)
    if d == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = None
    for k in range(d - 1):
        pivot = next((r for r in range(k, d) if m[r][k]), None)
        if pivot is None:
            return m[k][k] * 0
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
    det = m[d - 1][d - 1]
    return det if sign > 0 else -det


def mat_inverse(a: Matrix) -> Matrix:
    """Inverse over Q (entries become Fractions): the right half of
    rref([a | I]); raises ValueError on a singular matrix."""
    d = len(a)
    aug = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(a)]
    rows, pivots = rref(aug)
    if pivots != list(range(d)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[d:]) for row in rows)


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


def form_signature(gram: Matrix) -> int:
    """Signature (#positive - #negative eigenvalues) of a symmetric integer
    matrix (python ints), exactly, by integer symmetric elimination.

    A nonzero diagonal pivot p adds sgn(p) and turns the rest of the block
    into p S[i][j] - S[i][k] S[k][j], which is p times the Schur complement;
    since sig(p X) = sgn(p) sig(X), the block is then divided by g sgn(p),
    g the gcd of its entries, which keeps the entries small.  When the whole
    diagonal is zero but S[i][j] != 0, the congruence e_i <- e_i + e_j makes
    the pivot S[i][i] = 2 S[i][j].  Raises ValueError on a non-square,
    non-symmetric or non-integer matrix.
    """
    d = len(gram)
    if any(len(row) != d for row in gram):
        raise ValueError("form_signature needs a square matrix")
    m = [list(row) for row in gram]
    if not all(isinstance(x, int) for row in m for x in row):
        raise ValueError("form_signature needs integer entries")
    if list(map(list, zip(*m))) != m:
        raise ValueError("form_signature needs a symmetric matrix")
    sig = 0
    while m:
        k = next((i for i, row in enumerate(m) if row[i]), None)
        if k is None:
            pair = next(((i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x), None)
            if pair is None:
                break  # remaining block is zero
            k, j = pair
            m[k] = [x + y for x, y in zip(m[k], m[j])]
            for row in m:
                row[k] += row[j]
        rowk = m.pop(k)
        p = rowk.pop(k)
        sig += 1 if p > 0 else -1
        for row in m:
            f = row.pop(k)
            if f:
                row[:] = [p * x - f * y for x, y in zip(row, rowk)]
            elif p != 1:
                row[:] = [p * x for x in row]
        g = gcd(*[gcd(*row) for row in m])
        if not g:
            break  # remaining block is zero
        if p < 0:
            g = -g
        if g != 1:
            m = [[x // g for x in row] for row in m]
    return sig
