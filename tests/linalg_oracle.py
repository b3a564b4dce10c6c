"""Slow references for the linear-algebra kernels of braidwalk.linalg.

form_signature_fraction is symmetric elimination over Q, det_fraction is
Gaussian elimination over Q and det_laplace is Laplace expansion with
column-subset memoisation (exponential in the dimension).  They are the
routes braidwalk.linalg used before its integer kernels; the tests compare
the two.  mat_inverse, the inverse over Q from rref, is test-only: no
braidwalk route inverts a matrix over Q.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from braidwalk.linalg import Matrix, rref


def det_laplace(a: Matrix):
    """Determinant over any commutative ring by Laplace expansion with
    column-subset memoisation (no division; fine up to ~8x8)."""
    d = len(a)
    if d == 0:
        return 1
    # minors[(cols)] = det of rows 0..len(cols)-1 restricted to cols
    minors = {(): 1}
    for r in range(d):
        new: dict[tuple[int, ...], object] = {}
        for cols in combinations(range(d), r + 1):
            total = None
            for k, c in enumerate(cols):
                sub = minors[cols[:k] + cols[k + 1 :]]
                term = a[r][c] * sub
                if (r + k) % 2 == 1:
                    term = -term
                total = term if total is None else total + term
            new[cols] = total
        minors = new
    return minors[tuple(range(d))]


def det_fraction(a: Matrix) -> Fraction:
    """Determinant over Q by Gaussian elimination."""
    d = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(d):
        pivot = next((r for r in range(col, d) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, d):
            if m[r][col] != 0:
                f = m[r][col] * inv
                for c in range(col, d):
                    m[r][c] -= f * m[col][c]
    return det


def form_signature_fraction(gram: Matrix) -> int:
    """Signature (#positive - #negative eigenvalues) of a symmetric
    rational matrix, exactly, by symmetric elimination.

    Diagonal pivots contribute their sign; when the remaining diagonal is
    zero but an off-diagonal entry is not, that hyperbolic pair contributes
    0 and both rows are split off.
    """
    d = len(gram)
    m = [[Fraction(x) for x in row] for row in gram]
    active = list(range(d))
    sig = 0
    while active:
        k = next((i for i in active if m[i][i] != 0), None)
        if k is not None:
            piv = m[k][k]
            sig += 1 if piv > 0 else -1
            active.remove(k)
            for i in active:
                if m[i][k] != 0:
                    f = m[i][k] / piv
                    for j in active:
                        m[i][j] -= f * m[k][j]
            for i in active:
                m[i][k] = Fraction(0)
                m[k][i] = Fraction(0)
            continue
        pair = None
        for i in active:
            for j in active:
                if j > i and m[i][j] != 0:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            break  # remaining block is zero
        i, j = pair
        c = m[i][j]
        active.remove(i)
        active.remove(j)
        # split off the hyperbolic plane spanned by e_i, e_j: signature 0
        for k1 in active:
            for k2 in active:
                m[k1][k2] -= (m[k1][i] * m[j][k2] + m[k1][j] * m[i][k2]) / c
        for k1 in active:
            m[k1][i] = m[k1][j] = m[i][k1] = m[j][k1] = Fraction(0)
    return sig


def mat_inverse(a: Matrix) -> Matrix:
    """Inverse over Q (entries become Fractions): the right half of
    rref([a | I]); raises ValueError on a singular matrix."""
    d = len(a)
    aug = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(a)]
    rows, pivots = rref(aug)
    if pivots != list(range(d)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[d:]) for row in rows)
