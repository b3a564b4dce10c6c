"""Exact linear algebra over Q (and generic commutative rings).

Matrices are tuples of row tuples.  Entries are python ints, Fractions,
or any ring element supporting +, -, * (LaurentPoly included); functions
that need division are restricted to int/Fraction entries and say so.
No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

Matrix = tuple[tuple, ...]
Vector = tuple


def identity(d: int, one=1, zero=0) -> Matrix:
    return tuple(tuple(one if i == j else zero for j in range(d)) for i in range(d))


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


def det_ring(a: Matrix):
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


def mat_inverse(a: Matrix) -> Matrix:
    """Inverse over Q (entries become Fractions)."""
    d = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(d)] for i, row in enumerate(a)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(d):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[d:]) for row in m)


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


def kernel_basis(a: Matrix) -> list[Vector]:
    """Echelonized basis of {x : a x = 0} over Q."""
    if not a:
        return []
    nc = len(a[0])
    rows, pivots = rref(a)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(tuple(v))
    out, _ = rref(basis)
    return [tuple(r) for r in out]


def image_basis(a: Matrix) -> list[Vector]:
    """Echelonized basis of the column space of a."""
    cols = list(zip(*a))
    rows, _ = rref(cols)
    return [tuple(r) for r in rows]


def span_contains(basis: Sequence[Vector], v: Vector) -> bool:
    rows, _ = rref(list(basis))
    aug, _ = rref(list(basis) + [v])
    return len(aug) == len(rows)


def subspace_intersection(u: Sequence[Vector], v: Sequence[Vector]) -> list[Vector]:
    """Echelonized basis of span(u) intersect span(v)."""
    u = [tuple(Fraction(x) for x in w) for w in u]
    v = [tuple(Fraction(x) for x in w) for w in v]
    if not u or not v:
        return []
    d = len(u[0])
    # x = sum a_i u_i = sum b_j v_j  <=>  (a|b) in kernel of [U^T | -V^T]
    stacked = tuple(
        tuple(list(col_u) + [-x for x in col_v])
        for col_u, col_v in zip(zip(*u), zip(*v))
    )
    out = []
    for k in kernel_basis(stacked):
        coeffs = k[: len(u)]
        vec = tuple(sum(c * w[i] for c, w in zip(coeffs, u)) for i in range(d))
        if any(x != 0 for x in vec):
            out.append(vec)
    rows, _ = rref(out)
    return [tuple(r) for r in rows]


def solve_particular(a: Matrix, b: Vector) -> Vector:
    """One rational solution of a x = b; raises ValueError if inconsistent."""
    nr, nc = len(a), len(a[0])
    aug = [list(row) + [bv] for row, bv in zip(a, b)]
    rows, pivots = rref(aug)
    x = [Fraction(0)] * nc
    for r, p in enumerate(pivots):
        if p == nc:
            raise ValueError("inconsistent linear system")
        x[p] = rows[r][nc]
    return tuple(x)


def form_signature(gram: Matrix) -> int:
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
