"""Slow reference for the closed-form Meyer cocycle of braidwalk.meyer.

meyer_space and meyer_gram are the generic route: the Meyer form on
E = Im(g1^{-1} - I) cap Im(g2 - I), with its Gram matrix found by solving
linear systems over Q.  The Gram matrix is rational, so the tests sign it
with form_signature_fraction from linalg_oracle.  kernel_basis,
image_basis, span_contains, subspace_intersection and solve_particular are
the Fraction subspace functions the route needs, built on
braidwalk.linalg.rref.  They are the route braidwalk.meyer used before its
closed form; the tests compare the two.

seifert_matrix_by_pair is the Seifert matrix with its loops grouped by
strand pair, the construction braidwalk.meyer used before it numbered the
loops by start position; pair_sorted_loops gives its loop order, so the
tests can check that the two matrices agree up to that permutation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from braidwalk.braid import BraidWord
from braidwalk.linalg import Matrix, Vector, identity, mat_sub, rref
from braidwalk.meyer import _CROSS_AHEAD, _CROSS_BEHIND, _check_sl2


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


def omega(x: Vector, y: Vector):
    """Symplectic form on Q^2 used throughout the Meyer computation."""
    return x[1] * y[0] - x[0] * y[1]


def _inv2(m: Matrix) -> Matrix:
    a, b = m[0]
    c, d = m[1]
    return ((d, -b), (-c, a))


def meyer_space(g1: Matrix, g2: Matrix) -> list[Vector]:
    """Basis of E = Im(g1^{-1} - I) cap Im(g2 - I)."""
    _check_sl2(g1, "g1")
    _check_sl2(g2, "g2")
    i2 = identity(2)
    im1 = [col for col in zip(*mat_sub(_inv2(g1), i2)) if any(col)]
    im2 = [col for col in zip(*mat_sub(g2, i2)) if any(col)]
    return subspace_intersection(im1, im2)


def meyer_gram(g1: Matrix, g2: Matrix) -> tuple[list[Vector], Matrix]:
    """Basis of E and the Gram matrix of the Meyer form on it.

    For each basis vector e, particular solutions of
    (g1^{-1} - I) v1 = e  and  (g2 - I) v2 = -e
    are found exactly; the quadratic form is q(e) = Omega(e, v1 + v2) and
    the Gram matrix is its polarization.
    """
    basis = meyer_space(g1, g2)
    if not basis:
        return [], ()
    i2 = identity(2)
    a1 = mat_sub(_inv2(g1), i2)
    a2 = mat_sub(g2, i2)
    vs = []
    for e in basis:
        v1 = solve_particular(a1, e)
        v2 = solve_particular(a2, tuple(-x for x in e))
        vs.append(tuple(x + y for x, y in zip(v1, v2)))
    d = len(basis)
    gram = tuple(
        tuple(
            Fraction(omega(basis[a], vs[b]) + omega(basis[b], vs[a]), 2)
            for b in range(d)
        )
        for a in range(d)
    )
    return basis, gram


def pair_sorted_loops(word: BraidWord) -> list[tuple[int, int, int]]:
    """(pair, start position, end position) of every Seifert loop, grouped
    by strand pair and then by start."""
    positions: dict[int, list[int]] = {}
    for pos, g in enumerate(word.letters):
        positions.setdefault(abs(g), []).append(pos)
    loops = []
    for pair in sorted(positions):
        occ = positions[pair]
        for a, b in zip(occ, occ[1:]):
            loops.append((pair, a, b))
    return loops


def seifert_matrix_by_pair(word: BraidWord) -> Matrix:
    """Integer Seifert matrix V for the closure of the word, loops in the
    order of pair_sorted_loops, every pair of loops compared."""
    signs = [1 if g > 0 else -1 for g in word.letters]
    loops = pair_sorted_loops(word)
    d = len(loops)
    v = [[0] * d for _ in range(d)]
    for x, (pair_x, a1, a2) in enumerate(loops):
        v[x][x] = -(signs[a1] + signs[a2]) // 2
        for y in range(x + 1, d):
            pair_y, b1, b2 = loops[y]
            if pair_y == pair_x:
                if b1 == a2:  # consecutive loops share the middle crossing
                    if signs[a2] > 0:
                        v[x][y] = 1
                    else:
                        v[y][x] = -1
            elif abs(pair_y - pair_x) == 1:
                lo, hi = (x, y) if pair_x < pair_y else (y, x)
                _, s1, s2 = loops[lo]
                _, t1, t2 = loops[hi]
                if s1 < t1 < s2 < t2:
                    v[lo][hi] = _CROSS_AHEAD
                elif t1 < s1 < t2 < s2:
                    v[lo][hi] = _CROSS_BEHIND
    return tuple(tuple(row) for row in v)
