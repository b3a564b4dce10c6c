"""Generator images of the reduced Burau representation, one matrix per
letter.

braidwalk.burau applies each letter of a word as column operations
(burau_matrix over Z[t, 1/t], burau_minus1 at t = -1); the tests compare
those with the mat_mul products of the matrices built here, and check the
braid relations on them.
"""

from __future__ import annotations

from braidwalk.laurent import ONE, LaurentPoly, T
from braidwalk.linalg import Matrix

_T_INV = LaurentPoly.t_power(-1)


def burau_generator(n: int, i: int, inverse: bool = False) -> Matrix:
    """Image of sigma_i (or its inverse) in B(n), entries LaurentPoly."""
    m = n - 1
    if not 1 <= i <= m:
        raise ValueError(f"generator index {i} out of range for {n} strands")
    rows = [[ONE if a == b else LaurentPoly.const(0) for b in range(m)] for a in range(m)]
    r = m - i
    if inverse:
        if r - 1 >= 0:
            rows[r][r - 1] = -_T_INV
        rows[r][r] = -_T_INV
        if r + 1 < m:
            rows[r][r + 1] = -ONE
    else:
        if r - 1 >= 0:
            rows[r][r - 1] = -ONE
        rows[r][r] = -T
        if r + 1 < m:
            rows[r][r + 1] = -T
    return tuple(tuple(row) for row in rows)


def burau_generator_minus1(n: int, i: int, inverse: bool = False) -> Matrix:
    """Integer image of sigma_i at t = -1."""
    m = n - 1
    if not 1 <= i <= m:
        raise ValueError(f"generator index {i} out of range for {n} strands")
    rows = [[1 if a == b else 0 for b in range(m)] for a in range(m)]
    r = m - i
    if inverse:
        if r - 1 >= 0:
            rows[r][r - 1] = 1
        rows[r][r] = 1
        if r + 1 < m:
            rows[r][r + 1] = -1
    else:
        if r - 1 >= 0:
            rows[r][r - 1] = -1
        rows[r][r] = 1
        if r + 1 < m:
            rows[r][r + 1] = 1
    return tuple(tuple(row) for row in rows)
