"""Slow reference for the exact walk DP: the law of the walk as a dict from
flattened integer matrices to integer numerators over denom^k, convolved one
atom at a time in pure Python.

braidwalk.walks runs the same convolution on sorted int64 state arrays; the
tests compare the two.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from braidwalk.burau import symplectic_image
from braidwalk.linalg import Matrix, identity, mat_mul
from braidwalk.walks import GenMeasure

# the named predicates of braidwalk.walks.PREDICATES, written for one
# nested-tuple matrix
PREDICATES = {
    "z11": lambda m: abs(m[0][0]) > 2,
    "all-entries": lambda m: all(abs(x) > 2 for row in m for x in row),
}


def _flatten(m: Matrix) -> tuple:
    return tuple(x for row in m for x in row)


def _unflatten(flat: tuple, d: int) -> Matrix:
    return tuple(flat[i * d:(i + 1) * d] for i in range(d))


def _mul_flat_2(a: tuple, b: tuple) -> tuple:
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 + a1 * b2,
        a0 * b1 + a1 * b3,
        a2 * b0 + a3 * b2,
        a2 * b1 + a3 * b3,
    )


def _atom_images(mu: GenMeasure) -> tuple[list, int, int]:
    """Flattened atom images under symplectic_image, with integer weights
    over a common denominator."""
    denom = 1
    for _, weight in mu.atoms:
        denom = denom * weight.denominator // gcd(denom, weight.denominator)
    images = []
    for word, weight in mu.atoms:
        m = symplectic_image(word)
        images.append((_flatten(m), weight.numerator * (denom // weight.denominator)))
    d = len(symplectic_image(mu.atoms[0][0]))
    return images, denom, d


def _convolve_states(states: dict, images: list, d: int) -> dict:
    new: dict = {}
    if d == 2:
        for key, num in states.items():
            for img, wnum in images:
                nk = _mul_flat_2(key, img)
                if nk in new:
                    new[nk] += num * wnum
                else:
                    new[nk] = num * wnum
    else:
        for key, num in states.items():
            a = _unflatten(key, d)
            for img, wnum in images:
                nk = _flatten(mat_mul(a, _unflatten(img, d)))
                if nk in new:
                    new[nk] += num * wnum
                else:
                    new[nk] = num * wnum
    return new


def step_distribution(mu: GenMeasure, k: int = 1) -> dict:
    """Exact pushforward of the k-fold convolution of mu through
    symplectic_image, as {nested-tuple matrix: Fraction}."""
    if k < 0:
        raise ValueError("step count must be >= 0")
    images, denom, d = _atom_images(mu)
    states = {_flatten(identity(d)): 1}
    for _ in range(k):
        states = _convolve_states(states, images, d)
    scale = denom ** k
    return {_unflatten(key, d): Fraction(num, scale) for key, num in states.items()}


def hitting_series(mu: GenMeasure, predicate, kmax: int) -> list[Fraction]:
    """Exact values of P(predicate holds at step k) for k = 0..kmax, with the
    predicate (a name from PREDICATES or a function on one nested-tuple
    matrix) evaluated once per distinct matrix."""
    if kmax < 0:
        raise ValueError("step count must be >= 0")
    if isinstance(predicate, str):
        predicate = PREDICATES[predicate]
    images, denom, d = _atom_images(mu)
    states = {_flatten(identity(d)): 1}
    seen: dict = {}

    def mass(st: dict, scale: int) -> Fraction:
        hit = 0
        for key, num in st.items():
            flag = seen.get(key)
            if flag is None:
                flag = bool(predicate(_unflatten(key, d)))
                seen[key] = flag
            if flag:
                hit += num
        return Fraction(hit, scale)

    out = [mass(states, 1)]
    for k in range(1, kmax + 1):
        states = _convolve_states(states, images, d)
        out.append(mass(states, denom ** k))
    return out
