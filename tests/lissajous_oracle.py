"""Slow references for the Lissajous census and braid words of
braidwalk.lissajous.

percentage_table is the census with one loop per mode: the literal mode
classifies each odd p coprime to q itself, and the full-range mode applies
the family test to every p prime to 3.  braidwalk.lissajous counts both
modes with the family test over one candidate rule; the tests compare the
two on every row.  Both loops here classify through the reference
classify below, not through braidwalk.lissajous.

lissajous_braid and classify build Q^-1 with braid.inverse and the full
braid with braid.concat, as BraidWords throughout; braidwalk.lissajous
assembles the same words as letter tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from braidwalk.braid import BraidWord, concat, inverse
from braidwalk.burau import burau_minus1
from braidwalk.lissajous import (
    THREE_COMPONENT,
    TORUS,
    ZERO_SIG,
    LissajousClass,
    lambda_seq,
)


def q_word(q: int, p: int) -> BraidWord:
    """The alternating word Q: sigma_2 at odd k, sigma_1 at even k, to the
    power lambda(k)."""
    lam = lambda_seq(q, p)
    return BraidWord(3, tuple((2 if k % 2 else 1) * lam[k - 1] for k in range(1, q)))


def lissajous_braid(q: int, p: int) -> BraidWord:
    """(Q sigma_2 Q^-1) sigma_1, by concat and inverse."""
    qw = q_word(q, p)
    s1, s2 = BraidWord(3, (1,)), BraidWord(3, (2,))
    return concat(concat(concat(qw, s2), inverse(qw)), s1)


def classify(q: int, p: int) -> LissajousClass:
    """The trichotomy from the BraidWords of P, Q, Q^-1 and the full braid."""
    qw = q_word(q, p)
    pw = BraidWord(3, qw.letters[: (q - 1) // 2])
    pm = burau_minus1(pw)
    image = burau_minus1(lissajous_braid(q, p))
    trace = image[0][0] + image[1][1]
    a, b = pm[0]
    if abs(a) > 1 or abs(b) > 1:
        return LissajousClass(q, p, ZERO_SIG, None, pm, trace)
    if b == 0:
        return LissajousClass(q, p, TORUS, a * pm[1][0], pm, trace)
    if a == 0:
        return LissajousClass(q, p, TORUS, b * pm[1][1], pm, trace)
    return LissajousClass(q, p, THREE_COMPONENT, None, pm, trace)


def family_all_zero(q: int, p: int) -> bool:
    """Zero signature for the whole family: an even base after reducing by
    gcd, or a hyperbolic base."""
    d = gcd(q, p)
    return (p // d) % 2 == 0 or classify(q // d, p // d).kind == ZERO_SIG


def percentage_table(qs, mode: str) -> list:
    """The census rows with a separate loop for each mode."""
    rows = []
    for q in qs:
        num = 0
        if mode == "literal":
            cands = [
                p
                for p in range(q + 1, 2 * q + 1)
                if p % 2 == 1 and p % 3 != 0 and gcd(p, q) == 1
            ]
            den = len(cands)
            for p in cands:
                if classify(q, p).kind == ZERO_SIG:
                    num += 1
        else:
            den = q
            for p in range(q + 1, 2 * q + 1):
                if p % 3 != 0 and family_all_zero(q, p):
                    num += 1
        rows.append(
            {
                "q": q,
                "numerator": num,
                "denominator": den,
                "fraction": Fraction(num, den) if den else Fraction(0),
                "percent": (100 * num) // den if den else 0,
            }
        )
    return rows
