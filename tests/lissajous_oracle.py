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

braid_from_parametrization is the sweep as braidwalk.lissajous had it before
it moved to integers: Fraction angles found by a search loop, the starting
strand order from math.sin at the midpoint before the first event, and the
over/under signs from Fraction heights.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, pi, sin

from braidwalk.braid import BraidWord, closure_components, concat, inverse
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


def crossing_events(q: int, p: int):
    """(phi/pi as a Fraction in [0, 2), i, j, m) for each crossing of strands
    i < j, at phi/pi = ((2m + 1) 3 - 2q(i + j))/(2q), found by stepping m."""
    for i in range(3):
        for j in range(i + 1, 3):
            # 0 <= (2m+1)*3 - 2q(i+j) < 4q
            lo = 2 * q * (i + j)
            m = (lo // 3 - 1) // 2 - 1
            while True:
                m += 1
                top = (2 * m + 1) * 3 - lo
                if top < 0:
                    continue
                if top >= 4 * q:
                    break
                yield Fraction(top, 2 * q), i, j, m


def sin_sign(u: Fraction) -> int:
    """Sign of sin(pi u) for rational u; 0 on integers."""
    u = u % 2
    if u == 0 or u == 1:
        return 0
    return 1 if u < 1 else -1


def braid_from_parametrization(q: int, p: int) -> BraidWord:
    """The swept 3-braid of the (q, p) curve with height shift
    alpha/pi = 1/(4qp + 1), from Fraction angles and a float start."""
    if q < 1 or p < 1:
        raise ValueError("q and p must be positive")
    if q % 3 == 0 or p % 3 == 0:
        raise ValueError("q and p must be prime to 3")
    if gcd(q, p) != 1:
        raise ValueError("q and p must be coprime")
    alpha = Fraction(1, 4 * q * p + 1)

    events = sorted(crossing_events(q, p))
    angles = [e[0] for e in events]
    if len(set(angles)) != len(angles):
        raise RuntimeError("simultaneous crossings at gcd(q, 3) = 1?")

    # initial left-to-right order, by radial coordinate just before the
    # first event (floats; events are well separated there)
    first = float(angles[0])
    prev = float(angles[-1]) - 2.0
    phi0 = (first + prev) / 2 * pi
    radial = [(sin(q * (phi0 + 2 * pi * jj) / 3), jj) for jj in range(3)]
    radial.sort()
    if radial[1][0] - radial[0][0] < 1e-9 or radial[2][0] - radial[1][0] < 1e-9:
        raise RuntimeError("initial strand order is numerically ambiguous")
    order = [jj for _, jj in radial]

    letters = []
    for _, i, j, m in events:
        pos_i, pos_j = order.index(i), order.index(j)
        if abs(pos_i - pos_j) != 1:
            raise RuntimeError(
                "strands %d and %d not adjacent at a crossing of (%d, %d)"
                % (i, j, q, p)
            )
        k = min(pos_i, pos_j)
        left, right = order[k], order[k + 1]
        u = Fraction(p * (2 * m + 1), 2 * q) + alpha
        v = Fraction(p * (left - right), 3)
        z_left_minus_right = -sin_sign(u) * sin_sign(v)
        if z_left_minus_right == 0:
            raise RuntimeError("crossing at equal heights in (%d, %d)" % (q, p))
        letters.append((k + 1) * z_left_minus_right)
        order[k], order[k + 1] = order[k + 1], order[k]
    word = BraidWord(3, tuple(letters))
    if closure_components(word) != 1:
        raise RuntimeError("swept braid does not close to a knot")
    return word
