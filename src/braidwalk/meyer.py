"""Meyer cocycle on SL(2,Z) and two independent signature computations.

For 3-braids the signature of the closure obeys

    sign(closure(a.b)) = sign(closure(a)) + sign(closure(b)) - Meyer(A, B)

with A, B the Burau images at t = -1.  On SL(2,Z) the Meyer cocycle is a
coboundary, Meyer(A, B) = phi(A) + phi(B) - phi(AB) (Gambaudo-Ghys, Bull.
SMF 133 (2005); Kirby-Melvin, Math. Ann. 299 (1994)).  For
A = [[a, b], [c, d]]:

    c != 0:  phi(A) = -Phi(A)/3 + sgn(c (a + d - 2))
    c == 0:  phi(A) = -b d/3 + (sgn b if d == 1 else 0)

where Phi is Rademacher's function, (a + d)/c - 12 sgn(c) s(d, |c|) with
s the Dedekind sum, and b d when c = 0.  rademacher_phi computes it in
integers by Euclid on the first column.  Every generator image has
phi = +-2/3 and one-letter closures are trivial links, so the recursion
telescopes to sign(closure(w)) = phi(B(w)) - 2 e(w)/3, with e the exponent
sum.  3 phi is an integer; sums are kept in thirds and divided once.

The generic route, the signature of the Meyer form on
Im(g1^{-1} - I) cap Im(g2 - I), is the reference the closed form is
tested against; it lives in tests/meyer_oracle.py.

seifert_signature_oracle is the independent check: it takes the signature
of V + V^T for an explicit Seifert matrix V of the closure of any braid
word (disks = strands, bands = crossings, loops between consecutive
crossings on the same strand pair).  The loops are numbered by start
position, which makes V banded (5 to 7 wide on seeded 100-letter
3-braids, against 51 to 57 when the loops are grouped by strand pair).
One scan of the loops lists the nonzero entries of V; the oracle folds
them into the upper-triangular rows of V + V^T and hands those to
linalg.row_signature, which eliminates them sparsely in that order, so no
d x d matrix is ever formed.  The dense matrix of the same entries and the
pair-grouped construction it is checked against live in
tests/meyer_oracle.py.

Signs follow the convention that positive links have negative signature
(trefoil -> -2); the oracle agrees with the recursion on every word we
test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, writhe
from .burau import burau_minus1
from .linalg import Matrix, identity, mat_mul, row_signature


def _check_sl2(m: Matrix, name: str) -> None:
    if len(m) != 2 or any(len(r) != 2 for r in m):
        raise ValueError(f"{name} must be a 2x2 matrix")
    if any(not isinstance(x, int) for r in m for x in r):
        raise ValueError(f"{name} must have integer entries")
    if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 1:
        raise ValueError(f"{name} must have determinant 1")


def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


def rademacher_phi(m: Matrix) -> int:
    """Rademacher's Phi of an SL(2,Z) matrix, in integers.

    With q = a // c and r = a - q c, A = T^q S A'' where A'' has first
    column (c, -r); Rademacher's rule Phi(AB) = Phi(A) + Phi(B)
    - 3 sgn(c_A c_B c_AB) gives Phi(A) = Phi(A'') + q - 3 sgn(-r c).  The
    floor division gives r the sign of c, so that last term is +3 whenever
    r != 0.  Once c = 0, a = d = +-1, A'' = +-T^(b d) and Phi = b d.
    """
    (a, b), (c, d) = m
    total = 0
    while c:
        q, r = divmod(a, c)
        total += q + 3 * (r != 0)
        a, b, c, d = c, d, -r, q * d - b
    return total + b * d


def _phi3(m: Matrix) -> int:
    """3 phi(m), an integer."""
    (a, b), (c, d) = m
    if c:
        step = _sgn(c * (a + d - 2))
    else:
        step = _sgn(b) if d == 1 else 0
    return 3 * step - rademacher_phi(m)


def _thirds(x: int) -> int:
    q, r = divmod(x, 3)
    if r:
        raise RuntimeError(f"{x}/3 is not an integer; phi is miscomputed")
    return q


def meyer_cocycle(g1: Matrix, g2: Matrix) -> int:
    """Meyer cocycle value in {-2,...,2}: phi(g1) + phi(g2) - phi(g1 g2)."""
    _check_sl2(g1, "g1")
    _check_sl2(g2, "g2")
    return _thirds(_phi3(g1) + _phi3(g2) - _phi3(mat_mul(g1, g2)))


def _signature(image: Matrix, exponent_sum: int) -> int:
    """sign(closure) of a 3-braid with this image: phi(B) - 2 e/3."""
    return _thirds(_phi3(image) - 2 * exponent_sum)


def _check_three_strands(word: BraidWord) -> None:
    if word.strands != 3:
        raise ValueError("the Meyer recursion is implemented for 3-braids only")


@dataclass(frozen=True)
class SignatureResult:
    """Signature of a braid closure."""

    value: int


def gg_signature(word: BraidWord) -> SignatureResult:
    """Signature of the closure of a 3-braid: phi(B(w)) - 2 e(w)/3."""
    _check_three_strands(word)
    return SignatureResult(_signature(burau_minus1(word), writhe(word)))


def power_signatures(word: BraidWord, nmax: int) -> list[int]:
    """[sign(closure(word^n)) for n = 1..nmax]: phi(B^n) - 2 n e/3.

    Agrees with gg_signature on the expanded power word.
    """
    _check_three_strands(word)
    if nmax < 1:
        raise ValueError(f"nmax must be >= 1, got {nmax}")
    m = burau_minus1(word)
    e = writhe(word)
    out = []
    power = identity(2)
    for n in range(1, nmax + 1):
        power = mat_mul(power, m)
        out.append(_signature(power, n * e))
    return out


# Seifert matrix oracle ------------------------------------------------------
#
# Loops of the closure surface are indexed by consecutive crossings on the
# same strand pair and numbered by their start position.  Two loops interact
# only when they share a crossing (same pair) or interleave on adjacent
# pairs, and either way the later one starts before the earlier one ends, so
# V is banded in this order.  The interleaving entry signs below are a
# basis-orientation convention, fixed by the torus-knot anchors and checked
# against the Meyer recursion on every 3-braid word up to length 8.

_CROSS_AHEAD = 1   # loop on pair i starts first:  a1 < b1 < a2 < b2
_CROSS_BEHIND = -1  # loop on pair i+1 starts first: b1 < a1 < b2 < a2


def _seifert_entries(word: BraidWord) -> tuple[int, list[tuple[int, int, int]]]:
    """The number d of loops and the nonzero entries (x, y, V[x][y]) of the
    integer Seifert matrix V of the closure, loop x the x-th loop by start
    position.

    Loop x runs from crossing a1 to the next crossing a2 on its strand pair.
    The scan for its partners stops at the first loop that starts after a2,
    so the bandwidth is the number of loops that start inside one loop.
    For x != y at most one of V[x][y] and V[y][x] is listed.
    """
    letters = word.letters
    last: dict[int, int] = {}
    loops = []  # (start position, end position, pair), sorted by start
    for pos, g in enumerate(letters):
        pair = abs(g)
        if pair in last:
            loops.append((last[pair], pos, pair))
        last[pair] = pos
    loops.sort()
    d = len(loops)
    entries = []
    for x, (a1, a2, pair_x) in enumerate(loops):
        positive = letters[a2] > 0
        if (letters[a1] > 0) == positive:  # -(sgn a1 + sgn a2) / 2
            entries.append((x, x, -1 if positive else 1))
        for y in range(x + 1, d):
            b1, b2, pair_y = loops[y]
            if b1 > a2:
                break
            if b1 == a2:  # consecutive loops share the middle crossing
                entries.append((x, y, 1) if positive else (y, x, -1))
            elif b2 > a2 and abs(pair_y - pair_x) == 1:  # a1 < b1 < a2 < b2
                entries.append((x, y, _CROSS_AHEAD) if pair_x < pair_y
                               else (y, x, _CROSS_BEHIND))
    return d, entries


def seifert_signature_oracle(word: BraidWord) -> int:
    """Link signature of the closure: the signature of V + V^T, built as
    upper-triangular rows straight from the Seifert entries.  The diagonal
    is 2 V[x][x]; off it, V[x][y] + V[y][x] is the one entry listed."""
    d, entries = _seifert_entries(word)
    rows: list[dict[int, int]] = [{} for _ in range(d)]
    for x, y, value in entries:
        if x < y:
            rows[x][y] = value
        elif x > y:
            rows[y][x] = value
        else:
            rows[x][x] = 2 * value
    return row_signature(rows)


def check_big_entries(word: BraidWord) -> bool:
    """True iff every entry of the t = -1 Burau matrix exceeds 2 in modulus.

    Braids with this property generate families (sigma_a w sigma_b w^-1)^n
    whose closures all have zero signature.
    """
    if word.strands != 3:
        raise ValueError("entry test applies to 3-braids")
    m = burau_minus1(word)
    return all(abs(m[i][j]) > 2 for i in range(2) for j in range(2))


def is_hyperbolic(m: Matrix) -> bool:
    return abs(m[0][0] + m[1][1]) > 2
