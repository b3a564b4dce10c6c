"""Braid words on n strands as signed generator sequences.

A word is a tuple of nonzero ints: letter +i stands for the i-th Artin
generator (strand i crosses over strand i+1), letter -i for its inverse.
Words are kept freely reduced; adjacent cancelling letters never survive
construction.  Letters act left-to-right: the first letter is the topmost
crossing, and every homomorphic image multiplies in word order,
rho(ab) = rho(a) rho(b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index


def _free_reduce(letters, strands: int) -> tuple[int, ...]:
    """The freely reduced word, every letter taken through operator.index
    and checked to lie in 1..strands-1 in absolute value, in one pass."""
    stack: list[int] = []
    top = 0  # stack[-1], or 0 on an empty stack, which no letter cancels
    for g in map(index, letters):
        if not 0 < abs(g) < strands:
            raise ValueError(f"letter {g} out of range for B({strands})")
        if g == -top:
            stack.pop()
            top = stack[-1] if stack else 0
        else:
            stack.append(g)
            top = g
    return tuple(stack)


def _count(name: str, value) -> int:
    """value taken through operator.index, so a numpy integer becomes an
    int; a bool, float or string is refused with ValueError by name."""
    if not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise ValueError("%s must be an int, got %r" % (name, value))


@dataclass(frozen=True)
class BraidWord:
    """Freely reduced braid word in B(strands).

    The strand count and the letters are taken through operator.index, so
    numpy integers become ints and a float, Fraction or string is refused
    with ValueError.
    """

    strands: int
    letters: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        try:
            strands = index(self.strands)
            if strands < 2:
                raise ValueError(f"need at least 2 strands, got {strands}")
            letters = _free_reduce(self.letters, strands)
        except TypeError as exc:
            raise ValueError(f"strand count and letters must be integers: {exc}") from None
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return concat(self, other)

    def __pow__(self, n: int) -> "BraidWord":
        if n < 0:
            return inverse(self) ** (-n)
        # free reduction is confluent: reducing the n-fold letters once
        # gives the word that n successive concatenations would
        return BraidWord(self.strands, self.letters * n)


def parse_word(text: str, strands: int) -> BraidWord:
    """Parse a whitespace-separated word like "1 -2 2" into a BraidWord.

    Raises ValueError on non-integer tokens, zero letters, or letters
    outside 1..strands-1 in absolute value.
    """
    tokens = text.split()
    letters = []
    for tok in tokens:
        try:
            g = int(tok)
        except ValueError as exc:
            raise ValueError(f"bad braid letter {tok!r}") from exc
        letters.append(g)
    return BraidWord(strands, tuple(letters))


def format_word(w: BraidWord) -> str:
    return " ".join(str(g) for g in w.letters)


def concat(a: BraidWord, b: BraidWord) -> BraidWord:
    if a.strands != b.strands:
        raise ValueError("cannot concatenate words on different strand counts")
    return BraidWord(a.strands, a.letters + b.letters)


def inverse(w: BraidWord) -> BraidWord:
    return BraidWord(w.strands, tuple(-g for g in reversed(w.letters)))


def permutation(w: BraidWord) -> tuple[int, ...]:
    """Underlying permutation as an image tuple: strand starting at
    position i (0-based) ends at position permutation(w)[i].

    Composition is left-to-right, so permutation(a*b)[i] applies a first;
    this matches the representation convention rho(ab) = rho(a) rho(b).
    """
    at = list(range(w.strands))  # at[p]: the strand now at position p
    for g in w.letters:
        i = abs(g) - 1
        at[i], at[i + 1] = at[i + 1], at[i]
    img = [0] * w.strands
    for p, s in enumerate(at):
        img[s] = p
    return tuple(img)


def closure_components(w: BraidWord) -> int:
    """Number of link components of the braid closure = cycles of the
    underlying permutation."""
    img = permutation(w)
    seen = [False] * w.strands
    count = 0
    for s in range(w.strands):
        if seen[s]:
            continue
        count += 1
        j = s
        while not seen[j]:
            seen[j] = True
            j = img[j]
    return count


def writhe(w: BraidWord) -> int:
    return sum(1 if g > 0 else -1 for g in w.letters)
