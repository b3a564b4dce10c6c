"""Slow reference for the finite-quotient walks: matrices over F_p as hashable
objects and the mod-p walk as a dict of Fractions.

Every product re-canonicalises and checks its determinant, so this is far
slower than braidwalk.walks.finite_walk_tv; the tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from braidwalk.burau import symplectic_image
from braidwalk.linalg import Matrix, identity
from braidwalk.walks import (
    FiniteWalkResult,
    GenMeasure,
    _is_prime,
    psp_order,
    sp_order,
)
from dp_oracle import _atom_images, _unflatten, step_distribution
from linalg_oracle import det_fraction


@dataclass(frozen=True)
class FpMatrix:
    """Matrix over F_p, optionally up to sign (projective quotient).

    entries are reduced to [0, p); in projective mode the representative is
    the lexicographically smaller of {M, -M}.  Determinant 1 mod p is
    enforced, since every matrix we reduce comes from Sp(2l, Z).
    """

    p: int
    entries: tuple
    projective: bool = False

    def __post_init__(self):
        if not _is_prime(self.p) or self.p == 2:
            raise ValueError("p must be an odd prime")
        reduced = tuple(tuple(x % self.p for x in row) for row in self.entries)
        if self.projective:
            neg = tuple(tuple((-x) % self.p for x in row) for row in reduced)
            reduced = min(reduced, neg)
        object.__setattr__(self, "entries", reduced)
        det = int(det_fraction(reduced)) % self.p
        if det != 1:
            # the projective representative may be -M, which for odd
            # dimension flips the determinant sign
            d = len(reduced)
            if not (self.projective and d % 2 == 1 and det == self.p - 1):
                raise ValueError("determinant is not 1 mod %d" % self.p)

    def matmul(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p or self.projective != other.projective:
            raise ValueError("incompatible reductions")
        a, b = self.entries, other.entries
        d = len(a)
        prod = tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(d)) % self.p for j in range(d))
            for i in range(d)
        )
        return FpMatrix(self.p, prod, self.projective)


def reduce_mod_p(m: Matrix, p: int, projective: bool = False) -> FpMatrix:
    """Reduce an integer matrix mod an odd prime, optionally up to sign."""
    return FpMatrix(p, tuple(tuple(int(x) for x in row) for row in m), projective)


def finite_step_distribution(
    mu: GenMeasure, p: int, projective: bool = False, k: int = 1
) -> dict:
    """Law of the mod-p walk after k steps, as {FpMatrix: Fraction}."""
    out: dict = {}
    for m, prob in step_distribution(mu, k=k).items():
        key = reduce_mod_p(m, p, projective)
        out[key] = out.get(key, Fraction(0)) + prob
    return out


def _semigroup_closure(gens: list, cap: int) -> set:
    """Closure of the generators under multiplication, capped at cap elements.

    In a finite group the semigroup generated by a set equals the subgroup it
    generates, so no inverses are needed.
    """
    seen = set(gens)
    frontier = list(seen)
    while frontier and len(seen) <= cap:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x.matmul(g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def finite_walk_tv(
    mu: GenMeasure, p: int, projective: bool = False, steps: int = 200
) -> FiniteWalkResult:
    """Exact total-variation distance to uniform along the mod-p walk, by a
    dict walk over FpMatrix keys and a Fraction sum per step."""
    n = mu.strands
    l = (n - 1) // 2
    if l < 1:
        raise ValueError("need at least 3 strands for a symplectic image")
    order = psp_order(l, p) if projective else sp_order(l, p)
    uniform = Fraction(1, order)

    gens = [
        reduce_mod_p(symplectic_image(word), p, projective) for word, _ in mu.atoms
    ]
    closure = _semigroup_closure(gens, order)
    generated = len(closure) == order

    images, denom, d = _atom_images(mu)
    fp_images = [
        (reduce_mod_p(_unflatten(img, d), p, projective), wnum) for img, wnum in images
    ]

    ident = reduce_mod_p(identity(d), p, projective)
    dist = {ident: 1}
    tv = []
    for k in range(steps + 1):
        scale = denom ** k
        diff_support = Fraction(0)
        for _, num in dist.items():
            diff_support += abs(Fraction(num, scale) - uniform)
        off_support = (order - len(dist)) * uniform
        tv.append((diff_support + off_support) / 2)
        if k == steps:
            break
        new: dict = {}
        for key, num in dist.items():
            for img, wnum in fp_images:
                nk = key.matmul(img)
                new[nk] = new.get(nk, 0) + num * wnum
        dist = new
    return FiniteWalkResult(
        p=p, projective=projective, group_order=order, generated=generated, tv=tuple(tv)
    )
