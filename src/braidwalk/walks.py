"""Random walks on braid groups pushed through the Burau map at t = -1.

A step measure is a finitely supported probability measure mu on B(n).  The
k-fold convolution mu^(k) is the law of a product of k independent
mu-distributed letters; pushing it forward through burau_minus1 gives a walk
on an integer matrix group, and for odd n that group sits inside Sp(n-1, Z).

Everything on the exact side is integer arithmetic: the law after k steps is
a sorted int64 array of distinct states with integer numerators over a
common power-of-denominator, so convolving and summing event probabilities
is exact.  One walk kernel (_laws) steps a start block: the identity gives
the law of the matrix, a unit row vector the law of one row.
hitting_series is the one exact entry point.  A predicate that reads one
entry m_ij takes the meet-in-the-middle path: m_ij(X_{a+b}) is the dot
product of a row of X_a with a column of an independent copy of X_b, so two
vector laws of about half the length replace the matrix law.  Every other
predicate takes the matrix DP, which is also the entry path's oracle.  A
vectorised Monte Carlo path, one sampled run recording every prefix, is a
statistical cross-check for the same hitting probabilities.  All of them
refuse a step count k before any work when (largest row-sum norm of an
atom image)^k >= 2^62, the bound beyond which an entry could leave int64.

Walk predicates and entry polynomials work on stacked matrices: a
predicate (PREDICATES) maps an (N, d, d) int64 array to N booleans (an
entry predicate also carries its entry and its test on entries) and an
entry polynomial (ENTRY_POLYNOMIALS) maps the element array to N integers,
so each runs once per array.  One lookup resolves the names of both tables,
and one check refuses a predicate result that is not N booleans.

Reductions mod p land in Sp(2l, F_p) (or its projective quotient).  One
enumeration lists the whole group, sorted by key: a column search on the
form J that uses no generator, so its count checks the closed-form order.
Each support image of a walk acts on that list as a permutation, found by
searchsorted on the keys of the products; a reachability pass over the
permutations finds the subgroup the images generate, walks push exact
integer count vectors over that subgroup alone, and zero densities of entry
polynomials count over the same list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, gcd
from numbers import Rational

# numpy is imported inside each function that calls it, so that importing
# braidwalk, and so every command that never walks, loads no numpy.
from .braid import BraidWord
from .burau import burau_minus1, intersection_form, symplectic_image


# ---------------------------------------------------------------------------
# step measures


@dataclass(frozen=True)
class GenMeasure:
    """Finitely supported step measure on a braid group.

    atoms: tuple of (word, weight) pairs; weights are positive rationals
    (ints or Fractions) summing to 1 and all words share the same strand
    count.  A float, a string or any other non-Rational weight raises
    ValueError.
    """

    atoms: tuple[tuple[BraidWord, Fraction], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("measure needs at least one atom")
        strands = {w.strands for w, _ in self.atoms}
        if len(strands) > 1:
            raise ValueError("atoms live in different braid groups: %s" % strands)
        total = Fraction(0)
        for word, weight in self.atoms:
            if not isinstance(weight, Rational):
                raise ValueError("weight of %s is %r, not a rational" % (word, weight))
            if weight <= 0:
                raise ValueError("weight of %s is not positive" % (word,))
            total += weight
        if total != 1:
            raise ValueError("weights sum to %s, expected 1" % total)

    @property
    def strands(self) -> int:
        return self.atoms[0][0].strands

    @classmethod
    def uniform_generators(cls, strands: int) -> "GenMeasure":
        """Uniform measure on the 2(strands-1) generators and inverses."""
        if strands < 2:
            raise ValueError("need at least 2 strands, got %d" % strands)
        letters = []
        for i in range(1, strands):
            letters.append(i)
            letters.append(-i)
        weight = Fraction(1, len(letters))
        atoms = tuple(
            (BraidWord(strands, (g,)), weight) for g in letters
        )
        return cls(atoms)


def _atom_images(mu: GenMeasure, rep) -> tuple[np.ndarray, list, int]:
    """Atom images as an (atoms, d, d) int64 array, and the atom weights as
    integer numerators over their common denominator."""
    import numpy as np
    denom = 1
    for _, weight in mu.atoms:
        denom = denom * weight.denominator // gcd(denom, weight.denominator)
    mats = np.array([rep(word) for word, _ in mu.atoms], dtype=np.int64)
    wnums = [weight.numerator * (denom // weight.denominator) for _, weight in mu.atoms]
    return mats, wnums, denom


def _walk_atoms(mu: GenMeasure, rep, k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """_atom_images for a walk of k steps, after the checks that the exact DP
    and Monte Carlo share: k >= 0, and k refused when a product of k atom
    images could leave int64.  The weight numerators come as an array typed
    for the walk's counts: int64 while denom^k < 2^63, exact Python ints
    (object dtype) beyond.

    (largest row-sum norm of an atom image)^k bounds every entry and every
    partial sum of such a product, so the check runs before any work.
    """
    import numpy as np
    if k < 0:
        raise ValueError("step count must be >= 0")
    mats, wnums, denom = _atom_images(mu, rep)
    norm = int(np.abs(mats).sum(axis=2).max())
    if norm ** k >= 2 ** 62:
        raise ValueError(
            "entries may reach %d^%d >= 2^62, beyond int64 arithmetic" % (norm, k)
        )
    dtype = np.int64 if denom ** max(k, 1) < 2 ** 63 else object
    return mats, np.array(wnums, dtype=dtype), denom


def _merge(states: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort the (N, d, d) states and add up the counts of equal ones.

    Entries are shifted by max|entry| to digits in base 2 max|entry| + 1,
    and each row is packed into as few int64 words as hold it; lexsort on
    the words (a plain argsort for one word) orders the rows
    lexicographically.
    """
    import numpy as np
    flat = states.reshape(len(states), -1)
    bound = int(np.abs(flat).max())
    base = 2 * bound + 1
    width = 1
    while width < flat.shape[1] and base ** (width + 1) < 2 ** 63:
        width += 1
    words = []
    for lo in range(0, flat.shape[1], width):
        word = 0
        for digits in (flat[:, lo:lo + width] + bound).T:
            word = word * base + digits
        words.append(word)
    order = np.argsort(words[0]) if len(words) == 1 else np.lexsort(words[::-1])
    starts = np.zeros(len(order), dtype=bool)
    starts[0] = True
    for word in words:
        word = word[order]
        starts[1:] |= word[1:] != word[:-1]
    starts = np.flatnonzero(starts)
    return states[order[starts]], np.add.reduceat(counts[order], starts)


def _laws(mats: np.ndarray, weights: np.ndarray, denom: int, kmax: int, start: np.ndarray):
    """The walk kernel: exact laws of start @ (product of k atom images) for
    k = 0..kmax, from an (m, d) int64 start block.

    Yields (states, counts, scale) per step: the distinct (N, m, d) int64
    blocks in lexicographic order and their counts, which sum to
    scale = denom^k.  One step is a batched matmul of every state with every
    atom image, then a sort and a segment sum.  Counts take the dtype of
    weights, which _walk_atoms sizes for the whole walk.
    """
    import numpy as np
    m, d = start.shape
    states = start[None]
    counts = np.ones(1, dtype=weights.dtype)
    yield states, counts, 1
    for k in range(1, kmax + 1):
        states = (states[:, None] @ mats[None]).reshape(-1, m, d)
        counts = (counts[:, None] * weights).reshape(-1)
        states, counts = _merge(states, counts)
        yield states, counts, denom ** k


def _walk_laws(mu: GenMeasure, rep, kmax: int):
    """Exact laws of the matrix walk at steps k = 0..kmax: _laws from the
    identity with the weights of _walk_atoms, which refuses kmax before any
    work when entries could leave int64.
    """
    import numpy as np
    mats, weights, denom = _walk_atoms(mu, rep, kmax)
    return _laws(mats, weights, denom, kmax, np.eye(mats.shape[1], dtype=np.int64))


# ---------------------------------------------------------------------------
# hitting probabilities


def _entry_predicate(entry: tuple[int, int], test):
    """The predicate test(m_ij) on stacked states, for entry = (i, j).

    It carries entry and test as attributes, so hitting_series can read the
    one entry by meet in the middle; as a function it runs wherever any
    other predicate does.  test maps an int64 array of entries to booleans
    of the same shape.
    """
    i, j = entry

    def predicate(states: np.ndarray) -> np.ndarray:
        return test(states[:, i, j])

    predicate.entry, predicate.test = entry, test
    return predicate


# |top-left entry| > 2: the walk left the recurrent-looking band
predicate_z11 = _entry_predicate((0, 0), lambda values: abs(values) > 2)


def predicate_all_entries_big(states: np.ndarray) -> np.ndarray:
    """Every entry exceeds 2 in absolute value."""
    import numpy as np
    return (np.abs(states) > 2).all(axis=(1, 2))


PREDICATES = {"z11": predicate_z11, "all-entries": predicate_all_entries_big}


def _named(table: dict, name, kind: str):
    """table[name]; a name not in table is refused with ValueError."""
    if not isinstance(name, str) or name not in table:
        raise ValueError("unknown %s %r" % (kind, name))
    return table[name]


def _hits(predicate, states: np.ndarray) -> np.ndarray:
    """predicate(states), refused unless it is N booleans for the N states: a
    predicate written for one nested-tuple matrix answers about its rows."""
    return _booleans(predicate(states), states.shape[:1],
                     "a predicate must map an (N, d, d) array to N booleans")


def _booleans(result, shape: tuple, contract: str):
    """result as a bool array of the given shape; any other result is
    refused with ValueError, the message opening with the contract."""
    import numpy as np
    hit = np.asarray(result)
    if hit.dtype != bool or hit.shape != shape:
        raise ValueError(
            "%s; it gave %s of shape %s, not bool of shape %s"
            % (contract, hit.dtype, hit.shape, shape)
        )
    return hit


_PAIR_BLOCK = 1 << 22
"""Most (row, column) pairs the entry path tests at once; a block holds
their int64 entries and boolean hits."""


def _entry_series(mu: GenMeasure, rep, kmax: int, entry, test) -> list[Fraction]:
    """P(test(m_ij(X_k))) for k = 0..kmax by meet in the middle.

    m_ij(X_{a+b}) = row_i(X_a) . col_j(Y_b), where Y_b is the product of the
    next b steps: independent of X_a and distributed as X_b.  The row laws
    start from e_i; the column laws are the row walk of the transposed atom
    images from e_j.  Step k pairs the row law at a = k // 2 with the column
    law at b = k - a and sums count(r) count(c) over the pairs that hit.
    The prologue's bound on (row-sum norm)^kmax covers every dot product
    and its partial sums, and the counts are sized for denom^kmax, the
    largest weighted pair sum.
    """
    import numpy as np
    mats, weights, denom = _walk_atoms(mu, rep, kmax)
    eye = np.eye(mats.shape[1], dtype=np.int64)
    i, j = entry
    half = kmax // 2
    rows = list(_laws(mats, weights, denom, half, eye[[i]]))
    cols = list(_laws(mats.transpose(0, 2, 1), weights, denom, kmax - half, eye[[j]]))
    series = []
    for k in range(kmax + 1):
        (r, r_counts, r_scale), (c, c_counts, c_scale) = rows[k // 2], cols[k - k // 2]
        r, c = r[:, 0], c[:, 0].T
        step = max(1, _PAIR_BLOCK // c.shape[1])
        hits = 0
        for lo in range(0, len(r), step):
            values = r[lo:lo + step] @ c
            hit = _booleans(
                test(values), values.shape,
                "an entry test must map an array of entries to booleans of its shape",
            )
            hits += r_counts[lo:lo + step] @ (hit @ c_counts)
        series.append(Fraction(int(hits), r_scale * c_scale))
    return series


def hitting_series(
    mu: GenMeasure, predicate, kmax: int, rep=burau_minus1
) -> list[Fraction]:
    """Exact values of P(predicate holds at step k) for k = 0..kmax.

    predicate is a name from PREDICATES or a function on stacked states.  A
    predicate that reads one entry (one built by _entry_predicate, such as
    predicate_z11) takes the meet-in-the-middle path, _entry_series; any
    other runs once per step on the distinct matrices of the matrix DP.
    """
    if isinstance(predicate, str):
        predicate = _named(PREDICATES, predicate, "predicate")
    if hasattr(predicate, "entry"):
        return _entry_series(mu, rep, kmax, predicate.entry, predicate.test)
    return [
        Fraction(int(counts[_hits(predicate, states)].sum()), scale)
        for states, counts, scale in _walk_laws(mu, rep, kmax)
    ]


_MC_BATCH = 100_000
"""Walks sampled per batch by monte_carlo_hitting; the batches draw from one
generator, so the seeded output does not depend on this size."""


def monte_carlo_hitting(
    mu: GenMeasure,
    predicate,
    k: int,
    trials: int = 100_000,
    seed: int = 0,
    rep=burau_minus1,
) -> dict:
    """Monte Carlo estimate of the step-k hitting probability.

    Samples products of k atom images with numpy int64 matmuls and checks
    the predicate after every step, so one run gives every prefix.  Entries
    of Burau images grow geometrically, so k is refused before sampling when
    (largest row-sum norm of an atom image)^k >= 2^62, the a priori bound on
    every entry and partial sum of a k-fold product, as in hitting_series.
    predicate is a name from PREDICATES or a function on stacked states.

    Returns a dict with estimate, stderr, a 95% normal-approximation
    confidence interval, raw hit/trial counts, the seed, and hits_by_step:
    the hit counts after 0..k steps of the same sampled walks.
    """
    import numpy as np
    if trials <= 0:
        raise ValueError("trials must be positive")
    if seed < 0:
        raise ValueError("seed must be >= 0, got %d" % seed)
    if isinstance(predicate, str):
        predicate = _named(PREDICATES, predicate, "predicate")
    mats, weights, denom = _walk_atoms(mu, rep, k)
    d = mats.shape[1]
    cum = np.cumsum(weights.astype(np.float64) / denom)
    cum[-1] = 1.0
    rng = np.random.default_rng(seed)
    hits_by_step = [0] * (k + 1)
    done = 0
    while done < trials:
        n = min(_MC_BATCH, trials - done)
        picks = np.searchsorted(cum, rng.random((n, k)), side="right")
        cur = np.broadcast_to(np.eye(d, dtype=np.int64), (n, d, d)).copy()
        hits_by_step[0] += int(_hits(predicate, cur).sum())
        for step in range(k):
            cur = cur @ mats[picks[:, step]]
            hits_by_step[step + 1] += int(_hits(predicate, cur).sum())
        done += n

    hits = hits_by_step[k]
    est = hits / trials
    stderr = (est * (1 - est) / trials) ** 0.5
    return {
        "estimate": est,
        "stderr": stderr,
        "ci95": (est - 1.96 * stderr, est + 1.96 * stderr),
        "hits": hits,
        "trials": trials,
        "seed": seed,
        "hits_by_step": hits_by_step,
    }


# ---------------------------------------------------------------------------
# symplectic groups over prime fields


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def sp_order(l: int, p: int) -> int:
    """|Sp(2l, F_p)| = prod_{m=1..l} (p^(2m) - 1) p^(2m-1)."""
    if l < 1:
        raise ValueError("l must be >= 1")
    if not _is_prime(p):
        raise ValueError("%d is not prime" % p)
    order = 1
    for m in range(1, l + 1):
        order *= (p ** (2 * m) - 1) * p ** (2 * m - 1)
    return order


def psp_order(l: int, p: int) -> int:
    """|PSp(2l, F_p)|: halve for odd p, where -I is the only central element."""
    order = sp_order(l, p)
    return order if p == 2 else order // 2


MAX_GROUP_ORDER = 100_000
"""Largest group order, |Sp(2l, F_p)| or |PSp(2l, F_p)|, that finite_walk_tv,
zero_density and enumerate_sp enumerate; a larger one is refused before any
allocation."""


def _check_budget(order: int) -> None:
    if order > MAX_GROUP_ORDER:
        raise ValueError(
            "group order %d exceeds MAX_GROUP_ORDER = %d" % (order, MAX_GROUP_ORDER)
        )


def _symplectic_group(l: int, p: int) -> np.ndarray:
    """All of Sp(2l, F_p) w.r.t. J = intersection_form(2l), as an
    (order, 2l, 2l) int64 array, by a search over columns.

    Column c_k is any vector of F_p^(2l) with c_i^T J c_k = J[i][k] mod p
    for every earlier column c_i; for l = 1 that is det = 1.  A vector is
    named by its code, its entries as base-p digits, and pair[u, v] =
    u^T J v mod p is tabulated once over all codes, so each level extends
    every column prefix at once by a running AND over rows of pair.
    np.nonzero keeps the prefixes in lexicographic order of their codes, so
    the elements come out sorted by their column-major entries read as
    base-p digits.  No generator enters.  The caller checks the budget.
    """
    import numpy as np
    d = 2 * l
    form = intersection_form(d)
    j = np.array(form, dtype=np.int16)
    place = p ** np.arange(d - 1, -1, -1, dtype=np.int64)
    vectors = np.arange(p ** d, dtype=np.int64)[:, None] // place % p
    # |u^T J v| <= (sum of |J|) (p - 1)^2 = 2 (2l - 1) (p - 1)^2, at most
    # 5408 (l = 1, p = 53) on the groups within 2 * MAX_GROUP_ORDER, the
    # projective budget, so int16 holds the products and uint8 their residues
    assert int(np.abs(j).sum()) * (p - 1) ** 2 < 2 ** 15
    pair = vectors.astype(np.int16) @ j @ vectors.T.astype(np.int16)
    pair %= p
    pair = pair.astype(np.uint8)
    # column c_0 has no condition, so every code starts a prefix
    prefixes = np.arange(p ** d, dtype=np.int64)[:, None]
    for k in range(1, d):
        fits = pair[prefixes[:, 0]] == form[0][k] % p
        for i in range(1, k):
            fits &= pair[prefixes[:, i]] == form[i][k] % p
        rows, column = np.nonzero(fits)
        prefixes = np.column_stack([prefixes[rows], column])
    return vectors[prefixes].transpose(0, 2, 1)


def enumerate_sp(l: int, p: int) -> np.ndarray:
    """All of Sp(2l, F_p) w.r.t. J = intersection_form(2l), as the
    (order, 2l, 2l) int64 array of _symplectic_group: a column search that
    uses no generator, so its count checks sp_order.  An order above
    MAX_GROUP_ORDER, a composite p or l < 1 is refused at the call, before
    any allocation.
    """
    _check_budget(sp_order(l, p))
    return _symplectic_group(l, p)


def count_group_bruteforce(l: int, p: int) -> int:
    """|Sp(2l, F_p)| by head count of enumerate_sp."""
    return len(enumerate_sp(l, p))


# ---------------------------------------------------------------------------
# finite quotients


def _stacked_det(elements: np.ndarray) -> np.ndarray:
    """Determinants of an (N, d, d) int64 array by the Leibniz formula.  Each
    partial sum is at most d! max|entry|^d < 2^63; on the enumerated groups,
    entries in [0, p), that is at most 2 * 52^2 = 5408 (l = 1, p = 53)."""
    d = elements.shape[1]
    assert factorial(d) * int(abs(elements).max()) ** d < 2 ** 63
    return sum(
        (-1) ** sum(a > b for a, b in combinations(perm, 2))
        * elements[:, range(d), perm].prod(axis=1)
        for perm in permutations(range(d))
    )


# entry polynomials on the (N, d, d) element array, one value per element
ENTRY_POLYNOMIALS = {
    "m11": lambda elements: elements[:, 0, 0],
    "m12": lambda elements: elements[:, 0, 1],
    "m21": lambda elements: elements[:, 1, 0],
    "m22": lambda elements: elements[:, 1, 1],
    "det-1": lambda elements: _stacked_det(elements) - 1,
}


def zero_density(poly: str, l: int, p: int) -> Fraction:
    """Fraction of Sp(2l, p) where the named entry polynomial vanishes mod p.

    Exhaustive over enumerate_sp(l, p), so refused when |Sp(2l, p)| exceeds
    MAX_GROUP_ORDER.  poly is a name from ENTRY_POLYNOMIALS.
    """
    poly = _named(ENTRY_POLYNOMIALS, poly, "entry polynomial")
    elements = enumerate_sp(l, p)
    return Fraction(int((poly(elements) % p == 0).sum()), len(elements))


@dataclass(frozen=True)
class FiniteWalkResult:
    p: int
    projective: bool
    group_order: int
    generated: bool
    tv: tuple


def finite_walk_tv(
    mu: GenMeasure, p: int, projective: bool = False, steps: int = 200
) -> FiniteWalkResult:
    """Exact total-variation distance to uniform along the mod-p walk.

    The walk lives in G = Sp(2l, F_p) (or PSp for projective=True) where
    2l = strands - 1 rounded down to even.  The TV sequence starts at step 0
    (distance 1 - 1/|G| from the point mass at the identity).  G is the
    array of _symplectic_group, sorted by key (column-major entries as
    base-p digits); in projective mode it keeps the element of each pair
    {M, -M} with the smaller key, the key of the class.  Each support image
    g becomes a permutation of G, found by searchsorted on the keys of
    elements @ g mod p.  The step-k law is a vector of integer counts over
    denom^k on the subgroup H that the images generate, which a
    reachability pass over the permutations finds; each element off H adds
    its uniform mass 1/|G| to the TV.  If H is not all of G the TV floor is
    positive and `generated` is False.  Groups above MAX_GROUP_ORDER and
    negative step counts are refused before any work.
    """
    import numpy as np
    if steps < 0:
        raise ValueError("step count must be >= 0")
    n = mu.strands
    l = (n - 1) // 2
    if l < 1:
        raise ValueError("need at least 3 strands for a symplectic image")
    order = psp_order(l, p) if projective else sp_order(l, p)
    if p == 2:
        raise ValueError("p must be an odd prime")
    _check_budget(order)

    mats, wnums, denom = _atom_images(mu, symplectic_image)
    d = 2 * l
    g = mats % p
    j = np.array(intersection_form(d), dtype=np.int64)
    if ((g.transpose(0, 2, 1) @ j @ g - j) % p).any():
        raise ValueError("generator images are not symplectic mod %d" % p)
    # keys fit int64; MAX_GROUP_ORDER already keeps p and d far below this
    assert p ** (d * d) < 2 ** 63
    weights = p ** np.arange(d * d - 1, -1, -1, dtype=np.int64)

    def keys(m):
        return m.transpose(0, 2, 1).reshape(len(m), -1) @ weights

    def index(m):
        """Positions in G of the matrices m (of their classes {M, -M})."""
        key = keys(m % p)
        return np.searchsorted(codes, np.minimum(key, keys(-m % p)) if projective else key)

    elements = _symplectic_group(l, p)
    if projective:
        elements = elements[keys(elements) < keys(-elements % p)]
    codes = keys(elements)
    tables = np.array([index(elements @ h) for h in g])
    start = int(index(np.eye(d, dtype=np.int64)[None])[0])
    # right multiplication from the identity reaches H, one level per pass: in
    # a finite group the products of generators already form the subgroup
    reached = np.zeros(order, dtype=bool)
    reached[start] = True
    while not reached[tables[:, reached]].all():
        reached[tables[:, reached]] = True
    # each table read on H and renumbered into H is a permutation of H, and
    # new[table[i]] += w * old[i] is a gather through its inverse
    members = np.flatnonzero(reached)
    inverses = np.argsort(np.searchsorted(members, tables[:, members]), axis=1)
    counts = np.zeros(len(members), dtype=object)  # exact Python ints: denom^k overflows int64
    counts[np.searchsorted(members, start)] = 1
    tv = []
    for k in range(steps + 1):
        scale = denom ** k
        off_h = (order - len(members)) * scale
        tv.append(Fraction(int(np.abs(counts * order - scale).sum()) + off_h, 2 * scale * order))
        if k == steps:
            break
        counts = sum(wnum * counts[inv] for wnum, inv in zip(wnums, inverses))
    return FiniteWalkResult(
        p=p, projective=projective, group_order=order, generated=bool(reached.all()),
        tv=tuple(tv),
    )
