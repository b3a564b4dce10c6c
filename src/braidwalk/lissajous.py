"""Lissajous toric knots: braid words, classification, signature censuses.

The curve theta -> ((2 + sin(q theta)) cos(3 theta),
                    (2 + sin(q theta)) sin(3 theta),
                    cos(p theta + alpha))
closes up for gcd(3, q) = 1 into a knot or link transverse to the pages of
the standard open book, hence a 3-braid.  Two independent routes to that
braid are implemented:

* a combinatorial one driven by the sign sequence lambda(k), giving a
  quasipositive word (Q sigma_2 Q^-1) sigma_1 built from an alternating
  word Q, and
* a geometric one that sweeps the parametrised curve through its
  crossings in integers (braid_from_parametrization): crossing angles on
  the scale 2q, the starting strand order on the scale 12, and each
  over/under sign from one divmod.  Floats appear only in sample_polyline,
  the curve's points for plotting.

Classification goes through the Burau image at t = -1 of the half word P:
its top row decides whether every power of the braid has zero signature
(hyperbolic case), whether the closure family is a torus-knot family, or
whether the underlying construction degenerates to a 3-component link.
The words are assembled as letter tuples (Q^-1 is Q reversed and
negated), and classify takes the images of P, Q and the full braid
straight from those tuples with the 3-strand kernel of burau_minus1; it
builds no BraidWord.

The census (percentage_tables) applies one family test in both modes and
fills both from one pass, classifying each reduced pair once; the modes
differ only in which p in (q, 2q] they keep and in the denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import cos, gcd, isfinite, pi, sin

from .braid import BraidWord, closure_components
from .burau import _minus1_3
from .linalg import mat_mul, mat_transpose
from .meyer import power_signatures


# classification kinds
ZERO_SIG = "zero-signature-hyperbolic"
TORUS = "torus-conjugate"
THREE_COMPONENT = "three-component"

# q values for the survey tables: odd, prime to 3, from 5 to 101
DEFAULT_TABLE_QS = tuple(
    q for q in range(5, 102, 2) if q % 3 != 0
)


@dataclass(frozen=True)
class LissajousParams:
    """Frequency pair (q, p) with q odd and both prime to 3 and to each other."""

    q: int
    p: int

    def __post_init__(self):
        if self.q < 1 or self.q % 2 == 0:
            raise ValueError("q must be a positive odd integer")
        if gcd(self.q, 3) != 1 or gcd(self.p, 3) != 1:
            raise ValueError("q and p must be prime to 3")
        if gcd(self.q, self.p) != 1:
            raise ValueError("q and p must be coprime")


def bezout_a(q: int) -> int:
    """The inverse of 6 mod q, in [0, q)."""
    if gcd(q, 6) != 1:
        raise ValueError("6 is not invertible mod %d" % q)
    return pow(6, -1, q)


def lambda_seq(q: int, p: int) -> tuple:
    """Sign sequence lambda(k) = (-1)^floor(2 A p k / q) for k = 1..q-1.

    A is the inverse of 6 mod q.  The sequence is antisymmetric about q/2
    and unchanged under p -> p + 2q.
    """
    LissajousParams(q, p)
    a = bezout_a(q)
    return tuple(-1 if (2 * a * p * k) // q % 2 else 1 for k in range(1, q))


def _q_word(q: int, p: int) -> tuple[int, ...]:
    """Letters of the alternating word Q: letter k is sigma_2 for odd k,
    sigma_1 for even k, raised to lambda(k)."""
    lam = lambda_seq(q, p)
    return tuple((2 if k % 2 else 1) * lam[k - 1] for k in range(1, q))


def _braid_of(qw: tuple[int, ...]) -> tuple[int, ...]:
    """Letters of the quasipositive 3-braid (Q sigma_2 Q^-1) sigma_1 of the
    letters of Q."""
    return qw + (2,) + tuple(-g for g in reversed(qw)) + (1,)


def lissajous_braid(q: int, p: int) -> BraidWord:
    """The quasipositive 3-braid (Q sigma_2 Q^-1) sigma_1 of the (q, p) knot."""
    return BraidWord(3, _braid_of(_q_word(q, p)))


@dataclass(frozen=True)
class LissajousClass:
    """Outcome of the trichotomy for a frequency pair.

    kind is one of ZERO_SIG, TORUS, THREE_COMPONENT; h is the integer
    parameter of the torus family (None otherwise); p_matrix is the Burau
    image at -1 of the half word; trace is tr of the Burau image of the
    full braid.
    """

    q: int
    p: int
    kind: str
    h: object
    p_matrix: tuple
    trace: int


def classify(q: int, p: int) -> LissajousClass:
    """Sort the (q, p) braid into one of three families by its half-word image.

    With (a, b) the top row of the image of the half word P, the image of
    the full braid has trace 2 - (a^2 + b^2)^2.  Entries outside {-1, 0, 1}
    force the trace below -2 (hyperbolic, all powers have zero signature);
    otherwise the matrix matches one of four small normal forms giving
    either a torus-knot family or a degenerate 3-component construction.
    """
    qw = _q_word(q, p)
    # the half word P: the first (q-1)/2 letters of Q
    pm = _minus1_3(qw[: (q - 1) // 2])
    if _minus1_3(qw) != mat_mul(pm, mat_transpose(pm)):
        raise RuntimeError("half-word factorisation failed for (%d, %d)" % (q, p))
    a, b = pm[0]
    braid_image = _minus1_3(_braid_of(qw))
    trace = braid_image[0][0] + braid_image[1][1]
    if trace != 2 - (a * a + b * b) ** 2:
        raise RuntimeError("trace identity failed for (%d, %d)" % (q, p))

    if abs(a) > 1 or abs(b) > 1:
        return LissajousClass(q, p, ZERO_SIG, None, pm, trace)
    if b == 0:
        # +-[[1, 0], [h, 1]]
        h = a * pm[1][0]
        return LissajousClass(q, p, TORUS, h, pm, trace)
    if a == 0:
        # +-[[0, 1], [-1, h]]
        h = b * pm[1][1]
        return LissajousClass(q, p, TORUS, h, pm, trace)
    # a, b both in {-1, 1}: +-[[1, 1], [h, h+1]] or +-[[1, -1], [h, 1-h]]
    return LissajousClass(q, p, THREE_COMPONENT, None, pm, trace)


def power_signature(q: int, p: int, n: int) -> int:
    """Signature of the closure of the n-th power of the (q, p) braid.

    Requires gcd(n, 3) = 1 so that the closure is a knot.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if gcd(n, 3) != 1:
        raise ValueError("closure of the %d-th power is not a knot" % n)
    word = lissajous_braid(q, p)
    return power_signatures(word, n)[n - 1]


# ---------------------------------------------------------------------------
# survey tables


MODES = ("literal", "full-range")


def _row(q: int, num: int, den: int) -> dict:
    return {
        "q": q,
        "numerator": num,
        "denominator": den,
        "fraction": Fraction(num, den) if den else Fraction(0),
        "percent": (100 * num) // den if den else 0,
    }


def percentage_tables(qs=None) -> dict:
    """Share of zero-signature frequencies p in (q, 2q] for each q, in both
    modes from one pass: {"literal": rows, "full-range": rows}.

    Both modes count the p prime to 3 whose whole family has zero
    signature.  The pair is first reduced by d = gcd(q, p): a mixed-parity
    base (even p/d) gives zero signatures throughout, and a both-odd base
    is all-zero exactly in the hyperbolic class (torus families have
    growing signatures, including the trivial base q/d = 1).  Each reduced
    both-odd pair is classified once per pass.  Mode "literal" keeps only
    the odd p coprime to q, where the test is classify(q, p).kind ==
    ZERO_SIG, and divides by their number; mode "full-range" divides by
    all q integers in (q, 2q], which adds the even and non-coprime columns.

    Rows are dicts with q, numerator, denominator, fraction and the percent
    rounded down to an integer.  Every q is checked (positive, odd and
    prime to 3) before any pair is classified.
    """
    qs = DEFAULT_TABLE_QS if qs is None else tuple(qs)
    if any(q < 1 or q % 2 == 0 or q % 3 == 0 for q in qs):
        raise ValueError("table q values must be positive, odd and prime to 3")
    hyperbolic = {}
    tables = {mode: [] for mode in MODES}
    for q in qs:
        zero = {}
        for p in range(q + 1, 2 * q + 1):
            if p % 3:
                d = gcd(q, p)
                q0, p0 = q // d, p // d
                if p0 % 2 and (q0, p0) not in hyperbolic:
                    hyperbolic[q0, p0] = classify(q0, p0).kind == ZERO_SIG
                zero[p] = p0 % 2 == 0 or hyperbolic[q0, p0]
        literal = [p for p in zero if p % 2 == 1 and gcd(p, q) == 1]
        tables["literal"].append(_row(q, sum(zero[p] for p in literal), len(literal)))
        tables["full-range"].append(_row(q, sum(zero.values()), q))
    return tables


def percentage_table(qs=None, mode: str = "literal") -> list:
    """The rows of one mode of percentage_tables."""
    if mode not in MODES:
        raise ValueError("unknown mode %r" % mode)
    return percentage_tables(qs)[mode]


# ---------------------------------------------------------------------------
# geometric route: sweep the parametrised curve


def _crossing_events(q: int, p: int):
    """Crossing events of the 3-braid of the (q, p) curve, on the integer
    scale t = 2q phi/pi.

    At braid angle phi the three strands sit at theta_j = (phi + 2 pi j)/3
    with radial offset sin(q theta_j); strands i < j cross exactly when
    q(theta_i + theta_j) is an odd multiple of pi, i.e. at
    t = 3(2m + 1) - 2q(i + j) for integer m.  Distinct events never share
    an angle since gcd(q, 3) = 1.

    Yields (t, i, j, m) for every t in [0, 4q), that is phi in [0, 2 pi).
    """
    for i, j in ((0, 1), (0, 2), (1, 2)):
        lo = 2 * q * (i + j)
        # 0 <= 3(2m + 1) - lo < 4q
        for m in range(-((3 - lo) // 6), -((3 - lo - 4 * q) // 6)):
            yield 3 * (2 * m + 1) - lo, i, j, m


def _sin_sign(num: int, den: int) -> int:
    """Sign of sin(pi num/den) for den > 0: 0 when den divides num, else
    (-1)^floor(num/den)."""
    whole, rest = divmod(num, den)
    return 0 if rest == 0 else -1 if whole % 2 else 1


def _radial_rank(n: int) -> int:
    """The triangle wave |(n - 6) mod 24 - 12|, which orders the integers n
    as sin(pi n/12) does: 12 at the crest n = 6, 0 at the trough n = 18."""
    return abs((n - 6) % 24 - 12)


def braid_from_parametrization(q: int, p: int) -> BraidWord:
    """Read the 3-braid straight off the parametrised curve, in integers.

    Crossings are enumerated on the scale 2q (_crossing_events).  The
    starting left-to-right order is the order of the radial offsets
    sin(q theta_j) halfway between the last event (one turn back) and the
    first, where q theta_j/pi = n_j/12 on the scale 12 with
    n_j = t_first + t_last - 4q + 8qj; _radial_rank sorts the n_j exactly,
    and no two strands are level there since no event lies between.
    Over/under at each crossing is the sign of
    z_i - z_j = -2 sin(pi u) sin(pi p (i - j)/3), where
    u = p(2m + 1)/(2q) + alpha/pi = N/D with the height shift
    alpha/pi = 1/(4qp + 1), N = p(2m + 1)(4qp + 1) + 2q and
    D = 2q(4qp + 1): sin(pi u) is 0 when D | N and has the sign
    (-1)^floor(N/D) otherwise (_sin_sign).  D never divides N: an integer
    u would make 1/(4qp + 1) = u - p(2m + 1)/(2q) a fraction with
    denominator dividing 2q < 4qp + 1; and 3 divides neither p nor i - j.
    The strand order is tracked through the sweep, with each event
    required to swap adjacent strands.
    """
    # unlike the lambda route, the sweep does not need q odd, only the
    # crossing structure to be generic and the closure to be a knot
    if q < 1 or p < 1:
        raise ValueError("q and p must be positive")
    if q % 3 == 0 or p % 3 == 0:
        raise ValueError("q and p must be prime to 3")
    if gcd(q, p) != 1:
        raise ValueError("q and p must be coprime")

    events = sorted(_crossing_events(q, p))
    n0 = events[0][0] + events[-1][0] - 4 * q
    order = sorted(range(3), key=lambda j: _radial_rank(n0 + 8 * q * j))
    h = 4 * q * p + 1  # the height shift is alpha/pi = 1/h

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
        u_sign = _sin_sign(p * (2 * m + 1) * h + 2 * q, 2 * q * h)
        z_left_minus_right = -u_sign * _sin_sign(p * (left - right), 3)
        if z_left_minus_right == 0:
            raise RuntimeError("crossing at equal heights in (%d, %d)" % (q, p))
        letters.append((k + 1) * z_left_minus_right)
        order[k], order[k + 1] = order[k + 1], order[k]
    word = BraidWord(3, tuple(letters))
    if closure_components(word) != 1:
        raise RuntimeError("swept braid does not close to a knot")
    return word


def sample_polyline(q: int, p: int, alpha: float = 0.0, samples: int = 2000) -> dict:
    """Points along the space curve, for plotting or export."""
    if q < 1 or p < 1:
        raise ValueError("q and p must be positive")
    if samples < 2:
        raise ValueError("need at least two samples")
    if not isfinite(alpha):
        raise ValueError("alpha must be finite, got %r" % alpha)
    xs, ys, zs = [], [], []
    for s in range(samples):
        theta = 2 * pi * s / samples
        r = 2 + sin(q * theta)
        xs.append(r * cos(3 * theta))
        ys.append(r * sin(3 * theta))
        zs.append(cos(p * theta + alpha))
    return {"q": q, "p": p, "alpha": alpha, "x": xs, "y": ys, "z": zs}
