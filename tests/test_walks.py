"""Random walks on braid images: exact laws, hitting series, finite quotients."""

import time
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from braidwalk import walks
from braidwalk.braid import BraidWord
from braidwalk.burau import burau_minus1, intersection_form, symplectic_image
from braidwalk.linalg import det_ring, identity
from braidwalk.walks import (
    ENTRY_POLYNOMIALS,
    GenMeasure,
    MAX_GROUP_ORDER,
    count_group_bruteforce,
    enumerate_sp,
    finite_walk_tv,
    _entry_predicate,
    hitting_series,
    monte_carlo_hitting,
    predicate_all_entries_big,
    predicate_z11,
    psp_order,
    sp_order,
    zero_density,
)

import dp_oracle
import fp_oracle
from fp_oracle import FpMatrix, finite_step_distribution, reduce_mod_p
from linalg_oracle import det_laplace

MU3 = GenMeasure.uniform_generators(3)
MU4 = GenMeasure.uniform_generators(4)


def _walk_laws(mu, kmax):
    """Exact laws of the walk at steps k = 0..kmax: walks._laws from the
    identity on the atoms of walks._walk_atoms, which also refuses
    kmax < 0."""
    mats, weights, denom = walks._walk_atoms(mu, kmax)
    return walks._laws(mats, weights, denom, kmax, np.eye(mats.shape[1], dtype=np.int64))


def _law(mu, k):
    """The step-k law that _walk_laws yields, as {nested-tuple matrix:
    Fraction}, after checking that its states are distinct and that its
    counts sum to its scale."""
    for states, counts, scale in _walk_laws(mu, k):
        pass
    law = {
        tuple(map(tuple, m)): Fraction(c, scale)
        for m, c in zip(states.tolist(), counts.tolist())
    }
    assert len(law) == len(states)
    assert sum(counts.tolist()) == scale
    return law


def test_measure_validation():
    with pytest.raises(ValueError):
        GenMeasure(())
    w = BraidWord(3, (1,))
    with pytest.raises(ValueError):
        GenMeasure(((w, Fraction(1, 2)),))  # mass 1/2, not 1
    with pytest.raises(ValueError):
        GenMeasure(((w, Fraction(1)), (BraidWord(4, (1,)), Fraction(0))))
    with pytest.raises(ValueError):
        GenMeasure(((w, Fraction(3, 2)), (w, Fraction(-1, 2))))
    # a float or a string weight would reach the walks and fail there
    words = [BraidWord(3, (g,)) for g in (1, -1, 2, -2)]
    for weight in (0.25, "1/4"):
        with pytest.raises(ValueError, match="not a rational"):
            GenMeasure(tuple((word, weight) for word in words))


def test_uniform_generators():
    assert len(MU3.atoms) == 4
    assert MU3.strands == 3
    assert all(weight == Fraction(1, 4) for _, weight in MU3.atoms)
    letters = sorted(word.letters[0] for word, _ in MU3.atoms)
    assert letters == [-2, -1, 1, 2]


@pytest.mark.parametrize("strands", [1, 0, -3])
def test_uniform_generators_refuses_fewer_than_two_strands(strands):
    with pytest.raises(ValueError, match="^need at least 2 strands, got %d$" % strands):
        GenMeasure.uniform_generators(strands)


def test_uniform_generators_takes_strands_as_an_int():
    # a float failed inside range and True was read as 1 strand
    for strands in (3.0, True, "3"):
        with pytest.raises(ValueError, match=r"^strands must be an int, got %r$" % (strands,)):
            GenMeasure.uniform_generators(strands)
    assert GenMeasure.uniform_generators(np.int64(3)) == MU3


def test_walk_law_anchors():
    assert _law(MU3, 0) == {identity(2): Fraction(1)}
    d1 = _law(MU3, 1)
    assert len(d1) == 4 and sum(d1.values()) == 1
    d2 = _law(MU3, 2)
    assert sum(d2.values()) == 1
    # g then g^-1 for each of the four letters: mass 4/16 at the identity
    assert d2[identity(2)] == Fraction(1, 4)
    with pytest.raises(ValueError):
        next(_walk_laws(MU3, -1))


def test_hitting_series_anchors():
    series = hitting_series(MU3, predicate_z11, 4)
    assert series[:3] == [Fraction(0), Fraction(0), Fraction(0)]
    assert series[3] == Fraction(1, 16)
    assert series[4] == Fraction(7, 64)
    assert hitting_series(MU3, predicate_z11, 3)[3] == Fraction(1, 16)
    assert hitting_series(MU3, "z11", 3)[3] == series[3]


def test_hitting_series_all_entries_lags_z11():
    z = hitting_series(MU3, predicate_z11, 8)
    both = hitting_series(MU3, predicate_all_entries_big, 8)
    assert all(b <= a for a, b in zip(z, both))
    assert both[3] == 0 and both[8] > 0


def test_monte_carlo_matches_exact():
    exact = float(hitting_series(MU3, predicate_z11, 6)[6])
    out = monte_carlo_hitting(MU3, "z11", 6, trials=40_000, seed=7)
    lo, hi = out["ci95"]
    assert lo <= exact <= hi
    assert out["hits"] == round(out["estimate"] * out["trials"])
    # same seed, same answer
    again = monte_carlo_hitting(MU3, "z11", 6, trials=40_000, seed=7)
    assert again["hits"] == out["hits"]


def test_monte_carlo_hits_by_step():
    out = monte_carlo_hitting(MU3, "z11", 8, trials=3000, seed=11)
    by_step = out["hits_by_step"]
    assert len(by_step) == 9
    assert by_step[8] == out["hits"]
    assert by_step[:3] == [0, 0, 0]  # |m11| <= 2 for words of length <= 2
    # a caller's function on stacked states counts as the name does
    own = monte_carlo_hitting(MU3, lambda s: s[:, 0, 0] ** 2 > 4, 8, trials=3000, seed=11)
    assert own["hits_by_step"] == by_step
    # every prefix count estimates its own step's probability
    for k in (3, 5):
        exact = float(hitting_series(MU3, predicate_z11, k)[k])
        assert abs(by_step[k] / 3000 - exact) < 5 * (exact * (1 - exact) / 3000) ** 0.5


def test_monte_carlo_validation(monkeypatch):
    with pytest.raises(ValueError):
        monte_carlo_hitting(MU3, "z11", 62, trials=10)  # 2^62 entry bound
    with pytest.raises(ValueError):
        monte_carlo_hitting(MU3, "z11", -1, trials=10)
    with pytest.raises(ValueError):
        monte_carlo_hitting(MU3, "z11", 3, trials=0)
    with pytest.raises(ValueError):
        monte_carlo_hitting(MU3, "no-such-predicate", 3, trials=10)
    with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
        monte_carlo_hitting(MU3, "z11", 3, trials=10, seed=-1)

    # a count that is not an int, a bool included, is refused by name
    # before any work
    def no_work(*args, **kwargs):
        raise AssertionError("the walk started")

    monkeypatch.setattr(walks, "_walk_atoms", no_work)
    for name, value in [("trials", 1000.0), ("trials", True), ("k", 3.0), ("k", True),
                        ("seed", 1.5), ("seed", False)]:
        call = {"k": 3, "trials": 10, "seed": 1, name: value}
        with pytest.raises(ValueError, match=r"^%s must be an int, got %r$" % (name, value)):
            monte_carlo_hitting(MU3, "z11", call.pop("k"), **call)
    monkeypatch.undo()

    # numpy integers, as np.arange gives them, run like ints
    out = monte_carlo_hitting(MU3, "z11", np.int64(5), trials=np.int64(1000), seed=np.int64(3))
    assert out == monte_carlo_hitting(MU3, "z11", 5, trials=1000, seed=3)
    assert out["hits_by_step"] == monte_carlo_hitting(
        MU3, "z11", np.int32(5), trials=np.uint16(1000), seed=np.int8(3))["hits_by_step"]


def test_walk_counts_validation(monkeypatch):
    # every other count of the walk API is taken as monte_carlo_hitting
    # takes its counts: a non-int, a bool included, is refused by name
    # before any work
    def no_work(*args, **kwargs):
        raise AssertionError("the work started")

    monkeypatch.setattr(walks, "_walk_atoms", no_work)
    monkeypatch.setattr(walks, "_symplectic_group", no_work)
    for name, value, call in [
        ("kmax", 3.0, lambda v: hitting_series(MU3, "z11", v)),
        ("kmax", True, lambda v: hitting_series(MU3, "z11", v)),
        ("steps", 2.0, lambda v: finite_walk_tv(MU3, 7, steps=v)),
        ("steps", True, lambda v: finite_walk_tv(MU3, 7, steps=v)),
        ("p", 7.0, lambda v: finite_walk_tv(MU3, v)),
        ("p", 5.0, lambda v: zero_density("m11", 1, v)),
        ("l", 1.0, lambda v: zero_density("m11", v, 5)),
        ("p", 5.0, lambda v: sp_order(1, v)),
        ("l", True, lambda v: sp_order(v, 5)),
        ("p", 7.0, lambda v: psp_order(1, v)),
        ("l", "1", lambda v: enumerate_sp(v, 3)),
        ("p", 3.0, lambda v: count_group_bruteforce(1, v)),
    ]:
        with pytest.raises(ValueError, match=r"^%s must be an int, got %r$" % (name, value)):
            call(value)
    # the range checks keep their texts
    with pytest.raises(ValueError, match=r"^step count must be >= 0$"):
        finite_walk_tv(MU3, 7, steps=-1)
    with pytest.raises(ValueError, match=r"^l must be >= 1$"):
        sp_order(0, 5)
    monkeypatch.undo()
    with pytest.raises(ValueError, match=r"^step count must be >= 0$"):
        hitting_series(MU3, "z11", -1)

    # numpy integers, as np.arange gives them, run like ints
    assert hitting_series(MU3, "z11", np.int64(4)) == hitting_series(MU3, "z11", 4)
    res = finite_walk_tv(MU3, np.int64(5), steps=np.int32(3))
    assert res == finite_walk_tv(MU3, 5, steps=3) and type(res.p) is int
    assert sp_order(np.int8(1), np.uint16(5)) == 120
    assert zero_density("m11", np.int64(1), np.int32(5)) == Fraction(1, 6)


@pytest.mark.parametrize("predicate", [
    lambda m: abs(m[0][0]) > 2,
    lambda s: bool((np.abs(s[:, 0, 0]) > 2).any()),
    lambda s: np.abs(s[:, 0, 0]),
], ids=["tuple-form", "scalar", "not-bool"])
def test_predicate_must_give_one_bool_per_state(predicate):
    # a predicate written for one nested-tuple matrix, run on a stacked
    # array, answers about the rows of one matrix; its sum is still an int
    with pytest.raises(ValueError, match="N booleans"):
        hitting_series(MU3, predicate, 3)
    with pytest.raises(ValueError, match="N booleans"):
        monte_carlo_hitting(MU3, predicate, 3, trials=100, seed=1)


def test_monte_carlo_refuses_overflow_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    # 5-strand images have row-sum norm 3 and 3^40 > 2^62
    with pytest.raises(ValueError, match="2\\^62"):
        monte_carlo_hitting(GenMeasure.uniform_generators(5), "z11", 40, trials=10)


def test_exact_walk_step_limit(monkeypatch):
    # the 3-strand matrix law has 81 states at step 4 and the row law 46 at
    # step 4 (z11 to k = 10 walks rows to step 5); each step multiplies by
    # 4 atom images
    full = hitting_series(MU3, "all-entries", 5)
    monkeypatch.setattr(walks, "MAX_STEP_PRODUCTS", 4 * 81)
    assert hitting_series(MU3, "all-entries", 5) == full
    monkeypatch.setattr(walks, "MAX_STEP_PRODUCTS", 4 * 81 - 1)
    with pytest.raises(ValueError, match="^step 5 would multiply 81 states by 4 atoms, "
                                         "more than MAX_STEP_PRODUCTS = 323$"):
        hitting_series(MU3, "all-entries", 5)
    monkeypatch.setattr(walks, "MAX_STEP_PRODUCTS", 4 * 46 - 1)
    with pytest.raises(ValueError, match="^step 5 would multiply 46 states by 4 atoms"):
        hitting_series(MU3, "z11", 10)


def _row_only(entry, test):
    """An entry predicate that may only be tested on its entry: calling it
    on matrices fails."""
    def predicate(states):
        raise AssertionError("the matrices were walked")

    predicate.entry, predicate.test = entry, test
    return predicate


@pytest.mark.parametrize("batch", [1, 7, 8192, 10 ** 6])
@pytest.mark.parametrize("strands,k", [(3, 8), (5, 5)])
@pytest.mark.parametrize("predicate", [
    "z11", lambda s: s[:, 0].sum(axis=1) > 1,
], ids=["z11", "row-sum"])
def test_monte_carlo_does_not_depend_on_the_block_size(batch, strands, k, predicate, monkeypatch):
    # 8195 walks fill no whole number of blocks of 7 or 8192; blocks of one
    # walk take 301 walks, against the same 301 in a single block
    trials = 301 if batch == 1 else 8195
    mu = GenMeasure.uniform_generators(strands)
    monkeypatch.setattr(walks, "_MC_BATCH", 10 ** 7)
    one_block = monte_carlo_hitting(mu, predicate, k, trials=trials, seed=5)
    monkeypatch.setattr(walks, "_MC_BATCH", batch)
    blocks = monte_carlo_hitting(mu, predicate, k, trials=trials, seed=5)
    assert blocks["hits_by_step"] == one_block["hits_by_step"]
    assert 0 < blocks["hits"] < trials


@pytest.mark.parametrize("skewed", [False, True])
@pytest.mark.parametrize("strands,k", [(3, 10), (5, 6)])
@pytest.mark.parametrize("entry,test", [
    ((0, 0), lambda v: abs(v) > 2),
    ((1, 0), lambda v: v < 0),
    ((0, 1), lambda v: v > 1),
], ids=["z11", "m21-negative", "m12-above-1"])
def test_monte_carlo_row_walk_matches_matrix_walk(skewed, strands, k, entry, test):
    mu = _skewed(strands) if skewed else GenMeasure.uniform_generators(strands)
    i, j = entry
    rows = monte_carlo_hitting(mu, _row_only(entry, test), k, trials=9000, seed=2)
    matrices = monte_carlo_hitting(mu, lambda s: test(s[:, i, j]), k, trials=9000, seed=2)
    assert rows == matrices
    if entry == (0, 0):
        assert monte_carlo_hitting(mu, predicate_z11, k, trials=9000, seed=2) == rows
    assert 0 < rows["hits"] < 9000


def test_monte_carlo_peak_memory():
    # 50 000 walks of 12 steps: a block of 8192 walks draws 0.75 MiB of
    # uniforms and steps 128 KiB of rows; one block of all the walks would
    # hold 4.6 MiB of draws alone
    monte_carlo_hitting(MU3, "z11", 2, trials=10, seed=1)
    tracemalloc.start()
    try:
        out = monte_carlo_hitting(MU3, "z11", 12, trials=50_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out["hits"] == 24151
    assert peak < 3 * 2 ** 20, "peak %.1f MiB" % (peak / 2 ** 20)


def test_dp_and_monte_carlo_share_the_entry_bound():
    # 3-strand images have row-sum norm 2, so both take k up to 61
    out = monte_carlo_hitting(MU3, "z11", 45, trials=200, seed=3)
    assert len(out["hits_by_step"]) == 46 and out["hits"] == out["hits_by_step"][45]
    assert len(monte_carlo_hitting(MU3, "z11", 61, trials=10)["hits_by_step"]) == 62
    mu5 = GenMeasure.uniform_generators(5)
    for call in (lambda: hitting_series(MU3, "z11", 62),
                 lambda: monte_carlo_hitting(MU3, "z11", 62, trials=10),
                 lambda: hitting_series(mu5, "z11", 40),
                 lambda: monte_carlo_hitting(mu5, "z11", 40, trials=10)):
        with pytest.raises(ValueError, match="2\\^62"):
            call()


def test_sp_orders():
    assert sp_order(1, 3) == 24
    assert sp_order(1, 5) == 120
    assert sp_order(1, 7) == 336
    assert sp_order(2, 3) == 51840
    assert psp_order(1, 7) == 168
    assert psp_order(1, 2) == sp_order(1, 2) == 6
    with pytest.raises(ValueError):
        sp_order(1, 6)
    with pytest.raises(ValueError):
        sp_order(0, 5)


# every (l, p) whose Sp(2l, F_p) fits MAX_GROUP_ORDER: l = 1 with p <= 43,
# and l = 2 with p <= 3; Sp(6, 2) is already too large
PRIMES = [p for p in range(2, 60) if all(p % f for f in range(2, p))]
IN_BUDGET = [(l, p) for l in (1, 2, 3) for p in PRIMES if sp_order(l, p) <= MAX_GROUP_ORDER]


def test_bruteforce_counts_match_formula():
    assert IN_BUDGET == [(1, p) for p in PRIMES if p <= 43] + [(2, 2), (2, 3)]
    for l, p in IN_BUDGET:
        d = 2 * l
        group = enumerate_sp(l, p)
        # a membership certificate: distinct matrices over F_p with M^T J M = J
        assert group.dtype == np.int64 and group.shape == (sp_order(l, p), d, d), (l, p)
        assert ((group >= 0) & (group < p)).all()
        assert len(np.unique(group.reshape(len(group), -1), axis=0)) == len(group)
        j = np.array(intersection_form(d), dtype=np.int64)
        assert not ((group.transpose(0, 2, 1) @ j @ group - j) % p).any(), (l, p)
        # sorted by column-major entries read as base-p digits
        keys = group.transpose(0, 2, 1).reshape(len(group), -1) @ p ** np.arange(d * d)[::-1]
        assert (np.diff(keys) > 0).all(), (l, p)
        assert count_group_bruteforce(l, p) == sp_order(l, p), (l, p)
        assert zero_density("det-1", l, p) == 1, (l, p)


@pytest.mark.parametrize("l,p", [(1, 47), (2, 5), (3, 2), (1, 9), (0, 5)])
def test_bruteforce_refused_before_enumeration(l, p, monkeypatch):
    def no_search(*args):
        raise AssertionError("column search run for a refused group")

    monkeypatch.setattr(walks, "_symplectic_group", no_search)
    with pytest.raises(ValueError, match="MAX_GROUP_ORDER|prime|l must be"):
        enumerate_sp(l, p)  # refused at the call, with no iteration
    with pytest.raises(ValueError):
        count_group_bruteforce(l, p)


def test_symplectic_group_peak_memory():
    # SL(2, 53), the set-up of PSL(2, 53), the largest group in the
    # projective budget: the int16 pairing table over its 2809 codes is
    # 15.8 MB and its uint8 copy 7.9 MB; a second int16 table alive at
    # once (a residue taken out of place) or a level holding three uint8
    # tables' worth beside the copy would pass the bound
    tracemalloc.start()
    try:
        group = walks._symplectic_group(1, 53)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group.shape == (sp_order(1, 53), 2, 2)
    assert peak < 26 * 2 ** 20, "peak %.1f MiB" % (peak / 2 ** 20)


def test_zero_density_anchors():
    # fraction of SL(2, p) with vanishing corner entry is 1/(p+1)
    assert zero_density("m11", 1, 5) == Fraction(1, 6)
    assert zero_density("m21", 1, 5) == Fraction(1, 6)
    assert zero_density("m12", 1, 7) == Fraction(1, 8)
    assert zero_density("det-1", 1, 5) == 1
    with pytest.raises(ValueError):
        zero_density("m13", 1, 5)
    with pytest.raises(ValueError):
        zero_density(ENTRY_POLYNOMIALS["m11"], 1, 3)  # names only
    with pytest.raises(ValueError):
        zero_density("m11", 3, 3)


def test_zero_density_sp4_regression():
    # corner-entry vanishing locus in Sp(4, 3); frozen from the exhaustive run
    assert zero_density("m11", 2, 3) == Fraction(13, 40)


# the entry polynomials of walks.ENTRY_POLYNOMIALS on one nested-tuple matrix
TUPLE_POLYNOMIALS = {
    "m11": lambda m: m[0][0],
    "m12": lambda m: m[0][1],
    "m21": lambda m: m[1][0],
    "m22": lambda m: m[1][1],
    "det-1": lambda m: det_laplace(m) - 1,
}


@pytest.mark.parametrize("l,p", [(1, 2), (1, 3), (1, 5), (1, 7), (1, 11), (1, 13),
                                 (1, 43), (2, 2), (2, 3)])
def test_zero_density_matches_bruteforce_count(l, p):
    group = enumerate_sp(l, p).tolist()
    assert len(group) == sp_order(l, p)
    assert set(TUPLE_POLYNOMIALS) == set(ENTRY_POLYNOMIALS)
    for name, poly in TUPLE_POLYNOMIALS.items():
        zeros = sum(1 for m in group if poly(m) % p == 0)
        assert zero_density(name, l, p) == Fraction(zeros, len(group)), name


@st.composite
def _element_arrays(draw):
    """(N, d, d) int64 arrays with d <= 4 and entries in [0, p), p = 3 or 53:
    the entry range of the enumerated groups at either end of the budget."""
    p = draw(st.sampled_from([3, 53]))
    d = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=6))
    entries = draw(st.lists(st.integers(min_value=0, max_value=p - 1),
                            min_size=n * d * d, max_size=n * d * d))
    return np.array(entries, dtype=np.int64).reshape(n, d, d)


@given(_element_arrays())
@example(np.array([[[52, 0], [0, 52]], [[0, 52], [52, 0]], [[52, 52], [52, 52]]]))
@example(np.array([[[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]]))
@example(np.full((2, 4, 4), 52))
@settings(max_examples=60, deadline=None)
def test_stacked_det_matches_det_ring(elements):
    assert walks._stacked_det(elements).tolist() == [det_ring(m) for m in elements.tolist()]


def test_group_order_budget():
    assert sp_order(1, 43) <= MAX_GROUP_ORDER < sp_order(1, 47)
    assert sp_order(2, 3) <= MAX_GROUP_ORDER < sp_order(2, 5)
    # the budget replaces the old brute-force caps p <= 13 and p <= 3
    assert zero_density("m11", 1, 43) == Fraction(1, 44)
    for call in (lambda: zero_density("m11", 2, 5),
                 lambda: zero_density("m11", 1, 47),
                 lambda: finite_walk_tv(MU3, 101, steps=1)):
        with pytest.raises(ValueError, match="MAX_GROUP_ORDER"):
            call()


def test_fp_matrix_canonicalization():
    m = FpMatrix(5, ((6, 0), (0, 1)))
    assert m.entries == ((1, 0), (0, 1))
    with pytest.raises(ValueError):
        FpMatrix(4, ((1, 0), (0, 1)))  # not prime
    with pytest.raises(ValueError):
        FpMatrix(2, ((1, 0), (0, 1)))  # even prime unsupported
    with pytest.raises(ValueError):
        FpMatrix(5, ((2, 0), (0, 1)))  # det 2, not in Sp image
    # -I reduces to I in the projective quotient
    neg = FpMatrix(5, ((-1, 0), (0, -1)), projective=True)
    assert neg == FpMatrix(5, ((1, 0), (0, 1)), projective=True)
    assert FpMatrix(5, ((-1, 0), (0, -1))) != FpMatrix(5, ((1, 0), (0, 1)))


def test_reduce_mod_p_multiplicative():
    a = burau_minus1(BraidWord(3, (1, 2)))
    b = burau_minus1(BraidWord(3, (-1, 2, 2)))
    from braidwalk.linalg import mat_mul

    lhs = reduce_mod_p(mat_mul(a, b), 7)
    rhs = reduce_mod_p(a, 7).matmul(reduce_mod_p(b, 7))
    assert lhs == rhs


def test_finite_step_distribution_is_pushforward():
    k = 4
    pushed: dict = {}
    for m, prob in _law(MU3, k).items():
        key = reduce_mod_p(m, 5, projective=False)
        pushed[key] = pushed.get(key, Fraction(0)) + prob
    assert finite_step_distribution(MU3, 5, projective=False, k=k) == pushed


def test_four_strand_walk_steps_rho_4_by_brute_force():
    # every word of length k <= 6 through symplectic_image, the 2x2 rho_4;
    # the 3x3 Burau image at t = -1 gives 659/5832 at k = 6
    letters = [word.letters[0] for word, _ in MU4.atoms]
    brute = [
        Fraction(sum(abs(symplectic_image(BraidWord(4, word))[0][0]) > 2
                     for word in product(letters, repeat=k)), 6 ** k)
        for k in range(7)
    ]
    assert hitting_series(MU4, "z11", 6) == brute
    assert brute[6] == Fraction(773, 3888)
    # rho_4 atoms have row-sum norm 2, so the walk reaches k = 61 and no further
    with pytest.raises(ValueError, match="2\\^62"):
        hitting_series(MU4, "z11", 62)


def test_four_strand_law_mod_p_is_the_finite_walk_law():
    # the exact walk and finite_walk_tv step the same matrices: the exact
    # law reduced mod 5 is the oracle's mod-5 law, and its distance to
    # uniform on Sp(2, 5) is the TV of finite_walk_tv
    res = finite_walk_tv(MU4, 5, steps=4)
    uniform = Fraction(1, res.group_order)
    for k in range(5):
        pushed: dict = {}
        for m, prob in _law(MU4, k).items():
            key = reduce_mod_p(m, 5)
            pushed[key] = pushed.get(key, Fraction(0)) + prob
        assert pushed == finite_step_distribution(MU4, 5, k=k)
        off = (res.group_order - len(pushed)) * uniform
        assert res.tv[k] == (sum(abs(prob - uniform) for prob in pushed.values()) + off) / 2


def test_walks_on_two_strands_are_refused_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the work started")

    monkeypatch.setattr(walks, "_laws", no_work)
    monkeypatch.setattr(walks, "_symplectic_group", no_work)
    monkeypatch.setattr(np.random, "default_rng", no_work)
    mu2 = GenMeasure.uniform_generators(2)
    for call in (
        lambda: hitting_series(mu2, "z11", 3),
        lambda: hitting_series(mu2, "all-entries", 3),
        lambda: monte_carlo_hitting(mu2, "z11", 3, trials=10),
        lambda: finite_walk_tv(mu2, 3, steps=5),
    ):
        with pytest.raises(ValueError, match="^need at least 3 strands for a symplectic image$"):
            call()


def test_finite_walk_tv_small():
    res = finite_walk_tv(MU3, 3, projective=False, steps=30)
    assert res.group_order == 24
    assert res.generated
    assert res.tv[0] == 1 - Fraction(1, 24)
    assert len(res.tv) == 31
    assert all(b <= a for a, b in zip(res.tv, res.tv[1:]))
    assert res.tv[-1] < Fraction(1, 1000)
    proj = finite_walk_tv(MU3, 3, projective=True, steps=10)
    assert proj.group_order == 12
    assert proj.tv[0] == 1 - Fraction(1, 12)
    with pytest.raises(ValueError):
        finite_walk_tv(GenMeasure.uniform_generators(2), 3, steps=5)
    with pytest.raises(ValueError):
        finite_walk_tv(MU3, 2, steps=5)


# sigma_1^(+-1) only: generates the order-p unipotent subgroup, not SL(2, p)
HALF = Fraction(1, 2)
NON_GENERATING = GenMeasure(((BraidWord(3, (1,)), HALF), (BraidWord(3, (-1,)), HALF)))


@given(
    st.sampled_from([MU3, GenMeasure.uniform_generators(4), NON_GENERATING]),
    st.sampled_from([3, 5, 7]),
    st.booleans(),
    st.integers(min_value=0, max_value=25),
)
@example(NON_GENERATING, 7, False, 25)
@example(GenMeasure.uniform_generators(4), 7, True, 25)
@settings(max_examples=10, deadline=None)
def test_finite_walk_tv_matches_dict_oracle(mu, p, projective, steps):
    fast = finite_walk_tv(mu, p, projective=projective, steps=steps)
    slow = fp_oracle.finite_walk_tv(mu, p, projective=projective, steps=steps)
    assert fast.tv == slow.tv
    assert fast.group_order == slow.group_order
    assert fast.generated == slow.generated
    if mu is NON_GENERATING:
        assert not fast.generated and fast.tv[-1] > 0


@st.composite
def _measures(draw):
    """1-3 atoms: short 3- or 4-strand words with random positive weights."""
    strands = draw(st.sampled_from([3, 4]))
    letter = st.integers(min_value=1, max_value=strands - 1).flatmap(
        lambda i: st.sampled_from([i, -i]))
    words = draw(st.lists(st.lists(letter, max_size=4), min_size=1, max_size=3))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=9),
                          min_size=len(words), max_size=len(words)))
    return GenMeasure(tuple(
        (BraidWord(strands, tuple(w)), Fraction(s, sum(sizes))) for w, s in zip(words, sizes)
    ))


@given(_measures(), st.sampled_from([3, 5, 7]), st.booleans(),
       st.integers(min_value=0, max_value=5))
@settings(max_examples=40, deadline=None)
def test_finite_walk_tv_random_measures_match_dict_oracle(mu, p, projective, steps):
    # most draws generate a proper subgroup, so this checks the reachability
    # pass behind `generated` as well as the walk
    fast = finite_walk_tv(mu, p, projective=projective, steps=steps)
    slow = fp_oracle.finite_walk_tv(mu, p, projective=projective, steps=steps)
    assert fast.tv == slow.tv
    assert fast.generated == slow.generated


def test_non_generating_walk_counts_on_the_subgroup_only():
    # sigma_1^(+-1) generate a subgroup H of order 43 in SL(2, 43), |G| = 79 464;
    # counts pushed over all of G took seconds for these 200 steps, over H
    # they take about 0.1 s
    start = time.monotonic()
    fast = finite_walk_tv(NON_GENERATING, 43, steps=200)
    assert time.monotonic() - start < 1.0
    assert fast.tv[200] == Fraction(1847, 1848)
    slow = fp_oracle.finite_walk_tv(NON_GENERATING, 43, steps=30)
    assert fast.group_order == slow.group_order == 79464
    assert not fast.generated and not slow.generated
    assert fast.tv[:31] == slow.tv


def test_finite_walk_tv_budget_edge(monkeypatch):
    # PSL(2, 53) is the largest projective group within MAX_GROUP_ORDER
    res = finite_walk_tv(MU3, 53, projective=True, steps=2)
    assert res.group_order == 74412 and res.generated
    assert res.tv == (Fraction(74411, 74412), Fraction(18602, 18603), Fraction(5723, 5724))

    def no_search(*args):
        raise AssertionError("column search run for a refused group")

    monkeypatch.setattr(walks, "_symplectic_group", no_search)
    with pytest.raises(ValueError, match="MAX_GROUP_ORDER"):
        finite_walk_tv(MU3, 59, projective=True, steps=2)


@dataclass(frozen=True)
class Mod2Matrix:
    """Matrix over F_2 with FpMatrix's product rule; FpMatrix takes odd p only."""

    entries: tuple

    def matmul(self, other: "Mod2Matrix") -> "Mod2Matrix":
        return Mod2Matrix(tuple(
            tuple(sum(x * y for x, y in zip(row, col)) % 2 for col in zip(*other.entries))
            for row in self.entries
        ))


def _oracle_element(m, p):
    if p == 2:
        return Mod2Matrix(tuple(tuple(x % 2 for x in row) for row in m))
    return reduce_mod_p(m, p)


# transvection x -> x + <e1 + e3, x> (e1 + e3) for the tridiagonal form J on
# Z^4; the 5-strand braid images alone generate a proper subgroup of Sp(4, 2)
# (120 of its 720 elements)
SP4_TRANSVECTION = ((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1))


@pytest.mark.parametrize("l,p", [(1, p) for p in (2, 3, 5, 7, 11, 13)] + [(2, 2)])
def test_bruteforce_matches_semigroup_closure(l, p):
    gens = [burau_minus1(BraidWord(2 * l + 1, (i,))) for i in range(1, 2 * l + 1)]
    if l > 1:
        gens.append(SP4_TRANSVECTION)
    closure = fp_oracle._semigroup_closure(
        [_oracle_element(g, p) for g in gens], MAX_GROUP_ORDER
    )
    group = {_oracle_element(m, p) for m in enumerate_sp(l, p).tolist()}
    assert group == closure


def _skewed(strands):
    """Weight 1/2 on sigma_1 and the rest shared by the other letters; for
    3 strands the weights are 1/2, 1/6, 1/6, 1/6."""
    uniform = GenMeasure.uniform_generators(strands)
    rest = Fraction(1, 2 * (len(uniform.atoms) - 1))
    return GenMeasure(tuple(
        (word, Fraction(1, 2) if i == 0 else rest) for i, (word, _) in enumerate(uniform.atoms)
    ))


# largest k per strand count that keeps the dict oracle near a second
ORACLE_KMAX = {3: 12, 4: 8, 5: 6}

# custom predicates as (array form, nested-tuple form for dp_oracle) pairs
ROW1_SUM = (lambda s: s[:, 0].sum(axis=1) > 1, lambda m: sum(m[0]) > 1)
M22_NEGATIVE = (lambda s: s[:, 1, 1] < 0, lambda m: m[1][1] < 0)


@given(
    st.sampled_from([3, 4, 5]),
    st.booleans(),
    st.sampled_from(["z11", ROW1_SUM]),
    st.data(),
)
@example(5, True, "z11", None)
@example(3, False, "all-entries", None)
@settings(max_examples=12, deadline=None)
def test_walk_dp_matches_dict_oracle(strands, skewed, predicate, data):
    mu = _skewed(strands) if skewed else GenMeasure.uniform_generators(strands)
    kmax = ORACLE_KMAX[strands]
    if data is not None:
        kmax = data.draw(st.integers(min_value=0, max_value=kmax))
    fast, slow = (predicate, predicate) if isinstance(predicate, str) else predicate
    assert hitting_series(mu, fast, kmax) == dp_oracle.hitting_series(mu, slow, kmax)
    assert _law(mu, kmax) == dp_oracle.step_distribution(mu, kmax)


def test_walk_dp_object_counts_beyond_int64():
    tiny = Fraction(1, 2 ** 40)
    letters = (1, 2, -1, -2)
    weights = (tiny, Fraction(1, 4), Fraction(1, 4), Fraction(1, 2) - tiny)
    mu = GenMeasure(tuple((BraidWord(3, (g,)), w) for g, w in zip(letters, weights)))
    # denom^1 = 2^40 fits int64, denom^2 = 2^80 does not
    assert [law[1].dtype for law in _walk_laws(mu, 1)] == [np.int64] * 2
    assert [law[1].dtype for law in _walk_laws(mu, 2)] == [object] * 3
    for fast, slow in (("z11", "z11"), M22_NEGATIVE):
        assert hitting_series(mu, fast, 6) == dp_oracle.hitting_series(mu, slow, 6)
    assert _law(mu, 6) == dp_oracle.step_distribution(mu, k=6)


def test_entry_path_object_counts_beyond_int64_at_full_length():
    # denom = 2^20: at kmax = 4 the half-length laws (denom^2 = 2^40) fit
    # int64 but the pair sums (denom^4 = 2^80) do not, so the counts must
    # follow denom^kmax
    tiny = Fraction(1, 2 ** 20)
    letters = (1, 2, -1, -2)
    weights = (tiny, Fraction(1, 4), Fraction(1, 4), Fraction(1, 2) - tiny)
    mu = GenMeasure(tuple((BraidWord(3, (g,)), w) for g, w in zip(letters, weights)))
    assert hitting_series(mu, "z11", 4)[4] == Fraction(274879479805, 2 ** 42)
    for kmax in range(7):
        assert hitting_series(mu, "z11", kmax) == dp_oracle.hitting_series(mu, "z11", kmax)


def test_walk_dp_refuses_entry_overflow_before_work():
    mu5 = GenMeasure.uniform_generators(5)
    start = time.monotonic()
    # 5-strand images have row-sum norm 3 and 3^40 > 2^62
    with pytest.raises(ValueError, match="2\\^62"):
        hitting_series(mu5, "z11", 40)
    assert time.monotonic() - start < 1.0
    assert len(hitting_series(mu5, "z11", 1)) == 2  # 3^1 is fine


@given(st.integers(min_value=0, max_value=5))
@settings(max_examples=10, deadline=None)
def test_distribution_total_is_one(k):
    for states, counts, scale in _walk_laws(MU3, k):
        assert sum(counts.tolist()) == scale


@given(st.integers(min_value=3, max_value=5), st.integers(min_value=0, max_value=4))
@settings(max_examples=15, deadline=None)
def test_hitting_series_in_unit_interval(strands, kmax):
    mu = GenMeasure.uniform_generators(strands)
    for value in hitting_series(mu, lambda s: s[:, 0, 0] != 1, kmax):
        assert 0 <= value <= 1


# entry tests: an int64 array of entries to booleans of the same shape
ENTRY_TESTS = [lambda v: np.abs(v) > 2, lambda v: v == 0, lambda v: v < 0]


def _entry_pair(i, j, test):
    """The entry predicate test(m_ij) and a plain function with the same
    answers, which hitting_series can only run through the matrix DP."""
    return _entry_predicate((i, j), test), lambda s: test(s[:, i, j])


@given(
    st.sampled_from([3, 4, 5]),
    st.booleans(),
    st.sampled_from(ENTRY_TESTS),
    st.data(),
)
@example(3, True, ENTRY_TESTS[0], None)
@example(3, True, ENTRY_TESTS[2], None)
@example(4, False, ENTRY_TESTS[1], None)
@example(5, True, ENTRY_TESTS[0], None)
@settings(max_examples=25, deadline=None)
def test_entry_path_matches_matrix_dp(strands, skewed, test, data):
    mu = _skewed(strands) if skewed else GenMeasure.uniform_generators(strands)
    d = len(symplectic_image(BraidWord(strands, (1,))))
    kmax = ORACLE_KMAX[strands]
    entries = [(i, j) for i in range(d) for j in range(d)]
    if data is not None:
        kmax = data.draw(st.integers(min_value=0, max_value=kmax))
        entries = [data.draw(st.sampled_from(entries))]
    for i, j in entries:
        entry, plain = _entry_pair(i, j, test)
        assert hitting_series(mu, entry, kmax) == hitting_series(mu, plain, kmax), (i, j)


def test_z11_entry_path_matches_matrix_dp_to_16_steps():
    entry, plain = _entry_pair(0, 0, ENTRY_TESTS[0])
    series = hitting_series(MU3, "z11", 16)
    assert series == hitting_series(MU3, entry, 16) == hitting_series(MU3, plain, 16)
    assert series[:13] == hitting_series(MU3, "z11", 12)


@pytest.mark.parametrize("test", [
    lambda v: np.abs(v),
    lambda v: (np.abs(v) > 2).ravel(),
    lambda v: bool((np.abs(v) > 2).any()),
    lambda v: (np.abs(v) > 2)[:, :1],
], ids=["not-bool", "flat", "scalar", "one-column"])
def test_entry_test_must_give_bools_of_the_block_shape(test):
    with pytest.raises(ValueError, match="an entry test must map"):
        hitting_series(MU3, _entry_predicate((0, 0), test), 4)


@pytest.mark.parametrize("test", [
    lambda v: np.abs(v),
    lambda v: bool((np.abs(v) > 2).any()),
], ids=["not-bool", "scalar"])
def test_monte_carlo_entry_test_must_give_one_bool_per_walk(test):
    # the row walk tests the entry of each sampled row under the entry
    # path's contract
    with pytest.raises(ValueError, match="an entry test must map"):
        monte_carlo_hitting(MU3, _entry_predicate((0, 0), test), 4, trials=100, seed=1)


def test_both_paths_refuse_entry_overflow_before_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the walk started")

    monkeypatch.setattr(walks, "_laws", no_work)
    mu5 = GenMeasure.uniform_generators(5)
    # 5-strand images have row-sum norm 3 and 3^40 > 2^62
    for predicate in _entry_pair(1, 2, ENTRY_TESTS[0]) + ("z11", "all-entries"):
        with pytest.raises(ValueError, match="2\\^62"):
            hitting_series(mu5, predicate, 40)


def test_hitting_series_sets_up_the_walk_once(monkeypatch):
    calls = []
    walk_atoms = walks._walk_atoms

    def counted(*args):
        calls.append(args)
        return walk_atoms(*args)

    monkeypatch.setattr(walks, "_walk_atoms", counted)
    # the entry path and the matrix DP each build the atoms once
    for predicate in ("z11", _entry_pair(1, 0, ENTRY_TESTS[1])[0], "all-entries", ROW1_SUM[0]):
        calls.clear()
        hitting_series(MU3, predicate, 5)
        assert len(calls) == 1, predicate
    # an unknown name is refused before the set-up
    calls.clear()
    with pytest.raises(ValueError, match=r"^unknown predicate 'nope'$"):
        hitting_series(MU3, "nope", 3)
    assert calls == []
