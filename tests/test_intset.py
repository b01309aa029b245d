"""Core energy primitives: examples, identities, and cross-checks."""

import json
import multiprocessing
import os
import random
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from itertools import accumulate, combinations, combinations_with_replacement

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addenergy import (
    DifferenceProfile,
    IntSet,
    affine_image,
    difference_profile,
    energy_by_quadruples,
    energy_from_profile,
    energy_oracle,
    incremental_energy_extend,
    max_energy,
    normalize,
)
from addenergy import cli, constructions, intset
from addenergy.intset import (_HASH_EXACT, _HASH_MODULUS, _difference_counter, _energy_counter,
                              _energy_numpy, _int64_safe)


def incremental_rebuild(a):
    """Energy of A built one element at a time via the append formula."""
    els = IntSet(a).elements
    if not els:
        return 0
    e = 1
    for i in range(1, len(els)):
        e = incremental_energy_extend(els[:i], e, els[i])
    return e


# ---------------------------------------------------------------------------
# pinned examples
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("elements, expected", [
    ([], 0),
    ([7], 1),
    ([0, 1], 6),
    ([0, 1, 3], 15),
    ([0, 1, 2], 19),
    ([1, 2, 3, 10], 32),
    ([1, 2, 3, 4], 44),
    ([1, 10, 100], 15),
])
def test_energy_examples(elements, expected):
    assert energy_oracle(elements) == expected


def test_profile_examples():
    p = difference_profile([0, 1, 2])
    assert p.n == 3 and p.positive == {1: 2, 2: 1}
    assert difference_profile([5]).positive == {}
    assert difference_profile([1, 10, 100]).positive == {9: 1, 90: 1, 99: 1}


def test_profile_reads():
    p = difference_profile([0, 1, 2])
    assert p.d(0) == 3
    assert p.d(1) == p.d(-1) == 2
    assert p.d(7) == 0
    assert p.d_plus(2) == 1
    with pytest.raises(ValueError):
        p.d_plus(-1)


def test_energy_from_profile_examples():
    assert energy_from_profile(difference_profile([0, 1, 2])) == 19
    assert energy_from_profile(difference_profile([4])) == 1
    assert energy_from_profile(difference_profile([1, 10, 100])) == 15


@pytest.mark.parametrize("n, expected", [(0, 0), (1, 1), (2, 6), (3, 19), (10, 670)])
def test_max_energy_formula(n, expected):
    assert max_energy(n) == expected


def test_max_energy_rejects_negative():
    with pytest.raises(ValueError):
        max_energy(-1)


def test_affine_image():
    assert affine_image([0, 1, 2], 1, 0).elements == (0, 1, 2)
    assert affine_image([0, 1, 2], -1, 2).elements == (0, 1, 2)
    assert affine_image([1, 2, 3], 3, -3).elements == (0, 3, 6)
    with pytest.raises(ValueError):
        affine_image([1, 2], 0, 5)


def test_incremental_examples():
    assert incremental_energy_extend([1, 2, 3], 19, 10) == 32
    assert incremental_energy_extend([1, 2, 3], 19, 4) == 44
    assert incremental_energy_extend([42], 1, 43) == 6
    with pytest.raises(ValueError):
        incremental_energy_extend([1, 2, 3], 19, 3)
    with pytest.raises(ValueError):
        incremental_energy_extend([], 0, 1)
    # a float is refused, not truncated (40.5 read as 40 gave 45,957)
    e40 = energy_oracle(range(40))
    for bad in (40.5, np.float64(41.0)):
        with pytest.raises(ValueError, match="expected an integer"):
            incremental_energy_extend(range(40), e40, bad)
    assert incremental_energy_extend(range(40), e40, np.int64(40)) == energy_oracle(range(41))


def test_normalize_examples():
    assert normalize([10, 20, 40]).elements == (0, 1, 3)
    assert normalize([0, 1, 2]).elements == (0, 1, 2)
    assert normalize([5, 6, 8]).elements == (0, 1, 3)
    with pytest.raises(ValueError):
        normalize([3])


# ---------------------------------------------------------------------------
# IntSet behavior
# ---------------------------------------------------------------------------

def test_intset_sorts_and_dedups():
    s = IntSet([3, 1, 2, 3, 1])
    assert s.elements == (1, 2, 3)
    assert len(s) == 3 and 2 in s and 5 not in s
    assert list(s) == [1, 2, 3]
    assert s == IntSet((1, 2, 3)) and hash(s) == hash(IntSet([1, 2, 3]))
    assert s.diameter == 2 and IntSet([7]).diameter == 0


INTSET_VALUES = st.one_of(
    st.integers(-2**70, 2**70),
    st.booleans(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
)
INTSET_FORMS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda v: (x for x in v),
    # ascending, but holding duplicates or items that are not exact ints
    "ascending tuple": lambda v: tuple(sorted(v, key=int)),
}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(INTSET_VALUES, max_size=40), st.sampled_from(sorted(INTSET_FORMS)))
@example(values=[2, 1, 2**65, -2**65], form="tuple")
@example(values=[True, False, 1], form="ascending tuple")
@example(values=[np.int64(3), np.int64(5)], form="ascending tuple")
@example(values=[1, 1, 2], form="ascending tuple")
def test_intset_elements_are_sorted_distinct_ints(values, form):
    want = tuple(sorted({int(v) for v in values}))
    els = IntSet(INTSET_FORMS[form](values)).elements
    assert els == want and all(type(x) is int for x in els)
    # a strictly ascending tuple of ints is kept as it is
    assert IntSet(want).elements is want


@pytest.mark.parametrize("bad", [1.5, 2.0, np.float64(3.0), "3", None])
def test_intset_refuses_non_integers(bad):
    # read through operator.index: a float, even a whole one, a numeric
    # string or None is refused, not truncated by int()
    for values in ([0, bad, 5], (bad,), [5, 0, bad]):
        with pytest.raises(ValueError, match="set elements must be integers"):
            IntSet(values)
    with pytest.raises(ValueError):
        energy_oracle([0, bad, 2])
    with pytest.raises(ValueError):
        affine_image([0, 1, 2], bad, 0)
    with pytest.raises(ValueError):
        affine_image([0, 1, 2], 1, bad)
    with pytest.raises(ValueError):
        max_energy(bad)


def test_intset_json_round_trip():
    s = IntSet([-(10**40), 0, 10**45])
    data = s.to_json()
    assert data == [str(-(10**40)), "0", str(10**45)]
    assert IntSet.from_json(json.loads(json.dumps(data))) == s


def test_profile_json_round_trip():
    p = difference_profile([0, 3, 10**30])
    assert DifferenceProfile.from_json(p.to_json()) == p


def test_intset_from_json_reads_ints_and_decimal_strings():
    assert IntSet.from_json([3, "-2", "+5", "007", 2**70, str(-(10**40))]).elements == (
        -(10**40), -2, 3, 5, 7, 2**70)


@pytest.mark.parametrize("data", [
    [1.5, 2.5, 7],  # floats were truncated to {1, 2, 7}
    [7.0],
    [True, 2],  # a bool is not a JSON integer
    [1, None],
    ["1.0"], ["0x10"], [" 3"], ["1_000"], ["\u0663"], [""], ["-"],
    "123",  # not an array: its characters were read as {1, 2, 3}
    {"1": 2},
])
def test_intset_from_json_rejects_non_integers(data):
    with pytest.raises(ValueError):
        IntSet.from_json(data)


@pytest.mark.parametrize("data", [
    {"n": 3, "positive": {"1": 2.0, "2": 1}},  # a float count
    {"n": 3, "positive": {"1": True, "2": 1}},  # a bool count
    {"n": 3, "positive": {"1": "2.5"}},
    {"n": 3, "positive": {"1.5": 2}},  # a difference that is not an integer
    {"n": 3.0, "positive": {"1": 2, "2": 1}},  # a float n
    {"n": False, "positive": {}},
])
def test_profile_from_json_rejects_non_integers(data):
    with pytest.raises(ValueError):
        DifferenceProfile.from_json(data)


# ---------------------------------------------------------------------------
# properties (seeded sweeps)
# ---------------------------------------------------------------------------

def random_sets(seed, count, max_size=40, span=10**9):
    rng = random.Random(seed)
    for _ in range(count):
        yield IntSet(rng.sample(range(-span, span + 1), rng.randint(1, max_size)))


def test_three_way_agreement():
    for a in random_sets(1001, 120):
        e = energy_oracle(a)
        assert energy_from_profile(difference_profile(a)) == e
        assert incremental_rebuild(a) == e


def test_three_way_agreement_large_sets():
    rng = random.Random(7)
    for _ in range(3):
        a = IntSet(rng.sample(range(-10**9, 10**9), 200))
        e = energy_oracle(a)
        assert energy_from_profile(difference_profile(a)) == e
        assert incremental_rebuild(a) == e


def test_quadruple_loop_cross_check():
    for a in random_sets(1002, 40, max_size=12, span=500):
        assert energy_by_quadruples(a) == energy_oracle(a)
    with pytest.raises(ValueError):
        energy_by_quadruples(range(50))


def test_numpy_and_python_paths_agree():
    rng = random.Random(1003)
    for _ in range(20):
        els = tuple(sorted(rng.sample(range(-10**6, 10**6), rng.randint(32, 80))))
        slow = energy_from_profile(difference_profile(els))
        assert _energy_numpy(els) == slow


def record_routes(monkeypatch, sizes=None):
    """Record every counting route a count takes: "counter" and "hashed" for
    ``_energy_counter`` and ``_energy_hashed``, "numpy" for ``_energy_numpy``,
    then each ``np.bincount`` block, or one "fft" for a table counted by the
    FFT, "sort" or "sort64" for one sorted as int32 or int64.  Each of the
    three routes also appends the number of elements it got to ``sizes``,
    when given."""
    routes = []
    real_bincount = np.bincount

    def bincount_spy(*args, **kwargs):
        routes.append("bincount")
        return real_bincount(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", bincount_spy)
    real_counts = intset._pair_value_counts

    def counts_spy(*args):
        before = len(routes)
        counts, table = real_counts(*args)
        if len(routes) == before:
            routes.append("fft" if table is None
                          else "sort" if table.dtype == np.int32 else "sort64")
        return counts, table

    monkeypatch.setattr(intset, "_pair_value_counts", counts_spy)
    real_numpy = intset._energy_numpy

    def numpy_spy(els):
        routes.append("numpy")
        if sizes is not None:
            sizes.append(len(els))
        return real_numpy(els)

    monkeypatch.setattr(intset, "_energy_numpy", numpy_spy)
    for name, label in (("_energy_counter", "counter"), ("_energy_hashed", "hashed")):
        def spy(els, real=getattr(intset, name), label=label):
            routes.append(label)
            if sizes is not None:
                sizes.append(len(els))
            return real(els)

        monkeypatch.setattr(intset, name, spy)
    return routes


def beside_top(n, top):
    """{0, ..., n - 3, top - 1, top}: n elements of diameter ``top`` whose top
    is not isolated (top + 0 < 2 (top - 1) for top > 2), so ``energy_oracle``
    peels nothing and counts all n."""
    return IntSet(list(range(n - 2)) + [top - 1, top])


def test_int64_boundary_routes(monkeypatch):
    # the route depends on the size and the diameter of the set left after
    # peeling only: offsets from the minimum below 2^62 keep every pair sum
    # inside int64, wherever the set lies; past 2^62 they are hashed
    routes = record_routes(monkeypatch)
    cases = [
        (IntSet(range(31)), ["counter"]),
        (beside_top(42, 2**62 - 1), ["numpy", "sort64"]),
        # 2^62 - 2P and 2^62 share a residue: the Counter, at diameter 2^62
        (IntSet(list(range(40)) + [2**62 - 2 * _HASH_MODULUS, 2**62 - 1, 2**62]),
         ["hashed", "counter"]),
        (beside_top(42, 2**62 + 2**40), ["hashed"]),
        # a lone top is isolated and peeled: the 40 below it go to numpy
        (IntSet(list(range(40)) + [2**62 + 2**40]), ["numpy", "bincount"]),
        (IntSet(2**64 + x for x in range(40)), ["numpy", "bincount"]),
        (IntSet(-2**70 + x for x in range(40)), ["numpy", "bincount"]),
        # a progression of step 2^70: nearly every neighbour is compared
        (IntSet(2**70 * i for i in range(40)), ["hashed"]),
        (IntSet(2**70 * i + 3 for i in range(40)), ["hashed"]),
        (IntSet([2 * i for i in range(40)] + [2**63 + 2**41 - 1, 2**63 + 2**41]), ["hashed"]),
        # sums of offsets up to 2^30 - 1 fit int32, one more does not
        (beside_top(42, 2**30 - 1), ["numpy", "sort"]),
        (beside_top(42, 2**30), ["numpy", "sort64"]),
    ]
    for a, want in cases:
        by_profile = energy_from_profile(difference_profile(a))
        routes.clear()
        assert energy_oracle(a) == by_profile
        assert routes == want
    assert _int64_safe(cases[1][0].elements) and not _int64_safe(cases[2][0].elements)


# ---------------------------------------------------------------------------
# tops peeled before any route
# ---------------------------------------------------------------------------

# a new top x is placed at anchor - min S + gap, the anchor being 2 max S
# ("double": at gap 0 x meets 2 max S at min S, at gap -1 perhaps at
# min S + 1) or max S + the second largest of S ("pair": from gap 1 on no sum
# of S but 2 max S reaches x + min S)
TOP_ANCHORS = st.sampled_from(["double", "pair"])
TOP_GAPS = st.sampled_from([-1, 0, 1, 2**70])


def peels(els):
    """Whether the top x of ascending ``els`` may be peeled: x + min of the
    rest exceeds every pair sum of the rest but the double of its top."""
    *rest, x = els
    sums = [u + v for u, v in combinations_with_replacement(rest, 2)][:-1]
    return bool(rest) and (not sums or x + rest[0] > max(sums))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.sampled_from([2**8, 2**40, 2**62, 2**70]).flatmap(
           lambda top: st.lists(st.integers(0, top), max_size=40, unique=True)),
       st.integers(-2**80, 2**80), st.lists(st.tuples(TOP_ANCHORS, TOP_GAPS), max_size=6))
@example(s=[0, 1, 2], shift=0, tops=[("double", 0)])  # 4: 4 + 0 = 2 * 2, peeled
@example(s=[0, 1, 2], shift=0, tops=[("pair", 0)])  # 3: 3 + 0 = 2 + 1, kept
@example(s=list(range(31)) + [2**62], shift=0, tops=[("pair", 1), ("double", 1)])
def test_isolated_tops_peel_exactly(s, shift, tops):
    # a chain of tops: the oracle equals the Counter and the profile on the
    # whole set, and the route gets the set less every top that ``peels``,
    # from the highest down
    els = sorted(x + shift for x in s)
    for anchor, gap in tops:
        if els:
            second = els[-2] if len(els) >= 2 else els[-1]
            x = (2 * els[-1] if anchor == "double" else els[-1] + second) - els[0] + gap
            if x > els[-1]:
                els.append(x)
    a = IntSet(els)
    want = _energy_counter(a.elements)
    assert energy_from_profile(difference_profile(a)) == want
    with pytest.MonkeyPatch.context() as monkeypatch:
        sizes = []
        record_routes(monkeypatch, sizes)
        assert energy_oracle(a) == want
    rest = len(a)
    while rest >= 2 and peels(a.elements[:rest]):
        rest -= 1
    assert sizes[0] == rest


def test_builder_witness_routes_get_the_unpeeled_rest(monkeypatch):
    # every tail element is peeled: a lone one adds 4s + 1, and the last of a
    # swapped block {x, y, 2y - x} meets only y + y, at x, and adds 4s + 5;
    # the body's top b + k is kept in these builds (k <= b - 4), so the route
    # gets the body, n - j elements
    sizes = []
    record_routes(monkeypatch, sizes)
    for n in (32, 47, 97, 200, 400, 480):
        for t in band_targets(n):
            res = constructions.build_with_target_energy(n, t)
            sizes.clear()
            assert energy_oracle(res.witness) == t
            assert sizes == [n - res.j]


# where the first element of a set of the given total span sits: at or just
# inside either end of int64, or across either end by 1 to span
INT64_EDGES = {
    "at -2^63": lambda span, k: -2**63,
    "just above -2^63": lambda span, k: -2**63 + k,
    "just below 2^63": lambda span, k: 2**63 - 1 - span - k,
    "at 2^63 - 1": lambda span, k: 2**63 - 1 - span,
    "across 2^63": lambda span, k: 2**63 - 1 - k % span,
    "across -2^63": lambda span, k: -2**63 - 1 - k % span,
}


@pytest.mark.parametrize("edge", sorted(INT64_EDGES))
@settings(derandomize=True, deadline=None, max_examples=25)
@given(gaps=st.lists(st.integers(1, 2**40), min_size=31, max_size=50),
       k=st.integers(0, 2**20))
def test_offsets_at_the_int64_edges(edge, gaps, k):
    offsets = (0, *accumulate(gaps))
    start = INT64_EDGES[edge](offsets[-1], k)
    els = tuple(start + x for x in offsets)
    fits = -2**63 <= els[0] and els[-1] < 2**63
    assert fits == (not edge.startswith("across"))
    if not fits:  # the one-call conversion would overflow: the per-element path
        with pytest.raises(OverflowError):
            np.array(els, np.int64)
    arr = intset._offsets(els)
    assert arr.dtype == np.int64 and arr.tolist() == list(offsets)
    assert energy_oracle(els) == _energy_counter(els)
    assert energy_from_profile(difference_profile(els)) == _energy_counter(els)


def test_bincount_unique_boundary(monkeypatch):
    # n = 32: bincount iff 2 * diameter + 1 < 1.5 * 496 unordered pairs = 744,
    # else the int32 sort
    routes = record_routes(monkeypatch)
    for top, want in ((371, "bincount"), (372, "sort")):
        a = beside_top(32, top)
        by_profile = energy_from_profile(difference_profile(a))
        routes.clear()
        assert energy_oracle(a) == by_profile
        assert routes == ["numpy", want]


def test_fft_boundary(monkeypatch):
    # diameter 511 transforms over L = 1,024 points: the FFT iff
    # 0.6 * 1,024 * 10 + 2^14 = 22,528 < n(n-1)/2, so from n = 213 (22,578
    # pairs) but not at n = 212 (22,366); at diameter 512, L = 1,080
    # (2^3 * 3^3 * 5) and the cut rises to 22,914 pairs
    routes = record_routes(monkeypatch)
    for n, top, want in ((212, 511, "bincount"), (213, 511, "fft"), (213, 512, "bincount")):
        a = beside_top(n, top)
        by_profile = energy_from_profile(difference_profile(a))
        assert routes[-1] == want  # the profile's table has the same size and L
        routes.clear()
        assert energy_oracle(a) == by_profile == _energy_counter(a.elements)
        assert routes == ["numpy", want]
    # the n = 213 set takes the FFT only while _fft_error_bound < 1/4: with
    # _FFT_ERROR just below and just past the constant where the bound meets
    # 1/4, the FFT, then the bincount, and every count equals the Counter
    a = beside_top(213, 511)
    edge = 0.25 * intset._FFT_ERROR / intset._fft_error_bound(213, (1024,))
    for scale, want in ((1 - 1e-9, "fft"), (1 + 1e-9, "bincount")):
        monkeypatch.setattr(intset, "_FFT_ERROR", edge * scale)
        routes.clear()
        p = difference_profile(a)
        assert routes == [want]
        assert dict(p.positive) == _difference_counter(a.elements)
        routes.clear()
        assert energy_oracle(a) == energy_from_profile(p) == _energy_counter(a.elements)
        assert routes == ["numpy", want]


def is_5_smooth(m):
    for q in (2, 3, 5):
        while m % q == 0:
            m //= q
    return m == 1


def least_5_smooth(m):
    while not is_5_smooth(m):
        m += 1
    return m


def test_transform_length_is_the_least_5_smooth_length():
    # every diameter up to 5,000, each against a scan upwards from 2D + 1
    length = 1
    for d in range(5001):
        if length < 2 * d + 1:
            length = least_5_smooth(2 * d + 1)
        assert intset._transform_length(d) == length, d
    # sampled up to the cap, 2D + 1 <= 2^22, its last diameter included
    rng = random.Random(22)
    top = (intset._FFT_LENGTH_CAP - 1) // 2
    for d in [top, top - 1, *(rng.randrange(5001, top) for _ in range(300))]:
        assert intset._transform_length(d) == least_5_smooth(2 * d + 1), d
    assert intset._transform_length(top) == intset._FFT_LENGTH_CAP
    assert len(intset._smooth_lengths()) == 660


@pytest.mark.parametrize("diameter", [2**21, 2**21 + 1, 3 * 10**6, 10**12, 2**62 - 1])
def test_transform_length_past_the_cap_is_a_power_of_two(diameter):
    # 2D + 1 > 2^22: no FFT count takes it, and it costs O(1) at any diameter
    length = intset._transform_length(diameter)
    assert length > intset._FFT_LENGTH_CAP and length & (length - 1) == 0
    assert length // 2 < 2 * diameter + 1 <= length


@pytest.mark.parametrize("diameter, length", [(2399, 4800), (4512, 9216), (5999, 12000)])
def test_fft_on_lengths_with_factors_3_and_5(diameter, length, monkeypatch):
    # 600 elements in [0, diameter], ends included: 179,700 pairs, past the
    # cut on each length (the product rung's codes span 4,512)
    rng = random.Random(diameter)
    a = (0, *sorted(rng.sample(range(1, diameter), 598)), diameter)
    assert intset._transform_length(diameter) == length
    routes = record_routes(monkeypatch)
    assert _energy_numpy(a) == _energy_counter(a)
    assert difference_profile(a).positive == pair_loop_differences(a)
    assert routes == ["fft", "fft"]


def test_bincount_array_is_a_power_of_two():
    # spans 601 and 1,001 ask for one count array, zeros past the largest sum
    for top in (300, 500):
        arr = np.array(list(range(39)) + [top], dtype=np.int64)
        length = intset._transform_length(top)
        counts, table = intset._pair_value_counts(
            40, 2 * top + 1, 780, intset._unordered_pairs(arr, np.add), (length,), None)
        assert table is None and counts.size == 1024
        assert counts.sum() == 780 and not counts[top + 39:].any()


def test_bincount_row_blocks(monkeypatch):
    rng = random.Random(1010)
    els = tuple(sorted(rng.sample(range(10**6, 10**6 + 400), 40)))
    one_block = _energy_numpy(els)
    profile = difference_profile(els)
    # blocks are sized by the rows' width: the 40 folded rows hold at most
    # 20 values each, so 1,000 values per block take all 40 rows at once
    monkeypatch.setattr(intset, "_PAIR_BLOCK", 1000)
    routes = record_routes(monkeypatch)
    assert _energy_numpy(els) == one_block == energy_from_profile(profile)
    assert routes == ["bincount"]
    routes.clear()
    assert difference_profile(els) == profile
    assert routes == ["bincount"]
    # 500 values per block: 25 rows of 20, then 15 rows
    monkeypatch.setattr(intset, "_PAIR_BLOCK", 500)
    routes.clear()
    assert difference_profile(els) == profile
    assert routes == ["bincount", "bincount"]


@pytest.mark.parametrize("n", [32, 33, 40, 41])
def test_unordered_pairs_in_row_blocks(n):
    # the pairs fold into n rows, with one more value in rows i < n/2 for even
    # n; row blocks of every size hold each pair a < b once
    els = sorted(random.Random(n).sample(range(10**6), n))
    arr = np.array(els, dtype=np.int64)
    for op, want in ((np.add, Counter(x + y for i, x in enumerate(els) for y in els[i + 1:])),
                     (intset._absolute_difference, pair_loop_differences(els))):
        rows = intset._unordered_pairs(arr, op)
        for step in range(1, n + 1):
            for dtype in (np.int32, np.int64):
                blocks = [rows(lo, min(n, lo + step), dtype) for lo in range(0, n, step)]
                assert blocks[0].dtype == dtype
                assert Counter(np.concatenate(blocks).tolist()) == want


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(32, 100), st.integers(0, 64), st.integers(-2**80, 2**80), st.data())
def test_oracle_routes_agree(n, k, t, data):
    # gaps up to 2^k reach every route: bincount, the sort, and the hashed
    # route once the diameter passes 2^62
    a = IntSet(accumulate(data.draw(st.lists(st.integers(1, 2**k), min_size=n, max_size=n))))
    e = energy_oracle(a)
    assert e == energy_from_profile(difference_profile(a))
    assert e == energy_oracle(IntSet(x + t for x in a))


# ---------------------------------------------------------------------------
# the sort of a large sum table in two residue classes, on two threads
# ---------------------------------------------------------------------------

def record_splits(monkeypatch, cpus=2):
    """Pin the usable CPUs to ``cpus`` and record, per split count, the
    sizes of the two classes, and every thread started."""
    splits, threads = [], []
    real_cross = intset._cross_squares

    def cross_spy(low, high, out, masks):
        splits.append((low.size, high.size))
        return real_cross(low, high, out, masks)

    class ThreadSpy(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(intset, "_cross_squares", cross_spy)
    monkeypatch.setattr(threading, "Thread", ThreadSpy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return splits, threads


def odd_one_out(n, step, odd):
    """n - 1 multiples of ``step`` and one element ``odd`` off them."""
    return tuple(sorted(set(range(0, step * (n - 1), step)) | {odd}))


SPLIT_SETS = {
    "random n=724": tuple(sorted(random.Random(724).sample(range(10**6), 724))),
    "random n=725": tuple(sorted(random.Random(725).sample(range(10**6), 725))),
    "random n=1,000": tuple(sorted(random.Random(1000).sample(range(10**6), 1000))),
    # sums past 2^31: the table is int64
    "int64 table": tuple(sorted(random.Random(64).sample(range(2**30, 2**32), 800))),
    "2^64-scale": tuple(2**64 + x for x in random.Random(65).sample(range(10**6), 800)),
    "negative": tuple(-2**40 + x for x in random.Random(66).sample(range(10**6), 800)),
    # one offset in class 1, on top but not isolated (1,000,693 < 2 * 999,438),
    # then one in class 0 (the minimum is off the rest)
    "one odd offset": odd_one_out(800, 1254, 1254 * 798 + 1),
    "odd minimum": odd_one_out(800, 6000, -3),
    "all 0 mod 8 but one": odd_one_out(800, 8 * 997, 4),
    "progression of step 3,000": tuple(range(0, 3000 * 800, 3000)),
}


@pytest.mark.parametrize("name", SPLIT_SETS)
def test_split_sort_matches_counter_and_profile(name, monkeypatch):
    a = tuple(sorted(SPLIT_SETS[name]))
    n = len(a)
    splits, threads = record_splits(monkeypatch)
    routes = record_routes(monkeypatch)
    want = energy_from_profile(difference_profile(a))
    routes.clear()
    assert energy_oracle(a) == want == _energy_counter(a)
    assert routes == ["numpy", "sort64" if name == "int64 table" else "sort"]
    if n * (n - 1) // 2 < intset._SPLIT_MIN:
        assert n == 724 and splits == [] and threads == []
        return
    (low, high), = splits
    assert low + high == n and low >= 1 and high >= 1 and len(threads) == 1
    if name in ("one odd offset", "all 0 mod 8 but one"):
        assert high == 1
    if name == "odd minimum":
        assert low == 1
    if name == "progression of step 3,000":
        assert want == max_energy(n) and low == high == 400


def test_split_cut_is_at_725_elements():
    assert 724 * 723 // 2 < intset._SPLIT_MIN == 2**18 <= 725 * 724 // 2


@pytest.mark.parametrize("affinity", [True, False])
def test_one_cpu_counts_both_classes_inline(affinity, monkeypatch):
    a = SPLIT_SETS["random n=1,000"]
    splits, threads = record_splits(monkeypatch, cpus=1)
    if not affinity:
        # where the OS has no affinity mask, os.cpu_count() decides
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert energy_oracle(a) == _energy_counter(a)
    assert len(splits) == 1 and threads == []


def test_one_thread_per_split_count_only(monkeypatch):
    rng = random.Random(17)
    sparse = tuple(sorted(rng.sample(range(10**6), 800)))
    cases = [
        (sparse, "sort", 1),
        (SPLIT_SETS["random n=724"], "sort", 0),
        # 319,600 pairs, at least as many as _SPLIT_MIN, on the other kernels
        (tuple(sorted(rng.sample(range(2000), 800))), "fft", 0),
        (tuple(sorted(rng.sample(range(1, 100_000), 798))) + (0, 100_000), "bincount", 0),
    ]
    for a, kernel, want in cases:
        a = tuple(sorted(a))
        splits, threads = record_splits(monkeypatch)
        routes = record_routes(monkeypatch)
        assert energy_oracle(a) == _energy_counter(a)
        assert routes[1:2] == [kernel] and len(threads) == len(splits) == want
        # a profile is never split
        threads.clear()
        difference_profile(a)
        assert threads == []


class WorkerFailure(Exception):
    pass


def test_worker_exception_reaches_the_caller(monkeypatch):
    failure = WorkerFailure("cross table")
    record_splits(monkeypatch)

    def failing(low, high, out, masks):
        raise failure

    monkeypatch.setattr(intset, "_cross_squares", failing)
    with pytest.raises(WorkerFailure) as caught:
        energy_oracle(SPLIT_SETS["random n=725"])
    assert caught.value is failure


def test_caller_exception_waits_for_the_worker(monkeypatch):
    # the caller's part fails while the worker is still counting: the
    # exception reaches the caller only once the worker has ended
    failure = WorkerFailure("inside table")
    splits, threads = record_splits(monkeypatch)
    counted = []
    real_cross, real_runs = intset._cross_squares, intset._square_runs

    def slow_cross(low, high, out, masks):
        time.sleep(0.2)
        counted.append(real_cross(low, high, out, masks))

    def failing_inside(table, masks=None):
        if masks is None:
            raise failure
        return real_runs(table, masks)

    monkeypatch.setattr(intset, "_cross_squares", slow_cross)
    monkeypatch.setattr(intset, "_square_runs", failing_inside)
    with pytest.raises(WorkerFailure) as caught:
        energy_oracle(SPLIT_SETS["random n=725"])
    assert caught.value is failure
    (worker,) = threads
    assert not worker.is_alive() and len(counted) == 1


def test_split_count_in_a_forked_child():
    a = SPLIT_SETS["random n=1,000"]
    want = _energy_counter(a)
    alive = threading.active_count()
    assert energy_oracle(a) == want
    assert threading.active_count() == alive  # the worker has ended
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        assert pool.submit(energy_oracle, a).result(timeout=120) == want


def test_split_counts_from_many_threads_at_once():
    # four callers, each with its own worker per count, on two CPUs and a
    # switch interval short enough to interleave every step of the counts
    sets = [SPLIT_SETS[name] for name in ("random n=725", "random n=1,000", "int64 table",
                                          "progression of step 3,000")]
    want = [_energy_counter(a) for a in sets]
    got = {}

    def count(k):
        got[k] = [energy_oracle(a) for a in sets[k:] + sets[:k]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=count, args=(k,)) for k in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == {k: want[k:] + want[:k] for k in range(4)}


# ---------------------------------------------------------------------------
# the pure-Python Counter, the reference of the routes below
# ---------------------------------------------------------------------------

def literal_sum_energy(els):
    """sum r(s)^2 with r(s) counted over all ordered pairs, literally."""
    r = Counter(x + y for x in els for y in els)
    return sum(c * c for c in r.values())


REFERENCE_SETS = st.one_of(
    # dense around 0: negatives, and many x with 2x = y + z
    st.lists(st.integers(-40, 40), max_size=60, unique=True),
    st.lists(st.integers(-2**70, 2**70), max_size=60, unique=True),
    st.builds(lambda a, step, n: [a + step * i for i in range(n)],
              st.integers(-2**70, 2**70), st.integers(1, 2**70), st.integers(0, 60)),
    # a three-term progression x - k, x, x + k inside a sparse set
    st.builds(lambda xs, x, k: xs + [x - k, x, x + k],
              st.lists(st.integers(-10**6, 10**6), max_size=57, unique=True),
              st.integers(-10**6, 10**6), st.integers(1, 10**6)),
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(REFERENCE_SETS, st.sampled_from([0, 2**300, -2**300]))
@example(els=[0, 1, 2], shift=0)
@example(els=[], shift=0)
def test_energy_counter_matches_literal_sum_count(els, shift):
    a = tuple(sorted({x + shift for x in els}))
    e = _energy_counter(a)
    assert e == literal_sum_energy(a)
    if len(a) <= 12:
        assert e == energy_by_quadruples(a)


NUMPY_SETS = st.one_of(
    # gaps up to 2^k
    st.integers(0, 40).flatmap(lambda k: st.lists(st.integers(1, 2**k), min_size=32,
                                                  max_size=90).map(lambda g: list(accumulate(g)))),
    # progressions: the double 2x of every inner x is a pair sum
    st.builds(range, st.integers(32, 90)),
    # base-3 digits 0 and 1: no three-term progression, so no double is a pair sum
    st.builds(lambda n: [int(bin(i)[2:], 3) for i in range(n)], st.integers(32, 90)),
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(NUMPY_SETS, st.sampled_from([1, 2, 10**6]), st.integers(-2**40, 2**40))
def test_energy_numpy_matches_counter(els, scale, shift):
    # a scale of 10^6 spreads every set past the bincount cut-over into the
    # sort, where 2 * min lies below every unordered sum and 2 * max above
    a = tuple(scale * x + shift for x in els)
    assert _energy_numpy(a) == _energy_counter(a)


# each kernel of _pair_value_counts, forced by its cost constants
KERNELS = {
    "fft": ({"_FFT_COST": 0, "_FFT_FIXED": -1}, "fft"),
    "bincount": ({"_FFT_COST": float("inf"), "_BINCOUNT_RATIO": float("inf")}, "bincount"),
    "sort": ({"_FFT_COST": float("inf"), "_BINCOUNT_RATIO": 0}, "sort"),
    # the sort of every sum table in two residue classes, whatever its size
    "split": ({"_FFT_COST": float("inf"), "_BINCOUNT_RATIO": 0, "_SPLIT_MIN": 0}, "sort"),
}

KERNEL_SETS = st.one_of(
    # dense: n values in [0, 3n]
    st.integers(32, 120).flatmap(
        lambda n: st.lists(st.integers(0, 3 * n), min_size=n, max_size=n, unique=True)),
    # progressions: the largest r, and every inner double hit
    st.builds(lambda step, n: [step * i for i in range(n)],
              st.integers(1, 1000), st.integers(32, 120)),
    # base-3 digits 0 and 1: no double is a pair sum
    st.builds(lambda n: [int(bin(i)[2:], 3) for i in range(n)], st.integers(32, 90)),
    # sparse: gaps up to 2^k
    st.integers(0, 16).flatmap(lambda k: st.lists(st.integers(1, 2**k), min_size=32,
                                                  max_size=80).map(lambda g: list(accumulate(g)))),
)


@pytest.mark.parametrize("kernel", KERNELS)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(els=KERNEL_SETS, shift=st.integers(-2**40, 2**40))
def test_each_kernel_matches_counter_and_pair_loop(kernel, els, shift):
    a = tuple(sorted(x + shift for x in els))
    constants, label = KERNELS[kernel]
    with pytest.MonkeyPatch.context() as mp:
        routes = record_routes(mp)
        for name, value in constants.items():
            mp.setattr(intset, name, value)
        e = _energy_numpy(a)
        prof = difference_profile(a)
    assert set(routes) == {label}
    assert type(e) is int and e == _energy_counter(a) == literal_sum_energy(a)
    assert prof.positive == pair_loop_differences(a)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(els=KERNEL_SETS)
def test_fft_kernel_transforms_over_the_least_5_smooth_length(els):
    # the FFT forced: each count transforms over the least 2^a 3^b 5^c at
    # least 2D + 1 and matches the Counter, up to the cap, past which none runs
    a = tuple(sorted(els))
    lengths = []
    real = intset._fft_counts
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intset, "_fft_counts",
                   lambda shape, codes, doubles: lengths.append(shape) or real(shape, codes, doubles))
        for name, value in KERNELS["fft"][0].items():
            mp.setattr(intset, name, value)
        e = _energy_numpy(a)
        prof = difference_profile(a)
    need = 2 * (a[-1] - a[0]) + 1
    assert lengths == ([] if need > intset._FFT_LENGTH_CAP else [(least_5_smooth(need),)] * 2)
    assert e == _energy_counter(a) and prof.positive == pair_loop_differences(a)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 40)), max_size=200),
       st.sampled_from([np.int32, np.int64]), st.integers(0, 3))
def test_square_runs_matches_counter(runs, dtype, spare):
    # runs of 1 to 40 equal values: few or many windows, and runs past d = 8;
    # the same in a caller's scratch of stale values, longer than it needs
    table = np.sort(np.array([v for v, k in runs for _ in range(k)], dtype=dtype))
    got = intset._square_runs(table)
    assert type(got) is int and got == sum(c * c for c in Counter(table.tolist()).values())
    masks = np.ones(max(0, 2 * (table.size - 1)) + spare, dtype=bool)
    assert intset._square_runs(table, masks) == got


def add_at(*changes):
    """An ``irfftn`` that adds each (index, delta) to its output."""
    real = np.fft.irfftn

    def irfftn(*args, **kwargs):
        r = real(*args, **kwargs)
        for i, delta in changes:
            r.flat[i] += delta
        return r

    return irfftn


@pytest.mark.parametrize("changes", [
    [(1, 1)],  # the mass is no longer n^2
    [(4, 1), (6, -1)],  # the mass stays; a sum's parity or the mirror breaks
    [(3, -1)],  # a sum no pair has: negative
])
def test_corrupted_fft_counts_raise(monkeypatch, capsys, changes):
    # 300 even numbers: 44,850 pairs, over L = 2,048, take the FFT
    a = IntSet(range(0, 600, 2))
    routes = record_routes(monkeypatch)
    monkeypatch.setattr(np.fft, "irfftn", add_at(*changes))
    with pytest.raises(RuntimeError, match="exact check"):
        energy_oracle(a)
    with pytest.raises(RuntimeError, match="exact check"):
        difference_profile(a)
    assert routes == ["numpy"]  # both failed inside the FFT, with no fallback
    assert cli.main(["energy", "--set", ",".join(map(str, a))]) == 4
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# the hashed route past 2^62
# ---------------------------------------------------------------------------

# gaps that make hashes collide: a multiple of P repeats residues, and an
# offset just past 2^60 wraps its pair sums, or twice itself, past P
COLLIDING_GAPS = st.sampled_from([_HASH_MODULUS, 2 * _HASH_MODULUS, 2**60, 2**60 + 1])


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.integers(0, 400).flatmap(
    lambda k: st.lists(st.integers(1, 2**k), min_size=32, max_size=120)),
    st.none() | st.tuples(st.integers(0, 119), COLLIDING_GAPS),
    st.integers(-2**1100, 2**1100))
@example(gaps=[1] * 30 + [2**62, 1], collide=None, t=0)
@example(gaps=[1] * 39 + [2**62, 1], collide=(31, _HASH_MODULUS), t=-2**1100)
def test_hashed_route_matches_counter(gaps, collide, t):
    # every set is exact, whether its hashes collide or not; the examples end
    # in a pair past 2^62, so no top is peeled and all of them are hashed
    if collide is not None:
        gaps[collide[0] % len(gaps)] = collide[1]
    a = IntSet(x + t for x in accumulate(gaps))
    assert energy_oracle(a) == _energy_counter(a.elements)


COLLISION_SETS = [
    # (0, P + 5) hashes like (0, 5), (1, 4), (2, 3)
    list(range(32)) + [_HASH_MODULUS + 5],
    # P + 6, 2P + 10 and 3P + 9 hash like 6, 10 and 9
    list(range(40)) + [_HASH_MODULUS + 6, 2 * _HASH_MODULUS + 10, 3 * _HASH_MODULUS + 9],
    # 2 (P + 7) / 2 = P + 7: a pair of offsets below P can wrap past P,
    # while 2^62 + 2^40 collides with nothing
    list(range(40)) + [(_HASH_MODULUS + 7) // 2, 2**62 + 2**40],
]


@pytest.mark.parametrize("els", COLLISION_SETS)
def test_hash_collisions_fall_back_to_counter(els, monkeypatch):
    els = tuple(els)
    want = _energy_counter(els)
    assert energy_from_profile(difference_profile(els)) == want
    assert energy_oracle(els) == want
    routes = record_routes(monkeypatch)
    # energy_oracle counts the first set in numpy, as it spans less than
    # 2^62, and peels both tops of the third; the hashed route is exact on
    # any offsets, so call it directly
    assert intset._energy_hashed(els) == want
    assert routes == ["hashed", "counter"]


def band_targets(n):
    """Three targets of the builder's guaranteed band: its ends and middle."""
    lo, hi = constructions.admissible_interval(n)
    steps = (hi - lo) // 4
    return [lo, lo + 4 * (steps // 2), hi]


def check_builder_witnesses(sizes, monkeypatch, base=10):
    """Each witness of ``band_targets`` counted three ways: by the hashed
    route on all of its offsets, which must not fall back to the Counter, by
    ``energy_oracle``, which peels its isolated top, and by the Counter."""
    routes = record_routes(monkeypatch)
    for n in sizes:
        for t in band_targets(n):
            w = constructions.build_with_target_energy(n, t, base).witness
            routes.clear()
            assert intset._energy_hashed(tuple(x - w[0] for x in w)) == t
            assert routes == ["hashed"]
            assert energy_oracle(w) == t
            assert _energy_counter(w.elements) == t


def test_builder_witnesses_match_counter(monkeypatch):
    # the witnesses' lacunary tails put every one past 2^62
    check_builder_witnesses([32, 33, 47, 64, 97, 128, 160, 200, 256, 300, 352, 400, 479, 480],
                            monkeypatch)


@pytest.mark.parametrize("base", [16, 64, 1024])
def test_builder_at_power_of_two_bases_stays_hashed(base, monkeypatch):
    # 2, 16, 64 and 1024 repeat no residue mod P, so the hashed route never
    # falls back to the Counter on a witness built at a power-of-two base
    check_builder_witnesses([400], monkeypatch, base)


@pytest.mark.slow
def test_builder_witnesses_match_counter_all_sizes(monkeypatch):
    check_builder_witnesses(range(32, 481), monkeypatch)


def test_hashed_route_ignores_pair_block(monkeypatch):
    # _PAIR_BLOCK caps only bincount blocks: 40 elements past 2^62 have 780
    # unordered pairs, and the hashed route counts them under any cap
    # (energy_oracle would peel the whole lacunary set, so the route is
    # called on its offsets directly)
    a = IntSet([5**i for i in range(40)])
    want = energy_from_profile(difference_profile(a))
    routes = record_routes(monkeypatch)
    monkeypatch.setattr(intset, "_PAIR_BLOCK", 100)
    assert intset._energy_hashed(tuple(x - 1 for x in a)) == want
    assert routes == ["hashed"]


@pytest.mark.parametrize("els, route", [
    # the two wide offsets hash like E = _HASH_EXACT and P + 78 - E, so their
    # pair has the key 78 of the double of 39, and its run holds that pair
    # alone: the double is checked, and its true sum differs
    (list(range(40)) + [3 * _HASH_MODULUS + _HASH_EXACT,
                        4 * _HASH_MODULUS + 78 - _HASH_EXACT], ["hashed", "counter"]),
    ([2**70 * i for i in range(42)], ["hashed"]),
])
def test_neighbour_check_in_slices(els, route, monkeypatch):
    # the hashed route checks its keys in blocks sized by its own table, with
    # a mismatch or without
    # both sets start at 0, so their elements are their offsets; the route is
    # called on them directly, since energy_oracle peels the first set's top
    a = IntSet(els)
    want = _energy_counter(a.elements)
    routes = record_routes(monkeypatch)
    assert intset._energy_hashed(a.elements) == want
    assert routes == route
    assert energy_oracle(a) == want


HASHED_EDGE_SETS = [
    # repeated residues: x and x + kP hash alike, so (x, z) and (x + kP, z)
    # share a key for every z, and the set goes to the Counter at once
    (list(range(40)) + [_HASH_MODULUS + 7], ["hashed", "counter"]),
    (list(range(40)) + [2**62, 2 * _HASH_MODULUS + 39], ["hashed", "counter"]),
    (list(range(40)) + [2**70, 2**70 + 3 * _HASH_MODULUS], ["hashed", "counter"]),
    # a wide pair in a run of narrow ones, whose key is no double:
    # (1, P + 159) hashes like (2^5, 2^7)
    ([2**i for i in range(40)] + [_HASH_MODULUS + 159], ["hashed", "counter"]),
    # E - 1 is narrow (E = _HASH_EXACT): its pairs and its double are their own keys
    (list(range(40)) + [_HASH_EXACT - 1, 2**62 + 2**40], ["hashed"]),
    # (P + 1) / 2 is wide: its double P + 1 hashes like 1, the pair (0, 1)
    (list(range(40)) + [(_HASH_MODULUS + 1) // 2, 2**62 + 2**40], ["hashed", "counter"]),
    # around (P + 1) / 2: pairs with d + d' = -1 sum to P, the key of the double of 0
    ([0] + [(_HASH_MODULUS + 1) // 2 + d for d in range(-20, 20)], ["hashed", "counter"]),
    # the narrow double 2 (E - 3) hits a run of one wide pair,
    # (E - 6 - 2^50, E + 2^50), and is its true sum: counted (the double of
    # 39 hitting a wide pair of another sum is a case of
    # test_neighbour_check_in_slices)
    (list(range(40)) + [_HASH_EXACT - 6 - 2**50, _HASH_EXACT - 3, _HASH_EXACT + 2**50],
     ["hashed"]),
    # progressions of wide step: every key is shared and every run checked
    ([2**70 * i for i in range(40)], ["hashed"]),
    ([(2**100 + 1) * i for i in range(40)], ["hashed"]),
    ([(_HASH_MODULUS + 1) * i for i in range(40)], ["hashed"]),
    # lacunary swaps, as in the builder: few wide keys, found by the two-sum
    (list(range(1, 20))
     + list(constructions.lacunary_swap([10**(3 + i) for i in range(30)], 10)), ["hashed"]),
]


@pytest.mark.parametrize("els, route", HASHED_EDGE_SETS)
def test_hashed_route_edge_sets(els, route, monkeypatch):
    offsets = tuple(x - els[0] for x in els)
    want = _energy_counter(offsets)
    routes = record_routes(monkeypatch)
    assert intset._energy_hashed(offsets) == want
    assert routes == route


def test_powers_repeat_residues_only_at_base_one(monkeypatch):
    # powers of a base are Sidon, of energy 2n^2 - n.  2 has order (P - 1) / 2
    # mod P, so powers of two repeat no residue and always build the table;
    # a base b = 1 mod P gives b^i = 1 mod P, so from two powers on residues
    # repeat and the set goes to the Counter before any table is built
    routes = record_routes(monkeypatch)
    real_pairs = intset._unordered_pairs

    def pairs_spy(*args):
        routes.append("table")
        return real_pairs(*args)

    monkeypatch.setattr(intset, "_unordered_pairs", pairs_spy)
    assert pow(2, (_HASH_MODULUS - 1) // 2, _HASH_MODULUS) == 1
    for base in (2, _HASH_MODULUS + 1):
        for n in range(32, 131):
            offsets = tuple(base**i - 1 for i in range(n))
            routes.clear()
            assert intset._energy_hashed(offsets) == 2 * n * n - n
            assert routes == (["hashed", "table"] if base == 2 else ["hashed", "counter"])
            assert energy_oracle([base**i for i in range(n)]) == 2 * n * n - n


RESIDUES = st.sampled_from([0, 1, 2, 3, 5, 8, 2**60, _HASH_MODULUS - 2, _HASH_MODULUS - 1])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(st.one_of(RESIDUES, st.integers(0, _HASH_MODULUS - 1)), min_size=2,
                max_size=30, unique=True),
       st.integers(0, 29), st.integers(1, 60), st.integers(1, 40),
       st.randoms(use_true_random=False))
@example(h=[0, 1, 2, 3, 5, 8, 2**60, _HASH_MODULUS - 2, _HASH_MODULUS - 1], narrow=3,
         size=4, block=7, rnd=random.Random(1))  # the two-sum
@example(h=[0, 1, 2, 3, 5, 8, 2**60, _HASH_MODULUS - 2, _HASH_MODULUS - 1], narrow=3,
         size=20, block=7, rnd=random.Random(1))  # the scan of rows
def test_wide_pairs_of_matches_pair_loop(h, narrow, size, block, rnd):
    # residues are distinct, as _energy_hashed ensures before any table is
    # built; fewer keys than residues take the two-sum, the rest the scan of rows
    n = len(h)
    narrow = min(narrow, n - 1)
    key_of = {(a, b): (h[a] + h[b]) % _HASH_MODULUS
              for b in range(narrow, n) for a in range(b)}
    pool = sorted(set(key_of.values()) | {4, 2**60 + 1})
    keys = np.array(sorted(rnd.sample(pool, min(size, len(pool)))), dtype=np.uint64)
    arr = np.array(h, dtype=np.uint64)
    got = [(int(keys[k]), a, b) for block_arrays in intset._wide_pairs_of(
        keys, arr, arr.argsort(), narrow, block) for k, a, b in zip(*map(list, block_arrays))]
    want = [(key, a, b) for (a, b), key in key_of.items() if key in set(keys.tolist())]
    assert sorted(got) == sorted(want)


CHUNK = intset._REDUCE_CHUNK


@pytest.mark.parametrize("m", [_HASH_MODULUS, intset._PACKED_MODULUS, 2**63])
@pytest.mark.parametrize("size", [1, 4, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_add_mod_at_the_wrap_edges(m, size):
    # terms in [0, m) whose sums hit 0, m - 1, m and 2m - 2, cycled over
    # lengths on either side of the chunk size
    edges = [(0, 0), (0, m - 1), (m - 1, 0), (1, m - 1), (m - 1, 1), (m - 1, m - 1),
             (5, 7), (m // 2, m - m // 2)]
    pairs = [edges[i % len(edges)] for i in range(size)]
    x = np.array([a for a, _ in pairs], dtype=np.uint64)
    y = np.array([b for _, b in pairs], dtype=np.uint64)
    out = np.empty(size, dtype=np.uint64)
    intset._add_mod(x, y, m, out)
    assert out.tolist() == [(a + b) % m for a, b in pairs]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(1, 12), st.integers(0, 9), st.integers(1, 40), st.booleans(),
       st.randoms(use_true_random=False))
def test_add_mod_broadcasts_in_chunks(rows, cols, chunk, column, rnd):
    # a column or a row broadcast against a block, as the packed table and
    # the two-sum pass them, with chunks of a row or less up to the whole
    m = _HASH_MODULUS
    pick = [0, 1, m - 2, m - 1, m // 2]
    draw = lambda k: [rnd.choice(pick) if rnd.random() < 0.5 else rnd.randrange(m)
                      for _ in range(k)]
    x = np.array(draw(rows * cols), dtype=np.uint64).reshape(rows, cols)
    y = np.array(draw(rows) if column else draw(cols), dtype=np.uint64)
    y = y[:, None] if column else y
    out = np.empty((rows, cols), dtype=np.uint64)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(intset, "_REDUCE_CHUNK", chunk)
        intset._add_mod(x, y, m, out)
    want = [[(int(a) + int(b)) % m for a, b in zip(xr, yr)]
            for xr, yr in zip(x.tolist(), np.broadcast_to(y, out.shape).tolist())]
    assert out.tolist() == want


@pytest.mark.parametrize("shape, most", [("random", 12.5), ("progression", 27)])
def test_hashed_peak_memory_per_pair(shape, most):
    # the tracemalloc peak of one hashed count of 1,000 offsets: about 12.2
    # bytes per pair on random 70-bit offsets and 26.7 on a progression,
    # where every key is checked; a reduction over the whole table at once
    # reads 16.5 on the random offsets
    import tracemalloc
    intset._energy_hashed(tuple(2**70 * i for i in range(40)))  # numpy loaded before
    n = 1000
    if shape == "random":
        rng = random.Random(12)
        els = sorted({rng.getrandbits(70) for _ in range(n)})
        offsets = tuple(x - els[0] for x in els)
    else:
        offsets = tuple((2**100 + 1) * i for i in range(n))
    pairs = len(offsets) * (len(offsets) - 1) // 2
    tracemalloc.start()
    try:
        energy = intset._energy_hashed(offsets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert energy == (2 * n * n - n if shape == "random" else max_energy(n))
    assert peak / pairs <= most


def pair_loop_differences(els):
    """d+ by the literal loop over pairs a1 < a2."""
    return Counter(y - x for i, x in enumerate(els) for y in els[i + 1:])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(0, 64).flatmap(
    lambda k: st.lists(st.integers(1, 2**k), min_size=32, max_size=100)),
    st.integers(-2**80, 2**80))
@example(gaps=[1] * 31 + [2**62], t=-2**80)  # diameter past 2^62: the Python branch
@example(gaps=[3, 1, 1, 2, 7], t=-4)  # below _NUMPY_MIN_SIZE: the Python branch
def test_difference_profile_matches_pair_loop(gaps, t):
    # gaps up to 2^k reach bincount and the sort
    a = IntSet(x + t for x in accumulate(gaps))
    prof = difference_profile(a)
    assert prof.n == len(gaps) and prof.positive == pair_loop_differences(a.elements)
    assert all(type(x) is int and type(c) is int for x, c in prof.positive.items())


def test_difference_profile_routes(monkeypatch):
    routes = record_routes(monkeypatch)
    cases = [
        (range(31), []),  # below _NUMPY_MIN_SIZE: the Python branch
        ([2**64 + x for x in range(40)], ["bincount"]),
        # n = 32: bincount iff diameter + 1 < 1.5 * 496 unordered pairs = 744
        (list(range(31)) + [742], ["bincount"]),
        (list(range(31)) + [743], ["sort"]),
        # the FFT cut of test_fft_boundary
        (list(range(211)) + [511], ["bincount"]),
        (list(range(212)) + [511], ["fft"]),
        # differences up to 2^31 - 1 fit int32, one more does not
        (list(range(39)) + [2**31 - 1], ["sort"]),
        (list(range(39)) + [2**31], ["sort64"]),
        (list(range(39)) + [2**62 - 1], ["sort64"]),
        (list(range(39)) + [2**62], []),  # diameter 2^62: the Python branch
    ]
    for els, want in cases:
        routes.clear()
        prof = difference_profile(els)
        assert routes == want
        assert prof.positive == pair_loop_differences(IntSet(els).elements)
        assert all(type(x) is int and type(c) is int for x, c in prof.positive.items())


def check_profile_arrays(prof, els):
    """The array form against the pair counter: ascending differences, their
    counts, int64 below 2^63 and Python ints past it, both read-only."""
    want = Counter(y - x for x, y in combinations(els, 2))
    keys = sorted(want)
    assert prof.n == len(els)
    assert prof.differences.tolist() == keys
    assert prof.counts.tolist() == [want[x] for x in keys]
    wide = bool(keys) and keys[-1] >= 2**63
    assert prof.differences.dtype == (object if wide else np.int64)
    assert prof.counts.dtype == np.int64
    assert not prof.differences.flags.writeable and not prof.counts.flags.writeable
    assert prof.positive == want
    assert list(prof.positive) == keys


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.integers(0, 70).flatmap(
    lambda k: st.lists(st.integers(1, 2**k), min_size=0, max_size=80)),
    st.integers(-2**80, 2**80))
@example(gaps=[1] * 39, t=0)  # the bincount branch
@example(gaps=[10**6] * 39, t=0)  # the sort branch
@example(gaps=[3, 1, 1, 2, 7], t=-4)  # below _NUMPY_MIN_SIZE: the Counter
@example(gaps=[1] * 31 + [2**62], t=-2**80)  # diameter 2^62: the Counter, int64
@example(gaps=[1] * 31 + [2**63], t=5)  # diameter past 2^63: the Counter, object
@example(gaps=[2**64, 1, 2**64], t=0)  # past 2^63 below _NUMPY_MIN_SIZE
def test_profile_arrays_match_pair_counter(gaps, t):
    els = tuple(x + t for x in accumulate([0] + gaps))
    check_profile_arrays(difference_profile(els), els)


def test_profile_arrays_are_read_only():
    for els in ([0, 1, 3], range(40), [0, 2**64, 2**65]):
        p = difference_profile(els)
        for arr in (p.differences, p.counts):
            with pytest.raises(ValueError):
                arr[0] = 7
        with pytest.raises(TypeError):
            p.positive[1] = 7


def test_profile_reads_at_every_range():
    for p in (difference_profile([0, 1, 2]), difference_profile(range(40)),
              difference_profile([0, 1, 2, 2**64])):
        top = p.diameter
        assert p.d(0) == p.n
        with pytest.raises(ValueError):
            p.d_plus(0)
        for x in (1, 2, top - 1, top):
            assert p.d(-x) == p.d(x) == p.d_plus(x) == p.positive.get(x, 0)
        # above the diameter, and past 2^63 on an int64 profile: 0, no overflow
        for x in (top + 1, 2**63 - 1, 2**63, 2**64 + 1, 2**200):
            if x > top:
                assert p.d_plus(x) == p.d(x) == p.d(-x) == 0
        # numpy ints are ints; a float is refused, not truncated (1.5 read as 1)
        assert p.d_plus(np.int64(1)) == p.d(np.int32(-1)) == p.positive.get(1, 0)
        for bad in (1.5, 2.0, np.float64(2.0), "1", None):
            for read in (p.d, p.d_plus):
                with pytest.raises(ValueError, match="expected an integer"):
                    read(bad)
    assert difference_profile([0, 1, 2]).differences.dtype == np.int64
    assert difference_profile([5]).d_plus(2**70) == 0


@pytest.mark.parametrize("base, a_new", [
    ([0, 1, 3], 2**64),  # every lookup past the diameter and past 2^63
    (list(range(40)), 2**63 + 5),  # 40 small elements, every lookup past 2^63
    ([0, 2**62, 2**63 - 1], 2**63 + 2**62 - 1),  # differences up to 2^63 - 1: two lookups hit
    ([0, 2**64, 2**65], 2**65 + 2**64),  # differences past 2^63: 2^65 and 2^64 hit
    ([-2**70, 5], 2**70),
])
def test_incremental_past_2_63(base, a_new):
    want = energy_oracle(base + [a_new])
    assert incremental_energy_extend(base, energy_oracle(base), a_new) == want


@st.composite
def appends(draw):
    """A set of 1-80 elements and an element past its maximum: gaps of at
    most 4, 2^20, 2^58, 2^62 or 2^70, so that diameters fall on both sides of
    2^62 and 2^63, and sizes on both sides of ``_NUMPY_MIN_SIZE``."""
    top = draw(st.sampled_from([4, 2**20, 2**58, 2**62, 2**70]))
    start = draw(st.integers(-2**70, 2**70))
    n = draw(st.integers(1, 80))
    gaps = draw(st.lists(st.integers(1, top), min_size=n, max_size=n))
    *base, a_new = accumulate(gaps, initial=start)
    return base, a_new


@settings(derandomize=True, deadline=None, max_examples=500)
@given(appends())
@example(([0, 2**62 - 1], 2**62 + 5))
@example((list(range(31)) + [2**63 - 1], 2**63))
@example((list(range(32)), 2**70))
def test_incremental_matches_the_oracle(case):
    base, a_new = case
    assert (incremental_energy_extend(base, energy_oracle(base), a_new)
            == energy_oracle(base + [a_new]))


def test_profile_equality_and_json_round_trip():
    for els in ([], [5], [0, 1, 2], [0, 3, 10**30], range(40), [0, 2**63, 2**64]):
        p = difference_profile(els)
        data = json.loads(json.dumps(p.to_json()))
        assert [int(x) for x in data["positive"]] == p.differences.tolist()  # ascending
        q = DifferenceProfile.from_json(data)
        assert q == p and q.to_json() == p.to_json()
        assert q.differences.dtype == p.differences.dtype
    p = difference_profile([0, 1, 2])
    assert p != difference_profile([0, 1, 3])
    assert p != DifferenceProfile(4, p.differences, p.counts)
    assert p != p.to_json() and p != p.positive
    with pytest.raises(TypeError):
        hash(p)


def test_energy_from_profile_python_int_fallback():
    # a square that fits int64; two that each fit but overflow it together
    # (c^2 < 2^63 < 2 c^2); a square past 2^63; object counts: every sum is
    # exact.  The counts of each profile sum to n(n-1)/2, but exceed n - 1,
    # which no n-set has and from_json refuses, so the profiles are built
    # as from_json builds them once its checks pass
    for n, positive in ((77_936, {1: 3_036_971_080}),
                        (110_000, {1: 3_024_972_500, 2: 3_024_972_500}),
                        (2**17, {1: 2**32, 2: 4_294_901_760}),
                        (2**36, {1: 2**70, 5: 2**70 - 2**35})):
        p = intset._sorted_profile(n, positive, max(positive), max(positive.values()))
        counts = list(positive.values())
        assert energy_from_profile(p) == n * n + 2 * sum(v * v for v in counts)
        assert p.total_pairs == sum(counts) == n * (n - 1) // 2
    big = intset._sorted_profile(2**36, {1: 2**71 - 2**35}, 1, 2**71 - 2**35)
    assert big.counts.dtype == object


@pytest.mark.parametrize("data", [
    {"n": -1, "positive": {}},
    {"n": -2, "positive": {"1": 3}},  # (-2)(-3)/2 = 3, but n < 0
    {"n": 2, "positive": {"1": 5}},  # energy_from_profile read 54
    {"n": 3, "positive": {"1": 2}},
    {"n": 0, "positive": {"1": 1}},
    {"n": 3, "positive": {"1": 3}},  # d+(1) > n - 1; energy_from_profile read 27 > 19
    {"n": 4, "positive": {"1": 3, "2": 3}},  # each d+ <= 3, but energy 52 > 44
])
def test_profile_from_json_rejects_bad_sizes(data):
    with pytest.raises(ValueError):
        DifferenceProfile.from_json(data)


@pytest.mark.parametrize("positive", [
    {"0": 2, "1": 1},  # difference 0
    {"-4": 1, "2": 1},  # a negative difference
    {"5": 0, "1": 3},  # a count of 0
    {"1": -2},  # a negative count
])
def test_profile_from_json_rejects_non_positive(positive):
    with pytest.raises(ValueError):
        DifferenceProfile.from_json({"n": 3, "positive": positive})


def test_energy_bounds_and_extremes():
    for a in random_sets(1004, 80, max_size=25):
        n, e = len(a), energy_oracle(a)
        assert n * n <= e <= n**3
        is_ap = normalize(a).elements == tuple(range(n)) if n >= 2 else True
        assert (e == max_energy(n)) == is_ap


def test_mod4_congruence():
    for a in random_sets(1005, 150, max_size=30):
        assert energy_oracle(a) % 4 == len(a) % 4


def test_affine_invariance_property():
    rng = random.Random(1006)
    for a in random_sets(1007, 50, max_size=15, span=10**5):
        scale = rng.choice([-7, -2, -1, 2, 3, 11])
        shift = rng.randint(-10**6, 10**6)
        img = affine_image(a, scale, shift)
        assert energy_oracle(img) == energy_oracle(a)
        if len(a) >= 2:
            assert normalize(img) == normalize(a)


def test_profile_mass_and_diameter():
    for a in random_sets(1008, 60, max_size=20):
        p = difference_profile(a)
        assert p.total_pairs == len(a) * (len(a) - 1) // 2
        if len(a) >= 2:
            assert p.diameter == a.diameter
            assert p.d_plus(a.diameter) == 1


def test_huge_elements_stay_exact():
    # power-scale elements overflow any fixed width; the counting must not
    a = [10**k for k in range(1, 60, 3)]
    assert energy_oracle(a) == 2 * len(a) ** 2 - len(a)  # all differences distinct
