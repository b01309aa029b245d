"""Core energy primitives: examples, identities, and cross-checks."""

import json
import random
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
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
from addenergy import intset
from addenergy.intset import _energy_numpy, _int64_safe


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


def test_intset_json_round_trip():
    s = IntSet([-(10**40), 0, 10**45])
    data = s.to_json()
    assert data == [str(-(10**40)), "0", str(10**45)]
    assert IntSet.from_json(json.loads(json.dumps(data))) == s


def test_profile_json_round_trip():
    p = difference_profile([0, 3, 10**30])
    assert DifferenceProfile.from_json(p.to_json()) == p


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


def record_routes(monkeypatch):
    """Record which counting route each energy_oracle call takes."""
    routes = []
    for name in ("bincount", "unique"):
        real = getattr(np, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            routes.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np, name, spy)
    real_numpy = intset._energy_numpy

    def numpy_spy(els):
        routes.append("numpy")
        return real_numpy(els)

    monkeypatch.setattr(intset, "_energy_numpy", numpy_spy)
    return routes


def test_int64_boundary_routes(monkeypatch):
    # the route depends on the diameter only: offsets from the minimum below
    # 2^62 keep every pair sum inside int64, wherever the set lies
    routes = record_routes(monkeypatch)
    cases = [
        (IntSet(list(range(40)) + [2**62 - 1]), ["numpy", "unique"]),
        (IntSet(list(range(40)) + [2**62]), []),
        (IntSet(2**64 + x for x in range(40)), ["numpy", "bincount"]),
        (IntSet(-2**70 + x for x in range(40)), ["numpy", "bincount"]),
    ]
    for a, want in cases:
        routes.clear()
        assert energy_oracle(a) == energy_from_profile(difference_profile(a))
        assert routes == want
    assert _int64_safe(cases[0][0].elements) and not _int64_safe(cases[1][0].elements)


def test_bincount_unique_boundary(monkeypatch):
    # n = 32: bincount iff 2 * diameter < n^2 = 1024
    routes = record_routes(monkeypatch)
    for top, want in ((511, "bincount"), (512, "unique")):
        a = IntSet(list(range(31)) + [top])
        routes.clear()
        assert energy_oracle(a) == energy_from_profile(difference_profile(a))
        assert routes == ["numpy", want]


def test_bincount_row_blocks(monkeypatch):
    rng = random.Random(1010)
    els = tuple(sorted(rng.sample(range(10**6, 10**6 + 400), 40)))
    one_block = _energy_numpy(els)
    # 1,000 sums per block: 25 rows of 40, then 15 rows
    monkeypatch.setattr(intset, "_PAIR_BLOCK", 1000)
    routes = record_routes(monkeypatch)
    assert _energy_numpy(els) == one_block == energy_from_profile(difference_profile(els))
    assert routes == ["bincount", "bincount"]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(32, 100), st.integers(0, 64), st.integers(-2**80, 2**80), st.data())
def test_oracle_routes_agree(n, k, t, data):
    # gaps up to 2^k reach every route: bincount, np.unique, and the Counter
    # once the diameter passes 2^62
    a = IntSet(accumulate(data.draw(st.lists(st.integers(1, 2**k), min_size=n, max_size=n))))
    e = energy_oracle(a)
    assert e == energy_from_profile(difference_profile(a))
    assert e == energy_oracle(IntSet(x + t for x in a))


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
