"""Group energies, Sidon sets, and the density-energy tradeoff."""

import random
import re
from collections import Counter
from fractions import Fraction
from itertools import islice

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from addenergy import (
    GroupSet,
    GroupSpec,
    cauchy_bound_check,
    density_curve,
    group_energy,
    group_product,
    integer_sidon_check,
    is_sidon,
    sidon_energy,
    sidon_parabola,
    sum_profile,
    sumset,
    tradeoff_point,
)
from addenergy import groups, intset


def random_group_set(rng, max_factors=3, max_order=9, max_size=20):
    spec = GroupSpec(tuple(rng.randint(2, max_order)
                           for _ in range(rng.randint(1, max_factors))))
    pool = list(spec.elements())
    k = rng.randint(1, min(len(pool), max_size))
    return GroupSet.of(spec, rng.sample(pool, k))


# ---------------------------------------------------------------------------
# energy and profiles
# ---------------------------------------------------------------------------

def test_group_energy_examples():
    assert group_energy(GroupSet.full(GroupSpec((3,)))) == 27
    assert group_energy(GroupSet.of(GroupSpec((7, 7)), [(0, 0)])) == 1
    # 8 is 0 mod 4 while |A| = 2: the mod-4 congruence is integers-only
    assert group_energy(GroupSet.full(GroupSpec((2,)))) == 8


def test_full_group_energy_is_cubed():
    for m in range(2, 20):
        assert group_energy(GroupSet.full(GroupSpec((m,)))) == m**3
    assert group_energy(GroupSet.full(GroupSpec((4, 5)))) == 20**3


def test_profile_identities():
    rng = random.Random(4001)
    for _ in range(60):
        a = random_group_set(rng)
        prof = sum_profile(a)
        assert sum(prof.values()) == len(a) ** 2
        assert sum(r * r for r in prof.values()) == group_energy(a)
        assert set(prof) == sumset(a)


def brute_profile(a):
    """r(x) over every ordered pair, by the group addition."""
    return Counter(a.group.add(x, y) for x in a.elements for y in a.elements)


def is_int_tuple(x):
    return type(x) is tuple and all(type(c) is int for c in x)


@st.composite
def group_sets(draw, orders, min_size=0, max_size=40):
    spec = GroupSpec(tuple(draw(orders)))
    point = st.tuples(*(st.integers(0, m - 1) for m in spec.orders))
    return GroupSet.of(spec, draw(st.lists(point, min_size=min_size, max_size=max_size,
                                           unique=True)))


def check_against_pair_loop(a):
    want = brute_profile(a)
    prof = sum_profile(a)
    assert prof == want
    assert all(is_int_tuple(x) and type(r) is int for x, r in prof.items())
    e = sum(r * r for r in want.values())
    assert type(group_energy(a)) is int and group_energy(a) == e
    assert sumset(a) == set(want)
    n = len(a)
    assert cauchy_bound_check(a) == (n**4 <= len(want) * e and n**4 <= a.group.order * e)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(group_sets(st.lists(st.sampled_from((2, 3, 4, 5, 6, 8, 9)), min_size=1, max_size=3)))
def test_group_profiles_match_pair_loop(a):
    # small orders, 2-torsion included; the set size decides bincount or sort
    check_against_pair_loop(a)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(group_sets(st.lists(st.sampled_from((2, 3, 4, 5, 6, 8)), min_size=1, max_size=3)))
@example(GroupSet.full(GroupSpec((2, 2, 2))))
@example(GroupSet.of(GroupSpec((4,)), []))
def test_loop_profile_matches_pair_loop(a):
    # every order takes the pure-Python count when the flat-code bound is 0;
    # in Z_2^k every double is 0, so v(0) = |A| there, not 1
    with pytest.MonkeyPatch.context() as mp:
        routes = record_group_routes(mp)
        mp.setattr(groups, "_FLAT_CODE_ORDER", 0)
        check_against_pair_loop(a)
    assert set(routes) == {"loop"}


def record_group_routes(monkeypatch):
    """Record each group profile's route: bincount, the FFT, "sort" or
    "sort64" for a table sorted as int32 or int64, or the pair loop."""
    routes = []
    real_bincount = np.bincount
    real_counts = groups._pair_value_counts
    real_loop = groups._loop_profile

    def bincount_spy(*args, **kwargs):
        routes.append("bincount")
        return real_bincount(*args, **kwargs)

    def counts_spy(*args, **kwargs):
        before = len(routes)
        counts, table = real_counts(*args, **kwargs)
        if len(routes) == before:
            routes.append("fft" if table is None
                          else "sort" if table.dtype == np.int32 else "sort64")
        return counts, table

    def loop_spy(a):
        routes.append("loop")
        return real_loop(a)

    monkeypatch.setattr(np, "bincount", bincount_spy)
    monkeypatch.setattr(groups, "_pair_value_counts", counts_spy)
    monkeypatch.setattr(groups, "_loop_profile", loop_spy)
    return routes


# the route checks draw sets of up to 87 points, which hypothesis shrinks for
# minutes when a cut moves; the first failing example is report enough
NO_SHRINK = [Phase.explicit, Phase.generate]


@pytest.mark.parametrize("orders, min_size, route", [
    ((7, 7, 7), 19, "bincount"),  # 343 < 1.5 * n^2, and n^2 <= 40^2 below the FFT cut
    ((2, 4, 6), 13, "bincount"),  # 2-torsion, 48 < 1.5 * n^2
    ((3001, 3001), 1, "sort"),  # order above _PAIR_BLOCK and the FFT's cap: int32
    ((2**31 + 11, 2**31 + 11), 0, "loop"),  # order above 2^62
])
def test_group_profile_routes(monkeypatch, orders, min_size, route):
    routes = record_group_routes(monkeypatch)

    @settings(derandomize=True, deadline=None, max_examples=15, phases=NO_SHRINK)
    @given(group_sets(st.just(orders), min_size=min_size))
    def check(a):
        routes.clear()
        check_against_pair_loop(a)
        assert set(routes) == {route}

    check()


@pytest.mark.parametrize("orders, size, route", [
    # Z_7^3: the sort iff 343 >= 1.5 * n^2 ordered pairs, so up to n = 15;
    # the FFT iff 0.6 * 343 * log2(343) + 2^14 = 18,117 < 2.4 * n^2, so from
    # n = 87 (2.4 * 87^2 = 18,166; 2.4 * 86^2 = 17,750)
    ((7, 7, 7), 15, "sort"),
    ((7, 7, 7), 16, "bincount"),
    ((7, 7, 7), 86, "bincount"),
    ((7, 7, 7), 87, "fft"),
    ((2, 4, 6), 5, "sort"),  # 48 >= 1.5 * 25
    # 48 < 1.5 * 36; the FFT would need 2.4 * n^2 > 16,545, n > 48 = |G|
    ((2, 4, 6), 6, "bincount"),
    ((65537, 65537), 3, "sort64"),  # codes past 2^31: an int64 table
])
def test_group_profile_cuts(monkeypatch, orders, size, route):
    # sets of exactly the size on either side of each cut
    routes = record_group_routes(monkeypatch)

    @settings(derandomize=True, deadline=None, max_examples=15, phases=NO_SHRINK)
    @given(group_sets(st.just(orders), min_size=size, max_size=size))
    def check(a):
        routes.clear()
        check_against_pair_loop(a)
        assert set(routes) == {route}

    check()


@pytest.mark.parametrize("past, route", [(False, "fft"), (True, "bincount")])
def test_group_fft_refused_at_its_rounding_bound(monkeypatch, past, route):
    # an 87-element set of Z_7^3 takes the FFT while _fft_error_bound < 1/4;
    # with _FFT_ERROR raised to just past the constant where the bound meets
    # 1/4 it falls back to the bincount, and the profile still equals the
    # pair loop
    edge = 0.25 * intset._FFT_ERROR / intset._fft_error_bound(87, (7, 7, 7))
    monkeypatch.setattr(intset, "_FFT_ERROR", edge * (1 + 1e-9 if past else 1 - 1e-9))
    assert (intset._fft_error_bound(87, (7, 7, 7)) >= 0.25) == past
    spec = GroupSpec((7, 7, 7))
    a = GroupSet.of(spec, random.Random(87).sample(list(spec.elements()), 87))
    routes = record_group_routes(monkeypatch)
    check_against_pair_loop(a)
    assert set(routes) == {route}


@pytest.mark.parametrize("constants, label", [
    ({"_FFT_COST": 0, "_FFT_FIXED": -1}, "fft"),
    ({"_FFT_COST": float("inf"), "_BINCOUNT_RATIO": float("inf")}, "bincount"),
    ({"_FFT_COST": float("inf"), "_BINCOUNT_RATIO": 0}, "sort"),
])
@settings(derandomize=True, deadline=None, max_examples=30)
@given(a=group_sets(st.sampled_from([(7, 7, 7), (2, 4, 6)]), min_size=1, max_size=60))
def test_each_kernel_matches_pair_loop(constants, label, a):
    # each kernel of _pair_value_counts, forced by its cost constants, on a
    # group of odd order and on one with 2-torsion, where doubles collide
    with pytest.MonkeyPatch.context() as mp:
        routes = record_group_routes(mp)
        for name, value in constants.items():
            mp.setattr(intset, name, value)
        check_against_pair_loop(a)
    assert set(routes) == {label}


def test_corrupted_group_fft_counts_raise(monkeypatch):
    # half of Z_7^3: 172^2 ordered pairs take the FFT
    spec = GroupSpec((7, 7, 7))
    a = GroupSet.of(spec, list(spec.elements())[::2])
    routes = record_group_routes(monkeypatch)
    want = group_energy(a)
    assert routes == ["fft"]
    real = np.fft.irfftn

    def irfftn(*args, **kwargs):
        r = real(*args, **kwargs)
        r.flat[1] += 1
        r.flat[2] -= 1
        return r

    monkeypatch.setattr(np.fft, "irfftn", irfftn)
    with pytest.raises(RuntimeError, match="exact check"):
        group_energy(a)
    monkeypatch.setattr(np.fft, "irfftn", real)
    assert group_energy(a) == want == sum(r * r for r in brute_profile(a).values())


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec((1, 3))
    with pytest.raises(ValueError):
        GroupSpec(())
    with pytest.raises(ValueError):
        GroupSet.of(GroupSpec((3,)), [(5,)])
    with pytest.raises(ValueError):
        GroupSet.full(GroupSpec((200, 200)))
    spec = GroupSpec((101, 100))
    with pytest.raises(ValueError):
        group_energy(GroupSet(spec, frozenset(islice(spec.elements(), 10_001))))


@pytest.mark.parametrize("bad", [(2.5, 3), ("3",), (3, None), 5])
def test_group_spec_orders_must_be_integers(bad):
    # a float order (2.5 * 3 = 7.5), a string, None or a non-iterable
    with pytest.raises(ValueError, match="cyclic orders must be integers"):
        GroupSpec(bad)


def test_group_spec_keeps_a_tuple_of_python_ints():
    # a list was kept as a list, which made the spec unhashable
    spec = GroupSpec([np.int64(3), 3])
    assert spec == GroupSpec((3, 3)) and hash(spec) == hash(GroupSpec((3, 3)))
    assert all(type(m) is int for m in spec.orders) and spec.order == 9


@pytest.mark.parametrize("bad, message", [
    ((1, 2, 0), "(1, 2, 0) is not a valid residue vector"),  # too long
    ((1,), "(1,) is not a valid residue vector"),  # too short
    ((-1, 2), "(-1, 2) is not a valid residue vector"),
    ((1, -3), "(1, -3) is not a valid residue vector"),
    ((3, 0), "(3, 0) is not a valid residue vector"),  # equal to its order
    ((2, 5), "(2, 5) is not a valid residue vector"),
])
def test_group_set_rejects_bad_vectors(bad, message):
    spec = GroupSpec((3, 5))
    good = [(0, 0), (2, 4), (1, 3)]
    for vectors in ([bad], good + [bad]):
        with pytest.raises(ValueError) as info:
            GroupSet.of(spec, vectors)
        assert str(info.value) == message
    assert GroupSet.of(spec, good).elements == frozenset(good)


@pytest.mark.parametrize("bad", [(1.5,), (np.float64(2.0),), ("3",), (None,), 3])
def test_group_set_refuses_non_integer_coordinates(bad):
    # coordinates go through operator.index: nothing is truncated by int()
    spec = GroupSpec((7,))
    for vectors in ([bad], [(0,), bad]):
        with pytest.raises(ValueError, match="residue vectors must hold integers"):
            GroupSet.of(spec, vectors)
    assert GroupSet.of(spec, [(np.int64(3),), (True,)]).elements == frozenset({(3,), (1,)})


def test_group_set_accepts_the_empty_set():
    spec = GroupSpec((3, 5))
    for a in (GroupSet.of(spec, []), GroupSet(spec, frozenset())):
        assert len(a) == 0 and group_energy(a) == 0


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.lists(st.integers(2, 6), min_size=1, max_size=3).flatmap(
    lambda orders: st.tuples(st.just(tuple(orders)), st.lists(
        st.lists(st.integers(-1, 7), min_size=len(orders) - 1,
                 max_size=len(orders) + 1).map(tuple), max_size=12))))
def test_group_set_names_the_first_bad_vector(case):
    # the per-axis check accepts exactly the sets the per-vector one does,
    # and a refusal names the first bad vector in iteration order
    orders, vectors = case
    spec = GroupSpec(orders)
    elements = frozenset(vectors)
    bad = [x for x in elements if not spec.contains(x)]
    if not bad:
        assert GroupSet(spec, elements).elements == elements
        return
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad[0]))} is not a valid"):
        GroupSet(spec, elements)


# ---------------------------------------------------------------------------
# Sidon sets
# ---------------------------------------------------------------------------

def test_is_sidon_examples():
    assert is_sidon(GroupSet.of(GroupSpec((5,)), [(0,), (1,)]))
    assert not is_sidon(GroupSet.full(GroupSpec((5,))))
    assert is_sidon(sidon_parabola(5))
    # doubles may coincide in 2-torsion: {0,1} in Z_2 has 0+0 = 1+1
    assert not is_sidon(GroupSet.of(GroupSpec((2,)), [(0,), (1,)]))


def brute_integer_sidon(els):
    """All sums of unordered pairs, doubles included, are distinct."""
    els = sorted(set(els))
    sums = [x + y for i, x in enumerate(els) for y in els[i:]]
    return len(sums) == len(set(sums))


def test_integer_sidon_examples():
    assert not integer_sidon_check([0, 1, 2])  # 0 + 2 = 1 + 1
    assert not integer_sidon_check([0, 1, 3, 4])  # 0 + 4 = 1 + 3
    assert integer_sidon_check([0, 1, 3, 7])
    assert integer_sidon_check([]) and integer_sidon_check([5])
    # powers of two are Sidon: 40 of them fit int64, 70 do not
    assert integer_sidon_check([2**k for k in range(40)])
    assert integer_sidon_check([2**k for k in range(70)])
    assert not integer_sidon_check([2**k for k in range(70)] + [3 * 2**40])


def test_integer_sidon_random_sweep():
    rng = random.Random(4001)
    verdicts = []
    for _ in range(600):
        els = rng.sample(range(-80, 80), rng.randint(0, 8))
        verdicts.append(integer_sidon_check(els))
        assert verdicts[-1] == brute_integer_sidon(els)
    assert 0 < sum(verdicts) < len(verdicts)


def brute_group_sidon(a):
    """All sums of unordered pairs, doubles included, are distinct."""
    els = sorted(a.elements)
    sums = [a.group.add(x, y) for i, x in enumerate(els) for y in els[i:]]
    return len(sums) == len(set(sums))


def test_group_sidon_random_sweep():
    # groups with 2-torsion, where 2x = 2y for x != y can break the property
    rng = random.Random(4003)
    verdicts = []
    for _ in range(1500):
        orders = [rng.choice((2, 4, 6, 8))]
        orders += [rng.choice((2, 3, 4, 5, 6)) for _ in range(rng.randint(0, 2))]
        spec = GroupSpec(tuple(orders))
        pool = list(spec.elements())
        a = GroupSet.of(spec, rng.sample(pool, rng.randint(1, min(len(pool), 7))))
        verdicts.append(is_sidon(a))
        assert verdicts[-1] == brute_group_sidon(a)
    assert 0 < sum(verdicts) < len(verdicts)


def test_parabola_suite():
    for p in (3, 5, 7, 11, 13):
        s = sidon_parabola(p)
        assert len(s) == p
        assert is_sidon(s)
        assert group_energy(s) == sidon_energy(p) == 2 * p * p - p


def test_parabola_smallest_case():
    assert sorted(sidon_parabola(3).elements) == [(0, 0), (1, 1), (2, 1)]


def test_parabola_rejects_bad_p():
    for bad in (2, 9, 15, 1):
        with pytest.raises(ValueError):
            sidon_parabola(bad)


def test_brute_force_quadruple_definition():
    # Sidon means s1+s2 = s3+s4 forces {s1,s2} = {s3,s4}
    s = sidon_parabola(5)
    add = s.group.add
    els = sorted(s.elements)
    for a in els:
        for b in els:
            for c in els:
                for d in els:
                    if add(a, b) == add(c, d):
                        assert {a, b} == {c, d}


# ---------------------------------------------------------------------------
# Cauchy bound
# ---------------------------------------------------------------------------

def test_cauchy_examples():
    assert cauchy_bound_check(GroupSet.of(GroupSpec((7,)), [(3,)]))
    full = GroupSet.full(GroupSpec((9,)))
    assert cauchy_bound_check(full)
    # equality case: |A|^4 = M^4 = |A+A| * E = M * M^3
    assert len(sumset(full)) * group_energy(full) == len(full) ** 4
    s5 = sidon_parabola(5)
    assert len(sumset(s5)) == 15 and group_energy(s5) == 45
    assert 5**4 <= 15 * 45
    assert cauchy_bound_check(s5)


def test_cauchy_random_sweep():
    rng = random.Random(4002)
    for _ in range(200):
        assert cauchy_bound_check(random_group_set(rng))


# ---------------------------------------------------------------------------
# group products and multiplicativity
# ---------------------------------------------------------------------------

def test_group_product_multiplicativity():
    rng = random.Random(4003)
    for _ in range(25):
        a = random_group_set(rng, max_factors=2, max_order=6, max_size=8)
        b = random_group_set(rng, max_factors=1, max_order=6, max_size=8)
        ab = group_product(a, b)
        assert len(ab) == len(a) * len(b)
        assert group_energy(ab) == group_energy(a) * group_energy(b)


def test_tradeoff_materialized_cross_check():
    # small enough to materialize: k Sidon factors times full factors
    for p in (3, 5):
        s = sidon_parabola(p)
        g = GroupSet.full(GroupSpec((p, p)))
        for k, parts in [(0, (g, g)), (1, (s, g)), (2, (s, s))]:
            point = tradeoff_point(k, 2, p)
            prod = group_product(*parts)
            assert len(prod) == point.set_size
            assert group_energy(prod) == point.energy


# ---------------------------------------------------------------------------
# tradeoff points and the density curve
# ---------------------------------------------------------------------------

def test_tradeoff_endpoints():
    pt = tradeoff_point(0, 3, 7)
    assert pt.alpha == 1
    assert pt.delta == 1  # full group: E = |A|^3 exactly
    assert pt.bound_gap == 0

    pt = tradeoff_point(2, 2, 5)
    assert pt.alpha == Fraction(1, 2)
    assert pt.set_size == 25 and pt.energy == 45**2


def test_tradeoff_k1_example():
    pt = tradeoff_point(1, 2, 5)
    assert pt.alpha == Fraction(3, 4)
    assert pt.set_size == 125 and pt.energy == 45 * 25**3
    # 4*alpha <= 1 + alpha*(2+delta), exact integer form
    assert pt.set_size**4 <= (5 * 5) ** 2 * pt.energy


def test_density_gap_shrinks_with_p():
    curves = {p: density_curve(4, p) for p in (5, 101, 1009)}
    for k in (1, 2, 3):
        gaps = [curves[p][k].bound_gap for p in (5, 101, 1009)]
        assert gaps[0] > gaps[1] > gaps[2]
        for g in gaps:
            assert g > 0


def test_density_curve_structure():
    points = density_curve(3, 11)
    assert [pt.k for pt in points] == [0, 1, 2, 3]
    for pt in points:
        assert 0 < pt.alpha <= 1
        assert 0 <= pt.delta <= 1
        # alpha stays below the limiting curve 1/(2-delta)
        assert mpmath.mpf(pt.alpha.numerator) / pt.alpha.denominator \
            <= pt.curve_value() + mpmath.mpf("1e-90")
    for n in (65, 0, -1):
        with pytest.raises(ValueError):
            density_curve(n, 7)
    with pytest.raises(ValueError):
        density_curve(4, 10007)
    for k, n in ((3, 2), (0, 0), (0, -1)):
        with pytest.raises(ValueError):
            tradeoff_point(k, n, 5)
