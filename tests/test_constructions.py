"""Shifted progressions, staged sets, swaps, and the target-energy builder."""

import random

import pytest

from addenergy import (
    IntSet,
    LacunarySeq,
    admissible_interval,
    arithmetic_progression,
    build_with_target_energy,
    dense_ceiling,
    difference_profile,
    energy_drop,
    energy_oracle,
    is_lacunary,
    lacunary_swap,
    max_energy,
    mod4_residue,
    shifted_ap,
    staged_energy,
    staged_set,
    tail_contribution,
)


def random_lacunary(rng, size, ratio_hi=15):
    x = [rng.randint(1, 9)]
    for _ in range(size - 1):
        x.append(x[-1] * rng.randint(10, ratio_hi))
    return x


# ---------------------------------------------------------------------------
# coarse stage
# ---------------------------------------------------------------------------

def test_arithmetic_progression():
    assert arithmetic_progression(1).elements == (1,)
    assert arithmetic_progression(3).elements == (1, 2, 3)
    assert energy_oracle(arithmetic_progression(10)) == 670 == max_energy(10)
    with pytest.raises(ValueError):
        arithmetic_progression(0)


def test_shifted_ap_examples():
    assert shifted_ap(4, 1).elements == (1, 2, 3, 5)
    assert energy_oracle(shifted_ap(4, 1)) == 36
    assert energy_oracle(shifted_ap(4, 2)) == 32
    assert shifted_ap(10, 1).elements == tuple(range(1, 10)) + (11,)
    assert energy_oracle(shifted_ap(10, 1)) == 638
    with pytest.raises(ValueError):
        shifted_ap(4, 3)
    with pytest.raises(ValueError):
        shifted_ap(4, 0)


def test_drop_and_gap_formulas():
    for n in range(3, 31):
        for k in range(1, n - 1):
            drop = max_energy(n) - energy_oracle(shifted_ap(n, k))
            assert drop == energy_drop(n, k) == 4 * n * k - 2 * k * k - 6 * k
        for k in range(1, n - 2):
            gap = energy_oracle(shifted_ap(n, k)) - energy_oracle(shifted_ap(n, k + 1))
            assert gap == 4 * n - 4 * k - 8


def test_mod4_residue():
    assert mod4_residue(3) == 3
    assert mod4_residue(4) == 0
    assert mod4_residue(5) == 1
    with pytest.raises(ValueError):
        mod4_residue(0)


# ---------------------------------------------------------------------------
# staged sets
# ---------------------------------------------------------------------------

def test_staged_set_examples():
    ss = staged_set(5, 1, 1)
    assert ss.body.elements == (1, 2, 3, 5) and ss.tail.elements == (100,)
    assert energy_oracle(ss.elements) == ss.coarse_energy == 53

    assert staged_set(6, 0, 2).elements == shifted_ap(6, 2)

    ss = staged_set(6, 2, 1)
    assert ss.body.elements == (1, 2, 3, 5) and len(ss.tail) == 2
    assert energy_oracle(ss.elements) == ss.coarse_energy


def test_staged_energy_matches_oracle():
    for n in range(4, 14):
        for j in range(n):
            b = n - j
            for k in range(max(1, b - 1)):
                ss = staged_set(n, j, k)
                assert len(ss.body) + len(ss.tail) == n
                assert energy_oracle(ss.elements) == staged_energy(n, j, k)


def test_staged_parameter_validation():
    with pytest.raises(ValueError):
        staged_set(5, 3, 1)  # body of 2 cannot shift
    with pytest.raises(ValueError):
        staged_set(5, 1, 3)  # k beyond body_size - 2
    with pytest.raises(ValueError):
        staged_set(5, 1, 1, base=9)


def test_tail_isolation():
    # differences involving the tail never collide with body differences
    for n, j, k in [(8, 3, 1), (10, 5, 2), (12, 7, 0)]:
        ss = staged_set(n, j, k)
        assert all(t > ss.base * ss.body.elements[-1] for t in ss.tail)
        whole = difference_profile(ss.elements)
        body = difference_profile(ss.body)
        body_diameter = ss.body.diameter
        for x, count in whole.positive.items():
            if x <= body_diameter:
                assert count == body.positive.get(x, 0)
            else:
                assert count == 1


def test_tail_contribution_closed_form():
    for n in range(3, 12):
        for j in range(n):
            b = n - j
            assert tail_contribution(n, j) == sum(4 * s + 1 for s in range(b, n))


# ---------------------------------------------------------------------------
# lacunary swaps
# ---------------------------------------------------------------------------

def test_lacunary_swap_examples():
    assert lacunary_swap([1, 10, 100], 1).elements == (1, 10, 19)
    assert lacunary_swap([1, 10, 100], 0).elements == (1, 10, 100)
    swapped = lacunary_swap([1, 10, 100, 1000, 10000, 100000], 2)
    assert swapped.elements == (1, 10, 19, 1000, 10000, 19000)
    assert energy_oracle(swapped) == 66 + 8


def test_lacunary_swap_validation():
    with pytest.raises(ValueError):
        lacunary_swap([1, 10, 100], 2)
    with pytest.raises(ValueError):
        lacunary_swap([1, 5, 50], 1)  # ratio 5 below the bound
    with pytest.raises(ValueError):
        LacunarySeq(IntSet([1, 10]), ratio=9)
    assert is_lacunary([1, 10, 100]) and not is_lacunary([1, 9, 90])
    assert not is_lacunary([0, 10, 100])  # must be positive


def test_swap_increment_property():
    rng = random.Random(2001)
    for _ in range(40):
        x = random_lacunary(rng, rng.randint(3, 15))
        base = energy_oracle(x)
        for k in range(len(x) // 3 + 1):
            assert energy_oracle(lacunary_swap(x, k)) == base + 4 * k


# ---------------------------------------------------------------------------
# target-energy builder
# ---------------------------------------------------------------------------

def test_dense_ceiling_matches_brute_walk():
    def schedulable(n, t):
        try:
            return build_with_target_energy(n, t).reached
        except ValueError:
            return False

    for n in range(12, 26):
        top = dense_ceiling(n)
        t = 2 * n * n - n
        while schedulable(n, t):
            t += 4
        assert t - 4 == top


def test_admissible_interval_values():
    assert admissible_interval(20) == (846, 930)
    assert admissible_interval(30) == (1836, 2176)
    assert admissible_interval(40) == (3226, 4230)
    with pytest.raises(ValueError):
        admissible_interval(11)


def test_builder_covers_full_dense_band():
    n = 20
    for t in range(2 * n * n - n, dense_ceiling(n) + 1, 4):
        res = build_with_target_energy(n, t)
        assert res.reached
        assert len(res.witness) == n
        assert res.energy == t == energy_oracle(res.witness)


@pytest.mark.slow
def test_builder_reaches_whole_band():
    # every admissible target of the guaranteed band, n = 12..80
    for n in range(12, 81):
        lo, hi = admissible_interval(n)
        for t in range(lo + (n - lo) % 4, hi + 1, 4):
            res = build_with_target_energy(n, t)
            assert res.reached and len(res.witness) == n, (n, t)


def test_builder_unreached_outcome():
    res = build_with_target_energy(20, 1000)
    assert not res.reached
    assert res.energy == 996 == energy_oracle(res.witness)
    assert len(res.witness) == 20
    assert res.target == 1000


def test_builder_hits_coarse_points_above_band():
    # exact coarse values stay reachable above the dense ceiling
    e = staged_energy(20, 12, 0)
    res = build_with_target_energy(20, e)
    assert res.reached and res.swaps == 0


def test_builder_preconditions():
    with pytest.raises(ValueError):
        build_with_target_energy(11, 300)  # too small
    with pytest.raises(ValueError):
        build_with_target_energy(20, 846)  # wrong residue (846 = 2 mod 4)
    with pytest.raises(ValueError):
        build_with_target_energy(20, 776)  # below the minimum 780
    with pytest.raises(ValueError):
        build_with_target_energy(20, max_energy(20))  # progression case excluded


def test_builder_custom_base():
    res = build_with_target_energy(16, 540, base=16)
    assert res.reached and energy_oracle(res.witness) == 540


def test_coarse_chain_has_quadratically_many_values():
    # the stage/shift family alone produces >= n^2/4 distinct energies
    for n in (20, 40, 60):
        seen = set()
        for j in range(n):
            b = n - j
            for k in range(max(1, b - 1)):
                seen.add(staged_energy(n, j, k))
        assert len(seen) >= n * n // 4
