"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its runtime when it succeeds; run
with `pytest -s tests/test_acceptance.py` to see the table.  Tolerances and
thresholds are pinned here, not configurable.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd

from addenergy import (
    GroupSet,
    GroupSpec,
    IntSet,
    admissible_interval,
    build_with_target_energy,
    cauchy_bound_check,
    density_curve,
    energy_by_quadruples,
    energy_oracle,
    enumerate_spectrum,
    group_energy,
    is_sidon,
    lacunary_swap,
    max_energy,
    min_ratio_empirical,
    product_energy,
    product_energy_oracle,
    product_set,
    ratio_chain,
    residue_check,
    shifted_ap,
    sidon_parabola,
)


def report(number, description, started, limit):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s (limit {limit}s)"
    print(f"PASS  criterion {number:>2}: {description} ({elapsed:.2f}s < {limit}s)")


def test_criterion_1_max_energy_formula():
    t0 = time.perf_counter()
    for n in range(1, 201):
        ap = IntSet(range(1, n + 1))
        assert energy_oracle(ap) == n * n + (n - 1) * n * (2 * n - 1) // 3
    report(1, "progression energy equals the closed formula for n <= 200", t0, 10)


def test_criterion_2_mod4_congruence():
    t0 = time.perf_counter()
    rng = random.Random(20240)
    span = 10**9
    for _ in range(10_000):
        size = rng.randint(1, 50)
        a = IntSet(rng.sample(range(-span, span + 1), size))
        assert energy_oracle(a) % 4 == len(a) % 4
    report(2, "E(A) = |A| mod 4 on 10^4 random sets, zero exceptions", t0, 30)


def test_criterion_3_drop_and_gap_formulas():
    t0 = time.perf_counter()
    for n in range(3, 31):
        energies = {k: energy_oracle(shifted_ap(n, k)) for k in range(1, n - 1)}
        for k, e in energies.items():
            assert max_energy(n) - e == 4 * n * k - 2 * k * k - 6 * k
        for k in range(1, n - 2):
            assert energies[k] - energies[k + 1] == 4 * n - 4 * k - 8
    report(3, "shift drop 4nk-2k^2-6k and gap 4n-4k-8, exact for n <= 30", t0, 5)


def test_criterion_4_swap_increment():
    t0 = time.perf_counter()
    rng = random.Random(20241)
    for _ in range(100):
        m = rng.randint(3, 15)
        x = [rng.randint(1, 50)]
        for _ in range(m - 1):
            x.append(x[-1] * rng.randint(10, 20))
        previous = energy_oracle(x)
        for k in range(1, m // 3 + 1):
            current = energy_oracle(lacunary_swap(x, k))
            assert current - previous == 4
            previous = current
    report(4, "every swap on 100 random lacunary sequences adds exactly +4", t0, 10)


def test_criterion_5_builder_soundness_and_coverage():
    t0 = time.perf_counter()
    rng = random.Random(20242)
    for n in (20, 30, 40):
        lo, hi = admissible_interval(n)
        count = (hi - lo) // 4 + 1
        for _ in range(50):
            target = lo + 4 * rng.randrange(count)
            result = build_with_target_energy(n, target)
            # the band is a guarantee, and every witness is recounted
            assert result.reached, f"n={n}: target {target} missed"
            assert len(result.witness) == n
            assert energy_oracle(result.witness) == target
    report(5, "builder reaches all 150 sampled band targets, all verified", t0, 120)


def test_criterion_6_spectrum_ground_truth():
    t0 = time.perf_counter()

    def brute(n, diameter_bound):
        energies = set()
        for d in range(n - 1, diameter_bound + 1):
            for mid in combinations(range(1, d), n - 2):
                s = (0,) + mid + (d,)
                g = 0
                for v in s:
                    g = gcd(g, v)
                if g == 1:
                    energies.add(energy_by_quadruples(s))
        return sorted(energies)

    assert brute(3, 8) == [15, 19]
    assert brute(4, 12) == [28, 32, 36, 44]
    s3 = enumerate_spectrum(3, 8)
    s4 = enumerate_spectrum(4, 12)
    assert s3.energies() == [15, 19]
    assert s4.energies() == [28, 32, 36, 44]
    assert residue_check(s3) and residue_check(s4)
    report(6, "spectra at (3,8) and (4,12) match the quadruple-count oracle", t0, 10)


def test_criterion_7_multiplicativity():
    t0 = time.perf_counter()
    rng = random.Random(20243)
    checked = 0
    while checked < 200:
        m = rng.randint(2, 12)
        dims = rng.randint(1, 4)
        factors = [rng.sample(range(m), rng.randint(1, m)) for _ in range(dims)]
        p = product_set(factors, m)
        if p.size > 10_000:
            continue
        assert product_energy(p) == product_energy_oracle(p)
        checked += 1
    for k in (1, 2, 3):
        assert product_energy_oracle(product_set([[0, 1]] * k, 2)) == 6**k
    report(7, "product energy = oracle on 200 random lists; E(cube^k) = 6^k", t0, 60)


def test_criterion_8_ratio_chain():
    t0 = time.perf_counter()
    chain = ratio_chain(20, 3)
    assert len(chain.sets) >= 50, f"only {len(chain.sets)} sets"
    assert all(p.size == 20**3 for p in chain.sets)
    bound = 1 + Fraction(360, 20**3)
    assert bound == Fraction(1045, 1000)
    assert all(r <= bound for r in chain.ratios)
    report(8, f"ratio chain at w=20 emits {len(chain.sets)} sets, ratios <= 1.045", t0, 120)


def test_criterion_9_sidon_suite():
    t0 = time.perf_counter()
    for p in (3, 5, 7, 11, 13):
        s = sidon_parabola(p)
        assert is_sidon(s)
        assert group_energy(s) == 2 * p * p - p
    report(9, "parabola sets are Sidon with energy 2p^2-p for p in {3..13}", t0, 10)


def test_criterion_10_density_tradeoff():
    t0 = time.perf_counter()
    curves = {p: density_curve(4, p) for p in (5, 101, 1009)}
    for k in (1, 2, 3):
        g5, g101, g1009 = (curves[p][k].bound_gap for p in (5, 101, 1009))
        assert g5 > g101 > g1009

    rng = random.Random(20244)
    for _ in range(1000):
        spec = GroupSpec(tuple(rng.randint(2, 9)
                               for _ in range(rng.randint(1, 3))))
        pool = list(spec.elements())
        a = GroupSet.of(spec, rng.sample(pool, rng.randint(1, min(len(pool), 30))))
        assert cauchy_bound_check(a)
    report(10, "tradeoff gap shrinks with p; Cauchy bound exact on 10^3 sets", t0, 60)


def test_criterion_11_min_ratio():
    t0 = time.perf_counter()
    result = min_ratio_empirical(4, 3, 2)
    assert result.factor_energies == (15, 19)
    assert result.min_ratio == Fraction(19, 15)
    report(11, "min consecutive product-energy ratio at (4,3,2) is 19/15", t0, 5)
