"""One-shot invariant battery behind the `verify` subcommand.

Each check runs a quick, seeded sweep of one module invariant and reports a
single pass/fail line.  These are smoke-scale versions of the full test
suite, meant to validate an installation in seconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import constructions as cons
from . import groups, products, spectrum
from .intset import (
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

SUITES = ("core", "constructions", "spectrum", "products", "groups")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str


def _random_set(rng: random.Random, max_size: int = 24, span: int = 10**6) -> IntSet:
    size = rng.randint(1, max_size)
    return IntSet(rng.sample(range(-span, span), size))


def _check_core(rng: random.Random):
    sets = [_random_set(rng) for _ in range(60)]
    three_way = all(
        energy_oracle(a)
        == energy_from_profile(difference_profile(a))
        == _incremental_total(a)
        for a in sets
    )
    yield "three-way energy agreement", three_way, f"{len(sets)} random sets"

    quad = all(energy_by_quadruples(a) == energy_oracle(a)
               for a in sets if len(a) <= 12)
    yield "quadruple-loop cross-check", quad, "sizes <= 12"

    bounds = all(len(a) ** 2 <= energy_oracle(a) <= len(a) ** 3 for a in sets)
    yield "n^2 <= E <= n^3", bounds, ""

    mod4 = all(energy_oracle(a) % 4 == len(a) % 4 for a in sets)
    yield "E = n mod 4", mod4, ""

    affine = all(
        energy_oracle(affine_image(a, s, b)) == energy_oracle(a)
        and normalize(affine_image(a, s, b)) == normalize(a)
        for a in sets if len(a) >= 2
        for s, b in [(rng.choice([-3, -1, 2, 7]), rng.randint(-50, 50))]
    )
    yield "affine invariance", affine, ""

    mass = all(
        difference_profile(a).total_pairs == len(a) * (len(a) - 1) // 2
        for a in sets
    )
    yield "profile mass n(n-1)/2", mass, ""


def _incremental_total(a: IntSet) -> int:
    els = a.elements
    if not els:
        return 0
    e = 1
    for i in range(1, len(els)):
        e = incremental_energy_extend(els[:i], e, els[i])
    return e


def _check_constructions(rng: random.Random):
    drops = all(
        max_energy(n) - energy_oracle(cons.shifted_ap(n, k)) == cons.energy_drop(n, k)
        for n in range(3, 16) for k in range(1, n - 1)
    )
    yield "shift drop formula", drops, "n <= 15"

    gaps = all(
        energy_oracle(cons.shifted_ap(n, k)) - energy_oracle(cons.shifted_ap(n, k + 1))
        == 4 * n - 4 * k - 8
        for n in range(4, 16) for k in range(1, n - 2)
    )
    yield "consecutive shift gap 4n-4k-8", gaps, ""

    ok = True
    for _ in range(15):
        m = rng.randint(3, 12)
        x = [rng.randint(1, 9)]
        for _ in range(m - 1):
            x.append(x[-1] * rng.randint(10, 14))
        base_e = energy_oracle(x)
        for k in range(m // 3 + 1):
            ok = ok and energy_oracle(cons.lacunary_swap(x, k)) == base_e + 4 * k
    yield "lacunary swap adds +4", ok, "15 random sequences"

    n = 16
    lo, hi = cons.admissible_interval(n)
    built = all(cons.build_with_target_energy(n, t).reached for t in range(lo, hi + 1, 4))
    yield "builder covers dense band", built, f"n={n}"


def _check_spectrum(rng: random.Random):
    s3 = spectrum.enumerate_spectrum(3, 8)
    s4 = spectrum.enumerate_spectrum(4, 12)
    yield "pinned small spectra", (
        s3.energies() == [15, 19] and s4.energies() == [28, 32, 36, 44]
    ), "n=3,4"
    yield "witness energies recomputed", (
        spectrum.verify_witnesses(s3) and spectrum.verify_witnesses(s4)
    ), ""
    yield "residue classes", (
        spectrum.residue_check(s3) and spectrum.residue_check(s4)
    ), ""


def _check_products(rng: random.Random):
    ok = True
    for _ in range(25):
        m = rng.randint(2, 6)
        dims = rng.randint(1, 3)
        factors = [rng.sample(range(m), rng.randint(1, m)) for _ in range(dims)]
        p = products.product_set(factors, m)
        if p.size > 400:
            continue
        ok = ok and products.product_energy(p) == products.product_energy_oracle(p)
    yield "energy multiplicativity", ok, "25 random factor lists"

    rep = products.cube_energy_exponent(3)
    yield "cube exponent cap", rep.max_exponent <= rep.exponent_limit + 1e-12, "k=3"

    mr = products.min_ratio_empirical(4, 3, 2)
    yield "min ratio 19/15", mr.min_ratio == Fraction(19, 15), "M=4 w=3 n=2"


def _check_groups(rng: random.Random):
    sidon = all(
        groups.is_sidon(groups.sidon_parabola(p))
        and groups.group_energy(groups.sidon_parabola(p)) == groups.sidon_energy(p)
        for p in (3, 5, 7, 11, 13)
    )
    yield "parabola Sidon suite", sidon, "p in 3..13"

    ok = True
    for _ in range(100):
        spec = groups.GroupSpec(tuple(rng.randint(2, 9)
                                      for _ in range(rng.randint(1, 3))))
        pool = list(spec.elements())
        a = groups.GroupSet.of(spec, rng.sample(pool, rng.randint(1, min(len(pool), 20))))
        prof = groups.sum_profile(a)
        ok = ok and sum(prof.values()) == len(a) ** 2
        ok = ok and groups.cauchy_bound_check(a)
    yield "profile mass and Cauchy bound", ok, "100 random group sets"

    full = all(groups.group_energy(groups.GroupSet.full(groups.GroupSpec((m,)))) == m**3
               for m in range(2, 13))
    yield "full-group energy M^3", full, "M <= 12"


_CHECKS = {
    "core": _check_core,
    "constructions": _check_constructions,
    "spectrum": _check_spectrum,
    "products": _check_products,
    "groups": _check_groups,
}


def run_suite(suite: str = "all", seed: int = 0) -> list[CheckResult]:
    names = list(SUITES) if suite == "all" else [suite]
    if any(n not in _CHECKS for n in names):
        raise ValueError(f"unknown suite {suite!r}; choose from {('all',) + SUITES}")
    results = []
    for name in names:
        rng = random.Random(seed)
        for check, ok, detail in _CHECKS[name](rng):
            results.append(CheckResult(name, check, bool(ok), detail))
    return results
