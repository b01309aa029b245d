"""Coordinatewise products: multiplicativity, cube exponent, ratio chains."""

import random
import subprocess
import sys
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest

from addenergy import (
    ProductSet,
    cube_energy_exponent,
    materialize,
    min_ratio_empirical,
    product_energy,
    product_energy_oracle,
    product_set,
    ratio_chain,
)
from addenergy import BudgetError, intset
from addenergy.products import _encode


def random_factor_list(rng, max_alphabet=12, max_dims=4, size_cap=10_000):
    while True:
        m = rng.randint(2, max_alphabet)
        dims = rng.randint(1, max_dims)
        factors = [rng.sample(range(m), rng.randint(1, m)) for _ in range(dims)]
        size = 1
        for f in factors:
            size *= len(f)
        if size <= size_cap:
            return product_set(factors, m)


def test_product_energy_examples():
    assert product_energy(product_set([[0, 1], [0, 1]])) == 36
    assert product_energy(product_set([[0, 1, 2]])) == 19
    assert product_energy(product_set([[0, 1, 3], [0, 1, 3], [0, 1]])) == 15 * 15 * 6 == 1350


def test_product_oracle_examples():
    assert product_energy_oracle(product_set([[0, 1], [0, 1]])) == 36
    assert product_energy_oracle(product_set([[0, 1, 2]])) == 19
    assert product_energy_oracle(product_set([[0, 1, 3], [0, 1]])) == 90


def test_product_validation():
    with pytest.raises(ValueError):
        ProductSet(1, (product_set([[0]]).factors[0],))
    with pytest.raises(ValueError):
        product_set([[0, 5]], alphabet_size=3)
    # the alphabet is read through operator.index: a float is refused, never
    # used to build float codes
    for bad in (2.5, 3.0, np.float64(3.0), "3"):
        with pytest.raises(ValueError):
            product_set([[0, 1], [0, 1]], bad)
    assert type(product_set([[0, 1]], np.int64(3)).alphabet_size) is int
    with pytest.raises(ValueError):
        product_set([])
    big = product_set([list(range(10))] * 5, 10)
    with pytest.raises(ValueError):
        product_energy_oracle(big)  # 10^5 tuples exceeds the cap
    with pytest.raises(ValueError):
        materialize(big)


def test_size_law_and_materialize():
    p = product_set([[0, 1, 3], [0, 2], [1]], 4)
    assert p.size == 6 and p.dimension == 3
    tuples = materialize(p)
    assert len(tuples) == 6 and len(set(tuples)) == 6
    assert all(len(t) == 3 for t in tuples)


def test_multiplicativity_random_sweep():
    rng = random.Random(3001)
    for _ in range(60):
        p = random_factor_list(rng, size_cap=2500)
        assert product_energy(p) == product_energy_oracle(p)


def test_multiplicativity_against_plain_tuple_count():
    # second independent route: raw tuple-sum counting, no digit encoding
    rng = random.Random(3002)
    for _ in range(10):
        p = random_factor_list(rng, max_alphabet=5, max_dims=3, size_cap=60)
        tuples = materialize(p)
        counts = {}
        for a in tuples:
            for b in tuples:
                s = tuple(x + y for x, y in zip(a, b))
                counts[s] = counts.get(s, 0) + 1
        assert product_energy(p) == sum(c * c for c in counts.values())


def test_mod4_transfer():
    rng = random.Random(3003)
    for _ in range(30):
        m = rng.randint(2, 8)
        w = rng.randint(1, m)
        dims = rng.randint(1, 4)
        factors = [rng.sample(range(m), w) for _ in range(dims)]
        e = product_energy(product_set(factors, m))
        assert e % 4 == pow(w, dims, 4)


def test_cube_energy_exponent():
    r1 = cube_energy_exponent(1)
    assert r1.cube_energy == 6
    assert r1.max_exponent == pytest.approx(r1.exponent_limit)

    assert cube_energy_exponent(2).cube_energy == 36
    r3 = cube_energy_exponent(3)
    assert r3.cube_energy == 216
    assert r3.max_exponent <= r3.exponent_limit + 1e-12

    r9 = cube_energy_exponent(9)
    assert r9.cube_energy == 6**9 and r9.max_exponent is None
    with pytest.raises(ValueError):
        cube_energy_exponent(0)


def test_products_load_no_numpy():
    # the encoder and the cube exponent are pure Python, and energy_oracle
    # counts fewer than 32 codes by its Counter, so neither loads numpy
    probe = ("import sys\n"
             "from addenergy import (cube_energy_exponent, product_energy,\n"
             "                       product_energy_oracle, product_set)\n"
             "assert cube_energy_exponent(3).max_exponent is not None\n"
             "p = product_set([[0, 1, 3], [0, 2], [1, 4, 5]], 6)\n"
             "assert p.size < 32 and product_energy_oracle(p) == product_energy(p)\n"
             "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["False"]


def test_full_cube_energy_by_materialized_count():
    for k in (1, 2, 3):
        p = product_set([[0, 1]] * k, 2)
        assert product_energy_oracle(p) == 6**k


def test_min_ratio_exhaustive():
    res = min_ratio_empirical(4, 3, 2)
    assert res.factor_energies == (15, 19)
    assert res.products == (225, 285, 361)
    assert res.min_ratio == Fraction(19, 15)
    assert not res.degenerate


def test_min_ratio_degenerate_cases():
    assert min_ratio_empirical(3, 3, 2).degenerate
    assert min_ratio_empirical(3, 2, 2).degenerate
    for alphabet, factor, dimension in ((6, 3, 2), (4, 3, 5), (4, 0, 2), (4, -1, 2)):
        with pytest.raises(ValueError, match="factor_size|dimension"):
            min_ratio_empirical(alphabet, factor, dimension)


def test_ratio_chain_small():
    chain = ratio_chain(12, 2)
    assert len(chain.sets) >= 2
    assert all(p.size == 12**2 for p in chain.sets)
    assert chain.energies == tuple(sorted(chain.energies))
    assert all(r > 1 for r in chain.ratios)
    assert all(r <= chain.ratio_bound for r in chain.ratios)
    assert chain.ratio_bound == 1 + Fraction(360, 12**3)
    # consecutive factor energies step by 4
    diffs = {b - a for a, b in zip(chain.factor_energies, chain.factor_energies[1:])}
    assert diffs == {4}
    # the chain stops at the first unreachable target and reports it
    assert len(chain.misses) == 1
    assert chain.misses[0] == chain.factor_energies[-1] + 4


def test_ratio_chain_shares_leading_factors():
    chain = ratio_chain(12, 3)
    first = chain.sets[0].factors[0]
    for p in chain.sets:
        assert p.factors[:-1] == (first,) * 2
    with pytest.raises(ValueError):
        ratio_chain(11, 2)
    with pytest.raises(ValueError):
        ratio_chain(12, 1)


def test_ratio_chain_budget_counts_its_builds(monkeypatch):
    # w = 12 targets floor(12^3 / 30) = 57 builds, counted before the first
    with pytest.raises(BudgetError) as info:
        ratio_chain(12, 2, budget=56)
    assert (info.value.required, info.value.budget) == (57, 56)
    assert ratio_chain(12, 2, budget=57) == ratio_chain(12, 2)
    monkeypatch.setenv("ADDENERGY_BUDGET", "56")
    with pytest.raises(BudgetError):
        ratio_chain(12, 2)
    with pytest.raises(BudgetError):
        ratio_chain(1000, 2, budget=10**7)


def record_code_routes(monkeypatch):
    """Record "hashed" and "counter" for each count of codes past 2^62 or
    below 32 elements."""
    routes = []
    for name, label in (("_energy_counter", "counter"), ("_energy_hashed", "hashed")):
        def spy(els, real=getattr(intset, name), label=label):
            routes.append(label)
            return real(els)

        monkeypatch.setattr(intset, name, spy)
    return routes


def test_oracle_python_fallback_path(monkeypatch):
    routes = record_code_routes(monkeypatch)
    # alphabet too large to encode into int64 forces the big-int route
    p = product_set([[0, 1, 10**18], [0, 10**17]], 10**18 + 1)
    assert product_energy_oracle(p) == product_energy(p) == 15 * 6
    # 42 codes reach past 2^62: energy_oracle hashes them, as n >= 32
    p = product_set([[0, 1, 2, 3, 4, 5, 2**32 - 1], [0, 1, 2, 3, 4, 2**32 - 1]])
    assert max(_encode(p)) >= 2**62
    routes.clear()
    assert product_energy_oracle(p) == product_energy(p)
    assert routes == ["hashed", "counter", "counter"]


@pytest.mark.slow
def test_oracle_hashes_wide_products_of_any_size(monkeypatch):
    # 68 x 68 = 4,624 codes past 2^62, 10.7 * 10^6 unordered pairs: counted
    # on the hashed route, as every code set past 2^62 of 32 or more is
    letters = sorted(random.Random(68).sample(range(2**40), 68))
    p = product_set([letters, letters], 2**40)
    routes = record_code_routes(monkeypatch)
    assert product_energy_oracle(p) == product_energy(p)
    assert routes == ["hashed"]


def encode_by_loop(p):
    """The codes as the tuple-by-tuple loop builds them: digits in radix 2M - 1."""
    radix = 2 * p.alphabet_size - 1
    codes = []
    for tup in materialize(p):
        c = 0
        for digit in tup:
            c = c * radix + digit
        codes.append(c)
    return codes


@pytest.mark.parametrize("factors, alphabet", [
    # d = 1, 2, 3 with 32 tuples or more
    ([range(0, 48, 2)] * 2 + [[5]], 48),
    ([range(40)], 40),
    ([[0, 3, 7, 47], range(0, 48, 3)], 48),
    ([[1, 2, 9], range(10), [0, 4, 8, 9]], 10),
    # under 32 tuples
    ([[0, 1], [0, 2, 3]], 4),
    # alphabet 2^20: radix^3 = (2^21 - 1)^3 < 2^63, codes up to just below 2^63
    ([[0, 2**20 - 1], range(0, 2**20, 2**15), [0, 1]], 2**20),
    # one letter more: radix^3 = (2^21 + 1)^3 >= 2^63, codes past 2^63
    ([[0, 2**20 - 1], range(0, 2**20, 2**15), [0, 1]], 2**20 + 1),
    ([[0, 1, 10**18], [0, 10**17]], 10**18 + 1),
])
def test_encode_matches_the_loop(factors, alphabet):
    p = product_set(factors, alphabet)
    codes = _encode(p)
    assert codes == encode_by_loop(p)
    assert all(type(c) is int for c in codes)
    assert codes == sorted(set(codes))  # lexicographic order: ascending, distinct
