"""Exhaustive spectrum enumeration: pinned values, gaps, coverage."""

from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addenergy import (
    BudgetError,
    IntSet,
    energy_by_quadruples,
    enumerate_spectrum,
    integer_sidon_check,
    residue_check,
    shifted_ap,
    spectrum_gaps,
    staged_energy,
    verify_witnesses,
)


def brute_witnesses(n, diameter_bound):
    """Each energy with its lex-min witness over all gcd-1 sets {0, ..., d},
    reflections included, counted by literal quadruples."""
    found = {}
    for d in range(n - 1, diameter_bound + 1):
        for mid in combinations(range(1, d), n - 2):
            s = (0,) + mid + (d,)
            g = 0
            for v in s:
                g = gcd(g, v)
            if g == 1:
                e = energy_by_quadruples(s)
                found[e] = min(found.get(e, s), s)
    return tuple((e, IntSet._from_sorted(found[e])) for e in sorted(found))


def brute_spectrum(n, diameter_bound):
    """Independent oracle: literal quadruple counting over all normalized sets."""
    return [e for e, _ in brute_witnesses(n, diameter_bound)]


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(n - 1, 16))))
def test_witnesses_are_lex_min(case):
    n, d = case
    want = brute_witnesses(n, d)
    for threads in (1, 2):
        assert enumerate_spectrum(n, d, threads=threads).entries == want


def test_pinned_small_spectra():
    # ground truth first established by the quadruple-counting oracle
    assert brute_spectrum(3, 8) == [15, 19]
    assert brute_spectrum(4, 12) == [28, 32, 36, 44]

    assert enumerate_spectrum(3, 8).energies() == [15, 19]
    assert enumerate_spectrum(4, 12).energies() == [28, 32, 36, 44]
    assert enumerate_spectrum(2, 1).energies() == [6]


def test_enumeration_matches_brute_oracle_n5():
    assert enumerate_spectrum(5, 16).energies() == brute_spectrum(5, 16)


def test_witnesses_and_residues():
    for n, d in [(2, 1), (3, 8), (4, 12), (5, 20)]:
        s = enumerate_spectrum(n, d)
        assert verify_witnesses(s)
        assert residue_check(s)
        assert s.complete
        for _, w in s.entries:
            assert len(w) == n
            assert w.elements[0] == 0 and w.diameter <= d


def test_gap_listing():
    assert [(g.from_energy, g.to_energy, g.gap) for g in spectrum_gaps(enumerate_spectrum(3, 8))] \
        == [(15, 19, 4)]
    assert [(g.from_energy, g.to_energy, g.gap) for g in spectrum_gaps(enumerate_spectrum(4, 12))] \
        == [(28, 32, 4), (32, 36, 4), (36, 44, 8)]


def test_monotone_coverage():
    small = set(enumerate_spectrum(4, 8).energies())
    large = set(enumerate_spectrum(4, 16).energies())
    assert small <= large


def test_min_entry_is_sidon_energy():
    # the bound only needs to admit a size-n Sidon set; 3n^2 blows the work
    # budget at n=6, where diameter 40 is already ample
    for n, d in [(3, 27), (4, 48), (5, 75), (6, 40)]:
        s = enumerate_spectrum(n, d)
        assert s.energies()[0] == 2 * n * n - n
        witness = s.entries[0][1]
        assert integer_sidon_check(witness)


def test_construction_energies_appear_in_spectrum():
    # energies realized by stages and shifts at n=5 all occur within a
    # modest diameter
    n = 5
    attained = set(enumerate_spectrum(n, 3 * n * n).energies())
    for j in range(n):
        b = n - j
        for k in range(max(1, b - 1)):
            assert staged_energy(n, j, k) in attained
    for k in range(1, n - 1):
        from addenergy import energy_oracle
        assert energy_oracle(shifted_ap(n, k)) in attained


def test_parallel_merge_is_deterministic():
    solo = enumerate_spectrum(4, 20, threads=1)
    multi = enumerate_spectrum(4, 20, threads=2)
    assert solo.entries == multi.entries


@pytest.mark.parametrize("threads", [0, -3])
def test_non_positive_threads_rejected(threads):
    with pytest.raises(ValueError):
        enumerate_spectrum(4, 12, threads=threads)


def test_threads_capped_by_diameter_count(monkeypatch):
    # diameters 3 and 4 give two chunks, so at most two workers start
    import concurrent.futures

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    solo = enumerate_spectrum(4, 4, threads=1)
    assert enumerate_spectrum(4, 4, threads=8).entries == solo.entries
    assert started == [2]


def test_budget_and_parameter_validation():
    with pytest.raises(BudgetError):
        enumerate_spectrum(4, 12, budget=100)
    with pytest.raises(ValueError):
        enumerate_spectrum(1, 5)
    with pytest.raises(ValueError):
        enumerate_spectrum(13, 20)
    with pytest.raises(ValueError):
        enumerate_spectrum(4, 2)
    with pytest.raises(ValueError):
        spectrum_gaps(enumerate_spectrum(4, 12).__class__(4, 12, (), True))


@pytest.mark.parametrize("n", range(2, 9))
def test_visit_count_is_hockey_stick(n):
    # the budget's closed form equals the row count summed over diameters
    for d in range(n - 1, n + 30):
        rows = sum(comb(k - 1, n - 2) for k in range(n - 1, d + 1))
        assert rows == comb(d, n - 1)
        with pytest.raises(BudgetError) as exc:
            enumerate_spectrum(n, d, budget=rows - 1)
        assert exc.value.required == rows
    assert enumerate_spectrum(n, n + 2, budget=comb(n + 2, n - 1)).diameter_bound == n + 2


def test_default_diameter_bound_small_n():
    s = enumerate_spectrum(3)
    assert s.diameter_bound == 27
    assert s.energies() == [15, 19]
