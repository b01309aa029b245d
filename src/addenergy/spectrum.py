"""Exhaustive enumeration of attainable energies at fixed set size.

Energies are affine-invariant, so only sets of minimum 0 are visited, and of
each set and its reflection only the lexicographically smaller one.  A set
of gcd g > 1 is never recorded: its quotient by g, also visited, has the
same energy and is lexicographically smaller.  The search is bounded by a
maximum diameter; the ``complete`` flag refers to the searched region only,
since a set whose normalized diameter exceeds the bound is never visited.

Each energy gets its lexicographically smallest witness: one ``np.unique``
picks it per block of candidate rows, and merges keep the smaller witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

import numpy as np

from .errors import BudgetError, default_budget
from .intset import IntSet, energy_oracle

MAX_SPECTRUM_SIZE = 12
_CHUNK = 65536


@dataclass(frozen=True)
class EnergySpectrum:
    """Sorted attainable energies with one normalized witness each."""

    n: int
    diameter_bound: int
    entries: tuple[tuple[int, IntSet], ...]
    complete: bool

    def energies(self) -> list[int]:
        return [e for e, _ in self.entries]

    def to_json(self) -> dict:
        gaps = spectrum_gaps(self)
        gap_by_from = {g.from_energy: g.gap for g in gaps}
        return {
            "n": self.n,
            "diameter_bound": self.diameter_bound,
            "complete": self.complete,
            "entries": [
                {"energy": str(e), "witness": w.to_json(),
                 "gap_to_next": gap_by_from.get(e)}
                for e, w in self.entries
            ],
        }


@dataclass(frozen=True)
class GapEntry:
    from_energy: int
    to_energy: int
    gap: int


def default_diameter_bound(n: int) -> int:
    """3n^2 empirically reaches the minimum-energy sets for small n."""
    return 3 * n * n


def _batch_energies(rows: np.ndarray) -> np.ndarray:
    """Energies of many small-integer sets at once.

    Sorts each row of pairwise ordered sums and turns run lengths L into
    sum(L^2) via the identity sum over positions of (2*offset_in_run + 1).
    In int64, sums are at most 2*diameter_bound and energies at most
    n^3 <= 12^3 = 1728.
    """
    m, n = rows.shape
    sums = (rows[:, :, None] + rows[:, None, :]).reshape(m, n * n)
    sums.sort(axis=1)
    cols = np.arange(n * n)
    new_run = np.ones((m, n * n), dtype=bool)
    new_run[:, 1:] = sums[:, 1:] != sums[:, :-1]
    run_start = np.maximum.accumulate(np.where(new_run, cols, 0), axis=1)
    return np.sum(2 * (cols - run_start) + 1, axis=1)


def enumerate_spectrum(n: int, diameter_bound: int | None = None,
                       budget: int | None = None, threads: int = 1) -> EnergySpectrum:
    """Each energy of an n-element set {0, ..., d}, d <= diameter_bound, with
    its lexicographically smallest witness, which is normalized; any partition
    of the work yields identical output.  The budget counts all
    comb(diameter_bound, n - 1) such sets, the sum over d by the hockey stick.
    """
    if not 2 <= n <= MAX_SPECTRUM_SIZE:
        raise ValueError(f"spectrum enumeration supports 2 <= n <= {MAX_SPECTRUM_SIZE}")
    if diameter_bound is None:
        diameter_bound = default_diameter_bound(n)
    if diameter_bound < n - 1:
        raise ValueError("diameter bound below the minimum diameter n-1")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if budget is None:
        budget = default_budget()
    visits = comb(diameter_bound, n - 1)
    if visits > budget:
        raise BudgetError(visits, budget, f"spectrum(n={n}, diameter={diameter_bound})")

    diameters = list(range(n - 1, diameter_bound + 1))
    workers = min(threads, len(diameters))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        chunks = [diameters[i::workers] for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = pool.map(_spectrum_chunk, [(n, c) for c in chunks])
        partials = list(results)
    else:
        partials = [_spectrum_chunk((n, diameters))]
    merged: dict[int, tuple[int, ...]] = {}
    for part in partials:
        _keep_min(merged, part.items())
    entries = tuple((e, IntSet._from_sorted(merged[e])) for e in sorted(merged))
    return EnergySpectrum(n, diameter_bound, entries, complete=True)


def _keep_min(found: dict[int, tuple[int, ...]], pairs) -> None:
    """Merge (energy, witness) pairs into found, keeping lex-smaller witnesses."""
    for e, w in pairs:
        if e not in found or w < found[e]:
            found[e] = w


def _spectrum_chunk(args: tuple[int, list[int]]) -> dict[int, tuple[int, ...]]:
    """Energies of sets {0, ..., d} <= their mirror, d in diameters, with
    lex-min witnesses.  ``combinations`` yields rows in lex order and the
    mask keeps it, so ``np.unique``'s first index is the block's lex-min row.
    """
    n, diameters = args
    found: dict[int, tuple[int, ...]] = {}
    for d in diameters:
        middles = combinations(range(1, d), n - 2)
        while block := list(islice(middles, _CHUNK)):
            rows = np.zeros((len(block), n), dtype=np.int64)
            rows[:, 1:-1] = block
            rows[:, -1] = d
            # keep rows that are lexicographically <= their mirror
            diff = rows - (d - rows[:, ::-1])
            first = np.argmax(diff != 0, axis=1)
            rows = rows[diff[np.arange(len(rows)), first] <= 0]
            energies, index = np.unique(_batch_energies(rows), return_index=True)
            _keep_min(found, zip(energies.tolist(), map(tuple, rows[index].tolist())))
    return found


def spectrum_gaps(s: EnergySpectrum) -> list[GapEntry]:
    """Consecutive differences between the recorded energies."""
    if not s.entries:
        raise ValueError("empty spectrum has no gaps")
    energies = s.energies()
    return [GapEntry(a, b, b - a) for a, b in zip(energies, energies[1:])]


def residue_check(s: EnergySpectrum) -> bool:
    """True iff every recorded energy is congruent to n mod 4."""
    return all(e % 4 == s.n % 4 for e, _ in s.entries)


def verify_witnesses(s: EnergySpectrum) -> bool:
    """Recompute each witness's energy by direct counting."""
    return all(energy_oracle(w) == e for e, w in s.entries)
