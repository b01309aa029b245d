"""Exact additive-energy primitives for finite integer sets.

The additive energy E(A) of a finite integer set A is the number of ordered
quadruples (a1, a2, a3, a4) in A^4 with a1 + a2 = a3 + a4.  This module
computes it by three mutually checking routes:

  * direct counting over the sum multiset (``energy_oracle``),
  * the difference-profile identity E = n^2 + 2 * sum d+(x)^2
    (``difference_profile`` + ``energy_from_profile``),
  * an incremental formula for appending one element past the maximum
    (``incremental_energy_extend``).

All arithmetic is exact.  Elements are arbitrary-precision Python ints; a
numpy fast path counts the offsets x - min(A), taken only when the diameter
is below 2^62 so that every pair sum of offsets fits in int64.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator, Mapping

import numpy as np

# a diameter below this bound keeps every offset pair sum inside int64
_INT64_SAFE = 2**62
# below this size the pure-Python Counter path wins anyway
_NUMPY_MIN_SIZE = 32
# most pair sums, and most bincount bins, held at once on the bincount route
_PAIR_BLOCK = 8_000_000
# largest set the O(n^4) quadruple count accepts
_QUADRUPLE_CAP = 40


class IntSet:
    """Finite set of distinct integers, stored as a sorted ascending tuple.

    Instances are immutable value objects: construction sorts and
    deduplicates, so the strictly-increasing invariant holds structurally.
    """

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[int] = ()):
        self.elements: tuple[int, ...] = tuple(sorted({int(x) for x in elements}))

    @classmethod
    def _from_sorted(cls, elements: tuple[int, ...]) -> "IntSet":
        """Trusted constructor for tuples already sorted strictly ascending."""
        s = cls.__new__(cls)
        s.elements = elements
        return s

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x: object) -> bool:
        i = bisect_left(self.elements, x)
        return i < len(self.elements) and self.elements[i] == x

    def __getitem__(self, i):
        return self.elements[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntSet) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"IntSet({list(self.elements)!r})"

    @property
    def diameter(self) -> int:
        """max - min; 0 for sets with fewer than two elements."""
        if len(self.elements) < 2:
            return 0
        return self.elements[-1] - self.elements[0]

    def to_json(self) -> list[str]:
        """Decimal-string array, ascending (strings preserve precision)."""
        return [str(x) for x in self.elements]

    @classmethod
    def from_json(cls, data: Iterable[int | str]) -> "IntSet":
        return cls(int(x) for x in data)


@dataclass(frozen=True)
class DifferenceProfile:
    """Counts of positive differences of a set: positive[x] = d+(x).

    d+(x) is the number of pairs a1 < a2 with a2 - a1 = x.  The two-sided
    difference count d(x) equals d+(|x|) for x != 0 and n at x = 0; only the
    positive side is stored, the mirror is applied on read.
    """

    n: int
    positive: Mapping[int, int]

    def d_plus(self, x: int) -> int:
        if x <= 0:
            raise ValueError("d+ is defined for positive differences only")
        return self.positive.get(x, 0)

    def d(self, x: int) -> int:
        if x == 0:
            return self.n
        return self.positive.get(abs(x), 0)

    @property
    def total_pairs(self) -> int:
        """Sum of d+(x); equals n(n-1)/2 for a valid profile."""
        return sum(self.positive.values())

    @property
    def diameter(self) -> int:
        return max(self.positive) if self.positive else 0

    def to_json(self) -> dict:
        return {"n": self.n, "positive": {str(x): c for x, c in sorted(self.positive.items())}}

    @classmethod
    def from_json(cls, data: Mapping) -> "DifferenceProfile":
        return cls(int(data["n"]), {int(x): int(c) for x, c in data["positive"].items()})


def _as_intset(a) -> IntSet:
    return a if isinstance(a, IntSet) else IntSet(a)


def _int64_safe(elements) -> bool:
    """Diameter test of a sorted sequence: offsets fit int64 with pair sums."""
    return elements[-1] - elements[0] < _INT64_SAFE


def _energy_numpy(elements: tuple[int, ...]) -> int:
    """Sum-multiset count of the offsets x - min, for ``_int64_safe`` sets.

    Offsets lie in [0, 2^62), so pair sums lie in [0, 2^63).  If 2*diameter
    < min(n^2, ``_PAIR_BLOCK``), ``np.bincount`` counts them into 2*diameter+1
    bins, in row blocks of at most ``_PAIR_BLOCK`` sums; else one ``np.unique``
    does.  Each r(s) <= n, and sum r(s)^2 = E <= n^3 fits int64 for n < 2^21.
    """
    m = elements[0]
    arr = np.array([x - m for x in elements], dtype=np.int64)
    n, diameter = len(arr), elements[-1] - m
    if 2 * diameter < min(n * n, _PAIR_BLOCK):
        bins = 2 * diameter + 1
        step = max(1, _PAIR_BLOCK // n)
        counts = np.zeros(bins, dtype=np.int64)
        for lo in range(0, n, step):  # a block built in the call dies before the next
            counts += np.bincount((arr[lo:lo + step, None] + arr[None, :]).ravel(),
                                  minlength=bins)
    else:
        _, counts = np.unique(arr[:, None] + arr[None, :], return_counts=True)
    return int(np.dot(counts, counts))


def energy_oracle(a) -> int:
    """Additive energy by direct counting over the sum multiset.

    For each attainable sum s the number r(s) of ordered pairs summing to s
    is counted; the energy is sum r(s)^2.  This is the reference method every
    other energy route is checked against.  Sets of ``_NUMPY_MIN_SIZE`` or
    more elements and diameter below 2^62 go to ``_energy_numpy``; the rest
    to a Counter.
    """
    s = _as_intset(a)
    els = s.elements
    n = len(els)
    if n == 0:
        return 0
    if n >= _NUMPY_MIN_SIZE and _int64_safe(els):
        return _energy_numpy(els)
    counts: Counter = Counter()
    for i, x in enumerate(els):
        counts[2 * x] += 1
        for y in els[i + 1:]:
            counts[x + y] += 2
    return sum(c * c for c in counts.values())


def energy_by_quadruples(a) -> int:
    """Literal quadruple count; independent cross-check, O(n^4), n <= 40."""
    s = _as_intset(a)
    els = s.elements
    if len(els) > _QUADRUPLE_CAP:
        raise ValueError(f"quadruple counting is capped at {_QUADRUPLE_CAP} elements")
    count = 0
    for a1 in els:
        for a2 in els:
            t = a1 + a2
            for a3 in els:
                if t - a3 in s:
                    count += 1
    return count


def difference_profile(a) -> DifferenceProfile:
    """All positive pairwise differences with multiplicities."""
    s = _as_intset(a)
    els = s.elements
    pos: Counter = Counter()
    for i, x in enumerate(els):
        for y in els[i + 1:]:
            pos[y - x] += 1
    return DifferenceProfile(len(els), dict(pos))


def energy_from_profile(p: DifferenceProfile) -> int:
    """E = n^2 + 2 * sum of d+(x)^2 over positive differences."""
    return p.n * p.n + 2 * sum(c * c for c in p.positive.values())


def max_energy(n: int) -> int:
    """Largest energy of an n-element integer set: n^2 + (n-1)n(2n-1)/3.

    Attained exactly by arithmetic progressions.  The product
    (n-1)n(2n-1) is always divisible by 3, so the value is an exact integer.
    """
    if n < 0:
        raise ValueError("set size must be nonnegative")
    return n * n + (n - 1) * n * (2 * n - 1) // 3


def affine_image(a, scale: int, shift: int) -> IntSet:
    """The set {scale*x + shift}; energy is invariant for scale != 0."""
    if scale == 0:
        raise ValueError("scale 0 collapses the set")
    s = _as_intset(a)
    return IntSet(scale * x + shift for x in s.elements)


def incremental_energy_extend(a, energy_a: int, a_new: int) -> int:
    """Energy after appending a_new > max(A), from the energy of A.

    The increment is 4n + 4*sum(t_j) + 1 where t_j = d+(a_new - a_j) is read
    from the difference profile of A.  That profile is rebuilt on each call,
    so a call costs O(n^2), not O(n).  Requires |A| >= 1.
    """
    s = _as_intset(a)
    if len(s) < 1:
        raise ValueError("need a nonempty base set")
    if a_new <= s.elements[-1]:
        raise ValueError("new element must exceed the current maximum")
    prof = difference_profile(s)
    t_sum = sum(prof.d_plus(a_new - x) for x in s.elements)
    return energy_a + 4 * len(s) + 4 * t_sum + 1


def normalize(a) -> IntSet:
    """Canonical representative of the affine orbit of A.

    Shifts the minimum to 0, divides by the gcd of all differences, and of
    the result and its reflection returns the lexicographically smaller
    element tuple.  Requires |A| >= 2 (the normal form is not unique below
    that).
    """
    s = _as_intset(a)
    els = s.elements
    if len(els) < 2:
        raise ValueError("normalize requires at least 2 elements")
    m = els[0]
    shifted = tuple(x - m for x in els)
    g = 0
    for x in shifted:
        g = gcd(g, x)
    scaled = tuple(x // g for x in shifted)
    top = scaled[-1]
    reflected = tuple(top - x for x in reversed(scaled))
    return IntSet._from_sorted(min(scaled, reflected))
