"""Exact additive-energy primitives for finite integer sets.

The additive energy E(A) of a finite integer set A is the number of ordered
quadruples (a1, a2, a3, a4) in A^4 with a1 + a2 = a3 + a4.  This module
computes it by three mutually checking routes:

  * direct counting over the sum multiset (``energy_oracle``),
  * the difference-profile identity E = n^2 + 2 * sum d+(x)^2
    (``difference_profile`` + ``energy_from_profile``),
  * an incremental formula for appending one element past the maximum
    (``incremental_energy_extend``).

All arithmetic is exact.  Elements are arbitrary-precision Python ints.
``energy_oracle`` counts the offsets x - min(A) by the first route that fits:

  * fewer than ``_NUMPY_MIN_SIZE`` elements: a pure-Python Counter
    (``_energy_counter``) of the unordered pair sums u(s), x < y, over
    ``itertools.combinations``; then E = 4 * sum u(s)^2 + 4 * sum u(2x) + n;
  * diameter below 2^62, where every offset pair sum fits int64: numpy
    (``_energy_numpy``), which counts the n(n-1)/2 unordered pair sums u(s)
    through ``_pair_value_counts`` and applies the same identity;
  * diameter 2^62 or more: the offsets are hashed mod the prime
    P = 1,729,382,256,910,267,943 (``_energy_hashed``), at any size; an
    offset below 2^59 is its own residue, and one ``divmod`` gives a larger
    one's residue and quotient.  One sort of the n(n-1)/2 pair keys, each
    packed with the count of its members at or past 2^59, gives the same
    identity.  A packed pair sum is below 8P < 2^64, and is reduced mod 4P
    with no branch, as min(s, s - 4P) in uint64 (``_add_mod``), in chunks of
    2^15 values.

The hashed route is exact whatever the hash does: only keys that are not
provably one true sum are checked, the true sums of their pairs (found by a
two-sum over the sorted residues) are compared exactly, and a mismatch, or a
residue shared by two offsets, sends the set to the Counter.  Only the time
depends on the hash.  P is the largest safe prime 2q + 1 below 3 * 2^59, so
the powers of 2, 3, 16 (order q) and 10 (order 2q) repeat no residue for
about 8.6 * 10^17 exponents.
``difference_profile`` counts the differences y - x, x < y, in numpy for
sets of ``_NUMPY_MIN_SIZE`` or more elements and diameter below 2^62, and by
a Counter over ``combinations`` otherwise; either way a
``DifferenceProfile`` is two read-only numpy arrays, the ascending distinct
differences and their counts, and its readers (``energy_from_profile``,
``to_json``) work on the arrays.  ``incremental_energy_extend`` builds no
profile: at every size and diameter it reads its n counts from one Counter of
the differences (``_difference_counter``), in Python ints.

``_pair_value_counts`` is the one rule the numpy routes (and the group sum
profile) use to count a table of P pair values in [0, bins), and it takes the
first of three exact kernels that fits:

  * the FFT, for dense tables, where 0.6 * L * log2(L) + 2^14 < c * P and
    L, the transform length, is at most ``_FFT_LENGTH_CAP`` = 2^22, with c
    the cost of one table value in integer ones (1 here, 2.4 for group
    tables): r = 1_A * 1_A (or the correlation, for differences) by
    ``numpy.fft`` over the cyclic group Z_L, L the least 2^a 3^b 5^c at
    least 2 * diameter + 1 for integers (``_transform_length``), so nothing
    wraps, or over the group's own cyclic orders.  The cap keeps an integer
    set at n <= diameter + 1 <= 2^21 (group sets stop at 10^4 elements), and
    its peak RSS at 32 bytes per point, 128 MB at the cap.  It is taken only
    while the a priori rounding bound of ``_fft_error_bound`` (Percival,
    Math. Comp. 72 (2003) 387-395: 32 * u * n * levels < 1/4, u = 2^-53, the
    levels log2(L) for a power of two and bounded apart for mixed radices
    and Bluestein's transforms) holds, so rounding gives r exactly; the
    rounded r is then checked exactly all the same (``_fft_counts``);
  * ``np.bincount``, in row blocks of at most ``_PAIR_BLOCK`` values, while
    bins < min(1.5 * P, ``_PAIR_BLOCK`` = 8 * 10^6);
  * else one in-place sort of the whole table, as int32 when every value
    fits (bins <= 2^31: diameter <= 2^30 - 1 for sums, <= 2^31 - 1 for
    differences) and as int64 past that.  The energy reads sum u^2 and
    sum u(2x) from the sorted table itself; only profiles need its runs.
    An energy's sum table of at least ``_SPLIT_MIN`` = 2^18 values (n >= 725)
    is sorted as two tables with no value in common (``_split_sums``): with
    v the lowest set bit of the OR of the offsets, the sums inside the two
    classes of bit v are = 0 mod 2^(v+1) and the sums across them = 2^v, so
    sum u^2 is the sum over the runs of both, and every double lies in the
    first.  A second thread builds, sorts and run-counts the cross table
    while the caller does the inside one, whenever the process may run on
    two or more CPUs; otherwise both are counted inline by the same code.
    That is one short-lived thread per count past the cut and none below
    it, on the other kernels, for profiles or for group tables.

Every count on these routes is exact int64: a table value lies below 2^63,
each count below n^2, and each energy term below E <= n^3 < 2^63 for
n < 2^21 (n <= 2^21 on the FFT route, where E <= max_energy(2^21) < 2^63).

Import rule: numpy is imported inside the functions that use it, and
``numpy.fft`` inside ``_fft_counts``, never at module level (the
``TYPE_CHECKING`` import only names the annotations).  ``groups`` and the
CLI do the same with numpy and mpmath, so importing the package loads
neither.  A process loads numpy at its first count of a set of
``_NUMPY_MIN_SIZE`` or more elements, or its first ``DifferenceProfile``,
and ``numpy.fft`` at its first count on the FFT route.
"""

from __future__ import annotations

import os
import re
import threading
from bisect import bisect_left
from collections import Counter
from functools import cache
from itertools import chain, combinations, starmap
from math import gcd, log2, prod
from operator import add, index, lt, sub
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

if TYPE_CHECKING:
    import numpy as np

# a diameter below this bound keeps every offset pair sum inside int64
_INT64_SAFE = 2**62
# below this size the pure-Python Counter path wins anyway
_NUMPY_MIN_SIZE = 32
# most pair values held at once on the bincount route, which a table takes only
# when bins < min(_BINCOUNT_RATIO * pairs, _PAIR_BLOCK), its count array
# rounded up to at most 2^23 bins
_PAIR_BLOCK = 8_000_000
# bincount below this many bins per table value, the sort above it
_BINCOUNT_RATIO = 1.5
# the FFT where _FFT_COST * L * log2(L) + _FFT_FIXED < table values, weighed by
# their cost, L the transform length; _FFT_FIXED is the FFT's cost per call
# (about 0.1 ms) in integer table values
_FFT_COST = 0.6
_FFT_FIXED = 2**14
# longest transform the FFT route takes: 2^22 points, at 32 bytes of peak RSS
# each 128 MB; it keeps an integer set's n <= diameter + 1 <= 2^21
_FFT_LENGTH_CAP = 2**22
# a sum table of at least this many values on the sort route is counted as two
# tables of disjoint values, one counted on a second thread (``_split_sums``)
_SPLIT_MIN = 2**18
# the constant c of the a priori rounding bound c * u * n * levels < 1/4
_FFT_ERROR = 32
# the largest safe prime 2q + 1 below 3 * 2^59: 2, 3 and 16 have order q and
# 10 order 2q, so their powers repeat no residue for about 8.6 * 10^17
# exponents; two residues sum below 2^62, inside int64, and packed sums
# (below 8P) fit uint64
_HASH_MODULUS = 1_729_382_256_910_267_943
# two offsets below this bound sum below _HASH_MODULUS, so their hash is their sum
_HASH_EXACT = 2**59
# the modulus of packed keys h << 2 | wide
_PACKED_MODULUS = 4 * _HASH_MODULUS
# values per chunk of a modular add (``_add_mod``): its scratch array, 256 kB
_REDUCE_CHUNK = 2**15
# largest set the quadruple count (n^3 membership tests) accepts
_QUADRUPLE_CAP = 40
# a decimal-integer string, as ``to_json`` writes them, with an optional sign
_DECIMAL_INT = re.compile(r"[+-]?[0-9]+")


class IntSet:
    """Finite set of distinct integers, stored as a sorted ascending tuple.

    Instances are immutable value objects: construction sorts and
    deduplicates, so the strictly-increasing invariant holds structurally.
    Input whose items are all of type ``int`` exactly (no bool, no numpy
    int, no subclass) and strictly ascending, as two C-level passes over it
    show, is taken as it comes, and a tuple is kept as the same object;
    anything else is read through ``operator.index``, deduplicated and
    sorted, to the same elements.  So bools and numpy ints pass, and an
    item that is not an integer (a float, a string, None) is a ValueError,
    never truncated.
    """

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[int] = ()):
        t = tuple(elements)
        if not (set(map(type, t)) <= {int} and all(map(lt, t, t[1:]))):
            try:
                t = tuple(sorted(set(map(index, t))))
            except TypeError as e:
                raise ValueError(f"set elements must be integers: {e}") from None
        self.elements: tuple[int, ...] = t

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
    def from_json(cls, data: list[int | str]) -> "IntSet":
        """Inverse of ``to_json``: an array of JSON integers or decimal-integer
        strings.  Anything else (a float, a bool, a non-array) is a ValueError."""
        if not isinstance(data, list):
            raise ValueError(f"a set must be a JSON array, not {type(data).__name__}")
        return cls(_json_int(x) for x in data)


class DifferenceProfile:
    """Counts of positive differences of a set: d+(x) at each x > 0.

    d+(x) is the number of pairs a1 < a2 with a2 - a1 = x.  The two-sided
    difference count d(x) equals d+(|x|) for x != 0 and n at x = 0; only the
    positive side is stored, the mirror is applied on read.

    The profile is two read-only numpy arrays of equal length:
    ``differences``, the distinct positive differences in ascending order,
    and ``counts``, their d+ values, each at least 1.  Each array is int64
    when its largest value is below 2^63 and an object array of Python ints
    past it (differences of a set of diameter 2^63 or more).  The constructor
    keeps read-only views of the arrays it is given and checks nothing;
    ``from_json`` checks its input.  ``positive``, the mapping {x: d+(x)} of
    Python ints, is derived from the arrays on first access and kept.
    """

    __slots__ = ("n", "differences", "counts", "_positive")

    def __init__(self, n: int, differences: np.ndarray, counts: np.ndarray):
        self.n = n
        self.differences = _read_only(differences)
        self.counts = _read_only(counts)
        self._positive = None

    @property
    def positive(self) -> Mapping[int, int]:
        """Read-only mapping x -> d+(x) over the positive differences, ascending."""
        if self._positive is None:
            self._positive = MappingProxyType(
                dict(zip(self.differences.tolist(), self.counts.tolist())))
        return self._positive

    def d_plus(self, x: int) -> int:
        """d+(x) for an integer x > 0, found by one ``searchsorted``; an x up to
        the diameter fits the differences' dtype, and past it d+(x) = 0."""
        x = _integer(x)
        if x <= 0:
            raise ValueError("d+ is defined for positive differences only")
        if x > self.diameter:
            return 0
        i = self.differences.searchsorted(x)
        return int(self.counts[i]) if self.differences[i] == x else 0

    def d(self, x: int) -> int:
        x = _integer(x)
        if x == 0:
            return self.n
        return self.d_plus(abs(x))

    @property
    def total_pairs(self) -> int:
        """Sum of d+(x); equals n(n-1)/2 for a valid profile."""
        return sum(self.counts.tolist())

    @property
    def diameter(self) -> int:
        return int(self.differences[-1]) if self.differences.size else 0

    def __eq__(self, other: object) -> bool:
        import numpy as np

        return (isinstance(other, DifferenceProfile) and self.n == other.n
                and np.array_equal(self.differences, other.differences)
                and np.array_equal(self.counts, other.counts))

    def __repr__(self) -> str:
        return (f"DifferenceProfile(n={self.n}, differences={self.differences!r}, "
                f"counts={self.counts!r})")

    def to_json(self) -> dict:
        """{"n": n, "positive": {decimal x: d+(x)}}, x ascending."""
        return {"n": self.n, "positive": {str(x): c for x, c in zip(
            self.differences.tolist(), self.counts.tolist())}}

    @classmethod
    def from_json(cls, data: Mapping) -> "DifferenceProfile":
        """Inverse of ``to_json``.  ``n``, the differences and the counts must be
        JSON integers or decimal-integer strings.  A negative n, a difference or
        a count below 1, counts that do not sum to n(n-1)/2, a count above
        n - 1 or an energy above ``max_energy(n)`` is a ValueError: no n-set
        has such a profile (each x > 0 is y - x' for at most n - 1 pairs)."""
        n = _json_int(data["n"])
        positive = {_json_int(x): _json_int(c) for x, c in data["positive"].items()}
        if n < 0:
            raise ValueError(f"profile size n must be >= 0, got {n}")
        if any(x < 1 or c < 1 for x, c in positive.items()):
            raise ValueError("profile differences and counts must be positive")
        if sum(positive.values()) != n * (n - 1) // 2:
            raise ValueError(f"profile counts must sum to n(n-1)/2 = {n * (n - 1) // 2}")
        if any(c > n - 1 for c in positive.values()):
            raise ValueError(f"a profile count must be at most n - 1 = {n - 1}")
        if n * n + 2 * sum(c * c for c in positive.values()) > max_energy(n):
            raise ValueError(f"profile energy exceeds max_energy(n) = {max_energy(n)}")
        return _sorted_profile(n, positive, max(positive, default=0),
                               max(positive.values(), default=0))


def _json_int(value) -> int:
    """An integer read from JSON: a JSON integer, not a bool, or a string of
    decimal digits with an optional sign.  Anything else is a ValueError, so a
    float is never truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _DECIMAL_INT.fullmatch(value):
        return int(value)
    raise ValueError(f"expected an integer or a decimal-integer string, got {value!r}")


def _integer(x) -> int:
    """``x`` through ``operator.index``, so numpy ints pass; anything else, a
    float among them, is a ValueError, never truncated."""
    try:
        return index(x)
    except TypeError:
        raise ValueError(f"expected an integer, got {x!r}") from None


def _read_only(values: np.ndarray) -> np.ndarray:
    """A view of ``values`` that refuses writes."""
    view = values.view()
    view.flags.writeable = False
    return view


def _int_array(values: Iterable[int], size: int, top: int) -> np.ndarray:
    """``size`` nonnegative ints at most ``top``: int64 if top fits, else an object array."""
    import numpy as np

    return np.fromiter(values, np.int64 if top < 2**63 else object, size)


def _sorted_profile(n: int, positive: Mapping[int, int], top_difference: int,
                    top_count: int) -> DifferenceProfile:
    """The profile of a mapping {x: d+(x)} of positive ints, each x at most
    ``top_difference`` and each d+(x) at most ``top_count``; the keys are
    sorted once, by an argsort of their array."""
    size = len(positive)
    x = _int_array(positive.keys(), size, top_difference)
    order = x.argsort()
    return DifferenceProfile(n, x[order], _int_array(positive.values(), size, top_count)[order])


def _square_sum(counts: np.ndarray) -> int:
    """Exact sum of c^2 over ``counts``: in int64 when the dtype is int64 and
    len * max^2 < 2^63, which bounds every partial sum, else in Python ints."""
    import numpy as np

    if counts.dtype == np.int64 and counts.size * int(counts.max(initial=0)) ** 2 < 2**63:
        return int(np.dot(counts, counts))
    return sum(c * c for c in counts.tolist())


def _as_intset(a) -> IntSet:
    return a if isinstance(a, IntSet) else IntSet(a)


def _int64_safe(elements) -> bool:
    """Diameter test of a sorted sequence: offsets fit int64 with pair sums."""
    return elements[-1] - elements[0] < _INT64_SAFE


def _pair_value_counts(n: int, bins: int, pairs: int, rows, shape: tuple[int, ...],
                       convolve, split=None, *, value_cost: float = 1.0
                       ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Count the values of an n-row table of ``pairs`` pair values in [0, bins).

    The one rule every numpy count of pair values goes through.  It takes
    the first of three exact kernels that fits:

    1. The FFT, where the transform over the cyclic group of ``shape`` (of
       L points) is short next to the table: ``_FFT_COST`` * L * log2(L) +
       ``_FFT_FIXED`` < ``value_cost`` * pairs, L <= ``_FFT_LENGTH_CAP``
       and ``_fft_error_bound`` < 1/4.  ``convolve()`` returns the counts.
       ``value_cost`` is what one table value costs in integer ones: 1 for
       the integer tables, more for a group's (``groups._flat_profile``).
       On the 2-core Xeon an FFT count takes about 0.1 ms plus 1.5 ns per
       L log2(L) up to L = 2^16 and 3-5 ns past it, and building and
       bincounting the table 3-5 ns per value, so for integer sums the two
       tie at L log2(L) = 1.2 to 2.2 pairs (n = 420 to 3,000), and at 20,000
       pairs for small L.  The correlation of ``_positive_differences`` ties
       with its bincount at L log2(L) = 1.5 to 2.4 pairs (n = 375 at
       L = 2^13, 1,100 at 2^16, 2,900 at 2^19), so the one cut fits it too:
       on 26 sets where it takes the FFT (L = 2^9 to 2^16, n = 200 to
       1,600) the correlation took 0.07-3.0 ms, and the bincount 1.2 to 11
       times as long.  Those lengths were powers of two; on the lengths
       2^a 3^b 5^c of ``_transform_length`` the ties stay near the same
       cut.  Integer sums, lower quartile of 100 interleaved runs each:
       L = 1,080 ties at n = 200 (19,900 pairs; 0.15 ms each), the cut at
       n = 215; L = 9,216 at n = 450 (101,000 pairs, 0.43 ms), the cut at
       n = 423; L = 12,000 at about n = 505 (127,000 pairs, 0.6 ms), the
       cut at n = 478.  The difference correlation at L = 9,216 ties at
       n = 440, the cut at n = 423.
    2. ``np.bincount``, where bins < min(``_BINCOUNT_RATIO`` * pairs,
       ``_PAIR_BLOCK``), in blocks of ``_PAIR_BLOCK // width`` rows, width =
       ceil(pairs / n) the most values a row holds, so at most
       ``_PAIR_BLOCK`` values, each built inside the call that counts it and
       freed before the next.  The count array is rounded up to a
       power of two of bins, zeros past ``bins``: sets of nearly equal span
       then ask for one size, so the block one count frees is taken again by
       the next instead of the heap growing past it.
    3. Else the whole table is sorted in place, int32 when bins <= 2^31 and
       int64 past it.  The int32 sort and the bincount of an unordered-pair
       table tie at bins = 1.0 to 1.5 * pairs from n = 1,000 to 3,000
       (2-core Xeon), and higher below, where the count array stays in
       cache (2.5 at n = 500); but there either costs under 2 ms.  A group
       table of n^2 ordered pair codes ties differently: while |G| <= 10^4
       the bincount won at every ratio measured (up to 3.4 bins per value;
       the sort took 1.1 to 1.7 times as long in Z_7^3, Z_2 x Z_4 x Z_6 and
       Z_101^2), and from |G| = 3 * 10^4 the sort won down to about 1.0
       (Z_31^3 at n = 141 to 160, Z_1009^2 at n = 600 to 820: the bincount
       took 1.2 to 1.45 times as long).  So the cut at 1.5 takes the faster
       kernel on small groups, where the ratio 1.0 it replaced did not, and
       the slower one on large groups between 1.0 and 1.5 bins per value.

    With ``split`` (given only by ``_energy_numpy``, by way of
    ``_split_sums``) and at least ``_SPLIT_MIN`` = 2^18 pairs, the sort is
    ``split(dtype)`` instead: the unordered sums of offsets are split by
    bit v, the lowest set bit of the OR of the offsets.  Every offset is 2^v x', x' even for
    class 0 (which holds the offset 0) and odd for class 1 (which holds at
    least one offset, or v would be higher).  A sum inside one class is
    2^v (x' + y') with x' + y' even, so = 0 mod 2^(v+1); a sum across is
    = 2^v mod 2^(v+1).  So the inside and the cross tables share no value,
    sum u^2 is the sum of k^2 over the runs of both, and every double 2x is
    = 0 mod 2^(v+1), so it lies in the inside table.  ``split(dtype)``
    returns the inside table, sorted, and the cross table is counted on one
    fresh thread meanwhile (or inline, on one usable CPU; ``_alongside``).
    On the 2-core Xeon, best of 60 per call on random sets in [0, 10^6]
    (median of 6 fresh processes each), one table against two: n = 436
    (94,830 pairs) 0.59 against 0.80 ms, n = 555 (153,735) 0.92 against
    0.95 ms, the tie, n = 673 1.36 against 1.23 ms, n = 725 (262,450) 1.58
    against 1.42 ms; the cut sits at 2^18, past the tie, so the thread's
    start is paid only where it is well repaid.  Profiles and group tables read
    the distinct values of the whole table, which two tables would first
    have to merge, so they never split.

    Either of the first two returns (counts, None) with counts[v] the count
    of v, zeros included, for v below len(counts) >= bins; ``convolve()``
    must return that array.  The sort returns (None, table), the sorted
    table (with ``split``, the sorted inside table), of which the caller
    reads what it needs.

    ``rows(lo, hi, dtype)`` builds rows lo..hi-1 of the table as a new array
    of ``dtype`` with at most ceil(pairs / n) values per row: the folded rows
    of ``_unordered_pairs`` hold at most n // 2 values, a full n^2 table n.
    """
    import numpy as np

    length = prod(shape)
    if (length <= _FFT_LENGTH_CAP
            and _FFT_COST * length * log2(length) + _FFT_FIXED < value_cost * pairs
            and _fft_error_bound(n, shape) < 0.25):
        return convolve(), None
    if bins < min(_BINCOUNT_RATIO * pairs, _PAIR_BLOCK):
        step = max(1, _PAIR_BLOCK // -(-pairs // n))
        bins = 1 << (bins - 1).bit_length()
        counts = np.bincount(rows(0, min(n, step), np.int64).ravel(), minlength=bins)
        for lo in range(step, n, step):
            counts += np.bincount(rows(lo, min(n, lo + step), np.int64).ravel(),
                                  minlength=bins)
        return counts, None
    dtype = np.int32 if bins <= 2**31 else np.int64
    if split is not None and pairs >= _SPLIT_MIN:
        return None, split(dtype)
    table = rows(0, n, dtype).ravel()
    table.sort()
    return None, table


def _fft_levels(m: int) -> float:
    """Rounding levels of a length-m transform in ``_fft_error_bound``.

    log2(m) for a power of two, Percival's radix-2 case.  Any other m is
    either factored into passes of prime radix q, each summing q terms, or
    sent by pocketfft through Bluestein's algorithm: three power-of-two
    transforms of length below 4m with chirp products between them.
    3 * (log2(m) + 2) + q, q the largest prime factor of m, bounds both.
    An integer set's length 2^a 3^b 5^c (``_transform_length``) that is not
    a power of two so counts at most 3 * (log2(m) + 2) + 5 levels.
    """
    if m & (m - 1) == 0:
        return log2(m)
    q, rest, d = 1, m, 2
    while d * d <= rest:
        while rest % d == 0:
            q, rest = d, rest // d
        d += 1
    return 3 * (log2(m) + 2) + max(q, rest)


def _fft_error_bound(n: int, shape: tuple[int, ...]) -> float:
    """A priori bound on max |r~ - r| for the FFT counts of an n-set.

    Percival (Math. Comp. 72 (2003) 387-395): a radix-2 convolution of x
    and y of length 2^k, with twiddle factors exact to the unit roundoff
    u = 2^-53, errs by at most ||x||_2 ||y||_2 * ((6 + 3 sqrt 5)k + sqrt 5) u
    to first order, under 16 * u * k * ||x|| ||y||.  For an
    indicator ||1_A||_2^2 = n.  A transform over several cyclic orders is one
    per axis, so their levels (``_fft_levels``) add up; the constant 32
    doubles Percival's for pocketfft's mixed radices and the higher-order
    terms.  Below 1/4, ``np.rint`` gives every r(s) exactly.  For an integer
    set the levels stay below 3 * (22 + 2) + 5 = 77 up to the cap, so the
    bound holds for every n below 2^53 / (128 * 77), about 9 * 10^11, far
    past the n <= 2^21 the cap allows.
    """
    return _FFT_ERROR * 2.0**-53 * n * sum(_fft_levels(m) for m in shape)


def _fft_counts(shape: tuple[int, ...], codes: np.ndarray,
                doubles: np.ndarray | None) -> np.ndarray:
    """The exact pair counts of the n-set A whose flat C-order codes in an
    array of ``shape`` are ``codes``, over the cyclic group of that shape,
    flattened in C order as int64.

    With ``doubles``, the flat codes of 2x for x in A, r(s) counts the
    ordered pairs (x, y) with x + y = s (rfftn, the square, irfftn); without,
    r(s) counts those with y - x = s (the squared modulus instead).  Taken
    only under ``_fft_error_bound`` < 1/4, so rounding is exact; the rounded
    r is still checked exactly: r >= 0 and sum r = n^2, and for sums r(s) is
    odd iff an odd number of x in A have 2x = s (a pair x != y counts twice),
    for differences (a 1-D ``shape``) r(0) = n and r(-s) = r(s).  A failed
    check is a RuntimeError, never a fallback.  The indicator is freed once
    transformed, so numpy holds two arrays of 8 bytes per point at once
    (``tracemalloc``: 64 MB at L = 2^22), and with pocketfft's own buffers
    the peak RSS grows by 32 bytes per point (128 MB).  ``numpy.fft`` is
    imported here, so only a process that counts on the FFT route loads it
    (see the import rule in the module docstring).
    """
    import numpy as np
    import numpy.fft as fft

    n = codes.size
    points = np.zeros(shape)
    points.reshape(-1)[codes] = 1
    axes = range(len(shape))
    spectrum = fft.rfftn(points, axes=axes)
    del points
    spectrum *= spectrum if doubles is not None else spectrum.conj()
    r = fft.irfftn(spectrum, shape, axes)
    del spectrum
    r = np.rint(r, out=r).astype(np.int64).ravel()
    ok = r.min() >= 0 and int(r.sum()) == n * n
    if doubles is None:
        ok = ok and r[0] == n and np.array_equal(r[1:], r[:0:-1])
    else:
        odd = r & 1
        np.bitwise_xor.at(odd, doubles, 1)
        ok = ok and not odd.any()
    if not ok:
        raise RuntimeError(f"FFT pair counts of a {n}-element set failed their exact check")
    return r


@cache
def _smooth_lengths() -> tuple[int, ...]:
    """The 660 numbers 2^a 3^b 5^c up to ``_FFT_LENGTH_CAP``, ascending; built
    on first use, as building them costs about 0.1 ms."""
    lengths = [1]
    for q in (2, 3, 5):
        grown = []
        for x in lengths:
            while x <= _FFT_LENGTH_CAP:
                grown.append(x)
                x *= q
        lengths = grown
    return tuple(sorted(lengths))


def _transform_length(diameter: int) -> int:
    """The least L = 2^a 3^b 5^c at least 2 * diameter + 1: sums and
    differences of offsets in [0, diameter] then never wrap around Z_L.

    pocketfft factors such an L into passes of radix 2, 3, 4 and 5, and a
    round trip (rfft, square, irfft, rint) of 1,000 points took 227 us at
    L = 9,216 and 311 us at 12,000 against 451 us at 2^14, the power of two
    the same sets took before (best of 200, 2-core Xeon).  Past ``_FFT_LENGTH_CAP``, which no FFT count
    reaches, this is the power of two at least 2 * diameter + 1, found in
    O(1) whatever the diameter: every ``_int64_safe`` energy and profile
    asks, the wide ones with diameters near 10^12 included.
    """
    need = 2 * diameter + 1
    if need > _FFT_LENGTH_CAP:
        return 1 << (2 * diameter).bit_length()
    lengths = _smooth_lengths()
    return lengths[bisect_left(lengths, need)]


def _distinct_counts(counts: np.ndarray | None,
                     table: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values, ascending, and their counts, both int64, from
    either result of ``_pair_value_counts``."""
    import numpy as np

    if table is None:
        values = np.flatnonzero(counts != 0)  # a bool scan is faster than an int64 one
        return values, counts[values]
    starts = np.flatnonzero(_first_of_run(table))
    return table[starts].astype(np.int64, copy=False), np.diff(starts, append=table.size)


def _square_runs(table: np.ndarray, masks: np.ndarray | None = None) -> int:
    """Sum of k^2 over the runs of k equal values of a sorted array.

    Sum k^2 = P + 2 * sum_{d >= 1} E_d over P values, with E_d the number of
    places i where table[i] = table[i + d], the windows of d + 1 equal
    values.  ``window`` marks them for one d at a time, and each step ANDs
    it with the equal-neighbour mask, so two bool masks are all the memory
    while windows are many.  Once fewer than P / 64 are left, or past d = 8,
    the rest are indexed: a run of k > d values holds l = k - d consecutive
    windows, and E_d + E_{d+1} + ... over it is l(l + 1) / 2.

    On the sparse tables this route takes, a quarter of all neighbours can
    be equal; index arrays over the runs of the whole table (10 MB at
    1.1 * 10^6 values) grew the freed heap past glibc's trim threshold, so
    that each later count faulted in fresh pages.

    The two masks are the halves of ``masks``, a bool array of at least
    2 * (P - 1) values, new when not given.  ``_split_sums`` gives the one
    of its worker thread, so that it is allocated by the caller: glibc
    serves a second thread from an arena of its own, which keeps what it
    frees, and masks allocated there raised the peak RSS of the
    ``count-mix`` benchmark by about 3 MB (2-core Xeon).
    """
    import numpy as np

    size = table.size
    neighbours = max(size - 1, 0)
    if masks is None:
        masks = np.empty(2 * neighbours, dtype=bool)
    same = np.equal(table[1:], table[:-1], out=masks[:neighbours])
    window = masks[neighbours:2 * neighbours]
    np.copyto(window, same)
    total, d = size, 1
    while d <= 8:
        count = int(np.count_nonzero(window))
        if count * 64 < size:
            break
        total += 2 * count
        window = window[:-1]
        np.logical_and(window, same[d:], out=window)
        d += 1
    del same
    at = np.flatnonzero(window)
    if at.size:
        starts = np.flatnonzero(np.diff(at) != 1) + 1
        lengths = np.diff(starts, prepend=0, append=at.size)
        total += int(np.dot(lengths, lengths)) + at.size
    return total


def _unordered_pairs(arr: np.ndarray, op):
    """``rows`` for ``_pair_value_counts`` holding op(arr[a], arr[b]) once for
    each pair a < b, for an ``op`` symmetric in its two arguments.

    The n(n-1)/2 pairs are folded into n rows of h = (n-1) // 2 values: row i
    holds op(arr[(i + j) mod n], arr[i]) for j = 1..h, so the pair a < b lies
    in row a if b - a <= h and in row b if b - a >= n - h.  For even n that
    leaves the pairs with b - a = n/2, and rows i < n/2 take
    op(arr[i + n/2], arr[i]) as one more value.  A block of rows is two numpy
    calls writing into one new array; a numpy call per row was 2-16x slower
    at n = 32..1,500.

    ``rows(lo, hi, dtype, out=None)`` writes into ``out`` instead, when
    given: a contiguous 1-D array of ``dtype`` holding exactly the block's
    values ((hi - lo) * h plus the rows below n/2 that take one more), as
    ``_split_sums`` places two class triangles side by side in one array.
    Concatenating two new arrays instead took about 1.5 times as long
    (n = 1,027 and 1,500, best of 40) and allocates the triangles twice.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    n = arr.size
    h = (n - 1) // 2
    half = n // 2 if n % 2 == 0 else 0

    def rows(lo, hi, dtype, out=None):
        a = arr.astype(dtype, copy=False)
        ring = sliding_window_view(np.concatenate([a[1:], a]), h)  # ring[i, j-1] = a[(i+j) % n]
        m, extra = hi - lo, max(0, min(hi, half) - lo)
        if out is None:
            out = np.empty(m * h + extra, dtype=dtype)
        op(ring[lo:hi], a[lo:hi, None], out=out[:m * h].reshape(m, h))
        op(a[lo + half:lo + half + extra], a[lo:lo + extra], out=out[m * h:])
        return out

    return rows


def _absolute_difference(x, y, out):
    """|x - y| into ``out``: the symmetric op of the difference table."""
    import numpy as np

    np.subtract(x, y, out=out)
    np.abs(out, out=out)


def _first_of_run(s: np.ndarray) -> np.ndarray:
    """Bool mask over a sorted array: first[i] iff s[i] starts a run of equal values."""
    import numpy as np

    first = np.empty(s.size, dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return first


def _offsets(elements: tuple[int, ...]) -> np.ndarray:
    """The int64 offsets x - min of a sorted ``_int64_safe`` tuple.  When every
    element fits int64 the tuple is converted in one call and the minimum
    subtracted in place; otherwise (elements past 2^63 either side) each
    offset is taken in Python ints first."""
    import numpy as np

    m = elements[0]
    if m >= -2**63 and elements[-1] < 2**63:
        arr = np.array(elements, np.int64)
        arr -= m
        return arr
    return np.array([x - m for x in elements], dtype=np.int64)


def _energy_numpy(elements: tuple[int, ...]) -> int:
    """Sum-multiset count of the offsets x - min, for ``_int64_safe`` sets.

    The identity of ``_energy_counter``, E = 4 * sum u(s)^2 + 4 * sum_{x in A}
    u(2x) + n, over the n(n-1)/2 unordered pair sums of the offsets.  Offsets
    lie in [0, 2^62), so pair sums lie in [0, 2^63) and take at most
    2*diameter + 1 values.  Each u(s) <= n/2, and every term of the identity
    is at most E <= n^3, which fits int64 for n < 2^21.

    On the FFT route r(s) = 2u(s) + [s/2 in A], checked odd exactly at the
    doubles, so u = r >> 1.  With counts, u(2x) is read from them directly.
    On the sort route sum u^2 is the sum of k^2 over the runs of k equal
    sums (``_square_runs``), and u(2x) is the width of the run of 2x, found
    by two ``searchsorted`` calls on the table.  Past ``_SPLIT_MIN`` sums
    ``split`` makes it two (``_split_sums``): the runs of both add to
    sum u^2, and the doubles are looked up in the inside one, which holds
    them all.
    """
    import numpy as np

    arr = _offsets(elements)
    n = len(arr)
    diameter = elements[-1] - elements[0]
    doubles = 2 * arr
    length = _transform_length(diameter)
    pairs = n * (n - 1) // 2

    def convolve():
        return _fft_counts((length,), arr, doubles) >> 1

    squares = None  # sum k^2 over the runs of both tables, once split

    def split(dtype):
        nonlocal squares
        table, squares = _split_sums(arr, dtype)
        return table

    u, table = _pair_value_counts(n, 2 * diameter + 1, pairs, _unordered_pairs(arr, np.add),
                                  (length,), convolve, split)
    if table is None:
        return 4 * int(np.dot(u, u)) + 4 * int(u[doubles].sum()) + n
    if squares is None:
        squares = _square_runs(table)
    keys = doubles.astype(table.dtype)
    on_doubles = table.searchsorted(keys, "right") - table.searchsorted(keys, "left")
    return 4 * squares + 4 * int(on_doubles.sum()) + n


def _split_sums(arr: np.ndarray, dtype) -> tuple[np.ndarray, int]:
    """The unordered sums of the offsets ``arr`` as two tables of disjoint
    values (``split`` of ``_pair_value_counts``, whose docstring proves it
    exact): the sorted table of the sums inside the two classes of bit v,
    the lowest set bit of the OR of the offsets, and sum k^2 over the runs
    of it and of the table of the sums across them.

    Both class triangles are written by ``_unordered_pairs`` into the front
    of one array of ``dtype`` and the cross rectangle into its back, so the
    memory is that of the whole table.  ``_cross_squares`` builds, sorts and
    run-counts the cross table alongside the caller's work on the inside
    one (``_alongside``), in run masks the caller allocates.  Counting the
    cross runs on the caller after the join instead made the counts at
    n = 1,027 and 1,500 about 20% and 35% slower per call (0.45 and 1.8 ms),
    and left the peak RSS of ``count-mix`` where it was (+0.64 MB against
    +0.72 MB over the one-table sort, ten pairs each).
    """
    import numpy as np

    bits = int(np.bitwise_or.reduce(arr))
    odd = (arr & (bits & -bits)).astype(bool)
    low, high = arr[~odd].astype(dtype), arr[odd].astype(dtype)
    inside_low = low.size * (low.size - 1) // 2
    inside = inside_low + high.size * (high.size - 1) // 2
    whole = np.empty(inside + low.size * high.size, dtype=dtype)
    table, cross = whole[:inside], whole[inside:]
    masks = np.empty(2 * max(cross.size - 1, 0), dtype=bool)

    def sort_inside():
        _unordered_pairs(low, np.add)(0, low.size, dtype, out=table[:inside_low])
        _unordered_pairs(high, np.add)(0, high.size, dtype, out=table[inside_low:])
        table.sort()
        return _square_runs(table)

    inside_squares, cross_squares = _alongside(
        sort_inside, lambda: _cross_squares(low, high, cross, masks))
    return table, inside_squares + cross_squares


def _cross_squares(low: np.ndarray, high: np.ndarray, out: np.ndarray,
                   masks: np.ndarray) -> int:
    """Sum k^2 over the runs of the sums x + y, x in ``low`` and y in
    ``high``, written into ``out`` and sorted there, with ``masks`` the run
    masks of ``_square_runs``."""
    import numpy as np

    np.add(low[:, None], high, out=out.reshape(low.size, high.size))
    out.sort()
    return _square_runs(out, masks)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    has one, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _alongside(here, there):
    """(here(), there()): with two or more usable CPUs, ``there()`` runs on
    one fresh thread while the caller runs ``here()`` (numpy releases the
    GIL for its array work); with one CPU it runs inline after ``here()``.

    The thread is joined before this returns or raises, so no pool or
    thread outlives a count and a later fork finds none.  An exception of
    ``here()`` propagates once the thread has ended; one of ``there()`` is
    raised here as the very same object.
    """
    if _usable_cpus() < 2:
        return here(), there()
    outcome = []

    def target():
        try:
            outcome.append(there())
        except BaseException as exc:  # handed to the joining caller
            outcome.append(exc)

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    try:
        result = here()
    finally:
        worker.join()
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    return result, outcome[0]


def _energy_counter(elements: tuple[int, ...]) -> int:
    """Sum-multiset count of a tuple of distinct ints in pure Python, any size.

    u(s) counts the pairs x < y with x + y = s.  The elements are distinct, so
    each double 2x is hit by exactly one ordered pair, (x, x), and
    r(s) = 2u(s) + [s/2 in A].  Squaring and summing gives
    E = 4 * sum_s u(s)^2 + 4 * sum_{x in A} u(2x) + n; for {0, 1, 2},
    12 + 4 + 3 = 19.
    """
    u = Counter(starmap(add, combinations(elements, 2)))
    return (4 * sum(c * c for c in u.values()) + 4 * sum(u[2 * x] for x in elements)
            + len(elements))


def _add_mod(x, y, m: int, out: np.ndarray) -> None:
    """(x + y) mod m into the uint64 array ``out``, for x and y that
    broadcast to its shape with s = x + y < 2m <= 2^64, so that s fits
    uint64.  Branch-free: for s < m, s - m wraps to 2^64 + s - m > s, so
    np.minimum(s, s - m) keeps s, and for s >= m it is s - m.

    ``out`` is filled in chunks of about ``_REDUCE_CHUNK`` values along its
    first axis, each reduced through one scratch array of a chunk's size,
    so no temporary the size of ``out`` is made: one chunk for the whole
    table raised the ``tracemalloc`` peak of ``_energy_hashed`` on 1,000
    random 70-bit offsets from 12.2 to 16.5 bytes per pair.  On the
    114,960-pair packed table of a 480-element ``build-band`` witness, the
    add alone took 106 us, the add and a masked subtraction
    (``where=s >= m``) 400 us, and the add and this reduction 213 us (best
    of 400, 2-core Xeon).
    """
    import numpy as np

    if out.size == 0:
        return
    rows = out.shape[0]
    step = max(1, _REDUCE_CHUNK * rows // out.size)
    if step >= rows:
        chunks = [(out, x, y)]
    else:
        x, y = np.broadcast_to(x, out.shape), np.broadcast_to(y, out.shape)
        chunks = ((out[lo:lo + step], x[lo:lo + step], y[lo:lo + step])
                  for lo in range(0, rows, step))
    scratch = np.empty(min(step, rows) * (out.size // rows), dtype=np.uint64)
    for s, a, b in chunks:
        np.add(a, b, out=s)
        t = scratch[:s.size].reshape(s.shape)
        np.subtract(s, m, out=t)
        np.minimum(s, t, out=s)


def _packed_sum(x, y, out):
    """(x + y) mod 4P into ``out``, P = ``_HASH_MODULUS``: the symmetric op
    of the packed key table of ``_energy_hashed``.  Both terms are below 4P,
    so x + y < 8P < 2^64 fits uint64 (``_add_mod``)."""
    _add_mod(x, y, _PACKED_MODULUS, out)


def _energy_hashed(offsets: tuple[int, ...]) -> int:
    """Sum-multiset count of sorted nonnegative offsets by hashed pair sums.

    The identity of ``_energy_counter``, E = 4 * sum u(s)^2 + 4 * sum_{x in A}
    u(2x) + n, read from one sorted table.  An offset x has the residue
    h = x mod P, P = ``_HASH_MODULUS``, and is wide when x >= 2^59
    (``_HASH_EXACT``).  A narrow offset is its own residue; a wide one is
    divided once, by ``divmod``, whose quotient ``_hashed_sums_agree`` reads.
    It is packed as h << 2 | wide in uint64, and ``_unordered_pairs`` adds
    the packed offsets of each pair a < b mod 4P (``_packed_sum``), so an
    entry holds the key (h_a + h_b) mod P in bits 2 and up and its count of
    wide members in bits 0-1.  Both packed terms are below 4P, so their sum
    is below 8P < 2^64, and ``_add_mod`` reduces it with no branch, in
    chunks of ``_REDUCE_CHUNK`` values, so that no temporary the size of the
    table is made.  One in-place sort orders the entries by key, and within
    a key the narrow pairs first; the table is then shifted down to its
    keys.  A run of k equal keys adds k^2 to sum u^2 (``_square_runs``), and
    u(2x) is the width of the run of the key 2h mod P: one ``searchsorted``
    finds where each double's run would start, and its end is searched only
    for the doubles that land on a run.

    Exactness is a proof, not a probability.  The key is a function of the
    true sum, so the pairs of one sum lie in one run, and the count is exact
    once each run holds one sum and the run of each double holds 2x or
    nothing.  Two offsets below 2^59 sum below P, so a narrow pair's key is
    its true sum, and so is the key of a narrow offset's double.  So only
    two kinds of key are checked:

      * a key shared by two entries of which one is wide (its run then ends
        on a wide entry, which is what the mask reads);
      * the key of a double whose run is not empty, where the double or the
        run's last pair is wide.

    ``_hashed_sums_agree`` finds the pairs with a wide member of each
    checked key, by a two-sum over the sorted residues (or a scan of rows
    when the keys outnumber the offsets), and compares their
    true sums exactly with each other, with the key where the run also holds
    narrow pairs, and with the double 2x that hit the run.  Any mismatch
    sends the offsets to ``_energy_counter``.  The answer never depends on
    the hash, only the time does.

    A set with a repeated residue goes to the Counter before any table is
    built: if h_x = h_y for x != y, then for any third offset z the pairs
    (x, z) and (y, z) share a key while their true sums differ, and x - y is
    a nonzero multiple of P, so one of x, y is wide and the check would
    fail.  P is the largest safe prime 2q + 1 below 3 * 2^59, q prime, so
    the powers of a base b != +-1 mod P repeat a residue only every q or 2q
    exponents: 2, 3 and 16 have order q (about 8.6 * 10^17), 10 order 2q.
    So the powers of 2, 16, 64 or 1024 in a builder witness's tail have
    distinct residues; under a modulus with a small k where 2^k = 1, as
    2^61 = 1 mod 2^61 - 1, they repeat from 2^k on and send such witnesses
    to the Counter.

    A pass over the 40 ``build-band`` witnesses of seed 1 (1.15 * 10^6
    pairs, in-process, best of 40, 2-core Xeon) takes about 29 ms: the
    residues 3.8 ms (most of it dividing the wide offsets, of up to 380
    digits), the packed table 4.9, the sort 8.6, the shared keys 1.6, the
    doubles and the keys to check 2.5, ``_hashed_sums_agree`` 4.1 (on the 22
    witnesses with a key to check) and ``_square_runs`` 3.4.  A masked
    subtraction for each reduction, ``x % P`` and ``x // P`` apart and two
    searches per double read 32.6 ms against 28.1 (medians of three
    alternating runs of each).

    Peak memory (``tracemalloc``, n = 1,000 and 2,500) is about 12 bytes
    per unordered pair on random 70-bit offsets and 27 on a progression of
    step 2^100 + 1, where every key is checked: the 8-byte table, bool masks
    over it, and in ``_square_runs`` the index of every window past d = 8.
    Every set past 2^62 of 32 or more elements comes here, whatever its
    size (``tools/ab.py hashed`` runs each count below in a fresh process;
    2-core Xeon): 4,100 random 70-bit offsets took 0.28 s at 131 MB peak
    RSS, and the 10^4 codes of a wide product at ``products.MATERIALIZE_CAP``
    (two factors of 100 random letters below 2^40, 5 * 10^7 pairs) 15.9 s
    at 1.6 GB.
    """
    import numpy as np

    n = len(offsets)
    narrow = bisect_left(offsets, _HASH_EXACT)  # offsets[narrow:] are wide
    # a narrow offset is its own residue; a wide one is divided once (a
    # zip(*map(divmod, ...)) here raised the peak RSS of 600 build-band
    # passes by 0.8 MB)
    divided = [divmod(x, _HASH_MODULUS) for x in offsets[narrow:]]
    h = np.fromiter(chain(offsets[:narrow], (r for _, r in divided)), np.uint64, n)
    quotients = [q for q, _ in divided]
    order = h.argsort()
    residues = h[order]
    if (residues[1:] == residues[:-1]).any():
        return _energy_counter(offsets)
    packed = h << 2
    packed[narrow:] |= 1
    table = _unordered_pairs(packed, _packed_sum)(0, n, np.uint64)
    table.sort()
    wide = (table.astype(np.uint8) & 3) != 0
    table >>= 2
    same = table[1:] == table[:-1]
    ends = same & wide[1:]
    ends[:-1] &= ~same[1:]  # the wide last entry of each shared run
    del same
    shared = table[1:][ends]
    del ends
    doubles = np.empty(n, dtype=np.uint64)
    _add_mod(h, h, _HASH_MODULUS, doubles)
    lo = table.searchsorted(doubles)
    # the doubles whose run is not empty, and the end of each such run
    landed = np.flatnonzero(table[np.minimum(lo, table.size - 1)] == doubles)
    hi = table.searchsorted(doubles[landed], "right")
    on_doubles = int((hi - lo[landed]).sum())
    checked = landed[wide[hi - 1] | (landed >= narrow)]  # the run's last pair or x is wide
    keys = np.concatenate([shared, doubles[checked]])
    keys.sort()
    keys = keys[_first_of_run(keys)]
    if keys.size and not _hashed_sums_agree(quotients, h, order, narrow, table, wide, keys,
                                            checked, doubles):
        return _energy_counter(offsets)
    del wide
    return 4 * _square_runs(table) + 4 * on_doubles + n


def _hashed_sums_agree(quotients: list[int], h: np.ndarray, order: np.ndarray,
                       narrow: int, table: np.ndarray, wide: np.ndarray, keys: np.ndarray,
                       checked: np.ndarray, doubles: np.ndarray) -> bool:
    """Whether all pairs of each key in ``keys`` have one true sum, and the
    double 2x of each offset in ``checked`` is the true sum of its key's run
    (see ``_energy_hashed``).  ``quotients`` are offset // P of the wide
    offsets, the offsets from index ``narrow`` on, as ``_energy_hashed``
    divided them; ``table`` is the sorted key table, ``wide`` its mask of
    entries with a wide member, ``keys`` sorted and distinct, ``checked``
    the indices of the offsets whose double is checked, ``doubles`` the
    keys of the doubles and ``h[order]`` the residues sorted.

    A pair a, b of key K has the true sum K + P * t, with t = q_a + q_b +
    [h_a + h_b >= P] and q = offset // P (0 for a narrow offset), so two
    pairs of one key have one sum iff their t agree; h_a + h_b < 2P < 2^62
    is exact in uint64, and t is an exact int64 while every q is below
    2^62, and a Python int past that.  A narrow pair has t = 0, and a run
    holds one iff its first entry is narrow.  The pairs with a wide member
    come from ``_wide_pairs_of``, a block at a time, and each t is compared
    with the t of its run seen so far.
    """
    import numpy as np

    q = np.zeros(h.size, dtype=np.int64 if max(quotients, default=0) < 2**62 else object)
    q[narrow:] = quotients
    run_t = np.zeros(keys.size, dtype=q.dtype)
    known = ~wide[table.searchsorted(keys)]  # runs with a narrow pair: t = 0
    for k, a, b in _wide_pairs_of(keys, h, order, narrow, max(1, table.size // 8)):
        t = q[a] + q[b]
        t += h[a] + h[b] >= _HASH_MODULUS
        seen = known[k]
        if (run_t[k[seen]] != t[seen]).any():
            return False
        run_t[k] = t  # one of each key's t; the rest must equal it
        if (run_t[k] != t).any():
            return False
        known[k] = True
    twice = 2 * q[checked] + (2 * h[checked] >= _HASH_MODULUS)
    return bool((run_t[keys.searchsorted(doubles[checked])] == twice).all())


def _wide_pairs_of(keys: np.ndarray, h: np.ndarray, order: np.ndarray, narrow: int,
                   block: int):
    """Every pair a < b of offsets with b >= ``narrow`` (b wide) whose key
    (h_a + h_b) mod P is in the sorted ``keys``, once, in blocks of arrays
    (k, a, b) with keys[k] its key; a block looks up about ``block`` values.
    The residues ``h`` must be distinct, as ``_energy_hashed`` ensures.

    With fewer keys than offsets, by a two-sum over the residues sorted by
    ``order``: for each key K and wide b, the one a with h_a = (K - h_b)
    mod P, if any, is found by ``searchsorted``.  Otherwise the rows of
    wide b are scanned, each key (h_a + h_b) mod P of a < b looked up in
    ``keys``.  Either way costs the smaller of len(keys) and n lookups per
    wide offset.  Both reduce their sums below 2P by ``_add_mod``.
    """
    import numpy as np

    n = h.size
    wide = n - narrow
    if keys.size < n:
        residues = h[order]
        descending = h[narrow:].argsort()[::-1] + narrow  # the wide b, h_b descending
        negated = _HASH_MODULUS - h[descending]  # ascending
        step = max(1, block // wide)
        for lo in range(0, keys.size, step):
            # want[k, j] = (K_k - h_b) mod P for the j-th wide b by descending
            # h_b: each row ascends but for one wrap, so searchsorted takes
            # its sorted-keys path (rows of one b each, keys ascending, took
            # 1.5 times as long at n = 457: 72 keys by 361 wide offsets)
            want = np.empty((min(step, keys.size - lo), wide), dtype=np.uint64)
            _add_mod(keys[lo:lo + step, None], negated, _HASH_MODULUS, want)
            want = want.ravel()
            at = residues.searchsorted(want)
            np.minimum(at, n - 1, out=at)
            cells = np.flatnonzero(residues[at] == want)
            a = order[at[cells]]
            k, j = np.divmod(cells, wide)
            b = descending[j]
            keep = a < b
            yield lo + k[keep], a[keep], b[keep]
    else:
        step = max(1, block // n)
        for lo in range(narrow, n, step):
            hi = min(n, lo + step)
            rows = np.empty((hi - lo, hi), dtype=np.uint64)
            _add_mod(h[lo:hi, None], h[:hi], _HASH_MODULUS, rows)
            k = keys.searchsorted(rows)
            np.minimum(k, keys.size - 1, out=k)
            hit = keys[k] == rows
            hit &= np.arange(hi) < np.arange(lo, hi)[:, None]  # a < b
            b, a = np.nonzero(hit)
            yield k[b, a], a, b + lo


def energy_oracle(a) -> int:
    """Additive energy by direct counting over the sum multiset.

    For each attainable sum s the number r(s) of ordered pairs summing to s
    is counted; the energy is sum r(s)^2.  This is the reference method every
    other energy route is checked against.  Sets of fewer than
    ``_NUMPY_MIN_SIZE`` elements go to ``_energy_counter``, the rest with
    diameter below 2^62 to ``_energy_numpy``, and past 2^62 the offsets
    x - min go to ``_energy_hashed`` at any size; the hashed route itself
    hands a set with a repeated residue mod ``_HASH_MODULUS``, or with a hash
    collision, to the Counter.  Every route is exact.
    """
    els = _as_intset(a).elements
    if len(els) < _NUMPY_MIN_SIZE:
        return _energy_counter(els)
    if _int64_safe(els):
        return _energy_numpy(els)
    m = els[0]
    return _energy_hashed(tuple(x - m for x in els))


def energy_by_quadruples(a) -> int:
    """Literal quadruple count; independent cross-check, n <= 40.

    For each (a1, a2, a3) it tests whether a4 = a1 + a2 - a3 is in A: n^3
    membership tests in a ``set``.
    """
    els = _as_intset(a).elements
    if len(els) > _QUADRUPLE_CAP:
        raise ValueError(f"quadruple counting is capped at {_QUADRUPLE_CAP} elements")
    members = set(els)
    count = 0
    for a1 in els:
        for a2 in els:
            t = a1 + a2
            for a3 in els:
                if t - a3 in members:
                    count += 1
    return count


def _positive_differences(elements: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """d+ of an ``_int64_safe`` set, counted in numpy over the offsets x - min.

    Each of the n(n-1)/2 pairs a < b gives one difference |arr[b] - arr[a]|
    in (0, 2^62), so the table takes at most diameter values, and each count
    is below n.  On the FFT route d+(x) is the correlation at x in [1,
    diameter].  Returns the distinct differences, ascending, and their
    counts, both int64.
    """
    arr = _offsets(elements)
    n = len(arr)
    diameter = elements[-1] - elements[0]
    length = _transform_length(diameter)

    def convolve():
        d = _fft_counts((length,), arr, None)[:diameter + 1]
        d[0] = 0
        return d

    return _distinct_counts(*_pair_value_counts(
        n, diameter + 1, n * (n - 1) // 2, _unordered_pairs(arr, _absolute_difference),
        (length,), convolve))


def difference_profile(a) -> DifferenceProfile:
    """All positive pairwise differences with multiplicities.

    Sets of ``_NUMPY_MIN_SIZE`` or more elements and diameter below 2^62 are
    counted in numpy; the rest by a Counter over the pairs x < y, whose keys
    are then sorted once.  Both give the arrays of ``DifferenceProfile``.
    """
    els = _as_intset(a).elements
    n = len(els)
    if n >= _NUMPY_MIN_SIZE and _int64_safe(els):
        return DifferenceProfile(n, *_positive_differences(els))
    return _sorted_profile(n, _difference_counter(els), els[-1] - els[0] if els else 0, n)


def _difference_counter(elements: tuple[int, ...]) -> Counter:
    """d+ of a sorted tuple as a Counter of the differences y - x, x < y: the
    pairs of the descending tuple come out as (y, x), so each is positive."""
    return Counter(starmap(sub, combinations(elements[::-1], 2)))


def energy_from_profile(p: DifferenceProfile) -> int:
    """E = n^2 + 2 * sum of d+(x)^2 over positive differences.

    The squares are summed in int64 when len(counts) * max(counts)^2 < 2^63
    (for a profile of an n-set, n^3 / 2 < 2^63 suffices, n < 2.6 * 10^6),
    else in Python ints; the result is exact either way.
    """
    return p.n * p.n + 2 * _square_sum(p.counts)


def max_energy(n: int) -> int:
    """Largest energy of an n-element integer set: n^2 + (n-1)n(2n-1)/3.

    Attained exactly by arithmetic progressions.  The product
    (n-1)n(2n-1) is always divisible by 3, so the value is an exact integer.
    """
    if n < 0:
        raise ValueError("set size must be nonnegative")
    return n * n + (n - 1) * n * (2 * n - 1) // 3


def affine_image(a, scale: int, shift: int) -> IntSet:
    """The set {scale*x + shift}; energy is invariant for scale != 0.  The
    scale and shift must be integers (``operator.index``), else a ValueError."""
    scale, shift = _integer(scale), _integer(shift)
    if scale == 0:
        raise ValueError("scale 0 collapses the set")
    s = _as_intset(a)
    return IntSet(scale * x + shift for x in s.elements)


def incremental_energy_extend(a, energy_a: int, a_new: int) -> int:
    """Energy after appending a_new > max(A), from the energy of A.

    The increment is 4n + 4*sum(t_j) + 1 where t_j = d+(a_new - a_j), read
    from one Counter of the differences y - x, x < y (``_difference_counter``)
    at any size and diameter, so every lookup is a Python int and no profile
    is built.  The differences are recounted on each call, so a call costs
    O(n^2), not O(n).  Requires |A| >= 1; a_new must be an integer
    (``operator.index``), else a ValueError.
    """
    els = _as_intset(a).elements
    a_new = _integer(a_new)
    if len(els) < 1:
        raise ValueError("need a nonempty base set")
    if a_new <= els[-1]:
        raise ValueError("new element must exceed the current maximum")
    d_plus = _difference_counter(els)
    return energy_a + 4 * len(els) + 4 * sum(d_plus[a_new - x] for x in els) + 1


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
