"""Additive energy over finite abelian groups and the density tradeoff.

Groups are direct products of cyclic groups; elements are residue vectors.
The representation profile r(x) counts ordered pairs summing to x, with
sum r = |A|^2 and sum r^2 = E(A).  A Sidon set (all pair sums distinct)
minimizes energy at exactly 2|S|^2 - |S| in odd-order groups; the parabola
{(x, x^2)} over a prime field realizes |S| = sqrt(|G|) exactly.  Mixing k
Sidon factors with n-k full factors trades density against energy along the
curve alpha ~ 1/(2 - delta), bounded by |A|^4 <= |A+A| * E(A).

The profile is counted in numpy when |G| <= 2^62: each element is encoded as
its flat mixed-radix index, and ``intset._pair_value_counts`` counts the full
table of |A|^2 ordered pair sums by the first of its three exact kernels that
fits:

  * the FFT, where 0.6 * |G| log2 |G| + 2^14 < 2.4 * |A|^2 and |G| <= 2^22
    (a group table value costs 2.4 integer ones, ``_VALUE_COST``): rfftn
    over the cyclic orders adds in the group with no padding, r = irfftn of
    the squared transform, rounded to int64.  It runs only under the a priori
    rounding bound 32 * u * |A| * sum of levels < 1/4 (Percival, Math. Comp.
    72 (2003) 387-395; u = 2^-53, log2 m levels for an order m that is a power
    of two, and for any other, which pocketfft may send through Bluestein's
    algorithm, 3 (log2 m + 2) plus its largest prime factor), and the rounded
    r is checked exactly: r >= 0, sum r = |A|^2, and r(x) odd iff an odd
    number of a in A have 2a = x; a failed check is a RuntimeError;
  * ``np.bincount`` of the codes, while |G| < min(1.5 * |A|^2, 8 * 10^6);
  * else one sort of the codes, int32 while |G| <= 2^31, int64 past it.

For the bincount and the sort, pair sums are folded from per-coordinate
modular sums (each below 2^63) into codes below |G|.  Every r(x) <= |A| <=
``GROUP_ENERGY_CAP``, so sum r^2 <= |A|^3 fits int64.  Groups past 2^62 take
the integers' pure-Python count (``_loop_profile``): one ``Counter`` of the
sums of distinct pairs over ``combinations``, each count doubled, plus one
for each element at its double, so r = 2u + v, where v(x) = #{a : 2a = x}
can exceed 1 under 2-torsion.  Neither route sorts the elements: the
frozenset is read in its own order, and the codes come out ascending from
``intset._distinct_counts``.

numpy and mpmath are imported inside the functions that use them, as the
import rule in ``intset`` says: the group counts load numpy, and only the
tradeoff points load mpmath.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product, starmap
from typing import TYPE_CHECKING

from .intset import (_as_intset, _distinct_counts, _fft_counts, _pair_value_counts,
                     energy_oracle)

if TYPE_CHECKING:
    import mpmath
    import numpy as np

GROUP_ENERGY_CAP = 10_000
# at or below this order, coordinate sums and flat codes of pair sums fit int64
_FLAT_CODE_ORDER = 2**62
# the cost of one group table value in integer ones, in the FFT cut of
# ``intset._pair_value_counts``; see ``_flat_profile``
_VALUE_COST = 2.4
REPORT_DPS = 100


@dataclass(frozen=True)
class GroupSpec:
    """Direct product of cyclic groups of the given orders.

    Each order is taken through ``operator.index``, so numpy ints work and
    a float does not, and kept as a tuple of Python ints.
    """

    orders: tuple[int, ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "orders", tuple(map(operator.index, self.orders)))
        except TypeError:
            raise ValueError(f"cyclic orders must be integers, got {self.orders!r}") from None
        if not self.orders or any(m < 2 for m in self.orders):
            raise ValueError("cyclic orders must all be >= 2")

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    def add(self, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((a + b) % m for a, b, m in zip(x, y, self.orders))

    def contains(self, x: tuple[int, ...]) -> bool:
        return len(x) == len(self.orders) and all(0 <= a < m for a, m in zip(x, self.orders))

    def elements(self):
        return product(*(range(m) for m in self.orders))


@dataclass(frozen=True)
class GroupSet:
    """Subset of a finite abelian group, as a frozenset of residue vectors.

    Construction checks that every vector has one coordinate per cyclic
    factor and each coordinate lies in [0, m): the lengths in one pass, then
    the least and greatest coordinate on each axis.  Only when that fails are
    the vectors walked one by one, so the error names the first bad vector
    in iteration order.
    """

    group: GroupSpec
    elements: frozenset

    def __post_init__(self):
        orders = self.group.orders
        if (set(map(len, self.elements)) <= {len(orders)}
                and all(0 <= min(axis) and max(axis) < m
                        for axis, m in zip(zip(*self.elements), orders))):
            return
        for x in self.elements:
            if not self.group.contains(x):
                raise ValueError(f"{x} is not a valid residue vector")

    def __len__(self) -> int:
        return len(self.elements)

    @classmethod
    def of(cls, group: GroupSpec, elements) -> "GroupSet":
        """The set of ``elements``, each a sequence of coordinates read
        through ``operator.index``: numpy ints pass, and anything else, a
        float among them, is a ValueError, never truncated."""
        try:
            return cls(group, frozenset(tuple(map(operator.index, x)) for x in elements))
        except TypeError as e:
            raise ValueError(f"residue vectors must hold integers: {e}") from None

    @classmethod
    def full(cls, group: GroupSpec) -> "GroupSet":
        if group.order > GROUP_ENERGY_CAP:
            raise ValueError(f"group order {group.order} exceeds the cap {GROUP_ENERGY_CAP}")
        return cls(group, frozenset(group.elements()))


def _check_size(a: GroupSet) -> None:
    if len(a) > GROUP_ENERGY_CAP:
        raise ValueError(f"set size {len(a)} exceeds the cap {GROUP_ENERGY_CAP}")


def _flat_profile(a: GroupSet) -> tuple[np.ndarray, np.ndarray]:
    """Flat codes of the sums in A + A, ascending, and r(x) for each.

    The code of x is its mixed-radix index, first coordinate most significant,
    which is also its place in the C-order flattening of an array shaped like
    the group.  Requires group.order <= 2^62: residues are below m_c <= 2^62,
    so each coordinate sum is below 2^63, and after folding in coordinate c
    the code is below m_0 * ... * m_c <= order.  Each r(x) <= |A|.

    The table is the full n^2 one, ordered pairs and doubles included, so on
    the FFT route ``_fft_counts`` returns r itself: rfftn over the cyclic
    orders adds in the group, with no padding, and the doubles' codes give
    its parity check.

    A table value costs about 8 integer ones to build and bincount
    (per-coordinate sums, ``%`` and folding), and the FFT over several axes
    more per call, so the cut weighs each value by ``_VALUE_COST`` = 2.4,
    which puts it on the tie measured in Z_7^3 (n = 84 to 88): the FFT from
    n = 87.  Lower quartile of 300 interleaved ``_flat_profile`` counts, FFT
    against bincount (2-core Xeon): n = 50, 228 against 137 us; n = 72, 245
    against 209; n = 84, 255 against 256; n = 88, 258 against 274; n = 100,
    277 against 339; n = 121, 300 against 589.  At weight 1 the cut sat at
    n = 135.  Other groups tie elsewhere: Z_31^3 between n = 260 and 330,
    where this cut (n = 343) is a little late, and Z_101^2, whose prime
    order sends pocketfft through Bluestein's algorithm, near n = 265, where
    this cut (n = 202) is early: n = 200, 1.94 against 1.15 ms; n = 250,
    1.97 against 1.78 ms; n = 300, 2.16 against 2.77 ms (``group_energy``).
    """
    import numpy as np

    _check_size(a)
    orders = a.group.orders
    n, k = len(a), len(orders)
    cols = np.fromiter(chain.from_iterable(a.elements), np.int64, n * k).reshape(n, k).T

    def rows(lo, hi, dtype):
        s = np.empty((hi - lo, n), dtype=np.int64)  # one buffer for every coordinate's sums
        for c, (x, m) in enumerate(zip(cols, orders)):
            np.add(x[lo:hi, None], x[None, :], out=s)
            s %= m
            if c == 0:
                code = s.astype(dtype)  # so each later order, m_c <= |G| / 2, fits dtype
            else:
                code *= m
                code += s
        return code

    def convolve():
        doubles = np.ravel_multi_index(tuple(2 * x % m for x, m in zip(cols, orders)), orders)
        return _fft_counts(orders, np.ravel_multi_index(tuple(cols), orders), doubles)

    # all n^2 codes count, so bincount while |G| < 1.5 * n^2; how that cut
    # fares on group tables is timed in the _pair_value_counts docstring
    return _distinct_counts(*_pair_value_counts(n, a.group.order, n * n, rows, orders,
                                                convolve, value_cost=_VALUE_COST))


def _loop_profile(a: GroupSet) -> dict:
    """r(x) by a pure-Python pair loop: the exact route for any order.

    The integers' identity (``intset._energy_counter``): u(x) counts the
    pairs of distinct elements summing to x, each hit by two ordered pairs,
    and v(x) = #{a : 2a = x} the doubles, so r(x) = 2u(x) + v(x).  Unlike
    in the integers, v(x) can exceed 1 under 2-torsion: in Z_2^k every
    double is 0.
    """
    _check_size(a)
    add = a.group.add
    u = Counter(starmap(add, combinations(a.elements, 2)))
    return dict(u + u + Counter(map(add, a.elements, a.elements)))


def sum_profile(a: GroupSet) -> dict:
    """r(x) = number of ordered pairs of A summing to x.

    Keys are residue vectors, tuples of Python ints.  Counted in numpy when
    group.order <= 2^62, else by a pure-Python pair loop.
    """
    import numpy as np

    if a.group.order > _FLAT_CODE_ORDER:
        return _loop_profile(a)
    codes, r = _flat_profile(a)
    keys = zip(*(c.tolist() for c in np.unravel_index(codes, a.group.orders)))
    return dict(zip(keys, r.tolist()))


def _representation_counts(a: GroupSet) -> np.ndarray:
    """r(x) over the sums x in A + A, without building their residue vectors.

    Each r(x) <= |A| <= ``GROUP_ENERGY_CAP``, so sum r^2 <= |A|^3 fits int64.
    """
    import numpy as np

    if a.group.order > _FLAT_CODE_ORDER:
        return np.fromiter(_loop_profile(a).values(), dtype=np.int64)
    return _flat_profile(a)[1]


def group_energy(a: GroupSet) -> int:
    """E(A) under the group addition, via the representation profile."""
    import numpy as np

    r = _representation_counts(a)
    return int(np.dot(r, r))


def sumset(a: GroupSet) -> frozenset:
    return frozenset(sum_profile(a))


def is_sidon(a: GroupSet) -> bool:
    """True iff all sums of unordered pairs (doubles included) are distinct,
    i.e. iff E(A) = 2|A|^2 - |A|, in any abelian group, 2-torsion included.

    A sum hit by u pairs of distinct elements and v doubles has r = 2u + v
    and adds r^2 - (4u + v) = 4u(u-1) + 4uv + v(v-1) >= 0 to E - (2|A|^2 - |A|);
    that is zero iff (u, v) is (0, 0), (1, 0) or (0, 1), one pair per sum.
    """
    return group_energy(a) == sidon_energy(len(a))


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def sidon_parabola(p: int) -> GroupSet:
    """The Sidon set {(x, x^2 mod p)} in Z_p x Z_p, of size exactly sqrt(|G|).

    Pair sums determine (x1+x2, x1^2+x2^2) and hence the unordered pair
    {x1, x2} in odd characteristic, so all pair sums are distinct.
    """
    if not _is_odd_prime(p):
        raise ValueError("p must be an odd prime")
    spec = GroupSpec((p, p))
    return GroupSet(spec, frozenset((x, x * x % p) for x in range(p)))


def sidon_energy(size: int) -> int:
    """Energy of a Sidon set in an odd-order group: 2|S|^2 - |S|.

    Each of the |S| doubles is hit once and each of the |S|(|S|-1)/2
    distinct pairs twice, so sum r^2 = |S| + 4 * |S|(|S|-1)/2.
    """
    return 2 * size * size - size


def group_product(*sets: GroupSet) -> GroupSet:
    """Direct product of group sets, with concatenated residue vectors."""
    size = math.prod(len(s) for s in sets)
    if size > GROUP_ENERGY_CAP:
        raise ValueError(f"product of size {size} exceeds the cap {GROUP_ENERGY_CAP}")
    spec = GroupSpec(tuple(m for s in sets for m in s.group.orders))
    return GroupSet(spec, frozenset(tuple(chain.from_iterable(combo))
                                    for combo in product(*(s.elements for s in sets))))


def cauchy_bound_check(a: GroupSet) -> bool:
    """Exact integer check of |A|^4 <= |A+A| * E(A) <= |G| * E(A).

    The second inequality is the density form 4*alpha <= 1 + alpha*(2+delta)
    with alpha = log|A|/log|G| and delta = log E/log|A| - 2.
    """
    import numpy as np

    n = len(a)
    if n == 0:
        return True
    r = _representation_counts(a)
    e = int(np.dot(r, r))
    return n**4 <= len(r) * e and n**4 <= a.group.order * e


# ---------------------------------------------------------------------------
# density-energy tradeoff points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TradeoffPoint:
    """k Sidon factors and n-k full factors over groups of order p^2.

    alpha = log|A| / log|G| is exactly (2n-k)/(2n); delta and the gap to the
    limiting curve 1/(2-delta) are reported as 100-digit decimals.
    """

    k: int
    n: int
    p: int
    set_size: int
    energy: int
    alpha: Fraction
    delta: mpmath.mpf
    bound_gap: mpmath.mpf

    def curve_value(self) -> mpmath.mpf:
        import mpmath

        with mpmath.workdps(REPORT_DPS):
            return 1 / (2 - self.delta)


def tradeoff_point(k: int, n: int, p: int) -> TradeoffPoint:
    """Exact size and energy of the k-Sidon product set, with alpha/delta.

    |A| = p^(2n-k) and E(A) = (2p^2-p)^k * p^(6(n-k)) by multiplicativity;
    the integer bound |A|^4 <= |G| * E(A) is asserted exactly.
    """
    import mpmath

    if n < 1 or not 0 <= k <= n:
        raise ValueError("need n >= 1 and 0 <= k <= n")
    if not _is_odd_prime(p):
        raise ValueError("p must be an odd prime")
    m = p * p
    size = p**k * m**(n - k)
    energy = sidon_energy(p)**k * (m**3)**(n - k)
    if size**4 > m**n * energy:
        raise RuntimeError("density bound violated; construction is wrong")
    alpha = Fraction(2 * n - k, 2 * n)
    with mpmath.workdps(REPORT_DPS):
        if energy == size**3:  # full-group endpoint: delta = 1 exactly
            delta = mpmath.mpf(1)
        else:
            delta = mpmath.log(energy) / mpmath.log(size) - 2
        gap = abs(mpmath.mpf(alpha.numerator) / alpha.denominator - 1 / (2 - delta))
    return TradeoffPoint(k, n, p, size, energy, alpha, delta, gap)


def density_curve(n: int, p: int) -> list[TradeoffPoint]:
    """Tradeoff points for k = 0..n; the gap to 1/(2-delta) shrinks as p grows."""
    if not 1 <= n <= 64:
        raise ValueError("dimension (--n) must be in 1..64")
    if p > 10_000:
        raise ValueError("prime capped at 10000 (log precision budget)")
    return [tradeoff_point(k, n, p) for k in range(n + 1)]


def integer_sidon_check(a) -> bool:
    """Sidon test for an integer set: all unordered pair sums are distinct.

    That holds iff a1 + a2 = a3 + a4 has only the trivial solutions, i.e.
    iff E(A) equals the Sidon minimum 2|A|^2 - |A|.
    """
    s = _as_intset(a)
    return energy_oracle(s) == sidon_energy(len(s))
