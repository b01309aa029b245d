"""Coordinatewise products of integer sets and their multiplicative energy.

A product set is a list of factor sets added componentwise (no wraparound).
Quadruple identities split coordinatewise, so the energy of the product is
the product of the factor energies; ``product_energy_oracle`` checks that
extensionally by materializing the tuples as carry-free integer codes and
handing them to ``intset.energy_oracle``, a route independent of the
multiplicative one.  The boolean-cube exponent counts its subsets the same
way, through radix-3 codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb, log2, prod

from .constructions import LACUNARY_RATIO_MIN, build_with_target_energy
from .errors import BudgetError, default_budget
from .intset import _NUMPY_MIN_SIZE, IntSet, _as_intset, energy_oracle

MATERIALIZE_CAP = 10_000

KT_EXPONENT = log2(6)  # boolean-cube energy exponent; tight at full cubes


@dataclass(frozen=True)
class ProductSet:
    """Ordered factor sets over the alphabet {0, ..., alphabet_size-1}."""

    alphabet_size: int
    factors: tuple[IntSet, ...]

    def __post_init__(self):
        if self.alphabet_size < 2:
            raise ValueError("alphabet size must be >= 2")
        if not self.factors:
            raise ValueError("need at least one factor")
        for f in self.factors:
            if len(f) == 0:
                raise ValueError("factors must be nonempty")
            if f.elements[0] < 0 or f.elements[-1] >= self.alphabet_size:
                raise ValueError("factor elements must lie in the alphabet")

    @property
    def size(self) -> int:
        return prod(len(f) for f in self.factors)

    @property
    def dimension(self) -> int:
        return len(self.factors)


def product_set(factors, alphabet_size: int | None = None) -> ProductSet:
    """Build a ProductSet, inferring the alphabet from the factors if omitted."""
    fs = tuple(_as_intset(f) for f in factors)
    if alphabet_size is None:
        top = max((f.elements[-1] for f in fs if len(f)), default=0)
        alphabet_size = max(2, top + 1)
    return ProductSet(alphabet_size, fs)


def product_energy(p: ProductSet) -> int:
    """Energy via multiplicativity: the product of factor energies."""
    return prod(energy_oracle(f) for f in p.factors)


def _check_cap(p: ProductSet) -> None:
    if p.size > MATERIALIZE_CAP:
        raise ValueError(f"product of size {p.size} exceeds the cap {MATERIALIZE_CAP}")


def materialize(p: ProductSet) -> list[tuple[int, ...]]:
    _check_cap(p)
    return list(product(*(f.elements for f in p.factors)))


def _encode(p: ProductSet) -> list[int]:
    """Tuples as digits in radix 2M-1, under which pair sums are carry-free,
    in the lexicographic order of ``materialize``.

    While radix^d < 2^63 every code fits int64, and numpy builds them by one
    outer sum per factor: codes * radix + digit, flattened in C order, so
    the last factor varies fastest.  On the product rung of the
    ``count-mix`` benchmark (two factors over 48 letters, 720 to 780 tuples)
    that took the encode from 0.12 to 0.024 ms, best of 50 (2-core Xeon).
    Past 2^63, or below ``_NUMPY_MIN_SIZE`` tuples, whose energy the Counter
    counts without loading numpy, the codes are Python ints, built tuple by
    tuple.
    """
    radix = 2 * p.alphabet_size - 1
    if p.size < _NUMPY_MIN_SIZE or radix ** p.dimension >= 2**63:
        codes = []
        for tup in materialize(p):
            c = 0
            for digit in tup:
                c = c * radix + digit
            codes.append(c)
        return codes
    import numpy as np

    _check_cap(p)
    codes = np.zeros(1, dtype=np.int64)
    for f in p.factors:
        codes = (codes[:, None] * radix + np.array(f.elements, dtype=np.int64)).ravel()
    return codes.tolist()


def product_energy_oracle(p: ProductSet) -> int:
    """Energy by materializing all tuples and counting pair sums directly.

    The tuples become distinct carry-free integer codes, so the product's
    energy is ``energy_oracle`` of the codes.  The codes of d factors over M
    letters span less than (2M - 1)^d, so a dense product is counted by the
    FFT over the least 2^a 3^b 5^c points at least twice that span plus one
    (``intset._transform_length``): 9,216 for two factors over 48 letters,
    whose codes span up to 4,512, where the power of two was 16,384.
    """
    # already strictly ascending: _encode walks the sorted factors in lex
    # order, and every digit is below the radix
    return energy_oracle(IntSet._from_sorted(tuple(_encode(p))))


# ---------------------------------------------------------------------------
# boolean-cube exponent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CubeExponentReport:
    k: int
    cube_energy: int
    exponent_limit: float
    max_exponent: float | None
    max_subset: tuple[tuple[int, ...], ...] | None


def cube_energy_exponent(k: int) -> CubeExponentReport:
    """Full-cube energy 6^k plus, for k <= 3, the exhaustive subset maximum
    of log E(A) / log |A| over all A in {0,1}^k with |A| >= 2."""
    if k < 1:
        raise ValueError("k must be positive")
    cube_energy = 6 ** k
    if k > 3:
        return CubeExponentReport(k, cube_energy, KT_EXPONENT, None, None)
    import numpy as np

    points = list(product((0, 1), repeat=k))
    # radix-3 codes: coordinate sums are at most 2, so pair sums are carry-free
    code = {pt: sum(c * 3**i for i, c in enumerate(pt)) for pt in points}
    best, best_subset = None, None
    for size in range(2, len(points) + 1):
        for subset in combinations(points, size):
            ratio = np.log(energy_oracle([code[pt] for pt in subset])) / np.log(size)
            if best is None or ratio > best:
                best, best_subset = ratio, subset
    return CubeExponentReport(k, cube_energy, KT_EXPONENT, float(best), best_subset)


# ---------------------------------------------------------------------------
# ratio chains of same-size products with consecutive energies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioChain:
    """Products X_i sharing all factors but the last, with energies in a
    4-step progression; consecutive ratios stay below 1 + 360/w^3."""

    w: int
    n: int
    alphabet_size: int
    sets: tuple[ProductSet, ...]
    factor_energies: tuple[int, ...]
    energies: tuple[int, ...]
    ratios: tuple[Fraction, ...]
    ratio_bound: Fraction
    target_length: int
    misses: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "w": self.w,
            "n": self.n,
            "alphabet_size": str(self.alphabet_size),
            "target_length": self.target_length,
            "achieved": len(self.sets),
            "factor_energies": [str(e) for e in self.factor_energies],
            "energies": [str(e) for e in self.energies],
            "ratios": [{"num": str(r.numerator), "den": str(r.denominator)}
                       for r in self.ratios],
            "ratio_bound": {"num": str(self.ratio_bound.numerator),
                            "den": str(self.ratio_bound.denominator)},
            "misses": [str(t) for t in self.misses],
            "verified": True,
        }


def ratio_chain(w: int, n: int, base: int = 10, budget: int | None = None) -> RatioChain:
    """Realize consecutive factor energies t0, t0+4, ... as w-element sets
    and chain them into n-fold products of constant cardinality w^n.

    The start t0 is the first admissible value at or above max(w^3/90,
    minimum energy); the chain targets floor(w^3/30) sets and stops at the
    first unreachable energy, reporting it in ``misses``.  Each set is one
    self-checked build, and the floor(w^3/30) builds count against
    ``budget`` (default ``default_budget()``) before the first one: past
    it, a ``BudgetError``.
    """
    if w < 12:
        raise ValueError("factor size must be >= 12 (builder constraint)")
    if n < 2:
        raise ValueError("dimension must be >= 2")
    # checked here, as a miss below would read as an unreachable chain start
    if base < LACUNARY_RATIO_MIN:
        raise ValueError(f"base must be >= {LACUNARY_RATIO_MIN}")
    if budget is None:
        budget = default_budget()
    target_length = w**3 // 30
    if target_length > budget:
        raise BudgetError(target_length, budget, f"ratio chain (w={w}) builds")
    floor = 2 * w * w - w
    band_lo = -(-w**3 // 90)  # ceil(w^3 / 90); below it the ratio bound fails
    t0 = max(floor, band_lo)
    t0 += (w - t0) % 4
    factors: list[IntSet] = []
    misses: list[int] = []
    for i in range(target_length):
        t = t0 + 4 * i
        try:
            res = build_with_target_energy(w, t, base)
        except ValueError:
            misses.append(t)
            break
        if not res.reached:
            misses.append(t)
            break
        factors.append(res.witness)
    if len(factors) < 2:
        raise RuntimeError(f"chain start {t0} unreachable at w={w}")
    top = max(f.elements[-1] for f in factors)
    m = top + 1
    first = factors[0]
    sets = tuple(ProductSet(m, (first,) * (n - 1) + (f,)) for f in factors)
    factor_energies = tuple(t0 + 4 * i for i in range(len(factors)))
    e_first = factor_energies[0] ** (n - 1)
    energies = tuple(e_first * fe for fe in factor_energies)
    ratios = tuple(Fraction(b, a) for a, b in zip(energies, energies[1:]))
    bound = 1 + Fraction(360, w**3)
    return RatioChain(w, n, m, sets, factor_energies, energies, ratios, bound,
                      target_length, tuple(misses))


# ---------------------------------------------------------------------------
# empirical minimum consecutive energy ratio
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinRatioResult:
    alphabet_size: int
    factor_size: int
    dimension: int
    factor_energies: tuple[int, ...]
    products: tuple[int, ...]
    min_ratio: Fraction | None

    @property
    def degenerate(self) -> bool:
        return self.min_ratio is None


def min_ratio_empirical(alphabet_size: int, factor_size: int, dimension: int,
                        budget: int | None = None) -> MinRatioResult:
    """Exhaustive minimum of consecutive ratios among product energies.

    Collects the energies attainable by factor_size-subsets of the alphabet,
    forms every product of `dimension` of them, sorts the distinct values and
    returns the smallest consecutive ratio.  A single product value yields a
    degenerate result with no ratio.
    """
    if not 1 <= factor_size <= alphabet_size <= 5:
        raise ValueError("need 1 <= factor_size (--w) <= alphabet_size (--M) <= 5")
    if not 1 <= dimension <= 4:
        raise ValueError("need 1 <= dimension (--n) <= 4")
    if budget is None:
        budget = default_budget()
    subsets = comb(alphabet_size, factor_size)
    if subsets > budget:
        raise BudgetError(subsets, budget, "factor-spectrum enumeration")
    energies = sorted({energy_oracle(c)
                       for c in combinations(range(alphabet_size), factor_size)})
    ordered = tuple(sorted({prod(c) for c in combinations_with_replacement(energies, dimension)}))
    best = min((Fraction(b, a) for a, b in zip(ordered, ordered[1:])), default=None)
    return MinRatioResult(alphabet_size, factor_size, dimension,
                          tuple(energies), ordered, best)
