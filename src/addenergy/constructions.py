"""Two-stage synthesis of integer sets with prescribed additive energy.

The coarse stage walks down from the maximum-energy arithmetic progression:
shifting the top element of {1..b} right by k lowers the energy by exactly
4bk - 2k^2 - 6k, and moving elements out of the progression into a sharply
growing "lacunary" tail (consecutive powers of the base, each exceeding
base times the body maximum) lowers it further while keeping every
tail-involved difference unique.  The fine stage nudges the energy upward in
steps of exactly +4 by replacing every third tail element x_{3i} with
2*x_{3i-1} - x_{3i-2}, which duplicates one existing difference.

Together the stages cover a contiguous band of energies, step 4, from the
minimum 2n^2 - n (all differences distinct) up to a computable ceiling;
``build_with_target_energy`` schedules both stages for a requested value and
verifies the result by direct counting before returning it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .intset import IntSet, _as_intset, energy_oracle, max_energy

# sharp-growth ratio guaranteeing all pairwise differences distinct
LACUNARY_RATIO_MIN = 10
# smallest size the target builder accepts; the spectrum module covers
# smaller sizes exhaustively
MIN_BUILD_SIZE = 12


def arithmetic_progression(n: int) -> IntSet:
    """{1, ..., n}; the unique maximum-energy shape up to affine maps."""
    if n < 1:
        raise ValueError("n must be positive")
    return IntSet._from_sorted(tuple(range(1, n + 1)))


def shifted_ap(n: int, k: int) -> IntSet:
    """{1, ..., n-1, n+k}: the progression with its top element pushed right."""
    if n < 3:
        raise ValueError("shifted progressions need n >= 3")
    if not 1 <= k <= n - 2:
        raise ValueError("shift k must satisfy 1 <= k <= n-2")
    return IntSet._from_sorted(tuple(range(1, n)) + (n + k,))


def energy_drop(n: int, k: int) -> int:
    """Exact energy lost by the shift: 4nk - 2k^2 - 6k."""
    if n < 3 or not 1 <= k <= n - 2:
        raise ValueError("drop formula requires n >= 3 and 1 <= k <= n-2")
    return 4 * n * k - 2 * k * k - 6 * k


def mod4_residue(n: int) -> int:
    """Residue class mod 4 shared by every energy of an n-element set."""
    if n < 1:
        raise ValueError("n must be positive")
    return n % 4


@dataclass(frozen=True)
class LacunarySeq:
    """Positive integers with consecutive ratios >= ratio (default 10)."""

    elements: IntSet
    ratio: int = LACUNARY_RATIO_MIN

    def __post_init__(self):
        if self.ratio < LACUNARY_RATIO_MIN:
            raise ValueError(f"ratio must be >= {LACUNARY_RATIO_MIN}")
        if not is_lacunary(self.elements, self.ratio):
            raise ValueError(f"not a positive sequence with consecutive ratios >= {self.ratio}")

    def __len__(self) -> int:
        return len(self.elements)


def is_lacunary(a, ratio: int = LACUNARY_RATIO_MIN) -> bool:
    s = _as_intset(a)
    els = s.elements
    if els and els[0] <= 0:
        return False
    return all(b >= ratio * a_ for a_, b in zip(els, els[1:]))


def lacunary_swap(x, swaps: int) -> IntSet:
    """Apply the +4 swap to the first `swaps` blocks of three elements.

    Block i of a lacunary sequence x_1 < x_2 < ... has its third element
    x_{3i} replaced by 2*x_{3i-1} - x_{3i-2}.  Each swap raises the additive
    energy by exactly 4: one difference is duplicated, two multiplicity-one
    differences vanish, one new multiplicity-one difference appears.
    """
    seq = x if isinstance(x, LacunarySeq) else LacunarySeq(_as_intset(x))
    els = list(seq.elements.elements)
    if swaps < 0:
        raise ValueError("swap count must be nonnegative")
    if swaps > len(els) // 3:
        raise ValueError(f"at most {len(els) // 3} swaps fit in {len(els)} elements")
    for i in range(1, swaps + 1):
        els[3 * i - 1] = 2 * els[3 * i - 2] - els[3 * i - 3]
    # still strictly ascending: x_{3i-2} < x_{3i-1} gives x_{3i-1} <
    # 2x_{3i-1} - x_{3i-2}, and the ratio gives x_{3i+1} >= 10x_{3i} >
    # 2x_{3i-1} - x_{3i-2}; x_{3i+1} opens the next block and is never replaced
    return IntSet._from_sorted(tuple(els))


# ---------------------------------------------------------------------------
# staged sets: shifted-progression body + lacunary tail
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StagedSet:
    """Body {1..b-1, b+k} of size b = n - j plus j lacunary tail elements."""

    n: int
    j: int
    k: int
    base: int
    body: IntSet
    tail: IntSet

    @property
    def elements(self) -> IntSet:
        return IntSet(self.body.elements + self.tail.elements)

    @property
    def coarse_energy(self) -> int:
        return staged_energy(self.n, self.j, self.k)


def _validate_stage(n: int, j: int, k: int) -> None:
    if n < 1 or not 0 <= j <= n - 1:
        raise ValueError("need 0 <= j <= n-1")
    b = n - j
    if k == 0:
        return
    if b < 3:
        raise ValueError("a shift needs a body of at least 3 elements")
    if not 1 <= k <= b - 2:
        raise ValueError("shift k must satisfy 1 <= k <= body_size - 2")


def tail_contribution(n: int, j: int) -> int:
    """Energy added by j isolated tail elements: sum of 4s+1 as size grows.

    A tail element x above a set S of size s with x + min S > 2 * max S
    makes s new sums x + b, each above every sum of S and all distinct, and
    the double 2x above them, so it adds exactly 4s + 1 (the lemma
    ``energy_oracle`` peels by; a swapped block's last element 2y - x meets
    the one sum y + y as well, at x, and adds 4s + 5).  Summed over
    s = n - j, ..., n - 1 this is 2n(n - 1) - 2b(b - 1) + j, b = n - j.
    """
    b = n - j
    return 2 * n * (n - 1) - 2 * b * (b - 1) + j


def staged_energy(n: int, j: int, k: int) -> int:
    """Closed-form energy of the staged set before any fine swaps."""
    _validate_stage(n, j, k)
    b = n - j
    drop = 0 if k == 0 else energy_drop(b, k)
    return max_energy(b) - drop + tail_contribution(n, j)


def staged_set(n: int, j: int, k: int, base: int = 10) -> StagedSet:
    """Construct the staged set; tail powers start just above base * max(body)."""
    _validate_stage(n, j, k)
    if base < LACUNARY_RATIO_MIN:
        raise ValueError(f"base must be >= {LACUNARY_RATIO_MIN}")
    b = n - j
    if k:
        body = tuple(range(1, b)) + (b + k,)
    else:
        body = tuple(range(1, b + 1))
    power = base
    while power <= base * body[-1]:
        power *= base
    tail = []
    for _ in range(j):
        tail.append(power)
        power *= base
    return StagedSet(n, j, k, base, IntSet._from_sorted(body), IntSet._from_sorted(tuple(tail)))


def _stage_shifts(b: int) -> range:
    """Valid shift values for a body of size b, ascending (energy descending)."""
    return range(0, max(1, b - 1))


# ---------------------------------------------------------------------------
# target-energy builder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BuildResult:
    """Outcome of a target-energy build.

    When ``reached`` is false the witness carries the closest energy at or
    below the target the schedule could produce; the result is never a set
    whose energy silently differs from ``energy``.
    """

    n: int
    target: int
    reached: bool
    witness: IntSet
    energy: int
    j: int
    k: int
    swaps: int


@lru_cache(maxsize=None)
def dense_ceiling(n: int) -> int:
    """Largest t such that every admissible value in [2n^2-n, t] is buildable.

    Walking stages from the largest tail down, the first stage whose swap
    budget j//3 cannot bridge its widest coarse gap leaves the first hole;
    everything below that hole is covered contiguously in steps of 4.

    Proof.  Write C(j, k) = staged_energy(n, j, k), b = n - j for the body
    size and B = j // 3 for the swap budget.  Stage j reaches the values
    C(j, k) + 4s with 0 <= k <= max(0, b-2) and 0 <= s <= B, all congruent
    to n mod 4; its top is C(j, 0) + 4B.

    1. The stages abut: C(j, max(0, b-2)) = C(j+1, 0) for b >= 2, because
       energy_drop(b, b-2) = 2(b-1)(b-2), max_energy(b) - max_energy(b-1)
       = 2(b-1)^2 + 2b - 1 and tail_contribution(n, j) minus
       tail_contribution(n, j+1) is -(4b-3).  With C(n-1, 0) = 2n^2 - n,
       the coarse ranges [C(j+1, 0), C(j, 0)] tile [2n^2-n, max_energy(n)]
       upward as j falls.
    2. Inside stage j, C(j, k) - C(j, k+1) = 4(b-k-2), so the swaps from
       C(j, k+1) fill that gap exactly when k >= b-3-B.  A stage with
       b <= 3 or B >= b-3 covers its whole coarse range.
    3. First-fit is complete.  The builder takes the largest coarse energy
       e <= t at each stage, so if stage j reaches t = C(j, k) + 4s then
       e >= C(j, k) and (t - e)/4 <= s <= B swaps suffice.  The builder
       reaches t if and only if some stage does.
    4. The first hole.  Let j be the largest stage with b >= 4 and
       B <= b-4 (j = 0 qualifies for n >= 4), and k = b-4-B.  By 1 and 2
       the stages after j, and stage j from C(j, b-2) up to C(j, k+1) + 4B,
       cover every admissible value up to that point.  The next value
       h = C(j, k+1) + 4(B+1) is reached by no stage:
       - stage j jumps from C(j, k+1) + 4B to C(j, k) = h + 4;
       - stages before j start at C(j-1, b-1) = C(j, 0) > h;
       - stage j+1 tops out at C(j, b-2) + 4((j+1)//3) <= C(j, b-2) +
         4(B+1), and by 2, C(j, k+1) - C(j, b-2) = 2(B+1)(B+2) > 0;
       - from stage i to i+1 with b_i = n - i >= 3 the coarse top falls by
         2(b_i-1)(b_i-2) >= 4 while the budget grows by at most one swap,
         and stage n-1 tops out at 2n^2-n + 4((n-1)//3), not above stage
         n-3's 2n^2-n + 4 + 4((n-3)//3); so no stage after j+1 ends higher.
       Hence the covered range ends at h - 4 = C(j, k+1) + 4B, the value
       returned below, and for n >= 4 it lies below max_energy(n).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    for j in range(n - 1, -1, -1):
        b = n - j
        budget = j // 3
        if b >= 4 and budget <= b - 4:
            k_hole = b - 4 - budget
            return staged_energy(n, j, k_hole + 1) + 4 * budget
    return max_energy(n)


def admissible_interval(n: int) -> tuple[int, int]:
    """Guaranteed target band [2n^2-n, dense_ceiling(n)].

    Every target congruent to n mod 4 in the band is reached by the
    deterministic schedule, as ``dense_ceiling`` proves.  Both ends are
    such targets, so the band is non-empty; at n = 12 it holds 19 of them.
    Targets above it, up to max_energy(n), are attempted best-effort.
    """
    if n < MIN_BUILD_SIZE:
        raise ValueError(f"builder supports n >= {MIN_BUILD_SIZE}")
    return 2 * n * n - n, dense_ceiling(n)


def _best_at_stage(n: int, j: int, target: int) -> tuple[int, int] | None:
    """Largest coarse energy <= target at stage j, as (energy, k).

    C(j, k) strictly decreases over the shifts k = 0..max(0, b - 2)
    (``dense_ceiling``, step 2), so the smallest k with C(j, k) <= target is
    found by bisection.  k = 0 is tried first: the coarse ranges tile the
    band upward as j falls (step 1), so every stage the builder meets before
    the one whose range holds the target has its top C(j, 0) <= target.
    """
    top = staged_energy(n, j, 0)
    if top <= target:
        return top, 0
    from bisect import bisect_left  # on first use, so importing the module adds nothing

    shifts = _stage_shifts(n - j)
    k = bisect_left(shifts, -target, 1, key=lambda k: -staged_energy(n, j, k))
    if k == len(shifts):
        return None
    return staged_energy(n, j, k), k


def build_with_target_energy(n: int, target: int, base: int = 10) -> BuildResult:
    """Synthesize an n-element integer set with the exact requested energy.

    Deterministic first-fit over stages with the largest tail first: at each
    stage take the largest coarse energy not exceeding the target and check
    whether the remaining gap is a multiple of 4 within the stage's swap
    budget.  Targets run from 2n^2 - n up to max_energy(n), which stage 0,
    the progression {1..n}, attains.  Every returned witness is re-verified
    by ``energy_oracle``; a miss returns a ``reached=False`` result carrying
    the closest achieved value.

    The recount peels the whole tail in O(log n) per element: a lone tail
    element adds 4s + 1 (``tail_contribution``), the last of a swapped
    block 4s + 5, and the body is counted directly.  It tests each element
    on the witness itself, not on the schedule, so a schedule bug that left
    a tail element colliding more is still counted directly and caught
    here.
    """
    if n < MIN_BUILD_SIZE:
        raise ValueError(f"builder supports n >= {MIN_BUILD_SIZE}")
    if target % 4 != n % 4:
        raise ValueError(f"energies of {n}-element sets are {n % 4} mod 4, "
                         f"target {target} is {target % 4}")
    floor = 2 * n * n - n
    if target < floor:
        raise ValueError(f"no {n}-element set has energy below {floor}")
    if target > max_energy(n):
        raise ValueError(f"targets above the progression maximum "
                         f"{max_energy(n)} are out of range")

    best: tuple[int, int, int, int] | None = None  # (energy, j, k, swaps)
    hit: tuple[int, int, int] | None = None
    for j in range(n - 1, -1, -1):
        found = _best_at_stage(n, j, target)
        if found is None:
            continue
        e, k = found
        budget = j // 3
        need = (target - e) // 4
        if need <= budget:
            hit = (j, k, need)
            break
        reach = e + 4 * budget
        if best is None or reach > best[0]:
            best = (reach, j, k, budget)

    if hit is not None:
        j, k, swaps = hit
        achieved = target
    else:
        if best is None:  # stage n-1 has coarse energy 2n^2 - n, the floor
            raise RuntimeError(f"no stage reaches below target {target} at n={n}")
        achieved, j, k, swaps = best

    ss = staged_set(n, j, k, base)
    tail = lacunary_swap(LacunarySeq(ss.tail, base), swaps) if swaps else ss.tail
    # ascending: the tail, swapped or not, starts at a power of the base
    # above base * max(body)
    witness = IntSet._from_sorted(ss.body.elements + tail.elements)
    verified = energy_oracle(witness)
    if verified != achieved or len(witness) != n:
        raise RuntimeError(
            f"schedule produced energy {verified} (size {len(witness)}) "
            f"instead of {achieved} at (n={n}, j={j}, k={k}, swaps={swaps})")
    return BuildResult(n, target, hit is not None, witness, achieved, j, k, swaps)
