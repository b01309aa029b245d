#!/usr/bin/env python3
"""Synthesizing a set with an exact prescribed energy.

The builder combines two moves.  Coarse: keep a short arithmetic body
{1..b-1, b+k} and park the remaining elements in a lacunary tail of powers
of 10, which lowers the energy in computable steps.  Fine: each swap of a
tail element x_{3i} -> 2*x_{3i-1} - x_{3i-2} duplicates one difference and
adds exactly +4.  Every witness is re-verified by direct counting.
"""

import random

from addenergy import (
    admissible_interval,
    build_with_target_energy,
    energy_oracle,
)

rng = random.Random(7)
n = 24
lo, hi = admissible_interval(n)

print(f"size n = {n}")
print(f"attainable minimum (all differences distinct): {lo}")
print(f"guaranteed band, proved contiguous in step 4:  [{lo}, {hi}]")
print()

print("anatomy of a few builds (j = tail size, k = body shift):")
for target in (lo, (lo + hi) // 2 // 4 * 4 + n % 4, hi):
    res = build_with_target_energy(n, target)
    w = res.witness.elements
    small = [x for x in w if x < 10**4]
    print(f"  target {target}: j={res.j:>2} k={res.k} swaps={res.swaps:>2}  "
          f"body {small} + {len(w) - len(small)} tail powers")
    assert res.reached and energy_oracle(res.witness) == target

print()
print("sweep: every admissible value in the band is reached exactly")
built = 0
for target in range(lo, hi + 1, 4):
    res = build_with_target_energy(n, target)
    assert res.reached and res.energy == target
    built += 1
print(f"  {built} consecutive targets, step 4, all verified by recounting")

print()
print("past the contiguous zone the schedule reports honest misses:")
target = hi + 4
res = build_with_target_energy(n, target)
print(f"  target {target}: reached={res.reached}, closest achieved {res.energy}")
