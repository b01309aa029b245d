"""Time the hashed sum count on the build-band witnesses, and measure its memory.

    python tools/bench_hashed.py --label after
    python tools/bench_hashed.py --label before --src /path/to/old/checkout/src

Run from the root of a source checkout.  The library is imported from
``--src`` (default ``src``); the build-band deck comes from ``bench/``.  For
each seed 1-4 the script builds every witness of the deck and times
``intset._energy_hashed`` on its offsets, best of 9 runs in this process,
and the schedule alone: the build with its self-check replaced by the
known energy, best of 9, summed over the deck.
It then measures the ``tracemalloc`` peak of one count per unordered pair,
at n = 1,000 and 2,500, on random 70-bit offsets and on a progression of
step 2^100 + 1, where every pair sum is shared.  The results are merged
into ``BENCH_hashed.json`` (``--out``) under the label, next to the labels
already there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
import tracemalloc
from pathlib import Path

SEEDS = (1, 2, 3, 4)
REPEATS = 9
MEMORY_SIZES = (1000, 2500)


def best_ms(count, offsets) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        count(offsets)
        best = min(best, time.perf_counter() - start)
    return round(1000 * best, 3)


def schedule_ms(args: tuple[int, int], energy: int) -> float:
    """Best time of one build with its self-check replaced by the known energy."""
    from addenergy import constructions

    real = constructions.energy_oracle
    constructions.energy_oracle = lambda witness: energy
    try:
        return best_ms(lambda a: constructions.build_with_target_energy(*a), args)
    finally:
        constructions.energy_oracle = real


def witness_times(seed: int) -> dict:
    from addenergy import constructions, intset
    from workloads import BuildBand

    sizes, times, schedule = [], [], []
    for item in BuildBand().deck(seed):
        res = constructions.build_with_target_energy(*item.args)
        els = res.witness.elements
        sizes.append(len(els))
        times.append(best_ms(intset._energy_hashed, tuple(x - els[0] for x in els)))
        schedule.append(schedule_ms(item.args, res.energy))
    return {"n": sizes, "best_ms": times, "sum_ms": round(sum(times), 3),
            "schedule_sum_ms": round(sum(schedule), 3)}


def bytes_per_pair(offsets: tuple[int, ...]) -> float:
    from addenergy import intset

    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    intset._energy_hashed(offsets)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    n = len(offsets)
    return round((peak - base) / (n * (n - 1) // 2), 2)


def memory() -> dict:
    rng = random.Random(12)
    out = {}
    for n in MEMORY_SIZES:
        randoms = sorted({rng.getrandbits(70) for _ in range(n)})
        out[str(n)] = {
            "random": bytes_per_pair(tuple(x - randoms[0] for x in randoms)),
            "progression": bytes_per_pair(tuple((2**100 + 1) * i for i in range(n))),
        }
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", default="src")
    parser.add_argument("--out", default="BENCH_hashed.json")
    args = parser.parse_args()
    sys.path[:0] = [str(Path(args.src).resolve()), str(Path("bench").resolve())]
    import numpy

    result = {
        "witness_ms": {str(seed): witness_times(seed) for seed in SEEDS},
        "bytes_per_pair": memory(),
    }
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("method", (
        f"best of {REPEATS} in-process runs of intset._energy_hashed on the offsets of "
        f"each build-band witness, seeds {', '.join(map(str, SEEDS))}, in deck order; "
        "schedule_sum_ms sums the best of the build with its self-check stubbed; "
        "bytes_per_pair is the tracemalloc peak of one count over n(n-1)/2"))
    doc.setdefault("host", {"cpu": cpu_model(), "nproc": os.cpu_count(),
                            "python": platform.python_version(), "numpy": numpy.__version__})
    doc[args.label] = result
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for seed, row in result["witness_ms"].items():
        print(f"{args.label} seed {seed}: {row['sum_ms']} ms over {len(row['n'])} witnesses, "
              f"schedule {row['schedule_sum_ms']} ms")
    print(f"{args.label} bytes per pair: {result['bytes_per_pair']}")


if __name__ == "__main__":
    main()
