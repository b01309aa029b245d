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
step 2^100 + 1, where every pair sum is shared.
Last come the large counts past 2^62 (``LARGE_COUNTS``): ``energy_oracle`` of
4,100 random 70-bit integers and ``product_energy_oracle`` of wide products
of 65^2, 68^2 and 100^2 (``MATERIALIZE_CAP``) codes, each run once in a
fresh process that reports its time, its peak RSS and the energy, or the
name of the exception it raised.  The 100^2 case peaks near 1.6 GB.  The
results are merged into ``BENCH_hashed.json`` (``--out``) under the label,
next to the labels already there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

SEEDS = (1, 2, 3, 4)
REPEATS = 9
MEMORY_SIZES = (1000, 2500)
# name: (the size of a random set of 70-bit integers, or 0; letters per factor
# of a two-factor product over an alphabet of 2^40, or 0)
LARGE_COUNTS = {
    "random70_n4100": (4100, 0),
    "product_65x65": (0, 65),
    "product_68x68": (0, 68),
    "product_100x100": (0, 100),
}


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


def run_large_count(name: str) -> None:
    """Count one ``LARGE_COUNTS`` case and print its result as JSON."""
    from addenergy import BudgetError, IntSet, energy_oracle, product_energy_oracle, product_set

    size, letters = LARGE_COUNTS[name]
    rng = random.Random(size + letters)
    if size:
        els = set()
        while len(els) < size:
            els.add(rng.getrandbits(70))
        count, arg = energy_oracle, IntSet(els)
    else:
        factor = rng.sample(range(2**40), letters)
        count, arg = product_energy_oracle, product_set([factor, factor], 2**40)
    start = time.perf_counter()
    try:
        row = {"energy": str(count(arg))}
    except BudgetError as exc:
        row = {"error": type(exc).__name__}
    row["ms"] = round(1000 * (time.perf_counter() - start), 1)
    row["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    print(json.dumps(row))


def large_counts(src: Path) -> dict:
    """Each ``LARGE_COUNTS`` case in a fresh process, so its peak RSS is its own."""
    out = {}
    for name in LARGE_COUNTS:
        probe = (f"import sys; sys.path[:0] = [{str(src)!r}, {str(Path(__file__).parent)!r}]; "
                 f"import bench_hashed; bench_hashed.run_large_count({name!r})")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True)
        out[name] = json.loads(done.stdout)
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
    src = Path(args.src).resolve()
    sys.path[:0] = [str(src), str(Path("bench").resolve())]
    import numpy

    result = {
        "witness_ms": {str(seed): witness_times(seed) for seed in SEEDS},
        "bytes_per_pair": memory(),
        "large_counts": large_counts(src),
    }
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("method", (
        f"best of {REPEATS} in-process runs of intset._energy_hashed on the offsets of "
        f"each build-band witness, seeds {', '.join(map(str, SEEDS))}, in deck order; "
        "schedule_sum_ms sums the best of the build with its self-check stubbed; "
        "bytes_per_pair is the tracemalloc peak of one count over n(n-1)/2; "
        "large_counts is one run of each large count past 2^62 in a fresh process: "
        "its time, the process's peak RSS, and the energy or the exception raised"))
    doc.setdefault("host", {"cpu": cpu_model(), "nproc": os.cpu_count(),
                            "python": platform.python_version(), "numpy": numpy.__version__})
    doc[args.label] = result
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for seed, row in result["witness_ms"].items():
        print(f"{args.label} seed {seed}: {row['sum_ms']} ms over {len(row['n'])} witnesses, "
              f"schedule {row['schedule_sum_ms']} ms")
    print(f"{args.label} bytes per pair: {result['bytes_per_pair']}")
    for name, row in result["large_counts"].items():
        print(f"{args.label} {name}: {row}")


if __name__ == "__main__":
    main()
