"""Time the per-call cost of the exact counts on count-mix, old source against new.

    python tools/bench_calls.py --src /path/to/old/checkout/src

Run from the root of a source checkout.  The old library comes from
``--src`` and the new one from this checkout's ``src``; the count-mix deck
and its pass loop come from this checkout's ``bench/`` either way.  Each
side runs in its own fresh interpreter, which for the deck of ``SEED``

* times four calls on every rung of the count-mix size ladder, each the
  best of ``REPEATS`` runs: ``IntSet`` of the item's sorted tuple and
  ``energy_oracle`` on every energy item, ``difference_profile`` on those
  the workload also profiles (n <= ``PROFILE_CHECK_MAX``), and
  ``GroupSet.of`` on the Z_7^3 items;
* runs ``bench/run.py``'s ``measure`` for ``PASS_SECONDS`` (a check pass,
  then whole passes) and reports what the benchmark reports from each op's
  best latency: ``op_ms_p50``, ``wall_s`` and ``op_ms_tail``, and the result
  digest.

The two sides alternate within one run: ``PAIRS`` pairs, the side that goes
first switching from pair to pair, so a host whose speed drifts over minutes
slows both sides alike.  Per call and rung the result holds the median over
the pairs of each side's best time; per metric, the median and quartiles of
each side, the median over the pairs of the new side minus the old, and the
pairs where the new side was lower.  Both sides must give the same result
digest.  The result is written to ``BENCH_calls.json`` (``--out``), with the
CPUs the run may use (``host.cpus``): under ``taskset -c 0`` it times the
library's one-CPU path.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

PAIRS = 9
SEED = 1
REPEATS = 7
PASS_SECONDS = 6.0
BENCH = Path(__file__).resolve().parent.parent / "bench"
METRICS = ("op_ms_p50", "wall_s", "op_ms_tail")


def best_us(call, *args) -> float:
    """Fastest of ``REPEATS`` runs of call(*args), in microseconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        call(*args)
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best


def child() -> dict:
    """One side's measurements, in a fresh interpreter whose addenergy is that side's."""
    sys.path.insert(0, str(BENCH))
    import run
    import workloads
    from addenergy import groups, intset

    wl = workloads.make("count-mix", BENCH.parent / "src")
    deck = wl.deck(SEED)
    calls: dict = {}

    def record(call: str, shape: str, n: int, us: float) -> None:
        calls.setdefault(call, {}).setdefault(shape, []).append([n, us])

    for item in deck:
        if item.kind == "energy":
            (els,) = item.args
            n = len(els)
            record("IntSet(tuple)", item.shape, n, best_us(intset.IntSet, els))
            record("energy_oracle", item.shape, n, best_us(intset.energy_oracle, els))
            if n <= workloads.PROFILE_CHECK_MAX:
                record("difference_profile", item.shape, n,
                       best_us(intset.difference_profile, els))
        elif item.kind in ("sum_profile", "cauchy_bound_check"):
            record("GroupSet.of", item.shape, len(item.args),
                   best_us(groups.GroupSet.of, workloads._Z7_CUBE, item.args))
    passes, reference, outcome, _ = run.measure(wl, deck, PASS_SECONDS, None)
    if outcome.failures:
        raise SystemExit(f"count-mix failed: {outcome.failures[:3]}")
    metrics, _ = run.end_to_end(wl, deck, passes, [0.0])
    return {"calls": calls, "passes": len(passes),
            "metrics": {k: metrics[k][0] for k in METRICS},
            "digest": run.result_digest(wl, reference)}


def run_side(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    done = subprocess.run([sys.executable, __file__, "--child"], env=env, capture_output=True,
                          text=True, check=True, timeout=600)
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list[float], digits: int) -> dict:
    q1, mid, q3 = quantiles(values, n=4, method="inclusive")
    return {"median": round(mid, digits), "q1": round(q1, digits), "q3": round(q3, digits),
            "runs": [round(v, digits) for v in values]}


def paired(before: list[float], after: list[float], digits: int) -> dict:
    return {"before": spread(before, digits), "after": spread(after, digits),
            "after_lower_pairs": sum(a < b for a, b in zip(after, before)),
            "median_change": round(median(after) / median(before) - 1, 3),
            "median_pair_diff": round(median(a - b for a, b in zip(after, before)), digits)}


def measure(sources: dict[str, Path]) -> dict:
    runs: dict[str, list[dict]] = {side: [] for side in sources}
    sides = list(sources)
    for pair in range(PAIRS):
        for side in (sides if pair % 2 == 0 else sides[::-1]):
            runs[side].append(run_side(sources[side]))
    digests = {side: sorted({r["digest"] for r in runs[side]}) for side in sides}
    if digests["before"] != digests["after"] or len(digests["after"]) != 1:
        raise SystemExit(f"result digests differ: {digests}")
    calls = {}
    for call, rungs in runs["after"][0]["calls"].items():
        calls[call] = {}
        for shape, rows in rungs.items():
            per_side = {side: [[r["calls"][call][shape][i][1] for r in runs[side]]
                               for i in range(len(rows))] for side in sides}
            totals = {side: [sum(col[p] for col in per_side[side]) for p in range(PAIRS)]
                      for side in sides}
            calls[call][shape] = {
                "n": [n for n, _ in rows],
                "before_us": [round(median(col), 1) for col in per_side["before"]],
                "after_us": [round(median(col), 1) for col in per_side["after"]],
                "ladder_total_us": paired(totals["before"], totals["after"], 1),
            }
    count_mix = {k: paired([r["metrics"][k] for r in runs["before"]],
                           [r["metrics"][k] for r in runs["after"]], 5) for k in METRICS}
    count_mix["passes"] = {side: [r["passes"] for r in runs[side]] for side in sides}
    return {"calls": calls, "count_mix": count_mix, "digest": digests["after"][0]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", help="the old library's src directory")
    parser.add_argument("--out", default="BENCH_calls.json")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(child()))
        return
    if not args.src:
        parser.error("--src is required")
    sources = {"before": Path(args.src).resolve(), "after": Path("src").resolve()}
    import numpy
    from bench_startup import cpu_model

    doc = {
        "method": (
            f"{PAIRS} pairs; in each, one fresh interpreter per source, back to back, "
            "the first side alternating by pair.  calls: best of "
            f"{REPEATS} runs per call and rung of the count-mix deck (seed {SEED}), "
            "the median over the pairs per rung, and ladder_total_us the sum over a "
            "shape's rungs per run; count_mix: bench/run.py measure for "
            f"{PASS_SECONDS} s per side (check pass, then whole passes), the metrics "
            "from each op's best latency as bench/run.py computes them; after_lower_pairs "
            "counts pairs where the new source was lower, median_pair_diff is the median "
            "of after minus before within each pair"),
        "host": {"cpu": cpu_model(), "nproc": os.cpu_count(),
                 "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count(),
                 "python": platform.python_version(), "numpy": numpy.__version__},
        "labels": {"before": "the library at --src", "after": "the library in this checkout"},
        **measure(sources),
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for call, shapes in doc["calls"].items():
        for shape, row in shapes.items():
            t = row["ladder_total_us"]
            print(f"{call} {shape}: {t['before']['median']} -> {t['after']['median']} us "
                  f"summed over {len(row['n'])} rungs ({100 * t['median_change']:+.0f}%, "
                  f"lower in {t['after_lower_pairs']}/{PAIRS})")
    for k in METRICS:
        row = doc["count_mix"][k]
        print(f"count-mix {k}: {row['before']['median']} -> {row['after']['median']} "
              f"({100 * row['median_change']:+.0f}%, lower in "
              f"{row['after_lower_pairs']}/{PAIRS})")


if __name__ == "__main__":
    main()
