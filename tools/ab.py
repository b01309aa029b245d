"""Measure one probe on an old library and on this checkout's, in alternating pairs.

    python tools/ab.py PROBE --src /path/to/old/checkout/src [--out FILE]

Each run of a probe is a fresh interpreter whose ``PYTHONPATH`` is one side's
``src``: ``--src`` before, this checkout's after.  The probes:

* ``startup``: wall time from spawn to exit of six fresh interpreters
  (``STARTUP_CASES``), each one's stdout, and which of numpy and mpmath it
  loads (from one more, untimed run);
* ``calls``: on this checkout's count-mix deck of seed 1, the best of
  ``BEST_OF`` runs of ``IntSet``, ``energy_oracle``, ``difference_profile``
  (where the workload profiles), ``product_energy_oracle`` and
  ``GroupSet.of`` on every rung, and their sums per shape; then
  ``bench/run.py``'s pass loop for ``PASS_SECONDS``, with its ``op_ms_p50``,
  ``wall_s``, ``op_ms_tail`` and result digest;
* ``hashed``: per build-band seed, the sums over the witnesses of the best of
  ``BEST_OF`` runs of ``intset._energy_hashed`` on a witness's offsets and of
  its build with the self-check replaced by the known energy (the schedule);
  the ``tracemalloc`` peak per pair of one hashed count on random 70-bit
  offsets and on a progression of step 2^100 + 1; and each large count past
  2^62 (``LARGE_COUNTS``) in a process of its own, so that its peak RSS is its
  own, with its time and energy or exception.  The largest peaks near 1.6 GB.

What each probe can resolve, from null runs (both sides one ``src``, 10
pairs, on a 2-core Xeon):

* ``startup``: null medians moved by up to 7% (``import addenergy`` 155.3 ->
  144.9 ms), so only a change well past that, such as the halving of the
  import time when numpy left it, reads as real;
* ``calls``: a null run read count-mix ``op_ms_p50`` +2.3%, after lower in 1
  of 10 pairs, so a change of a few percent can meet a pair rule by chance;
  a claim that small needs a null run of its own beside it;
* ``hashed``: each process's speed is bimodal (one seed's schedule sum falls
  near 3.1-3.5 or 5.0-6.4 ms, an IQR up to 40% of the median, which best of
  ``BEST_OF`` does not remove), so it resolves only changes well above 10%.

The sides alternate for ``PAIRS`` pairs, the first side switching each pair,
so host drift slows both alike.  A probe returns a flat mapping of names to
numbers and strings.  Each number gets each side's median, inclusive quartiles
and runs, the pairs where after was lower, the change of the medians and the
median over the pairs of after minus before.  A string must be the same in
every run of one side, or the tool stops; it is recorded per side, and if the
sides differ the tool exits 1 after writing ``BENCH_<probe>.json`` (``--out``).
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
from importlib.metadata import version
from pathlib import Path
from statistics import median, quantiles

PAIRS = 10
SIDES = ("before", "after")
BEST_OF = 9
ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

SET_40 = ",".join(str(x) for x in range(0, 120, 3))
# name: the arguments after the interpreter
STARTUP_CASES = {
    "python -c pass": ["-c", "pass"],
    "import addenergy": ["-c", "import addenergy"],
    "import addenergy.cli": ["-c", "import addenergy.cli"],
    "energy --set 0,1,2": ["-m", "addenergy.cli", "energy", "--set", "0,1,2"],
    "construct --n 12 --target 276": ["-m", "addenergy.cli", "construct", "--n", "12",
                                      "--target", "276"],
    "energy --set <40 elements>": ["-m", "addenergy.cli", "energy", "--set", SET_40],
}

CALLS_SEED = 1
PASS_SECONDS = 6.0
METRICS = ("op_ms_p50", "wall_s", "op_ms_tail")

HASHED_SEEDS = (1, 2, 3, 4)
MEMORY_SIZES = (1000, 2500)
# name: (the size of a random set of 70-bit integers, or 0; letters per factor
# of a two-factor product over an alphabet of 2^40, or 0)
LARGE_COUNTS = {"random70_n4100": (4100, 0), "product_65x65": (0, 65),
                "product_68x68": (0, 68), "product_100x100": (0, 100)}


def best_s(call, *args) -> float:
    """Fastest of ``BEST_OF`` runs of call(*args), in seconds."""
    best = float("inf")
    for _ in range(BEST_OF):
        start = time.perf_counter()
        call(*args)
        best = min(best, time.perf_counter() - start)
    return best


def startup() -> dict:
    out: dict = {}
    for name, args in STARTUP_CASES.items():
        start = time.perf_counter()
        done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              check=True, timeout=120)
        out[f"{name} ms"] = 1000 * (time.perf_counter() - start)
        out[f"{name} stdout"] = done.stdout
        # -X importtime names each module on stderr as it is first imported
        probe = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                               text=True, check=True, timeout=120)
        names = {line.rsplit("|", 1)[-1].strip() for line in probe.stderr.splitlines()}
        out[f"{name} loaded"] = " ".join(m for m in ("numpy", "mpmath") if m in names)
    return out


def calls() -> dict:
    sys.path.insert(0, str(BENCH))
    import run
    import workloads
    from addenergy import groups, intset, products

    wl = workloads.make("count-mix", ROOT / "src")
    deck = wl.deck(CALLS_SEED)
    out, totals = {}, {}

    def record(call: str, shape: str, size: str, *timed) -> None:
        us = 1e6 * best_s(*timed)
        out[f"{call} {shape} n={size} us"] = us
        totals[f"{call} {shape} total us"] = totals.get(f"{call} {shape} total us", 0.0) + us

    for item in deck:
        if item.kind == "energy":
            (els,) = item.args
            n = str(len(els))
            record("IntSet(tuple)", item.shape, n, intset.IntSet, els)
            record("energy_oracle", item.shape, n, intset.energy_oracle, els)
            if len(els) <= workloads.PROFILE_CHECK_MAX:
                record("difference_profile", item.shape, n, intset.difference_profile, els)
        elif item.kind == "product":
            # factor sizes, as two products of one size differ; 48 letters, as CountMix.op
            record("product_energy_oracle", item.shape, "x".join(str(len(f)) for f in item.args),
                   products.product_energy_oracle, products.product_set(item.args, 48))
        elif item.kind in ("sum_profile", "cauchy_bound_check"):
            record("GroupSet.of", item.shape, str(len(item.args)), groups.GroupSet.of,
                   workloads._Z7_CUBE, item.args)
    out.update(totals)
    passes, reference, outcome, _ = run.measure(wl, deck, PASS_SECONDS, None)
    if outcome.failures:
        raise SystemExit(f"count-mix failed: {outcome.failures[:3]}")
    metrics, _ = run.end_to_end(wl, deck, passes, [0.0])
    out.update({f"count-mix {k}": metrics[k][0] for k in METRICS})
    out["count-mix passes"] = len(passes)
    out["count-mix digest"] = run.result_digest(wl, reference)
    return out


def large_count(name: str) -> None:
    """Count one ``LARGE_COUNTS`` case and print its time, peak RSS and result as JSON."""
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
        result = str(count(arg))
    except BudgetError as exc:
        result = type(exc).__name__
    ms = 1000 * (time.perf_counter() - start)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({f"{name} ms": ms, f"{name} peak_rss_mb": rss, f"{name} result": result}))


def hashed() -> dict:
    sys.path.insert(0, str(BENCH))
    from addenergy import constructions, intset
    from workloads import BuildBand

    out: dict = {}
    build, recount = constructions.build_with_target_energy, constructions.energy_oracle
    for seed in HASHED_SEEDS:
        witness = schedule = 0.0
        for item in BuildBand().deck(seed):
            res = build(*item.args)
            els = res.witness.elements
            witness += best_s(intset._energy_hashed, tuple(x - els[0] for x in els))
            constructions.energy_oracle = lambda _, energy=res.energy: energy
            schedule += best_s(build, *item.args)
            constructions.energy_oracle = recount
        out[f"seed {seed} witness ms"] = 1000 * witness
        out[f"seed {seed} schedule ms"] = 1000 * schedule
    rng = random.Random(12)
    for n in MEMORY_SIZES:
        randoms = sorted({rng.getrandbits(70) for _ in range(n)})
        for shape, offsets in (("random", tuple(x - randoms[0] for x in randoms)),
                               ("progression", tuple((2**100 + 1) * i for i in range(n)))):
            tracemalloc.start()
            intset._energy_hashed(offsets)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            out[f"n={n} {shape} bytes per pair"] = peak / (n * (n - 1) // 2)
    for name in LARGE_COUNTS:
        code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
                f"import ab; ab.large_count({name!r})")
        done = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                              check=True)
        out.update(json.loads(done.stdout))
    return out


PROBES = {"startup": startup, "calls": calls, "hashed": hashed}


def run_child(probe: str, src: Path) -> dict:
    """One run of ``probe`` in a fresh interpreter that imports the library from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, __file__, probe, "--child"], env=env,
                          stdout=subprocess.PIPE, text=True, check=True, timeout=1800)
    return json.loads(done.stdout.splitlines()[-1])


def alternate(probe: str, sources: dict[str, Path]) -> dict[str, list[dict]]:
    """``PAIRS`` runs of ``probe`` per side, the first side switching from pair to pair."""
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for pair in range(PAIRS):
        for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
            result = run_child(probe, sources[side])
            first = (runs["before"] + runs["after"] + [result])[0]  # of either side
            if result.keys() != first.keys():
                raise SystemExit(f"{probe}: the {side} side measured other quantities")
            for key, value in (runs[side] + [result])[0].items():
                if isinstance(value, str) and result[key] != value:
                    raise SystemExit(f"{probe}: {key!r} changed between runs of the {side} side")
            runs[side].append(result)
    return runs


def sig(value: float) -> float:
    return float(f"{value:.6g}")


def spread(values: list[float]) -> dict:
    q1, mid, q3 = quantiles(values, n=4, method="inclusive")
    return {"median": sig(mid), "q1": sig(q1), "q3": sig(q3), "runs": [sig(v) for v in values]}


def summarize(runs: dict[str, list[dict]]) -> tuple[dict, list[str]]:
    """Each quantity's summary, and the strings that differ between the sides."""
    quantities: dict = {}
    differ = []
    for key in runs["after"][0]:
        before, after = ([r[key] for r in runs[side]] for side in SIDES)
        if isinstance(after[0], str):
            quantities[key] = {"before": before[0], "after": after[0]}
            if before[0] != after[0]:
                differ.append(key)
            continue
        quantities[key] = {
            "before": spread(before), "after": spread(after),
            "after_lower_pairs": sum(a < b for a, b in zip(after, before)),
            "median_change": sig(median(after) / median(before) - 1),
            # the two runs of a pair share the host's speed of the moment
            "median_pair_diff": sig(median(a - b for a, b in zip(after, before))),
        }
    return quantities, differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("probe", choices=PROBES)
    parser.add_argument("--src", help="the old library's src directory")
    parser.add_argument("--out", help="the result file (default BENCH_<probe>.json)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(PROBES[args.probe]()))
        return 0
    if not args.src:
        parser.error("--src is required")
    sources = {"before": Path(args.src).resolve(), "after": ROOT / "src"}
    quantities, differ = summarize(alternate(args.probe, sources))
    sys.path.insert(0, str(BENCH))
    from run import cpu_model

    doc = {
        "probe": args.probe,
        "method": f"{PAIRS} alternating pairs of fresh interpreters; see tools/ab.py",
        "host": {"cpu": cpu_model(), "nproc": os.cpu_count(),
                 "cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                 "numpy": version("numpy"), "mpmath": version("mpmath")},
        "sources": {side: str(src) for side, src in sources.items()},
        "quantities": quantities,
        "differ": differ,
    }
    Path(args.out or f"BENCH_{args.probe}.json").write_text(json.dumps(doc, indent=1) + "\n")
    for key, row in quantities.items():
        if "after_lower_pairs" in row:
            print(f"{key}: {row['before']['median']} -> {row['after']['median']} (change "
                  f"{row['median_change']}, paired {row['median_pair_diff']:+}, lower in "
                  f"{row['after_lower_pairs']}/{PAIRS})")
    if differ:
        print(f"the sides differ in: {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
