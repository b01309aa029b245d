"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/baseline.py --seeds 1-10 [--workloads count-mix,build-band]
                              [--write bench/baseline.json] [--roadmap]

For every workload and seed this runs ``python3 bench/run.py --trace 0``
(the benchmark's own command, one run at a time) and reports, per
end-to-end metric, the median, the quartiles as ``statistics.quantiles(n=4)``
gives them, and the spread (Q3 - Q1) / median next to the metric's bound in
BENCHMARK.json.  ``--write`` stores the summary, every run's values and the
run metadata.  ``--roadmap`` also times the single calls of the ROADMAP
baseline table in this process, for cross-checking.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         + "\n".join(lines[-25:]) + proc.stderr[-2000:])
    meta = json.loads(next(line[5:] for line in lines if line.startswith("meta ")))
    return json.loads(lines[-1]), meta


def summarise(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid}


def roadmap_crosscheck() -> dict:
    """Single-call timings matching rows of the ROADMAP baseline table."""
    import random
    sys.path.insert(0, str(ROOT / "src"))
    from addenergy import constructions, intset, spectrum

    def best_of(k: int, fn, *args) -> float:
        times = []
        for _ in range(k):
            t0 = perf_counter()
            fn(*args)
            times.append(perf_counter() - t0)
        return min(times)

    rng = random.Random(0)
    out = {}
    for n in (1000, 3000):
        els = rng.sample(range(10**6 + 1), n)
        out[f"energy_oracle random n={n} diameter 1e6 (ms)"] = 1000 * best_of(3, intset.energy_oracle, els)
    els = rng.sample(range(10**6 + 1), 3000)
    out["difference_profile n=3000 (ms)"] = 1000 * best_of(
        1, lambda a: intset.energy_from_profile(intset.difference_profile(a)), els)
    for n in (200, 400):
        lo, _ = constructions.admissible_interval(n)
        out[f"build_with_target_energy n={n}, lowest band target (ms)"] = 1000 * best_of(
            3, constructions.build_with_target_energy, n, lo + (n - lo) % 4)
    out["enumerate_spectrum(6, 40) (ms)"] = 1000 * best_of(1, spectrum.enumerate_spectrum, 6, 40)
    cmd = [sys.executable, "-m", "addenergy.cli", "energy", "--set", "0,1,2"]
    env = {"PYTHONPATH": str(ROOT / "src")}
    out["CLI energy --set 0,1,2 (ms)"] = 1000 * best_of(
        5, lambda: subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True))
    out["python -c pass (ms)"] = 1000 * best_of(
        5, lambda: subprocess.run([sys.executable, "-c", "pass"], check=True))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--write", default=None)
    parser.add_argument("--roadmap", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    report = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in names:
        runs = []
        for seed in seeds:
            t0 = perf_counter()
            result, meta = run_once(workload, seed, spec["run_seconds"])
            elapsed = perf_counter() - t0
            runs.append({"seed": seed, "run_s": elapsed,
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed} ({elapsed:.1f} s): " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        summary = {k: summarise([r[k] for r in runs]) for k in bounds}
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        for k, s in summary.items():
            flag = "ok" if s["spread"] < bounds[k] / 3 else ("WIDE" if s["spread"] > bounds[k]
                                                            else "near")
            print(f"  {k:<12} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g}"
                  f" spread {s['spread']:.4f} bound {bounds[k]} {flag}", flush=True)
    report["meta"] = {k: v for k, v in meta.items() if k not in ("workload", "seed")}
    if args.roadmap:
        report["roadmap_crosscheck"] = roadmap_crosscheck()
        for k, v in report["roadmap_crosscheck"].items():
            print(f"roadmap {k}: {v:.1f}")
    if args.write:
        Path(args.write).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
