"""Benchmark of the addenergy toolkit: one seeded workload per run.

    python3 bench/run.py --workload count-mix --seed 1 --seconds 55 --trace 0

Runs from the root of a source checkout and imports ``addenergy`` from its
``src/``; it exits with code 2, printing no result, when that tree is absent.
One client process runs the workload closed loop: the deck the seed generates
is run once as a check pass, whose every result is checked independently,
then in whole passes until ``--seconds`` have elapsed, each result compared
with the checked one.  The timing metrics rest on each op's best latency over
those passes.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Any
wrong or failed op makes the command exit with code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPS = 11
CLI_START_REPS = 5
# an untraced run measures at least this many passes, whatever --seconds says
MIN_PASSES = 5


@dataclass
class Outcome:
    attempted: int = 0
    failures: list = field(default_factory=list)


@dataclass
class PassResult:
    latencies: list
    traced: bool


def run_pass(wl, deck, span, check: bool, reference: dict, outcome: Outcome) -> PassResult:
    """Run every item once.  Latency covers the op alone, never its check.

    With ``check`` the independent checks run and the first result that
    passes them becomes the item's reference; every result must equal it.
    """
    from spans import no_span
    from workloads import OpFailure

    latencies = []
    for i, item in enumerate(deck):
        outcome.attempted += 1
        t0 = perf_counter()
        try:
            with span("bench.op", kind=item.kind, shape=item.shape):
                result = wl.op(item, span)
        except Exception:  # a library error is a failed op, not a crash
            latencies.append(perf_counter() - t0)
            outcome.failures.append(f"{wl.name}[{i}] {item.kind}: "
                                    + traceback.format_exc(limit=2).strip().splitlines()[-1])
            continue
        latencies.append(perf_counter() - t0)
        try:
            if check:
                with span("bench.check", kind=item.kind):
                    wl.check(item, result, span)
                reference.setdefault(i, result)
            if i not in reference:
                raise OpFailure("no result of this input ever passed its check")
            if reference[i] != result:
                raise OpFailure("result differs from the checked result of the same input")
        except Exception as exc:  # a check that crashes is a failed op too
            outcome.failures.append(f"{wl.name}[{i}] {item.kind}: {type(exc).__name__}: {exc}")
    return PassResult(latencies, span is not no_span)


def measure(wl, deck, seconds: float, recorder, setup=None) -> tuple:
    """Check pass, then whole passes until ``seconds`` have elapsed.

    Untraced runs make at least MIN_PASSES measured passes.  Traced runs alternate
    untraced and traced passes, at least two of each; traced passes also run
    the checks, so that check-only layer calls are timed.  ``setup``, when
    given, is called SETUP_REPS times between passes, spread evenly over the
    measured time, so that its median does not hang on one moment's load.
    Returns (passes, reference results, outcome, setup times).
    """
    from spans import no_span

    outcome = Outcome()
    reference: dict = {}
    setup_times: list[float] = []
    run_pass(wl, deck, no_span, True, reference, outcome)
    passes: list[PassResult] = []
    start = perf_counter()
    while True:
        if setup and perf_counter() - start >= len(setup_times) * seconds / SETUP_REPS:
            setup_times.append(setup())
        traced = recorder is not None and len(passes) % 2 == 1
        if traced:
            recorder.passes += 1
            passes.append(run_pass(wl, deck, recorder.span, True, reference, outcome))
        else:
            passes.append(run_pass(wl, deck, no_span, False, reference, outcome))
        enough = len(passes) >= (4 if recorder is not None else MIN_PASSES)
        if enough and perf_counter() - start >= seconds:
            break
    while setup and len(setup_times) < SETUP_REPS:
        setup_times.append(setup())
    return passes, reference, outcome, setup_times


def rank(samples: int, pct: float) -> int:
    """1-based nearest rank of the ``pct`` percentile among ``samples``."""
    return max(1, ceil(pct / 100 * samples))


def tail(latencies: list, pct: float) -> tuple[float, int]:
    """(value, samples beyond it) of the ``pct`` percentile by nearest rank."""
    k = rank(len(latencies), pct)
    return sorted(latencies)[k - 1], len(latencies) - k


def setup_once(workload: str, seed: int) -> float:
    """Seconds to import addenergy and generate the deck in a fresh process."""
    from workloads import child_env

    proc = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
                           str(seed)], env=child_env(SRC), capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def measure_cli_start() -> tuple[list[float], list[float]]:
    """Wall seconds of `python -c pass` and `python -c "import addenergy.cli"`."""
    from workloads import child_env

    def wall(code: str) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(SRC), check=True, timeout=120)
        return perf_counter() - t0
    starts, imports = [], []
    for _ in range(CLI_START_REPS):
        starts.append(wall("pass"))
        imports.append(wall("import addenergy.cli"))
    return starts, imports


def peak_rss_mb(children_only: bool) -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if children_only:
        return kids / 1024
    return max(kids, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def source_digest() -> str:
    """sha256 over the library sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "addenergy").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_metadata(args) -> dict:
    import mpmath
    import numpy

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "git_commit": git_commit(),
            "src_sha256": source_digest()}


def result_digest(wl, reference: dict) -> str:
    h = hashlib.sha256()
    for i in sorted(reference):
        h.update(wl.canonical(reference[i]).encode() + b"\n")
    return h.hexdigest()


def best_latencies(passes, deck) -> list[float]:
    """Each item's fastest latency over the untraced measured passes.

    The host's speed moves from one moment to the next (see README.md), and
    that noise only ever adds time, so an op's fastest run over many passes
    is the steadiest estimate of its cost."""
    measured = [p for p in passes if not p.traced]
    return [min(p.latencies[i] for p in measured) for i in range(len(deck))]


def end_to_end(wl, deck, passes, setup_times) -> dict:
    best = best_latencies(passes, deck)
    wall = sum(best)
    tail_value, beyond = tail(best, wl.tail_pct)
    return {
        "setup_s": (median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(deck) / wall, "1/s"),
        "work_per_s": (sum(item.work for item in deck) / wall, "1/s"),
        "op_ms_p50": (1000 * median(best), "ms"),
        "op_ms_tail": (1000 * tail_value, "ms"),
        "peak_rss_mb": (peak_rss_mb(children_only=wl.name == "cli-oneshot"), "MB"),
    }, (len(best), beyond)


def traced_layers(wl, own_rec, passes, workdir: Path, seed: int, outcome: Outcome) -> tuple:
    """Per-layer metrics: from this workload's traced passes where it calls
    the layer, otherwise from one traced check pass of the owner workload."""
    import layers
    import workloads
    from spans import Recorder

    recorders = {wl.name: own_rec}
    for name in workloads.NAMES:
        if name == wl.name:
            continue
        other = workloads.make(name, SRC)
        deck = other.deck(seed)
        other.prepare(deck, workdir / name)
        rec = Recorder()
        rec.passes = 1
        run_pass(other, deck, rec.span, True, {}, outcome)
        recorders[name] = rec
    starts, imports = measure_cli_start()
    traced = [sum(p.latencies) for p in passes if p.traced]
    plain = [sum(p.latencies) for p in passes if not p.traced]
    metrics, sources = layers.per_layer(wl.name, recorders, starts, imports)
    overhead = (sum(traced) / len(traced)) / (sum(plain) / len(plain)) - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    sources["trace.overhead_frac"] = (f"{wl.name}: mean op time per traced pass "
                                      f"({len(traced)}) over untraced pass ({len(plain)})")
    return metrics, sources, recorders


def print_table(title: str, rows) -> None:
    print(title)
    for row in rows:
        print("  " + row)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="one of workloads.NAMES")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "addenergy" / "__init__.py").is_file():
        print(f"error: no addenergy sources at {SRC / 'addenergy'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import addenergy
    if Path(addenergy.__file__).resolve().parent != (SRC / "addenergy").resolve():
        print(f"error: imported addenergy from {addenergy.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads
    from spans import Recorder, self_time_table

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    wl = workloads.make(args.workload, SRC)
    deck = wl.deck(args.seed)
    workdir = BENCH_DIR / ".work" / str(os.getpid())
    recorder = Recorder() if args.trace else None
    try:
        wl.prepare(deck, workdir)
        setup = None if args.trace else (lambda: setup_once(args.workload, args.seed))
        passes, reference, outcome, setup_times = measure(wl, deck, args.seconds, recorder, setup)
        if args.trace:
            metrics, sources, recorders = traced_layers(wl, recorder, passes, workdir,
                                                        args.seed, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = run_metadata(args)
    print(f"meta {json.dumps(meta, sort_keys=True)}")
    print(f"workload {wl.name}: deck {len(deck)} items; {len(passes)} measured passes "
          f"({sum(p.traced for p in passes)} traced); closed loop, one client")
    if len(reference) == len(deck):
        print(f"result digest {result_digest(wl, reference)} (check pass, deck order)")
    if args.trace:
        for name, rec in recorders.items():
            source = "this run" if name == wl.name else "one borrowed check pass"
            print_table(f"self time by span, {name} deck ({source}, {rec.passes} traced passes):",
                        [f"{n:<44} calls {c:>6}  busy {b:9.4f} s  self {s:9.4f} s"
                         for n, c, b, s in self_time_table(rec)])
        print_table("per-layer metrics (per traced pass unless the unit says otherwise):",
                    [f"{k:<52} {v:14.6g} {u:<6} [{sources[k]}]"
                     for k, (v, u) in metrics.items()])
        out_dir = BENCH_DIR / ".out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{wl.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"meta": meta, "recorders": {k: {"passes": r.passes, "spans": r.spans}
                                         for k, r in recorders.items()}}), encoding="utf-8")
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        metrics, (samples, beyond) = end_to_end(wl, deck, passes, setup_times)
        rows = [f"{k:<12} {v:14.6g} {u}" for k, (v, u) in metrics.items()]
        rows.append(f"timings use each op's best latency over {sum(not p.traced for p in passes)} "
                    f"measured passes; op_ms_tail is p{wl.tail_pct:g} of {samples} ops "
                    f"({beyond} beyond it)")
        rows.append(f"setup_s is the median of {SETUP_REPS} fresh processes: "
                    + ", ".join(f"{t:.4f}" for t in setup_times))
        print_table("end-to-end metrics:", rows)
    failed = len(outcome.failures)
    print(f"failed_frac {failed / outcome.attempted:.6g} ({failed} of {outcome.attempted} ops)")
    for line in outcome.failures[:20]:
        print(f"FAILED {line}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
