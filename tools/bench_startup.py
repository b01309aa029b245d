"""Time interpreter start-up, package import and small CLI calls, old source against new.

    python tools/bench_startup.py --src /path/to/old/checkout/src

Run from the root of a source checkout.  Each case (``CASES``) is one fresh
interpreter, timed wall-clock from spawn to exit: ``python -c pass``,
``import addenergy``, ``import addenergy.cli``, and three CLI calls through
``python -m addenergy.cli``.  The old library comes from ``--src`` and the new
one from this checkout's ``src``, each alone on ``PYTHONPATH``.

The two sources alternate within one run: in each of ``PAIRS`` pairs every
case runs once on each side, back to back, the side that goes first
switching from pair to pair, so a host whose speed drifts over minutes
slows both sides alike.  Per case and side the result holds the median and
quartiles over the pairs, the median over the pairs of the new side's time
minus the old side's, and, from one untimed run before the timed ones,
which of numpy and mpmath the call loaded.  Every CLI call must print the
same stdout on both sides.  The result is written to ``BENCH_startup.json``
(``--out``).
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

PAIRS = 11
SET_40 = ",".join(str(x) for x in range(0, 120, 3))
# name: the arguments after the interpreter
CASES = {
    "python -c pass": ["-c", "pass"],
    "import addenergy": ["-c", "import addenergy"],
    "import addenergy.cli": ["-c", "import addenergy.cli"],
    "energy --set 0,1,2": ["-m", "addenergy.cli", "energy", "--set", "0,1,2"],
    "construct --n 12 --target 276": ["-m", "addenergy.cli", "construct", "--n", "12",
                                      "--target", "276"],
    "energy --set <40 elements>": ["-m", "addenergy.cli", "energy", "--set", SET_40],
}
WATCHED = ("numpy", "mpmath")
# runs the case's code or module, then prints which WATCHED modules it loaded
PROBE = """import runpy, sys
args = {args!r}
if args[0] == "-c":
    exec(args[1], {{"__name__": "__main__"}})
else:
    sys.argv = [args[1]] + args[2:]
    try:
        runpy.run_module(args[1], run_name="__main__")
    except SystemExit as exc:
        assert not exc.code, exc.code
print("LOADED", *(m for m in {watched!r} if m in sys.modules))
"""


def env_for(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def run(args: list[str], src: Path) -> tuple[float, str]:
    """Wall seconds of one fresh interpreter with ``args``, and its stdout."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], env=env_for(src), capture_output=True,
                          text=True, check=True, timeout=120)
    return time.perf_counter() - start, done.stdout


def loaded(args: list[str], src: Path) -> list[str]:
    """The ``WATCHED`` modules a fresh interpreter holds after running ``args``."""
    probe = PROBE.format(args=args, watched=WATCHED)
    _, out = run(["-c", probe], src)
    return out.splitlines()[-1].split()[1:]


def summary(seconds: list[float], modules: list[str]) -> dict:
    q1, mid, q3 = quantiles(seconds, n=4, method="inclusive")
    return {"median_ms": round(1000 * mid, 1), "q1_ms": round(1000 * q1, 1),
            "q3_ms": round(1000 * q3, 1), "loaded": modules,
            "runs_ms": [round(1000 * s, 1) for s in seconds]}


def measure(sources: dict[str, Path]) -> dict:
    times = {name: {side: [] for side in sources} for name in CASES}
    modules = {name: {side: loaded(args, src) for side, src in sources.items()}
               for name, args in CASES.items()}
    sides = list(sources)
    for pair in range(PAIRS):
        order = sides if pair % 2 == 0 else sides[::-1]
        for name, args in CASES.items():
            outputs = set()
            for side in order:
                seconds, out = run(args, sources[side])
                times[name][side].append(seconds)
                outputs.add(out)
            if len(outputs) != 1:
                raise SystemExit(f"{name}: stdout differs between the two sources")
    cases = {}
    for name, args in CASES.items():
        before, after = times[name]["before"], times[name]["after"]
        row = {"args": args}
        row.update({side: summary(times[name][side], modules[name][side]) for side in sides})
        row["after_faster_pairs"] = sum(a < b for a, b in zip(after, before))
        row["median_change"] = round(median(after) / median(before) - 1, 3)
        # the two runs of a pair share the host's speed of the moment
        row["median_pair_diff_ms"] = round(1000 * median(a - b for a, b in zip(after, before)), 1)
        cases[name] = row
    return cases


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
    parser.add_argument("--src", required=True, help="the old library's src directory")
    parser.add_argument("--out", default="BENCH_startup.json")
    args = parser.parse_args()
    sources = {"before": Path(args.src).resolve(), "after": Path("src").resolve()}
    import mpmath
    import numpy

    doc = {
        "method": (
            f"{PAIRS} pairs; in each, every case runs once per source in a fresh "
            "interpreter, back to back, the first side alternating by pair; wall ms "
            "from spawn to exit, interpreter start included; median and inclusive "
            "quartiles over the pairs; after_faster_pairs counts pairs where the new "
            "source was faster; median_pair_diff_ms is the median of after minus before "
            "within each pair; loaded is from one untimed probe run per case and side"),
        "host": {"cpu": cpu_model(), "nproc": os.cpu_count(),
                 "python": platform.python_version(), "numpy": numpy.__version__,
                 "mpmath": mpmath.__version__},
        "labels": {"before": "the library at --src", "after": "the library in this checkout"},
        "cases": measure(sources),
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for name, row in doc["cases"].items():
        before, after = row["before"], row["after"]
        print(f"{name}: {before['median_ms']} -> {after['median_ms']} ms "
              f"({100 * row['median_change']:+.0f}%, paired {row['median_pair_diff_ms']:+} ms, "
              f"faster in "
              f"{row['after_faster_pairs']}/{PAIRS}); loaded "
              f"{before['loaded']} -> {after['loaded']}")


if __name__ == "__main__":
    main()
