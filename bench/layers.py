"""Per-layer metrics of the traced run, derived from the recorded spans.

Times and volumes are per traced pass over a deck (total divided by the
recorder's pass count); ``errors`` is a total; ratios and the ``cli.*_ms``
medians are per call.  A metric comes from the running workload's own spans
when it recorded any for it, otherwise from the one borrowed check pass of
the workload that owns the layer (``workloads.LAYER_OWNER``).
"""

from __future__ import annotations

from statistics import median

from spans import layer_of
from workloads import LAYER_OWNER

SHAPES = ("small", "sparse", "dense", "wide")
SPECTRUM_SIZES = (4, 5, 6, 7)
LAYERS = ("cli", "intset", "constructions", "spectrum", "products", "groups")

# (name, unit, better): the per-layer metrics every traced run prints
PER_LAYER = [
    ("cli.interp_start_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
    ("intset.energy_oracle.calls", "count", "higher"),
    ("intset.energy_oracle.pairs", "count", "higher"),
    ("intset.energy_oracle.busy_s", "s", "lower"),
    *((f"intset.energy_oracle.busy_s.{shape}", "s", "lower") for shape in SHAPES),
    ("intset.difference_profile.busy_s", "s", "lower"),
    ("intset.incremental_energy_extend.calls", "count", "higher"),
    ("intset.incremental_energy_extend.busy_s", "s", "lower"),
    ("constructions.build_with_target_energy.calls", "count", "higher"),
    ("constructions.build_with_target_energy.busy_s", "s", "lower"),
    ("constructions.build_with_target_energy.reached_ratio", "ratio", "higher"),
    ("constructions.self_check_s", "s", "lower"),
    ("constructions.schedule_s", "s", "lower"),
    *((f"spectrum.enumerate_spectrum.busy_s.n{n}", "s", "lower") for n in SPECTRUM_SIZES),
    ("spectrum.sets_visited", "count", "higher"),
    ("spectrum.energies_found", "count", "higher"),
    ("spectrum.verify_witnesses.busy_s", "s", "lower"),
    ("spectrum.parallel_speedup", "x", "higher"),
    ("products.product_energy_oracle.calls", "count", "higher"),
    ("products.product_energy_oracle.pairs", "count", "higher"),
    ("products.product_energy_oracle.busy_s", "s", "lower"),
    ("groups.sum_profile.busy_s", "s", "lower"),
    ("groups.cauchy_bound_check.busy_s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    *((f"{layer}.errors", "count", "lower") for layer in LAYERS),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def from_recorder(rec) -> dict[str, tuple[float, str, int]]:
    """Every span-derived metric as (value, unit, spans it rests on)."""
    per = max(rec.passes, 1)
    out: dict[str, tuple[float, str, int]] = {}

    def pick(name: str, **tags) -> list[dict]:
        return [s for s in rec.spans if s["name"] == name
                and all(s["tags"].get(k) == v for k, v in tags.items())]

    def per_pass(metric: str, spans: list, value: float, unit: str) -> None:
        out[metric] = (value / per, unit, len(spans))

    def busy(metric: str, spans: list) -> None:
        per_pass(metric, spans, sum(map(_dur, spans)), "s")

    def calls_pairs_busy(prefix: str, spans: list, pairs: bool) -> None:
        per_pass(f"{prefix}.calls", spans, len(spans), "count")
        if pairs:
            per_pass(f"{prefix}.pairs", spans, sum(s["tags"]["pairs"] for s in spans), "count")
        busy(f"{prefix}.busy_s", spans)

    main = pick("cli.main")
    out["cli.main_ms"] = (1000 * median(map(_dur, main)) if main else 0.0, "ms", len(main))

    calls_pairs_busy("intset.energy_oracle", pick("intset.energy_oracle"), True)
    for shape in SHAPES:
        busy(f"intset.energy_oracle.busy_s.{shape}", pick("intset.energy_oracle", shape=shape))
    busy("intset.difference_profile.busy_s", pick("intset.difference_profile"))
    calls_pairs_busy("intset.incremental_energy_extend",
                     pick("intset.incremental_energy_extend"), False)

    builds = pick("constructions.build_with_target_energy")
    calls_pairs_busy("constructions.build_with_target_energy", builds, False)
    reached = sum(bool(s["tags"].get("reached")) for s in builds)
    out["constructions.build_with_target_energy.reached_ratio"] = (
        reached / len(builds) if builds else 0.0, "ratio", len(builds))
    # the benchmark recounts each witness outside the builder; the builder's
    # own self-check is the same call, so build time minus recount estimates
    # the schedule (a derived figure, not a measured span)
    recounts = pick("intset.energy_oracle", role="self_check")
    busy("constructions.self_check_s", recounts)
    per_pass("constructions.schedule_s", builds if recounts else [],
             sum(map(_dur, builds)) - sum(map(_dur, recounts)), "s")

    enumerations = pick("spectrum.enumerate_spectrum")
    for n in SPECTRUM_SIZES:
        busy(f"spectrum.enumerate_spectrum.busy_s.n{n}", pick("spectrum.enumerate_spectrum", n=n))
    per_pass("spectrum.sets_visited", enumerations,
             sum(s["tags"]["visits"] for s in enumerations), "count")
    per_pass("spectrum.energies_found", enumerations,
             sum(s["tags"].get("found", 0) for s in enumerations), "count")
    busy("spectrum.verify_witnesses.busy_s", pick("spectrum.verify_witnesses"))
    parallel = [s for s in enumerations if s["tags"]["threads"] > 1]
    # the same (n, d) as a parallel span: visits fixes d for a given n
    points = {(p["tags"]["n"], p["tags"]["visits"]) for p in parallel}
    serial = [s for s in enumerations if s["tags"]["threads"] == 1
              and (s["tags"]["n"], s["tags"]["visits"]) in points]
    speedup = 0.0
    if parallel and serial:
        speedup = (sum(map(_dur, serial)) / len(serial)) / (sum(map(_dur, parallel)) / len(parallel))
    out["spectrum.parallel_speedup"] = (speedup, "x", len(parallel))

    calls_pairs_busy("products.product_energy_oracle", pick("products.product_energy_oracle"),
                     True)
    busy("groups.sum_profile.busy_s", pick("groups.sum_profile"))
    busy("groups.cauchy_bound_check.busy_s", pick("groups.cauchy_bound_check"))

    own = rec.self_times()
    for layer in LAYERS:
        idx = [i for i, s in enumerate(rec.spans) if layer_of(s["name"]) == layer]
        per_pass(f"{layer}.self_s", idx, sum(own[i] for i in idx), "s")
        errors = sum(rec.spans[i]["error"] is not None for i in idx)
        out[f"{layer}.errors"] = (errors, "count", len(idx))
    return out


def per_layer(workload: str, recorders: dict, starts: list, imports: list) -> tuple[dict, dict]:
    """(metric -> (value, unit), metric -> source) for every PER_LAYER name
    except ``trace.overhead_frac``, which the caller adds."""
    derived = {name: from_recorder(rec) for name, rec in recorders.items()}
    metrics: dict[str, tuple[float, str]] = {}
    sources: dict[str, str] = {}
    start_ms = 1000 * median(starts)
    metrics["cli.interp_start_ms"] = (start_ms, "ms")
    metrics["cli.import_ms"] = (1000 * median(imports) - start_ms, "ms")
    sources["cli.interp_start_ms"] = f"median of {len(starts)} `python -c pass`"
    sources["cli.import_ms"] = (f"median of {len(imports)} `python -c \"import addenergy.cli\"`"
                                " minus interp_start_ms")
    for name, _, _ in PER_LAYER:
        if name in metrics or name == "trace.overhead_frac":
            continue
        owner = workload if derived[workload][name][2] else LAYER_OWNER[name.split(".", 1)[0]]
        value, unit, samples = derived[owner][name]
        metrics[name] = (value, unit)
        sources[name] = f"{owner}, {samples} spans"
    return metrics, sources
