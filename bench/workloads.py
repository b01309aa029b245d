"""Seeded workloads of the addenergy benchmark.

A workload turns a seed into a *deck*: a fixed list of input items.  One
pass runs every item once, in deck order; each item is one *op*.  The seed
only chooses inputs; the library never sees it.  In the measured workloads
the sizes follow a fixed ladder and the seed draws what fills them (the
elements of a set, the exact target of a build, the order of the ops), so
that every seed gives other inputs while the cost of each rung, and with it
every quantile of the op latencies, stays the same from seed to seed.

Each workload defines:

* ``deck(seed)``: the items, as plain tuples of ints (compared by the tests);
* ``op(item, span)``: the measured call into the library;
* ``check(item, result, span)``: the independent correctness check, which
  raises ``OpFailure`` on a wrong answer and is never part of an op's
  latency;
* ``canonical(result)``: a stable text form, hashed into the result digest.

``span`` is the span factory of the pass (``spans.no_span`` when untraced).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from math import comb
from pathlib import Path

import mpmath

from addenergy import cli, constructions, groups, intset, products, spectrum

BENCH_DIR = Path(__file__).resolve().parent
DIGEST_FILE = BENCH_DIR / "spectrum_digests.json"

# an energy query at or below this size is also counted by the
# difference-profile route, which is pure Python and quadratic
PROFILE_CHECK_MAX = 400
# literal quadruple counting is quartic; only tiny sets take it
QUADRUPLE_CHECK_MAX = 12


class OpFailure(Exception):
    """An op gave a wrong answer (the library itself did not raise)."""


@dataclass(frozen=True)
class Item:
    kind: str    # which library call the op makes
    shape: str   # input shape; splits the layer times in the traced run
    args: tuple  # the generated inputs
    work: int    # work units the op completes


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _strata(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k integers in [lo, hi], one uniform draw from each of k equal strata."""
    width = (hi - lo + 1) / k
    return [lo + int(width * (i + rng.random())) for i in range(k)]


def _ladder(lo: int, hi: int, k: int) -> list[int]:
    """k integers evenly spaced over [lo, hi], the same for every seed."""
    return [lo + round((hi - lo) * i / (k - 1)) for i in range(k)]


def _sample_sorted(rng: random.Random, population: range, n: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(population, n)))


def child_env(src: Path) -> dict:
    """Environment for a child interpreter that must import addenergy from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    return env


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class Workload:
    name = ""
    # percentile of op_ms_tail over the deck's items, fixed per workload so
    # that commits compare: the highest that leaves ten items beyond it
    tail_pct = 50.0

    def deck(self, seed: int) -> list[Item]:
        raise NotImplementedError

    def prepare(self, deck: list[Item], workdir: Path) -> None:
        """Write whatever input files the ops read (none by default)."""

    def op(self, item: Item, span):
        raise NotImplementedError

    def check(self, item: Item, result, span) -> None:
        raise NotImplementedError

    def canonical(self, result) -> str:
        return str(result)


# ---------------------------------------------------------------------------
# cli-oneshot
# ---------------------------------------------------------------------------

_ODD_PRIMES_TO_31 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


class CliOneshot(Workload):
    name = "cli-oneshot"
    tail_pct = 75.0  # its deck of 14 leaves only 3 items beyond

    def __init__(self, src: Path):
        self.env = child_env(src)
        self.argvs: dict[Item, list[str]] = {}

    def deck(self, seed: int) -> list[Item]:
        rng = _rng(self.name, seed)
        items = []
        for kind, count in (("energy", 3), ("profile", 2)):
            for n in _strata(rng, 2, 50, count):
                items.append(Item(kind, kind, (_sample_sorted(rng, range(200), n),), 1))
        # the guaranteed band is empty or holds no admissible value below n = 19
        for n in _strata(rng, 20, 60, 3):
            lo, hi = constructions.admissible_interval(n)
            first = lo + (n - lo) % 4
            items.append(Item("construct", "construct",
                              (n, first + 4 * rng.randint(0, (hi - first) // 4)), 1))
        items.append(Item("spectrum", "spectrum", (4, 12), 1))
        for p in rng.sample(_ODD_PRIMES_TO_31, 2):
            items.append(Item("sidon", "sidon", (p,), 1))
        items.append(Item("min-ratio", "min-ratio", (4, 3, 2), 1))
        items.append(Item("density-curve", "density-curve", (8, 101), 1))
        factors = tuple(_sample_sorted(rng, range(16), rng.randint(6, 12)) for _ in range(2))
        items.append(Item("product", "product", factors, 1))
        return items

    def prepare(self, deck: list[Item], workdir: Path) -> None:
        for i, item in enumerate(deck):
            self.argvs[item] = self._argv(item, workdir / f"item{i}")

    @staticmethod
    def _argv(item: Item, stem: Path) -> list[str]:
        a = item.args
        if item.kind in ("energy", "profile"):
            return [item.kind, "--set", ",".join(map(str, a[0]))]
        if item.kind == "construct":
            return ["construct", "--n", str(a[0]), "--target", str(a[1])]
        if item.kind == "spectrum":
            return ["spectrum", "--n", str(a[0]), "--diameter", str(a[1])]
        if item.kind == "sidon":
            return ["sidon", "--p", str(a[0]), "--check"]
        if item.kind == "min-ratio":
            return ["min-ratio", "--M", str(a[0]), "--w", str(a[1]), "--n", str(a[2])]
        if item.kind == "density-curve":
            return ["density-curve", "--n", str(a[0]), "--p", str(a[1])]
        stem.parent.mkdir(parents=True, exist_ok=True)
        paths = []
        for j, factor in enumerate(a):
            path = stem.parent / f"{stem.name}-factor{j}.json"
            path.write_text(json.dumps([str(x) for x in factor]), encoding="utf-8")
            paths.append(str(path))
        return ["product", "--factors", ",".join(paths), "--oracle"]

    def op(self, item: Item, span):
        with span("cli.oneshot", command=item.kind):
            proc = subprocess.run([sys.executable, "-m", "addenergy.cli", *self.argvs[item]],
                                  env=self.env, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    def check(self, item: Item, result, span) -> None:
        code, out = result
        if code != 0:
            raise OpFailure(f"{item.kind}: exit code {code}")
        buf = io.StringIO()
        with span("cli.main", command=item.kind):
            main_code = cli.main(self.argvs[item], out=buf)
        if main_code != 0 or buf.getvalue() != out:
            raise OpFailure(f"{item.kind}: subprocess stdout differs from in-process cli.main")
        payload = json.loads(out)
        expected = library_expectation(item)
        observed = {k: payload.get(k) for k in expected}
        if observed != expected:
            raise OpFailure(f"{item.kind}: stdout {observed} != library {expected}")

    def canonical(self, result) -> str:
        return f"{result[0]}:{result[1]}"


def library_expectation(item: Item) -> dict:
    """The fields a CLI call must print, computed by in-process library calls."""
    a = item.args
    if item.kind == "energy":
        return {"n": len(a[0]), "energy": str(intset.energy_oracle(a[0]))}
    if item.kind == "profile":
        return json.loads(_dump(intset.difference_profile(a[0]).to_json()))
    if item.kind == "construct":
        n, t = a
        res = constructions.build_with_target_energy(n, t)
        if intset.energy_oracle(res.witness) != t:
            raise OpFailure(f"construct: library witness does not have energy {t}")
        return {"n": n, "target": str(t), "verified": True, "witness": res.witness.to_json(),
                "stages": {"j": res.j, "k": res.k, "swaps": res.swaps}}
    if item.kind == "spectrum":
        return json.loads(_dump(spectrum.enumerate_spectrum(*a).to_json()))
    if item.kind == "sidon":
        p = a[0]
        s = groups.sidon_parabola(p)
        return {"p": p, "size": p, "elements": [list(x) for x in sorted(s.elements)],
                "is_sidon": True, "energy": str(2 * p * p - p)}
    if item.kind == "min-ratio":
        res = products.min_ratio_empirical(*a)
        return {"factor_energies": [str(e) for e in res.factor_energies],
                "products": [str(v) for v in res.products],
                "min_ratio": {"num": str(res.min_ratio.numerator),
                              "den": str(res.min_ratio.denominator)},
                "degenerate": False}
    if item.kind == "density-curve":
        rows = [{"k": pt.k,
                 "alpha": {"num": str(pt.alpha.numerator), "den": str(pt.alpha.denominator)},
                 "delta": mpmath.nstr(pt.delta, 50, strip_zeros=False),
                 "bound_gap": mpmath.nstr(pt.bound_gap, 50, strip_zeros=False),
                 "size": str(pt.set_size), "energy": str(pt.energy)}
                for pt in groups.density_curve(*a)]
        return {"n": a[0], "p": a[1], "points": rows}
    p = products.product_set(a)
    multiplicative = products.product_energy(p)
    return {"alphabet_size": str(p.alphabet_size), "factor_sizes": [len(f) for f in a],
            "size": str(p.size), "energy": str(multiplicative),
            "oracle_energy": str(products.product_energy_oracle(p)), "agrees": True}


# ---------------------------------------------------------------------------
# count-mix
# ---------------------------------------------------------------------------

_Z7_CUBE = groups.GroupSpec((7, 7, 7))


class CountMix(Workload):
    name = "count-mix"
    tail_pct = 84.0

    def deck(self, seed: int) -> list[Item]:
        rng = _rng(self.name, seed)
        items = []
        # small: the Counter route; a narrow value range gives repeated sums
        for n in _ladder(6, 31, 16):
            items.append(Item("energy", "small", (_sample_sorted(rng, range(4 * n), n),), n * n))
        # sparse: numpy np.unique route over [0, 10^6]
        for n in _ladder(200, 1500, 12):
            items.append(Item("energy", "sparse", (_sample_sorted(rng, range(10**6 + 1), n),),
                              n * n))
        # dense: diameter below 4n, where a bincount or FFT route would win
        for n in _ladder(500, 1500, 12):
            items.append(Item("energy", "dense", (_sample_sorted(rng, range(4 * n), n),), n * n))
        # wide: every element >= 2^64, the pure-Python fallback
        for n in _ladder(64, 400, 12):
            els = tuple(2**64 + x for x in _sample_sorted(rng, range(10**12), n))
            items.append(Item("energy", "wide", (els,), n * n))
        # products of 400 to 1296 tuples over the alphabet {0..47}
        lefts = _ladder(20, 36, 6)
        for a, b in zip(lefts, reversed(lefts)):
            factors = (_sample_sorted(rng, range(48), a), _sample_sorted(rng, range(48), b))
            items.append(Item("product", "product", factors, (a * b) ** 2))
        points = list(_Z7_CUBE.elements())
        for i, n in enumerate(_ladder(50, 300, 8)):
            kind = ("sum_profile", "cauchy_bound_check")[i % 2]
            items.append(Item(kind, "group", tuple(sorted(rng.sample(points, n))), n * n))
        return items

    def op(self, item: Item, span):
        if item.kind == "energy":
            return self._energy(item, span)
        if item.kind == "product":
            p = products.product_set(item.args, 48)
            with span("products.product_energy_oracle", pairs=item.work):
                oracle = products.product_energy_oracle(p)
            with span("products.product_energy"):
                multiplicative = products.product_energy(p)
            if oracle != multiplicative:
                raise OpFailure(f"product oracle {oracle} != multiplicative {multiplicative}")
            return oracle
        a = groups.GroupSet.of(_Z7_CUBE, item.args)
        if item.kind == "sum_profile":
            with span("groups.sum_profile", pairs=item.work):
                prof = groups.sum_profile(a)
            if sum(prof.values()) != len(a) ** 2:
                raise OpFailure("sum profile mass is not |A|^2")
            return sum(r * r for r in prof.values())
        with span("groups.cauchy_bound_check", pairs=item.work):
            return groups.cauchy_bound_check(a)

    def _energy(self, item: Item, span) -> int:
        (els,) = item.args
        n = len(els)
        with span("intset.energy_oracle", shape=item.shape, pairs=n * n):
            e = intset.energy_oracle(els)
        routes = {}
        if n <= PROFILE_CHECK_MAX:
            with span("intset.difference_profile"):
                prof = intset.difference_profile(els)
            with span("intset.energy_from_profile"):
                routes["profile"] = intset.energy_from_profile(prof)
        if item.shape == "small":
            e_inc = 1
            for i in range(1, n):
                with span("intset.incremental_energy_extend"):
                    e_inc = intset.incremental_energy_extend(els[:i], e_inc, els[i])
            routes["incremental"] = e_inc
            if n <= QUADRUPLE_CHECK_MAX:
                with span("intset.energy_by_quadruples"):
                    routes["quadruples"] = intset.energy_by_quadruples(els)
        wrong = {k: v for k, v in routes.items() if v != e}
        if wrong:
            raise OpFailure(f"energy_oracle gave {e}, other routes {wrong}")
        return e

    def check(self, item: Item, result, span) -> None:
        # the routes each op compares are its check; this adds the profile
        # mass for the Cauchy calls, whose own result is only a bool
        if item.kind == "cauchy_bound_check":
            if result is not True:
                raise OpFailure("cauchy_bound_check returned False")
            a = groups.GroupSet.of(_Z7_CUBE, item.args)
            if sum(groups.sum_profile(a).values()) != len(a) ** 2:
                raise OpFailure("sum profile mass is not |A|^2")


# ---------------------------------------------------------------------------
# build-band
# ---------------------------------------------------------------------------

class BuildBand(Workload):
    name = "build-band"
    tail_pct = 75.0
    sizes = (40, 80, 160, 300, 400)
    per_size = 8
    # n runs over this share either side of each size
    size_spread = 0.2
    # a build's cost falls by a quarter from the low end of the band to the
    # high end (n = 300), so each target sits at a fixed place in the band and
    # the seed moves it by at most this share of the band
    target_jitter = 0.005

    def deck(self, seed: int) -> list[Item]:
        rng = _rng(self.name, seed)
        items = []
        for size in self.sizes:
            ns = _ladder(round(size * (1 - self.size_spread)),
                         round(size * (1 + self.size_spread)), self.per_size)
            for i, n in enumerate(ns):
                lo, hi = constructions.admissible_interval(n)
                first = lo + (n - lo) % 4
                steps = (hi - first) // 4
                # places 1/16, 7/16, 13/16, ...: every size meets every part of its band
                place = (3 * i % self.per_size + 0.5) / self.per_size
                jitter = max(1, round(steps * self.target_jitter))
                k = min(steps, max(0, round(place * steps) + rng.randint(-jitter, jitter)))
                items.append(Item("build", "wide", (n, first + 4 * k), n * n))
        return items

    def op(self, item: Item, span):
        n, t = item.args
        with span("constructions.build_with_target_energy", n=n) as s:
            res = constructions.build_with_target_energy(n, t)
            if s is not None:
                s["tags"]["reached"] = res.reached
        return res

    def check(self, item: Item, result, span) -> None:
        n, t = item.args
        if not result.reached or result.energy != t or len(result.witness) != n:
            raise OpFailure(f"build({n}, {t}): reached={result.reached} "
                            f"energy={result.energy} size={len(result.witness)}")
        with span("intset.energy_oracle", shape="wide", pairs=n * n, role="self_check"):
            recount = intset.energy_oracle(result.witness)
        if recount != t:
            raise OpFailure(f"build({n}, {t}): witness recounts to {recount}")

    def canonical(self, result) -> str:
        return _dump([result.n, str(result.target), result.reached, str(result.energy),
                      result.witness.to_json()])


# ---------------------------------------------------------------------------
# spectrum-grid
# ---------------------------------------------------------------------------

def spectrum_visits(n: int, d: int) -> int:
    """Normalized candidate sets enumerate_spectrum(n, d) generates."""
    return sum(comb(k - 1, n - 2) for k in range(n - 1, d + 1))


def spectrum_digest(s: spectrum.EnergySpectrum) -> str:
    """sha256 of to_json() as the CLI prints it."""
    return hashlib.sha256(_dump(s.to_json()).encode()).hexdigest()


class SpectrumGrid(Workload):
    name = "spectrum-grid"
    tail_pct = 75.0
    # (n, lowest diameter, highest diameter): per_size diameters evenly
    # spaced over each window, so ops cost 10 to 200 ms.  Short ops let a run
    # repeat each one often enough for its fastest time to settle on a host
    # whose speed moves from second to second.  (n, d) is the whole input of
    # an enumeration and fixes its cost, so the seed only orders the ops:
    # diameters drawn per seed would move the latency quantiles with the seed.
    grid = ((4, 40, 80), (5, 25, 40), (6, 18, 26), (7, 16, 22))
    per_size = 10
    parallel = (6, 2)  # (n, threads): the largest n = 6 point runs again in parallel

    def __init__(self):
        self._digests: dict[str, str] | None = None

    def deck(self, seed: int) -> list[Item]:
        rng = _rng(self.name, seed)
        items = [Item("spectrum", f"n{n}", (n, d, 1), spectrum_visits(n, d))
                 for n, lo, hi in self.grid for d in _ladder(lo, hi, self.per_size)]
        n_par, threads = self.parallel
        d_par = max(item.args[1] for item in items if item.args[0] == n_par)
        items.append(Item("spectrum", f"n{n_par}", (n_par, d_par, threads),
                          spectrum_visits(n_par, d_par)))
        rng.shuffle(items)
        return items

    def op(self, item: Item, span):
        n, d, threads = item.args
        with span("spectrum.enumerate_spectrum", n=n, threads=threads, visits=item.work) as s:
            res = spectrum.enumerate_spectrum(n, d, threads=threads)
            if s is not None:
                s["tags"]["found"] = len(res.entries)
        return res

    def check(self, item: Item, result, span) -> None:
        n, d, _ = item.args
        with span("spectrum.verify_witnesses"):
            witnesses_ok = spectrum.verify_witnesses(result)
        with span("spectrum.residue_check"):
            residues_ok = spectrum.residue_check(result)
        if not (witnesses_ok and residues_ok):
            raise OpFailure(f"spectrum({n}, {d}): witnesses {witnesses_ok}, residues {residues_ok}")
        if self._digests is None:
            self._digests = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
        want = self._digests.get(f"{n},{d}")
        if want != spectrum_digest(result):
            raise OpFailure(f"spectrum({n}, {d}): to_json() digest differs from {want}")

    def canonical(self, result) -> str:
        return _dump(result.to_json())


def make(name: str, src: Path) -> Workload:
    if name == "cli-oneshot":
        return CliOneshot(src)
    return {"count-mix": CountMix, "build-band": BuildBand,
            "spectrum-grid": SpectrumGrid}[name]()


NAMES = ("cli-oneshot", "count-mix", "build-band", "spectrum-grid")
# the workload whose deck exercises each layer; a traced run borrows one pass
# of it for the layer metrics its own workload cannot produce
LAYER_OWNER = {"cli": "cli-oneshot", "intset": "count-mix", "products": "count-mix",
               "groups": "count-mix", "constructions": "build-band",
               "spectrum": "spectrum-grid"}
