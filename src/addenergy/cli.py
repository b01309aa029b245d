"""Command-line interface.

Every subcommand prints one machine-readable result (JSON by default) on
stdout; diagnostics go to stderr.  All potentially large numbers are emitted
as decimal strings.  Exit codes: 0 success, 1 precondition error (a usage
error or a bad ADDENERGY_BUDGET included), 2 budget exhaustion or out of
memory, 3 target energy unreached, 4 internal error (a broken invariant, such
as a built witness failing its recount or a failed ``verify`` check).

Neither numpy nor mpmath is imported at module level, here or in the
library (the import rule in ``intset``).  So a call that counts no set of 32
or more elements, such as ``energy`` or ``construct`` below 32 elements,
``product --oracle`` below 32 tuples, ``ratio-chain`` below w = 32,
``min-ratio`` or ``sidon`` without ``--check``, never loads numpy, and only
``density-curve`` loads mpmath.  ``profile`` is the exception: it loads
numpy at any size, since ``intset._sorted_profile`` builds the profile's
arrays even on the Counter route.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import constructions as cons
from . import groups, products, spectrum
from .errors import BudgetError
from .intset import IntSet, _json_int, difference_profile, energy_oracle
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_BUDGET = 2
EXIT_UNREACHED = 3
EXIT_INTERNAL = 4


def _emit(payload: dict, out) -> None:
    out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _parse_set(text: str) -> IntSet:
    """Comma- or space-separated decimal integers, each read as a factor file's
    strings are: ASCII digits with an optional sign, of any length."""
    return IntSet(_json_int(tok) for tok in text.replace(",", " ").split())


def _load_factor(path: str) -> IntSet:
    with open(path, encoding="utf-8") as fh:
        return IntSet.from_json(json.load(fh))


def _fraction_json(fr) -> dict:
    return {"num": str(fr.numerator), "den": str(fr.denominator)}


def _mpf_str(x, digits: int = 50) -> str:
    import mpmath

    return mpmath.nstr(x, digits, strip_zeros=False)


def _fraction_str(fr, digits: int) -> str:
    """``fr`` rounded to ``digits`` significant digits in ``_mpf_str``'s form.

    The quotient is taken at the report precision of 100 digits, not at
    mpmath's default 53 bits.  A fraction of denominator q is either a
    rounding midpoint of ``digits`` digits or at least 1/(2q * 10^digits)
    away from every one, so for q below 10^60 the rounding is exact.
    """
    import mpmath

    with mpmath.workdps(groups.REPORT_DPS):
        return _mpf_str(mpmath.mpf(fr.numerator) / fr.denominator, digits)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_energy(args, out) -> int:
    a = _parse_set(args.set)
    _emit({"n": len(a), "energy": str(energy_oracle(a))}, out)
    return EXIT_OK


def _cmd_profile(args, out) -> int:
    a = _parse_set(args.set)
    _emit(difference_profile(a).to_json(), out)
    return EXIT_OK


def _cmd_construct(args, out) -> int:
    res = cons.build_with_target_energy(args.n, args.target, args.base)
    stages = {"j": res.j, "k": res.k, "swaps": res.swaps}
    if res.reached:
        _emit({"n": res.n, "target": str(res.target),
               "witness": res.witness.to_json(), "stages": stages,
               "verified": True}, out)
        return EXIT_OK
    _emit({"n": res.n, "target": str(res.target), "verified": False,
           "closest": {"energy": str(res.energy),
                       "witness": res.witness.to_json(), "stages": stages}}, out)
    return EXIT_UNREACHED


def _cmd_spectrum(args, out) -> int:
    s = spectrum.enumerate_spectrum(args.n, args.diameter,
                                    budget=args.budget, threads=args.threads)
    if args.plot:
        _write_gap_svg(s, args.plot)
    if args.format == "csv":
        out.write("energy,witness,gap_to_next\n")
        for entry in s.to_json()["entries"]:
            gap = entry["gap_to_next"]
            out.write(f"{entry['energy']},{' '.join(entry['witness'])},"
                      f"{'' if gap is None else gap}\n")
    else:
        _emit(s.to_json(), out)
    return EXIT_OK


def _cmd_product(args, out) -> int:
    factors = [_load_factor(p) for p in args.factors.split(",")]
    p = products.product_set(factors, args.alphabet)
    energy = products.product_energy(p)
    payload = {
        "alphabet_size": str(p.alphabet_size),
        "factor_sizes": [len(f) for f in p.factors],
        "size": str(p.size),
        "energy": str(energy),
    }
    if args.oracle:
        oracle = products.product_energy_oracle(p)
        payload["oracle_energy"] = str(oracle)
        payload["agrees"] = oracle == energy
    _emit(payload, out)
    return EXIT_OK


def _cmd_ratio_chain(args, out) -> int:
    chain = products.ratio_chain(args.w, args.n, args.base, budget=args.budget)
    payload = chain.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _emit(payload, fh)
    _emit(payload, out)
    return EXIT_OK


def _cmd_min_ratio(args, out) -> int:
    res = products.min_ratio_empirical(args.M, args.w, args.n, budget=args.budget)
    _emit({
        "alphabet_size": res.alphabet_size,
        "factor_size": res.factor_size,
        "dimension": res.dimension,
        "factor_energies": [str(e) for e in res.factor_energies],
        "products": [str(v) for v in res.products],
        "min_ratio": None if res.degenerate else _fraction_json(res.min_ratio),
        "degenerate": res.degenerate,
    }, out)
    return EXIT_OK


def _cmd_sidon(args, out) -> int:
    s = groups.sidon_parabola(args.p)
    payload = {
        "p": args.p,
        "group_orders": [args.p, args.p],
        "size": len(s),
        "elements": [list(x) for x in sorted(s.elements)],
    }
    if args.check:
        energy = groups.group_energy(s)
        payload["is_sidon"] = energy == groups.sidon_energy(len(s))
        payload["energy"] = str(energy)
    _emit(payload, out)
    return EXIT_OK


def _cmd_density_curve(args, out) -> int:
    points = groups.density_curve(args.n, args.p)
    rows = [{
        "k": pt.k,
        "alpha": _fraction_json(pt.alpha),
        "delta": _mpf_str(pt.delta),
        "bound_gap": _mpf_str(pt.bound_gap),
        "size": str(pt.set_size),
        "energy": str(pt.energy),
    } for pt in points]
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("k,alpha,delta,bound_gap\n")
            for pt in points:
                fh.write(f"{pt.k},{_fraction_str(pt.alpha, 30)},"
                         f"{_mpf_str(pt.delta, 30)},{_mpf_str(pt.bound_gap, 30)}\n")
    _emit({"n": args.n, "p": args.p, "points": rows}, out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    results = run_suite(args.suite, seed=args.seed)
    width = max(len(f"{r.suite}: {r.name}") for r in results)
    for r in results:
        label = f"{r.suite}: {r.name}"
        line = f"{'PASS' if r.ok else 'FAIL'}  {label:<{width}}"
        if r.detail:
            line += f"  [{r.detail}]"
        out.write(line.rstrip() + "\n")
    failed = sum(1 for r in results if not r.ok)
    out.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return EXIT_OK if failed == 0 else EXIT_INTERNAL


def _write_gap_svg(s: spectrum.EnergySpectrum, path: str) -> None:
    """Tick chart of attained energies: one vertical line per value."""
    energies = s.energies()
    lo, hi = energies[0], energies[-1]
    span = max(hi - lo, 1)
    width, height, pad = 800, 120, 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<line x1="{pad}" y1="{height - 40}" x2="{width - pad}" y2="{height - 40}" '
        'stroke="black"/>',
    ]
    for e in energies:
        x = pad + (width - 2 * pad) * (e - lo) / span
        parts.append(f'<line x1="{x:.2f}" y1="{height - 70}" x2="{x:.2f}" '
                     f'y2="{height - 40}" stroke="black"/>')
    parts.append(f'<text x="{pad}" y="{height - 10}" font-size="12">{lo}</text>')
    parts.append(f'<text x="{width - pad}" y="{height - 10}" font-size="12" '
                 f'text-anchor="end">{hi}</text>')
    parts.append(f'<text x="{width // 2}" y="{pad}" font-size="12" text-anchor="middle">'
                 f'energies of {s.n}-element sets, diameter &#8804; {s.diameter_bound}'
                 '</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addenergy",
        description="Exact additive-energy computations and constructions.")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized verification sweeps")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker count for parallel enumeration")
    parser.add_argument("--budget", type=int, default=None,
                        help="work budget override (default: ADDENERGY_BUDGET or 10^7)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("energy", help="additive energy of an integer set")
    p.add_argument("--set", required=True,
                   help="comma- or space-separated decimal integers, of any length")
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("profile", help="positive difference profile of a set")
    p.add_argument("--set", required=True)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("construct", help="build a set with prescribed energy")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--base", type=int, default=10)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("spectrum", help="enumerate attainable energies")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--diameter", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--plot", default=None, help="write an SVG tick chart here")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("product", help="energy of a coordinatewise product")
    p.add_argument("--factors", required=True,
                   help="comma-separated JSON files, each a decimal-string array")
    p.add_argument("--alphabet", type=int, default=None)
    p.add_argument("--oracle", action="store_true",
                   help="also materialize and count directly")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("ratio-chain", help="chain of products with ratio <= 1+360/w^3")
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--base", type=int, default=10)
    p.add_argument("--out", default=None, help="also write the chain JSON here")
    p.set_defaults(func=_cmd_ratio_chain)

    p = sub.add_parser("min-ratio", help="minimum consecutive product-energy ratio")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_min_ratio)

    p = sub.add_parser("sidon", help="parabola Sidon set over an odd prime")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--check", action="store_true",
                   help="verify the Sidon property and report the energy")
    p.set_defaults(func=_cmd_sidon)

    p = sub.add_parser("density-curve", help="density-energy tradeoff points")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--csv", default=None, help="write k,alpha,delta,bound_gap here")
    p.set_defaults(func=_cmd_density_curve)

    p = sub.add_parser("verify", help="run the invariant battery")
    p.add_argument("--suite", default="all", choices=("all",) + SUITES)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None, out=None) -> int:
    """Run one subcommand and return its exit code.

    Python's limit on int <-> str conversion (4,300 digits from 3.11, where
    ``sys.set_int_max_str_digits`` exists) is lifted while it runs, so input
    and output integers have any length, and restored on every path out.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv, out)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run(argv, out) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage-error code 2 means budget here
        raise SystemExit(EXIT_PRECONDITION if exc.code == 2 else exc.code) from None
    out = out or sys.stdout
    try:
        if args.threads < 1 or (args.budget is not None and args.budget < 1):
            raise ValueError("--threads and --budget must be positive")
        return args.func(args, out)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
