"""Command line front end.

Subcommands: count (single exact values), census (sweeps to CSV or JSON),
verify (named self-check suites), asymptotics (exact counts against the
paper's main term alpha_ell sigma_ell(n + delta_ell), as correctly rounded
quotients of exact integers).
Exit codes: 0 success, 1 failed verification, 2 bad usage or input.

Importing this module loads what count, census and asymptotics run, and no
more: the verify suites are imported by the verify command alone.  The
parser is built once per process; parse_args does not change it, so one
process can call main many times.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from functools import cache
from pathlib import Path

from .census import (
    DEFAULT_CAP_EXACT,
    DEFAULT_CAP_STAR,
    CensusConfig,
    _sweep_series,
    run_census,
    write_records,
    z_all_exact,
)
from .abacus import n_ell
from .numtheory import _is_prime, delta_ell, inv_alpha, sigma_twisted
from .partitions import count_cores, count_p, count_p_regular

_COUNT_QUANTITIES = {
    # name -> (argument names, callable)
    "p": (("n",), count_p),
    "p-regular": (("n", "a"), count_p_regular),
    "cores": (("n", "ell"), count_cores),
    "sigma": (("n", "ell"), sigma_twisted),
    "delta": (("ell",), delta_ell),
    "inv-alpha": (("ell",), inv_alpha),
    "n-ell": (("ell",), n_ell),
    "z-all": (("n",), lambda n: z_all_exact(n, cap=n)),
}
# largest n for the p(n) and c_ell(n) tables behind `count p | p-regular |
# cores`, `census` and `asymptotics`.  End to end in a fresh process on a
# 2-core x86 VM (3 runs each): a census of one modulus at n = 20000 takes
# 0.28-0.40 s and 20-21 MiB.  A census grows p and the c_ell tables of all its
# moduli as lanes of shared passes, so each further modulus adds about 0.045 s:
# the 23 primes 5..97 take 1.25-1.33 s and 48.7 MiB.  The widest `asymptotics`
# table, every n up to here at ell = 499, takes 0.99-1.23 s and 48.3 MiB.  It
# also bounds `count sigma`, whose divisor sum trial-divides up to sqrt(n)
COUNT_N_MAX = 20000
# largest n whose whole character table (`count z-all`, `census --z-all`) fits
# a 2 GiB budget.  Its peak is the row kernel's memo, which grows about 1.4x
# per n at one lane width.  Peak RSS and time of z_all_exact(n), each in a
# fresh process on a 2-core x86 VM:
#   n    30     31     32     33     34     35     36
#   MiB  67     90     126    170    417    592    846
#   s    1.5    2.2    3.3    4.4    11.6   19.5   22.6
# (the lanes widen from 64 to 128 bits at 34); so, at 1.43x per n, about
# 1.2 GiB at 37, 1.7 GiB at 38 and 2.4 GiB at 39 (not run)
Z_ALL_N_MAX = 38
# largest modulus for `census --ell`, `asymptotics --ell` and every `count`
# argument named ell: the core enumeration recurses once per abacus column,
# and `count inv-alpha` grows faster than ell^3 (0.18-0.25 s end to end at 499
# on the same VM; inv_alpha(1601) alone takes 5.3 s, 4.5 s of it the numeric
# route's L-series partial sum, 77 488 terms at 13 016 bits, and 0.8 s the
# exact route, nearly all of that its power sums)
ELL_MAX = 500


@cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="corz",
        description="exact counts and zero censuses for core-indexed character rows",
    )
    sub = top.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("count", help="print one exact value")
    pc.add_argument("quantity", choices=sorted(_COUNT_QUANTITIES))
    pc.add_argument("args", nargs="+", type=int, metavar="INT")

    ps = sub.add_parser("census", help="sweep (n, ell) and emit records")
    ps.add_argument("--ell", default="2,3,5,7", help="comma-separated moduli")
    ps.add_argument("--n-min", type=int, default=0)
    ps.add_argument("--n-max", type=int, default=14)
    ps.add_argument("--cap-exact", type=int, default=DEFAULT_CAP_EXACT)
    ps.add_argument("--cap-star", type=int, default=DEFAULT_CAP_STAR)
    ps.add_argument("--jobs", type=int, default=1)
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    ps.add_argument("--out", type=Path, default=None, help="default stdout")
    ps.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="per-(n, ell) result cache; env CORZ_CACHE_DIR is the fallback",
    )
    ps.add_argument(
        "--z-all",
        action="store_true",
        help="append unrestricted zero counts (adds a z_all column)",
    )

    pv = sub.add_parser("verify", help="run a named self-check suite")
    pv.add_argument("suite", help="suite name, or 'all'")
    pv.add_argument("--format", choices=("text", "json"), default="text")

    pa = sub.add_parser(
        "asymptotics", help="core and zero-bound counts over the paper's exact main term"
    )
    pa.add_argument("--ell", type=int, default=5, help=f"prime modulus from 5 to {ELL_MAX}")
    pa.add_argument("--n-min", type=int, default=50)
    pa.add_argument("--n-max", type=int, default=500)
    pa.add_argument("--step", type=int, default=50)
    pa.add_argument("--format", choices=("table", "csv"), default="table")

    return top


def _cmd_count(opts: argparse.Namespace) -> int:
    names, fn = _COUNT_QUANTITIES[opts.quantity]
    if len(opts.args) != len(names):
        print(
            f"corz count {opts.quantity} takes {len(names)} argument(s): "
            f"{' '.join(names)}",
            file=sys.stderr,
        )
        return 2
    # ell is checked before n, so an argument list with both too large names ell;
    # the n of z-all sizes a whole character table, checked before it is built
    bounds = {"ell": ELL_MAX, "n": Z_ALL_N_MAX if opts.quantity == "z-all" else COUNT_N_MAX}
    given = dict(zip(names, opts.args))
    for name, bound in bounds.items():
        if given.get(name, 0) > bound:
            print(f"corz count {opts.quantity}: {name} must be at most {bound}", file=sys.stderr)
            return 2
    print(fn(*opts.args))
    return 0


def _cmd_census(opts: argparse.Namespace) -> int:
    try:
        ells = tuple(int(tok) for tok in opts.ell.split(",") if tok.strip())
    except ValueError:
        print(f"cannot parse --ell {opts.ell!r}", file=sys.stderr)
        return 2
    if not ells:
        print(f"--ell {opts.ell!r} names no modulus", file=sys.stderr)
        return 2
    if any(not 2 <= ell <= ELL_MAX for ell in ells):
        print(f"--ell moduli must be between 2 and {ELL_MAX}, got {opts.ell!r}", file=sys.stderr)
        return 2
    if opts.n_min < 0:
        print(f"--n-min must be nonnegative, got {opts.n_min}", file=sys.stderr)
        return 2
    if _empty_range(opts):
        return 2
    if opts.n_max > COUNT_N_MAX:
        print(f"--n-max must be at most {COUNT_N_MAX}", file=sys.stderr)
        return 2
    # a --z-all record of n <= --cap-exact reads the whole table of n; the
    # largest such n is the top, and a sweep that starts above it reads none.
    # Checked before any table is built: a table above Z_ALL_N_MAX would not
    # fit the memory budget
    top = min(opts.n_max, opts.cap_exact)
    if opts.z_all and opts.n_min <= top and top > Z_ALL_N_MAX:
        print(
            f"census --z-all: the whole table of n={top} is above n={Z_ALL_N_MAX}, "
            "the largest that fits in 2 GiB",
            file=sys.stderr,
        )
        return 2
    cpus = os.cpu_count() or 1
    if not 1 <= opts.jobs <= cpus:
        print(f"--jobs must be between 1 and {cpus}, the CPU count", file=sys.stderr)
        return 2
    if opts.out is not None and not _writable_target(opts.out):
        print(f"--out {opts.out}: not a writable file in an existing directory", file=sys.stderr)
        return 2
    cache_dir = opts.cache_dir
    if cache_dir is None and os.environ.get("CORZ_CACHE_DIR"):
        cache_dir = Path(os.environ["CORZ_CACHE_DIR"])
    records = run_census(CensusConfig(
        n_min=opts.n_min,
        n_max=opts.n_max,
        ells=ells,
        cap_exact=opts.cap_exact,
        cap_star=opts.cap_star,
        jobs=opts.jobs,
        cache_dir=cache_dir,
        with_z_all=opts.z_all,
    ))
    sink = (
        nullcontext(sys.stdout)
        if opts.out is None
        else open(opts.out, "w", encoding="utf-8", newline="")
    )
    with sink as fh:
        write_records(records, opts.format, fh)
    return 0


def _empty_range(opts: argparse.Namespace) -> bool:
    # a sweep with no n would print a bare header and exit 0
    if opts.n_max >= opts.n_min:
        return False
    print(f"--n-max {opts.n_max} is below --n-min {opts.n_min}: no n to sweep", file=sys.stderr)
    return True


def _writable_target(path: Path) -> bool:
    # checked before the sweep so a bad path fails at once; the file itself
    # is created only when the records are written
    parent = path.parent
    if not parent.is_dir() or not os.access(parent, os.W_OK) or path.is_dir():
        return False
    return not path.exists() or os.access(path, os.W_OK)


def _cmd_verify(opts: argparse.Namespace) -> int:
    from .suites import available_suites, verify

    suites = available_suites() if opts.suite == "all" else (opts.suite,)
    reports = [verify(name) for name in suites]
    if opts.format == "json":
        print(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        for rep in reports:
            for line in rep.lines():
                print(line)
            verdict = "passed" if rep.passed else "FAILED"
            print(f"suite {rep.suite} {verdict} in {rep.seconds:.2f}s")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_asymptotics(opts: argparse.Namespace) -> int:
    if opts.step < 1 or opts.n_min < 1:
        print("need n-min >= 1 and step >= 1", file=sys.stderr)
        return 2
    if _empty_range(opts):
        return 2
    # the main term alpha_ell sigma_ell(n + delta_ell) is stated for primes >= 5
    if not (5 <= opts.ell <= ELL_MAX and _is_prime(opts.ell)):
        print(f"--ell must be a prime from 5 to {ELL_MAX}, got {opts.ell}", file=sys.stderr)
        return 2
    if opts.n_max > COUNT_N_MAX:
        print(f"--n-max must be at most {COUNT_N_MAX}", file=sys.stderr)
        return 2
    # p(n), p_ell(n), c_ell(n) and the main term's sigma_ell(n + delta_ell) of
    # the n the table reads come from census._sweep_series, as a census's do
    ell, lo, hi, step = opts.ell, opts.n_min, opts.n_max, opts.step
    (series,) = _sweep_series((ell,), lo, hi, step)
    inv = inv_alpha(ell)
    header = ("n", "p_n", "p_ell_n", "c_ell_n", "core_ratio", "lower_ratio")
    rows = [header]
    for n, (p, p_ell, c, sigma) in zip(range(lo, hi + 1, step), series):
        # ratios over the census's main term sigma / inv_alpha, each one int true
        # division, correctly rounded; sigma_ell(n + delta_ell) > 0 for ell >= 5
        rows.append((str(n), str(p), str(p_ell), str(c), f"{c * inv / sigma:.10f}",
                     f"{(p - p_ell) * c * inv / (sigma * p):.10f}"))
    if opts.format == "csv":
        for row in rows:
            print(",".join(row))
    else:
        widths = [max(map(len, column)) for column in zip(*rows)]
        for row in rows:
            print("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return 0


def main(argv: list[str] | None = None) -> int:
    opts = _build_parser().parse_args(argv)
    handler = {
        "count": _cmd_count,
        "census": _cmd_census,
        "verify": _cmd_verify,
        "asymptotics": _cmd_asymptotics,
    }[opts.command]
    try:
        return handler(opts)
    except (ValueError, ArithmeticError, OSError, RuntimeError) as exc:
        print(f"corz: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
