"""Command line front end.

Subcommands: count (single exact values), census (sweeps to CSV or JSON),
verify (named self-check suites), asymptotics (estimate-vs-exact tables).
Exit codes: 0 success, 1 failed verification, 2 bad usage or input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from .census import (
    DEFAULT_CAP_EXACT,
    DEFAULT_CAP_STAR,
    CensusConfig,
    available_suites,
    run_census,
    verify,
    write_records,
    z_all_exact,
)
from .abacus import n_ell
from .numtheory import delta_ell, inv_alpha, sigma_twisted
from .partitions import count_cores, count_p, count_p_regular, hagis_estimate, hr_estimate

_COUNT_QUANTITIES = {
    # name -> (argument names, callable)
    "p": (("n",), count_p),
    "p-regular": (("n", "a"), count_p_regular),
    "cores": (("n", "ell"), count_cores),
    "sigma": (("n", "ell"), sigma_twisted),
    "delta": (("ell",), delta_ell),
    "inv-alpha": (("ell",), inv_alpha),
    "n-ell": (("ell",), n_ell),
    "z-all": (("n",), None),
}
# largest n for the p(n) table behind `count p | p-regular | cores`, `census`
# and `asymptotics`; the table and a count there take 0.5-1.1 s end to end on
# a 2-core x86 VM.  It also bounds `count sigma`, whose divisor sum
# trial-divides up to sqrt(n)
COUNT_N_MAX = 20000
# largest modulus for `census --ell` and every `count` argument named ell: the
# core enumeration recurses once per abacus column, and `count inv-alpha`
# grows about as ell^3 (0.24 s at 499, 8.9 s at 1601 on the same VM)
ELL_MAX = 500


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="corz",
        description="exact counts and zero censuses for core-indexed character rows",
    )
    sub = top.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("count", help="print one exact value")
    pc.add_argument("quantity", choices=sorted(_COUNT_QUANTITIES))
    pc.add_argument("args", nargs="+", type=int, metavar="INT")
    pc.add_argument(
        "--cap-exact",
        type=int,
        default=DEFAULT_CAP_EXACT,
        help="largest n allowed for the exhaustive z-all count",
    )

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

    pa = sub.add_parser("asymptotics", help="estimate-vs-exact tables")
    pa.add_argument("--ell", type=int, default=3, help="modulus for the regular count")
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
    # ell is checked before n, so an argument list with both too large names ell
    bounds = {"ell": ELL_MAX}
    if opts.quantity in ("p", "p-regular", "cores", "sigma"):
        bounds["n"] = COUNT_N_MAX
    given = dict(zip(names, opts.args))
    for name, bound in bounds.items():
        if given.get(name, 0) > bound:
            print(f"corz count {opts.quantity}: {name} must be at most {bound}", file=sys.stderr)
            return 2
    if opts.quantity == "z-all":
        value = z_all_exact(opts.args[0], cap=opts.cap_exact)
    else:
        value = fn(*opts.args)
    print(value)
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
    if opts.n_max > COUNT_N_MAX:
        print(f"--n-max must be at most {COUNT_N_MAX}", file=sys.stderr)
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


def _writable_target(path: Path) -> bool:
    # checked before the sweep so a bad path fails at once; the file itself
    # is created only when the records are written
    parent = path.parent
    if not parent.is_dir() or not os.access(parent, os.W_OK) or path.is_dir():
        return False
    return not path.exists() or os.access(path, os.W_OK)


def _cmd_verify(opts: argparse.Namespace) -> int:
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
    if opts.n_max > COUNT_N_MAX:
        print(f"--n-max must be at most {COUNT_N_MAX}", file=sys.stderr)
        return 2
    rows = []
    for n in range(opts.n_min, opts.n_max + 1, opts.step):
        p = count_p(n)
        pa = count_p_regular(n, opts.ell)
        hr = hr_estimate(n)
        hg = hagis_estimate(n, opts.ell)
        rows.append((n, p, hr, hr / p, pa, hg, hg / pa))
    header = ("n", "p_n", "hr_estimate", "hr_ratio", "p_ell_n", "hagis_estimate", "hagis_ratio")
    if opts.format == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(_fmt_cell(v) for v in row))
    else:
        cells = [header] + [tuple(_fmt_cell(v) for v in row) for row in rows]
        widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
        for r in cells:
            print("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return 0


def _fmt_cell(v) -> str:
    if isinstance(v, int):
        return str(v)
    return f"{v:.6g}"


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
