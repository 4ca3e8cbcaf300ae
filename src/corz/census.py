"""Census of character-table zeros against core-indexed rows.

For each size n and modulus ell the census reports exact partition counts,
the proven zero lower bound (rows labeled by ell-cores vanish on every
column that is not ell-regular), and, under configurable caps, exhaustive
zero counts over full columns or over core-by-core blocks.  Output is
deterministic: CSV or JSON lines, byte-identical across reruns, with an
optional per-(n, ell) cache that never changes results.  The self-checks of
the paper's statements live in `suites`; this module holds none.

The three exhaustive counts are zeros over nested blocks of the table of
one n, each a plain integer: Z* over core rows by core columns, Z over core
rows by all columns, and the whole table.  Z* is the core-column block of
Z, so a record asks `characters` for the pair (Z, Z*) in one pass, adds no
MN for Z*, and caches both.  The pass is the column loop over every column,
or, with_z_all, a read of the whole table, which runs no MN for the core
blocks; above cap_exact it is the column loop over the cores, giving Z*.
Only a cell with n <= max(cap_exact, cap_star) has an exhaustive count.
run_census sends those cells, and no others, through _cell_counts, serially
or in the process pool: it puts each missing count into the cache payload,
reads the counts the caps report off that payload, and stores the payload
only when it differs from the one it loaded.  Then one loop in run_census
forms every immutable CensusRecord, in (n, ell) order, from the series of
_sweep_series and those counts; build_record is the census of one cell.

A cache file carries a SHA-256 of its stamped payload.  The digest comes
from the interpreter's own module (_sha2 from Python 3.12, _sha256 before),
as random takes its SHA-512, and from hashlib only where neither exists:
hashlib loads OpenSSL, which costs a census more start-up time and memory
than hashing payloads of under 1 KB ever saves.  SHA-256 is one function
whichever module computes it, so the digest and the cache bytes are the same.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from collections.abc import Iterable
from itertools import chain, repeat, starmap
from pathlib import Path
from typing import IO, NamedTuple

# the builtin SHA-256 without OpenSSL: _sha2 from 3.12, _sha256 on 3.10-3.11
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .abacus import enumerate_cores, n_ell
from .characters import _count_zeros, _table_zeros, _whole_table
from .numtheory import _is_prime, _twisted_divisor_sums, delta_ell, inv_alpha
from .partitions import (
    _core_tables,
    _regular_window,
    _require_int,
    count_cores,
    count_p,
    count_p_regular,
    enumerate_partitions,
)

DEFAULT_CAP_EXACT = 18
DEFAULT_CAP_STAR = 60
# written into each cache file under its checksum; bump it with any change
# that can alter a cached count, so files from older code are recomputed
ALGORITHM_VERSION = 2


def z_lower_bound(n: int, ell: int) -> int:
    """(p(n) - p_ell(n)) * c_ell(n): vanishing pairs guaranteed by core rows
    meeting columns with a part divisible by ell."""
    return (count_p(n) - count_p_regular(n, ell)) * count_cores(n, ell)


def _check_cap(n: int, cap: int, kind: str = "exact", flag: str = "--cap-exact") -> None:
    if n > cap:
        raise ValueError(
            f"{kind} census cap exceeded: n={n} > cap={cap}; raise {flag} to allow"
        )


def z_exact(n: int, ell: int, cap: int = DEFAULT_CAP_EXACT) -> int:
    """Exhaustive count of zeros chi_lam(mu) = 0 with lam an ell-core of n,
    over all columns mu of n."""
    _check_cap(n, cap)
    return _count_zeros(enumerate_cores(n, ell), enumerate_partitions(n))[0]


def z_star_exact(n: int, ell: int, cap: int = DEFAULT_CAP_STAR) -> int:
    """Exhaustive count of zeros over ordered pairs of ell-cores of n."""
    _check_cap(n, cap, "exact star", "--cap-star")
    cores = tuple(enumerate_cores(n, ell))
    return _count_zeros(cores, cores)[0]


def z_star_closed(n: int, ell: int) -> int:
    """c_ell(n)^2, the star count once every core row vanishes on every core
    column; valid only for prime ell above the regular-core bound n_ell."""
    _require_int(n, "n")
    _require_int(ell, "ell", 2)
    if not _is_prime(ell):
        raise ValueError(f"closed form needs a prime ell, got {ell}")
    bound = n_ell(ell)
    if n <= bound:
        raise ValueError(
            f"closed form valid only above the regular-core bound: "
            f"need n > {bound} for ell={ell}"
        )
    return count_cores(n, ell) ** 2


def z_all_exact(n: int, cap: int = DEFAULT_CAP_EXACT) -> int:
    """Zeros over the whole character table of S_n (no core restriction)."""
    _require_int(n, "n")
    _check_cap(n, cap)
    return _whole_table(n).count


# ---------------------------------------------------------------------------
# records and sweeps


class CensusConfig(NamedTuple):
    """Sweep bounds and caps for run_census."""

    n_min: int = 0
    n_max: int = 14
    ells: tuple[int, ...] = (2, 3, 5, 7)
    cap_exact: int = DEFAULT_CAP_EXACT
    cap_star: int = DEFAULT_CAP_STAR
    jobs: int = 1
    cache_dir: Path | None = None
    with_z_all: bool = False


class CensusRecord(NamedTuple):
    """One census row: the exact series of (n, ell) and the zero lower bound,
    then each count or closed form its caps and modulus allow (None where
    they do not).  An immutable value; every field but the last, z_all, is a
    CSV column, in order."""

    n: int
    ell: int
    p_n: int
    p_ell_n: int
    c_ell_n: int
    z_lower: int
    z_exact: int | None = None
    z_star_exact: int | None = None
    z_star_closed: int | None = None
    main_term_num: int | None = None
    main_term_den: int | None = None
    z_all: int | None = None

    def csv_row(self, with_z_all: bool = False) -> str:
        vals = self if with_z_all else self[:-1]
        return ",".join(["" if v is None else str(v) for v in vals])

    def json_obj(self) -> dict:
        obj: dict = {"n": self.n, "ell": self.ell}
        for name, v in zip(CSV_FIELDS[2:], self[2:-1]):
            obj[name] = None if v is None else str(v)
        if self.z_all is not None:
            obj["z_all"] = str(self.z_all)
        return obj


CSV_FIELDS = CensusRecord._fields[:-1]


def _require(ok: bool, detail: object) -> None:
    # an explicit raise survives python -O, which strips assert statements
    if not ok:
        raise AssertionError(detail)


def _cache_digest(payload: dict) -> str:
    # the sha256 imported above: the interpreter's builtin module, whose
    # digest is hashlib's, so files written with either read with the other
    blob = json.dumps(
        {"algorithm": ALGORITHM_VERSION, "payload": payload}, sort_keys=True, separators=(",", ":")
    ).encode()
    return sha256(blob).hexdigest()


def _cache_path(cache_dir: Path, n: int, ell: int) -> Path:
    return Path(cache_dir) / f"census-{ell}-{n}.json"


def _load_cache(path: Path, n: int, ell: int) -> dict:
    # one read, no stat first: a file that is absent, or removed by an
    # overlapping run after any check, is a miss
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}
    except ValueError as exc:  # not UTF-8, or not JSON
        raise RuntimeError(f"census cache file is not JSON ({exc}): {path}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("payload", {}), dict):
        raise RuntimeError(f"census cache file has no JSON object payload: {path}")
    if doc.get("format") != 1:
        raise RuntimeError(f"unsupported census cache format in {path}")
    if doc.get("algorithm") != ALGORITHM_VERSION:
        return {}  # filled by other code: a miss, overwritten by the next store
    if (doc.get("n"), doc.get("ell")) != (n, ell):
        raise RuntimeError(f"census cache file holds another cell than n={n}, ell={ell}: {path}")
    payload = doc.get("payload", {})
    if doc.get("sha256") != _cache_digest(payload):
        raise RuntimeError(f"census cache file corrupt (checksum mismatch): {path}")
    return payload


def _store_cache(path: Path, n: int, ell: int, payload: dict) -> None:
    doc = {
        "format": 1,
        "algorithm": ALGORITHM_VERSION,
        "n": n,
        "ell": ell,
        "payload": payload,
        "sha256": _cache_digest(payload),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    # a temp name of its own per writer, so overlapping runs never share one
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cell_counts(
    n: int, ell: int, cap_exact: int, cap_star: int, cache_dir: Path | None, with_z_all: bool
) -> tuple[int | None, int | None, int | None]:
    # (z_exact, z_star_exact, z_all) of one cell with n <= max(cap_exact,
    # cap_star), each None where the caps do not report it.  Missing counts go
    # into the cache payload and a cached count is kept: z_all_exact (with_z_all
    # and exact), z_exact (exact) and z_star_exact.  One pass gives (Z, Z*), or
    # (Z*, Z*) when not exact, so Z* is cached whatever cap_star is; the cores
    # are enumerated only for a missing count.  The file is stored only when
    # the payload differs from the one loaded
    exact = n <= cap_exact
    payload: dict = {}
    if cache_dir is not None:
        path = _cache_path(cache_dir, n, ell)
        loaded = _load_cache(path, n, ell)
        payload = dict(loaded)
    if with_z_all and exact and payload.get("z_all_exact") is None:
        payload["z_all_exact"] = z_all_exact(n, cap=n)
    keys = ("z_exact", "z_star_exact") if exact else ("z_star_exact",)
    missing = [key for key in keys if payload.get(key) is None]
    if missing:
        cores = tuple(enumerate_cores(n, ell))
        if not exact:
            pair = _count_zeros(cores, cores)
        elif with_z_all:
            # the whole table's verdicts give both counts with no MN
            pair = _table_zeros(n, cores)
        else:
            pair = _count_zeros(cores, enumerate_partitions(n))
        payload.update((k, v) for k, v in zip(("z_exact", "z_star_exact"), pair) if k in missing)
    if cache_dir is not None and payload != loaded:
        _store_cache(path, n, ell, payload)
    return (
        payload["z_exact"] if exact else None,
        payload["z_star_exact"] if n <= cap_star else None,
        payload["z_all_exact"] if with_z_all and exact else None,
    )


def build_record(
    n: int,
    ell: int,
    cap_exact: int = DEFAULT_CAP_EXACT,
    cap_star: int = DEFAULT_CAP_STAR,
    cache_dir: Path | None = None,
    with_z_all: bool = False,
) -> CensusRecord:
    """The census of the one cell (n, ell), as run_census forms it; caches
    the exhaustive counts under cache_dir when given (an optimization only).
    """
    config = CensusConfig(
        n_min=n, n_max=n, ells=(ell,), cap_exact=cap_exact, cap_star=cap_star,
        cache_dir=cache_dir, with_z_all=with_z_all,
    )
    return run_census(config)[0]


def _sweep_series(moduli: list[int], lo: int, hi: int, step: int = 1) -> list[list[tuple]]:
    # for each modulus ell, (p(n), p_ell(n), c_ell(n), sigma_ell(n + delta_ell))
    # for n = lo, lo + step, ... <= hi, with sigma None unless ell is a prime
    # >= 5.  The p(n) table and the c_ell(n) tables of every modulus grow to hi
    # in one _core_tables call; p_ell and sigma come from one window each
    p, tables = _core_tables(moduli, hi)
    rows = slice(lo, hi + 1, step)
    columns = []
    for ell, table in zip(moduli, tables):
        sigmas = repeat(None)
        if ell >= 5 and _is_prime(ell):
            shift = delta_ell(ell)
            sigmas = _twisted_divisor_sums(ell, (ell - 3) // 2, lo + shift, hi + shift, step)
        columns.append(list(zip(p[rows], _regular_window(ell, lo, hi, step), table[rows], sigmas)))
    return columns


def run_census(config: CensusConfig) -> list[CensusRecord]:
    """All records of the sweep in (n, ell) order; it writes nothing, and
    write_records renders the list as CSV or JSON.

    n_min must be a nonnegative int and n_max an int; a sweep with
    n_max < n_min is empty, and jobs must be an int >= 1 and each cap an int.
    Before any count is computed or any worker starts, _sweep_series, which
    `corz asymptotics` calls too, forms the series of every modulus over
    [n_min, n_max] in one call.

    Only the cells with n <= max(cap_exact, cap_star) have an exhaustive
    count.  Those cells, and no others, go through the cache and, with
    config.jobs > 1, the process pool, which starts at most one worker per
    such cell: a grid above both caps starts none.  Workers share nothing and
    map keeps grid order, so output does not depend on scheduling.  With
    with_z_all, the pool hands out the n-major cells in chunks of one n and
    all its moduli, so one worker computes the whole table of each n.  The
    process pool, and multiprocessing with it, is imported only when more
    than one worker runs, so a serial census starts without them.

    Then one loop in the calling process forms every record from the series
    and the counts: z_lower, the closed form of the star count, the main term
    and the guards of both invariants.
    """
    _require_int(config.n_min, "n_min")
    _require_int(config.n_max, "n_max", None)
    _require_int(config.jobs, "jobs", 1)
    _require_int(config.cap_exact, "cap_exact", None)
    _require_int(config.cap_star, "cap_star", None)
    lo, hi = config.n_min, config.n_max
    ns = range(lo, hi + 1)
    if not ns:
        return []
    moduli = sorted(set(config.ells))
    columns = _sweep_series(moduli, lo, hi)
    settings = (config.cap_exact, config.cap_star, config.cache_dir, config.with_z_all)
    # n-major: the cells of every modulus at one n, then the next n; the cells
    # with a count are a prefix of the grid, each the argument list of its
    # _cell_counts call
    top = min(hi, max(config.cap_exact, config.cap_star))
    cells = [(n, ell, *settings) for n in range(lo, top + 1) for ell in moduli]
    workers = min(config.jobs, len(cells))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = len(moduli) if config.with_z_all else 1
            counts = list(pool.map(_cell_counts, *zip(*cells), chunksize=chunk))
    else:
        counts = list(starmap(_cell_counts, cells))
    # per modulus: Theorem 2's bound n_ell, above which the star count is
    # c_ell^2 (None for composite ell, which has regular cores above it), and
    # inv_alpha for the main term (None unless ell is a prime >= 5, as sigma)
    constants = []
    for ell in moduli:
        prime = _is_prime(ell)
        constants.append((n_ell(ell) if prime else None, inv_alpha(ell) if prime and ell >= 5 else None))
    records = []
    # the cells above both caps, after the prefix, have no count
    cell = chain(counts, repeat((None, None, None)))
    for n, row in zip(ns, zip(*columns)):
        for ell, (p, p_ell, c, sigma), (bound, inv) in zip(moduli, row, constants):
            z, z_star, z_all = next(cell)
            z_lower = (p - p_ell) * c
            closed = c * c if bound is not None and n > bound else None
            if z is not None:
                _require(z >= z_lower, (n, ell, z, z_lower))
            if z_star is not None and closed is not None:
                _require(z_star == closed, (n, ell))
            # core_main_term(n, ell) * p in lowest terms, from integers: inv_alpha > 0
            num = den = None
            if inv is not None:
                num = sigma * p
                g = math.gcd(num, inv)
                num, den = num // g, inv // g
            records.append(
                CensusRecord(n, ell, p, p_ell, c, z_lower, z, z_star, closed, num, den, z_all)
            )
    return records


def write_records(records: Iterable[CensusRecord], fmt: str, fh: IO[str]) -> None:
    """CSV with the fixed header, or one JSON object per line; counts in
    JSON are decimal strings so arbitrary precision survives parsers.

    The z_all column appears only when some record carries it, keeping the
    default schema stable.
    """
    records = list(records)
    with_z_all = any(r.z_all is not None for r in records)
    if fmt == "csv":
        header = CSV_FIELDS + ("z_all",) if with_z_all else CSV_FIELDS
        fh.write(",".join(header) + "\n")
        for rec in records:
            fh.write(rec.csv_row(with_z_all) + "\n")
    elif fmt == "json":
        for rec in records:
            fh.write(json.dumps(rec.json_obj(), separators=(", ", ": ")) + "\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}; use csv or json")
