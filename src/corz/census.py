"""Census of character-table zeros against core-indexed rows.

For each size n and modulus ell the census reports exact partition counts,
the proven zero lower bound (rows labeled by ell-cores vanish on every
column that is not ell-regular), and, under configurable caps, exhaustive
zero counts over full columns or over core-by-core blocks.  Output is
deterministic: CSV or JSON lines, byte-identical across reruns, with an
optional per-(n, ell) cache that never changes results.  The self-checks of
the paper's statements live in `suites`; this module holds none.

The three exhaustive counts read nested blocks of the table of one n: core
rows by core columns, core rows by all columns, and the whole table.  Their
verdicts for the current n live in a module-level store (a bit per conjugate
orbit of rows; per column, the orbits decided and the orbits that vanish),
so each pair is decided once per n.  The whole table comes from the
row-side kernel of `characters`, which decides every pair of n at once and
fills the store; a record computes it first, so its core blocks then read
their verdicts from the store.  Without it the core blocks go through one
zero loop: the hook prefilter, then MN per column for the pairs the store
lacks.  That loop visits those columns in order of their reversed parts, so
that each shares its smallest parts, and the MN memo levels of those, with
the one before it; it returns counts in the caller's column order, which the
cached per-column lists keep.  The store lives for one n per process: a call
for another n drops it, and each worker of a --jobs pool keeps its own.  It
holds one entry per column of n: about 7 MiB at n = 38 for the core rows,
and under 1 MiB at n = 24 once the kernel has decided every orbit.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import IO

from .abacus import enumerate_cores, n_ell
from .characters import _lane_width, _SuffixLevels, _zero_table
from .numtheory import _is_prime, core_main_term
from .partitions import (
    Partition,
    beta_mask,
    conjugate_mask,
    count_cores,
    count_p,
    count_p_regular,
    enumerate_partitions,
    hook_mask,
)

DEFAULT_CAP_EXACT = 18
DEFAULT_CAP_STAR = 60
# written into each cache file under its checksum; bump it with any change
# that can alter a cached count, so files from older code are recomputed
ALGORITHM_VERSION = 1

CSV_FIELDS = (
    "n",
    "ell",
    "p_n",
    "p_ell_n",
    "c_ell_n",
    "z_lower",
    "z_exact",
    "z_star_exact",
    "z_star_closed",
    "main_term_num",
    "main_term_den",
)


def z_lower_bound(n: int, ell: int) -> int:
    """(p(n) - p_ell(n)) * c_ell(n): vanishing pairs guaranteed by core rows
    meeting columns with a part divisible by ell."""
    return (count_p(n) - count_p_regular(n, ell)) * count_cores(n, ell)


class _Verdicts:
    """Zero verdicts of the character table of one n, kept between calls.

    Each conjugate orbit of rows, keyed on its smaller beta-set mask, gets a
    bit.  Each column, keyed on its parts, holds two ints over those bits:
    the orbits already decided and the orbits that vanish.
    """

    def __init__(self) -> None:
        self.reset(-1)

    def reset(self, n: int) -> None:
        self.n = n
        self.orbits: dict[int, tuple[int, int]] = {}  # key -> (bit, hook set)
        self.columns: dict[tuple[int, ...], tuple[int, int]] = {}  # parts -> (decided, zero)

    def fill(self, n: int) -> int:
        """Decide every pair of n by the whole-table kernel, and return the
        zero count of the table.  Orbits already here keep their bits; new
        ones get theirs in the order _count_zeros gives them over the rows
        of enumerate_partitions(n)."""
        if self.n != n:
            self.reset(n)
        width = _lane_width(n)
        # orbit bit j of group g moves the kernel's lane flag, bit width - 1,
        # to bit j, so a group of 64 orbits fills the low word of each lane
        groups: dict[int, int] = {}
        count = 0
        for key, lanes in _zero_table(n):
            orbit = self.orbits.get(key)
            if orbit is None:
                orbit = self.orbits[key] = (1 << len(self.orbits), hook_mask(key))
            g, j = divmod(orbit[0].bit_length() - 1, 64)
            groups[g] = groups.get(g, 0) | lanes >> (width - 1 - j)
            zeros = lanes.bit_count()
            count += zeros if conjugate_mask(key) == key else 2 * zeros
        # kernel lanes run in ascending lex order, the reverse of enumerate_partitions
        columns = [mu.parts for mu in enumerate_partitions(n)][::-1]
        zero = [0] * len(columns)
        words = len(columns) * width // 64
        for g, acc in groups.items():
            low = struct.unpack(f"<{words}Q", acc.to_bytes(8 * words, "little"))[:: width // 64]
            zero = [z | w << 64 * g for z, w in zip(zero, low)]
        decided = (1 << len(self.orbits)) - 1
        self.columns = {parts: (decided, z) for parts, z in zip(columns, zero)}
        return count


# the verdicts of the latest n in this process; a call for another n resets it
_verdicts = _Verdicts()


def _count_zeros(rows: Sequence[Partition], columns: Iterable[Partition]) -> list[int]:
    # zeros chi_row(column) per column, in column order, for distinct rows.
    # A pair vanishes without MN when some part of the column is not a hook
    # length of the row.  chi_lam'(mu) = sgn(mu) chi_lam(mu) and conjugation
    # keeps hook lengths, so a row and its conjugate vanish together: rows are
    # grouped into conjugate orbits, each orbit is decided once per column of
    # n and the verdict kept in _verdicts, and a zero counts once per row of
    # the orbit present in rows.  MN visits the columns in its own order (see
    # below), but the counts come back in the caller's: build_record caches
    # z_exact as the list over enumerate_partitions(n), so its bytes stay put.
    if not rows:
        return [0 for _ in columns]
    store = _verdicts
    if store.n != rows[0].n:
        store.reset(rows[0].n)
    lower = upper = 0
    orbits: dict[int, tuple[int, int]] = {}  # bit -> (row mask, hook set), in row order
    for lam in rows:
        mask = beta_mask(lam.parts)
        conj = conjugate_mask(mask)
        key = min(mask, conj)
        orbit = store.orbits.get(key)
        if orbit is None:
            orbit = store.orbits[key] = (1 << len(store.orbits), hook_mask(key))
        bit, hooks = orbit
        orbits.setdefault(bit, (mask, hooks))
        if mask == key:
            lower |= bit
        else:
            upper |= bit
    # ones: orbits with a row here; twos: orbits with both conjugates here
    ones, twos = lower | upper, lower & upper
    zeros = []  # per column, in the caller's order: the orbits that vanish
    todo = []  # (reversed parts, index) of the columns with an orbit undecided
    for mu in columns:
        decided, zero = store.columns.get(mu.parts, (0, 0))
        if ones & ~decided:
            todo.append((mu.parts[::-1], len(zeros)))
        zeros.append(zero)
    # MN visits the open columns by their reversed parts: a column then shares
    # its smallest parts, and the memo levels of those, with the one before.
    # They are popped from the end, so each entry is freed once visited.
    levels = _SuffixLevels()
    todo.sort(reverse=True)
    while todo:
        tail, i = todo.pop()
        parts = tail[::-1]
        decided, zero = store.columns.get(parts, (0, 0))
        # a column given twice is decided by its first visit
        if ones & ~decided:
            needed = sum(1 << p for p in set(parts))
            col = None
            for bit, (mask, hooks) in orbits.items():
                if decided & bit:
                    continue
                if needed & ~hooks:
                    zero |= bit
                    continue
                if col is None:
                    col = levels.evaluator(parts)
                if col.value_mask(mask) == 0:
                    zero |= bit
            # a fresh column keeps `ones` itself, not an equal copy: the store
            # holds an entry for every column of n
            store.columns[parts] = (decided | ones if decided else ones, zero)
        zeros[i] = zero
    return [(zero & ones).bit_count() + (zero & twos).bit_count() for zero in zeros]


def _check_cap(n: int, cap: int, kind: str = "exact", flag: str = "--cap-exact") -> None:
    if n > cap:
        raise ValueError(
            f"{kind} census cap exceeded: n={n} > cap={cap}; raise {flag} to allow"
        )


def z_exact(n: int, ell: int, cap: int = DEFAULT_CAP_EXACT) -> int:
    """Exhaustive count of zeros chi_lam(mu) = 0 with lam an ell-core of n,
    over all columns mu of n."""
    _check_cap(n, cap)
    return sum(_z_exact_columns(n, ell))


def _z_exact_columns(n: int, ell: int) -> list[int]:
    # zeros per column of n over the core rows; build_record caches this list
    return _count_zeros(_cores(n, ell), enumerate_partitions(n))


@lru_cache(maxsize=1)
def _cores(n: int, ell: int) -> tuple[Partition, ...]:
    # a record asks for the cores of its (n, ell) twice in a row: once for
    # z_exact and once for z_star_exact
    return tuple(enumerate_cores(n, ell))


def z_star_exact(n: int, ell: int, cap: int = DEFAULT_CAP_STAR) -> int:
    """Exhaustive count of zeros over ordered pairs of ell-cores of n."""
    _check_cap(n, cap, "exact star", "--cap-star")
    cores = _cores(n, ell)
    return sum(_count_zeros(cores, cores))


def z_star_closed(n: int, ell: int) -> int:
    """c_ell(n)^2, the star count once every core row vanishes on every core
    column; valid only for prime ell above the regular-core bound n_ell."""
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
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_cap(n, cap)
    return _z_all(n)


@lru_cache(maxsize=None)
def _z_all(n: int) -> int:
    # the table does not depend on ell, so a sweep over moduli computes it
    # once per n; its verdicts decide the core blocks of n in the store
    return _verdicts.fill(n)


# ---------------------------------------------------------------------------
# records and sweeps


@dataclass(frozen=True)
class CensusConfig:
    """Sweep bounds and caps for run_census."""

    n_min: int = 0
    n_max: int = 14
    ells: tuple[int, ...] = (2, 3, 5, 7)
    cap_exact: int = DEFAULT_CAP_EXACT
    cap_star: int = DEFAULT_CAP_STAR
    jobs: int = 1
    cache_dir: Path | None = None
    with_z_all: bool = False


@dataclass
class CensusRecord:
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
        vals = [getattr(self, name) for name in CSV_FIELDS]
        if with_z_all:
            vals.append(self.z_all)
        return ",".join("" if v is None else str(v) for v in vals)

    def json_obj(self) -> dict:
        obj: dict = {"n": self.n, "ell": self.ell}
        for name in CSV_FIELDS[2:]:
            v = getattr(self, name)
            obj[name] = None if v is None else str(v)
        if self.z_all is not None:
            obj["z_all"] = str(self.z_all)
        return obj


def _require(ok: bool, detail: object) -> None:
    # an explicit raise survives python -O, which strips assert statements
    if not ok:
        raise AssertionError(detail)


def _cache_digest(payload: dict) -> str:
    blob = json.dumps(
        {"algorithm": ALGORITHM_VERSION, "payload": payload}, sort_keys=True, separators=(",", ":")
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def _cache_path(cache_dir: Path, n: int, ell: int) -> Path:
    return Path(cache_dir) / f"census-{ell}-{n}.json"


def _load_cache(path: Path) -> dict:
    if not path.exists():
        return {}
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise RuntimeError(f"census cache file is not JSON ({exc}): {path}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("payload", {}), dict):
        raise RuntimeError(f"census cache file has no JSON object payload: {path}")
    if doc.get("format") != 1:
        raise RuntimeError(f"unsupported census cache format in {path}")
    if doc.get("algorithm") != ALGORITHM_VERSION:
        return {}  # filled by other code: a miss, overwritten by the next store
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


def build_record(
    n: int,
    ell: int,
    cap_exact: int = DEFAULT_CAP_EXACT,
    cap_star: int = DEFAULT_CAP_STAR,
    cache_dir: Path | None = None,
    with_z_all: bool = False,
) -> CensusRecord:
    """One census row; caches the expensive exhaustive counts when a cache
    directory is given (the cache is an optimization only)."""
    # each series once; z_lower and z_star_closed are arithmetic on them
    p = count_p(n)
    p_ell = count_p_regular(n, ell)
    c = count_cores(n, ell)
    rec = CensusRecord(n=n, ell=ell, p_n=p, p_ell_n=p_ell, c_ell_n=c, z_lower=(p - p_ell) * c)
    payload: dict = {}
    path: Path | None = None
    # above both caps a record holds no cached count, so no file is read
    if cache_dir is not None and n <= max(cap_exact, cap_star):
        path = _cache_path(cache_dir, n, ell)
        payload = _load_cache(path)
    computed: list[str] = []

    def lookup(key: str, compute: Callable[[], object]):
        # the cached value, or a fresh one that the store below writes back
        if payload.get(key) is None:
            payload[key] = compute()
            computed.append(key)
        return payload[key]

    # the full table first: its verdicts decide the core blocks below
    if with_z_all and n <= cap_exact:
        rec.z_all = lookup("z_all_exact", partial(z_all_exact, n, cap=cap_exact))
    if n <= cap_exact:
        rec.z_exact = sum(lookup("z_exact_columns", partial(_z_exact_columns, n, ell)))
        _require(rec.z_exact >= rec.z_lower, (n, ell, rec.z_exact, rec.z_lower))
    if n <= cap_star:
        rec.z_star_exact = lookup("z_star_exact", partial(z_star_exact, n, ell, cap=cap_star))
    # Theorem 2 holds for primes only: composite ell has regular cores above n_ell
    if _is_prime(ell) and n > n_ell(ell):
        rec.z_star_closed = c * c
        if rec.z_star_exact is not None:
            _require(rec.z_star_exact == rec.z_star_closed, (n, ell))
    # the analytic constant needs the quadratic character, so primes only
    if ell >= 5 and _is_prime(ell):
        main = core_main_term(n, ell) * p
        rec.main_term_num = main.numerator
        rec.main_term_den = main.denominator
    if path is not None and computed:
        _store_cache(path, n, ell, payload)
    return rec


def run_census(config: CensusConfig) -> list[CensusRecord]:
    """All records of the sweep in (n, ell) order; it writes nothing, and
    write_records renders the list as CSV or JSON.

    Worker count config.jobs shards record computation across at most one
    process per grid cell; workers share nothing and map keeps grid order, so
    output does not depend on scheduling.  With with_z_all, each process
    walks the full table of a given n once, whatever the number of moduli.
    The process pool, and multiprocessing with it, is imported only when more
    than one worker runs, so a serial census starts without them.
    """
    task = partial(
        build_record,
        cap_exact=config.cap_exact,
        cap_star=config.cap_star,
        cache_dir=config.cache_dir,
        with_z_all=config.with_z_all,
    )
    moduli = sorted(set(config.ells))
    grid = [(n, ell) for n in range(config.n_min, config.n_max + 1) for ell in moduli]
    ns = [n for n, _ in grid]
    ells = [ell for _, ell in grid]
    workers = min(config.jobs, len(grid))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(task, ns, ells))
    return list(map(task, ns, ells))


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
