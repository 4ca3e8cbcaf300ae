"""Census of character-table zeros against core-indexed rows.

For each size n and modulus ell the census reports exact partition counts,
the proven zero lower bound (rows labeled by ell-cores vanish on every
column that is not ell-regular), and, under configurable caps, exhaustive
zero counts over full columns or over core-by-core blocks.  Output is
deterministic: CSV or JSON lines, byte-identical across reruns, with an
optional per-(n, ell) cache that never changes results.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
import time
from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial
from pathlib import Path
from typing import IO

from .abacus import (
    Abacus,
    abacus_size,
    bead_jump_witness,
    enumerate_cores,
    extremal_abacus,
    from_abacus,
    n_ell,
    search_max_regular_core,
    swap_columns,
    to_abacus,
)
from .characters import ColumnEvaluator, centralizer_order, dimension, mn_character
from .numtheory import (
    _is_prime,
    c2_closed,
    c3_closed,
    core_main_term,
    inv_alpha,
    sigma_twisted,
)
from .partitions import (
    Partition,
    _iter_partition_buffers,
    beta_mask,
    count_cores,
    count_p,
    count_p_regular,
    enumerate_partitions,
    hook_mask,
    is_regular,
    strip_ends,
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


def _count_zeros(rows: Sequence[Partition], columns: Iterable[Partition]) -> list[int]:
    # zeros chi_row(column) per column, in column order.  A pair vanishes
    # without MN when some part of the column is not a hook length of the row.
    if not rows:
        return [0 for _ in columns]
    hooks = [hook_mask(beta_mask(lam.parts)) for lam in rows]
    out = []
    for mu in columns:
        col = ColumnEvaluator(mu)
        needed = sum(1 << p for p in set(mu.parts))
        zeros = 0
        for lam, hset in zip(rows, hooks):
            if needed & ~hset or col.value(lam) == 0:
                zeros += 1
        out.append(zeros)
    return out


def _check_cap(n: int, cap: int, kind: str = "exact", flag: str = "--cap-exact") -> None:
    if n > cap:
        raise ValueError(
            f"{kind} census cap exceeded: n={n} > cap={cap}; raise {flag} to allow"
        )


def z_exact(n: int, ell: int, cap: int = DEFAULT_CAP_EXACT) -> int:
    """Exhaustive count of zeros chi_lam(mu) = 0 with lam an ell-core of n,
    over all columns mu of n."""
    _check_cap(n, cap)
    return sum(_count_zeros(list(enumerate_cores(n, ell)), enumerate_partitions(n)))


def z_star_exact(n: int, ell: int, cap: int = DEFAULT_CAP_STAR) -> int:
    """Exhaustive count of zeros over ordered pairs of ell-cores of n."""
    _check_cap(n, cap, "exact star", "--cap-star")
    cores = list(enumerate_cores(n, ell))
    return sum(_count_zeros(cores, cores))


def z_star_closed(n: int, ell: int) -> int:
    """c_ell(n)^2, the star count once every core row vanishes on every core
    column; valid only above the regular-core bound n_ell."""
    bound = n_ell(ell)
    if n <= bound:
        raise ValueError(
            f"closed form valid only above the regular-core bound: "
            f"need n > {bound} for ell={ell}"
        )
    return count_cores(n, ell) ** 2


def z_all_exact(n: int, cap: int = DEFAULT_CAP_EXACT) -> int:
    """Zeros over the whole character table of S_n (no core restriction)."""
    _check_cap(n, cap)
    return _z_all(n)


@lru_cache(maxsize=None)
def _z_all(n: int) -> int:
    # the table does not depend on ell, so a sweep over moduli walks it once per n
    lams = list(enumerate_partitions(n))
    return sum(_count_zeros(lams, lams))


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
    doc = json.loads(path.read_text(encoding="utf-8"))
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
    if cache_dir is not None:
        path = _cache_path(cache_dir, n, ell)
        payload = _load_cache(path)
    dirty = False
    if n <= cap_exact:
        cols = payload.get("z_exact_columns")
        if cols is None:
            cols = _count_zeros(list(enumerate_cores(n, ell)), enumerate_partitions(n))
            payload["z_exact_columns"] = cols
            dirty = True
        rec.z_exact = sum(cols)
        _require(rec.z_exact >= rec.z_lower, (n, ell, rec.z_exact, rec.z_lower))
    if n <= cap_star:
        star = payload.get("z_star_exact")
        if star is None:
            star = z_star_exact(n, ell, cap=cap_star)
            payload["z_star_exact"] = star
            dirty = True
        rec.z_star_exact = star
    if n > n_ell(ell):
        rec.z_star_closed = c * c
        if rec.z_star_exact is not None:
            _require(rec.z_star_exact == rec.z_star_closed, (n, ell))
    # the analytic constant needs the quadratic character, so primes only
    if ell >= 5 and _is_prime(ell):
        main = core_main_term(n, ell) * p
        rec.main_term_num = main.numerator
        rec.main_term_den = main.denominator
    if with_z_all and n <= cap_exact:
        za = payload.get("z_all_exact")
        if za is None:
            za = z_all_exact(n, cap=cap_exact)
            payload["z_all_exact"] = za
            dirty = True
        rec.z_all = za
    if path is not None and dirty:
        _store_cache(path, n, ell, payload)
    return rec


def run_census(config: CensusConfig) -> list[CensusRecord]:
    """All records of the sweep in (n, ell) order; it writes nothing, and
    write_records renders the list as CSV or JSON.

    Worker count config.jobs shards record computation across at most one
    process per grid cell; workers share nothing and map keeps grid order, so
    output does not depend on scheduling.  With with_z_all, each process
    walks the full table of a given n once, whatever the number of moduli.
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


# ---------------------------------------------------------------------------
# verification suites


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""
    seconds: float = 0.0


@dataclass
class Report:
    suite: str
    checks: list[Check] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            tail = f" [{c.detail}]" if c.detail and not c.passed else ""
            out.append(f"{mark} {self.suite}: {c.name} ({c.seconds:.2f}s){tail}")
        return out

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "seconds": round(self.seconds, 3),
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "detail": c.detail,
                    "seconds": round(c.seconds, 3),
                }
                for c in self.checks
            ],
        }


def _run_check(checks: list[Check], name: str, fn) -> None:
    t0 = time.perf_counter()
    try:
        fn()
        passed, detail = True, ""
    except AssertionError as exc:
        passed, detail = False, str(exc)
    except Exception as exc:
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    checks.append(Check(name, passed, detail, time.perf_counter() - t0))


def _suite_constants(checks: list[Check]) -> None:
    frozen = {5: 1, 7: 8, 11: 1275, 13: 33463}

    def check(ell: int, expected: int):
        def body():
            got = inv_alpha(ell)
            _require(got == expected, f"inv_alpha({ell}) = {got}, expected {expected}")

        return body

    for ell, expected in frozen.items():
        _run_check(
            checks,
            f"inv_alpha({ell}) dual-route value {expected}",
            check(ell, expected),
        )


def _suite_closed_forms(checks: list[Check]) -> None:
    def two_core():
        for n in range(501):
            _require(c2_closed(n) == count_cores(n, 2), f"n={n}")

    def three_core():
        for n in range(501):
            _require(c3_closed(n) == count_cores(n, 3), f"n={n}")

    def five_core():
        for n in range(301):
            _require(sigma_twisted(n + 1, 5) == count_cores(n, 5), f"n={n}")

    _run_check(checks, "two-core indicator matches series for n <= 500", two_core)
    _run_check(checks, "three-core divisor sum matches series for n <= 500", three_core)
    _run_check(checks, "five-core twisted divisor sum matches series for n <= 300", five_core)


def _suite_theorem2(checks: list[Check]) -> None:
    window = range(n_ell(3) + 1, 61)

    def pairs_vanish():
        for n in window:
            cores = list(enumerate_cores(n, 3))
            for mu in cores:
                col = ColumnEvaluator(mu)
                for lam in cores:
                    v = col.value(lam)
                    _require(v == 0, f"chi_{lam.parts}{mu.parts} = {v}")

    def star_matches_square():
        for n in window:
            got = z_star_exact(n, 3)
            want = z_star_closed(n, 3)
            _require(got == want, f"n={n}: {got} != {want}")

    _run_check(checks, "every ordered 3-core pair vanishes on (16, 60]", pairs_vanish)
    _run_check(checks, "star census equals squared core count on (16, 60]", star_matches_square)


def _suite_lemma1(checks: list[Check]) -> None:
    ells = (2, 3, 5, 7)

    def exact_dominates():
        for ell in ells:
            for n in range(15):
                ze = z_exact(n, ell)
                zl = z_lower_bound(n, ell)
                _require(ze >= zl, f"n={n} ell={ell}: {ze} < {zl}")

    def core_rows_vanish():
        for ell in ells:
            for n in range(13):
                cores = list(enumerate_cores(n, ell))
                if not cores:
                    continue
                for mu in enumerate_partitions(n):
                    if is_regular(mu, ell):
                        continue
                    col = ColumnEvaluator(mu)
                    for lam in cores:
                        v = col.value(lam)
                        _require(v == 0, f"chi_{lam.parts}{mu.parts} = {v}")

    _run_check(checks, "exhaustive zeros dominate the lower bound for n <= 14", exact_dominates)
    _run_check(checks, "core rows vanish on non-regular columns for n <= 12", core_rows_vanish)


def _suite_orthogonality(checks: list[Check]) -> None:
    def column_norms():
        for n in range(11):
            lams = list(enumerate_partitions(n))
            for mu in lams:
                col = ColumnEvaluator(mu)
                total = sum(col.value(lam) ** 2 for lam in lams)
                want = centralizer_order(mu)
                _require(total == want, f"mu={mu.parts}: {total} != {want}")

    def identity_column():
        for n in range(13):
            col = ColumnEvaluator([1] * n)
            for lam in enumerate_partitions(n):
                v = col.value(lam)
                want = dimension(lam)
                _require(v == want, f"lam={lam.parts}: {v} != {want}")

    def closed_rows():
        for n in range(11):
            for mu in enumerate_partitions(n):
                _require(mn_character((n,) if n else (), mu) == 1, f"mu={mu.parts}")
                sign = -1 if (n - len(mu.parts)) % 2 else 1
                got = mn_character([1] * n, mu)
                _require(got == sign, f"mu={mu.parts}: {got} != {sign}")

    _run_check(checks, "column norms equal centralizer orders for n <= 10", column_norms)
    _run_check(checks, "identity column equals hook-length dimension for n <= 12", identity_column)
    _run_check(checks, "trivial and sign rows match closed forms for n <= 10", closed_rows)


def _count_cores_filter_pass(n: int, ells: Sequence[int]) -> dict[int, int]:
    # one reverse-lex sweep, testing each partition's beta-set for every modulus
    counts = dict.fromkeys(ells, 0)
    for buf in _iter_partition_buffers(n):
        mask = beta_mask(buf)
        for ell in ells:
            if not strip_ends(mask, ell):
                counts[ell] += 1
    return counts


def _random_canonical_abacus(rng: random.Random) -> Abacus:
    ell = rng.choice((3, 5, 7, 11))
    cols = (0,) + tuple(rng.randrange(0, 8) for _ in range(ell - 1))
    return Abacus(ell, cols)


def _suite_abacus(checks: list[Check]) -> None:
    ells = (2, 3, 5, 7)

    def roundtrip():
        for ell in ells:
            for n in range(41):
                for lam in enumerate_cores(n, ell):
                    back = from_abacus(to_abacus(lam, ell))
                    _require(back == lam, f"ell={ell}: {lam.parts} -> {back.parts}")

    def counts_match():
        for n in range(61):
            filtered = _count_cores_filter_pass(n, ells)
            for ell in ells:
                via_abacus = sum(1 for _ in enumerate_cores(n, ell))
                series = count_cores(n, ell)
                _require(filtered[ell] == series, f"filter n={n} ell={ell}")
                _require(via_abacus == series, f"abacus n={n} ell={ell}")

    def swaps_grow():
        rng = random.Random(41)
        done = 0
        while done < 500:
            ab = _random_canonical_abacus(rng)
            pairs = [
                (i, j)
                for i in range(1, ab.ell)
                for j in range(i + 1, ab.ell)
                if ab.cols[j] < ab.cols[i]
            ]
            if not pairs:
                continue
            i, j = rng.choice(pairs)
            bigger = swap_columns(ab, i, j)
            _require(abacus_size(bigger) > abacus_size(ab), f"{ab} ({i},{j})")
            done += 1

    def jumps_name_multiples():
        rng = random.Random(43)
        done = 0
        while done < 500:
            ell = rng.choice((3, 5, 7))
            k = rng.randrange(0, 4)
            cols = [0] + [
                rng.randrange(k + ell, k + ell + 4)
                if rng.random() < 0.5
                else rng.randrange(0, k + 1)
                for _ in range(ell - 1)
            ]
            if not any(b >= k + ell for b in cols[1:]):
                continue
            ab = Abacus(ell, tuple(cols))
            witness = bead_jump_witness(ab)
            _require(witness is not None, f"{ab}")
            j, part = witness
            _require(1 <= j < ell and part > 0 and part % ell == 0, f"{ab}: {witness}")
            _require(part in from_abacus(ab).parts, f"{ab}: {witness}")
            done += 1

    def extremal_bound():
        _require(n_ell(3) == 16, n_ell(3))
        for ell in ells:
            ab = extremal_abacus(ell)
            lam = from_abacus(ab)
            _require(abacus_size(ab) == n_ell(ell) == lam.n, f"ell={ell}")
            _require(ab.beads() == ell * (ell - 1) ** 2 // 2, f"ell={ell}")
            # witness-free: the defining property of the maximizer
            _require(bead_jump_witness(ab) is None, f"ell={ell}")
            _require(to_abacus(lam, ell) == ab, f"ell={ell}")
        # brute force at ell=3: no witness-free abacus beats the bound
        for b1 in range(9):
            for b2 in range(9):
                ab = Abacus(3, (0, b1, b2))
                if bead_jump_witness(ab) is None:
                    _require(abacus_size(ab) <= 16, f"{ab}")

    def no_regular_core_above():
        best = search_max_regular_core(3, 200)
        _require(best == 10, f"largest 3-regular 3-core at n={best}, expected 10")

    _run_check(checks, "abacus round-trip on every core of n <= 40", roundtrip)
    _run_check(checks, "filter, abacus, and series counts agree for n <= 60", counts_match)
    _run_check(checks, "column swaps strictly grow size (500 random)", swaps_grow)
    _run_check(checks, "bead-jump witnesses name a multiple of ell (500 random)", jumps_name_multiples)
    _run_check(checks, "extremal abacus realizes the regular-core bound", extremal_bound)
    _run_check(checks, "no 3-regular 3-core in (10, 200]", no_regular_core_above)


_SUITES = {
    "constants": _suite_constants,
    "closed-forms": _suite_closed_forms,
    "theorem2": _suite_theorem2,
    "lemma1": _suite_lemma1,
    "orthogonality": _suite_orthogonality,
    "abacus": _suite_abacus,
}


def verify(suite: str) -> Report:
    """Run one named self-check suite and report per-check outcomes."""
    fn = _SUITES.get(suite)
    if fn is None:
        raise ValueError(
            f"unknown suite {suite!r}; available: {', '.join(sorted(_SUITES))}"
        )
    checks: list[Check] = []
    t0 = time.perf_counter()
    fn(checks)
    return Report(suite, checks, time.perf_counter() - t0)


def available_suites() -> tuple[str, ...]:
    return tuple(sorted(_SUITES))
