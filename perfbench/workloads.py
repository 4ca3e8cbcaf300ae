"""Workload definitions, per-seed invocation plans and reference checks.

A workload is a list of `corz` command lines, each run through
`corz.cli.main(argv)` in one fresh interpreter.  The seed chooses how the
grid is split into command lines and in which order moduli, suites and
primes are given; it never changes the grid itself.  Every cell of a census
grid costs a very different amount, so a seed that picked cells would make
the timings depend on the seed rather than on the code.  Because the grid is
fixed, one stored reference covers every seed.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

# Every prime 5 <= ell <= 97; inv_alpha is defined for primes >= 5.
INV_ALPHA_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                    61, 67, 71, 73, 79, 83, 89, 97)

VERIFY_SUITES = ("abacus", "closed-forms", "constants", "lemma1",
                 "orthogonality", "theorem2")


@dataclass(frozen=True)
class CensusGrid:
    """One census sweep: n_min..n_max for every modulus in ells."""

    ells: tuple[int, ...]
    n_min: int
    n_max: int
    flags: tuple[str, ...] = ()

    def argv(self, n_min: int, n_max: int, ells: list[int]) -> list[str]:
        return ["census", "--ell", ",".join(map(str, ells)),
                "--n-min", str(n_min), "--n-max", str(n_max), *self.flags]

    def full_argv(self) -> list[str]:
        return self.argv(self.n_min, self.n_max, list(self.ells))


@dataclass(frozen=True)
class Workload:
    name: str
    grid: CensusGrid | None = None
    # census cache: "fresh" (empty per run), "filled" (copy of a cache the
    # code under test filled once per invocation), or None (no cache)
    cache: str | None = None
    fill: tuple[str, ...] = ()
    verify: bool = False
    inv_alpha: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "star-window",
            grid=CensusGrid((5, 7), 26, 29),
            cache="fresh",
        ),
        Workload(
            "full-table",
            grid=CensusGrid((3, 5, 7), 10, 14, ("--z-all",)),
            cache="fresh",
        ),
        Workload(
            "verify-all",
            verify=True,
        ),
        Workload(
            "series-wide",
            grid=CensusGrid((2, 3, 5, 7), 0, 1150,
                            ("--cap-exact", "12", "--cap-star", "26")),
            cache="filled",
            fill=("census", "--ell", "2,3,5,7", "--n-min", "0", "--n-max", "26",
                  "--cap-exact", "12", "--cap-star", "26"),
            inv_alpha=True,
        ),
    )
}


@dataclass
class Call:
    """One `corz` command line and the reference ops it must produce."""

    kind: str  # "census", "verify" or "inv-alpha"
    argv: list[str]
    cells: list[tuple[int, int]] = field(default_factory=list)  # census (n, ell)
    suite: str = ""
    ell: int = 0


def plan(work: Workload, seed: int) -> list[Call]:
    """The command lines of one run of `work` for this seed."""
    rng = random.Random(f"{work.name}:{seed}")
    calls: list[Call] = []
    if work.grid is not None:
        g = work.grid
        # ascending chunks keep the in-process series caches growing in the
        # same order for every seed, so every seed does the same work
        chunks = rng.randint(1, min(3, g.n_max - g.n_min + 1))
        cuts = sorted(rng.sample(range(g.n_min + 1, g.n_max + 1), chunks - 1))
        bounds = [g.n_min, *cuts, g.n_max + 1]
        for lo, hi in zip(bounds, bounds[1:]):
            ells = list(g.ells)
            rng.shuffle(ells)
            cells = [(n, ell) for n in range(lo, hi) for ell in sorted(ells)]
            calls.append(Call("census", g.argv(lo, hi - 1, ells), cells))
    if work.verify:
        suites = list(VERIFY_SUITES)
        rng.shuffle(suites)
        calls += [Call("verify", ["verify", s, "--format", "json"], suite=s) for s in suites]
    if work.inv_alpha:
        primes = list(INV_ALPHA_PRIMES)
        rng.shuffle(primes)
        calls += [Call("inv-alpha", ["count", "inv-alpha", str(p)], ell=p) for p in primes]
    return calls


# ---------------------------------------------------------------------------
# references


@dataclass
class References:
    census_header: dict[str, str]
    census_rows: dict[str, dict[tuple[int, int], str]]
    verify: dict[str, dict]
    inv_alpha: dict[int, int]


def census_ref_path(work: Workload, root: Path = REFS) -> Path:
    return root / f"census-{work.name}.csv"


def parse_census(text: str) -> tuple[str, dict[tuple[int, int], list[str]]]:
    """Header line and data lines keyed by (n, ell); a key may repeat, and
    lines that do not start with two integers share the key (-1, -1)."""
    lines = text.splitlines()
    rows: dict[tuple[int, int], list[str]] = {}
    for line in lines[1:]:
        try:
            n, ell = (int(v) for v in line.split(",", 2)[:2])
        except ValueError:
            n = ell = -1
        rows.setdefault((n, ell), []).append(line)
    return (lines[0] if lines else ""), rows


def strip_verify(reports: list[dict]) -> dict[str, dict]:
    """Verify JSON reports keyed by suite, with every timing removed."""
    return {
        r["suite"]: {
            "passed": r["passed"],
            "checks": [{k: c[k] for k in ("name", "passed", "detail")} for c in r["checks"]],
        }
        for r in reports
    }


def load_references(root: Path = REFS) -> References:
    headers, rows = {}, {}
    for work in WORKLOADS.values():
        if work.grid is None:
            continue
        text = census_ref_path(work, root).read_text(encoding="utf-8")
        header, keyed = parse_census(text)
        headers[work.name] = header
        rows[work.name] = {k: v[0] for k, v in keyed.items()}
    verify = json.loads((root / "verify.json").read_text(encoding="utf-8"))
    inv = json.loads((root / "inv_alpha.json").read_text(encoding="utf-8"))
    return References(headers, rows, verify, {int(k): int(v) for k, v in inv.items()})


@dataclass
class Outcome:
    """Ops of one command line: attempted, failed, and wrong (a produced
    value that differs from the reference)."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.problems += other.problems


def check(work: Workload, call: Call, rc: int, out: str, refs: References) -> Outcome:
    """Compare one command line's exit code and stdout with the references.

    An op that raised or is missing counts as failed; one that produced a
    value different from the reference counts as failed and wrong.
    """
    res = Outcome()
    if call.kind == "census":
        header, rows = parse_census(out)
        want = refs.census_rows[work.name]
        if out and header != refs.census_header[work.name]:
            res.wrong += 1
            res.problems.append(f"census header differs: {header!r}")
        for cell in call.cells:
            res.attempted += 1
            got = rows.pop(cell, [])
            if not got:
                res.failed += 1
                res.problems.append(f"census line {cell} missing (exit {rc})")
            elif got != [want[cell]]:
                res.failed += 1
                res.wrong += 1
                res.problems.append(f"census line {cell} differs: {got}")
        if rows:
            res.wrong += 1
            res.problems.append(f"unexpected census lines {sorted(rows)}")
    elif call.kind == "verify":
        want = refs.verify[call.suite]["checks"]
        try:
            got = strip_verify(json.loads(out)).get(call.suite, {}).get("checks", [])
        except (ValueError, KeyError, TypeError):
            got = []
        by_name = {c["name"]: c for c in got}
        for ref in want:
            res.attempted += 1
            c = by_name.get(ref["name"])
            if c is None:
                res.failed += 1
                res.problems.append(f"verify {call.suite}: {ref['name']!r} missing (exit {rc})")
            elif c != ref:
                res.failed += 1
                res.wrong += 1
                res.problems.append(f"verify {call.suite}: {c} differs from {ref}")
    elif call.kind == "inv-alpha":
        res.attempted = 1
        want_value = str(refs.inv_alpha[call.ell])
        if rc != 0 or not out.strip():
            res.failed = 1
            res.problems.append(f"inv-alpha {call.ell} raised (exit {rc})")
        elif out.strip() != want_value:
            res.failed = res.wrong = 1
            res.problems.append(f"inv-alpha {call.ell} = {out.strip()}, want {want_value}")
    else:
        raise ValueError(f"unknown call kind {call.kind!r}")
    return res


def pairs_evaluated(call: Call, out: str, cached: set[tuple[int, int]]) -> int:
    """Row x column pairs the census counted for this call's records.

    A record whose cache file existed before the run was read, not counted.
    Otherwise each exhaustive column present in its CSV line counted
    c_ell(n) * p(n) (z_exact), c_ell(n)^2 (z_star_exact) or p(n)^2 (z_all)
    pairs.
    """
    if call.kind != "census" or not out:
        return 0
    total = 0
    for row in csv.DictReader(io.StringIO(out)):
        try:
            if (int(row["n"]), int(row["ell"])) in cached:
                continue
            p, c = int(row["p_n"]), int(row["c_ell_n"])
        except (KeyError, TypeError, ValueError):  # a malformed line is checked elsewhere
            continue
        if row.get("z_exact"):
            total += c * p
        if row.get("z_star_exact"):
            total += c * c
        if row.get("z_all"):
            total += p * p
    return total
