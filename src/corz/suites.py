"""Self-check suites: the paper's constants, closed forms, Lemma 1 and
Theorem 2, character-table identities and the abacus, checked on small cases.

`_SUITES` maps each suite to its (check name, check body) pairs; a body
raises on failure.  `verify` runs one suite's checks in table order.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import asdict, dataclass, field
from functools import partial

from .abacus import (
    Abacus,
    _witness_free_abaci,
    abacus_size,
    bead_jump_witness,
    enumerate_cores,
    extremal_abacus,
    from_abacus,
    max_regular_core,
    n_ell,
    swap_columns,
    to_abacus,
)
from .census import _require, z_exact, z_lower_bound, z_star_closed, z_star_exact
from .characters import ColumnEvaluator, centralizer_order, dimension, mn_character
from .numtheory import c2_closed, c3_closed, inv_alpha, sigma_twisted
from .partitions import (
    Partition,
    count_cores,
    enumerate_partitions,
    is_regular,
    strip_ends,
)

_SMALL_ELLS = (2, 3, 5, 7)


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
            "checks": [{**asdict(c), "seconds": round(c.seconds, 3)} for c in self.checks],
        }


def _inv_alpha_is(ell: int, want: int) -> None:
    got = inv_alpha(ell)
    _require(got == want, f"inv_alpha({ell}) = {got}, expected {want}")


def _closed_form_matches(closed: Callable[[int], int], ell: int, upto: int) -> None:
    for n in range(upto + 1):
        _require(closed(n) == count_cores(n, ell), f"n={n}")


def _rows_vanish(rows: Sequence[Partition], columns: Iterable[Partition]) -> None:
    # plain MN on every pair, no hook prefilter, so it checks the census zero
    # loop independently
    for mu in columns:
        col = ColumnEvaluator(mu)
        for lam in rows:
            v = col.value(lam)
            _require(v == 0, f"chi_{lam.parts}{mu.parts} = {v}")


def _core_pairs_vanish(ell: int, upto: int) -> None:
    for n in range(n_ell(ell) + 1, upto + 1):
        cores = list(enumerate_cores(n, ell))
        _rows_vanish(cores, cores)


def _star_is_square(ell: int, upto: int) -> None:
    for n in range(n_ell(ell) + 1, upto + 1):
        got = z_star_exact(n, ell)
        want = z_star_closed(n, ell)
        _require(got == want, f"n={n}: {got} != {want}")


def _exact_dominates() -> None:
    for ell in _SMALL_ELLS:
        for n in range(15):
            ze = z_exact(n, ell)
            zl = z_lower_bound(n, ell)
            _require(ze >= zl, f"n={n} ell={ell}: {ze} < {zl}")


def _core_rows_vanish() -> None:
    for ell in _SMALL_ELLS:
        for n in range(13):
            cores = list(enumerate_cores(n, ell))
            if cores:
                off_regular = (mu for mu in enumerate_partitions(n) if not is_regular(mu, ell))
                _rows_vanish(cores, off_regular)


def _column_norms() -> None:
    for n in range(11):
        lams = list(enumerate_partitions(n))
        for mu in lams:
            col = ColumnEvaluator(mu)
            total = sum(col.value(lam) ** 2 for lam in lams)
            want = centralizer_order(mu)
            _require(total == want, f"mu={mu.parts}: {total} != {want}")


def _identity_column() -> None:
    for n in range(13):
        col = ColumnEvaluator([1] * n)
        for lam in enumerate_partitions(n):
            v = col.value(lam)
            want = dimension(lam)
            _require(v == want, f"lam={lam.parts}: {v} != {want}")


def _closed_rows() -> None:
    for n in range(11):
        for mu in enumerate_partitions(n):
            _require(mn_character((n,) if n else (), mu) == 1, f"mu={mu.parts}")
            sign = -1 if (n - len(mu.parts)) % 2 else 1
            got = mn_character([1] * n, mu)
            _require(got == sign, f"mu={mu.parts}: {got} != {sign}")


def _count_cores_filter_pass(upto: int, ells: Sequence[int]) -> dict[int, list[int]]:
    # counts[ell][n], the ell-cores of each n <= upto, by the definition of a
    # core over one depth-first walk of the partitions, built from the
    # smallest part up.  Parts l_1 >= ... >= l_r have beads at l_i + r - i,
    # so a new largest part p on r parts adds one bead at p + r and moves no
    # other.  A new first row keeps every hook of the rows below it, so no
    # partition above a non-core in the walk is a core: a branch ends where
    # no modulus still finds a core.
    counts = {ell: [0] * (upto + 1) for ell in ells}
    # beta-set mask, size, number of parts, least next part, moduli with a core
    stack = [(0, 0, 0, 1, tuple(ells))]
    while stack:
        mask, size, r, low, live = stack.pop()
        for ell in live:
            counts[ell][size] += 1
        for p in range(low, upto - size + 1):
            child = mask | 1 << (p + r)
            keep = tuple([ell for ell in live if not strip_ends(child, ell)])
            if keep:
                stack.append((child, size + p, r + 1, p, keep))
    return counts


def _random_canonical_abacus(rng: random.Random) -> Abacus:
    ell = rng.choice((3, 5, 7, 11))
    cols = (0,) + tuple(rng.randrange(0, 8) for _ in range(ell - 1))
    return Abacus(ell, cols)


def _roundtrip() -> None:
    for ell in _SMALL_ELLS:
        for n in range(41):
            for lam in enumerate_cores(n, ell):
                back = from_abacus(to_abacus(lam, ell))
                _require(back == lam, f"ell={ell}: {lam.parts} -> {back.parts}")


def _counts_match() -> None:
    filtered = _count_cores_filter_pass(60, _SMALL_ELLS)
    for n in range(61):
        for ell in _SMALL_ELLS:
            via_abacus = sum(1 for _ in enumerate_cores(n, ell))
            series = count_cores(n, ell)
            _require(filtered[ell][n] == series, f"filter n={n} ell={ell}")
            _require(via_abacus == series, f"abacus n={n} ell={ell}")


def _swaps_grow() -> None:
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


def _jumps_name_multiples() -> None:
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


def _extremal_bound() -> None:
    _require(n_ell(3) == 16, n_ell(3))
    for ell in _SMALL_ELLS:
        ab = extremal_abacus(ell)
        lam = from_abacus(ab)
        _require(abacus_size(ab) == n_ell(ell) == lam.n, f"ell={ell}")
        _require(ab.beads() == ell * (ell - 1) ** 2 // 2, f"ell={ell}")
        # witness-free: the defining property of the maximizer
        _require(bead_jump_witness(ab) is None, f"ell={ell}")
        _require(to_abacus(lam, ell) == ab, f"ell={ell}")
    # over the whole finite walk, no witness-free abacus beats the bound
    for ell in (2, 3, 5):
        best = max(abacus_size(ab) for ab in _witness_free_abaci(ell))
        _require(best == n_ell(ell), f"ell={ell}: {best}")


def _no_regular_core_above() -> None:
    best = max_regular_core(3)
    _require(best == 10, f"largest 3-regular 3-core at n={best}, expected 10")


_SUITES: dict[str, list[tuple[str, Callable[[], None]]]] = {
    "constants": [
        (f"inv_alpha({ell}) dual-route value {want}", partial(_inv_alpha_is, ell, want))
        for ell, want in ((5, 1), (7, 8), (11, 1275), (13, 33463))
    ],
    "closed-forms": [
        ("two-core indicator matches series for n <= 500",
         partial(_closed_form_matches, c2_closed, 2, 500)),
        ("three-core divisor sum matches series for n <= 500",
         partial(_closed_form_matches, c3_closed, 3, 500)),
        ("five-core twisted divisor sum matches series for n <= 300",
         partial(_closed_form_matches, lambda n: sigma_twisted(n + 1, 5), 5, 300)),
    ],
    "theorem2": [
        ("every ordered 3-core pair vanishes on (16, 60]", partial(_core_pairs_vanish, 3, 60)),
        ("star census equals squared core count on (16, 60]", partial(_star_is_square, 3, 60)),
    ],
    "lemma1": [
        ("exhaustive zeros dominate the lower bound for n <= 14", _exact_dominates),
        ("core rows vanish on non-regular columns for n <= 12", _core_rows_vanish),
    ],
    "orthogonality": [
        ("column norms equal centralizer orders for n <= 10", _column_norms),
        ("identity column equals hook-length dimension for n <= 12", _identity_column),
        ("trivial and sign rows match closed forms for n <= 10", _closed_rows),
    ],
    "abacus": [
        ("abacus round-trip on every core of n <= 40", _roundtrip),
        ("filter, abacus, and series counts agree for n <= 60", _counts_match),
        ("column swaps strictly grow size (500 random)", _swaps_grow),
        ("bead-jump witnesses name a multiple of ell (500 random)", _jumps_name_multiples),
        ("extremal abacus realizes the regular-core bound", _extremal_bound),
        ("no 3-regular 3-core in (10, 200]", _no_regular_core_above),
    ],
}


def verify(suite: str) -> Report:
    """Run one named self-check suite and report per-check outcomes."""
    table = _SUITES.get(suite)
    if table is None:
        raise ValueError(
            f"unknown suite {suite!r}; available: {', '.join(sorted(_SUITES))}"
        )
    checks: list[Check] = []
    t0 = time.perf_counter()
    for name, body in table:
        start = time.perf_counter()
        try:
            body()
            passed, detail = True, ""
        except AssertionError as exc:
            passed, detail = False, str(exc)
        except Exception as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append(Check(name, passed, detail, time.perf_counter() - start))
    return Report(suite, checks, time.perf_counter() - t0)


def available_suites() -> tuple[str, ...]:
    return tuple(sorted(_SUITES))
