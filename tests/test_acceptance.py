"""Acceptance gate: one test per criterion, each emitting one line.

Suite-backed criteria reuse the session-scoped verify() reports, so the
heavy scans run once; the report's own wall time is what is held against
the budget.
"""

import time
from fractions import Fraction

from corz.abacus import (
    count_cores,
    enumerate_cores,
    max_regular_core,
    n_ell,
)
from corz.numtheory import core_lower_bound_ok, core_main_term
from corz.partitions import count_p, is_regular
from corz.census import z_lower_bound


def _conclude(num, name, ok, seconds, budget):
    verdict = "PASS" if ok and seconds < budget else "FAIL"
    print(f"criterion {num:2d} {verdict} ({seconds:.1f}s / budget {budget:.0f}s): {name}")
    assert ok, f"criterion {num} failed: {name}"
    assert seconds < budget, f"criterion {num} overran: {seconds:.1f}s >= {budget}s"


def _suite_checks(report, *fragments):
    picked = [c for c in report.checks for f in fragments if f in c.name]
    assert len(picked) >= len(fragments), (fragments, [c.name for c in report.checks])
    return all(c.passed for c in picked), sum(c.seconds for c in picked)


def test_criterion_01_alpha_constants(suite_report):
    rep = suite_report("constants")
    _conclude(1, "inv_alpha exact values 1, 8, 1275, 33463 with dual-route agreement",
              rep.passed, rep.seconds, 10)


def test_criterion_02_five_core_divisor_identity(suite_report):
    rep = suite_report("closed-forms")
    ok, seconds = _suite_checks(rep, "five-core")
    _conclude(2, "count_cores(n,5) equals sigma_twisted(n+1,5) for n <= 300",
              ok, seconds, 10)


def test_criterion_03_two_and_three_core_closed_forms(suite_report):
    rep = suite_report("closed-forms")
    ok, seconds = _suite_checks(rep, "two-core", "three-core")
    _conclude(3, "c2_closed and c3_closed match the series for n <= 500",
              ok, seconds, 10)


def test_criterion_04_regular_core_vanishing_bound():
    t0 = time.perf_counter()
    ok = n_ell(3) == 16
    ok = ok and max_regular_core(3) == 10
    for n in range(11, 201):
        for lam in enumerate_cores(n, 3):
            ok = ok and not is_regular(lam, 3)
    _conclude(4, "n_ell(3)=16, largest 3-regular 3-core is 10, none in (10, 200]",
              ok, time.perf_counter() - t0, 60)


def test_criterion_05_core_pairs_vanish_in_window(suite_report):
    rep = suite_report("theorem2")
    _conclude(5, "all 3-core pairs vanish and star census is c_3(n)^2 on (16, 60]",
              rep.passed, rep.seconds, 300)


def test_criterion_06_zero_bound_dominance(suite_report):
    rep = suite_report("lemma1")
    _conclude(6, "z_exact >= z_lower for n <= 14 and core rows vanish on "
                 "non-regular columns for n <= 12",
              rep.passed, rep.seconds, 300)


def test_criterion_07_character_oracles(suite_report):
    rep = suite_report("orthogonality")
    _conclude(7, "column orthogonality n <= 10, hook dimensions n <= 12, "
                 "trivial and sign rows n <= 10",
              rep.passed, rep.seconds, 300)


def test_criterion_08_abacus_suite(suite_report):
    rep = suite_report("abacus")
    _conclude(8, "roundtrips n <= 40, counts n <= 60, 500 swap and 500 "
                 "bead-jump instances",
              rep.passed, rep.seconds, 120)


def test_criterion_09_asymptotic_trends():
    t0 = time.perf_counter()

    def core_ratio(n, ell):
        return count_cores(n, ell) / core_main_term(n, ell)

    def lower_ratio(n, ell):
        return z_lower_bound(n, ell) / (core_main_term(n, ell) * count_p(n))

    # |c_11/main - 1| is 6.9e-3 at n = 50 and 7.0e-6 at n = 400
    ok = abs(core_ratio(400, 11) - 1) < abs(core_ratio(50, 11) - 1)
    # z_lower/main at ell = 5 rises from 0.609 to 0.981
    ok = ok and lower_ratio(50, 5) < lower_ratio(400, 5)
    for n in range(100, 501):
        ok = ok and Fraction(1, 2) <= lower_ratio(n, 5) <= 2
    _conclude(9, "exact core and lower-bound ratios to the main term approach 1 "
                 "from n=50 to n=400; main-term ratio in [0.5, 2] on [100, 500]",
              ok, time.perf_counter() - t0, 60)


def test_criterion_10_positivity_and_lower_bound():
    t0 = time.perf_counter()
    ok = all(
        count_cores(n, t) > 0 for t in range(4, 10) for n in range(501)
    )
    ok = ok and all(core_lower_bound_ok(n, 11) for n in range(100, 1001))
    _conclude(10, "count_cores(n,t) > 0 for t in 4..9, n <= 500; exact "
                  "lower-bound inequality at ell=11 on [100, 1000]",
              ok, time.perf_counter() - t0, 30)
