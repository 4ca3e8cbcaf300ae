import concurrent.futures
import hashlib
import io
import json
import pickle
import random
from collections import Counter
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corz.abacus import count_cores, enumerate_cores, n_ell
from corz import census, characters, cli, partitions
from corz.census import (
    CSV_FIELDS,
    CensusConfig,
    CensusRecord,
    _load_cache,
    _store_cache,
    build_record,
    run_census,
    write_records,
    z_all_exact,
    z_exact,
    z_lower_bound,
    z_star_closed,
    z_star_exact,
)
from corz.characters import ColumnEvaluator, mn_character
from corz.numtheory import core_main_term, delta_ell, inv_alpha
from corz.suites import _count_cores_filter_pass, available_suites, verify
from corz.partitions import (
    Partition,
    beta_mask,
    canonical_mask,
    count_p,
    count_p_regular,
    enumerate_partitions,
    is_core,
    mask_parts,
    strip_ends,
)
from reference import conjugate, frobenius_character, regular_by_convolution, twisted_divisor_sums

REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs"


def brute_zeros(n, ell=None, rows_cores=False, cols_cores=False):
    """Zero count by direct MN evaluation with no shortcuts."""
    lams = [
        lam
        for lam in enumerate_partitions(n)
        if not rows_cores or is_core(lam, ell)
    ]
    mus = [
        mu
        for mu in enumerate_partitions(n)
        if not cols_cores or is_core(mu, ell)
    ]
    return sum(1 for lam in lams for mu in mus if mn_character(lam, mu) == 0)


def census_text(fmt="csv", **config):
    """A sweep rendered the way `corz census` prints it."""
    buf = io.StringIO()
    write_records(run_census(CensusConfig(**config)), fmt, buf)
    return buf.getvalue()


def test_z_lower_bound_examples():
    assert z_lower_bound(6, 5) == 6
    assert z_lower_bound(4, 2) == 0
    assert z_lower_bound(3, 7) == 0  # every partition of 3 is 7-regular


def test_z_exact_small_cases():
    assert z_exact(1, 2) == 0
    assert z_exact(3, 2) == 1


def test_z_exact_matches_brute_force():
    for ell in (2, 3, 5):
        for n in range(10):
            assert z_exact(n, ell) == brute_zeros(n, ell, rows_cores=True), (n, ell)


def test_z_star_exact_matches_brute_force():
    for ell in (2, 3, 5):
        for n in range(10):
            want = brute_zeros(n, ell, rows_cores=True, cols_cores=True)
            assert z_star_exact(n, ell) == want, (n, ell)


def test_z_all_exact_matches_brute_force():
    for n in range(9):
        assert z_all_exact(n) == brute_zeros(n), n


def naive_count_zeros(rows, columns):
    """Zeros per column by MN on every row, one row at a time: no prefilter
    and no conjugate orbits."""
    out = []
    for mu in columns:
        col = ColumnEvaluator(mu)
        out.append(sum(1 for lam in rows if col.value(lam) == 0))
    return out


def test_count_zeros_matches_naive_loop():
    for n in range(13):
        lams = list(enumerate_partitions(n))
        # one row of each conjugate pair: rows not closed under conjugation
        halves = [lam for lam in lams if lam.parts >= conjugate(lam).parts]
        row_sets = [lams, halves, lams[::-1]]
        row_sets += [list(enumerate_cores(n, ell)) for ell in (2, 3, 5, 7)]
        for rows in row_sets:
            want = naive_count_zeros(rows, lams)
            assert characters._count_zeros(rows, lams)[0] == sum(want), (n, [lam.parts for lam in rows])
            got = [characters._count_zeros(rows, [mu])[0] for mu in lams]
            assert got == want, (n, [lam.parts for lam in rows])


@given(st.integers(min_value=0, max_value=12), st.data())
@settings(max_examples=150, deadline=None)
def test_count_zeros_matches_naive_loop_on_row_subsets(n, data):
    lams = list(enumerate_partitions(n))
    rows = data.draw(st.lists(st.sampled_from(lams), unique=True))
    columns = data.draw(st.lists(st.sampled_from(lams)))
    want = naive_count_zeros(rows, columns)
    # the square block: the drawn columns that are among the rows, repeats included
    square = sum(z for mu, z in zip(columns, want) if mu in rows)
    assert characters._count_zeros(rows, columns) == (sum(want), square)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_count_zeros_sequence_matches_naive_loop(data):
    # no call leaves state for the next: n switches back and forth, row sets
    # are arbitrary (mostly not closed under conjugation) and columns repeat,
    # within a call and across calls
    for n in data.draw(st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=8)):
        lams = list(enumerate_partitions(n))
        rows = data.draw(st.lists(st.sampled_from(lams), unique=True))
        columns = data.draw(st.lists(st.sampled_from(lams), max_size=2 * len(lams)))
        got = characters._count_zeros(rows, columns)[0]
        assert got == sum(naive_count_zeros(rows, columns)), (n, [lam.parts for lam in rows])


def test_count_zeros_matches_naive_loop_on_columns_sharing_their_largest_part():
    # the top strips of each row are kept per largest part for one call: rows
    # of mixed lengths meet columns that share their largest part, alone or
    # next to those of another largest part, and the next calls on other rows
    # of the same n start from nothing kept
    n = 14
    lams = list(enumerate_partitions(n))
    rows = [lam for lam in lams if len(lam.parts) in (2, 5, 9)]
    others = [lam for lam in lams if len(lam.parts) in (1, 3, 4, 7)]
    for firsts in ((3,), (5,), (14,), (3, 5), (1, 7)):
        columns = [mu for mu in lams if mu.parts[0] in firsts]
        for group in (rows, others, rows[::2] + others[1::2]):
            got = characters._count_zeros(group, columns)[0]
            assert got == sum(naive_count_zeros(group, columns)), firsts


def counted_values(monkeypatch):
    """Patch ColumnEvaluator._zeros, which the zero loop calls once per column
    with the rows that MN decides there, to log (column, mask) per row."""
    seen = []
    zeros = ColumnEvaluator._zeros

    def logged(self, rows):
        rows = list(rows)
        seen.extend((self.parts, mask) for mask, _ in rows)
        return zeros(self, rows)

    monkeypatch.setattr(ColumnEvaluator, "_zeros", logged)
    return seen


@pytest.fixture
def counted_evals():
    """Log the level of each call of the memo recursion that every
    ColumnEvaluator binds (_fill), which fills a memo level, by a profile
    hook on its code object."""
    evals = []
    code = ColumnEvaluator(())._fill.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            evals.append(frame.f_locals["s"])

    previous = sys.getprofile()
    sys.setprofile(profile)
    yield evals
    sys.setprofile(previous)


def test_census_decides_each_pair_once(monkeypatch):
    # z_all runs first and its kernel decides every pair of n = 12; z_exact
    # and z_star of the three moduli then read their blocks from the whole
    # table, and no column needs MN
    want = [build_record(12, ell) for ell in (3, 5, 7)]
    seen = counted_values(monkeypatch)
    characters._whole_table.cache_clear()
    records = run_census(CensusConfig(n_min=12, n_max=12, ells=(3, 5, 7), with_z_all=True))
    assert seen == []
    # the control: without z_all, the same record runs MN under the same patch
    build_record(12, 7)
    assert seen
    assert [r.z_all for r in records] == [2230] * 3
    for rec, plain in zip(records, want):
        assert rec._replace(z_all=None) == plain


# n = 16 has 118 orbits: two groups of 64 in the table
@pytest.mark.parametrize("n", [10, 12, 16])
def test_whole_table_verdicts_match_the_zero_loop(n):
    lams = list(enumerate_partitions(n))
    characters._whole_table.cache_clear()
    table = characters._whole_table(n)
    assert table.count == characters._count_zeros(lams, lams)[0] == z_all_exact(n, cap=n)
    assert sorted(table.bits.values()) == [1 << j for j in range(len(table.bits))]
    assert list(table.zeros) == [mu.parts for mu in lams]
    # per orbit, the columns where its bit is set are those where the zero
    # loop finds its row vanishing
    for key, bit in table.bits.items():
        row = Partition(mask_parts(key))
        want = [characters._count_zeros([row], [mu])[0] for mu in lams]
        assert [int(bool(table.zeros[mu.parts] & bit)) for mu in lams] == want, row.parts
    assert characters._table_zeros(n, lams) == (table.count, table.count)
    for ell in (2, 3, 5, 7):
        cores = list(enumerate_cores(n, ell))
        # every column, and the core block
        assert characters._table_zeros(n, cores) == characters._count_zeros(cores, lams), ell


def test_count_zeros_matches_naive_loop_on_shuffled_columns_of_16():
    # MN visits the columns by their reversed parts whatever order they come
    # in, and sharing memo levels between them changes no count
    lams = list(enumerate_partitions(16))
    rng = random.Random(16)
    for ell in (2, 3, 5, 7):
        cores = list(enumerate_cores(16, ell))
        columns = lams[:]
        rng.shuffle(columns)
        assert characters._count_zeros(cores, columns)[0] == sum(naive_count_zeros(cores, columns)), ell


def test_census_leaves_zero_counting_to_characters():
    # census asks characters for counts: it holds no evaluator, no lane
    # helper of the whole-table kernel and no beta-set mask of its own
    held = set(vars(census))
    assert "_count_zeros" in held and "_table_zeros" in held
    assert not held & {
        "ColumnEvaluator",
        "_lane_width",
        "_lane_ones",
        "_zero_lanes",
        "_truncate",
        "_row_vectors",
        "_orbits",
        "_WholeTable",
        "struct",
        "beta_mask",
        "conjugate_mask",
        "hook_mask",
        "_iter_partition_buffers",
    }


def test_cli_takes_its_series_from_census():
    # asymptotics forms its series through census._sweep_series, as a census
    # does, so the CLI holds none of the series routines behind it
    assert not set(vars(cli)) & {"_core_tables", "_regular_window", "_main_sigmas"}


def test_record_star_is_the_core_columns_share_of_z_exact():
    # build_record takes Z* as the core-column block of its Z pass, from the
    # zero loop or from the whole table; z_star_exact runs the zero loop on
    # cores x cores
    for n in range(19):
        for ell in (2, 3, 5, 7, 11):
            want = z_star_exact(n, ell)
            assert build_record(n, ell).z_star_exact == want, (n, ell)
            assert build_record(n, ell, with_z_all=True).z_star_exact == want, (n, ell)


@pytest.mark.parametrize("n, ell", [(14, 3), (16, 5), (18, 7)])
def test_record_star_adds_no_mn(monkeypatch, counted_evals, n, ell):
    # a record takes Z* from its Z pass, so it makes the values and the
    # memo-level evaluations of z_exact alone, and no more
    seen = counted_values(monkeypatch)
    evals = counted_evals
    # both start on an empty store of suffix levels, or the second would
    # read what the first left there
    characters._SUFFIX_LEVELS.clear()
    z_exact(n, ell)
    alone, alone_evals = len(seen), len(evals)
    seen.clear()
    evals.clear()
    characters._SUFFIX_LEVELS.clear()
    rec = build_record(n, ell)
    assert alone and len(seen) == alone
    assert alone_evals and len(evals) == alone_evals
    assert rec.z_star_exact is not None


def test_suffix_store_stays_within_its_bound():
    # after a Z pass at (24, 5), a star sweep and a column given out of
    # order, every key of the store is a partition of at most SUFFIX_MAX,
    # each level holds rows of its size, at most p(|sigma|) of them, and the
    # total is within the stated bound
    z_exact(24, 5, cap=24)
    for n in range(20, 29):
        for ell in (5, 7, 11):
            z_star_exact(n, ell)
    # parts out of order leave no level under an unordered key
    ColumnEvaluator((1, 3, 1, 2, 1)).value((4, 3, 1))
    store = characters._SUFFIX_LEVELS
    assert store
    for sigma, level in store.items():
        m = sum(sigma)
        assert 0 < m <= characters.SUFFIX_MAX, sigma
        assert list(sigma) == sorted(sigma, reverse=True), sigma
        assert len(level) <= count_p(m), sigma
        for mask in level:
            assert mask == canonical_mask(mask) and sum(mask_parts(mask)) == m, (sigma, mask)
    bound = sum(count_p(m) ** 2 for m in range(characters.SUFFIX_MAX + 1))
    assert sum(map(len, store.values())) <= bound


def test_chunked_star_census_reuses_suffix_levels(counted_evals):
    # two census calls in one process, n = 26, 27 then 28, 29: the second
    # reads the suffix levels the first left, makes fewer memo-level
    # evaluations than on an empty store, and both give the reference rows
    evals = counted_evals
    first = CensusConfig(n_min=26, n_max=27, ells=(5, 7))
    second = first._replace(n_min=28, n_max=29)
    records = run_census(first)
    evals.clear()
    records += run_census(second)
    warm = len(evals)
    want = (REFS / "census-star-window.csv").read_text().splitlines()[1:]
    assert [rec.csv_row() for rec in records] == want
    characters._SUFFIX_LEVELS.clear()
    evals.clear()
    assert run_census(second) == records[4:]
    assert 0 < warm < len(evals)


def test_star_window_census_work_is_pinned(monkeypatch, counted_evals):
    # the eight star cells, n = 26..29 at ell = 5 and 7, from an empty store
    # of suffix levels: MN decides 19 035 pairs, one row of each open
    # conjugate orbit per column, and fills 43 313 memo-level entries
    seen = counted_values(monkeypatch)
    records = run_census(CensusConfig(n_min=26, n_max=29, ells=(5, 7)))
    want = (REFS / "census-star-window.csv").read_text().splitlines()[1:]
    assert [rec.csv_row() for rec in records] == want
    assert len(seen) == 19035
    assert len(counted_evals) == 43313


def test_chunked_full_table_census_shares_small_rows():
    # two --z-all census calls in one process, n = 10, 11 then 12..14: the
    # second reads the small rows the first left in the store, and both give
    # the reference rows
    first = CensusConfig(n_min=10, n_max=11, ells=(3, 5, 7), with_z_all=True)
    records = run_census(first)
    assert characters._SMALL_ROWS
    records += run_census(first._replace(n_min=12, n_max=14))
    want = (REFS / "census-full-table.csv").read_text().splitlines()[1:]
    assert [rec.csv_row(with_z_all=True) for rec in records] == want


def test_cache_completion_fills_star_without_mn(monkeypatch, tmp_path):
    # a record cached with cap_star below n <= cap_exact caches Z*, the
    # core-column block of its Z pass, unreported; the default caps then
    # report it from the cache
    for ell in (3, 5):
        part = build_record(14, ell, cap_star=12, cache_dir=tmp_path / "part")
        assert part.z_star_exact is None
        seen = counted_values(monkeypatch)
        rec = build_record(14, ell, cache_dir=tmp_path / "part")
        assert seen == []
        # the control: without the cache, the same record runs MN under the same patch
        build_record(14, ell)
        assert seen
        monkeypatch.undo()
        fresh = build_record(14, ell, cache_dir=tmp_path / "fresh")
        assert rec == fresh and rec.z_star_exact == z_star_exact(14, ell)
        name = f"census-{ell}-14.json"
        assert (tmp_path / "part" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_core_counts_pinned_values():
    # z_exact cells through the shared-level loop, and one star cell
    assert z_exact(26, 7, cap=26) == 154395
    assert z_exact(24, 11, cap=24) == 350055
    assert z_star_exact(40, 7) == 34771


def test_z_all_pinned_values():
    # the whole table of S_n, up to n = 24
    got = [z_all_exact(n, cap=n) for n in (16, 18, 20, 22, 24)]
    assert got == [20615, 57980, 155176, 395473, 970294]


def test_count_zeros_evaluates_one_row_per_conjugate_pair(monkeypatch):
    calls = {}
    zeros = ColumnEvaluator._zeros

    def logged(self, rows):
        rows = list(rows)
        calls.setdefault(self.parts, []).extend(Partition(mask_parts(mask)) for mask, _ in rows)
        return zeros(self, rows)

    monkeypatch.setattr(ColumnEvaluator, "_zeros", logged)
    got = z_star_exact(26, 5)
    monkeypatch.undo()
    cores = list(enumerate_cores(26, 5))
    assert calls and got == sum(naive_count_zeros(cores, cores))
    for mu, rows in calls.items():
        assert len(set(rows)) == len(rows), mu
        for lam in rows:
            conj = conjugate(lam)
            assert conj == lam or conj not in rows, (mu, lam.parts)


def test_zero_counts_match_frobenius_oracle():
    # Frobenius' formula removes no border strip, so this checks MN, the
    # hook prefilter and the conjugate-orbit shortcut from outside
    for n in range(13):
        lams = list(enumerate_partitions(n))
        zero = {(lam, mu) for lam in lams for mu in lams if frobenius_character(lam, mu) == 0}
        assert z_all_exact(n) == len(zero), n
        for ell in (2, 3, 5, 7):
            cores = set(enumerate_cores(n, ell))
            assert z_exact(n, ell) == sum(1 for lam, _ in zero if lam in cores), (n, ell)
            star = sum(1 for lam, mu in zero if lam in cores and mu in cores)
            assert z_star_exact(n, ell) == star, (n, ell)


def test_z_exact_dominates_lower_bound():
    for ell in (2, 3, 5, 7):
        for n in range(15):
            assert z_exact(n, ell) >= z_lower_bound(n, ell)


def test_caps_raise_with_guidance():
    with pytest.raises(ValueError, match="exact census cap exceeded"):
        z_exact(19, 3)
    with pytest.raises(ValueError, match="cap"):
        z_star_exact(61, 3)
    with pytest.raises(ValueError, match="exact census cap exceeded"):
        z_all_exact(19)
    # a negative n is refused as such, before the kernel sizes its lanes
    with pytest.raises(ValueError, match="n must be nonnegative"):
        z_all_exact(-1)
    # raising the cap unlocks the computation
    assert z_exact(19, 3, cap=19) >= z_lower_bound(19, 3)


def test_z_star_exact_equals_closed_above_bound():
    for n in range(17, 41):
        assert z_star_exact(n, 3) == z_star_closed(n, 3)


def test_z_star_below_bound_can_fall_short():
    # at least one nonzero core-by-core entry exists below the bound
    short = [n for n in range(1, 17) if z_star_exact(n, 3) < count_cores(n, 3) ** 2]
    assert short, "expected some n <= 16 with a nonvanishing core pair"


def test_z_star_closed_boundary():
    with pytest.raises(ValueError, match="valid only above"):
        z_star_closed(16, 3)
    assert z_star_closed(17, 3) == count_cores(17, 3) ** 2
    assert z_star_closed(441, 5) == count_cores(441, 5) ** 2
    with pytest.raises(ValueError):
        z_star_closed(440, 5)
    assert z_star_closed(2, 2) == 0  # c_2(2) = 0
    # a str or float argument is a bad value, not a TypeError from a comparison
    for n, ell in ((500, "13"), ("500", 5), (500.0, 5), (500, 5.0)):
        with pytest.raises(ValueError, match="must be an integer|must be a nonnegative integer"):
            z_star_closed(n, ell)


def test_star_closed_form_is_for_prime_moduli_only():
    # above n_4 = 105 one of the 16 4-cores of 108 is 4-regular, and its
    # column is nonzero on every core row: Z*_4(108) = 240, not 16^2
    n, ell = 108, 4
    assert n > n_ell(ell) and count_cores(n, ell) == 16
    with pytest.raises(ValueError, match="prime"):
        z_star_closed(n, ell)
    assert z_star_exact(n, ell, cap=n) == 240
    assert build_record(n, ell).z_star_closed is None
    rec = build_record(n, ell, cap_star=120)
    assert (rec.z_star_exact, rec.z_star_closed) == (240, None)


def test_build_record_type_invariants():
    for ell in (2, 3, 5):
        for n in range(1, 15):
            rec = build_record(n, ell)
            assert rec.p_n == count_p(n)
            assert rec.p_ell_n == count_p_regular(n, ell)
            assert rec.c_ell_n == count_cores(n, ell)
            assert rec.z_lower == (rec.p_n - rec.p_ell_n) * rec.c_ell_n == z_lower_bound(n, ell)
            assert rec.z_exact is not None and rec.z_exact >= rec.z_lower
            assert rec.z_star_exact is not None
            if n > n_ell(ell):
                assert rec.z_star_closed == rec.c_ell_n ** 2 == z_star_closed(n, ell)
                assert rec.z_star_exact == rec.z_star_closed
            else:
                assert rec.z_star_closed is None
            if ell >= 5:
                assert rec.main_term_den is not None
                got = core_main_term(n, ell) * count_p(n)
                assert (rec.main_term_num, rec.main_term_den) == (
                    got.numerator,
                    got.denominator,
                )
            else:
                assert rec.main_term_num is None


def test_build_record_main_term_over_the_sweep_range():
    # the record forms the main term from integers; it must equal the public
    # rational core_main_term(n, ell) * p(n) in lowest terms
    for ell in (5, 7, 11, 13, 97):
        for n in range(0, 1201, 7):
            rec = build_record(n, ell, cap_exact=0, cap_star=0)
            want = core_main_term(n, ell) * count_p(n)
            assert (rec.main_term_num, rec.main_term_den) == (
                want.numerator,
                want.denominator,
            ), (n, ell)


def test_build_record_skips_expensive_fields_over_cap():
    rec = build_record(25, 3, cap_exact=10, cap_star=20)
    assert rec.z_exact is None
    assert rec.z_star_exact is None
    assert rec.z_star_closed == count_cores(25, 3) ** 2 == z_star_closed(25, 3)


def test_record_bound_and_closed_form_match_public_functions():
    # the record derives both from its own counts; above the caps too
    for ell in (2, 3, 5, 7):
        for n in range(0, 1151, 23):
            rec = build_record(n, ell, cap_exact=-1, cap_star=-1)
            assert rec.z_lower == z_lower_bound(n, ell), (n, ell)
            if n > n_ell(ell):
                assert rec.z_star_closed == z_star_closed(n, ell), (n, ell)
            else:
                assert rec.z_star_closed is None, (n, ell)


def test_census_fills_each_window_once(monkeypatch):
    # before any record, run_census takes the p_ell window of every modulus
    # and the sigma_ell window of every prime ell >= 5; no record runs either
    # routine again, and the records hold the reference values
    calls = Counter()
    for mod, name in ((census, "_regular_window"), (census, "_twisted_divisor_sums")):
        def counted(*args, fn=getattr(mod, name), name=name):
            calls[name, args[0]] += 1
            return fn(*args)

        monkeypatch.setattr(mod, name, counted)
    ells = (2, 4, 5, 7)
    records = run_census(CensusConfig(n_min=40, n_max=90, ells=ells, cap_exact=-1, cap_star=-1))
    want_calls = {("_regular_window", a): 1 for a in ells}
    want_calls.update({("_twisted_divisor_sums", ell): 1 for ell in (5, 7)})
    assert calls == want_calls
    regular = {a: regular_by_convolution(a, 90) for a in ells}
    sigma = {ell: twisted_divisor_sums(ell, (ell - 3) // 2, 92) for ell in (5, 7)}
    for rec in records:
        assert rec.p_ell_n == regular[rec.ell][rec.n], rec
        if rec.ell in sigma:
            num = sigma[rec.ell][rec.n + delta_ell(rec.ell)] * rec.p_n
            assert num * rec.main_term_den == rec.main_term_num * inv_alpha(rec.ell), rec


def test_run_census_checks_its_bounds(monkeypatch):
    # n_min is a nonnegative int and n_max an int, checked before any
    # series grows; a bool or float would sweep or index as a number
    cases = (({"n_min": -1}, "^n_min must be nonnegative$"),
             ({"n_min": True}, "^n_min must be a nonnegative integer, got True$"),
             ({"n_min": 2.0}, "^n_min must be a nonnegative integer, got 2.0$"),
             ({"n_max": 3.0}, "^n_max must be an integer, got 3.0$"))
    # jobs is an int >= 1 and each cap an int, checked before any series
    # grows: jobs 0 and -2 ran serially, 2.5 raised TypeError in the pool
    # after the tables grew, and cap_star True meant a cap of 1
    cases += (({"jobs": 0}, "^jobs must be at least 1$"),
              ({"jobs": -2}, "^jobs must be at least 1$"),
              ({"jobs": 2.5}, "^jobs must be an integer at least 1, got 2.5$"),
              ({"jobs": True}, "^jobs must be an integer at least 1, got True$"),
              ({"cap_star": True}, "^cap_star must be an integer, got True$"),
              ({"cap_exact": 12.5}, "^cap_exact must be an integer, got 12.5$"))

    def refused(*args):
        raise AssertionError("a series grew before the checks")

    monkeypatch.setattr(census, "_core_tables", refused)
    monkeypatch.setattr(census, "_regular_window", refused)
    for kwargs, message in cases:
        with pytest.raises(ValueError, match=message):
            run_census(CensusConfig(**{"n_max": 30, **kwargs}))
    # n_max below n_min is an empty sweep
    assert run_census(CensusConfig(n_min=5, n_max=4)) == []
    assert run_census(CensusConfig(n_min=0, n_max=-1)) == []


def test_each_count_is_computed_once(monkeypatch):
    calls = Counter()
    walked = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    # a sweep grows its series in one _core_tables call and hands each record
    # its values: no record reads count_p or count_cores
    for name in ("_regular_window", "enumerate_cores", "_core_tables", "count_p", "count_cores"):
        counted(census, name)
    # each growth of a c_ell table extends E(q)^ell once
    counted(partitions, "_euler_power")
    for ell in (2, 3, 5, 7):
        # a fresh c_ell table for each modulus, so each n below grows it
        monkeypatch.setattr(partitions, "_CORE_TABLES", {})
        for n in (0, 6, 17, 25, 441):
            calls.clear()
            build_record(n, ell, cap_exact=10, cap_star=20)
            # z_exact and z_star_exact share one enumeration of the cores;
            # above both caps there is none.  The c_ell table grows through
            # n once, and the record reads c_ell(n) off it
            want = {"_regular_window": 1, "_core_tables": 1}
            if n:
                want["_euler_power"] = 1
            if n <= 20:
                want["enumerate_cores"] = 1
            assert calls == want, (n, ell)
    # many moduli grow in the one call, each extending E(q)^ell once
    monkeypatch.setattr(partitions, "_CORE_TABLES", {})
    calls.clear()
    records = run_census(CensusConfig(n_min=3, n_max=600, ells=(7, 2, 5, 3), cap_exact=0, cap_star=0))
    assert len(records) == 4 * 598
    assert calls == {"_regular_window": 4, "_core_tables": 1, "_euler_power": 4}

    row_vectors = characters._row_vectors

    def logged(n, keys):
        walked.append(n)
        return row_vectors(n, keys)

    # the full table does not depend on ell: one kernel run per n
    monkeypatch.setattr(characters, "_row_vectors", logged)
    characters._whole_table.cache_clear()
    records = run_census(CensusConfig(n_min=9, n_max=10, ells=(3, 5, 7), with_z_all=True))
    assert walked == [9, 10]
    assert [r.z_all for r in records] == [brute_zeros(9)] * 3 + [brute_zeros(10)] * 3


def test_no_rows_builds_no_column_evaluator(monkeypatch, tmp_path):
    built = []
    move = ColumnEvaluator._move

    def counted(self, parts):
        built.append(parts)
        return move(self, parts)

    monkeypatch.setattr(ColumnEvaluator, "_move", counted)
    # 4 is not triangular, so it has no 2-cores: no row, no zero
    assert characters._count_zeros([], enumerate_partitions(4)) == (0, 0)
    rec = build_record(4, 2, cache_dir=tmp_path)
    assert built == []
    assert rec.z_exact == 0 and rec.z_star_exact == 0
    cached = json.loads((tmp_path / "census-2-4.json").read_text())
    assert cached["payload"] == {"z_exact": 0, "z_star_exact": 0}
    # with rows, only the columns that MN must decide get an evaluator: the
    # hooks of (2, 2) are 1, 2, 3, so the prefilter settles column (4).  MN
    # visits them by their reversed parts
    columns = list(enumerate_partitions(4))
    assert characters._count_zeros([Partition((2, 2))], columns)[0] == 2
    assert built == [(1, 1, 1, 1), (2, 1, 1), (3, 1), (2, 2)]
    assert [characters._count_zeros([Partition((2, 2))], [mu])[0] for mu in columns] == [1, 0, 0, 1, 0]


def test_record_csv_row_empty_cells():
    rec = CensusRecord(n=25, ell=3, p_n=1958, p_ell_n=1, c_ell_n=2, z_lower=2)
    assert rec.csv_row() == "25,3,1958,1,2,2,,,,,"


def test_census_config_defaults_and_immutability():
    config = CensusConfig(n_max=9, ells=(5,), with_z_all=True)
    assert config == CensusConfig(0, 9, (5,), 18, 60, 1, None, True)
    assert (config.n_min, config.cap_exact, config.cap_star, config.jobs) == (0, 18, 60, 1)
    assert CensusConfig().n_max == 14 and CensusConfig().ells == (2, 3, 5, 7)
    assert CensusConfig().cache_dir is None and CensusConfig().with_z_all is False
    with pytest.raises(AttributeError):
        config.n_max = 10


def test_census_record_fields_equality_and_rows():
    rec = CensusRecord(n=25, ell=3, p_n=1958, p_ell_n=1, c_ell_n=2, z_lower=2)
    fields = ("z_exact", "z_star_exact", "z_star_closed", "main_term_num", "main_term_den",
              "z_all")
    assert [getattr(rec, name) for name in fields] == [None] * 6
    same = CensusRecord(25, 3, 1958, 1, 2, 2)
    assert rec == same and rec != (25, 3) and pickle.loads(pickle.dumps(rec)) == rec
    # one schema: the fields but z_all are the CSV columns, in order
    assert CensusRecord._fields[:-1] == CSV_FIELDS
    # an immutable value: a changed record is a new one
    with pytest.raises(AttributeError):
        rec.z_all = 7
    rec = rec._replace(z_star_closed=4, z_all=7)
    assert rec != same
    assert rec.csv_row() == "25,3,1958,1,2,2,,,4,,"
    assert rec.csv_row(with_z_all=True) == "25,3,1958,1,2,2,,,4,,,7"
    assert rec == same._replace(z_star_closed=4, z_all=7)
    assert repr(rec).startswith("CensusRecord(n=25, ell=3, p_n=1958, p_ell_n=1, c_ell_n=2,")


def test_run_census_csv_golden():
    want = (
        "n,ell,p_n,p_ell_n,c_ell_n,z_lower,z_exact,z_star_exact,z_star_closed,"
        "main_term_num,main_term_den\n"
        "1,2,1,1,1,0,0,0,,,\n"
        "1,3,1,1,1,0,0,0,,,\n"
        "2,2,2,1,0,0,0,0,0,,\n"
        "2,3,2,2,2,0,0,0,,,\n"
        "3,2,3,2,1,1,1,1,1,,\n"
        "3,3,3,2,0,0,0,0,,,\n"
    )
    assert census_text(n_min=1, n_max=3, ells=(2, 3)) == want


def test_run_census_json_golden():
    line = census_text("json", n_min=3, n_max=3, ells=(2,)).rstrip("\n")
    assert line == (
        '{"n": 3, "ell": 2, "p_n": "3", "p_ell_n": "2", "c_ell_n": "1", '
        '"z_lower": "1", "z_exact": "1", "z_star_exact": "1", '
        '"z_star_closed": "1", "main_term_num": null, "main_term_den": null}'
    )
    # integers survive as exact strings
    assert json.loads(line)["z_exact"] == "1"
    # a prime ell >= 5 carries its main term, and --z-all adds z_all last
    line = census_text("json", n_min=6, n_max=6, ells=(5,), with_z_all=True).rstrip("\n")
    assert line == (
        '{"n": 6, "ell": 5, "p_n": "11", "p_ell_n": "10", "c_ell_n": "6", '
        '"z_lower": "6", "z_exact": "14", "z_star_exact": "8", '
        '"z_star_closed": null, "main_term_num": "66", "main_term_den": "1", "z_all": "29"}'
    )


def test_empty_range_emits_header_only():
    assert census_text(n_min=5, n_max=4, ells=(3,)) == (
        "n,ell,p_n,p_ell_n,c_ell_n,z_lower,z_exact,z_star_exact,z_star_closed,"
        "main_term_num,main_term_den\n"
    )


def test_write_records_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown output format"):
        write_records([], "xml", io.StringIO())


def test_cache_is_deterministic_and_inert(tmp_path):
    cfg = dict(n_min=1, n_max=9, ells=(2, 3, 5))
    cache = tmp_path / "cache"
    cold = census_text(**cfg, cache_dir=cache)
    assert any(cache.iterdir())
    warm = census_text(**cfg, cache_dir=cache)
    assert cold == warm == census_text(**cfg)


def test_cache_files_carry_checksum(tmp_path):
    cache = tmp_path / "cache"
    build_record(6, 3, cache_dir=cache)
    doc = json.loads((cache / "census-3-6.json").read_text())
    assert doc["format"] == 1
    assert doc["n"] == 6 and doc["ell"] == 3
    assert set(doc["payload"]) == {"z_exact", "z_star_exact"}
    assert len(doc["sha256"]) == 64


def test_cache_checksum_is_hashlib_sha256_of_the_stamped_blob(tmp_path):
    # the census takes sha256 from the interpreter's builtin module; its
    # digest must be hashlib's, so the cache bytes do not depend on which
    cache = tmp_path / "cache"
    build_record(12, 5, cache_dir=cache)
    doc = json.loads((cache / "census-5-12.json").read_text())
    stamped = {"algorithm": census.ALGORITHM_VERSION, "payload": doc["payload"]}
    blob = json.dumps(stamped, sort_keys=True, separators=(",", ":")).encode()
    assert doc["sha256"] == hashlib.sha256(blob).hexdigest()
    assert doc["algorithm"] == census.ALGORITHM_VERSION == 2


def test_corrupt_cache_is_detected(tmp_path):
    cache = tmp_path / "cache"
    build_record(6, 3, cache_dir=cache)
    path = cache / "census-3-6.json"
    doc = json.loads(path.read_text())
    doc["payload"]["z_star_exact"] = 12345
    path.write_text(json.dumps(doc))
    with pytest.raises(RuntimeError, match="checksum mismatch"):
        build_record(6, 3, cache_dir=cache)


LIST_PAYLOAD = {"format": 1, "algorithm": census.ALGORITHM_VERSION, "payload": [1],
                "sha256": census._cache_digest([1])}


@pytest.mark.parametrize("text", ['{"format": 1, "payload": {"z_star', "[1,2]",
                                  json.dumps(LIST_PAYLOAD)],
                         ids=["truncated", "list", "list-payload"])
def test_unreadable_cache_file_is_named(tmp_path, text):
    # a truncated file, a non-object document, and a non-object payload that
    # carries its own valid checksum
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / "census-3-6.json"
    path.write_text(text)
    with pytest.raises(RuntimeError, match="census-3-6.json"):
        _load_cache(path, 6, 3)
    with pytest.raises(RuntimeError, match="census-3-6.json"):
        build_record(6, 3, cache_dir=cache)


def test_missing_cache_file_is_a_miss(tmp_path, monkeypatch):
    # absent file, absent directory, and a file that an overlapping run
    # removes after any check for it: each is a miss, never an error
    path = tmp_path / "cache" / "census-3-6.json"
    assert _load_cache(path, 6, 3) == {}
    assert _load_cache(tmp_path / "census-3-6.json", 6, 3) == {}
    monkeypatch.setattr(Path, "exists", lambda self: True)
    assert _load_cache(path, 6, 3) == {}
    monkeypatch.undo()
    assert build_record(6, 3, cache_dir=tmp_path / "cache") == build_record(6, 3)
    assert path.exists()


def test_cache_is_not_read_above_both_caps(tmp_path, monkeypatch):
    # a cell above cap_exact and cap_star has no cached count, so even a
    # corrupt file there is never opened
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / "census-3-30.json"
    path.write_text("not json")
    loaded = []
    load = census._load_cache

    def spy(where, *cell):
        loaded.append(where)
        return load(where, *cell)

    monkeypatch.setattr(census, "_load_cache", spy)
    rec = build_record(30, 3, cap_exact=12, cap_star=26, cache_dir=cache)
    assert rec == build_record(30, 3, cap_exact=12, cap_star=26)
    assert rec.z_exact is None and rec.z_star_exact is None
    assert loaded == [] and path.read_text() == "not json"
    build_record(26, 3, cap_exact=12, cap_star=26, cache_dir=cache)
    assert loaded == [cache / "census-3-26.json"]


def test_unsupported_cache_version_is_rejected(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "census-3-6.json").write_text('{"format": 99, "payload": {}}')
    with pytest.raises(RuntimeError, match="format"):
        build_record(6, 3, cache_dir=cache)


@pytest.mark.parametrize("source, target", [(20, 21), (10, 20)])
def test_cache_file_of_another_cell_is_refused(tmp_path, monkeypatch, source, target):
    # a file copied over another cell's keeps a valid checksum.  Read as that
    # cell's, 20 -> 21 gave z_exact 4338 and z_star 100 for n = 21 (the true
    # values are 5174 and 84), and 10 -> 20 tripped the z >= z_lower guard
    for n in (source, target):
        build_record(n, 5, cap_exact=21, cache_dir=tmp_path)
    path = tmp_path / f"census-5-{target}.json"
    fresh = path.read_bytes()
    copied = (tmp_path / f"census-5-{source}.json").read_bytes()
    path.write_bytes(copied)
    with pytest.raises(RuntimeError, match=f"another cell than n={target}, ell=5: .*{path.name}"):
        build_record(target, 5, cap_exact=21, cache_dir=tmp_path)
    assert path.read_bytes() == copied
    # the algorithm stamp is checked first: a copy stamped by other code is a
    # miss, and the store overwrites it
    payload = json.loads(copied)["payload"]
    with monkeypatch.context() as old_code:
        old_code.setattr(census, "ALGORITHM_VERSION", census.ALGORITHM_VERSION - 1)
        _store_cache(path, source, 5, payload)
    assert build_record(target, 5, cap_exact=21, cache_dir=tmp_path) == build_record(target, 5, cap_exact=21)
    assert path.read_bytes() == fresh


def test_records_store_only_what_they_add(tmp_path, monkeypatch):
    # build_record stores a cache file only when its payload differs from the
    # one it loaded: a warm census stores nothing, and a census that completes
    # a cache stores each cell it completes once, with a cold run's bytes
    stored = Counter()
    store = census._store_cache

    def spy(path, n, ell, payload):
        stored[n, ell] += 1
        store(path, n, ell, payload)

    monkeypatch.setattr(census, "_store_cache", spy)
    grid = CensusConfig(n_min=10, n_max=14, ells=(3, 5, 7), cap_exact=14, cap_star=14)
    cold = run_census(grid._replace(cache_dir=tmp_path / "cold"))
    assert stored == {(n, ell): 1 for n in range(10, 15) for ell in (3, 5, 7)}
    stored.clear()
    assert run_census(grid._replace(cache_dir=tmp_path / "cold")) == cold
    assert stored == {}
    # n = 11, 12 are cached with Z* alone under cap_exact 10, then gain Z; a
    # cache filled under caps 12 then gains the files of n = 13, 14
    stages = (((10, 12), range(10, 13)), ((12, 12), (11, 12)), ((14, 14), (13, 14)))
    for (cap_exact, cap_star), completed in stages:
        stored.clear()
        part = grid._replace(cap_exact=cap_exact, cap_star=cap_star, cache_dir=tmp_path / "part")
        assert run_census(part) == run_census(part._replace(cache_dir=None))
        assert stored == {(n, ell): 1 for n in completed for ell in (3, 5, 7)}, cap_exact
    assert run_census(grid._replace(cache_dir=tmp_path / "part")) == cold
    names = sorted(path.name for path in (tmp_path / "cold").iterdir())
    assert sorted(path.name for path in (tmp_path / "part").iterdir()) == names
    for name in names:
        assert (tmp_path / "part" / name).read_bytes() == (tmp_path / "cold" / name).read_bytes()


def test_cache_from_other_code_is_recomputed(tmp_path, monkeypatch):
    # a valid checksum is not enough: a file stamped by other code (or by code
    # from before the stamp) is a miss, and the store overwrites it
    cache = tmp_path / "cache"
    right = build_record(6, 5, cache_dir=cache).z_star_exact
    path = cache / "census-5-6.json"
    fresh = path.read_text()
    payload = dict(json.loads(fresh)["payload"], z_star_exact=right + 1)
    with monkeypatch.context() as old_code:
        old_code.setattr(census, "ALGORITHM_VERSION", census.ALGORITHM_VERSION - 1)
        _store_cache(path, 6, 5, payload)
    stamped = path.read_text()
    unstamped = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    before_stamps = {"format": 1, "n": 6, "ell": 5, "payload": payload,
                     "sha256": hashlib.sha256(unstamped).hexdigest()}
    for stale in (stamped, json.dumps(before_stamps, sort_keys=True) + "\n"):
        path.write_text(stale)
        assert build_record(6, 5, cache_dir=cache).z_star_exact == right
        assert path.read_text() == fresh


def test_cache_of_per_column_lists_is_rewritten_with_sums(tmp_path, monkeypatch):
    # algorithm 1 cached z_exact as a list per column; its files are misses,
    # and the store overwrites them with the sum
    cache = tmp_path / "cache"
    fresh = build_record(8, 3, cache_dir=cache / "fresh")
    path = cache / "census-3-8.json"
    old = {"z_exact_columns": [1] * count_p(8), "z_star_exact": fresh.z_star_exact + 1}
    with monkeypatch.context() as old_code:
        old_code.setattr(census, "ALGORITHM_VERSION", 1)
        _store_cache(path, 8, 3, old)
    assert build_record(8, 3, cache_dir=cache) == fresh
    doc = json.loads(path.read_text())
    assert doc["algorithm"] == census.ALGORITHM_VERSION == 2
    assert doc["payload"] == {"z_exact": fresh.z_exact, "z_star_exact": fresh.z_star_exact}
    assert type(doc["payload"]["z_exact"]) is int
    assert path.read_bytes() == (cache / "fresh" / path.name).read_bytes()


def test_concurrent_cache_stores_leave_one_valid_file(tmp_path):
    path = tmp_path / "census-3-6.json"
    payloads = [{"z_star_exact": i} for i in range(4)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for _ in range(5):
            barrier = threading.Barrier(len(payloads))
            errors = []

            def store(payload):
                barrier.wait(timeout=10)
                try:
                    _store_cache(path, 6, 3, payload)
                except OSError as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=store, args=(p,)) for p in payloads]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert _load_cache(path, 6, 3) in payloads
            assert [f.name for f in tmp_path.iterdir()] == [path.name]
    finally:
        sys.setswitchinterval(old_interval)


def test_result_guards_survive_optimize_flag():
    # python -O strips assert statements; the verify checks and the
    # build_record invariants must still fail on a wrong value
    script = """
import corz.census as c
import corz.suites as s
s.inv_alpha = lambda ell: 0
assert False, "asserts are live"
print(s.verify("constants").passed)
# a wrong c_ell(n) in the series of the one cell (17, 3)
c._sweep_series = lambda moduli, lo, hi: [[(c.count_p(17), c.count_p_regular(17, 3), -1, None)]]
try:
    c.build_record(17, 3, cap_exact=0)
except AssertionError:
    print("record guard raised")
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["False", "record guard raised"]


def test_parallel_census_matches_serial():
    serial = census_text(n_min=1, n_max=10, ells=(2, 5), jobs=1)
    assert census_text(n_min=1, n_max=10, ells=(2, 5), jobs=2) == serial
    # a grid that straddles both caps: the workers count n <= 12, and the
    # calling process forms every record
    straddle = dict(n_min=6, n_max=40, ells=(2, 5), cap_exact=9, cap_star=12)
    assert census_text(**straddle, jobs=2) == census_text(**straddle)


def inline_pool(monkeypatch):
    """Patch ProcessPoolExecutor with a pool that logs its size, the
    chunksize of each map and the cells it maps, and maps in-process, so no
    worker is forked.  Each chunk of cells may go to a worker that has
    computed nothing yet, so it starts without the whole table of the
    previous chunk."""
    started, chunks, mapped = [], [], []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            chunks.append(chunksize)
            cells = list(zip(*iterables))
            mapped.extend(cells)
            out = []
            for i in range(0, len(cells), chunksize):
                characters._whole_table.cache_clear()
                out += [fn(*cell) for cell in cells[i : i + chunksize]]
            return out

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return started, chunks, mapped


def test_pool_has_no_more_workers_than_grid_cells(monkeypatch):
    started, _, _ = inline_pool(monkeypatch)
    run_census(CensusConfig(n_min=4, n_max=4, ells=(3,), jobs=64))
    assert started == []
    records = run_census(CensusConfig(n_min=3, n_max=4, ells=(2, 3, 5), jobs=64))
    assert started == [6]
    assert [(r.n, r.ell) for r in records] == [(n, ell) for n in (3, 4) for ell in (2, 3, 5)]


def test_pool_maps_only_cells_with_an_exhaustive_count(monkeypatch):
    # the cells with n <= max(cap_exact, cap_star) go to the pool, n-major,
    # and no others; the pool has at most one worker per such cell, and every
    # record is formed in the calling process
    started, _, mapped = inline_pool(monkeypatch)
    grid = [(n, ell) for n in range(8, 31) for ell in (3, 5)]
    for cap_exact, cap_star in ((10, 12), (12, 10), (12, -1)):
        started.clear()
        mapped.clear()
        config = CensusConfig(n_min=8, n_max=30, ells=(5, 3), cap_exact=cap_exact,
                              cap_star=cap_star, jobs=64)
        records = run_census(config)
        assert [cell[:2] for cell in mapped] == grid[:10], (cap_exact, cap_star)
        assert started == [10]
        assert [(r.n, r.ell) for r in records] == grid
        assert records == run_census(config._replace(jobs=1))
    # a grid entirely above both caps starts no pool, however many jobs
    started.clear()
    mapped.clear()
    above = CensusConfig(n_min=13, n_max=400, ells=(5, 3), cap_exact=10, cap_star=12, jobs=64)
    records = run_census(above)
    assert started == [] and mapped == []
    assert records == run_census(above._replace(jobs=1))
    assert all(r.z_exact is None and r.z_star_exact is None for r in records)


@pytest.mark.parametrize("with_z_all", [False, True])
def test_records_do_not_depend_on_jobs(monkeypatch, tmp_path, with_z_all):
    # a grid that straddles both caps gives the same CSV, JSON and cache files
    # at jobs 1, 2 and 3, on a cold cache and on the warm cache it leaves
    inline_pool(monkeypatch)
    grid = dict(n_min=6, n_max=16, ells=(2, 3, 5, 7), cap_exact=9, cap_star=12,
                with_z_all=with_z_all)
    want = {fmt: census_text(fmt, **grid) for fmt in ("csv", "json")}
    files = []
    for jobs in (1, 2, 3):
        for fmt in ("csv", "json"):
            cache = tmp_path / f"{fmt}-{jobs}"
            for run in ("cold", "warm"):
                got = census_text(fmt, **grid, jobs=jobs, cache_dir=cache)
                assert got == want[fmt], (jobs, run, fmt)
            files.append({path.name: path.read_bytes() for path in cache.iterdir()})
    assert len(files[0]) == 4 * 7
    assert all(cached == files[0] for cached in files)


def test_pooled_z_all_computes_each_whole_table_once(monkeypatch):
    # with z_all each chunk holds every modulus of one n, so the kernel runs
    # once per n however the chunks are spread over the workers
    _, chunks, _ = inline_pool(monkeypatch)
    walked = []
    row_vectors = characters._row_vectors

    def logged(n, keys):
        walked.append(n)
        return row_vectors(n, keys)

    monkeypatch.setattr(characters, "_row_vectors", logged)
    config = dict(n_min=10, n_max=12, ells=(7, 3, 5, 3), jobs=2)
    records = run_census(CensusConfig(**config, with_z_all=True))
    assert chunks == [3] and walked == [10, 11, 12]
    assert [r.z_all for r in records] == [brute_zeros(n) for n in (10, 11, 12) for _ in range(3)]
    # without z_all there is no table to share, and the cells go one by one
    run_census(CensusConfig(**config))
    assert chunks == [3, 1] and walked == [10, 11, 12]


def test_z_all_column_appears_only_on_request():
    base = census_text(n_min=3, n_max=4, ells=(3,))
    assert base.splitlines()[0].count(",") == 10
    lines = census_text(n_min=3, n_max=4, ells=(3,), with_z_all=True).splitlines()
    assert lines[0].endswith(",z_all")
    assert lines[1].endswith(f",{brute_zeros(3)}")


def test_trend_surrogate_block_means_increase_for_d1():
    # z_lower(n,5)/(p(n) n) oscillates with the twisted divisor sum, so the
    # trend is asserted on block means over [50, 300]
    ratios = [
        z_lower_bound(n, 5) / (count_p(n) * n) for n in range(50, 301)
    ]
    third = len(ratios) // 3
    blocks = [
        sum(ratios[:third]) / third,
        sum(ratios[third : 2 * third]) / third,
        sum(ratios[2 * third :]) / len(ratios[2 * third :]),
    ]
    assert blocks[0] < blocks[1] < blocks[2]


def test_trend_surrogate_checkpoints_increase_at_11():
    # at ell = 11 the growth dominates the oscillation for both exponents
    for d in (1, 2):
        checkpoints = [
            z_lower_bound(n, 11) / (count_p(n) * n**d) for n in (50, 100, 150, 200, 250, 300)
        ]
        assert all(b > a for a, b in zip(checkpoints, checkpoints[1:])), d


def test_trend_surrogate_d2_at_5_decreases():
    # dividing by n^2 overshoots at ell = 5: the d = 1 ratio is already
    # bounded, so this one provably shrinks; kept as a guard against
    # accidentally "fixing" the assertion the wrong way round
    first = z_lower_bound(50, 5) / (count_p(50) * 50**2)
    last = z_lower_bound(300, 5) / (count_p(300) * 300**2)
    assert last < first


def test_main_term_band_at_5():
    for n in range(100, 501):
        ratio = z_lower_bound(n, 5) / (core_main_term(n, 5) * count_p(n))
        assert 0.5 <= ratio <= 2.0, n


def test_verify_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        verify("nope")
    try:
        verify("nope")
    except ValueError as exc:
        for name in available_suites():
            assert name in str(exc)


def test_core_filter_walk_matches_a_test_of_every_partition():
    # the verify oracle cuts a branch at a partition that is a core for no
    # modulus left; test every partition instead, composite moduli included
    ells = (2, 3, 4, 5, 6, 7)
    counts = _count_cores_filter_pass(22, ells)
    for n in range(23):
        masks = [beta_mask(lam.parts) for lam in enumerate_partitions(n)]
        for ell in ells:
            want = sum(1 for mask in masks if not strip_ends(mask, ell))
            assert counts[ell][n] == want == count_cores(n, ell), (n, ell)


def test_available_suites_listing():
    assert available_suites() == (
        "abacus",
        "closed-forms",
        "constants",
        "lemma1",
        "orthogonality",
        "theorem2",
    )


@pytest.mark.parametrize("suite", ["constants", "closed-forms", "theorem2",
                                   "lemma1", "orthogonality", "abacus"])
def test_suites_pass(suite, suite_report):
    rep = suite_report(suite)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]
    assert rep.suite == suite
    assert all(c.seconds >= 0 for c in rep.checks)


VERIFY_REF = REFS / "verify.json"


def test_suite_verdicts_match_the_benchmark_reference(suite_report):
    # check names, their order, verdicts and details, as the benchmark expects
    refs = json.loads(VERIFY_REF.read_text(encoding="utf-8"))
    assert sorted(refs) == list(available_suites())
    for suite, want in refs.items():
        rep = suite_report(suite)
        got = [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in rep.checks]
        assert got == want["checks"], suite
        assert rep.passed is want["passed"], suite


def test_report_rendering(suite_report):
    rep = suite_report("constants")
    lines = rep.lines()
    assert len(lines) == len(rep.checks) == 4
    assert all(line.startswith("ok  ") for line in lines)
    doc = rep.to_json()
    assert doc["suite"] == "constants"
    assert doc["passed"] is True
    assert len(doc["checks"]) == 4
