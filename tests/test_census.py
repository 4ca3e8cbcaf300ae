import hashlib
import io
import json
from collections import Counter
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corz.abacus import count_cores, enumerate_cores, n_ell
from corz import census
from corz.census import (
    CensusConfig,
    CensusRecord,
    _load_cache,
    _store_cache,
    available_suites,
    build_record,
    run_census,
    verify,
    write_records,
    z_all_exact,
    z_exact,
    z_lower_bound,
    z_star_closed,
    z_star_exact,
)
from corz.characters import ColumnEvaluator, mn_character
from corz.numtheory import core_main_term
from corz.partitions import (
    Partition,
    count_p,
    count_p_regular,
    enumerate_partitions,
    is_core,
    mask_parts,
)
from reference import conjugate, frobenius_character


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
            assert census._count_zeros(rows, lams) == want, (n, [lam.parts for lam in rows])


@given(st.integers(min_value=0, max_value=12), st.data())
@settings(max_examples=150, deadline=None)
def test_count_zeros_matches_naive_loop_on_row_subsets(n, data):
    lams = list(enumerate_partitions(n))
    rows = data.draw(st.lists(st.sampled_from(lams), unique=True))
    columns = data.draw(st.lists(st.sampled_from(lams)))
    assert census._count_zeros(rows, columns) == naive_count_zeros(rows, columns)


def test_count_zeros_evaluates_one_row_per_conjugate_pair(monkeypatch):
    calls = {}
    value_mask = ColumnEvaluator.value_mask

    def logged(self, mask):
        calls.setdefault(self.parts, []).append(Partition(mask_parts(mask)))
        return value_mask(self, mask)

    monkeypatch.setattr(ColumnEvaluator, "value_mask", logged)
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


def test_each_count_is_computed_once(monkeypatch):
    calls = Counter()
    walked = []

    def counted(name):
        fn = getattr(census, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("count_p_regular", "count_cores"):
        monkeypatch.setattr(census, name, counted(name))
    for ell in (2, 3, 5, 7):
        for n in (0, 6, 17, 25, 441):
            calls.clear()
            build_record(n, ell, cap_exact=10, cap_star=20)
            assert calls == {"count_p_regular": 1, "count_cores": 1}, (n, ell)

    count_zeros = census._count_zeros

    def logged(rows, columns):
        walked.append(len(rows))
        return count_zeros(rows, columns)

    # the full table does not depend on ell: one walk of it per n
    monkeypatch.setattr(census, "_count_zeros", logged)
    census._z_all.cache_clear()
    records = run_census(CensusConfig(n_min=10, n_max=10, ells=(3, 5, 7), with_z_all=True))
    assert walked.count(count_p(10)) == 1
    assert [r.z_all for r in records] == [brute_zeros(10)] * 3


def test_no_rows_builds_no_column_evaluator(monkeypatch, tmp_path):
    built = []
    evaluator = census.ColumnEvaluator

    def counted(mu):
        built.append(mu)
        return evaluator(mu)

    monkeypatch.setattr(census, "ColumnEvaluator", counted)
    # 4 is not triangular, so it has no 2-cores: no row, one zero count per column
    assert census._count_zeros([], enumerate_partitions(4)) == [0] * count_p(4)
    rec = build_record(4, 2, cache_dir=tmp_path)
    assert built == []
    assert rec.z_exact == 0 and rec.z_star_exact == 0
    cached = json.loads((tmp_path / "census-2-4.json").read_text())
    assert cached["payload"]["z_exact_columns"] == [0] * count_p(4)
    # with rows, every column still gets its evaluator
    assert census._count_zeros([Partition((2, 2))], enumerate_partitions(4)) == [1, 0, 0, 1, 0]
    assert len(built) == count_p(4)


def test_record_csv_row_empty_cells():
    rec = CensusRecord(n=25, ell=3, p_n=1958, p_ell_n=1, c_ell_n=2, z_lower=2)
    assert rec.csv_row() == "25,3,1958,1,2,2,,,,,"


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
    assert set(doc["payload"]) == {"z_exact_columns", "z_star_exact"}
    assert len(doc["sha256"]) == 64


def test_corrupt_cache_is_detected(tmp_path):
    cache = tmp_path / "cache"
    build_record(6, 3, cache_dir=cache)
    path = cache / "census-3-6.json"
    doc = json.loads(path.read_text())
    doc["payload"]["z_star_exact"] = 12345
    path.write_text(json.dumps(doc))
    with pytest.raises(RuntimeError, match="checksum mismatch"):
        build_record(6, 3, cache_dir=cache)


def test_unsupported_cache_version_is_rejected(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "census-3-6.json").write_text('{"format": 99, "payload": {}}')
    with pytest.raises(RuntimeError, match="format"):
        build_record(6, 3, cache_dir=cache)


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
            assert _load_cache(path) in payloads
            assert [f.name for f in tmp_path.iterdir()] == [path.name]
    finally:
        sys.setswitchinterval(old_interval)


def test_result_guards_survive_optimize_flag():
    # python -O strips assert statements; the verify checks and the
    # build_record invariants must still fail on a wrong value
    script = """
import corz.census as c
c.inv_alpha = lambda ell: 0
assert False, "asserts are live"
print(c.verify("constants").passed)
c.count_cores = lambda n, ell: -1
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


def test_pool_has_no_more_workers_than_grid_cells(monkeypatch):
    started = []

    class InlinePool:
        # records the pool size and maps in-process, so no worker is forked
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(census, "ProcessPoolExecutor", InlinePool)
    run_census(CensusConfig(n_min=4, n_max=4, ells=(3,), jobs=64))
    assert started == []
    records = run_census(CensusConfig(n_min=3, n_max=4, ells=(2, 3, 5), jobs=64))
    assert started == [6]
    assert [(r.n, r.ell) for r in records] == [(n, ell) for n in (3, 4) for ell in (2, 3, 5)]


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


def test_report_rendering(suite_report):
    rep = suite_report("constants")
    lines = rep.lines()
    assert len(lines) == len(rep.checks) == 4
    assert all(line.startswith("ok  ") for line in lines)
    doc = rep.to_json()
    assert doc["suite"] == "constants"
    assert doc["passed"] is True
    assert len(doc["checks"]) == 4
