import math
import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corz import characters, suites
from corz.characters import (
    ColumnEvaluator,
    _count_zeros,
    _lane_ones,
    _lane_width,
    _orbits,
    _row_vectors,
    _strips,
    _truncate,
    _zero_lanes,
    centralizer_order,
    dimension,
    mn_character,
)
from corz.partitions import (
    Partition,
    beta_mask,
    canonical_mask,
    count_p,
    enumerate_partitions,
    hook_mask,
    is_regular,
    mask_parts,
)
from corz.abacus import enumerate_cores
from corz.suites import _rows_vanish
from reference import conjugate, frobenius_character, hook_lengths, mask_strips


# The tuple-based Murnaghan-Nakayama evaluator that preceded the bitmask one,
# kept as an independent reference: ascending beta tuples, strips found by
# bisection, memo keyed on (remaining parts, parts consumed).


def _ref_beta(parts):
    s = len(parts)
    return tuple(p + s - 1 - i for i, p in enumerate(parts))[::-1]


def _ref_parts(beta):
    return tuple(p for p in (beta[i] - i for i in range(len(beta) - 1, -1, -1)) if p > 0)


def _ref_removals(beta, k):
    # (new beta tuple, strip height) for every length-k strip removal
    bset = set(beta)
    for pos, b in enumerate(beta):
        if b < k or (b - k) in bset:
            continue
        j = bisect_left(beta, b - k)
        yield beta[:j] + (b - k,) + beta[j:pos] + beta[pos + 1 :], pos - j


class _ReferenceEvaluator:
    def __init__(self, mu):
        self.parts = tuple(mu)
        self.memo = {}

    def value(self, lam):
        return self._eval(_ref_beta(Partition.of(lam).parts), 0)

    def _eval(self, beta, idx):
        if idx == len(self.parts):
            return 1
        key = (_ref_parts(beta), idx)
        if key not in self.memo:
            total = 0
            for new_beta, height in _ref_removals(beta, self.parts[idx]):
                term = self._eval(new_beta, idx + 1)
                total += -term if height % 2 else term
            self.memo[key] = total
        return self.memo[key]


def strips(lam, k):
    # (height, remaining parts) for every length-k strip, as the kernel removes them
    return [(h, mask_parts(rest)) for rest, h in mask_strips(beta_mask(Partition.of(lam).parts), k)]


def test_evaluator_and_strips_match_reference_exhaustively():
    for n in range(10):
        lams = list(enumerate_partitions(n))
        for mu in lams:
            col = ColumnEvaluator(mu)
            ref = _ReferenceEvaluator(mu.parts)
            for lam in lams:
                assert col.value(lam) == ref.value(lam), (lam.parts, mu.parts)
        for lam in lams:
            for k in range(1, n + 1):
                got = strips(lam, k)
                want = [(h, _ref_parts(b)) for b, h in _ref_removals(_ref_beta(lam.parts), k)]
                assert got == want[::-1], (lam.parts, k)


@given(st.integers(min_value=10, max_value=16), st.data())
@settings(max_examples=200, deadline=None)
def test_evaluator_matches_reference_on_random_pairs(n, data):
    lams = list(enumerate_partitions(n))
    lam = data.draw(st.sampled_from(lams))
    mu = data.draw(st.sampled_from(lams))
    # any order of the cycle type's parts, which the memo key must not confuse
    order = data.draw(st.permutations(mu.parts))
    assert ColumnEvaluator(order).value(lam) == _ReferenceEvaluator(order).value(lam)


def test_suffix_levels_match_reference_in_adversarial_order():
    # one evaluator moved through a shared prefix with different tails, a
    # repeat, a proper suffix of the previous column, the empty column, and
    # a shared tail after a long unrelated column, whose levels of 1s the
    # next column keeps; then back through every column, seen earlier, in
    # reverse order and in a shuffled one
    columns = [
        (5, 3, 2, 1, 1), (5, 3, 2, 2), (5, 3, 3, 1), (5, 3, 3, 1), (3, 3, 1), (3, 1), (),
        (4, 2, 1, 1), (1,) * 12, (6, 2, 1, 1), (4, 3, 1, 1), (9, 2, 1, 1, 1, 1), (2, 1, 1),
    ]
    rng = random.Random(7)
    col = ColumnEvaluator(())
    refs = {}
    for parts in columns + columns[::-1] + rng.sample(columns, len(columns)):
        col._move(parts)
        assert col.parts == parts and col.size == sum(parts)
        ref = refs.setdefault(parts, _ReferenceEvaluator(parts))
        lams = list(enumerate_partitions(sum(parts)))
        rng.shuffle(lams)
        for lam in lams:
            assert col.value(lam) == ref.value(lam), (parts, lam.parts)


def test_warm_suffix_store_matches_reference_across_n():
    # the levels of suffixes of at most SUFFIX_MAX outlive their evaluator:
    # the cores x cores and cores x all-columns blocks of n = 12, 20, 16 and
    # 20 again, for ell = 3, 5, 7, each read what the blocks before them left
    # in the store.  Every value, moved through in the zero loop's column
    # order, and the loop's own pair equal the reference
    refs = {}
    for n in (12, 20, 16, 20):
        columns = list(enumerate_partitions(n))
        for ell in (3, 5, 7):
            cores = list(enumerate_cores(n, ell))
            rows = {lam.parts for lam in cores}
            for block in (cores, columns):
                col = ColumnEvaluator(())
                total = square = 0
                for mu in sorted(block, key=lambda mu: mu.parts[::-1]):
                    col._move(mu.parts)
                    ref = refs.setdefault(mu.parts, _ReferenceEvaluator(mu.parts))
                    for lam in cores:
                        want = ref.value(lam)
                        assert col.value(lam) == want, (n, ell, lam.parts, mu.parts)
                        total += want == 0
                        square += want == 0 and mu.parts in rows
                assert _count_zeros(cores, block) == (total, square), (n, ell)


def _vanishes(lam, mu):
    # the verify suites' plain MN loop, one pair at a time
    try:
        _rows_vanish([lam], [mu])
    except AssertionError:
        return False
    return True


def test_plain_mn_loop_runs_without_the_column_evaluator(monkeypatch):
    # the verify suites' oracle shares no code with the zero loop's
    # evaluator: with ColumnEvaluator refused it still decides every pair of
    # n <= 8 as the Frobenius formula does, and on n = 0 the empty column
    def refused(*args):
        raise RuntimeError("the plain MN loop built a ColumnEvaluator")

    monkeypatch.setattr(characters, "ColumnEvaluator", refused)
    monkeypatch.setattr(suites, "ColumnEvaluator", refused)
    for n in range(9):
        lams = list(enumerate_partitions(n))
        for mu in lams:
            for lam in lams:
                assert _vanishes(lam, mu) == (frobenius_character(lam, mu) == 0), (lam.parts, mu.parts)
    with pytest.raises(AssertionError, match=r"chi_\(2, 1\)\(1, 1, 1\) = 2"):
        _rows_vanish([Partition([2, 1])], [Partition([1, 1, 1])])


@given(st.integers(min_value=0, max_value=12), st.data())
@settings(max_examples=150, deadline=None)
def test_zeros_match_the_plain_mn_loop(n, data):
    # one evaluator, moved from the empty column through columns drawn with
    # repeats, decides in one _zeros call per column the rows it is handed,
    # each counted once or twice (here); an empty draw hands it no open row
    # and n = 0 is the empty column.  The count is the sum of here over the
    # rows on which the plain loop finds chi = 0
    lams = list(enumerate_partitions(n))
    col = ColumnEvaluator(())
    for mu in data.draw(st.lists(st.sampled_from(lams), min_size=1, max_size=4)):
        rows = data.draw(st.lists(st.sampled_from(lams), unique=True))
        heres = data.draw(st.lists(st.sampled_from((1, 2)), min_size=len(rows), max_size=len(rows)))
        col._move(mu.parts)
        got = col._zeros([(beta_mask(lam.parts), here) for lam, here in zip(rows, heres)])
        assert got == sum(here for lam, here in zip(rows, heres) if _vanishes(lam, mu))


def test_zeros_on_the_empty_column_and_on_no_rows():
    # chi of the empty partition on the empty column is 1; no rows, no zeros
    empty = ColumnEvaluator(())
    assert empty._zeros([(0, 1)]) == empty._zeros([(0, 2)]) == empty._zeros([]) == 0
    assert ColumnEvaluator((2, 1, 1))._zeros([]) == 0
    assert _count_zeros([Partition(())], [Partition(())]) == (0, 0)
    # on the 3-cycles of S_4, (2, 1, 1) vanishes, and its conjugate (3, 1)
    # with it, while (4) and (2, 2) do not
    rows = [(beta_mask((2, 1, 1)), 2), (beta_mask((4,)), 2), (beta_mask((2, 2)), 1)]
    assert ColumnEvaluator((3, 1))._zeros(rows) == 2


def test_kernel_on_one_part_and_all_ones_columns():
    # one strip per step: mu = (n) ends at the last part at once, and
    # mu = (1^n) walks every standard tableau
    for n in range(1, 13):
        lams = list(enumerate_partitions(n))
        cycle, ones = ColumnEvaluator([n]), ColumnEvaluator([1] * n)
        ref_cycle, ref_ones = _ReferenceEvaluator([n]), _ReferenceEvaluator([1] * n)
        for lam in lams:
            mask = beta_mask(lam.parts)
            assert cycle.value_mask(mask) == ref_cycle.value(lam), lam.parts
            assert ones.value_mask(mask) == ref_ones.value(lam) == dimension(lam), lam.parts
            if n <= 10:  # the oracle's a_delta * p_1^n expansion grows fast past 10
                assert cycle.value_mask(mask) == frobenius_character(lam, (n,)), lam.parts
                assert ones.value_mask(mask) == frobenius_character(lam, (1,) * n), lam.parts


def test_value_mask_accepts_extra_low_beads():
    # t extra beads at 0..t-1 shift the beta-set up and leave the partition alone
    for n in range(9):
        lams = list(enumerate_partitions(n))
        for mu in lams:
            padded_first, canonical_first = ColumnEvaluator(mu), ColumnEvaluator(mu)
            for lam in lams:
                want = frobenius_character(lam, mu)
                mask = beta_mask(lam.parts)
                for t in range(4):
                    padded = mask << t | (1 << t) - 1
                    assert padded_first.value_mask(padded) == want, (lam.parts, mu.parts, t)
                    assert canonical_first.value_mask(mask) == want, (lam.parts, mu.parts)
                    assert canonical_first.value_mask(padded) == want, (lam.parts, mu.parts, t)


def test_kernel_strip_children_are_canonical():
    # the kernel shifts a child only when its strip lands at position 0; on
    # every canonical mask of n <= 14 and every k that gives the reference's
    # canonical_mask of the raw child, and the parity of its height
    for n in range(15):
        for lam in enumerate_partitions(n):
            mask = beta_mask(lam.parts)
            assert canonical_mask(mask) == mask, lam.parts
            for k in range(1, n + 2):
                want = [(rest, h & 1) for rest, h in mask_strips(mask, k)]
                assert _strips(mask, k) == want[::-1], (lam.parts, k)


def test_border_strips_examples():
    # (2,2) has two dominoes: the bottom row and the right column
    assert set(strips([2, 2], 2)) == {(0, (2,)), (1, (1, 1))}
    # (2,1) has hooks {3,1,1}, so no strip of length 2 exists
    assert strips([2, 1], 2) == []
    # the full hook (3,1,1) is one strip of length 5 spanning 3 rows
    assert strips([3, 1, 1], 5) == [(2, ())]


def test_border_strips_match_hook_count():
    # strips of length k biject with hooks of length k
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            hooks = hook_lengths(lam)
            for k in range(1, n + 1):
                assert len(strips(lam, k)) == hooks[k]


def test_border_strip_remainders_are_partitions():
    for n in range(1, 12):
        for lam in enumerate_partitions(n):
            for k in range(1, n + 1):
                for height, rest in strips(lam, k):
                    assert Partition(rest).parts == rest
                    assert sum(rest) == n - k
                    assert 0 <= height < len(lam) + 1


def test_s3_table():
    # rows (3), (2,1), (1^3); columns (3), (2,1), (1^3)
    table = {
        (3,): {(3,): 1, (2, 1): 1, (1, 1, 1): 1},
        (2, 1): {(3,): -1, (2, 1): 0, (1, 1, 1): 2},
        (1, 1, 1): {(3,): 1, (2, 1): -1, (1, 1, 1): 1},
    }
    for lam, row in table.items():
        for mu, want in row.items():
            assert mn_character(lam, mu) == want, (lam, mu)


def test_s4_table():
    # full character table of S_4, rows indexed by partitions of 4
    rows = {
        (4,): [1, 1, 1, 1, 1],
        (3, 1): [-1, 0, -1, 1, 3],
        (2, 2): [0, -1, 2, 0, 2],
        (2, 1, 1): [1, 0, -1, -1, 3],
        (1, 1, 1, 1): [-1, 1, 1, -1, 1],
    }
    cols = [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for lam, values in rows.items():
        for mu, want in zip(cols, values):
            assert mn_character(lam, mu) == want, (lam, mu)


def test_hook_row_on_full_cycle():
    # chi_lam(n-cycle) is (-1)^r on hooks (n-r, 1^r), zero elsewhere
    for n in range(1, 10):
        for lam in enumerate_partitions(n):
            got = mn_character(lam, [n])
            parts = lam.parts
            if parts and all(p == 1 for p in parts[1:]):
                r = len(parts) - 1
                assert got == (-1) ** r, lam.parts
            else:
                assert got == 0, lam.parts


def test_mn_character_empty():
    assert mn_character([], []) == 1
    col = ColumnEvaluator([])
    assert col.value_mask(0) == col.value(Partition([])) == 1
    assert _ReferenceEvaluator(()).value(()) == frobenius_character((), ()) == 1


def test_size_mismatch_raises():
    with pytest.raises(ValueError, match="size mismatch"):
        mn_character([2, 1], [2, 2])
    with pytest.raises(ValueError, match="size mismatch"):
        ColumnEvaluator([3]).value(Partition([2, 2]))
    # a mask names its row's size, with or without extra low beads: a row
    # too small or too large raises as value does, and the levels stay sound
    col = ColumnEvaluator((2, 1))
    for parts, size in (((2,), 2), ((5, 3), 8), ((1, 1), 2), ((4,), 4)):
        for t in range(3):
            with pytest.raises(ValueError, match=f"partition of {size} against cycle type of 3"):
                col.value_mask(beta_mask(parts) << t | (1 << t) - 1)
    assert [col.value_mask(beta_mask(lam.parts) << 2 | 3) for lam in enumerate_partitions(3)] == [
        1, 0, -1
    ]


def test_column_evaluator_rejects_nonpositive_parts():
    with pytest.raises(ValueError):
        ColumnEvaluator([2, 0, 1])
    with pytest.raises(ValueError):
        ColumnEvaluator([-3])
    # and, as Partition does, parts that are not integers, before any row
    # meets them
    for parts in ([1.5, 1.5], [2.0, 1], ["2"], [True, 1]):
        with pytest.raises(ValueError, match="positive integers"):
            ColumnEvaluator(parts)
    # a row of bools is refused by Partition, before any strip is removed
    with pytest.raises(ValueError, match="nonnegative integers"):
        mn_character([True, True], [2])


def test_value_mask_rejects_a_negative_mask():
    # a negative int is no beta-set; it raises before any bead is read
    for mask in (-1, -6, -(1 << 70)):
        with pytest.raises(ValueError, match="nonnegative"):
            ColumnEvaluator((1,)).value_mask(mask)


def test_column_evaluator_reuse_across_rows():
    col = ColumnEvaluator([2, 2, 1])
    values = {lam.parts: col.value(lam) for lam in enumerate_partitions(5)}
    assert values[(5,)] == 1
    assert values[(1, 1, 1, 1, 1)] == 1  # sign character: (-1)^(5-3)
    assert sum(v * v for v in values.values()) == centralizer_order([2, 2, 1])


def test_mn_invariant_under_part_reordering():
    rng = random.Random(11)
    for n in range(2, 11):
        for mu in enumerate_partitions(n):
            shuffled = list(mu.parts)
            rng.shuffle(shuffled)
            base = ColumnEvaluator(mu)
            perm = ColumnEvaluator(shuffled)
            ref = _ReferenceEvaluator(shuffled)
            for lam in enumerate_partitions(n):
                got = perm.value_mask(beta_mask(lam.parts))
                assert base.value(lam) == got == ref.value(lam), (lam.parts, shuffled)


def prefilter_vanishes(lam, mu):
    # the census prefilter: some part of mu is not a hook length of lam
    hooks = hook_mask(beta_mask(Partition.of(lam).parts))
    return any(not hooks >> p & 1 for p in Partition.of(mu).parts)


def test_quick_vanish_examples():
    # (2,1) has hooks {3,1,1}: a 2 in the cycle type cannot be removed
    assert prefilter_vanishes([2, 1], [2, 1])
    assert not prefilter_vanishes([2, 1], [3])
    assert not prefilter_vanishes([2, 1], [1, 1, 1])


def test_quick_vanish_implies_zero():
    for n in range(1, 10):
        lams = list(enumerate_partitions(n))
        for mu in lams:
            col = ColumnEvaluator(mu)
            for lam in lams:
                if prefilter_vanishes(lam, mu):
                    assert col.value(lam) == 0, (lam.parts, mu.parts)


def test_core_rows_vanish_on_singular_columns():
    for ell in (2, 3, 5):
        for n in range(13):
            cores = list(enumerate_cores(n, ell))
            if not cores:
                continue
            for mu in enumerate_partitions(n):
                if is_regular(mu, ell):
                    continue
                col = ColumnEvaluator(mu)
                for lam in cores:
                    assert col.value(lam) == 0, (ell, lam.parts, mu.parts)


def test_dimension_examples():
    assert dimension(Partition([2, 1])) == 2
    assert dimension(Partition([3, 2])) == 5
    assert dimension(Partition([])) == 1
    assert dimension(Partition([5])) == 1
    assert dimension(Partition([1] * 6)) == 1


def test_dimension_matches_identity_column():
    for n in range(13):
        col = ColumnEvaluator([1] * n)
        for lam in enumerate_partitions(n):
            assert col.value(lam) == dimension(lam), lam.parts


def test_dimensions_square_sum_to_group_order():
    for n in range(1, 11):
        total = sum(dimension(lam) ** 2 for lam in enumerate_partitions(n))
        assert total == math.factorial(n)


def test_centralizer_order_examples():
    assert centralizer_order([3]) == 3
    assert centralizer_order([2, 1]) == 2
    assert centralizer_order([1, 1, 1]) == 6
    assert centralizer_order([2, 2, 1]) == 8
    assert centralizer_order([]) == 1


def test_centralizer_orders_sum_reciprocally():
    # class sizes n!/z_mu partition the group
    for n in range(1, 12):
        fact = math.factorial(n)
        assert sum(fact // centralizer_order(mu) for mu in enumerate_partitions(n)) == fact


def test_column_orthogonality():
    for n in range(1, 11):
        lams = list(enumerate_partitions(n))
        for mu in lams:
            col = ColumnEvaluator(mu)
            assert sum(col.value(lam) ** 2 for lam in lams) == centralizer_order(mu)


def test_two_column_orthogonality_sample():
    # distinct columns are orthogonal; spot-check a few sizes
    for n in (5, 6, 7):
        lams = list(enumerate_partitions(n))
        cols = [ColumnEvaluator(mu) for mu in lams]
        for i in range(len(lams)):
            for j in range(i + 1, len(lams)):
                dot = sum(cols[i].value(lam) * cols[j].value(lam) for lam in lams)
                assert dot == 0, (lams[i].parts, lams[j].parts)


def test_frobenius_oracle_matches_evaluator():
    # the two share no code: the oracle expands a_delta * p_mu
    assert frobenius_character((2, 1), (3,)) == -1
    assert frobenius_character((), ()) == 1
    for n in range(9):
        lams = list(enumerate_partitions(n))
        for mu in lams:
            col = ColumnEvaluator(mu)
            for lam in lams:
                assert frobenius_character(lam, mu) == col.value(lam), (lam.parts, mu.parts)


def test_row_orthogonality_sample():
    for n in (5, 6):
        lams = list(enumerate_partitions(n))
        cols = [(mu, ColumnEvaluator(mu)) for mu in lams]
        fact = math.factorial(n)
        for a in range(len(lams)):
            for b in range(a, len(lams)):
                dot = sum(
                    (fact // centralizer_order(mu)) * col.value(lams[a]) * col.value(lams[b])
                    for mu, col in cols
                )
                assert dot == (fact if a == b else 0), (lams[a].parts, lams[b].parts)


@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=120, deadline=None)
def test_conjugate_row_twists_by_sign(n, data):
    # chi_{lam'}(mu) = sign(mu) * chi_lam(mu)
    lams = list(enumerate_partitions(n))
    lam = data.draw(st.sampled_from(lams))
    mu = data.draw(st.sampled_from(lams))
    sign = -1 if (n - len(mu.parts)) % 2 else 1
    assert mn_character(conjugate(lam), mu) == sign * mn_character(lam, mu)


# ---------------------------------------------------------------------------
# the whole-table kernel: rows packed as signed W-bit lanes


def pack(values, width):
    return sum(v << (k * width) for k, v in enumerate(values))


def unpack(x, width, lanes):
    # lane by lane, the way the kernel never reads them
    out = []
    for _ in range(lanes):
        v = x & ((1 << width) - 1)
        if v >> (width - 1):
            v -= 1 << width
        out.append(v)
        x = (x - v) >> width
    return out


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_lane_packing_truncation_and_zero_lanes(data):
    width = data.draw(st.sampled_from([64, 128]))
    bound = (1 << (width - 2)) - 1
    lane = st.one_of(
        st.just(0),
        st.integers(-3, 3),
        st.sampled_from([bound, -bound]),
        st.integers(-bound, bound),
    )
    values = data.draw(st.lists(lane, min_size=1, max_size=40))
    x = pack(values, width)
    assert unpack(x, width, len(values)) == values
    cut = data.draw(st.integers(1, len(values)))
    assert _truncate(x, (1 << (width * cut)) - 1) == pack(values[:cut], width)
    flags = sum(1 << (k * width + width - 1) for k, v in enumerate(values) if v == 0)
    assert _zero_lanes(x, width, _lane_ones(width, len(values))) == flags


def test_lane_width_is_the_least_that_holds_every_character():
    # |chi| <= f^lam <= sqrt(n!), and W must keep sqrt(n!) < 2^(W - 2)
    for n in range(80):
        width = _lane_width(n)
        assert width % 64 == 0
        assert math.factorial(n) < 1 << (2 * width - 4), n
        assert width == 64 or math.factorial(n) >= 1 << (2 * width - 132), n
    assert [_lane_width(n) for n in (33, 34, 56, 57)] == [64, 128, 128, 192]


def orbit_keys(n):
    # smaller beta-set mask of each conjugate orbit, in enumerate_partitions order
    keys = {}
    for lam in enumerate_partitions(n):
        mask = beta_mask(lam.parts)
        keys.setdefault(min(mask, beta_mask(conjugate(lam).parts)), None)
    return list(keys)


def test_kernel_rows_match_evaluator():
    for n in range(15):
        columns = list(enumerate_partitions(n))[::-1]  # ascending lex
        evaluators = [ColumnEvaluator(mu) for mu in columns]
        width = _lane_width(n)
        rows = list(_row_vectors(n, _orbits(enumerate_partitions(n))))
        assert [key for key, _ in rows] == orbit_keys(n), n
        for key, row in rows:
            got = unpack(row, width, len(columns))
            assert row == pack(got, width), (n, key)
            want = [col.value_mask(key) for col in evaluators]
            assert got == want, (n, mask_parts(key))


def test_kernel_zeros_match_frobenius_oracle():
    for n in range(11):
        columns = list(enumerate_partitions(n))[::-1]
        width = _lane_width(n)
        ones = _lane_ones(width, len(columns))
        for key, row in _row_vectors(n, _orbits(enumerate_partitions(n))):
            flags = _zero_lanes(row, width, ones)
            lam = mask_parts(key)
            want = {k for k, mu in enumerate(columns) if frobenius_character(lam, mu) == 0}
            got = {k for k in range(len(columns)) if flags >> (k * width + width - 1) & 1}
            assert got == want, (n, lam)
            assert flags.bit_count() == len(want)


def test_warm_row_store_matches_cold_rows_and_evaluator(monkeypatch):
    # the complete vectors of rows of at most SMALL_ROW_MAX outlive the table
    # that made them.  On one store, the rows of n = 0..16 visited in a
    # shuffled order equal those made on an empty store and the evaluator's
    # values, at W = 64 and, with _lane_width patched, at W = 128; each width
    # keeps entries of its own
    ns = list(range(17))
    random.Random(16).shuffle(ns)
    keys = {n: list(_orbits(enumerate_partitions(n))) for n in ns}
    want = {}
    for n in ns:
        columns = list(enumerate_partitions(n))[::-1]  # ascending lex
        evaluators = [ColumnEvaluator(mu) for mu in columns]
        want[n] = [[col.value_mask(key) for col in evaluators] for key in keys[n]]
    stores = characters._SMALL_ROWS
    for width in (64, 128):
        monkeypatch.setattr(characters, "_lane_width", lambda n: width)
        cold = {}
        for n in ns:
            stores.pop(width, None)
            cold[n] = list(_row_vectors(n, keys[n]))
        stores.pop(width, None)
        for n in ns:
            rows = list(_row_vectors(n, keys[n]))
            assert rows == cold[n], (width, n)
            got = [unpack(row, width, count_p(n)) for _, row in rows]
            assert got == want[n], (width, n)
    assert set(stores) == {64, 128}
    assert stores[64].keys() == stores[128].keys()
    for mask, value in stores[64].items():
        lanes = count_p(sum(mask_parts(mask)))
        assert unpack(value, 64, lanes) == unpack(stores[128][mask], 128, lanes), mask


def test_row_store_stays_within_its_bound(monkeypatch):
    # after the tables of n = 0..20 at W = 64, and of n = 14 at W = 128,
    # every key is the canonical mask of a partition of at most
    # SMALL_ROW_MAX, every value is the complete vector of its row as a
    # residue, and the lanes stored per width are within sum p(m)^2
    for n in range(21):
        characters._whole_table.cache_clear()
        characters._whole_table(n)
    monkeypatch.setattr(characters, "_lane_width", lambda n: 128)
    list(_row_vectors(14, _orbits(enumerate_partitions(14))))
    characters._whole_table.cache_clear()
    bound = sum(count_p(m) ** 2 for m in range(characters.SMALL_ROW_MAX + 1))
    stores = characters._SMALL_ROWS
    assert set(stores) == {64, 128}
    evaluators = {}
    for width, store in stores.items():
        lanes = 0
        for mask, value in store.items():
            m = sum(mask_parts(mask))
            assert mask == canonical_mask(mask) and m <= characters.SMALL_ROW_MAX, (width, mask)
            full = (1 << (width * count_p(m))) - 1
            assert 0 <= value <= full, (width, mask)
            if m not in evaluators:
                columns = list(enumerate_partitions(m))[::-1]
                evaluators[m] = [ColumnEvaluator(mu) for mu in columns]
            want = [col.value_mask(mask) for col in evaluators[m]]
            assert unpack(_truncate(value, full), width, count_p(m)) == want, (width, mask)
            lanes += count_p(m)
        assert lanes <= bound, width
