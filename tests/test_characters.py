import math
import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corz.characters import (
    ColumnEvaluator,
    _strips,
    centralizer_order,
    dimension,
    mn_character,
)
from corz.partitions import (
    Partition,
    beta_mask,
    enumerate_partitions,
    hook_mask,
    is_regular,
    mask_parts,
)
from corz.abacus import enumerate_cores
from reference import conjugate, hook_lengths


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
    # (height, remaining parts) for every length-k strip, as the evaluator sees them
    return [(h, mask_parts(rest)) for rest, h in _strips(beta_mask(Partition.of(lam).parts), k)]


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


def test_size_mismatch_raises():
    with pytest.raises(ValueError, match="size mismatch"):
        mn_character([2, 1], [2, 2])
    with pytest.raises(ValueError, match="size mismatch"):
        ColumnEvaluator([3]).value(Partition([2, 2]))


def test_column_evaluator_rejects_nonpositive_parts():
    with pytest.raises(ValueError):
        ColumnEvaluator([2, 0, 1])
    with pytest.raises(ValueError):
        ColumnEvaluator([-3])


def test_column_evaluator_reuse_across_rows():
    col = ColumnEvaluator([2, 2, 1])
    values = {lam.parts: col.value(lam) for lam in enumerate_partitions(5)}
    assert values[(5,)] == 1
    assert values[(1, 1, 1, 1, 1)] == 1  # sign character: (-1)^(5-3)
    assert sum(v * v for v in values.values()) == centralizer_order([2, 2, 1])


def test_mn_invariant_under_part_reordering():
    rng = random.Random(11)
    for n in range(2, 9):
        for mu in enumerate_partitions(n):
            shuffled = list(mu.parts)
            rng.shuffle(shuffled)
            base = ColumnEvaluator(mu)
            perm = ColumnEvaluator(shuffled)
            for lam in enumerate_partitions(n):
                assert base.value(lam) == perm.value(lam), (lam.parts, shuffled)


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
