import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corz import partitions
from corz.characters import dimension
from corz.partitions import (
    Partition,
    bead_positions,
    beta_mask,
    canonical_mask,
    conjugate_mask,
    count_cores,
    count_p,
    count_p_regular,
    enumerate_partitions,
    hook_mask,
    is_core,
    is_regular,
    mask_parts,
)
from reference import conjugate, cores_by_convolution, hook_lengths, regular_by_convolution


def test_partition_normalizes_input():
    lam = Partition([1, 3, 0, 2, 3])
    assert lam.parts == (3, 3, 2, 1)
    assert lam.n == 9
    assert len(lam) == 4
    assert lam[0] == 3
    assert list(lam) == [3, 3, 2, 1]


def test_partition_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition([2, -1])
    # bool is an int subclass, but True and False are no parts
    for bad in ([2.5], ["2"], [None], [2, "1"], [True, 0, 3], [False]):
        with pytest.raises(ValueError):
            Partition(bad)


def test_partition_equality_and_hash():
    assert Partition([2, 1]) == Partition([1, 2])
    assert hash(Partition([2, 1])) == hash(Partition([2, 1, 0]))
    assert Partition([]) == Partition([0, 0])
    assert Partition([]).n == 0


def test_conjugate_small_cases():
    assert conjugate([4, 2, 1]).parts == (3, 2, 1, 1)
    assert conjugate([3, 3]).parts == (2, 2, 2)
    assert conjugate([]).parts == ()
    assert conjugate([5]).parts == (1, 1, 1, 1, 1)


def test_conjugate_is_involution_exhaustive():
    for n in range(31):
        for lam in enumerate_partitions(n):
            assert conjugate(conjugate(lam)) == lam


def test_conjugate_mask_matches_reference():
    self_conjugate = []
    for n in range(21):
        fixed = 0
        for lam in enumerate_partitions(n):
            mask = beta_mask(lam.parts)
            conj = conjugate_mask(mask)
            assert conj == beta_mask(conjugate(lam).parts), lam.parts
            # extra beads at the bottom give the same partition and conjugate
            assert conjugate_mask((mask << 3) | 0b111) == conj, lam.parts
            fixed += conj == mask
        self_conjugate.append(fixed)
    assert conjugate_mask(0) == 0 and conjugate_mask(0b1) == 0
    assert conjugate_mask(beta_mask((3, 2, 1))) == beta_mask((3, 2, 1))
    assert conjugate_mask(beta_mask((4, 1, 1, 1))) == beta_mask((4, 1, 1, 1))
    # self-conjugate partitions of n are as many as partitions of n into
    # distinct odd parts (OEIS A000700)
    assert self_conjugate == [1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 5, 5, 5, 6, 7]


def test_hook_multiset_known_tables():
    # hand-drawn diagrams, against the reference hook lengths
    assert hook_lengths([3, 2]) == Counter({1: 2, 2: 1, 3: 1, 4: 1})
    assert hook_lengths([2, 1]) == Counter({1: 2, 3: 1})
    assert hook_lengths([]) == Counter()


def test_hooks_invariant_under_conjugation():
    for n in range(26):
        for lam in enumerate_partitions(n):
            assert hook_lengths(lam) == hook_lengths(conjugate(lam))


def test_hook_length_formula_integrality():
    # Frobenius' beta-number formula against n! over the reference hook product
    for n in range(1, 26):
        for lam in enumerate_partitions(n):
            hooks = math.prod(h**m for h, m in hook_lengths(lam).items())
            assert dimension(lam) == Fraction(math.factorial(n), hooks), lam.parts


def test_is_core_definition_matches_hooks():
    # membership in the hook multiset is the defining property
    for n in range(21):
        for lam in enumerate_partitions(n):
            hooks = hook_lengths(lam)
            for ell in (2, 3, 4, 5, 7):
                expected = not any(h % ell == 0 for h in hooks)
                assert is_core(lam, ell) == expected, (lam.parts, ell)


def test_beta_mask_round_trips_with_extra_low_beads():
    for n in range(13):
        for lam in enumerate_partitions(n):
            mask = beta_mask(lam.parts)
            assert not mask & 1
            for t in range(4):
                padded = (mask << t) | ((1 << t) - 1)
                assert mask_parts(padded) == lam.parts
                assert canonical_mask(padded) == mask


def test_hook_mask_is_the_hook_length_set():
    for n in range(13):
        for lam in enumerate_partitions(n):
            hooks = hook_mask(beta_mask(lam.parts))
            got = {k for k in range(hooks.bit_length()) if hooks >> k & 1}
            assert got == set(hook_lengths(lam)), lam.parts


def test_is_core_examples():
    # hooks of (4,2) are {5,4,2,2,1,1}
    assert is_core([4, 2], 3)
    assert not is_core([4, 2], 5)
    assert not is_core([4, 2], 2)
    assert is_core([], 2)
    assert is_core([1], 2)
    assert not is_core([2, 1], 3)


def test_is_regular_checks_part_divisibility():
    assert is_regular([4, 2, 1], 3)
    assert not is_regular([6, 1], 3)
    assert is_regular([], 2)
    assert not is_regular([2], 2)
    assert is_regular([5, 5, 5], 3)


def test_count_p_known_values():
    # classic table
    known = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 10: 42, 20: 627, 50: 204226,
             100: 190569292}
    for n, want in known.items():
        assert count_p(n) == want
    assert count_p(200) == 3972999029388


def test_count_p_rejects_negative():
    with pytest.raises(ValueError):
        count_p(-1)


def test_enumerate_matches_count():
    for n in range(41):
        assert sum(1 for _ in enumerate_partitions(n)) == count_p(n)


def test_enumeration_order_is_reverse_lexicographic():
    got = [lam.parts for lam in enumerate_partitions(5)]
    assert got == [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1),
                   (1, 1, 1, 1, 1)]
    assert [lam.parts for lam in enumerate_partitions(0)] == [()]
    assert [lam.parts for lam in enumerate_partitions(1)] == [(1,)]
    for n in range(25):
        got = [lam.parts for lam in enumerate_partitions(n)]
        assert all(a > b for a, b in zip(got, got[1:])), n
        for parts in got:
            assert list(parts) == sorted(parts, reverse=True) and 0 not in parts, parts
            assert sum(parts) == n, parts
        assert len(got) == count_p(n), n


def test_negative_beta_set_masks_are_rejected():
    # a negative int has infinitely many set bits; it raises before any bead
    for mask in (-1, -6, -(1 << 70)):
        with pytest.raises(ValueError, match="nonnegative"):
            mask_parts(mask)
        with pytest.raises(ValueError, match="nonnegative"):
            list(bead_positions(mask))


def test_enumerated_partitions_are_distinct_objects():
    seen = list(enumerate_partitions(6))
    assert len(set(seen)) == count_p(6)


def test_count_p_regular_matches_filter():
    for a in (2, 3, 5, 7):
        for n in range(31):
            direct = sum(1 for lam in enumerate_partitions(n) if is_regular(lam, a))
            assert count_p_regular(n, a) == direct, (n, a)


def test_count_p_regular_equals_p_when_modulus_large():
    for n in range(20):
        assert count_p_regular(n, max(2, n + 1)) == count_p(n)
        assert count_p_regular(n, 97) == count_p(n)


def test_count_p_regular_known_values():
    # 2-regular = distinct parts
    assert [count_p_regular(n, 2) for n in range(10)] == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8]
    assert count_p_regular(6, 3) == 7
    assert count_p_regular(6, 5) == 10


def test_count_p_regular_rejects_bad_modulus():
    with pytest.raises(ValueError):
        count_p_regular(5, 1)


# Reference: the dense truncated products the series used to be built from,
# one (1 - q^k) factor at a time, independent of the pentagonal convolution.
SERIES_N = 1150


def _divide_one_minus(coeffs, k):
    # multiply by 1/(1 - q^k), truncated
    for m in range(k, len(coeffs)):
        coeffs[m] += coeffs[m - k]


def _multiply_one_minus(coeffs, k):
    # multiply by (1 - q^k), truncated
    for m in range(len(coeffs) - 1, k - 1, -1):
        coeffs[m] -= coeffs[m - k]


def test_series_match_dense_products():
    # 1/E(q) once; then E(q^a)/E(q) and E(q^a)^a/E(q) for every modulus
    partitions = [1] + [0] * SERIES_N
    for k in range(1, SERIES_N + 1):
        _divide_one_minus(partitions, k)
    assert partitions == [count_p(n) for n in range(SERIES_N + 1)]
    for a in range(2, 14):
        series = list(partitions)
        for power in range(a):
            for k in range(a, SERIES_N + 1, a):
                _multiply_one_minus(series, k)
            if power == 0:
                assert series == [count_p_regular(n, a) for n in range(SERIES_N + 1)], a
        assert series == [count_cores(n, a) for n in range(SERIES_N + 1)], a


def test_series_match_convolutions():
    # the direct convolutions, over their own pentagonal generator and
    # E(q)^ell built factor by factor
    upto = 3000
    for ell in (2, 3, 4, 5, 7, 11, 97, 499):
        assert [count_cores(n, ell) for n in range(upto + 1)] == cores_by_convolution(ell, upto), ell
    for a in (2, 3, 5, 7, 50):
        assert [count_p_regular(n, a) for n in range(upto + 1)] == regular_by_convolution(a, upto), a


def test_cores_below_the_modulus_are_all_partitions():
    # no hook of a partition of n < ell can have length ell
    for ell in (2, 3, 5, 13, 97, 499):
        assert [count_cores(n, ell) for n in range(ell)] == [count_p(n) for n in range(ell)], ell


def _fresh_series_tables(monkeypatch):
    monkeypatch.setattr(partitions, "_PENTAGONAL", ([], []))
    monkeypatch.setattr(partitions, "_P_CACHE", [1])
    monkeypatch.setattr(partitions, "_EULER_POWERS", {})
    monkeypatch.setattr(partitions, "_CORE_TABLES", {})


def _series_at(cells):
    # count_cores first, so that one large n grows its table before p(n)'s
    return {(n, ell): (count_cores(n, ell), count_p_regular(n, ell), count_p(n)) for n, ell in cells}


def test_series_do_not_depend_on_table_growth_order(monkeypatch):
    ells = (2, 3, 5, 7, 11, 97)
    cells = [(n, ell) for ell in ells for n in range(1201)]
    _fresh_series_tables(monkeypatch)
    want = _series_at(cells)
    orders = (
        sorted(cells, key=lambda cell: -cell[0]),  # descending n
        sorted(cells),  # moduli interleaved at each n
        [(1200, ell) for ell in ells] + cells,  # one large n first
    )
    for order in orders:
        _fresh_series_tables(monkeypatch)
        assert _series_at(order) == want


def test_series_reject_negative_n():
    with pytest.raises(ValueError):
        count_cores(-1, 5)
    with pytest.raises(ValueError):
        count_p_regular(-1, 5)


@given(st.lists(st.integers(min_value=1, max_value=30), min_size=0, max_size=12))
@settings(max_examples=200, deadline=None)
def test_conjugate_involution_property(parts):
    lam = Partition(parts)
    assert conjugate(conjugate(lam)) == lam
    assert conjugate(lam).n == lam.n


@given(st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=10))
@settings(max_examples=200, deadline=None)
def test_largest_hook_spans_diagram(parts):
    lam = Partition(parts)
    assert max(hook_lengths(lam)) == lam[0] + len(lam) - 1
