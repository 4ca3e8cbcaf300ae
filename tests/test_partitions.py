import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corz import partitions
from corz.abacus import Abacus, enumerate_cores, extremal_abacus, n_ell, to_abacus
from corz.census import build_record
from corz.characters import dimension
from corz.numtheory import delta_ell
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
from reference import (
    conjugate,
    cores_by_convolution,
    cores_by_recurrence,
    hook_lengths,
    regular_by_convolution,
)


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


def test_regular_windows_match_the_convolution():
    # from 0, from an offset, and one n at a time, n <= 3000, moduli up to
    # 499, at strides 1, 2, 3, 7 and 1000; and windows from just below, at and
    # just above a g for pentagonal g, where the slice of g starts at index 1,
    # 0 and 0 at stride 1
    upto = 3000
    for a in (2, 3, 5, 7, 11, 50, 499):
        want = regular_by_convolution(a, upto)
        windows = ((0, upto), (777, 900), (777, upto), (0, 0), (1, 60), (a - 1, a + 1),
                   (2 * a, 2 * a + 5), (2999, 3000), (1234, 1234))
        for step in (1, 2, 3, 7, 1000):
            for lo, hi in windows:
                got = partitions._regular_window(a, lo, hi, step)
                assert got == want[lo : hi + 1 : step], (a, step, lo, hi)
        edges = [lo for g in (1, 2, 5, 7, 12, 15, 22, 26, 35, 40)
                 for lo in (a * g - 1, a * g, a * g + 1) if lo + 100 <= upto]
        for step in (1, 2, 3, 7):
            for lo in edges:
                got = partitions._regular_window(a, lo, lo + 100, step)
                assert got == want[lo : lo + 101 : step], (a, step, lo)
        one_at_a_time = [partitions._regular_window(a, n, n) for n in range(upto + 1)]
        assert one_at_a_time == [[v] for v in want], a
        assert [count_p_regular(n, a) for n in range(upto + 1)] == want, a


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


PACKED_ELLS = (2, 3, 4, 5, 7, 11, 97, 499)


@pytest.fixture(scope="module")
def one_series_cores():
    return {ell: cores_by_recurrence(ell, 3000) for ell in PACKED_ELLS}


@pytest.mark.parametrize("pass_bits", [1, 400, partitions._PASS_BITS])
def test_packed_growth_matches_the_one_series_recurrence(monkeypatch, one_series_cores, pass_bits):
    # one lane per pass, a few, and the production width.  The tables grow in
    # uneven steps from n = 0, some of them first alone, so passes start
    # from tables of unequal lengths; ell = 499 stays above n for a while
    _fresh_series_tables(monkeypatch)
    monkeypatch.setattr(partitions, "_PASS_BITS", pass_bits)
    count_cores(40, 7)
    count_cores(1234, 97)
    lengths = {ell: 1 for ell in PACKED_ELLS} | {7: 41, 97: 1235}
    for upto in (0, 1, 2, 13, 100, 101, 498, 500, 1150, 2999, 3000):
        p, tables = partitions._core_tables(PACKED_ELLS, upto)
        assert p is partitions._P_CACHE and len(p) > upto
        for ell, table in zip(PACKED_ELLS, tables):
            lengths[ell] = max(lengths[ell], upto + 1)
            assert table is partitions._CORE_TABLES[ell]
            assert table == one_series_cores[ell][: lengths[ell]], (pass_bits, upto, ell)


def test_one_modulus_grows_its_table_in_place(monkeypatch):
    # a pass of one lane runs the recurrence on the table itself: nothing is
    # packed or decoded, and the list object stays the same
    _fresh_series_tables(monkeypatch)
    table = partitions._core_tables((11,), 300)[1][0]
    count_p(2500)  # so that every recurrence below grows a c_11 table
    extend = partitions._extend_quotient
    grown = []

    def spied(series, upto, top):
        grown.append(series)
        return extend(series, upto, top)

    monkeypatch.setattr(partitions, "_extend_quotient", spied)
    want = cores_by_recurrence(11, 2000)
    for n in (301, 777, 2000):
        assert count_cores(n, 11) == want[n]
    assert partitions._core_tables((11, 11), 2500)[1] == [table, table]
    assert all(series is table for series in grown) and len(grown) == 4
    assert partitions._CORE_TABLES[11] is table and len(table) == 2501
    with pytest.raises(ValueError, match="ell must be at least 2"):
        partitions._core_tables((11, 1), 10)


def test_lane_widths_bound_every_value(one_series_cores):
    # each width holds every value through its n with the bit of margin the
    # decoding needs; the p width bounds the c_ell widths too
    p_bits, c_bits = 0, dict.fromkeys(PACKED_ELLS, 0)
    for m in range(3001):
        p_bits = max(p_bits, count_p(m).bit_length())
        width = partitions._p_width(m)
        assert width >= p_bits + 1, m
        for ell in PACKED_ELLS:
            c_bits[ell] = max(c_bits[ell], one_series_cores[ell][m].bit_length())
            assert width >= partitions._core_width(ell, m) >= c_bits[ell] + 1, (ell, m)


def _spy_on_passes(monkeypatch):
    # the series each _extend_quotient call grows
    extend = partitions._extend_quotient
    grown = []

    def spied(series, upto, top):
        grown.append(series)
        return extend(series, upto, top)

    monkeypatch.setattr(partitions, "_extend_quotient", spied)
    return grown


def test_p_and_the_moduli_grow_in_one_pass(monkeypatch, one_series_cores):
    # from fresh tables p is one more lane of the pass that grows c_2, c_3,
    # c_5 and c_7: one packed recurrence, no table extended on its own
    _fresh_series_tables(monkeypatch)
    grown = _spy_on_passes(monkeypatch)
    p, tables = partitions._core_tables((2, 3, 5, 7), 1150)
    assert len(grown) == 1
    assert all(grown[0] is not table for table in (p, *tables))
    assert p == [count_p(n) for n in range(1151)] and len(grown) == 1
    for ell, table in zip((2, 3, 5, 7), tables):
        assert table == one_series_cores[ell][:1151], ell


def test_count_p_grows_its_table_in_place(monkeypatch):
    # count_p alone runs a pass of the one p lane, which is the table itself:
    # nothing is packed or decoded, and the list object stays the same
    _fresh_series_tables(monkeypatch)
    table = partitions._P_CACHE
    grown = _spy_on_passes(monkeypatch)
    for n in (0, 1, 300, 300, 1000):
        count_p(n)
    assert len(grown) == 3 and all(series is table for series in grown)
    assert partitions._P_CACHE is table
    dense = [1] + [0] * 1000
    for k in range(1, 1001):
        _divide_one_minus(dense, k)
    assert table == dense


def test_series_reject_negative_n():
    with pytest.raises(ValueError):
        count_cores(-1, 5)
    with pytest.raises(ValueError):
        count_p_regular(-1, 5)


def test_enumerations_reject_sizes_that_are_not_ints():
    # a float n once walked as a number: 2.5 gave the parts (1.5, 1) and five
    # of 0.5, and 3.0 gave float parts that Partition refuses.  A bool is no
    # size or modulus either
    for n in (3.0, 2.5, True, False, "3"):
        with pytest.raises(ValueError, match="nonnegative integer"):
            list(enumerate_partitions(n))
        with pytest.raises(ValueError, match="nonnegative integer"):
            list(enumerate_cores(n, 3))
    for ell in (3.0, True, "3"):
        with pytest.raises(ValueError, match="integer at least 2"):
            list(enumerate_cores(6, ell))


def test_series_and_core_helpers_reject_sizes_that_are_not_ints():
    # the int answers first, so a cached entry cannot stand in for a float
    assert (n_ell(5), delta_ell(5), count_p(1)) == (440, 1, 1)
    # these once answered: 440.0, 1.0 and 1
    for call in (lambda: n_ell(5.0), lambda: delta_ell(5.0)):
        with pytest.raises(ValueError, match="ell must be an integer at least 2, got 5.0"):
            call()
    with pytest.raises(ValueError, match="n must be a nonnegative integer, got True"):
        count_p(True)
    # and these raised TypeError
    for call in (
        lambda: count_p(3.0),
        lambda: count_cores(6.0, 3),
        lambda: count_cores(6, 3.0),
        lambda: count_p_regular(6, 2.0),
        lambda: count_p_regular(6.0, 2),
        lambda: is_core([2, 1], 3.0),
        lambda: is_regular([2, 1], 3.0),
        lambda: to_abacus([2], 3.0),
        lambda: extremal_abacus(3.0),
        lambda: Abacus(3.0, (0, 1, 2)),
        lambda: build_record(6, 5.0),
        lambda: build_record(6.0, 5),
    ):
        with pytest.raises(ValueError, match=r"must be (a nonnegative|an) integer.*, got "):
            call()
    # an int out of range keeps the short message
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        count_p(-1)
    with pytest.raises(ValueError, match="^ell must be at least 2$"):
        count_cores(6, 1)


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
