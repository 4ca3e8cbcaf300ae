import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corz.abacus import (
    Abacus,
    abacus_size,
    bead_jump_witness,
    canonicalize,
    count_cores,
    enumerate_cores,
    extremal_abacus,
    from_abacus,
    n_ell,
    search_max_regular_core,
    structure_numbers,
    swap_columns,
    to_abacus,
)
from corz.partitions import Partition, count_p, enumerate_partitions, is_core, is_regular


def test_abacus_validation():
    with pytest.raises(ValueError):
        Abacus(1, (0,))
    with pytest.raises(ValueError):
        Abacus(3, (0, 1))
    with pytest.raises(ValueError):
        Abacus(3, (0, -1, 2))
    ab = Abacus(3, (0, 2, 1))
    assert ab.canonical
    assert ab.beads() == 3
    assert not Abacus(3, (1, 0, 0)).canonical


def test_structure_numbers_examples():
    # B_i = lam_i - i + s, strictly decreasing
    assert structure_numbers([4, 2, 1]) == (6, 3, 1)
    assert structure_numbers([1]) == (1,)
    assert structure_numbers([]) == ()
    assert structure_numbers([3, 3, 3]) == (5, 4, 3)


def test_structure_numbers_are_first_column_hooks():
    from corz.partitions import hook_multiset

    for n in range(16):
        for lam in enumerate_partitions(n):
            bs = structure_numbers(lam)
            assert list(bs) == sorted(bs, reverse=True)
            assert all(b in hook_multiset(lam).counts for b in bs)


def test_to_abacus_examples():
    # (4,2) is a 3-core with beta set {5,2}, both in residue class 2
    assert to_abacus([4, 2], 3) == Abacus(3, (0, 0, 2))
    assert to_abacus([], 5) == Abacus(5, (0, 0, 0, 0, 0))
    assert to_abacus([1], 2) == Abacus(2, (0, 1))


def test_to_abacus_rejects_non_core():
    with pytest.raises(ValueError, match="not an? .*-core|not a"):
        to_abacus([2, 1], 3)


def test_from_abacus_requires_canonical():
    with pytest.raises(ValueError):
        from_abacus(Abacus(3, (1, 0, 0)))


def test_roundtrip_all_small_cores():
    for ell in (2, 3, 5, 7):
        for n in range(41):
            for lam in enumerate_cores(n, ell):
                assert from_abacus(to_abacus(lam, ell)) == lam


def test_canonicalize_idempotent():
    ab = Abacus(3, (2, 0, 1))
    can = canonicalize(ab)
    assert can == Abacus(3, (0, 1, 1))
    assert can.canonical
    assert canonicalize(can) == can
    assert from_abacus(can) == Partition([1, 1])
    assert canonicalize(Abacus(2, (0, 5))) == Abacus(2, (0, 5))


def test_rotation_preserves_partition():
    rng_cases = [
        (3, (0, 2, 4)),
        (3, (0, 5, 1)),
        (5, (0, 1, 2, 3, 4)),
        (2, (0, 3)),
    ]
    for ell, cols in rng_cases:
        ab = Abacus(ell, cols)
        rotated = Abacus(ell, (cols[-1] + 1,) + cols[:-1])
        assert from_abacus(canonicalize(rotated)) == from_abacus(canonicalize(ab))


@given(st.integers(min_value=2, max_value=7), st.data())
@settings(max_examples=150, deadline=None)
def test_rotation_property(ell, data):
    cols = tuple(
        data.draw(st.integers(min_value=0, max_value=9)) for _ in range(ell)
    )
    ab = Abacus(ell, cols)
    rotated = Abacus(ell, (cols[-1] + 1,) + cols[:-1])
    assert from_abacus(canonicalize(rotated)) == from_abacus(canonicalize(ab))


def test_abacus_size_matches_partition():
    for ell in (2, 3, 5):
        for n in range(30):
            for lam in enumerate_cores(n, ell):
                assert abacus_size(to_abacus(lam, ell)) == n


def test_count_cores_known_values():
    # coefficients of the core generating function, checked by hand for
    # small n against direct hook inspection
    assert [count_cores(n, 2) for n in range(11)] == [1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1]
    assert [count_cores(n, 3) for n in range(9)] == [1, 1, 2, 0, 2, 1, 2, 0, 1]
    assert [count_cores(n, 5) for n in range(8)] == [1, 1, 2, 3, 5, 2, 6, 5]
    assert count_cores(6, 5) == 6
    assert count_cores(100, 5) == 102


def test_count_cores_rejects_bad_modulus():
    with pytest.raises(ValueError):
        count_cores(5, 1)


def test_enumerate_cores_strategies_agree():
    for ell in (2, 3, 5, 7):
        for n in range(26):
            via_filter = {lam for lam in enumerate_partitions(n) if is_core(lam, ell)}
            via_abacus = set(enumerate_cores(n, ell))
            assert via_filter == via_abacus, (n, ell)
            assert len(via_filter) == count_cores(n, ell), (n, ell)


def test_enumerate_cores_order():
    # by number of parts, then by column heights (b_1, ..., b_{ell-1})
    for ell in (2, 3, 5):
        for n in range(30):
            keys = [(len(lam), to_abacus(lam, ell).cols) for lam in enumerate_cores(n, ell)]
            assert keys == sorted(keys), (n, ell)


def test_enumerate_cores_yields_cores():
    for ell in (2, 3, 4, 6):
        for n in range(18):
            for lam in enumerate_cores(n, ell):
                assert is_core(lam, ell), (lam.parts, ell)


def test_swap_columns_examples():
    grown = swap_columns(Abacus(3, (0, 4, 2)), 1, 2)
    assert grown == Abacus(3, (0, 2, 4))
    assert abacus_size(grown) == 16
    assert abacus_size(Abacus(3, (0, 4, 2))) == 14


def test_swap_columns_validation():
    with pytest.raises(ValueError):
        swap_columns(Abacus(3, (0, 2, 4)), 1, 2)  # needs b_j < b_i
    with pytest.raises(ValueError):
        swap_columns(Abacus(3, (0, 4, 2)), 0, 2)  # column 0 is pinned
    with pytest.raises(ValueError):
        swap_columns(Abacus(3, (0, 4, 2)), 2, 1)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_swap_columns_grows_size_and_keeps_beads(data):
    ell = data.draw(st.sampled_from((3, 4, 5, 7)))
    cols = (0,) + tuple(
        data.draw(st.integers(min_value=0, max_value=8)) for _ in range(ell - 1)
    )
    ab = Abacus(ell, cols)
    pairs = [
        (i, j)
        for i in range(1, ell)
        for j in range(i + 1, ell)
        if ab.cols[j] < ab.cols[i]
    ]
    if not pairs:
        return
    i, j = data.draw(st.sampled_from(pairs))
    grown = swap_columns(ab, i, j)
    assert grown.beads() == ab.beads()
    assert abacus_size(grown) > abacus_size(ab)


def test_bead_jump_witness_examples():
    # (0,4,0) encodes (7,5,3,1); the split at height 0 exposes the part 3
    j, part = bead_jump_witness(Abacus(3, (0, 4, 0)))
    assert (j, part) == (1, 3)
    assert bead_jump_witness(Abacus(3, (0, 2, 4))) is None
    assert bead_jump_witness(Abacus(3, (0, 0, 0))) is None
    j, part = bead_jump_witness(Abacus(2, (0, 3)))
    assert (j, part) == (1, 2)


def test_bead_jump_witness_names_actual_part():
    import random

    rng = random.Random(7)
    found = 0
    while found < 300:
        ell = rng.choice((2, 3, 5))
        cols = (0,) + tuple(rng.randrange(0, 10) for _ in range(ell - 1))
        ab = Abacus(ell, cols)
        witness = bead_jump_witness(ab)
        if witness is None:
            continue
        j, part = witness
        assert part % ell == 0 and part > 0
        assert part in from_abacus(ab).parts
        assert 0 < j < ell
        found += 1


def test_n_ell_values():
    assert n_ell(2) == 1
    assert n_ell(3) == 16
    assert n_ell(5) == 440
    for ell in (2, 3, 5, 7, 11):
        assert n_ell(ell) == abacus_size(extremal_abacus(ell))


def test_extremal_abacus_shape():
    assert extremal_abacus(3) == Abacus(3, (0, 2, 4))
    assert extremal_abacus(2) == Abacus(2, (0, 1))
    assert extremal_abacus(5) == Abacus(5, (0, 4, 8, 12, 16))
    for ell in (2, 3, 5, 7):
        ab = extremal_abacus(ell)
        assert ab.beads() == ell * (ell - 1) ** 2 // 2
        assert bead_jump_witness(ab) is None


def test_search_max_regular_core():
    assert search_max_regular_core(3, 200) == 10
    assert search_max_regular_core(3, 9) == 8  # (4,2,1,1) is a 3-regular 3-core
    assert search_max_regular_core(2, 200) == 1
    assert search_max_regular_core(2, 0) == 0  # empty partition qualifies
    # n_ell is a bound that is not attained: at ell = 5 it is 440
    assert search_max_regular_core(5, n_ell(5)) == 198


def test_no_regular_core_between_bound_and_200():
    # above the abacus bound every core keeps a part divisible by ell
    for ell in (2, 3):
        for n in range(n_ell(ell) + 1, 201):
            for lam in enumerate_cores(n, ell):
                assert not is_regular(lam, ell), (n, ell, lam.parts)


def test_cores_positive_for_moduli_4_through_9():
    for t in range(4, 10):
        for n in range(501):
            assert count_cores(n, t) > 0, (n, t)


def test_core_count_series_agrees_with_filter_path():
    for ell in (2, 3, 5, 7):
        for n in range(31):
            direct = sum(1 for lam in enumerate_partitions(n) if is_core(lam, ell))
            assert direct == count_cores(n, ell), (n, ell)
