import copy
import pickle
from collections import Counter
from itertools import product
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corz.abacus import (
    Abacus,
    _least_weight,
    _witness_free_abaci,
    abacus_size,
    bead_jump_witness,
    count_cores,
    enumerate_cores,
    extremal_abacus,
    from_abacus,
    max_regular_core,
    n_ell,
    swap_columns,
    to_abacus,
)
from corz.partitions import bead_positions, beta_mask, enumerate_partitions, is_core, is_regular
from reference import hook_lengths


def test_abacus_validation():
    with pytest.raises(ValueError):
        Abacus(1, (0,))
    with pytest.raises(ValueError):
        Abacus(3, (0, 1))
    with pytest.raises(ValueError):
        Abacus(3, (0, -1, 2))
    # the fields are ints, and the heights a tuple, so the value hashes; a
    # bool is neither a modulus nor a height
    for ell, cols in (
        (3, [0, 1, 2]),
        (3, (0, True, 2)),
        (3, (0, 1.5, 2)),
        (3.0, (0, 1, 2)),
        (True, (0, 1)),
    ):
        with pytest.raises(ValueError):
            Abacus(ell, cols)
    ab = Abacus(3, (0, 2, 1))
    assert ab.canonical
    assert ab.beads() == 3
    assert not Abacus(3, (1, 0, 0)).canonical


def test_abacus_is_an_immutable_value():
    ab = Abacus(3, (0, 2, 1))
    same = Abacus(ell=3, cols=(0, 2, 1))
    assert ab == same and hash(ab) == hash(same) and len({ab, same}) == 1
    assert ab != Abacus(3, (0, 1, 2)) and ab != (3, (0, 2, 1))
    assert repr(ab) == "Abacus(ell=3, cols=(0, 2, 1))"
    for name in ("ell", "cols", "other"):
        with pytest.raises(AttributeError):
            setattr(ab, name, 4)
    with pytest.raises(AttributeError):
        del ab.cols
    assert (ab.ell, ab.cols) == (3, (0, 2, 1))
    assert pickle.loads(pickle.dumps(ab)) == ab and copy.copy(ab) == ab


def test_structure_numbers_are_first_column_hooks():
    # the beads of the beta-set mask, B_i = lam_i - i + s, are hook lengths
    for n in range(16):
        for lam in enumerate_partitions(n):
            bs = list(bead_positions(beta_mask(lam.parts)))
            assert bs == sorted(set(bs))
            assert all(b in hook_lengths(lam) for b in bs)


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
    for ell in (2, 3, 5, 7, 11, 13):
        for n in range(26):
            via_filter = {lam for lam in enumerate_partitions(n) if is_core(lam, ell)}
            via_abacus = set(enumerate_cores(n, ell))
            assert via_filter == via_abacus, (n, ell)
            assert len(via_filter) == count_cores(n, ell), (n, ell)


def test_enumerate_cores_order():
    # by number of parts, then by column heights (b_1, ..., b_{ell-1})
    for ell in (2, 3, 5, 7, 11):
        for n in range(61):
            keys = [(len(lam), to_abacus(lam, ell).cols) for lam in enumerate_cores(n, ell)]
            assert keys == sorted(keys), (n, ell)


def test_least_weight_is_the_brute_force_minimum():
    # least sum_j (ell*C(b_j,2) + j*b_j) over every height vector of
    # columns i..ell-1 holding m beads
    for ell in range(2, 8):
        for i in range(1, ell):
            for m in range(11):
                least = min(
                    sum(ell * b * (b - 1) // 2 + j * b for j, b in enumerate(heights, i))
                    for heights in product(range(m + 1), repeat=ell - i)
                    if sum(heights) == m
                )
                assert _least_weight(ell, i, m) == least, (ell, i, m)


def test_enumerate_cores_counts_match_the_series():
    # the exact bounds prune no core.  At ell = 11 and 13 the cores of
    # n <= 150 number 14 and 75 million, so those moduli stop at n = 40
    for ell in (2, 3, 4, 5, 6, 7, 11, 13):
        for n in range(151 if ell < 11 else 41):
            assert sum(1 for _ in enumerate_cores(n, ell)) == count_cores(n, ell), (n, ell)


def test_every_partition_is_a_core_of_a_larger_modulus():
    # no hook of a partition of n exceeds n, so for ell > n every one is an
    # ell-core; at ell = 499 the walk puts every bead in the first row
    for ell in (13, 499):
        for n in range(13):
            cores = list(enumerate_cores(n, ell))
            assert len(cores) == len(set(cores)) == count_cores(n, ell), (n, ell)
            assert set(cores) == set(enumerate_partitions(n)), (n, ell)


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
    # a bool or float index would swap or fail as a number
    ab = Abacus(5, (0, 3, 1, 2, 0))
    for i, j in ((True, 2), (1.0, 2), (1, 2.0)):
        with pytest.raises(ValueError, match=r"^[ij] must be an integer, got "):
            swap_columns(ab, i, j)


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


def test_bead_jump_witness_rejects_composite_moduli():
    # (0,1,5,5) splits at k = 1, yet its 4-core (9,9,7,7,5,5,3,3,1,1,1) has
    # no part divisible by 4: the witness claim needs a prime modulus
    ab = Abacus(4, (0, 1, 5, 5))
    assert is_core(from_abacus(ab), 4) and is_regular(from_abacus(ab), 4)
    for ell, cols in ((4, (0, 1, 5, 5)), (4, (0, 0, 0, 0)), (6, (0, 7, 0, 0, 0, 0))):
        with pytest.raises(ValueError, match="prime"):
            bead_jump_witness(Abacus(ell, cols))


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


def test_max_regular_core():
    assert max_regular_core(2) == 1
    assert max_regular_core(3) == 10
    # n_ell is a bound that is not attained: at ell = 5 it is 440
    assert max_regular_core(5) == 198
    # smaller regular cores exist too, down to the empty partition
    for lam in ((4, 2, 1, 1), ()):
        assert is_core(lam, 3) and is_regular(lam, 3)
    for ell in (-1, 0, 1, 4, 6, 9):
        with pytest.raises(ValueError):
            max_regular_core(ell)
    for ell in (5.0, True):
        with pytest.raises(ValueError, match="^ell must be an integer, got "):
            max_regular_core(ell)


def _has_split(cols, ell):
    # the definition: some k leaves every height <= k or >= k + ell, and one >= k + ell
    return any(
        all(b <= k or b >= k + ell for b in cols) and any(b >= k + ell for b in cols)
        for k in range(max(cols) + 1)
    )


def test_witness_free_walk_counts_and_distinct_canonical_abaci():
    for ell, want in ((2, 2), (3, 15), (5, 10845)):
        # each gap vector's sorted heights h_1..h_{ell-1}, arranged over
        # columns 1..ell-1 in (ell-1)!/prod(mult!) distinct ways
        formula = 0
        for gaps in product(range(ell), repeat=ell - 1):
            heights = [sum(gaps[: i + 1]) for i in range(ell - 1)]
            mults = Counter(heights).values()
            formula += factorial(ell - 1) // prod(factorial(m) for m in mults)
        walk = list(_witness_free_abaci(ell))
        assert len(walk) == formula == want
        assert len(set(walk)) == len(walk)
        assert all(ab.canonical and ab.ell == ell for ab in walk)


def test_witness_free_walk_is_exactly_the_split_free_abaci():
    for ell, top in ((3, 9), (5, 6)):
        walk = {ab.cols for ab in _witness_free_abaci(ell)}
        for rest in product(range(top), repeat=ell - 1):
            cols = (0, *rest)
            assert (cols in walk) == (not _has_split(cols, ell)), cols
            assert (bead_jump_witness(Abacus(ell, cols)) is None) == (cols in walk), cols


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
