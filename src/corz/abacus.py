"""Bead-table (abacus) combinatorics for ell-core partitions.

An abacus for modulus ell is the tuple of column heights (b_0, ..., b_{ell-1});
column i holds beads at positions ell*(m-1) + i for rows m = 1..b_i.  The bead
positions of a flush abacus are exactly the first-column hook lengths of an
ell-core, and every ell-core arises from a unique canonical abacus (b_0 = 0).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import cache
from itertools import accumulate, pairwise, permutations, product

from .numtheory import _is_prime
from .partitions import (
    Partition,
    PartitionLike,
    bead_positions,
    beta_mask,
    count_cores,  # re-exported: corz.abacus.count_cores is public API
    mask_parts,
    strip_ends,
)


class Abacus:
    """Column heights of a bead table for a fixed modulus; immutable and
    hashable, equal when the modulus and the heights are."""

    __slots__ = ("ell", "cols")

    ell: int
    cols: tuple[int, ...]

    def __init__(self, ell: int, cols: tuple[int, ...]) -> None:
        if ell < 2:
            raise ValueError("ell must be at least 2")
        if len(cols) != ell:
            raise ValueError("need exactly ell column heights")
        if any(b < 0 for b in cols):
            raise ValueError("column heights must be nonnegative")
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Abacus")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable Abacus")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, since __setattr__ refuses
        return Abacus, (self.ell, self.cols)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ell, self.cols) == (other.ell, other.cols)

    def __hash__(self) -> int:
        return hash((self.ell, self.cols))

    def __repr__(self) -> str:
        return f"Abacus(ell={self.ell!r}, cols={self.cols!r})"

    @property
    def canonical(self) -> bool:
        return self.cols[0] == 0

    def beads(self) -> int:
        return sum(self.cols)


def to_abacus(lam: PartitionLike, ell: int) -> Abacus:
    """Canonical abacus of an ell-core; rejects partitions that are not cores."""
    lam = Partition.of(lam)
    if ell < 2:
        raise ValueError("ell must be at least 2")
    mask = beta_mask(lam.parts)
    if strip_ends(mask, ell):
        raise ValueError(f"not an {ell}-core: {lam!r}")
    # beads flush and none at position 0, so the first column is already empty
    cols = [0] * ell
    for b in bead_positions(mask):
        cols[b % ell] += 1
    return Abacus(ell, tuple(cols))


def _bead_mask(ell: int, cols: Sequence[int]) -> int:
    # beta-set bitmask of the bead positions ell*m + i, m < b_i
    mask = 0
    for i, b in enumerate(cols):
        for m in range(b):
            mask |= 1 << (ell * m + i)
    return mask


def from_abacus(ab: Abacus) -> Partition:
    """Partition whose first-column hooks are the bead positions of ab.

    Requires a canonical abacus (empty first column).
    """
    if not ab.canonical:
        raise ValueError("abacus is not canonical (first column must be empty)")
    return Partition._from_desc(mask_parts(_bead_mask(ab.ell, ab.cols)))


def abacus_size(ab: Abacus) -> int:
    """Size of the partition represented by a canonical abacus."""
    if not ab.canonical:
        raise ValueError("abacus is not canonical (first column must be empty)")
    ell = ab.ell
    beta_sum = 0
    s = 0
    for i, b in enumerate(ab.cols):
        beta_sum += ell * b * (b - 1) // 2 + i * b
        s += b
    return beta_sum - s * (s - 1) // 2


def _min_weight(ell: int, base: int, r: int, m: int) -> int:
    # Lower bound for sum of ell*C(b,2) + index*b over r columns holding m
    # beads whose indices start at base: the quadratic part is Schur-minimal
    # at an even spread and every bead sits at index >= base.
    if r == 0:
        return 0 if m == 0 else -1
    q, extra = divmod(m, r)
    quad = ell * (extra * (q + 1) * q // 2 + (r - extra) * q * (q - 1) // 2)
    return quad + base * m


def _max_weight(ell: int, m: int) -> int:
    # concentration maximizes the quadratic part; indices top out at ell - 1
    return ell * m * (m - 1) // 2 + (ell - 1) * m


def enumerate_cores(n: int, ell: int) -> Iterator[Partition]:
    """Every ell-core of n exactly once, by walking canonical abaci of size n.

    Cores come by increasing number of parts, then in lexicographic order of
    the column heights (b_1, ..., b_{ell-1}), not in the reverse-lexicographic
    order of enumerate_partitions.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if ell < 2:
        raise ValueError("ell must be at least 2")
    # Canonical abaci of partition size n, found per bead count s.  The size
    # identity n = sum_i (ell*C(b_i,2) + i*b_i) - C(s,2) turns each s into an
    # exact two-constraint knapsack: beads s and weight n + C(s,2).  Size is
    # not monotone in the heights, so pruning works on these bounds instead.
    cols = [0] * ell

    def rec(i: int, m: int, t: int) -> Iterator[Partition]:
        if i == ell:
            if m == 0 and t == 0:
                yield Partition._from_desc(mask_parts(_bead_mask(ell, cols)))
            return
        left = ell - 1 - i
        for b in range(m + 1):
            w = ell * b * (b - 1) // 2 + i * b
            if w > t:
                break
            m2 = m - b
            t2 = t - w
            if left == 0:
                if m2 or t2:
                    continue
            else:
                lo = _min_weight(ell, i + 1, left, m2)
                if lo > t2 or t2 > _max_weight(ell, m2):
                    continue
            cols[i] = b
            yield from rec(i + 1, m2, t2)
        cols[i] = 0

    # a core with s beads has exactly s positive parts, so s <= n
    for s in range(0, n + 1):
        lb = _min_weight(ell, 1, ell - 1, s)
        if lb < 0 or lb - s * (s - 1) // 2 > n:
            continue
        yield from rec(1, s, n + s * (s - 1) // 2)


def bead_jump_witness(ab: Abacus) -> tuple[int, int] | None:
    """A (column, part) pair certifying a part divisible by ell, if some row
    split leaves a column towering at least ell rows above it.

    A split height k is valid when every column height is <= k or >= k + ell
    with at least one of the latter; the lowest is the lower height of the
    first sorted jump of ell or more.  The returned part is divisible by ell
    and belongs to the lowest qualifying column.  Prime ell only.
    """
    if not ab.canonical:
        raise ValueError("abacus is not canonical (first column must be empty)")
    ell = ab.ell
    if not _is_prime(ell):
        raise ValueError(f"ell must be prime, got {ell}")
    cols = ab.cols
    for k, above in pairwise(sorted(cols)):
        if above - k >= ell:
            j = next(i for i, b in enumerate(cols) if b >= k + ell)
            mask = _bead_mask(ell, cols)
            # beads of column j in rows k+1 .. k+ell cover every residue mod ell;
            # as in mask_parts, a part is its bead's position less the beads below
            for row in range(k + 1, k + ell + 1):
                pos = ell * (row - 1) + j
                part = pos - (mask & ((1 << pos) - 1)).bit_count()
                if part % ell == 0:
                    return (j, part)
            raise AssertionError("row window missed a multiple of ell")
    return None


def _witness_free_abaci(ell: int) -> Iterator[Abacus]:
    # the canonical abaci without a bead-jump split: sorted heights, b_0 = 0
    # included, rise by less than ell at each step.  One sorted height list
    # per gap vector, then its distinct arrangements over columns 1..ell-1.
    for gaps in product(range(ell), repeat=ell - 1):
        for cols in sorted(set(permutations(accumulate(gaps)))):
            yield Abacus(ell, (0, *cols))


def swap_columns(ab: Abacus, i: int, j: int) -> Abacus:
    """Swap a taller earlier column i into a later position j (b_j < b_i,
    0 < i < j < ell); the represented partition strictly grows."""
    if not (1 <= i < j <= ab.ell - 1):
        raise ValueError("need 1 <= i < j <= ell - 1")
    if not ab.cols[j] < ab.cols[i]:
        raise ValueError("need b_j < b_i to grow the partition")
    cols = list(ab.cols)
    cols[i], cols[j] = cols[j], cols[i]
    return Abacus(ab.ell, tuple(cols))


@cache
def n_ell(ell: int) -> int:
    """(ell^6 - 2 ell^5 + 2 ell^4 - 3 ell^2 + 2 ell) / 24, the size of the
    extremal abacus: for prime ell, above it every ell-core has a part
    divisible by ell.  The bound is not attained: max_regular_core gives 10
    for ell = 3 (n_ell = 16) and 198 for ell = 5 (n_ell = 440).  It fails
    for composite ell: 4-regular 4-cores of 108, 110 and 113 exceed n_4 = 105."""
    if ell < 2:
        raise ValueError("ell must be at least 2")
    num = ell**6 - 2 * ell**5 + 2 * ell**4 - 3 * ell**2 + 2 * ell
    q, r = divmod(num, 24)
    if r:
        raise ArithmeticError(f"bound formula not integral at ell={ell}")
    return q


def extremal_abacus(ell: int) -> Abacus:
    """Canonical abacus (0, ell-1, 2(ell-1), ..., (ell-1)^2), for prime ell
    the largest one with no bead-jump witness; its size is n_ell(ell).  Its
    core still has parts divisible by ell: (6, 4, 2, 2, 1, 1) at ell = 3."""
    if ell < 2:
        raise ValueError("ell must be at least 2")
    return Abacus(ell, tuple(i * (ell - 1) for i in range(ell)))


def max_regular_core(ell: int) -> int:
    """R_ell, the largest size of an ell-core with no part divisible by ell,
    for prime ell (0 is the empty partition).  A regular core has no bead-jump
    witness, so scanning the finitely many witness-free abaci covers every n."""
    if not _is_prime(ell):
        raise ValueError(f"ell must be prime, got {ell}")
    return max(
        abacus_size(ab)
        for ab in _witness_free_abaci(ell)
        if all(p % ell for p in mask_parts(_bead_mask(ab.ell, ab.cols)))
    )
