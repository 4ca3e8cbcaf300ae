"""Bead-table (abacus) combinatorics for ell-core partitions.

An abacus for modulus ell is the tuple of column heights (b_0, ..., b_{ell-1});
column i holds beads at positions ell*(m-1) + i for rows m = 1..b_i.  The bead
positions of a flush abacus are exactly the first-column hook lengths of an
ell-core, and every ell-core arises from a unique canonical abacus (b_0 = 0).
enumerate_cores walks the heights with exact bounds (m beads on columns
i..ell-1 weigh at least the sum of the m least positive integers of residue
>= i mod ell) and solves the last two columns as the root of a quadratic.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import accumulate, pairwise, permutations, product
from math import isqrt

from .numtheory import _is_prime
from .partitions import (
    Partition,
    PartitionLike,
    _require_int,
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
        _require_int(ell, "ell", 2)
        if not isinstance(cols, tuple) or any(type(b) is not int for b in cols):
            raise ValueError("column heights must be a tuple of integers")
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
    _require_int(ell, "ell", 2)
    lam = Partition.of(lam)
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


def _least_weight(ell: int, i: int, m: int) -> int:
    # least sum_j (ell*C(b_j,2) + j*b_j) for m beads on columns i..ell-1: the
    # m least integers of residue >= i, q rows of r = ell - i and e more
    r = ell - i
    q, e = divmod(m, r)
    return q * r * (ell * q + i - 1) // 2 + e * (ell * q + i) + e * (e - 1) // 2


def enumerate_cores(n: int, ell: int) -> Iterator[Partition]:
    """Every ell-core of n exactly once, by walking canonical abaci of size n.

    Cores come by increasing number of parts, then in lexicographic order of
    the column heights (b_1, ..., b_{ell-1}), not in the reverse-lexicographic
    order of enumerate_partitions.

    With s beads, n = sum_i (ell*C(b_i,2) + i*b_i) - C(s,2): a knapsack of
    s beads and weight t = n + C(s,2), pruned by exact bounds.  At most, m
    beads on columns i..ell-1 weigh as all in the last column.  At least,
    they weigh the sum of the m least positive integers of residue >= i, as
    bead b+1 of column j adds ell*b + j, rising in b.  That least for all s
    beads, less C(s,2), rises with s, so s stops at its first failure.  The
    last two columns take b and m - b beads, where ell*b^2 - (ell*m + 1)*b
    + ell*m*(m-1)/2 + (ell-1)*m = t; the roots sum to m + 1/ell, so at most
    one is integral.
    """
    _require_int(n, "n")
    _require_int(ell, "ell", 2)
    # the least-weight bound passes for s < top beads, and for no more
    top = 0
    while _least_weight(ell, 1, top) <= n + top * (top - 1) // 2:
        top += 1
    # runner[b]: beads in rows 1..b of column 0, shifted to column i by << i
    runner = list(accumulate(range(top - 1), lambda r, b: r | 1 << ell * b, initial=0))
    # the bounds on m < top beads: most[m] on any columns, least[i][m] on
    # columns i..ell-1, a row built when the walk first reaches column i
    most = [m * (ell * m + ell - 2) // 2 for m in range(top)]
    least: list[list[int] | None] = [None] * ell
    masks: list[int] = []

    def rec(i: int, m: int, t: int, mask: int) -> None:
        # m beads of weight t go on columns i..ell-1, and both bounds hold
        if m == 0:
            masks.append(mask)
        elif i == ell - 1:  # ell = 2: the bounds meet, so column 1 takes all
            masks.append(mask | runner[m] << i)
        elif i == ell - 2:
            # the constant term is the most weight less t, so no root is < 0
            c = ell * m + 1
            d = c * c - 4 * ell * (most[m] - t)
            r = isqrt(d)
            if r * r == d:
                for root in (c - r, c + r):
                    b, rest = divmod(root, 2 * ell)
                    if not rest and b <= m:
                        masks.append(mask | runner[b] << i | runner[m - b] << i + 1)
        else:
            row = least[i + 1]
            if row is None:
                row = least[i + 1] = [_least_weight(ell, i + 1, k) for k in range(top)]
            for b in range(m + 1):
                t2 = t - ell * b * (b - 1) // 2 - i * b
                if t2 < 0:
                    break
                m2 = m - b
                if row[m2] <= t2 <= most[m2]:
                    rec(i + 1, m2, t2, mask | runner[b] << i)

    for s in range(top):
        t = n + s * (s - 1) // 2
        if t <= most[s]:
            rec(1, s, t, 0)
        for mask in masks:
            # as in mask_parts: a bead's position less the beads below it
            parts = []
            for below in range(s - 1, -1, -1):
                bead = mask.bit_length() - 1
                parts.append(bead - below)
                mask ^= 1 << bead
            yield Partition._from_desc(tuple(parts))
        masks.clear()


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
    _require_int(i, "i", None)
    _require_int(j, "j", None)
    if not (1 <= i < j <= ab.ell - 1):
        raise ValueError("need 1 <= i < j <= ell - 1")
    if not ab.cols[j] < ab.cols[i]:
        raise ValueError("need b_j < b_i to grow the partition")
    cols = list(ab.cols)
    cols[i], cols[j] = cols[j], cols[i]
    return Abacus(ab.ell, tuple(cols))


def n_ell(ell: int) -> int:
    """(ell^6 - 2 ell^5 + 2 ell^4 - 3 ell^2 + 2 ell) / 24, the size of the
    extremal abacus: for prime ell, above it every ell-core has a part
    divisible by ell.  The bound is not attained: max_regular_core gives 10
    for ell = 3 (n_ell = 16) and 198 for ell = 5 (n_ell = 440).  It fails
    for composite ell: 4-regular 4-cores of 108, 110 and 113 exceed n_4 = 105."""
    _require_int(ell, "ell", 2)
    num = ell**6 - 2 * ell**5 + 2 * ell**4 - 3 * ell**2 + 2 * ell
    q, r = divmod(num, 24)
    if r:
        raise ArithmeticError(f"bound formula not integral at ell={ell}")
    return q


def extremal_abacus(ell: int) -> Abacus:
    """Canonical abacus (0, ell-1, 2(ell-1), ..., (ell-1)^2), for prime ell
    the largest one with no bead-jump witness; its size is n_ell(ell).  Its
    core still has parts divisible by ell: (6, 4, 2, 2, 1, 1) at ell = 3."""
    _require_int(ell, "ell", 2)
    return Abacus(ell, tuple(i * (ell - 1) for i in range(ell)))


def max_regular_core(ell: int) -> int:
    """R_ell, the largest size of an ell-core with no part divisible by ell,
    for prime ell (0 is the empty partition).  A regular core has no bead-jump
    witness, so scanning the finitely many witness-free abaci covers every n."""
    _require_int(ell, "ell", None)
    if not _is_prime(ell):
        raise ValueError(f"ell must be prime, got {ell}")
    return max(
        abacus_size(ab)
        for ab in _witness_free_abaci(ell)
        if all(p % ell for p in mask_parts(_bead_mask(ab.ell, ab.cols)))
    )
