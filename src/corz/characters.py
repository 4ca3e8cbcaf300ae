"""Exact symmetric-group characters by border-strip removal.

Strips are removed on the beta-set bitmask of the row (see partitions): a
strip of length k moves a bead from b down to an empty position b - k, and
its height is the number of beads strictly between the two.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

from .partitions import (
    Partition,
    PartitionLike,
    bead_positions,
    beta_mask,
    canonical_mask,
    strip_ends,
)


def _strips(mask: int, k: int) -> Iterator[tuple[int, int]]:
    # (canonical remaining beta-set, height) for every length-k strip,
    # highest landing position first
    ends = strip_ends(mask, k)
    while ends:
        end = 1 << (ends.bit_length() - 1)
        ends ^= end
        top = end << k
        # the landing position is empty, so beads in [end, top) lie strictly between
        yield canonical_mask(mask ^ top ^ end), (mask & (top - end)).bit_count()


class ColumnEvaluator:
    """Character evaluations against one fixed cycle type.

    Strips are removed for the parts of mu in the order given (a Partition
    supplies them largest first); the value is independent of that order.
    Results are memoized on the canonical beta-set of the remaining
    partition; its size fixes how many parts were consumed.  One evaluator
    thus amortizes work across many row labels of the same column.
    Evaluators share nothing, which keeps per-column work independent.
    """

    def __init__(self, mu: PartitionLike | Sequence[int]):
        parts = tuple(mu.parts) if isinstance(mu, Partition) else tuple(mu)
        if any(p < 1 for p in parts):
            raise ValueError("cycle type parts must be positive")
        self.parts = parts
        self.size = sum(parts)
        self._memo: dict[int, int] = {}

    def value(self, lam: PartitionLike) -> int:
        lam = Partition.of(lam)
        if lam.n != self.size:
            raise ValueError(
                f"size mismatch: partition of {lam.n} against cycle type of {self.size}"
            )
        return self._eval(beta_mask(lam.parts), 0)

    def _eval(self, mask: int, idx: int) -> int:
        if idx == len(self.parts):
            return 1
        cached = self._memo.get(mask)
        if cached is not None:
            return cached
        total = 0
        for rest, height in _strips(mask, self.parts[idx]):
            term = self._eval(rest, idx + 1)
            total += -term if height % 2 else term
        self._memo[mask] = total
        return total


def mn_character(lam: PartitionLike, mu: PartitionLike) -> int:
    """Exact character value chi_lam(mu) for partitions of the same size."""
    return ColumnEvaluator(Partition.of(mu)).value(lam)


def dimension(lam: PartitionLike) -> int:
    """Degree of the irreducible labeled by lam, by Frobenius' formula on its
    beta numbers b_1 < ... < b_r: n! prod_{i<j} (b_j - b_i) / prod_i b_i!."""
    lam = Partition.of(lam)
    beads = list(bead_positions(beta_mask(lam.parts)))
    num = math.factorial(lam.n)
    den = 1
    for j, b in enumerate(beads):
        den *= math.factorial(b)
        for a in beads[:j]:
            num *= b - a
    return num // den


def centralizer_order(mu: PartitionLike) -> int:
    """Order of the centralizer of a permutation of cycle type mu:
    prod_i i^{m_i} m_i! over part multiplicities m_i."""
    mu = Partition.of(mu)
    mult: dict[int, int] = {}
    for p in mu.parts:
        mult[p] = mult.get(p, 0) + 1
    out = 1
    for i, m in mult.items():
        out *= i**m * math.factorial(m)
    return out
