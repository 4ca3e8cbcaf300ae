"""Exact symmetric-group characters by border-strip removal.

Strips are removed on the beta-set bitmask of the row (see partitions): a
strip of length k moves a bead from b down to an empty position b - k, and
its height is the number of beads strictly between the two.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .partitions import (
    Partition,
    PartitionLike,
    bead_positions,
    beta_mask,
    canonical_mask,
)


class ColumnEvaluator:
    """Character evaluations against one fixed cycle type.

    Strips are removed for the parts of mu in the order given (a Partition
    supplies them largest first); the value is independent of that order.
    Results are memoized on the canonical beta-set of the remaining
    partition; its size fixes how many parts were consumed.  The memo starts
    with the empty partition, so a strip for the last part finds its value
    there and makes no call.  One evaluator thus amortizes work across many
    row labels of the same column.
    Evaluators share nothing, which keeps per-column work independent.
    """

    def __init__(self, mu: PartitionLike | Sequence[int]):
        parts = tuple(mu.parts) if isinstance(mu, Partition) else tuple(mu)
        if any(p < 1 for p in parts):
            raise ValueError("cycle type parts must be positive")
        self.parts = parts
        self.size = sum(parts)
        self._memo: dict[int, int] = {0: 1}

    def value(self, lam: PartitionLike) -> int:
        lam = Partition.of(lam)
        if lam.n != self.size:
            raise ValueError(
                f"size mismatch: partition of {lam.n} against cycle type of {self.size}"
            )
        return self.value_mask(beta_mask(lam.parts))

    def value_mask(self, mask: int) -> int:
        """chi_lam(mu) for the row lam given by a beta-set mask, with or
        without extra beads at 0..t-1; lam must be a partition of self.size.
        The empty cycle type gives 1."""
        mask = canonical_mask(mask)
        cached = self._memo.get(mask)
        return self._eval(mask, 0) if cached is None else cached

    def _eval(self, mask: int, idx: int) -> int:
        # a strip of length k lands at an empty position `end` from the bead
        # at top = end << k; the beads strictly between give its height
        k = self.parts[idx]
        ends = (mask & ~(mask << k)) >> k
        total = 0
        memo = self._memo
        while ends:
            end = ends & -ends
            ends ^= end
            top = end << k
            rest = mask ^ top ^ end
            rest >>= ((rest + 1) & ~rest).bit_length() - 1
            term = memo.get(rest)
            if term is None:
                term = self._eval(rest, idx + 1)
            total += -term if (mask & (top - end)).bit_count() & 1 else term
        memo[mask] = total
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
