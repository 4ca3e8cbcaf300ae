"""Exact symmetric-group characters by border-strip removal.

Strips are removed on the beta-set bitmask of the row (see partitions): a
strip of length k moves a bead from b down to an empty position b - k, and
its height is the number of beads strictly between the two.  One generator
of these moves serves border_strips and the Murnaghan-Nakayama evaluator.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .partitions import (
    Partition,
    PartitionLike,
    beta_mask,
    canonical_mask,
    hook_mask,
    hook_multiset,
    mask_parts,
    strip_ends,
)


@dataclass(frozen=True)
class BorderStrip:
    """One removable rim strip: its length, height, and what remains."""

    length: int
    height: int
    remainder: Partition


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


def border_strips(lam: PartitionLike, length: int) -> list[BorderStrip]:
    """All removable border strips of the given length, longest-beta first."""
    lam = Partition.of(lam)
    if length < 1:
        raise ValueError("strip length must be positive")
    return [
        BorderStrip(length, height, Partition._from_desc(mask_parts(rest)))
        for rest, height in _strips(beta_mask(lam.parts), length)
    ]


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


def quick_vanish(lam: PartitionLike, mu: PartitionLike) -> bool:
    """True when some part of mu is not a hook length of lam, which forces
    chi_lam(mu) = 0.  False promises nothing."""
    hooks = hook_mask(beta_mask(Partition.of(lam).parts))
    return any(not hooks >> p & 1 for p in Partition.of(mu).parts)


def dimension(lam: PartitionLike) -> int:
    """Degree of the irreducible labeled by lam: n! over the hook product."""
    lam = Partition.of(lam)
    return math.factorial(lam.n) // hook_multiset(lam).product()


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
