"""Textbook definitions the tests compare corz against; none uses beta-sets."""

import math
from collections import Counter
from fractions import Fraction

from corz.numtheory import bernoulli_number
from corz.partitions import Partition


def conjugate(lam):
    """Transpose of the Young diagram (column lengths become parts)."""
    parts = Partition.of(lam).parts
    conj = [0] * (parts[0] if parts else 0)
    for p in parts:
        for j in range(p):
            conj[j] += 1
    return Partition(conj)


def hook_lengths(lam):
    """Counter of the hook lengths h(k, j) = (lam_k - k) + (lam'_j - j) + 1."""
    parts = Partition.of(lam).parts
    conj = conjugate(parts).parts
    return Counter(
        row - k + conj[j - 1] - j + 1
        for k, row in enumerate(parts, start=1)
        for j in range(1, row + 1)
    )


def bernoulli_polynomial(k, x):
    """B_k(x) = sum_j C(k, j) B_j x^(k-j)."""
    return sum(
        (math.comb(k, j) * bernoulli_number(j) * Fraction(x) ** (k - j) for j in range(k + 1)),
        Fraction(0),
    )
