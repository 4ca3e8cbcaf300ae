"""Textbook definitions the tests compare corz against.  Only mask_strips,
the strip generator the Murnaghan-Nakayama kernel inlines, uses beta-sets."""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from corz.numtheory import bernoulli_number
from corz.partitions import Partition, canonical_mask, strip_ends


def conjugate(lam):
    """Transpose of the Young diagram (column lengths become parts)."""
    parts = Partition.of(lam).parts
    conj = [0] * (parts[0] if parts else 0)
    for p in parts:
        for j in range(p):
            conj[j] += 1
    return Partition(conj)


def mask_strips(mask, k):
    """(canonical remaining beta-set, height) for every length-k border strip
    of the beta-set mask, highest landing position first."""
    ends = strip_ends(mask, k)
    while ends:
        end = 1 << (ends.bit_length() - 1)
        ends ^= end
        top = end << k
        # the landing position is empty, so beads in [end, top) lie strictly between
        yield canonical_mask(mask ^ top ^ end), (mask & (top - end)).bit_count()


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


def frobenius_character(lam, mu):
    """chi^lam(mu) by Frobenius' formula: the coefficient of x^(lam + delta) in
    a_delta * p_mu over r = len(lam) variables, delta = (r-1, ..., 1, 0), in
    exact integers (Macdonald, Symmetric Functions, I.7).

    a_delta = sum over permutations d of delta of sgn(d) x^d, so the value is
    sum_d sgn(d) [x^(lam + delta - d)] p_mu, and [x^alpha] p_mu counts the ways
    to send each part of mu to a variable so that alpha_j is the sum of the
    parts sent to x_j.  No border strip is removed anywhere.
    """
    lam = Partition.of(lam).parts
    mu = Partition.of(mu).parts
    if sum(lam) != sum(mu):
        raise ValueError("lam and mu must be partitions of the same n")
    return sum(
        sign * _power_sum_coefficient(mu, alpha) for alpha, sign in _alternant_terms(lam).items()
    )


@lru_cache(maxsize=None)
def _alternant_terms(lam):
    # {alpha: summed sgn(d)} over the permutations d of delta with
    # alpha = lam + delta - d >= 0; alpha sorted with zeros dropped, since
    # [x^alpha] p_mu does not depend on the order of the variables
    r = len(lam)
    target = [p + r - 1 - j for j, p in enumerate(lam)]
    terms = Counter()

    def place(j, free, alpha, sign):
        # d_j, the exponent of x_j in the term of a_delta, from the unused values
        if j == r:
            terms[tuple(sorted(a for a in alpha if a))] += sign
            return
        for k, d in enumerate(free):
            if d <= target[j]:
                # free is descending: the k values before d, all larger, come
                # later in d, and each makes one inversion
                flipped = -sign if k % 2 else sign
                place(j + 1, free[:k] + free[k + 1 :], alpha + [target[j] - d], flipped)

    place(0, list(range(r - 1, -1, -1)), [], 1)
    return terms


@lru_cache(maxsize=None)
def _power_sum_coefficient(parts, alpha):
    # ways to send each of parts to one of the variables, whose sums must be
    # alpha (sorted, zeros dropped; variables with equal sums are distinct)
    if not parts:
        return 0 if alpha else 1
    m, rest = parts[0], parts[1:]
    total = 0
    for v in set(alpha):
        if v >= m:
            left = list(alpha)
            left.remove(v)
            if v > m:
                left.append(v - m)
            total += alpha.count(v) * _power_sum_coefficient(rest, tuple(sorted(left)))
    return total
