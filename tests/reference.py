"""Textbook definitions the tests compare corz against.  Only mask_strips,
the strip generator the Murnaghan-Nakayama kernel inlines, uses beta-sets.
The series convolutions, the Bernoulli recurrence and the window-bound scan
are direct forms of what corz computes by recurrences, tangent numbers and
prefix sums."""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from corz.numtheory import legendre
from corz.partitions import Partition, canonical_mask, count_p, strip_ends


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


_BERNOULLI = [Fraction(1)]


def bernoulli_number(m):
    """B_m with B_1 = -1/2, by the recurrence sum_{j<=m} C(m+1, j) B_j = 0
    for m >= 1, in Fractions."""
    while len(_BERNOULLI) <= m:
        k = len(_BERNOULLI)
        acc = Fraction(0)
        for j, bj in enumerate(_BERNOULLI):
            acc += math.comb(k + 1, j) * bj
        _BERNOULLI.append(-acc / (k + 1))
    return _BERNOULLI[m]


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


def pentagonal_terms(upto):
    """(g, sign) for the generalized pentagonal numbers 1 <= g <= upto,
    ascending: g = k(3k -+ 1)/2 with sign (-1)^k for k = 1, 2, ...  E(q) is
    1 + sum sign(g) q^g (Euler's pentagonal number theorem)."""
    k = 1
    while True:
        sign = -1 if k % 2 else 1
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g > upto:
                return
            yield g, sign
        k += 1


def euler_power(ell, upto):
    """Coefficients of E(q)^ell through q^upto, one sparse E(q) factor at a time."""
    terms = list(pentagonal_terms(upto))
    e = [1] + [0] * upto
    for _ in range(ell):
        e = [c + sum(sign * e[m - g] for g, sign in terms if g <= m) for m, c in enumerate(e)]
    return e


def cores_by_convolution(ell, upto):
    """c_ell(n) for n <= upto as sum_m e_m p(n - ell m), the coefficient of q^n
    in E(q^ell)^ell * 1/E(q), with e_m the coefficient of q^m in E(q)^ell."""
    e = euler_power(ell, upto // ell)
    return [sum(e[m] * count_p(n - ell * m) for m in range(n // ell + 1)) for n in range(upto + 1)]


def regular_by_convolution(a, upto):
    """p_a(n) for n <= upto as p(n) + sum sign(g) p(n - a g), the coefficient
    of q^n in E(q^a) * 1/E(q)."""
    return [
        count_p(n) + sum(sign * count_p(n - a * g) for g, sign in pentagonal_terms(n // a))
        for n in range(upto + 1)
    ]


def window_bound(ell):
    """max |sum of S(x) - mu over a run of consecutive x|, where S(x) sums
    (a / ell) over 1 <= a <= x and mu is the mean of S over a period, by
    trying every run of length at most one period from every start (S - mu
    sums to 0 over a period)."""
    chi = [legendre(a, ell) for a in range(ell)]
    partial = [sum(chi[: x + 1]) for x in range(ell)]
    # in units of 1/ell: ell (S(x) - mu) = ell S(x) - sum of S over a period
    total = sum(partial)
    vals = [ell * v - total for v in partial]
    best = 0
    for start in range(ell):
        acc = 0
        for off in range(ell):
            acc += vals[(start + off) % ell]
            best = max(best, abs(acc))
    return Fraction(best, ell)
