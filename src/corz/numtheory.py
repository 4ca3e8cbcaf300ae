"""Quadratic characters, twisted divisor sums, and the exact core constants.

The headline operation is inv_alpha, the integer 1/alpha_ell.  It is computed
on two genuinely independent routes, and the two must agree:

- exact: a rational through the generalized Bernoulli number B_{k,chi},
  formed from k+1 terms with integer power sums of the character;
- numeric: a partial sum of the Dirichlet series L(chi, k), times
  (k-1)! ell^k sqrt(ell) / (2 pi)^k, all in integer fixed point.  Its length
  comes from the Abel tail bound W (N+1)^(-k), and inv_alpha's docstring
  bounds every rounding error next to that tail.

The module uses the standard library only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .partitions import count_cores


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


@lru_cache(maxsize=None)
def _check_odd_prime(ell: int) -> None:
    if ell % 2 == 0 or not _is_prime(ell):
        raise ValueError(f"ell must be an odd prime, got {ell}")


def legendre(a: int, ell: int) -> int:
    """Legendre symbol (a / ell) in {-1, 0, 1} for an odd prime ell."""
    _check_odd_prime(ell)
    r = pow(a % ell, (ell - 1) // 2, ell)
    return r - ell if r == ell - 1 else r


def sigma_twisted(n: int, ell: int) -> int:
    """Twisted divisor sum over d | n of (n/d / ell) * d^((ell-3)/2)."""
    if n < 1:
        raise ValueError("n must be positive")
    _require_core_prime(ell)
    return _twisted_divisor_sum(n, ell, (ell - 3) // 2)


def _twisted_divisor_sum(n: int, ell: int, e: int) -> int:
    # sum over d | n of (n/d / ell) * d^e, pairing each d <= sqrt(n) with n/d
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            cod = n // d
            total += legendre(cod, ell) * d**e
            if cod != d:
                total += legendre(d, ell) * cod**e
        d += 1
    return total


def _require_core_prime(ell: int) -> None:
    if ell < 5:
        raise ValueError(f"ell must be a prime >= 5, got {ell}")
    _check_odd_prime(ell)


def delta_ell(ell: int) -> int:
    """(ell^2 - 1) / 24, the cusp shift constant; integral for primes >= 5."""
    if ell < 2:
        raise ValueError("ell must be at least 2")
    q, r = divmod(ell * ell - 1, 24)
    if r:
        raise ValueError(f"(ell^2 - 1)/24 is not an integer for ell={ell}")
    return q


# ---------------------------------------------------------------------------
# Bernoulli machinery (exact rationals)

_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli_number(m: int) -> Fraction:
    """Bernoulli number B_m with B_1 = -1/2."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    while len(_BERNOULLI) <= m:
        k = len(_BERNOULLI)
        acc = Fraction(0)
        for j, bj in enumerate(_BERNOULLI):
            acc += math.comb(k + 1, j) * bj
        _BERNOULLI.append(-acc / (k + 1))
    return _BERNOULLI[m]


def generalized_bernoulli(k: int, ell: int) -> Fraction:
    """Generalized Bernoulli number B_{k,chi} for the quadratic character
    mod ell: ell^(k-1) * sum_a chi(a) B_k(a/ell).

    Expanding B_k(a/ell) and swapping the sums gives
    sum_j C(k, j) B_j ell^(j-1) S_(k-j) with the integer power sums
    S_i = sum_a chi(a) a^i, so only k+1 rational terms are formed.
    """
    _check_odd_prime(ell)
    chi = [legendre(a, ell) for a in range(1, ell)]
    power_sums = [sum(c * a**i for a, c in enumerate(chi, 1)) for i in range(k + 1)]
    acc = Fraction(0)
    for j in range(k + 1):
        acc += math.comb(k, j) * bernoulli_number(j) * Fraction(ell) ** (j - 1) * power_sums[k - j]
    return acc


def _window_bound(ell: int) -> int:
    # max |sum of chi over any run of consecutive integers|.  A full period
    # sums to zero, so every run sum is a difference of two prefix sums over
    # one period, and the largest is the max prefix less the min prefix
    prefix = list(accumulate((legendre(a, ell) for a in range(ell)), initial=0))
    return max(prefix) - min(prefix)


def _dirichlet_l_numeric(ell: int, s: int, n_terms: int, bits: int) -> int:
    # sum over m <= n_terms of chi(m) floor(2^bits / m^s): the partial sum of
    # L(chi, s) in fixed point with `bits` fraction bits, each floor off by
    # under one unit, so the whole within n_terms units.  Abel summation bounds
    # what the partial sum leaves out by W (N+1)^(-s), W the window bound.
    # One sum per residue class keeps the loop free of branches.
    one = 1 << bits
    acc = 0
    for r in range(1, ell):
        part = sum(one // m**s for m in range(r, n_terms + 1, ell))
        acc += part if legendre(r, ell) > 0 else -part
    return acc


def _pi_fixed(bits: int) -> int:
    # pi 2^bits within 2 units, by Machin: pi = 16 atan(1/5) - 4 atan(1/239).
    # Each series term floor(2^(bits+g) / ((2j+1) x^(2j+1))) errs by under one
    # unit, and the dropped tail by under one.  atan(1/5) takes under
    # (bits+g)/4 + 2 terms and atan(1/239) under (bits+g)/15 + 2, so the
    # weighted sum errs by under 5 (bits+g) + 64 < 2^(g-1) units before the
    # shift by the g guard bits
    guard = bits.bit_length() + 8
    one = 1 << (bits + guard)

    def atan_inv(x: int) -> int:
        total = term = one // x
        j = 1
        while term:
            term //= x * x
            j += 2
            total += term // j if j % 4 == 1 else -(term // j)
        return total

    return (16 * atan_inv(5) - 4 * atan_inv(239)) >> guard


def _iroot_ceil(x: int, k: int) -> int:
    """Least r >= 1 with r**k >= x, for integers x >= 1 and k >= 1."""
    lo, hi = 0, 1 << -(-x.bit_length() // k)  # lo**k < x <= hi**k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k < x:
            lo = mid
        else:
            hi = mid
    return hi


def _fixed_str(v: int, bits: int) -> str:
    # v / 2^bits as a decimal, truncated to 12 places; values reach hundreds
    # of digits, beyond a float
    whole, frac = divmod(abs(v), 1 << bits)
    return f"{'-' if v < 0 else ''}{whole}.{(frac * 10**12) >> bits:012d}"


@lru_cache(maxsize=None)
def inv_alpha(ell: int) -> int:
    """The integer 1/alpha_ell = ((ell-3)/2)! ell^(ell/2) L(chi, (ell-1)/2) / (2 pi)^((ell-1)/2).

    Exact route: the critical L-value collapses, via the functional equation
    and the Gauss sum sqrt(ell) (or i sqrt(ell)), to
    (-1)^(1+(k-d)/2) * ell * B_{k,chi} / (ell - 1) with k = (ell-1)/2 and
    d = 0 or 1 matching the parity of the character; all pi and sqrt(ell)
    factors cancel symbolically.

    Numeric route, in integers at B fraction bits: the value is F L with
    F = M sqrt(ell) / (2 pi)^k, M = (k-1)! ell^k exact and L = L(chi, k).
    Since pi > 3.14159, F^2 < M^2 ell / 6.28318^(2k), which fixes h with
    F < 2^h and the least N with W (N+1)^(-k) F <= 1e-9, by an exact 2k-th
    root.  Then B = h + bitlen(20k + N) + 41, and the errors are:

    - sqrt(ell) as isqrt(ell 2^(2B)): under one unit, relative 2^-B;
    - (2 pi)^k as k fixed-point products of 2 pi, each within 4 units:
      relative error at most 4k 2^-B;
    - F from those, then floored: within (10k F + 1) 2^-B;
    - L as the N floored terms: within N 2^-B, and |L| < zeta(2) < 2;
    - the N-term tail of L, times F: at most 1e-9 by the choice of N;
    - the product F L, floored: within 2^-B.

    All but the tail sum to under (F (20k + N) + 3) 2^-B <= 2^-40, so the
    numeric value is within 1.001e-9 of the true one, three orders below
    the 1e-6 bar it must meet against the exact integer.  The route uses no
    Bernoulli number and stays independent of the exact one.
    """
    _require_core_prime(ell)
    k = (ell - 1) // 2
    d = 0 if ell % 4 == 1 else 1
    sign = -1 if (1 + (k - d) // 2) % 2 else 1
    exact = Fraction(sign * ell, ell - 1) * generalized_bernoulli(k, ell)
    if exact.denominator != 1 or exact <= 0:
        raise ArithmeticError(
            f"L-value computation inconsistent at ell={ell}: exact route gave {exact}"
        )
    exact = int(exact)
    m = math.factorial(k - 1) * ell**k
    # F^2 < num / den with 100000 / 628318 = 1 / (2 * 3.14159) > 1 / (2 pi)
    num, den = m * m * ell * 100000 ** (2 * k), 628318 ** (2 * k)
    h = ((num // den).bit_length() + 1) // 2
    w = _window_bound(ell)
    # (N+1)^(2k) >= W^2 1e18 F^2 gives W (N+1)^(-k) F <= 1e-9
    n_terms = _iroot_ceil(-(-w * w * 10**18 * num // den), 2 * k) - 1
    bits = h + (20 * k + n_terms).bit_length() + 41
    one = 1 << bits
    two_pi = 2 * _pi_fixed(bits)
    power = one
    for _ in range(k):
        power = power * two_pi >> bits
    factor = (m * math.isqrt(ell << 2 * bits) << bits) // power
    numeric = factor * _dirichlet_l_numeric(ell, k, n_terms, bits) >> bits
    drift = abs(numeric - (exact << bits))
    if drift * 10**6 > one:
        raise ArithmeticError(
            f"L-value computation inconsistent at ell={ell}: "
            f"exact {exact} vs numeric {_fixed_str(numeric, bits)} "
            f"(|diff|={_fixed_str(drift, bits)})"
        )
    return exact


# ---------------------------------------------------------------------------
# closed-form core counts and the growth inequality


def c2_closed(n: int) -> int:
    """1 if n is triangular else 0 (the count of 2-cores of n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = math.isqrt(8 * n + 1)
    return 1 if m * m == 8 * n + 1 else 0


def c3_closed(n: int) -> int:
    """Count of 3-cores of n: sum over d | 3n+1 of (d / 3), the ell = 3,
    exponent-0 case of the twisted divisor sum."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _twisted_divisor_sum(3 * n + 1, 3, 0)


def core_main_term(n: int, ell: int) -> Fraction:
    """Exact rational main term sigma_ell(n + delta_ell) / inv_alpha for the
    ell-core count of n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Fraction(sigma_twisted(n + delta_ell(ell), ell), inv_alpha(ell))


def core_lower_bound_ok(n: int, ell: int) -> bool:
    """Exact-integer check of the bound c_ell(n) > (2/(5 inv_alpha)) n^((ell-3)/2)
    stated for primes ell >= 11."""
    if n < 1:
        raise ValueError("n must be positive")
    if ell < 11:
        raise ValueError(f"the bound is stated for primes ell >= 11, got {ell}")
    _check_odd_prime(ell)
    return count_cores(n, ell) * inv_alpha(ell) * 5 > 2 * n ** ((ell - 3) // 2)
