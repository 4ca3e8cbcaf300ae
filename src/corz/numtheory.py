"""Quadratic characters, twisted divisor sums, and the exact core constants.

The headline operation is inv_alpha, the integer 1/alpha_ell.  It is computed
on two genuinely independent routes, and the two must agree:

- exact: a rational through the generalized Bernoulli number B_{k,chi},
  formed from k+1 terms with integer power sums of the character;
- numeric: a partial sum of the Dirichlet series L(chi, k) in integer fixed
  point.  Its length comes from the Abel tail bound W (N+1)^(-k), and the
  N rounded terms together err by under 2^-(prec+8), far below that tail.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

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
    # max |sum of chi over any run of consecutive integers|; runs reduce to
    # within-period windows because each full period sums to zero
    vals = [legendre(a, ell) for a in range(ell)]
    best = 0
    for start in range(ell):
        acc = 0
        for off in range(ell):
            acc += vals[(start + off) % ell]
            if abs(acc) > best:
                best = abs(acc)
    return best


def _dirichlet_l_numeric(ell: int, s: int, tail: mpmath.mpf) -> mpmath.mpf:
    # partial sum of L(chi, s); Abel summation bounds the remainder after N
    # terms by W (N+1)^(-s) with W the window bound, so pick N from that.
    # The sum runs in integer fixed point with `bits` fraction bits: each
    # floor(one / m^s) errs by under one unit, so the N terms together err by
    # under N * 2^-bits < 2^-(prec+8), far below the tail; the one conversion
    # to mpf at the end rounds at the working precision.
    w = _window_bound(ell)
    n_terms = int(mpmath.ceil((w / tail) ** (1.0 / s))) + ell
    bits = mpmath.mp.prec + n_terms.bit_length() + 8
    one = 1 << bits
    chi = [legendre(a, ell) for a in range(ell)]
    acc = 0
    for m in range(1, n_terms + 1):
        c = chi[m % ell]
        if c:
            acc += c * (one // m**s)
    return mpmath.ldexp(mpmath.mpf(acc), -bits)


@lru_cache(maxsize=None)
def inv_alpha(ell: int) -> int:
    """The integer 1/alpha_ell = ((ell-3)/2)! ell^(ell/2) L(chi, (ell-1)/2) / (2 pi)^((ell-1)/2).

    Exact route: the critical L-value collapses, via the functional equation
    and the Gauss sum sqrt(ell) (or i sqrt(ell)), to
    (-1)^(1+(k-d)/2) * ell * B_{k,chi} / (ell - 1) with k = (ell-1)/2 and
    d = 0 or 1 matching the parity of the character; all pi and sqrt(ell)
    factors cancel symbolically.  A fixed-point Dirichlet-series evaluation,
    with a proven tail bound and a rounding bound below it, must confirm the
    integer to 1e-6.
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
    # 20 digits beyond the value's own keep rounding far below the 1e-6 bar
    with mpmath.workdps(len(str(exact)) + 20):
        factor = (
            mpmath.factorial(k - 1)
            * mpmath.power(ell, mpmath.mpf(ell) / 2)
            / (2 * mpmath.pi) ** k
        )
        # keep factor * tail three orders below the 1e-6 agreement bar; the
        # fixed-point rounding adds under 2^-(prec+8) to the L-value on top
        lval = _dirichlet_l_numeric(ell, k, mpmath.mpf("1e-9") / factor)
        numeric = factor * lval
        drift = abs(numeric - int(exact))
    if drift > 1e-6:
        raise ArithmeticError(
            f"L-value computation inconsistent at ell={ell}: "
            f"exact {int(exact)} vs numeric {numeric} (|diff|={drift})"
        )
    return int(exact)


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
