"""Quadratic characters, twisted divisor sums, and the exact core constants.

The headline operation is inv_alpha, the integer 1/alpha_ell.  It is computed
on two genuinely independent routes, and the two must agree:

- exact: the generalized Bernoulli number B_{k,chi} as an integer pair
  (numerator, denominator), formed from its terms with B_j != 0, j <= k,
  each with an integer power sum of the character, summed in integers over
  one common denominator; the Bernoulli numbers come from tangent numbers
  and are kept as integer pairs too, so the route ends in one divmod;
- numeric: a partial sum of the Dirichlet series L(chi, k) plus the leading
  term of its tail, times (k-1)! ell^k sqrt(ell) / (2 pi)^k, all in integer
  fixed point.  Summing the tail by parts twice bounds what is left by
  V k (N+1)^(-k-1), V a window bound of the character's partial sums; that
  fixes the length N, and inv_alpha's docstring proves the bound and bounds
  every rounding error next to it.

The module uses the standard library only.  A Fraction is built only by
the three public wrappers bernoulli_number, generalized_bernoulli and
core_main_term, which import fractions inside the call, so inv_alpha and
every command that needs no Fraction start without fractions and decimal.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from itertools import accumulate
from operator import mul
from typing import TYPE_CHECKING

from .partitions import _require_int, count_cores

if TYPE_CHECKING:
    from fractions import Fraction


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


def _check_odd_prime(ell: int) -> None:
    if ell % 2 == 0 or not _is_prime(ell):
        raise ValueError(f"ell must be an odd prime, got {ell}")


def legendre(a: int, ell: int) -> int:
    """Legendre symbol (a / ell) in {-1, 0, 1} for any int a and an odd prime ell."""
    _require_int(a, "a", None)
    _require_int(ell, "ell", 2)
    _check_odd_prime(ell)
    r = pow(a % ell, (ell - 1) // 2, ell)
    return r - ell if r == ell - 1 else r


@cache
def _chi_table(ell: int) -> tuple[int, ...]:
    # the quadratic character mod an odd prime ell, indexed by residue:
    # (a / ell) for a = 0 .. ell-1.  The nonzero squares mod ell are the
    # residues; a^2 and (ell - a)^2 agree, so a <= ell/2 meets each of them
    chi = [-1] * ell
    chi[0] = 0
    for a in range(1, ell // 2 + 1):
        chi[a * a % ell] = 1
    return tuple(chi)


def sigma_twisted(n: int, ell: int) -> int:
    """Twisted divisor sum over d | n of (n/d / ell) * d^((ell-3)/2).

    The one-m window [n, n] of the sieve below, which is trial division.  A
    sweep over many n takes its main terms' values from one window instead.
    """
    _require_int(n, "n", 1)
    _require_core_prime(ell)
    return _twisted_divisor_sums(ell, (ell - 3) // 2, n, n)[0]


def _twisted_divisor_sums(ell: int, e: int, lo: int, hi: int, step: int = 1) -> list[int]:
    # sum over d | m of (m/d / ell) * d^e for m = lo, lo + step, ... <= hi, 1 <= lo.
    # Each d <= sqrt(hi) walks its multiples m = d c, c >= d, in the window down
    # from the largest: it adds (c / ell) d^e, and (d / ell) c^e for the cofactor
    # unless c = d.  With g = gcd(d, step), d has multiples in the window only
    # when g | lo; their cofactors then run through one class mod step/g, so c
    # steps by step/g and the window index by d/g.  A d with no multiple in
    # [lo, hi] costs one remainder, so a one-m window is plain trial division.
    chi = _chi_table(ell)
    width = hi - lo
    window = [0] * (width // step + 1)
    for d in range(1, math.isqrt(hi) + 1):
        if hi % d > width:
            continue
        top = hi // d
        g = math.gcd(d, step)
        if lo % g:
            continue
        dk, dc = d // g, step // g
        # the largest cofactor c <= top with d c = lo (mod step)
        c = top - (top - lo // g * pow(dk, -1, dc)) % dc
        k = (d * c - lo) // step
        de, chi_d = d**e, chi[d % ell]
        while k >= 0 and c >= d:
            window[k] += chi[c % ell] * de + chi_d * c**e
            k -= dk
            c -= dc
        if c + dc == d:
            # the walk reached m = d^2, whose two terms are one
            window[k + dk] -= chi_d * de
    return window


def _require_core_prime(ell: int) -> None:
    _require_int(ell, "ell", 2)
    if ell < 5:
        raise ValueError(f"ell must be a prime >= 5, got {ell}")
    _check_odd_prime(ell)


def delta_ell(ell: int) -> int:
    """(ell^2 - 1) / 24, the cusp shift constant; integral for primes >= 5."""
    _require_int(ell, "ell", 2)
    q, r = divmod(ell * ell - 1, 24)
    if r:
        raise ValueError(f"(ell^2 - 1)/24 is not an integer for ell={ell}")
    return q


# ---------------------------------------------------------------------------
# Bernoulli machinery (exact rationals as integer pairs)

# B_2, B_4, ..., as far as computed, each (numerator, denominator) in lowest
# terms with a positive denominator
_EVEN_BERNOULLI: list[tuple[int, int]] = []


def _tangent_numbers(n: int) -> list[int]:
    # T_1 .. T_n with T_j the (2j-1)-th derivative of tan at 0, by the
    # in-place integer recurrences of Brent and Harvey (2011): O(n^2) small
    # multiplications and additions, no division
    t = [0, 1] + [0] * (n - 1)
    for j in range(2, n + 1):
        t[j] = (j - 1) * t[j - 1]
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return t[1:]


def _bernoulli(m: int) -> tuple[int, int]:
    # B_m for m >= 0 as (numerator, denominator) in lowest terms, B_1 = -1/2
    if m < 2:
        return (1, 1) if m == 0 else (-1, 2)
    if m % 2:
        return 0, 1
    j = m // 2
    if j > len(_EVEN_BERNOULLI):
        tangents = _tangent_numbers(max(j, 2 * len(_EVEN_BERNOULLI)))
        pairs = []
        for i, t in enumerate(tangents, 1):
            num, den = (-1) ** (i - 1) * 2 * i * t, 4**i * (4**i - 1)
            g = math.gcd(num, den)
            pairs.append((num // g, den // g))
        _EVEN_BERNOULLI[:] = pairs
    return _EVEN_BERNOULLI[j - 1]


def bernoulli_number(m: int) -> Fraction:
    """Bernoulli number B_m with B_1 = -1/2, as a Fraction.

    B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)) with T_j the tangent number
    tan^(2j-1)(0); the even ones are cached as integer pairs, the cache at
    least doubling when it grows, and the Fraction is formed from the pair.
    """
    from fractions import Fraction

    _require_int(m, "m")
    return Fraction(*_bernoulli(m))


def _generalized_bernoulli(k: int, ell: int) -> tuple[int, int]:
    # B_{k,chi} as (numerator, denominator), not reduced, for an odd prime
    # ell; see generalized_bernoulli
    chi = _chi_table(ell)
    residues = [a for a in range(1, ell) if chi[a] > 0]
    nonresidues = [a for a in range(1, ell) if chi[a] < 0]
    # the sum reads S_(k-j) only where B_j != 0: j = 0, 1 and even j, so
    # S_i for i = k, k - 2, ... and S_(k-1).  The running products a^i start
    # at a^(k mod 2) and step by a^2; S_(k-1) is one step by a from a^(k-2),
    # or the sum of the a^0 at k = 1
    power_sums = {}
    if k % 2:
        up, down = residues, nonresidues
        if k == 1:
            power_sums[0] = len(residues) - len(nonresidues)
    else:
        up, down = [1] * len(residues), [1] * len(nonresidues)
    squares_up, squares_down = [a * a for a in residues], [a * a for a in nonresidues]
    for i in range(k % 2, k, 2):
        power_sums[i] = sum(up) - sum(down)
        if i == k - 2:
            power_sums[k - 1] = sum(map(mul, up, residues)) - sum(map(mul, down, nonresidues))
        up = list(map(mul, up, squares_up))
        down = list(map(mul, down, squares_down))
    power_sums[k] = sum(up) - sum(down)
    bern = [_bernoulli(j) for j in range(k + 1)]
    den = math.lcm(*(d for _, d in bern))
    acc = 0
    ell_power = 1
    for j, (b_num, b_den) in enumerate(bern):
        if b_num:
            acc += math.comb(k, j) * b_num * (den // b_den) * ell_power * power_sums[k - j]
        ell_power *= ell
    return acc, ell * den


def generalized_bernoulli(k: int, ell: int) -> Fraction:
    """Generalized Bernoulli number B_{k,chi} for the quadratic character
    mod ell: ell^(k-1) * sum_a chi(a) B_k(a/ell), as a Fraction.

    Expanding B_k(a/ell) and swapping the sums gives
    sum_j C(k, j) B_j ell^(j-1) S_(k-j) with the integer power sums
    S_i = sum_a chi(a) a^i.  B_j = 0 for every odd j >= 3, so only the
    terms j = 0, 1 and even j <= k remain, and only their S_i are formed.
    Those terms are summed in integers over the least common denominator D
    of B_0 .. B_k, and the Fraction is formed from the integer pair
    (total, ell D) that inv_alpha reads directly.
    """
    from fractions import Fraction

    _require_int(k, "k")
    _require_int(ell, "ell", 2)
    _check_odd_prime(ell)
    return Fraction(*_generalized_bernoulli(k, ell))


def _partial_sums(ell: int) -> list[int]:
    # S(x) = sum of chi(m) over 1 <= m <= x, for x = 0 .. ell-1; S has period ell
    return list(accumulate(_chi_table(ell)))


def _window_bound(ell: int) -> tuple[int, int]:
    # V = max |sum of S(x) - mu over any run of consecutive x|, with mu the
    # mean of S over a period, as the pair (ell V, ell).  S - mu sums to zero
    # over a period, so every run sum is a difference of two prefix sums over
    # one period, and the largest is the max prefix less the min prefix
    s = _partial_sums(ell)
    total = sum(s)  # ell mu
    prefix = list(accumulate((ell * v - total for v in s), initial=0))
    return max(prefix) - min(prefix), ell


def _dirichlet_l_numeric(ell: int, s: int, n_terms: int, bits: int) -> int:
    # L(chi, s) in fixed point with `bits` fraction bits: the sum over
    # m <= N = n_terms of chi(m) floor(2^bits / m^s), plus the leading term
    # (mu - S(N)) (N+1)^(-s) of the tail, floored.  Each floor is off by under
    # one unit, so the whole is within N + 1 units of the corrected sum, which
    # is within V s (N+1)^(-s-1) of L (see inv_alpha).  One sum per residue
    # class keeps the loop free of branches.
    one = 1 << bits
    chi = _chi_table(ell)
    acc = 0
    for r in range(1, ell):
        part = sum(one // m**s for m in range(r, n_terms + 1, ell))
        acc += part if chi[r] > 0 else -part
    partial = _partial_sums(ell)
    lead = sum(partial) - ell * partial[n_terms % ell]  # ell (mu - S(N))
    return acc + (lead << bits) // (ell * (n_terms + 1) ** s)


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


# typed: a float or bool ell that equals a cached int misses the cache and
# reaches the int check
@lru_cache(maxsize=None, typed=True)
def inv_alpha(ell: int) -> int:
    """The integer 1/alpha_ell = ((ell-3)/2)! ell^(ell/2) L(chi, (ell-1)/2) / (2 pi)^((ell-1)/2).

    Exact route: the critical L-value collapses, via the functional equation
    and the Gauss sum sqrt(ell) (or i sqrt(ell)), to
    (-1)^(1+(k-d)/2) * ell * B_{k,chi} / (ell - 1) with k = (ell-1)/2 and
    d = 0 or 1 matching the parity of the character; all pi and sqrt(ell)
    factors cancel symbolically.  With B_{k,chi} as an integer pair the route
    is one divmod, and it must leave a positive integer.

    Numeric route, in integers at B fraction bits: the value is F L with
    F = M sqrt(ell) / (2 pi)^k, M = (k-1)! ell^k exact and L = L(chi, k).

    The tail of L is summed by parts twice.  Let S(x) be the sum of chi(m)
    over 1 <= m <= x, which has period ell and mean mu over a period
    (mu = 0 for even chi), f(x) = x^(-k), and D(m) = f(m) - f(m+1), which is
    positive and decreasing because f is convex.  Then
    sum_{m>N} chi(m) f(m) = (mu - S(N)) f(N+1) + sum_{m>N} (S(m) - mu) D(m).
    The run sums G(m) of S - mu over N < x <= m are at most V in absolute
    value, V the window bound (max prefix less min prefix of S - mu over a
    period), and the last sum is sum_{m>N} G(m) (D(m) - D(m+1)), so its
    absolute value is at most V D(N+1) <= V k (N+1)^(-k-1).  The route adds the first term to the
    N-term partial sum and bounds the rest by V k (N+1)^(-k-1).

    Since pi > 3.14159, F^2 < M^2 ell / 6.28318^(2k), which fixes h with
    F < 2^h and the least N with V k (N+1)^(-k-1) F <= 1e-9, by an exact
    (2k+2)-th root.  Then B = h + bitlen(20k + N + 1) + 41, and the errors
    are:

    - sqrt(ell) as isqrt(ell 2^(2B)): under one unit, relative 2^-B;
    - (2 pi)^k as k fixed-point products of 2 pi, each within 4 units:
      relative error at most 4k 2^-B;
    - F from those, then floored: within (10k F + 1) 2^-B;
    - L as the N floored terms and the floored tail term: within
      (N + 1) 2^-B, and |L| < zeta(2) < 2;
    - the rest of the tail of L, times F: at most 1e-9 by the choice of N;
    - the product F L, floored: within 2^-B.

    All but the tail sum to under (F (20k + N + 1) + 3) 2^-B <= 2^-40, so the
    numeric value is within 1.001e-9 of the true one, three orders below
    the 1e-6 bar it must meet against the exact integer.  The route uses no
    Bernoulli number and stays independent of the exact one.
    """
    _require_core_prime(ell)
    k = (ell - 1) // 2
    d = 0 if ell % 4 == 1 else 1
    sign = -1 if (1 + (k - d) // 2) % 2 else 1
    # sign ell / (ell - 1) times B_{k,chi} = b_num / b_den, in integers
    b_num, b_den = _generalized_bernoulli(k, ell)
    e_num, e_den = sign * ell * b_num, (ell - 1) * b_den  # e_den > 0
    exact, rest = divmod(e_num, e_den)
    if rest or exact <= 0:
        # the rational in lowest terms, as str(Fraction) prints it
        g = math.gcd(e_num, e_den)
        got = exact if not rest else f"{e_num // g}/{e_den // g}"
        raise ArithmeticError(
            f"L-value computation inconsistent at ell={ell}: exact route gave {got}"
        )
    m = math.factorial(k - 1) * ell**k
    # F^2 < num / den with 100000 / 628318 = 1 / (2 * 3.14159) > 1 / (2 pi)
    num, den = m * m * ell * 100000 ** (2 * k), 628318 ** (2 * k)
    h = ((num // den).bit_length() + 1) // 2
    v_num, v_den = _window_bound(ell)
    # (N+1)^(2k+2) >= 1e18 k^2 V^2 F^2 gives V k (N+1)^(-k-1) F <= 1e-9
    top = 10**18 * (k * v_num) ** 2 * num
    n_terms = _iroot_ceil(-(-top // (v_den**2 * den)), 2 * k + 2) - 1
    bits = h + (20 * k + n_terms + 1).bit_length() + 41
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
    _require_int(n, "n")
    m = math.isqrt(8 * n + 1)
    return 1 if m * m == 8 * n + 1 else 0


def c3_closed(n: int) -> int:
    """Count of 3-cores of n: sum over d | 3n+1 of (d / 3), the ell = 3,
    exponent-0 case of the twisted divisor sum."""
    _require_int(n, "n")
    return _twisted_divisor_sums(3, 0, 3 * n + 1, 3 * n + 1)[0]


def core_main_term(n: int, ell: int) -> Fraction:
    """Exact rational main term sigma_ell(n + delta_ell) / inv_alpha for the
    ell-core count of n, as a Fraction; a census forms the same value in
    lowest terms from integers."""
    from fractions import Fraction

    _require_int(n, "n")
    return Fraction(sigma_twisted(n + delta_ell(ell), ell), inv_alpha(ell))


def core_lower_bound_ok(n: int, ell: int) -> bool:
    """Exact-integer check of the bound c_ell(n) > (2/(5 inv_alpha)) n^((ell-3)/2)
    stated for primes ell >= 11."""
    _require_int(n, "n", 1)
    _require_int(ell, "ell", 2)
    if ell < 11:
        raise ValueError(f"the bound is stated for primes ell >= 11, got {ell}")
    _check_odd_prime(ell)
    return count_cores(n, ell) * inv_alpha(ell) * 5 > 2 * n ** ((ell - 3) // 2)
