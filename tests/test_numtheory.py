from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corz import numtheory
from corz.abacus import count_cores
from corz.numtheory import (
    _dirichlet_l_numeric,
    bernoulli_number,
    c2_closed,
    c3_closed,
    core_lower_bound_ok,
    core_main_term,
    delta_ell,
    generalized_bernoulli,
    inv_alpha,
    legendre,
    sigma_twisted,
)
from reference import bernoulli_polynomial


def test_legendre_small_tables():
    assert [legendre(a, 5) for a in range(5)] == [0, 1, -1, -1, 1]
    assert [legendre(a, 7) for a in range(7)] == [0, 1, 1, -1, 1, -1, -1]
    assert legendre(12, 5) == legendre(2, 5)
    assert legendre(-1, 5) == 1
    assert legendre(-1, 7) == -1


def test_legendre_euler_criterion():
    for ell in (5, 7, 11, 13, 17):
        for a in range(1, ell):
            want = pow(a, (ell - 1) // 2, ell)
            want = -1 if want == ell - 1 else want
            assert legendre(a, ell) == want


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre(3, 9)
    with pytest.raises(ValueError):
        legendre(3, 2)


def test_legendre_completely_multiplicative():
    for ell in (5, 7, 11, 13):
        for a in range(1, 201):
            for b in range(1, 15):
                assert legendre(a * b, ell) == legendre(a, ell) * legendre(b, ell)


def test_sigma_twisted_examples():
    assert sigma_twisted(7, 5) == 6
    assert sigma_twisted(1, 5) == 1
    assert sigma_twisted(442, 5) == count_cores(441, 5)
    # ell = 7 weights divisors by d^2
    assert sigma_twisted(3, 7) == legendre(3, 7) * 1 + legendre(1, 7) * 9


def test_sigma_twisted_rejects_bad_modulus():
    # the twisted sum is defined for primes >= 5; smaller moduli have their
    # own closed forms
    with pytest.raises(ValueError):
        sigma_twisted(10, 4)
    with pytest.raises(ValueError):
        sigma_twisted(10, 3)


def test_sigma_twisted_multiplicative_on_coprime_pairs():
    pairs = [(3, 8), (5, 9), (7, 11), (4, 25), (13, 27), (16, 81), (99, 100),
             (49, 64), (121, 81)]
    for ell in (5, 7, 11):
        for a, b in pairs:
            assert a * b <= 10**4
            if a % ell == 0 or b % ell == 0:
                continue
            assert sigma_twisted(a * b, ell) == sigma_twisted(a, ell) * sigma_twisted(b, ell), (a, b, ell)


def test_delta_ell_values():
    assert delta_ell(5) == 1
    assert delta_ell(7) == 2
    assert delta_ell(11) == 5
    assert delta_ell(13) == 7
    with pytest.raises(ValueError):
        delta_ell(6)
    for ell in (1, 0, -1, -5):
        with pytest.raises(ValueError, match="ell must be at least 2"):
            delta_ell(ell)


def test_bernoulli_numbers():
    want = [Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
            Fraction(-1, 30), Fraction(0), Fraction(1, 42)]
    assert [bernoulli_number(k) for k in range(7)] == want
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_bernoulli_polynomial_identities():
    # B_k(x+1) - B_k(x) = k x^{k-1}
    for k in range(1, 8):
        for x in (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(3)):
            lhs = bernoulli_polynomial(k, x + 1) - bernoulli_polynomial(k, x)
            assert lhs == k * x ** (k - 1)
    assert bernoulli_polynomial(3, Fraction(0)) == bernoulli_number(3)


def test_generalized_bernoulli_odd_symmetry():
    # B_{k,chi} vanishes exactly when the parity of k differs from that of
    # chi, chi(-1) = (-1/ell): for odd characters only odd k survive
    for ell in (5, 7, 11, 13):
        for k in range(1, 9):
            vanishes = generalized_bernoulli(k, ell) == 0
            assert vanishes == (legendre(-1, ell) != (-1) ** k), (ell, k)


def per_residue_bernoulli(k, ell):
    """B_{k,chi} straight from its definition ell^(k-1) sum_a chi(a) B_k(a/ell)."""
    return ell ** (k - 1) * sum(
        legendre(a, ell) * bernoulli_polynomial(k, Fraction(a, ell)) for a in range(1, ell)
    )


PRIMES_5_TO_97 = [p for p in range(5, 98) if all(p % q for q in range(2, p))]


def test_generalized_bernoulli_matches_per_residue_definition():
    for ell in PRIMES_5_TO_97:
        k = (ell - 1) // 2
        assert generalized_bernoulli(k, ell) == per_residue_bernoulli(k, ell), ell
    for ell in (5, 7, 11, 13):
        for k in range(1, 9):
            assert generalized_bernoulli(k, ell) == per_residue_bernoulli(k, ell), (ell, k)


def test_dirichlet_l_numeric_within_tail_and_rounding():
    for ell in (5, 7, 13, 97):
        s = (ell - 1) // 2
        with mpmath.workdps(40):
            tail = mpmath.mpf("1e-12")
            got = _dirichlet_l_numeric(ell, s, tail)
            want = mpmath.dirichlet(s, [legendre(a, ell) for a in range(ell)])
            # the fixed-point sum errs by under 2^-(prec+8) on top of the tail
            assert abs(got - want) <= tail + mpmath.ldexp(1, -mpmath.mp.prec - 8), ell


def test_inv_alpha_rejects_a_wrong_exact_route(monkeypatch):
    # 1275 -> 1276 is still a positive integer, so only the numeric route can
    # catch it
    exact = generalized_bernoulli

    def off_by_one(k, ell):
        return exact(k, ell) * Fraction(1276, 1275)

    monkeypatch.setattr(numtheory, "generalized_bernoulli", off_by_one)
    inv_alpha.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="exact 1276 vs numeric"):
            inv_alpha(11)
    finally:
        inv_alpha.cache_clear()


def test_inv_alpha_frozen_values():
    assert inv_alpha(5) == 1
    assert inv_alpha(7) == 8
    assert inv_alpha(11) == 1275
    assert inv_alpha(13) == 33463


def test_inv_alpha_larger_primes_pass_dual_route():
    # the numeric Dirichlet-series check runs inside inv_alpha; surviving it
    # means both routes agreed to 1e-6
    assert inv_alpha(17) == 59901794
    assert inv_alpha(19) == 3708443635


def test_inv_alpha_passes_dual_route_beyond_forty_digits():
    # 42, 51 and 118 digits: the numeric route works at the value's own size
    assert inv_alpha(47) == 970352062869924781020402760556090727940368
    assert inv_alpha(53) == 135294343452046399719534067031016407016806466276761
    assert inv_alpha(97) == int(
        "28738426215735700206612747962060062876615950867121179884879478439659"
        "82325182444922611891396374889675099441520471783906"
    )


def test_inv_alpha_rejects_bad_modulus():
    with pytest.raises(ValueError):
        inv_alpha(4)
    with pytest.raises(ValueError):
        inv_alpha(3)


def test_c2_closed_matches_series():
    for n in range(501):
        assert c2_closed(n) == count_cores(n, 2), n


def test_c2_closed_is_triangular_indicator():
    ones = [n for n in range(50) if c2_closed(n) == 1]
    assert ones == [0, 1, 3, 6, 10, 15, 21, 28, 36, 45]


def test_c3_closed_matches_series():
    for n in range(501):
        assert c3_closed(n) == count_cores(n, 3), n


def test_c3_sparsity_trend():
    # the density of n with a 3-core shrinks as the range grows
    def density(bound):
        return sum(1 for n in range(1, bound + 1) if c3_closed(n) > 0) / bound

    d100, d1000, d10000 = density(100), density(1000), density(10000)
    assert d100 > d1000 > d10000


def test_core_main_term_exact_at_5():
    for n in range(301):
        assert core_main_term(n, 5) == count_cores(n, 5), n


def test_core_main_term_trend_at_7():
    # ratio against the true count drifts toward 1
    early = [abs(core_main_term(n, 7) / count_cores(n, 7) - 1) for n in range(50, 150)]
    late = [abs(core_main_term(n, 7) / count_cores(n, 7) - 1) for n in range(1900, 2000)]
    assert sum(late) / len(late) < sum(early) / len(early)


def test_core_main_term_is_rational_with_unit_denominator_at_5():
    assert core_main_term(10, 5) == Fraction(sigma_twisted(11, 5))
    assert core_main_term(10, 5).denominator == 1


def test_core_lower_bound_holds_for_11():
    for n in range(100, 1001):
        assert core_lower_bound_ok(n, 11), n


def test_core_lower_bound_holds_for_13_sample():
    for n in range(100, 301):
        assert core_lower_bound_ok(n, 13), n


def test_core_lower_bound_rejects_small_moduli():
    with pytest.raises(ValueError):
        core_lower_bound_ok(100, 7)


@given(st.integers(min_value=1, max_value=3000))
@settings(max_examples=200, deadline=None)
def test_sigma_twisted_against_naive_divisor_sum(n):
    for ell in (5, 7):
        total = sum(
            legendre(n // d, ell) * d ** ((ell - 3) // 2)
            for d in range(1, n + 1)
            if n % d == 0
        )
        assert sigma_twisted(n, ell) == total
