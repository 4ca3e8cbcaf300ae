from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corz import numtheory, partitions
from corz.abacus import count_cores
from corz.census import CensusConfig, _sweep_series, run_census
from corz.cli import ELL_MAX
from corz.numtheory import (
    _chi_table,
    _dirichlet_l_numeric,
    _iroot_ceil,
    _is_prime,
    _pi_fixed,
    _window_bound,
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
import reference
from reference import bernoulli_polynomial, window_bound


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


def test_legendre_and_bernoulli_require_int_arguments():
    # a bool is an int subclass and a float compares equal to an int; both
    # are refused with ValueError
    calls = ((legendre, True, 5), (legendre, 1, 5.0), (bernoulli_number, True),
             (bernoulli_number, 4.0), (generalized_bernoulli, 2, 5.0))
    for fn, *args in calls:
        with pytest.raises(ValueError, match="integer"):
            fn(*args)
    # a may be any int, negatives too
    assert legendre(-1, 5) == 1 and legendre(-3, 7) == 1


def test_chi_table_is_the_legendre_symbol():
    # the table comes from the squares mod ell; Euler's criterion, in
    # legendre, is the independent route
    for ell in range(3, ELL_MAX + 1):
        if _is_prime(ell):
            assert _chi_table(ell) == tuple(legendre(a, ell) for a in range(ell)), ell


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


def test_sigma_windows_match_the_divisor_sieve():
    # from 1, from an offset, and one m at a time, m <= 3000, ell up to 499,
    # at strides 1, 2, 3, 7 and 1000; ell = 3 with exponent 0 is the routine
    # behind c3_closed
    upto = 3000
    windows = ((1, upto), (777, 900), (777, upto), (1, 1), (2, 60), (48, 50), (2999, 3000), (1234, 1234))
    for ell, e in ((3, 0), (5, 1), (7, 2), (11, 4), (499, 248)):
        # a sweep over n <= 1000 reads m = n + delta_ell
        shift = delta_ell(ell) if ell >= 5 else 0
        want = reference.twisted_divisor_sums(ell, e, max(upto, 1000 + shift))
        for step in (1, 2, 3, 7, 1000):
            for lo, hi in windows:
                got = numtheory._twisted_divisor_sums(ell, e, lo, hi, step)
                assert got == want[lo : hi + 1 : step], (ell, step, lo, hi)
        one_at_a_time = [numtheory._twisted_divisor_sums(ell, e, m, m) for m in range(1, upto + 1)]
        assert one_at_a_time == [[v] for v in want[1 : upto + 1]], ell
        if ell >= 5:
            ms = [*range(1, upto + 1), *range(700 + shift, 1000 + shift)]
            assert [sigma_twisted(m, ell) for m in ms] == [want[m] for m in ms], ell
            # the main terms of a sweep over n read m = n + delta_ell
            for step in (1, 3, 1000):
                got = [sigma for *_, sigma in _sweep_series((ell,), 777, 900, step)[0]]
                assert got == want[777 + shift : 901 + shift : step], (ell, step)


def test_sigma_twisted_requires_int_arguments():
    # a bool is an int subclass and a float compares equal to an int; both
    # are refused with ValueError, as the CLI's bad input is
    for n, ell in ((True, 5), (2.0, 5), (7, 5.0), (7, True)):
        with pytest.raises(ValueError, match="integer"):
            sigma_twisted(n, ell)
    assert sigma_twisted(7, 5) == 6


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


def test_bernoulli_numbers_match_the_fraction_recurrence():
    assert [bernoulli_number(m) for m in range(301)] == [
        reference.bernoulli_number(m) for m in range(301)
    ]


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
    # odd and even k start their power sums from a and from 1, and k = 0
    # and 1 read no S_(k-1) stepped from S_(k-2)
    for ell in (5, 7, 11, 13):
        for k in range(13):
            assert generalized_bernoulli(k, ell) == per_residue_bernoulli(k, ell), (ell, k)


def _mpmath_l_value(ell, s):
    return mpmath.dirichlet(s, [legendre(a, ell) for a in range(ell)])


def test_dirichlet_l_numeric_within_tail_and_rounding():
    for ell in (5, 7, 13, 97):
        s = (ell - 1) // 2
        v_num, v_den = _window_bound(ell)
        # the least N whose tail bound V s (N+1)^(-s-1) is at most 1e-12
        n_terms = _iroot_ceil(-(-v_num * s * 10**12 // v_den), s + 1) - 1
        prec = 133  # 40 decimal digits
        bits = prec + (n_terms + 1).bit_length() + 8
        got = _dirichlet_l_numeric(ell, s, n_terms, bits)
        with mpmath.workprec(bits + 64):
            want = _mpmath_l_value(ell, s)
            # the N + 1 floors err by under (N + 1) 2^-bits < 2^-(prec+8) on top of the tail
            err = abs(mpmath.ldexp(got, -bits) - want)
            assert err <= mpmath.mpf("1e-12") + mpmath.ldexp(1, -prec - 8), ell


@pytest.mark.parametrize("ell", [5, 7, 13, 97])
def test_dirichlet_l_numeric_within_the_second_order_tail_bound(ell):
    # N on every residue class mod ell and off the multiples of ell, where
    # S(N) and the leading tail term are not zero
    s = (ell - 1) // 2
    v_num, v_den = _window_bound(ell)
    bits = 200
    with mpmath.workprec(bits + 64):
        want = _mpmath_l_value(ell, s)
    for n_terms in (1, 2, ell - 1, ell, ell + 1, 2 * ell + ell // 2, *range(300, 300 + ell)):
        got = _dirichlet_l_numeric(ell, s, n_terms, bits)
        with mpmath.workprec(bits + 64):
            err = abs(mpmath.ldexp(got, -bits) - want)
            bound = mpmath.mpf(v_num) / v_den * s * mpmath.mpf(n_terms + 1) ** (-s - 1)
            assert err <= bound + mpmath.ldexp(n_terms + 1, -bits), (ell, n_terms)


def test_inv_alpha_at_five_sums_under_1500_terms(monkeypatch):
    lengths = []
    l_numeric = _dirichlet_l_numeric

    def counted(ell, s, n_terms, bits):
        lengths.append(n_terms)
        return l_numeric(ell, s, n_terms, bits)

    monkeypatch.setattr(numtheory, "_dirichlet_l_numeric", counted)
    inv_alpha.cache_clear()
    try:
        assert inv_alpha(5) == 1
    finally:
        inv_alpha.cache_clear()
    assert len(lengths) == 1 and lengths[0] <= 1500


def test_pi_fixed_within_two_units():
    for bits in (1, 2, 7, 53, 64, 200, 1000, 3300):
        with mpmath.workprec(bits + 64):
            assert abs(_pi_fixed(bits) - mpmath.ldexp(mpmath.pi, bits)) < 2, bits


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**400), st.integers(1, 300))
def test_iroot_ceil_is_the_least_root(x, k):
    r = _iroot_ceil(x, k)
    assert r >= 1 and r**k >= x > (r - 1) ** k


def test_inv_alpha_rejects_a_wrong_exact_route(monkeypatch):
    # 1275 -> 1276 is still a positive integer, so only the numeric route can
    # catch it
    exact = numtheory._generalized_bernoulli

    def off_by_one(k, ell):
        num, den = exact(k, ell)
        return num * 1276, den * 1275

    monkeypatch.setattr(numtheory, "_generalized_bernoulli", off_by_one)
    inv_alpha.cache_clear()
    try:
        # both values and their difference, to 12 places, within 1e-9 of 1275 and 1
        message = r"exact 1276 vs numeric 127[45]\.\d{12} \(\|diff\|=[01]\.\d{12}\)"
        with pytest.raises(ArithmeticError, match=message):
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


def test_window_bound_is_the_largest_run_sum():
    # prefix-sum form against every run of up to one period from every start
    for ell in range(3, 500, 2):
        if _is_prime(ell):
            assert Fraction(*_window_bound(ell)) == window_bound(ell), ell
    assert [Fraction(*_window_bound(ell)) for ell in (3, 5, 7, 11)] == [Fraction(2, 3), 1, 2, 4]


def test_inv_alpha_rejects_bad_modulus():
    with pytest.raises(ValueError):
        inv_alpha(4)
    with pytest.raises(ValueError):
        inv_alpha(3)


# every n up to 500, then a sample up to the largest n the CLI accepts
CLOSED_FORM_NS = [*range(501), *range(582, 20001, 97), 20000]


def test_inv_alpha_requires_an_int_modulus():
    inv_alpha(5)  # cached: an equal float or bool must still be refused
    for ell in (5.0, True, 7.0):
        with pytest.raises(ValueError, match="integer"):
            inv_alpha(ell)
    assert inv_alpha(5) == 1


def test_c2_closed_requires_an_int():
    for n in (True, 4.0, 3.0):
        with pytest.raises(ValueError, match="integer"):
            c2_closed(n)
    with pytest.raises(ValueError, match="nonnegative"):
        c2_closed(-1)


def test_c3_closed_requires_an_int():
    for n in (True, 4.0):
        with pytest.raises(ValueError, match="integer"):
            c3_closed(n)
    with pytest.raises(ValueError, match="nonnegative"):
        c3_closed(-1)


def test_core_main_term_requires_ints():
    for n, ell in ((5.0, 5), (True, 5), (5, 5.0), (5, True)):
        with pytest.raises(ValueError, match="integer"):
            core_main_term(n, ell)
    assert core_main_term(5, 5) == 2


def test_c2_closed_matches_series():
    for n in CLOSED_FORM_NS:
        assert c2_closed(n) == count_cores(n, 2), n


def test_c2_closed_is_triangular_indicator():
    ones = [n for n in range(50) if c2_closed(n) == 1]
    assert ones == [0, 1, 3, 6, 10, 15, 21, 28, 36, 45]


def test_c3_closed_matches_series():
    for n in CLOSED_FORM_NS:
        assert c3_closed(n) == count_cores(n, 3), n


def test_c3_sparsity_trend():
    # the density of n with a 3-core shrinks as the range grows
    def density(bound):
        return sum(1 for n in range(1, bound + 1) if c3_closed(n) > 0) / bound

    d100, d1000, d10000 = density(100), density(1000), density(10000)
    assert d100 > d1000 > d10000


def test_census_lanes_match_the_closed_forms(monkeypatch):
    # one census sweep from fresh tables grows p, c_2, c_3, c_5 and c_7 as
    # lanes of one packed pass; the closed forms check each c_ell lane on its own
    for name, fresh in (("_PENTAGONAL", ([], [])), ("_P_CACHE", [1]), ("_EULER_POWERS", {}),
                        ("_CORE_TABLES", {})):
        monkeypatch.setattr(partitions, name, fresh)
    extend = partitions._extend_quotient
    grown = []

    def spied(series, upto, top):
        grown.append(series)
        return extend(series, upto, top)

    monkeypatch.setattr(partitions, "_extend_quotient", spied)
    config = CensusConfig(n_min=0, n_max=5000, ells=(2, 3, 5, 7), cap_exact=0, cap_star=0)
    c = {(r.n, r.ell): r.c_ell_n for r in run_census(config)}
    # p(n) and the four lanes together
    assert len(grown) == 1 and grown[0] is not partitions._P_CACHE
    assert all(grown[0] is not table for table in partitions._CORE_TABLES.values())
    for n in (n for n in CLOSED_FORM_NS if n <= 5000):
        assert c[n, 2] == c2_closed(n), n
        assert c[n, 3] == c3_closed(n), n
        assert c[n, 5] == sigma_twisted(n + 1, 5), n


def test_core_main_term_exact_at_5():
    # c_5(n) = sigma_5(n + 1), since inv_alpha(5) = 1 and delta_5 = 1
    for n in CLOSED_FORM_NS:
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


def test_core_lower_bound_rejects_non_integer_arguments():
    # a str or float n or ell is refused as a bad value, not a TypeError from a
    # comparison, as every other public function refuses it
    for n, ell in ((20, "13"), ("20", 13), (20, 13.0), (20.0, 13), (True, 13), (20, True)):
        with pytest.raises(ValueError, match="must be an integer at least"):
            core_lower_bound_ok(n, ell)
    with pytest.raises(ValueError, match="n must be at least 1"):
        core_lower_bound_ok(0, 13)


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
