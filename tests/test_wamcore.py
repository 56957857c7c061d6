"""Weighted average multiplicity: evaluation, identities, bounds."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import factorizations
from wamlab.arith import big_omega, factor, omega, radical
from wamlab.wamcore import (
    EmptyFactorization,
    ExpSum,
    crude_em_bound_holds,
    em_limit,
    evaluate_wam,
    integer_wam_sums,
    mersenne_factorization,
    mersenne_lower_bound_check,
    wam,
    wam_at,
    wam_original,
    wam_sums,
)

# First denominator zero of the two-prime sum over {2, 3}: the root of
# (ln 2)^s + (ln 3)^s sits at i*pi / ln(ln 3 / ln 2).
TWO_TERM_RATE_GAP = math.log(math.log(3) / math.log(2))
FIRST_TWO_TERM_ZERO = complex(0.0, math.pi / TWO_TERM_RATE_GAP)


def term_scale(es, a):
    """sum_k |w_k| exp(r_k a) for real a: the modulus of the terms at Re s = a."""
    return np.exp(np.multiply.outer(a, es.rates)) @ np.abs(es.weights)


class TestIdentities:
    @given(factorizations(min_m=1, max_m=4))
    def test_s_equal_one_is_log_ratio(self, f):
        expected = math.log(f.value) / math.log(radical(f))
        got = wam_at(f, 1.0).value
        assert got is not None
        assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))
        assert abs(got.imag) <= 1e-12

    @given(factorizations(min_m=1, max_m=4))
    def test_s_equal_zero_is_multiplicity_ratio(self, f):
        expected = big_omega(f) / omega(f)
        got = wam_at(f, 0.0).value
        assert got is not None
        assert abs(got - expected) <= 1e-12 * max(1.0, expected)

    @given(factorizations(min_m=1, max_m=4))
    def test_matches_original_definition_at_one(self, f):
        got = wam_at(f, 1.0).value
        assert abs(got - wam_original(f)) <= 1e-12 * max(1.0, abs(got))

    def test_known_value_at_one(self):
        assert abs(wam(72, 1.0).value - 2.3868528072345416) < 1e-15

    def test_prime_powers_are_constant(self):
        for s in (0.0, 1.0, -3.5, 2 + 7j):
            ev = wam(1024, s)
            assert abs(ev.value - 10.0) < 1e-12

    @given(
        factorizations(min_m=2, max_m=4),
        st.floats(-5, 5),
        st.floats(0, 40),
    )
    def test_conjugate_symmetry(self, f, a, b):
        s = complex(a, b)
        up = wam_at(f, s)
        down = wam_at(f, s.conjugate())
        if up.is_pole or down.is_pole:
            assert up.is_pole and down.is_pole
            return
        assert abs(down.value - up.value.conjugate()) <= 1e-10 * max(
            1.0, abs(up.value)
        )

    def test_negative_argument_uses_magnitude(self):
        assert wam(-72, 1.0).value == wam(72, 1.0).value


class TestLargeRealLimit:
    @pytest.mark.parametrize("n", [12, 72, 2048 * 2047])
    def test_limit_is_top_multiplicity(self, n):
        f = factor(n)
        assert abs(wam_at(f, 50.0).value - f.e_m) < 1e-6

    @given(factorizations(min_m=2, max_m=4))
    def test_limit_for_separated_primes(self, f):
        # Restrict to prime sets whose top log-ratio leaves room for decay
        # at a moderate exponent; the closest pool pair needs a much larger
        # exponent than fits in double range.
        ratios = [math.log(p) / math.log(f.primes[-1]) for p in f.primes[:-1]]
        if ratios and max(ratios) > 0.8:
            return
        assert abs(wam_at(f, 120.0).value - f.e_m) < 1e-9

    @pytest.mark.parametrize(
        "n,s",
        [(30, -2000.0), (30030, 5000.0), (72, 700 + 30j), (72, -800 + 3j)],
    )
    def test_extreme_real_parts_match_mpmath(self, n, s):
        # The terms reach exp(+-900) and beyond, far outside double range.
        mpmath = pytest.importorskip("mpmath")
        f = factor(n)
        with mpmath.workdps(30):
            terms = [mpmath.log(p) ** mpmath.mpc(s) for p in f.primes]
            top = mpmath.fsum(e * t for e, t in zip(f.exponents, terms))
            want = complex(top / mpmath.fsum(terms))
        ev = wam(n, s)
        assert abs(ev.value - want) <= 1e-13 * abs(want)
        assert 0 < abs(ev.denominator) <= len(f.primes)

    def test_em_limit_helper(self):
        assert em_limit(factor(72)) == 2
        assert em_limit(factor(12)) == 1
        assert em_limit(factor(2048 * 2047)) == 1
        assert em_limit(factor(7**5)) == 5


class TestPoles:
    def test_two_prime_denominator_zero_is_flagged(self):
        ev = wam(72, FIRST_TWO_TERM_ZERO)
        assert ev.is_pole
        assert ev.value is None
        assert abs(ev.numerator) > 0.5  # genuinely singular

    def test_all_equal_exponents_still_flagged_at_denominator_zero(self):
        # For squarefree n the ratio has a removable point; evaluation still
        # reports the vanishing denominator and a vanishing numerator.
        ev = wam(6, FIRST_TWO_TERM_ZERO)
        assert ev.is_pole
        assert abs(ev.numerator) < 1e-12

    def test_near_zero_is_finite(self):
        ev = wam(72, FIRST_TWO_TERM_ZERO + 0.01)
        assert not ev.is_pole
        assert ev.value is not None and np.isfinite(ev.value)

    def test_pole_threshold_scales_with_sum_size(self):
        ws = integer_wam_sums(factor(72))
        ev = evaluate_wam(ws, FIRST_TWO_TERM_ZERO)
        assert ev.is_pole


class TestDomain:
    @pytest.mark.parametrize("n", [0, 1, -1])
    def test_rejects_units(self, n):
        with pytest.raises(EmptyFactorization):
            wam(n, 1.0)

    @pytest.mark.parametrize("s", [float("nan"), float("inf"), complex(0, float("nan"))])
    def test_rejects_non_finite_points(self, s):
        with pytest.raises(ValueError):
            wam(72, s)

    def test_sums_require_entries(self):
        with pytest.raises(EmptyFactorization):
            wam_sums([], [])

    def test_sums_require_parallel_arrays(self):
        with pytest.raises(ValueError):
            wam_sums([2.0], [1, 2])

    def test_sums_require_positive_heights(self):
        with pytest.raises(ValueError):
            wam_sums([2.0, -1.0], [1, 1])


class TestExpSum:
    def test_matches_direct_formula(self):
        es = ExpSum([2.0, 5.0], [math.log(math.log(2)), math.log(math.log(3))])
        s = 0.7 + 3.1j
        direct = 2.0 * cmath.exp(s * math.log(math.log(2))) + 5.0 * cmath.exp(
            s * math.log(math.log(3))
        )
        assert abs(es(s) - direct) < 1e-12 * abs(direct)

    def test_vectorized_shapes(self):
        es = ExpSum([1.0, 1.0], [0.1, 0.9])
        grid = np.array([[0.0, 1.0], [2.0, 3.0]], dtype=complex)
        out = es(grid)
        assert out.shape == grid.shape
        assert abs(out[0, 0] - 2.0) < 1e-14

    def test_derivative_matches_difference_quotient(self):
        # f' is the sum with weights w_k r_k, taken from the same terms.
        es = ExpSum([1.0, 3.0], [-0.4, 1.2])
        s = 0.3 + 2.0j
        terms, sigma = es.shifted_terms(s)
        derivative = complex(terms @ (es.weights * es.rates)) * math.exp(sigma)
        h = 1e-6
        quotient = (es(s + h) - es(s - h)) / (2 * h)
        assert abs(derivative - quotient) < 1e-6

    @pytest.mark.parametrize("s", [2.0, -3.0 + 1.0j, 5000.0 + 7.0j, -5000.0 - 2.0j])
    def test_shifted_terms_have_largest_modulus_one(self, s):
        es = ExpSum([2.0, 5.0, 1.0], [math.log(math.log(p)) for p in (2, 3, 13)])
        terms, sigma = es.shifted_terms(s)
        assert np.all(np.isfinite(terms))
        assert abs(np.abs(terms).max() - 1.0) < 1e-15
        assert sigma == max(r * s.real for r in es.rates)
        exact = [cmath.exp(r * s - sigma) for r in es.rates]
        assert np.allclose(terms, exact, rtol=1e-12, atol=0.0)


class TestOuterKernel:
    """ExpSum.outer, the separable kernel behind grids and line scans."""

    RE = np.linspace(-6.0, 6.0, 25)
    IM = np.linspace(-40.0, 40.0, 33)

    def shift(self, es, re):
        """exp(max_k r_k re), the factor outer divides each column by."""
        return np.exp(np.multiply.outer(re, es.rates).max(axis=1))

    @given(factorizations(min_m=2))
    def test_rectangle_matches_pointwise(self, f):
        es = integer_wam_sums(f).numerator
        table = es.outer(1j * self.IM, self.RE) * self.shift(es, self.RE)
        pointwise = es(self.RE[None, :] + 1j * self.IM[:, None])
        assert np.all(np.abs(table - pointwise) <= 1e-12 * term_scale(es, self.RE))

    @given(factorizations(min_m=2))
    def test_shift_keeps_signs(self, f):
        es = integer_wam_sums(f).numerator
        table = es.outer(1j * self.IM, self.RE)
        pointwise = es(self.RE[None, :] + 1j * self.IM[:, None])
        clear = 1e-9 * term_scale(es, self.RE)
        for part in (np.real, np.imag):
            away = np.abs(part(pointwise)) > clear
            assert np.array_equal(np.sign(part(pointwise))[away], np.sign(part(table))[away])

    @given(factorizations(min_m=2), st.floats(-2.0, 4.0))
    def test_line_matches_pointwise_to_large_height(self, f, a):
        es = integer_wam_sums(f).numerator
        block, step = 64, 1e5 / 64**2
        heads = block * np.arange(block)
        table = es.outer(a + 1j * step * heads, 1j * step * np.arange(block))
        pointwise = es(a + 1j * step * np.arange(block**2))
        # Each path rounds the phase r_k b to within eps |r_k| b / 2, so the
        # two may differ by eps |r_k| b: about 3.4e-11 for p = 97 at b = 1e5.
        floor = 2 * np.finfo(float).eps * np.abs(es.rates).max() * 1e5
        assert np.all(np.abs(table.ravel() - pointwise) <= floor * term_scale(es, a))

    @given(factorizations(min_m=2))
    def test_shifted_rectangle_survives_extreme_real_parts(self, f):
        mpmath = pytest.importorskip("mpmath")
        sums = integer_wam_sums(f)
        re = np.array([-2000.0, 2000.0])
        with np.errstate(over="ignore", invalid="ignore"):
            pointwise = sums.denominator(re[None, :] + 1j * self.IM[:, None])
        assert not np.all(np.isfinite(pointwise))
        num = sums.numerator.outer(1j * self.IM, re)
        den = sums.denominator.outer(1j * self.IM, re)
        assert np.all(np.isfinite(num)) and np.all(np.isfinite(den))
        with mpmath.workdps(30):
            for i in range(0, self.IM.size, 8):
                for j in range(re.size):
                    s = mpmath.mpc(re[j], self.IM[i])
                    terms = [mpmath.log(p) ** s for p in f.primes]
                    top = mpmath.fsum(e * t for e, t in zip(f.exponents, terms))
                    exact = float(abs(top / mpmath.fsum(terms)))
                    assert abs(abs(num[i, j] / den[i, j]) - exact) <= 1e-9 * exact


class TestCrudeTopMultiplicityBound:
    @pytest.mark.parametrize("n", [8, 30, 72, 360, 2048 * 2047])
    def test_examples_hold(self, n):
        report = crude_em_bound_holds(factor(n))
        assert report.holds
        assert report.e_m <= report.bound + 1e-12

    def test_equality_case(self):
        report = crude_em_bound_holds(factor(8))
        assert report.holds
        assert abs(report.bound - report.e_m) < 1e-12

    @given(factorizations(min_m=1, max_m=4))
    def test_always_holds(self, f):
        assert crude_em_bound_holds(f).holds


class TestMersenneBound:
    def test_factorization_helper(self):
        f = mersenne_factorization(11)
        assert f.value == 2048 * 2047
        assert f.primes == (2, 23, 89)

    def test_holds_at_half(self):
        report = mersenne_lower_bound_check(11, 0.5)
        assert report.holds
        assert report.lemma_lhs < report.lemma_rhs
        assert report.goal_lhs > report.goal_rhs

    def test_lemma_left_side_at_zero_for_two(self):
        report = mersenne_lower_bound_check(2, 0.0)
        assert abs(report.lemma_lhs - 1.0) < 1e-12

    def test_complex_point(self):
        report = mersenne_lower_bound_check(4, 0.9 + 1j)
        assert report.holds

    def test_margins_positive_on_sample(self):
        for n in (2, 5, 11, 25, 40):
            for s in (0.0, 0.5, 0.9, -1.0, 0.5 + 5j):
                report = mersenne_lower_bound_check(n, s)
                assert report.holds, (n, s)
                assert report.lemma_margin > 0
                assert report.goal_margin > 0

    @pytest.mark.parametrize("n", [0, 1, 64, 100])
    def test_rejects_out_of_range_exponent(self, n):
        with pytest.raises(ValueError):
            mersenne_lower_bound_check(n, 0.5)

    @pytest.mark.parametrize("s", [1.0, 1.5, 1 + 2j])
    def test_rejects_real_part_at_least_one(self, s):
        with pytest.raises(ValueError):
            mersenne_lower_bound_check(11, s)

    def test_growth_along_the_family(self):
        small = wam_at(mersenne_factorization(5), 0.5).value.real
        large = wam_at(mersenne_factorization(60), 0.5).value.real
        assert large > small


class TestRandomizedCrossChecks:
    def test_wam_against_direct_sum(self):
        rng = random.Random(20)
        for _ in range(200):
            n = rng.randrange(2, 10**6)
            f = factor(n)
            s = complex(rng.uniform(-3, 3), rng.uniform(0, 30))
            ev = wam_at(f, s)
            num = sum(
                e * cmath.exp(s * math.log(math.log(p)))
                for p, e in f.pairs()
            )
            den = sum(cmath.exp(s * math.log(math.log(p))) for p, _ in f.pairs())
            if ev.is_pole:
                scale = sum(abs(cmath.exp(s * math.log(math.log(p)))) for p, _ in f.pairs())
                assert abs(den) <= 1e-11 * scale
            else:
                assert abs(ev.value - num / den) <= 1e-9 * max(1.0, abs(num / den))
