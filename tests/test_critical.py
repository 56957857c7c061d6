"""Critical abscissa of the denominator sum and the tail bound above it."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import factorizations
from test_acceptance import SAMPLE_TRIPLES
from wamlab.arith import Factorization, factor
from wamlab.critical import (
    BelowCritical,
    critical_abscissa,
    denominator_gap,
    is_wam_constant,
    wam_upper,
)
from wamlab.wamcore import wam_at


def defect(f, a):
    """g(a) - 1 where g is the normalized denominator tail at abscissa a."""
    top = math.log(f.primes[-1])
    return sum((math.log(p) / top) ** a for p in f.primes[:-1]) - 1.0


def oracle_abscissa(primes, mpmath):
    """a_crit to 30 digits, by mpmath alone: the root of g(a) = 1.

    Needs m >= 3.  h(a) = g(a) - 1 is strictly decreasing with h(0) =
    m - 2 > 0, so [0, hi] brackets the root once h(hi) < 0.
    """
    with mpmath.workdps(30):
        top = mpmath.log(mpmath.log(primes[-1]))
        rates = [mpmath.log(mpmath.log(p)) - top for p in primes[:-1]]

        def h(a):
            return mpmath.fsum(mpmath.exp(a * r) for r in rates) - 1

        hi = mpmath.mpf(1)
        while h(hi) > 0:
            hi *= 2
        return mpmath.findroot(h, (0, hi), solver="anderson")


class TestCriticalAbscissa:
    def test_single_prime_has_none(self):
        profile = critical_abscissa(factor(8))
        assert profile.a_crit is None
        assert profile.m == 1
        assert profile.e_m == 3

    def test_two_primes_is_exactly_zero(self):
        assert critical_abscissa(factor(6)).a_crit == 0.0
        assert critical_abscissa(factor(72)).a_crit == 0.0

    def test_three_prime_example(self):
        a = critical_abscissa(factor(30)).a_crit
        assert abs(a - 1.1932950207262243) < 1e-9
        assert abs(defect(factor(30), a)) < 1e-9

    def test_known_product_example(self):
        f = factor(1960 * 59049 * 61009)
        a = critical_abscissa(f).a_crit
        assert abs(a - 3.5355436550744344) < 1e-8
        assert abs(defect(f, a)) < 1e-8

    @given(factorizations(min_m=3, max_m=4))
    def test_root_property(self, f):
        a = critical_abscissa(f).a_crit
        assert a is not None
        assert abs(defect(f, a)) < 1e-7

    @given(factorizations(min_m=3, max_m=4))
    def test_sign_change_around_root(self, f):
        a = critical_abscissa(f).a_crit
        assert defect(f, a - 1e-5) > 0 > defect(f, a + 1e-5)

    @given(factorizations(min_m=2, max_m=4))
    def test_independent_of_exponents(self, f):
        squarefree = Factorization.from_pairs([(p, 1) for p in f.primes])
        assert critical_abscissa(f).a_crit == critical_abscissa(squarefree).a_crit

    def test_sample_triples_match_mpmath_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        sympy = pytest.importorskip("sympy")
        for (a, b, c), target, _ in SAMPLE_TRIPLES:
            n = a * b * c
            exact = oracle_abscissa(sorted(sympy.factorint(n)), mpmath)
            assert abs(critical_abscissa(factor(n)).a_crit - exact) < 1e-9
            # Criterion 01's targets are this root rounded to 6 decimals.
            assert abs(target - exact) <= 5e-7

    # a_crit ignores exponents (see test_independent_of_exponents), and
    # squarefree draws keep six primes under the 2^127 product limit.
    @settings(max_examples=12)
    @given(factorizations(min_m=3, max_m=6, max_exp=1))
    def test_matches_mpmath_oracle(self, f):
        mpmath = pytest.importorskip("mpmath")
        exact = oracle_abscissa(f.primes, mpmath)
        assert abs(critical_abscissa(f).a_crit - exact) < 1e-9

    def test_close_primes_push_the_abscissa_high(self):
        f = Factorization.from_pairs([(83, 1), (89, 1), (97, 1)])
        a = critical_abscissa(f).a_crit
        assert a > 10
        assert abs(defect(f, a)) < 1e-7

    def test_profile_reports_constancy(self):
        assert critical_abscissa(factor(36)).is_constant
        assert not critical_abscissa(factor(72)).is_constant
        assert is_wam_constant(factor(30))
        assert not is_wam_constant(factor(60))


class TestTailBound:
    def test_two_prime_closed_form(self):
        # For {2, 3} with all exponents 1 the bound at a=1 collapses to
        # (ln 2 + ln 3) / (ln 3 - ln 2).
        expected = (math.log(2) + math.log(3)) / (math.log(3) - math.log(2))
        assert abs(wam_upper(factor(6), 1.0) - expected) < 1e-12

    def test_limit_approaches_top_multiplicity(self):
        assert abs(wam_upper(factor(30), 50.0) - 1.0) < 1e-4
        assert abs(wam_upper(factor(72), 50.0) - 2.0) < 1e-4

    @pytest.mark.parametrize("n,a", [(30030, 1000.0), (30030, 8.0), (72, 50.0)])
    def test_matches_mpmath(self, n, a):
        mpmath = pytest.importorskip("mpmath")
        f = factor(n)
        with mpmath.workdps(30):
            terms = [mpmath.log(p) ** a for p in f.primes]
            top = mpmath.fsum(e * t for e, t in zip(f.exponents, terms))
            want = float(top / (terms[-1] - mpmath.fsum(terms[:-1])))
        got = wam_upper(f, a)
        assert math.isfinite(got)
        assert abs(got - want) <= 1e-12 * want

    def test_rejects_at_or_below_critical(self):
        profile = critical_abscissa(factor(30))
        for a in (profile.a_crit, profile.a_crit - 0.5, -3.0):
            with pytest.raises(BelowCritical):
                wam_upper(factor(30), a)

    def test_single_prime_bound_is_flat(self):
        for a in (-10.0, 0.0, 5.0):
            assert abs(wam_upper(factor(8), a) - 3.0) < 1e-12

    def test_monotone_decreasing_above_critical(self):
        f = factor(30)
        a0 = critical_abscissa(f).a_crit
        grid = np.linspace(a0 + 0.05, a0 + 20, 120)
        values = [wam_upper(f, a) for a in grid]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))

    @given(factorizations(min_m=2, max_m=4))
    def test_dominates_magnitude_on_vertical_lines(self, f):
        profile = critical_abscissa(f)
        a = profile.a_crit + 0.25
        bound = wam_upper(f, a)
        rng = random.Random(7)
        for _ in range(25):
            s = complex(a, rng.uniform(0, 200))
            ev = wam_at(f, s)
            assert not ev.is_pole
            assert abs(ev.value) <= bound * (1 + 1e-12)

    @given(factorizations(min_m=2, max_m=4))
    def test_gap_lower_bounds_denominator(self, f):
        a = critical_abscissa(f).a_crit + 0.3
        gap = denominator_gap(f, a)
        assert gap > 0
        rng = random.Random(11)
        for _ in range(25):
            s = complex(a, rng.uniform(0, 100))
            den = sum(
                np.exp(s * math.log(math.log(p))) for p in f.primes
            )
            assert abs(den) >= gap * (1 - 1e-12)


class TestNoPolesBeyondCritical:
    @given(factorizations(min_m=2, max_m=4))
    def test_evaluations_stay_finite(self, f):
        a0 = critical_abscissa(f).a_crit
        rng = random.Random(13)
        for _ in range(30):
            s = complex(a0 + 1e-6 + rng.uniform(0, 5), rng.uniform(-50, 50))
            assert not wam_at(f, s).is_pole
