"""Critical abscissa of the denominator sum and the tail bound above it."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import factorizations
from test_acceptance import SAMPLE_TRIPLES
from wamlab.arith import factor
from wamlab.critical import (
    BelowCritical,
    critical_abscissa,
    critical_abscissae,
    is_wam_constant,
    wam_upper,
)
from wamlab.triples import generate_triples
from wamlab.wamcore import EmptyFactorization, wam_at


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
        return oracle_root([mpmath.log(mpmath.log(p)) - top for p in primes[:-1]], mpmath)


def oracle_root(rates, mpmath):
    """The root of sum_k exp(a r_k) = 1 for negative rates r_k, to 30 digits."""
    with mpmath.workdps(30):

        def h(a):
            return mpmath.fsum(mpmath.exp(a * r) for r in rates) - 1

        hi = mpmath.mpf(1)
        while h(hi) > 0:
            hi *= 2
        return mpmath.findroot(h, (0, hi), solver="anderson")


def scalar_abscissa(f):
    """The one-row bisection critical_abscissa ran before the batch solver:
    a float loop with one np.sum of a length m - 1 array per step.
    critical_abscissae must reproduce it bit for bit."""
    m = len(f.primes)
    if m == 1:
        return None
    if m == 2:
        return 0.0
    logs = np.log([float(p) for p in f.primes])
    log_ratios = np.log(logs[:-1]) - math.log(logs[-1])

    def g(a):
        with np.errstate(over="ignore"):
            return float(np.sum(np.exp(a * log_ratios)))

    lo, hi = -64.0, 64.0
    for _ in range(60):
        if g(hi) < 1.0:
            break
        hi *= 2.0
    else:
        raise RuntimeError("bisection bracket expansion failed")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if g(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def squarefree(primes):
    return factor(math.prod(primes))


def mixed_factorizations():
    """m = 1 ... 14, every m at least twice, in a seeded shuffled order."""
    rng = random.Random(2024)
    pool = [p for p in range(2, 400) if all(p % d for d in range(2, p))]
    fs = [factor(8), factor(6), factor(72), factor(30), factor(30)]
    for m in range(1, 15):
        for _ in range(3):
            fs.append(squarefree(sorted(rng.sample(pool, m))))
    fs.append(factor(1960 * 59049 * 61009))
    rng.shuffle(fs)
    return fs


def a_crits(fs):
    return [p.a_crit for p in critical_abscissae(fs)]


class TestBatchAbscissae:
    """critical_abscissae against the scalar bisection it replaced, with ==."""

    def test_mixed_list_equals_scalar_bisection(self):
        fs = mixed_factorizations()
        assert {len(f.primes) for f in fs} == set(range(1, 15))
        assert a_crits(fs) == [scalar_abscissa(f) for f in fs]

    def test_generated_triples_equal_scalar_bisection(self):
        fs = [t.abc_factorization for t in generate_triples(10**4)]
        assert len(fs) > 100
        assert a_crits(fs) == [scalar_abscissa(f) for f in fs]

    @given(st.lists(factorizations(min_m=1, max_m=8), max_size=12))
    def test_drawn_lists_equal_scalar_bisection(self, fs):
        assert a_crits(fs) == [scalar_abscissa(f) for f in fs]

    def test_single_call_equals_batch_entry(self):
        fs = mixed_factorizations()
        assert [critical_abscissa(f) for f in fs] == critical_abscissae(fs)

    def test_input_order_is_kept(self):
        fs = mixed_factorizations()
        forward = critical_abscissae(fs)
        backward = critical_abscissae(fs[::-1])
        assert backward == forward[::-1]
        assert [(p.m, p.e_m) for p in forward] == [(f.m, f.e_m) for f in fs]
        assert [p.is_constant for p in forward] == [is_wam_constant(f) for f in fs]

    def test_a_crit_is_a_python_float(self):
        assert {type(a) for a in a_crits(mixed_factorizations())} == {float, type(None)}

    def test_empty_list(self):
        assert critical_abscissae([]) == []

    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_n_equal_one_anywhere_raises(self, where):
        fs = [factor(30), factor(6), factor(8), factor(30030), factor(72), factor(105)]
        fs.insert(where, factor(1))
        with pytest.raises(EmptyFactorization):
            critical_abscissae(fs)


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
        squarefree = factor(math.prod(f.primes))
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

    # Above 2^19 one ulp exceeds BISECT_TOL, so only the one-ulp stop ends the
    # loop.  a_crit 4.1e5 lies below, where the one-row loop's result holds.
    @pytest.mark.parametrize(
        "primes",
        [
            (400009, 400031, 400033),
            (1000003, 1000033, 1000037),
            (1000000000039, 1000000000061, 1000000000063),
        ],
    )
    def test_high_abscissa_stops_at_one_ulp(self, primes):
        mpmath = pytest.importorskip("mpmath")
        f = squarefree(primes)
        a = critical_abscissa(f).a_crit
        # Against the root of g on the float log ratios the solver uses.
        logs = np.log([float(p) for p in primes])
        rates = np.log(logs[:-1]) - math.log(logs[-1])
        assert abs(a - oracle_root(rates.tolist(), mpmath)) <= 1e-12 * a
        # Against the exact root, within what rounding the log ratios allows:
        # an error d in every rate moves a_crit by at most a * d / min |r|.
        exact = oracle_abscissa(primes, mpmath)
        d = 4 * np.spacing(math.log(math.log(primes[-1])))
        assert abs(a - exact) <= a * d / np.abs(rates).min()
        if a < 2**19:
            assert a == scalar_abscissa(f)

    def test_close_primes_push_the_abscissa_high(self):
        f = factor(83 * 89 * 97)
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

    def test_infinite_abscissae_keep_their_limits(self):
        assert wam_upper(factor(72), math.inf) == 2.0
        with pytest.raises(BelowCritical):
            wam_upper(factor(30), -math.inf)

    def test_nan_abscissa_is_refused(self):
        with pytest.raises(ValueError, match="nan"):
            wam_upper(factor(30), math.nan)

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


class TestNoPolesBeyondCritical:
    @given(factorizations(min_m=2, max_m=4))
    def test_evaluations_stay_finite(self, f):
        a0 = critical_abscissa(f).a_crit
        rng = random.Random(13)
        for _ in range(30):
            s = complex(a0 + 1e-6 + rng.uniform(0, 5), rng.uniform(-50, 50))
            assert not wam_at(f, s).is_pole
