"""Locating denominator zeros: grid + Newton search, contour counts, probes."""

import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from conftest import SMALL_PRIMES, factorizations
from wamlab.arith import Factorization, factor
from wamlab import zeros
from wamlab.critical import critical_abscissa
from wamlab.wamcore import integer_wam_sums
from wamlab.zeros import (
    BoundaryZero,
    Classification,
    QuadratureNoConvergence,
    SearchRegion,
    argument_principle_count,
    _dedup,
    _seed_points,
    critical_line_probe,
    find_zeros,
)

STRIP_TO_50 = SearchRegion(re_min=-1.0, re_max=1.0, im_min=0.0, im_max=50.0)
#: 53 * 59^2 * 61 * 67^2 * ... * 103^2: twelve primes, terms near 1e65 at a_crit.
TWELVE_PRIMES = Factorization.from_pairs(
    [
        (p, 1 + i % 2)
        for i, p in enumerate((53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103))
    ]
)
#: abc of the sample triple (13573088, 349609375, 363182463).
SAMPLE_6 = 13573088 * 349609375 * 363182463


def newton_step(f, z):
    """|f/f'| at z for f = sum_k (ln p_k)^s, summed directly in complex floats."""
    rates = [math.log(math.log(p)) for p in f.primes]
    terms = [cmath.exp(r * z) for r in rates]
    return abs(sum(terms) / sum(r * t for r, t in zip(rates, terms)))


def two_prime_zeros(p, q, im_max):
    """Zeros of (ln p)^s + (ln q)^s with imaginary part in [0, im_max].

    The sum vanishes exactly at s = i*pi*(2k+1) / ln(ln q / ln p), a closed
    form that is independent of the search code under test.
    """
    gap = math.log(math.log(q) / math.log(p))
    out = []
    k = 0
    while True:
        b = math.pi * (2 * k + 1) / gap
        if b > im_max:
            return out
        out.append(complex(0.0, b))
        k += 1


def count_with_jitter(f, region):
    """Contour count, nudging the top edge when a zero sits on the boundary."""
    for bump in (0.0, 0.0371, 0.0734):
        try:
            return argument_principle_count(
                f,
                SearchRegion(
                    re_min=region.re_min,
                    re_max=region.re_max,
                    im_min=region.im_min,
                    im_max=region.im_max + bump,
                ),
            )
        except (BoundaryZero, QuadratureNoConvergence):
            continue
    raise AssertionError("could not find a clean contour")


def dedup_reference(points, residuals, radius):
    """The quadratic greedy loop that _dedup replaced, kept as its oracle."""
    order = np.lexsort((points.imag, points.real))
    kept = []
    for i in order:
        merged = False
        for j, k in enumerate(kept):
            if abs(points[i] - points[k]) < radius:
                if residuals[i] < residuals[k]:
                    kept[j] = i
                merged = True
                break
        if not merged:
            kept.append(i)
    return [int(k) for k in kept]


def planted_cloud(seed, radius, im_offset):
    """Cluster centres with near-duplicates planted around them at up to
    1.5 radius, some stacked vertically at one re; integer residuals tie."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-20, 20, 60) * radius + 1j * (
        im_offset + rng.uniform(0, 20, 60) * radius
    )
    points = []
    for z in centres:
        k = rng.integers(1, 8)
        angles = np.exp(2j * np.pi * rng.uniform(0, 1, k))
        offsets = rng.uniform(0, 1.5, k) * radius * angles
        offsets[rng.uniform(0, 1, k) < 0.2] *= 0  # exact repeats
        stacked = rng.uniform(0, 1, k) < 0.2
        offsets[stacked] = 1j * offsets[stacked].imag  # same re as the centre
        points.extend(z + offsets)
    points = np.array(points)
    rng.shuffle(points)
    residuals = rng.integers(0, 4, points.size).astype(float).tolist()
    return points, residuals


class TestTwoPrimeClosedForm:
    def test_first_four_zeros_for_smallest_primes(self):
        search = find_zeros(factor(6), STRIP_TO_50)
        expected = [6.821234041066631, 20.46370212319989, 34.10617020533315, 47.748638287466406]
        assert len(search.records) == len(expected)
        assert len(search) == len(search.records)  # perfbench's tracer reads len(search)
        for record, b in zip(search.records, expected):
            assert abs(record.location - complex(0, b)) < 1e-8

    @given(
        st.sampled_from(SMALL_PRIMES),
        st.sampled_from(SMALL_PRIMES),
        st.integers(1, 4),
        st.integers(1, 4),
    )
    def test_matches_formula_for_any_prime_pair(self, p, q, ep, eq):
        if p == q:
            return
        f = Factorization.from_pairs([(p, ep), (q, eq)])
        search = find_zeros(f, SearchRegion(-1.0, 1.0, 0.0, 30.0))
        expected = two_prime_zeros(min(p, q), max(p, q), 30.0)
        assert len(search.records) == len(expected)
        for record, z in zip(search.records, expected):
            assert abs(record.location - z) < 1e-8
            want = (
                Classification.REMOVABLE if ep == eq else Classification.POLE
            )
            assert record.classification is want

    def test_zero_free_window_returns_empty(self):
        search = find_zeros(factor(6), SearchRegion(-1.0, 1.0, 0.0, 5.0))
        assert len(search.records) == 0


class TestClassification:
    def test_equal_exponents_are_removable(self):
        search = find_zeros(factor(36), STRIP_TO_50)  # 2^2 * 3^2
        assert search.records
        assert all(
            r.classification is Classification.REMOVABLE for r in search.records
        )

    def test_unequal_exponents_are_poles(self):
        search = find_zeros(factor(72), STRIP_TO_50)  # 2^3 * 3^2
        assert search.records
        assert all(r.classification is Classification.POLE for r in search.records)

    @given(factorizations(min_m=2, max_m=3, max_exp=1), st.integers(2, 4))
    def test_powers_of_squarefree_are_removable(self, base, k):
        try:
            powered = Factorization.from_pairs([(p, k) for p in base.primes])
        except ValueError:
            return  # k-th power exceeded the admissible integer range
        search = find_zeros(powered, SearchRegion(-1.0, 1.0, 0.0, 25.0))
        assert all(
            r.classification is Classification.REMOVABLE for r in search.records
        )


class TestSearchQuality:
    @given(factorizations(min_m=2, max_m=4))
    # A zero near 11.21 + 37.59i has terms of about 3e7, where rounding
    # alone leaves the absolute |f| near 1e-8.  The residual is relative to
    # the largest term, so it stays small there; the Newton step checks
    # each location on an absolute scale.
    @example(Factorization.from_pairs([(53, 1), (59, 1), (61, 1), (83, 1)]))
    def test_residuals_are_small_and_locations_in_region(self, f):
        a0 = critical_abscissa(f).a_crit
        region = SearchRegion(-1.0, a0 + 1.0, 0.0, 40.0)
        search = find_zeros(f, region)
        for r in search.records:
            assert region.contains(r.location, slack=1e-6)
            assert r.residual < 1e-8
            assert newton_step(f, r.location) < 1e-9 * max(1.0, abs(r.location))

    @given(factorizations(min_m=2, max_m=4))
    def test_no_zero_right_of_critical_abscissa(self, f):
        a0 = critical_abscissa(f).a_crit
        search = find_zeros(f, SearchRegion(-1.0, a0 + 1.0, 0.0, 40.0))
        for r in search.records:
            assert r.location.real <= a0 + 1e-8

    def test_conjugate_symmetry_of_zero_set(self):
        f = factor(30)
        search = find_zeros(f, SearchRegion(-1.0, 2.5, -20.0, 20.0))
        locations = [r.location for r in search.records]
        assert locations
        for z in locations:
            mirrored = min(abs(z.conjugate() - w) for w in locations)
            assert mirrored < 1e-8

    def test_records_sorted_by_real_then_imaginary(self):
        search = find_zeros(factor(30), SearchRegion(-1.0, 2.5, 0.0, 60.0))
        keys = [(round(r.location.real, 6), r.location.imag) for r in search.records]
        assert keys == sorted(keys)

    def test_finds_the_counted_zero_among_huge_terms(self):
        f = TWELVE_PRIMES
        a0 = critical_abscissa(f).a_crit
        region = SearchRegion(a0 - 8.0, a0 + 0.5, 500.0, 1000.0)
        search = find_zeros(f, region)
        assert len(search.records) == argument_principle_count(f, region) == 1

    def test_finds_a_high_zero_near_the_critical_line(self):
        # Terms sum to about 6e4 here, and rounding the phases r_k b at
        # height 3.3e4 alone leaves |f| near 1e-6: an absolute 1e-10 stop
        # is out of reach, a relative one is not.
        expected = complex(6.275788940392628, 33261.39684439615)
        region = SearchRegion(6.26579, 6.28579, 33261.347, 33261.447, grid_step=0.005)
        search = find_zeros(factor(SAMPLE_6), region)
        assert any(abs(r.location - expected) < 1e-8 for r in search.records)

    def test_search_tallies_are_consistent(self):
        search = find_zeros(factor(30), STRIP_TO_50)
        assert search.seeds >= search.converged
        assert search.converged + search.no_convergence == search.seeds
        assert len(search.records) + search.out_of_region + search.deduplicated == search.converged


class TestSeedBands:
    REGION = SearchRegion(-1.0, 2.5, 0.0, 40.0)

    @pytest.mark.parametrize("block", [1, 300, 5000])
    def test_bands_do_not_change_the_seeds(self, monkeypatch, block):
        f = factor(30)
        den = integer_wam_sums(f).denominator
        whole = _seed_points(den, self.REGION)
        whole_search = find_zeros(f, self.REGION)
        monkeypatch.setattr(zeros, "_SEED_BLOCK", block)
        assert np.array_equal(_seed_points(den, self.REGION), whole)
        assert find_zeros(f, self.REGION) == whole_search

    def test_seed_grid_memory_is_bounded(self):
        # 71 x 100001 grid points: evaluated at once, the grid and its
        # per-term temporaries would take several hundred MB.
        f = factor(30)
        find_zeros(f, SearchRegion(-1.0, 2.5, 0.0, 5.0))
        tracemalloc.start()
        try:
            search = find_zeros(f, SearchRegion(-1.0, 2.5, 0.0, 5000.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(search.records) > 0
        assert peak < 64 * 2**20


KNOWN_COUNTS = [
    (6, SearchRegion(-1.0, 1.0, 5.0, 10.0), 1),
    (6, SearchRegion(-1.0, 1.0, 0.0, 25.0), 2),
    (6, SearchRegion(-1.0, 1.0, 0.0, 5.0), 0),
]


class TestArgumentPrinciple:
    @pytest.mark.parametrize("n,region,count", KNOWN_COUNTS)
    def test_known_counts(self, n, region, count):
        assert argument_principle_count(factor(n), region) == count

    def test_agrees_with_search_on_random_factorizations(self):
        rng = random.Random(99)
        for _ in range(12):
            m = rng.choice([2, 3, 4])
            primes = rng.sample(SMALL_PRIMES, m)
            pairs = [(p, rng.randrange(1, 5)) for p in primes]
            f = Factorization.from_pairs(pairs)
            a0 = critical_abscissa(f).a_crit
            region = SearchRegion(-1.0, a0 + 1.0, 0.0, 40.0)
            found = len(find_zeros(f, region).records)
            assert count_with_jitter(f, region) == found, f.value

    def test_quadrature_rule_is_computed_once(self, monkeypatch):
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def counting(deg):
            calls.append(deg)
            return leggauss(deg)

        zeros._gauss_legendre.cache_clear()
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        try:
            for n, region, count in KNOWN_COUNTS:
                assert argument_principle_count(factor(n), region) == count
        finally:
            zeros._gauss_legendre.cache_clear()
        assert calls == [zeros._GL_NODES_PER_PANEL]

    def test_boundary_zero_is_detected(self):
        # The first zero for {2, 3} sits exactly on the top edge here, so the
        # contour must refuse rather than return a wrong count.
        region = SearchRegion(-1.0, 1.0, 0.0, 6.821234041066631)
        with pytest.raises((BoundaryZero, QuadratureNoConvergence)):
            argument_principle_count(factor(6), region)


class TestCriticalLineProbe:
    def test_requires_at_least_three_primes(self):
        with pytest.raises(ValueError):
            critical_line_probe(factor(6), 100.0, 2000)

    def test_refuses_an_abscissa_whose_sum_overflows(self):
        # a_crit 25507.23: sum_k (ln p_k)^a_crit is e^62328, past the doubles.
        with pytest.raises(ValueError, match="a_crit = 25507.23"):
            critical_line_probe(factor(100003 * 100019 * 100043), 100.0, 2000)

    @pytest.mark.parametrize("b_max", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_b_max_that_is_not_positive_and_finite(self, b_max):
        with pytest.raises(ValueError, match="b_max"):
            critical_line_probe(factor(30), b_max, 2000)

    def test_minimum_shrinks_with_range(self):
        f = factor(30)
        short = critical_line_probe(f, 1000.0, 20_000)
        long = critical_line_probe(f, 100_000.0, 2_000_000)
        assert long.min_abs <= short.min_abs
        assert short.min_abs > 0
        assert 0 <= short.argmin_b <= 1000.0
        assert 0 <= long.argmin_b <= 100_000.0

    def test_denser_sampling_never_raises_the_minimum(self):
        f = factor(30)
        coarse = critical_line_probe(f, 5000.0, 50_000)
        fine = critical_line_probe(f, 5000.0, 100_000)
        assert fine.min_abs <= coarse.min_abs + 1e-15

    def test_probe_points_sit_on_critical_line(self):
        f = factor(2 * 3 * 5 * 7)
        probe = critical_line_probe(f, 500.0, 10_000)
        a0 = critical_abscissa(f).a_crit
        assert probe.a_crit == a0
        # evaluate the denominator at the reported argmin and check it matches
        s = complex(a0, probe.argmin_b)
        den = sum(cmath.exp(s * math.log(math.log(p))) for p in f.primes)
        assert abs(abs(den) - probe.min_abs) < 1e-9

    def test_reports_the_pointwise_minimum(self):
        # Three chunks of samples, each scanned in blocks by the kernel.
        f = factor(2 * 3 * 5 * 7)
        samples = 3_000_000
        probe = critical_line_probe(f, 1e5, samples)
        den = integer_wam_sums(f).denominator
        step = 1e5 / samples
        best = (math.inf, -1)
        for lo in range(0, samples + 1, 1 << 18):
            idx = np.arange(lo, min(lo + (1 << 18), samples + 1))
            vals = np.abs(den(probe.a_crit + 1j * step * idx))
            k = int(np.argmin(vals))
            best = min(best, (float(vals[k]), int(idx[k])))
        assert probe.argmin_b == step * best[1]
        assert abs(probe.min_abs - best[0]) < 1e-12


class TestRegionValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(re_min=1.0, re_max=0.0, im_min=0.0, im_max=1.0),
            dict(re_min=0.0, re_max=1.0, im_min=2.0, im_max=1.0),
            dict(re_min=0.0, re_max=1.0, im_min=0.0, im_max=1.0, grid_step=0.0),
            dict(re_min=0.0, re_max=1.0, im_min=0.0, im_max=1.0, grid_step=-0.05),
            dict(re_min=0.0, re_max=1.0, im_min=0.0, im_max=1.0, grid_step=math.nan),
            dict(re_min=0.0, re_max=1.0, im_min=0.0, im_max=1.0, grid_step=math.inf),
            dict(re_min=0.0, re_max=1.0, im_min=0.0, im_max=math.inf),
            dict(re_min=-math.inf, re_max=1.0, im_min=0.0, im_max=1.0),
            dict(re_min=math.nan, re_max=1.0, im_min=0.0, im_max=1.0),
        ],
    )
    def test_rejects_bad_regions(self, kwargs):
        with pytest.raises(ValueError):
            SearchRegion(**kwargs)

    def test_contains_respects_slack(self):
        region = SearchRegion(0.0, 1.0, 0.0, 1.0)
        assert region.contains(0.5 + 0.5j)
        assert not region.contains(1.2 + 0.5j)
        assert region.contains(1.0 + 1e-9 + 0.5j, slack=1e-6)

    def test_single_prime_is_rejected(self):
        with pytest.raises(ValueError):
            find_zeros(factor(8), STRIP_TO_50)


class TestDedup:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize(
        "radius, im_offset", [(1e-9, 0.0), (1e-9, 4000.0), (0.05, 0.0), (1.0, 37.5)]
    )
    def test_matches_quadratic_reference(self, seed, radius, im_offset):
        points, residuals = planted_cloud(seed, radius, im_offset)
        kept = _dedup(points, residuals, radius)
        assert kept == dedup_reference(points, residuals, radius)
        assert len(kept) < points.size

    def test_empty_and_single(self):
        assert _dedup(np.array([], dtype=complex), [], 1e-9) == []
        assert _dedup(np.array([1 + 2j]), [0.5], 1e-9) == [0]
