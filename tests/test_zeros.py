"""Locating denominator zeros: grid + Newton search, contour counts, probes."""

import cmath
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from conftest import SMALL_PRIMES, factorizations
from wamlab.arith import factor
from wamlab import zeros
from wamlab.critical import critical_abscissa
from wamlab.triples import generate_triples
from wamlab.wamcore import ExpSum, integer_wam_sums
from wamlab.zeros import (
    BoundaryZero,
    Classification,
    SearchRegion,
    argument_principle_count,
    _dedup,
    _seed_points,
    critical_line_probe,
    find_zeros,
)

STRIP_TO_50 = SearchRegion(re_min=-1.0, re_max=1.0, im_min=0.0, im_max=50.0)
#: 53 * 59^2 * 61 * 67^2 * ... * 103^2: twelve primes, terms near 1e65 at a_crit.
TWELVE_PRIMES = factor(
    math.prod(
        p ** (1 + i % 2)
        for i, p in enumerate((53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103))
    )
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
        except BoundaryZero:
            continue
    raise AssertionError("could not find a clean contour")


def dedup_reference(points, residuals, radius):
    """The quadratic greedy loop that _dedup replaced, kept as its oracle;
    `radius` is one distance or one per point, and two points merge within
    the larger of their radii."""
    radii = np.broadcast_to(radius, points.shape)
    order = np.lexsort((points.imag, points.real))
    kept = []
    for i in order:
        merged = False
        for j, k in enumerate(kept):
            if abs(points[i] - points[k]) < max(radii[i], radii[k]):
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
        f = factor(p**ep * q**eq)
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
            powered = factor(math.prod(p**k for p in base.primes))
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
    @example(factor(53 * 59 * 61 * 83))
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

    def test_a_zero_met_from_two_seeds_is_reported_once(self):
        # Two seeds converge 1.23e-9 apart on the zero at 2.96435755 +
        # 1590.38863610i, where |f'| is 0.052 in the search's units: Newton
        # stops with the points good to about 2e-9.  The certified count of
        # the rectangle is 641.
        region = SearchRegion(-10.0, 7.29, 0.0131, 2000.0137)
        search = find_zeros(factor(SAMPLE_6), region)
        assert len(search.records) == argument_principle_count(factor(SAMPLE_6), region) == 641
        near = [r for r in search.records if abs(r.location - (2.96435755 + 1590.3886361j)) < 1e-6]
        assert len(near) == 1

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
        assert peak < 16 * 2**20

    def test_a_row_of_100000_points_still_seeds(self):
        # Two rows of 100,000 points, one cell high, around the first zero
        # of (ln 2)^s + (ln 3)^s at 6.821234i: wider than one block,
        # so the band holds two rows.
        step = 2.0 / 99_999
        region = SearchRegion(-1.0, 1.0, 6.82123, 6.82123 + step, grid_step=step)
        den = integer_wam_sums(factor(6)).denominator
        seeds = _seed_points(den, region)
        assert seeds.size == 1
        assert abs(seeds[0] - 6.821234041066631j) < step


def complex_seed_points(den, region):
    """The seeds of _seed_points from complex tables: the product of the
    weighted terms on the imaginary axis and the shifted terms on the real
    one, in 256-row bands, and the signs of their real and
    imaginary parts tested by summing the four corners' signs."""
    step = region.grid_step
    n_re = zeros._axis_size(region.re_min, region.re_max, step, math.inf)
    n_im = zeros._axis_size(region.im_min, region.im_max, step, math.inf)
    re = region.re_min + step * np.arange(n_re)
    seeds = []
    for lo in range(0, n_im - 1, 255):
        im = region.im_min + step * np.arange(lo, min(lo + 256, n_im))
        u_terms = den.shifted_terms(1j * im)[0] * den.weights
        v_terms = den.shifted_terms(re)[0].astype(complex)
        table = u_terms @ v_terms.T
        mixed = []
        for part in (table.real, table.imag):
            sign = np.where(part >= 0, 1, -1)
            mixed.append(np.abs(sign[:-1, :-1] + sign[:-1, 1:] + sign[1:, :-1] + sign[1:, 1:]) < 4)
        i, j = np.nonzero(mixed[0] & mixed[1])
        seeds.append((re[j] + 0.5 * step) + 1j * (region.im_min + step * (i + lo) + 0.5 * step))
    return np.concatenate(seeds)


def census_case(n, re_lo, re_hi, im_lo, im_hi):
    """(f, region) with real edges given relative to a_crit when they are
    strings ("+1.0" is a_crit + 1)."""
    f = factor(n)
    a = critical_abscissa(f).a_crit
    edge = lambda x: a + float(x) if isinstance(x, str) else x  # noqa: E731
    return f, SearchRegion(edge(re_lo), edge(re_hi), im_lo, im_hi)


#: The rectangles of the perfbench pole census at seed 0 (four triples with
#: four primes in abc, and the twelve-prime product), and sample 6's
#: pole_scatter.py rectangle and a taller, wider one.
SEED_CASES = [
    (1331 * 4096 * 5427, -1.0, "+1.0", 0.0, 60.0),
    (1024 * 2187 * 3211, -1.0, "+1.0", 0.0, 60.0),
    (1 * 6399 * 6400, -1.0, "+1.0", 0.0, 60.0),
    (11 * 2176 * 2187, -1.0, "+1.0", 0.0, 60.0),
    (TWELVE_PRIMES.value, "-8.0", "+0.5", 500.0, 1000.0),
    (SAMPLE_6, -1.0, 7.29, 0.0131, 600.0137),
    (SAMPLE_6, -10.0, 7.29, 0.0131, 5000.0137),
]


class TestSeedTable:
    @pytest.mark.parametrize("case", SEED_CASES)
    def test_real_table_gives_the_complex_tables_seeds(self, case):
        f, region = census_case(*case)
        den = integer_wam_sums(f).denominator
        seeds = _seed_points(den, region)
        assert seeds.size > 0
        assert np.array_equal(seeds, complex_seed_points(den, region))


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
            f = factor(math.prod(p ** rng.randrange(1, 5) for p in primes))
            a0 = critical_abscissa(f).a_crit
            region = SearchRegion(-1.0, a0 + 1.0, 0.0, 40.0)
            found = len(find_zeros(f, region).records)
            assert count_with_jitter(f, region) == found, f.value

    @pytest.mark.parametrize("im_max,count", [(600.0137, 170), (2000.0137, 566)])
    def test_counts_where_the_zeros_are_dense(self, im_max, count):
        # A Gauss-Legendre contour failed to settle on these rectangles.
        region = SearchRegion(-1.0, 7.29, 0.0131, im_max)
        f = factor(SAMPLE_6)
        assert argument_principle_count(f, region) == len(find_zeros(f, region).records) == count

    @pytest.mark.parametrize("p,q", [(2, 3), (5, 7), (11, 101)])
    def test_two_prime_count_matches_the_closed_form(self, p, q):
        # Edges at Im 0.5 and 10^4 + 0.25, and zeros on Re 0: the
        # rectangle's count is the closed-form zeros between its edges.
        expected = [z for z in two_prime_zeros(p, q, 1e4 + 0.25) if z.imag > 0.5]
        region = SearchRegion(-1.0, 1.0, 0.5, 1e4 + 0.25)
        assert argument_principle_count(factor(p * q), region) == len(expected) > 100

    def test_boundary_zero_is_detected(self):
        # The first zero for {2, 3} sits exactly on the top edge here, so the
        # count must refuse rather than return a wrong count, and promptly.
        region = SearchRegion(-1.0, 1.0, 0.0, 6.821234041066631)
        start = time.perf_counter()
        with pytest.raises(BoundaryZero):
            argument_principle_count(factor(6), region)
        assert time.perf_counter() - start < 0.1

    def test_each_point_is_evaluated_once(self, monkeypatch):
        # Segments carry the values at their ends, so a halved segment's
        # midpoint is evaluated once, not once as the end of each half.
        points = []
        shifted_terms = ExpSum.shifted_terms

        def spy(self, s):
            points.extend(np.ravel(s).tolist())
            return shifted_terms(self, s)

        monkeypatch.setattr(ExpSum, "shifted_terms", spy)
        region = SearchRegion(-1.0, 7.29, 0.0131, 600.0137)
        assert argument_principle_count(factor(SAMPLE_6), region) == 170
        assert len(points) == len(set(points)) > 1000

    def test_segment_cap_raises_memory_error(self, monkeypatch):
        monkeypatch.setattr(zeros, "_COUNT_MAX_SEGMENTS", 100)
        with pytest.raises(MemoryError, match="100 segments"):
            argument_principle_count(factor(SAMPLE_6), SearchRegion(-1.0, 7.29, 0.0131, 600.0137))

    def test_memory_is_bounded_on_a_tall_rectangle(self):
        f = factor(SAMPLE_6)
        argument_principle_count(f, SearchRegion(-1.0, 7.29, 0.0131, 10.0137))
        tracemalloc.start()
        try:
            count = argument_principle_count(f, SearchRegion(-1.0, 7.29, 0.0131, 20000.0137))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count > 5000
        assert peak < 8 * 2**20


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


def probe_cases():
    """(n, b_max, samples): seeded dataset triples with m = 3...6, sample 6
    and seeded seven-prime products (m = 7), over sample counts that are
    prime, one, or just past a block, and spacings from 1e-3 to 100."""
    rng = random.Random(16)
    by_m = {}
    for t in generate_triples(100_000):
        by_m.setdefault(len(t.abc_factorization.primes), []).append(t.abc_factorization.value)
    ns = [n for m in (3, 4, 5, 6) for n in rng.sample(by_m[m], 5)]
    ns += [SAMPLE_6] + [math.prod(rng.sample(SMALL_PRIMES, 7)) for _ in range(3)]
    sizes = [(1e4, 99_991), (1e3, 65_537), (1e2, 131_071), (1e5, 999), (1e4, 7), (500.0, 1)]
    return [(n, *sizes[i % len(sizes)]) for i, n in enumerate(ns)]


def pointwise_scan(f, b_max, samples):
    """(min |f|, its index) on the probe's grid, each sample's terms times
    the weights added one at a time from k = 0, the bits of an ExpSum call;
    ties go to the lowest index."""
    den = integer_wam_sums(f).denominator
    terms, sigma = den.shifted_terms(
        critical_abscissa(f).a_crit + 1j * (b_max / samples) * np.arange(samples + 1)
    )
    total = terms[:, 0] * den.weights[0]
    for k in range(1, den.weights.size):
        total = total + terms[:, k] * den.weights[k]
    vals = np.abs(total * np.exp(sigma))
    k = int(np.argmin(vals))
    return float(vals[k]), k


def test_probe_does_not_import_numpy_ma():
    # np.union1d imports numpy.ma through np.unique, about 20 ms.
    script = (
        "import sys\n"
        "from wamlab import factor\n"
        "from wamlab.zeros import critical_line_probe\n"
        "critical_line_probe(factor(30), 1e4, 200_000)\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(zeros.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120)


class TestPrunedCriticalLineScan:
    @pytest.mark.parametrize("n, b_max, samples", probe_cases())
    def test_equals_an_exhaustive_pointwise_scan(self, n, b_max, samples):
        f = factor(n)
        probe = critical_line_probe(f, b_max, samples)
        least, k = pointwise_scan(f, b_max, samples)
        assert probe.min_abs == least
        assert probe.argmin_b == b_max / samples * k

    def test_tables_a_fraction_and_evaluates_few_samples_pointwise(self, monkeypatch):
        # 2e6 samples at m = 4, as pole-census probes, in 31 blocks.  The
        # bound leaves about a seventh of the samples to the kernel, and a
        # block needs pointwise values only where it may hold a new minimum.
        tabled, pointwise = [], []
        product, call = zeros._serial_product, ExpSum.__call__

        def counted_product(a, b):
            tabled.append(a.shape[0] * (b.shape[1] if b.ndim == 2 else 1))
            return product(a, b)

        monkeypatch.setattr(zeros, "_serial_product", counted_product)
        monkeypatch.setattr(ExpSum, "__call__", lambda es, s: pointwise.append(np.size(s)) or call(es, s))
        critical_line_probe(factor(2 * 3 * 5 * 7), 1e5, 2_000_000)
        assert sum(tabled) < 0.2 * 2_000_000
        assert sum(pointwise) < 8

    def test_peak_memory_is_bounded(self):
        # 2e6 samples in blocks of 2^16: a block's table, its pruned samples
        # and their temporaries stay near 1 MB each.
        f = factor(SAMPLE_6)
        critical_line_probe(f, 10.0, 100)
        tracemalloc.start()
        try:
            critical_line_probe(f, 1e5, 2_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


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

    @pytest.mark.parametrize("seed", range(4))
    def test_per_point_radii_match_quadratic_reference(self, seed):
        points, residuals = planted_cloud(seed, 1e-3, 100.0)
        radii = np.random.default_rng(seed).uniform(0.2e-3, 2e-3, points.size)
        assert _dedup(points, residuals, radii) == dedup_reference(points, residuals, radii)
