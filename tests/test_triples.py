"""Coprime a + b = c triples: validation, generation, datasets, heatmaps."""

import hashlib
import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

from conftest import grid_table, run_with_blas_threads
from wamlab.arith import factor, radical
from wamlab.triples import (
    GENERATE_C_MAX_LIMIT,
    AbcTriple,
    DatasetParse,
    NotATriple,
    NotCoprime,
    _radical_sieve,
    em_histogram,
    generate_triples,
    max_wam_heatmap,
    mersenne_family,
    validate_triple,
)
from wamlab import triples as triples_module
from wamlab.wamcore import ExpSum, WamSums, wam_at
from wamlab.zeros import SearchRegion


def oracle_triples(c_max, min_quality):
    """Brute-force enumeration with its own radical/quality computation."""
    out = []
    for c in range(2, c_max + 1):
        for a in range(1, c // 2 + 1):
            b = c - a
            if math.gcd(a, b) != 1:
                continue
            rad = 1
            n = a * b * c
            d = 2
            while d * d <= n:
                if n % d == 0:
                    rad *= d
                    while n % d == 0:
                        n //= d
                d += 1
            if n > 1:
                rad *= n
            quality = math.log(c) / math.log(rad)
            if quality >= min_quality - 1e-9:
                out.append((a, b, c))
    return sorted(out)


class TestValidateTriple:
    def test_basic_example(self):
        t = validate_triple(1, 8, 9)
        assert (t.a, t.b, t.c) == (1, 8, 9)
        assert t.e_m == 2  # 9 = 3^2 tops the exponents of 1 * 8 * 9
        assert abs(t.quality - math.log(9) / math.log(6)) < 1e-12

    def test_high_quality_example(self):
        t = validate_triple(3, 125, 128)
        assert abs(t.quality - math.log(128) / math.log(30)) < 1e-12
        assert t.quality > 1.4

    def test_canonicalizes_argument_order(self):
        assert validate_triple(8, 1, 9) == validate_triple(1, 8, 9)

    def test_merged_factorization(self):
        t = validate_triple(3, 125, 128)
        assert t.abc_factorization.pairs() == ((2, 7), (3, 1), (5, 3))

    def test_rejects_non_sum(self):
        with pytest.raises(NotATriple):
            validate_triple(1, 2, 4)

    def test_rejects_common_factor(self):
        with pytest.raises(NotCoprime):
            validate_triple(2, 4, 6)

    @pytest.mark.parametrize("abc", [(0, 1, 1), (-1, 3, 2), (1, 1, 0)])
    def test_rejects_non_positive(self, abc):
        with pytest.raises(NotATriple):
            validate_triple(*abc)

    def test_rejects_product_above_factoring_limit(self):
        # Each entry factors on its own, but abc >= 2^127 is out of range.
        with pytest.raises(ValueError, match="2\\^127"):
            validate_triple(1, 2**64, 2**64 + 1)

    def test_wam_of_triple_product_is_finite_at_one(self):
        t = validate_triple(3, 125, 128)
        value = wam_at(t.abc_factorization, 1.0).value
        assert abs(value - math.log(3 * 125 * 128) / math.log(30)) < 1e-12

    def test_str_round_trips_through_fields(self):
        t = validate_triple(5, 27, 32)
        assert str(t) == "5 27 32"


class TestGeneration:
    def test_smallest_possible(self):
        got = generate_triples(2, 0.0)
        assert [(t.a, t.b, t.c) for t in got] == [(1, 1, 2)]

    def test_matches_bruteforce_oracle(self):
        # q = 0 and 0.5 put the radical budget above c (a full scan); q = 1
        # puts it exactly at 1 for squarefree c; q = 2 leaves it below 1 for
        # most c.
        small = itertools.product((2, 3, 64, 150), (0.0, 0.5, 0.9, 1.0, 1.01, 1.3, 2.0))
        for c_max, q in ((300, 0.9), (300, 1.0), (200, 1.2), *small):
            got = sorted((t.a, t.b, t.c) for t in generate_triples(c_max, q))
            assert got == oracle_triples(c_max, q), (c_max, q)

    @pytest.mark.parametrize(
        "c_max, q, count, digest",
        [
            (10_000, 1.0, 122, "76bc03bed97490e930738ecb89ee678ae53b5368ddd29b7f870bcde3528a099b"),
            (9950, 1.01, 108, "deb5dd9fab8a5a66bfc01bd42fa6ed6a9402ee0c7ebf9f57e3e5320d3123054a"),
        ],
    )
    def test_output_pinned_in_order(self, c_max, q, count, digest):
        # Digests of the full-scan generator's output, one "a b c" line per
        # triple in the returned order.
        triples = generate_triples(c_max, q)
        text = "".join(f"{t}\n" for t in triples)
        assert len(triples) == count
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest

    def test_contains_known_high_quality_triples(self):
        got = {(t.a, t.b, t.c) for t in generate_triples(200, 1.4)}
        assert (3, 125, 128) in got

    def test_sorted_by_quality_then_size(self):
        triples = generate_triples(2000, 1.0)
        keys = [(-t.quality, t.c, t.a) for t in triples]
        assert keys == sorted(keys)

    def test_quality_threshold_respected(self):
        for t in generate_triples(3000, 1.1):
            assert t.quality >= 1.1 - 1e-9

    def test_quality_above_one_iff_c_beats_radical(self):
        for t in generate_triples(500, 0.8):
            beats = t.c > radical(t.abc_factorization)
            assert (t.quality > 1.0) == beats, (t.a, t.b, t.c)

    def test_radical_sieve_matches_factoring(self):
        # Limits at, just below and just above prime squares move the bound
        # of the composite-marking loop and the last prime sieved; past it
        # the cofactor left is a prime above sqrt(limit).
        for limit in (2, 3, 4, 8, 9, 10, 24, 25, 26, 48, 49, 50, 120, 121, 122, 168, 169, 170, 2000, 10**4):
            rad = _radical_sieve(limit)
            assert rad.dtype == np.int32
            assert rad[0] == 1
            assert [int(r) for r in rad[1:]] == [radical(factor(x)) for x in range(1, limit + 1)]

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            generate_triples(1, 1.0)
        with pytest.raises(ValueError):
            generate_triples(GENERATE_C_MAX_LIMIT + 1, 1.0)

    def test_exact_hit_counts_match_published_tables(self):
        # abc-hits (rad(abc) < c) below 10^4 and 10^5: 120 and 418 in the
        # published tables (B. de Smit's ABC@Home counts; OEIS A147302).
        hits = [
            t.c
            for t in generate_triples(10**5, 1.0)
            if radical(t.abc_factorization) < t.c
        ]
        assert sum(c < 10**4 for c in hits) == 120
        assert sum(c < 10**5 for c in hits) == 418

    def test_multiplicity_never_reaches_four_at_scale(self):
        # Mirror of the three-term bound: the weighted multiplicity of a*b*c
        # at s = 1 stays under 4 for every high-quality triple in range.
        worst = 0.0
        for t in generate_triples(10_000, 1.0):
            value = wam_at(t.abc_factorization, 1.0).value.real
            worst = max(worst, value)
        assert worst < 4.0
        assert abs(worst - 3.7856486626660013) < 1e-9


class TestGenerationCacheAndCap:
    def test_calls_return_equal_lists_that_are_distinct(self):
        first = generate_triples(500, 1.0)
        expected = list(first)
        first.clear()
        second = generate_triples(500, 1.0)
        assert second == expected
        assert second is not first

    def test_only_the_last_result_is_kept(self, monkeypatch):
        sieved = []
        sieve = triples_module._radical_sieve
        monkeypatch.setattr(triples_module, "_radical_sieve", lambda n: sieved.append(n) or sieve(n))
        for c_max, q in ((300, 1.0), (300, 1.0), (300, 0.9), (300, 1.0), (400, 1.0)):
            generate_triples(c_max, q)
        assert sieved == [300, 300, 300, 400]

    def test_cap_is_checked_before_validation(self, monkeypatch):
        # At q <= 0 every coprime pair survives the prefilter and is kept,
        # so the cap admits exactly that many triples and refuses one fewer.
        kept = len(generate_triples(100, 0.0))
        monkeypatch.setattr(triples_module, "_GENERATE_MAX_TRIPLES", kept)
        triples_module._generate.cache_clear()
        assert len(generate_triples(100, 0.0)) == kept
        triples_module._generate.cache_clear()
        monkeypatch.setattr(triples_module, "_GENERATE_MAX_TRIPLES", kept - 1)
        validated = []
        monkeypatch.setattr(
            triples_module, "validate_triple", lambda *abc: validated.append(abc) or validate_triple(*abc)
        )
        with pytest.raises(MemoryError, match=f"over {kept - 1} triples"):
            generate_triples(100, 0.0)
        # c <= 100 fits in one block of candidates, so nothing was validated.
        assert validated == []


class TestHistogram:
    def test_counts_top_exponents(self):
        # e_m is the exponent attached to the largest prime of a*b*c:
        # 72 = 2^3 * 3^2 -> 2; 48000 = 2^7 * 3 * 5^3 -> 3; 2 -> 1.
        triples = [validate_triple(1, 8, 9), validate_triple(3, 125, 128), validate_triple(1, 1, 2)]
        assert em_histogram(triples) == {1: 1, 2: 1, 3: 1}

    def test_empty(self):
        assert em_histogram([]) == {}

    def test_keys_sorted(self):
        hist = em_histogram(generate_triples(10_000, 1.0))
        assert list(hist.keys()) == sorted(hist.keys())
        assert sum(hist.values()) == len(generate_triples(10_000, 1.0))


class TestDatasets:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "triples.txt"
        triples = generate_triples(500, 1.0)
        path.write_text("".join(f"{t}\n" for t in triples), encoding="ascii")
        parse = DatasetParse(path)
        back = list(parse)
        assert back == triples
        assert parse.issues == []

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("# header\n\n1 8 9\n   \n3 125 128  # inline note\n")
        back = list(DatasetParse(path))
        assert [(t.a, t.b, t.c) for t in back] == [(1, 8, 9), (3, 125, 128)]

    def test_crlf_lines_parse(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"1 8 9\r\n3 125 128\r\n")
        back = list(DatasetParse(path))
        assert len(back) == 2

    def test_bad_lines_are_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 8 9\n1 2 4\nnot numbers here\n2 4\n5 27 32\n")
        parse = DatasetParse(path)
        good = list(parse)
        assert [(t.a, t.b, t.c) for t in good] == [(1, 8, 9), (5, 27, 32)]
        assert [issue.line_number for issue in parse.issues] == [2, 3, 4]
        for issue in parse.issues:
            assert issue.message

    def test_str_is_the_dataset_line(self):
        """str(t) is t's "a b c" line, with a <= b, as a dataset stores it."""
        assert str(validate_triple(8, 1, 9)).encode("ascii") == b"1 8 9"


DATASET = os.path.join(os.path.dirname(__file__), "..", "perfbench", "data", "triples_c10000.txt")


#: Absolute agreement of a log10 cell with the pointwise reference where the
#: denominator does not cancel.  The real-form grid and the reference round
#: differently: by at most 4.4e-16 where the condition is at most 10, and by
#: at most 2 eps times the condition near the poles (the 122-triple dataset
#: grid and the cap = 1e3 grid below).
CELL_TOL = 1e-15


def two_product_cells(triples, grid):
    """The reference for the cells of grid, and how ill-conditioned each
    is, point by point: at every s of the grid, mirrored rows included,
    each triple's numerator and denominator are two products with the
    shifted terms of s, as in wam_at, and the largest |N|/|D| over
    the triples, capped, is the cell.  The condition of a cell is
    sum_k |terms| / |D| of the triple that attains it."""
    s = (grid.re_axis[None, :] + 1j * grid.im_axis[:, None]).ravel()
    best, cond = np.zeros(s.size), np.ones(s.size)
    for t in triples:
        sums = triples_module.integer_wam_sums(t.abc_factorization)
        terms = sums.denominator.shifted_terms(s)[0]
        num = np.abs(terms @ sums.numerator.weights)
        den = np.abs(terms @ sums.denominator.weights)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.fmin(num / den, grid.cap)
            cond = np.where(ratio >= best, np.abs(terms) @ np.abs(sums.denominator.weights) / den, cond)
        best = np.maximum(best, ratio)
    return np.log10(np.maximum(best, 1e-300)).reshape(grid.cells.shape), cond.reshape(grid.cells.shape)


def per_triple_cells(triples, grid):
    """The cells of grid as a loop over the triples gives them: two
    grid_table products per triple on the rows that grid computes, the
    largest ratio of squared moduli, then the same root, cap and mirror."""
    ims = grid.im_axis[grid.mirrored :]
    best = np.zeros((ims.size, grid.re_axis.size))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for t in triples:
            sums = triples_module.integer_wam_sums(t.abc_factorization)
            num, den = (np.square(grid_table(f, ims, grid.re_axis)) for f in (sums.numerator, sums.denominator))
            ratio = (num[: ims.size] + num[ims.size :]) / (den[: ims.size] + den[ims.size :])
            best = np.maximum(best, ratio)
        best = np.log10(np.maximum(np.fmin(np.sqrt(best), grid.cap), 1e-300))
    return np.concatenate([best[::-1][: grid.mirrored], best]) if grid.mirrored else best


def assert_matches_pointwise(triples, grid):
    """Every cell within CELL_TOL of the pointwise reference, widened by its
    condition, and exactly log10(cap) wherever the reference saturates."""
    expected, cond = two_product_cells(triples, grid)
    tol = CELL_TOL + 8 * np.finfo(float).eps * cond
    assert np.all(np.abs(grid.cells - expected) <= tol)
    saturated = expected == math.log10(grid.cap)
    assert np.all(grid.cells[saturated] == math.log10(grid.cap))


class TestHeatmap:
    REGION = SearchRegion(-6.0, 6.0, -6.0, 6.0, grid_step=0.1)

    def test_dataset_grid_equals_two_products(self):
        triples = list(DatasetParse(DATASET))
        assert len(triples) == 122
        grid = max_wam_heatmap(triples, SearchRegion(-6.0, 6.0, -6.0, 6.0, grid_step=0.04))
        assert grid.cells.shape == (301, 301)
        assert_matches_pointwise(triples, grid)
        assert np.array_equal(grid.cells, per_triple_cells(triples, grid))

    def test_saturated_grid_equals_two_products(self):
        triples = generate_triples(2000)
        grid = max_wam_heatmap(triples, self.REGION, cap=1e3)
        assert np.any(grid.cells == 3.0)
        assert_matches_pointwise(triples, grid)
        assert np.array_equal(grid.cells, per_triple_cells(triples, grid))

    @pytest.mark.parametrize(
        "region",
        [
            REGION,
            SearchRegion(-6.0, 6.0, -0.05, 0.05, grid_step=0.1),  # one computed row
            SearchRegion(-6.0, 6.0, 1.0, 1.05, grid_step=0.1),  # one row
            SearchRegion(0.5, 0.55, -3.0, 3.0, grid_step=0.1),  # one column
        ],
    )
    def test_weighted_denominator_equals_two_products(self, monkeypatch, region):
        # Numerator and denominator share rates but not weights, so each
        # table must carry its own sum's weights.  Triples with the same
        # primes but other exponents get other denominators, so they must
        # not share one.
        def sums(f):
            rates = [math.log(math.log(p)) for p in f.primes]
            weights = [0.5 + (i + e) % 3 for i, e in enumerate(f.exponents)]
            return WamSums(ExpSum(f.exponents, rates), ExpSum(weights, rates))

        monkeypatch.setattr(triples_module, "integer_wam_sums", sums)
        triples = generate_triples(500)
        grid = max_wam_heatmap(triples, region)
        assert_matches_pointwise(triples, grid)
        assert np.array_equal(grid.cells, per_triple_cells(triples, grid))

    def test_each_distinct_denominator_is_evaluated_once(self, monkeypatch):
        # One column factor per distinct denominator, and one product for it
        # and one for each triple's numerator.
        factored, products = [], []
        columns, product = ExpSum.columns, triples_module._serial_product
        monkeypatch.setattr(ExpSum, "columns", lambda *a: factored.append(a) or columns(*a))
        monkeypatch.setattr(triples_module, "_serial_product", lambda *a, **k: products.append(a) or product(*a, **k))
        triples = list(DatasetParse(DATASET))
        max_wam_heatmap(triples, self.REGION)
        distinct = {t.abc_factorization.primes for t in triples}
        assert len(factored) == len(distinct) == 68
        assert len(products) == len(distinct) + len(triples)

    def test_huge_cap_keeps_cells_finite_and_saturation_exact(self, monkeypatch):
        # cap^2 overflows past 1.34e154.  Near the poles of this region the
        # cells stay finite, below the cap and on the reference; where the
        # denominator vanishes exactly they read log10(cap) exactly.  A
        # RuntimeWarning would fail the test.
        triples = generate_triples(2000)
        grid = max_wam_heatmap(triples, self.REGION, cap=1e200)
        assert np.all(np.isfinite(grid.cells)) and np.all(grid.cells <= 200.0)
        assert grid.cells.max() > 3.0  # the cells that saturate at cap = 1e3
        assert_matches_pointwise(triples, grid)
        sums = WamSums(ExpSum([1.0, 2.0], [0.3, -0.4]), ExpSum([0.0, 0.0], [0.3, -0.4]))
        monkeypatch.setattr(triples_module, "integer_wam_sums", lambda f: sums)
        grid = max_wam_heatmap([validate_triple(1, 8, 9)], self.REGION, cap=1e200)
        assert np.all(grid.cells == 200.0)

    def test_temporaries_are_freed_per_triple(self):
        # The [Re; Im] table, the group's largest |N|^2 and the running maximum
        # (32 bytes per computed cell) are allocated once per heatmap, and
        # nothing a group or a triple allocates may outlive it.
        triples = list(DatasetParse(DATASET))
        region = SearchRegion(-6.0, 6.0, -6.0, 6.0, grid_step=0.04)
        tracemalloc.start()
        try:
            grid = max_wam_heatmap(triples, region)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * grid.cells.size

    def test_axes_are_symmetric_and_hit_zero(self):
        grid = max_wam_heatmap(generate_triples(200, 1.0), self.REGION)
        assert grid.re_axis.shape == (121,)
        assert grid.im_axis.shape == (121,)
        assert grid.re_axis[60] == 0.0
        assert grid.im_axis[60] == 0.0
        assert np.all(grid.re_axis + grid.re_axis[::-1] == 0.0)

    def test_cells_finite_and_conjugate_symmetric(self):
        grid = max_wam_heatmap(generate_triples(500, 1.0), self.REGION)
        assert np.all(np.isfinite(grid.cells))
        assert np.array_equal(grid.cells, grid.cells[::-1, :])

    def test_single_triple_cell_value(self):
        region = SearchRegion(0.9, 1.1, -0.1, 0.1, grid_step=0.1)
        grid = max_wam_heatmap([validate_triple(1, 8, 9)], region)
        middle = grid.cells[1, 1]  # s = 1 + 0i
        expected = math.log10(math.log(72) / math.log(6))
        assert abs(middle - expected) < 1e-12

    @pytest.mark.parametrize("cap", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_cap_that_is_not_positive_and_finite(self, cap):
        with pytest.raises(ValueError, match="cap"):
            max_wam_heatmap(generate_triples(200, 1.0), self.REGION, cap=cap)

    @pytest.mark.parametrize("im,mirrored", [((-6.0, 6.0), 60), ((-3.0, 6.0), 0), ((0.0, 6.0), 0)])
    def test_mirrored_rows_copy_the_conjugate_half(self, im, mirrored):
        region = SearchRegion(-6.0, 6.0, *im, grid_step=0.1)
        grid = max_wam_heatmap(generate_triples(200, 1.0), region)
        assert grid.mirrored == mirrored
        last = grid.im_axis.size - 1
        for i in range(grid.mirrored):
            assert grid.im_axis[i] == -grid.im_axis[last - i]
            assert np.array_equal(grid.cells[i], grid.cells[last - i])

    def test_cap_limits_cells(self):
        grid = max_wam_heatmap(generate_triples(200, 1.0), self.REGION, cap=2.0)
        assert np.all(grid.cells <= math.log10(2.0) + 1e-12)
        assert grid.cap == 2.0

    @pytest.mark.parametrize("num_weights", [[1.0, 2.0], [0.0, 0.0]])
    def test_infinite_and_nan_ratios_saturate_at_the_cap(self, monkeypatch, num_weights):
        # A zero-weight denominator vanishes exactly, so every cell's ratio is
        # inf (nonzero numerator) or NaN (0/0); all must read log10(cap).
        rates = [0.3, -0.4]
        sums = WamSums(ExpSum(num_weights, rates), ExpSum([0.0, 0.0], rates))
        monkeypatch.setattr(triples_module, "integer_wam_sums", lambda f: sums)
        grid = max_wam_heatmap([validate_triple(1, 8, 9)], self.REGION, cap=50.0)
        assert not np.any(np.isnan(grid.cells))
        assert np.all(grid.cells == math.log10(50.0))

    def test_thread_count_does_not_change_result(self, tmp_path):
        script = (
            "import sys, numpy as np\n"
            "from wamlab import SearchRegion, generate_triples, max_wam_heatmap\n"
            "region = SearchRegion(-6.0, 6.0, -6.0, 6.0, grid_step=0.02)\n"
            "np.save(sys.argv[1], max_wam_heatmap(generate_triples(300, 1.0), region).cells)\n"
        )
        cells = []
        for threads in (1, 2):
            path = tmp_path / f"threads-{threads}.npy"
            run_with_blas_threads(threads, ["-c", script, str(path)])
            cells.append(np.load(path))
        assert np.array_equal(cells[0], cells[1])


class TestMersenneFamily:
    def test_small_family(self):
        family = mersenne_family(11)
        assert len(family) == 10
        first = family[0]
        assert (first.a, first.b, first.c) == (1, 3, 4)
        eleventh = family[-1]
        assert (eleventh.a, eleventh.b, eleventh.c) == (1, 2047, 2048)
        assert eleventh.abc_factorization.primes == (2, 23, 89)

    def test_default_budget_factors_the_whole_family(self):
        family = mersenne_family(63)
        assert len(family) == 62
        for n, t in enumerate(family, start=2):
            assert t.c == 2**n
            assert t.abc_factorization == factor(2**n * (2**n - 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            mersenne_family(1)
        with pytest.raises(ValueError):
            mersenne_family(64)

    def test_triples_are_valid_and_quality_matches(self):
        for t in mersenne_family(16):
            n = t.c.bit_length() - 1
            assert t.c == 2**n
            assert t.a + t.b == t.c
            assert math.gcd(t.a, t.b) == 1
            check = validate_triple(t.a, t.b, t.c)
            assert check == t
