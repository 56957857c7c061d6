"""Weighted average multiplicity: evaluation, identities, bounds."""

import ast
import cmath
import itertools
import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from conftest import factorizations
from wamlab.arith import factor, radical
from wamlab import triples, wamcore, zeros
from wamlab.wamcore import (
    EmptyFactorization,
    ExpSum,
    _serial_product,
    crude_em_bound_holds,
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
        expected = sum(f.exponents) / f.m
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
        for n, e_m in ((72, 2), (12, 1), (2048 * 2047, 1), (7**5, 5)):
            f = factor(n)
            assert f.e_m == e_m
            assert abs(wam_at(f, 200.0).value - e_m) < 1e-12


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

    @pytest.mark.parametrize("s", [-1e308, 1e306, complex(0, 2e305), complex(1, -1e308)])
    def test_rejects_points_whose_exponents_could_overflow(self, s):
        with pytest.raises(ValueError):
            wam(1000003, s)

    @pytest.mark.parametrize(
        "s", [-1e305, 1e305, complex(0, 1e305), complex(-1e305, 1e305)]
    )
    def test_largest_accepted_points_stay_finite(self, s):
        # The widest spread of rates: the smallest and largest positive doubles.
        sums = wam_sums([5e-324, math.log(2), 1.7e308], [1, 2, 1])
        ev = evaluate_wam(sums, s)
        assert ev.value is None or np.isfinite(ev.value)
        assert np.isfinite(ev.numerator) and np.isfinite(ev.denominator)

    def test_sums_require_entries(self):
        with pytest.raises(EmptyFactorization):
            wam_sums([], [])

    def test_sums_require_parallel_arrays(self):
        with pytest.raises(ValueError):
            wam_sums([2.0], [1, 2])

    def test_sums_require_positive_heights(self):
        with pytest.raises(ValueError):
            wam_sums([2.0, -1.0], [1, 1])


#: Points for the batched evaluator: the pole of the {2, 3} sums, Re s far
#: out on both sides (one term dominates, the rest underflow), both zeros.
SPECIAL_POINTS = [FIRST_TWO_TERM_ZERO, complex(2000, 3), complex(-2000, -7), 0j, complex(-0.0, 0)]
POINTS = st.one_of(
    st.sampled_from(SPECIAL_POINTS),
    st.complex_numbers(max_magnitude=60, allow_nan=False, allow_infinity=False),
)
POINTS_LEFT_OF_ONE = st.one_of(
    st.sampled_from(SPECIAL_POINTS[:1] + SPECIAL_POINTS[2:]),
    st.builds(complex, st.floats(-2000, 0.999), st.floats(-60, 60)),
)
#: One bad point each: NaN, Re s >= 1 (bad for the Mersenne check only) and
#: |Re s| above 1e305.
BAD_POINTS = [complex(float("nan"), 0), complex(0, float("nan")), 1.0, complex(1.5, 2), -2e305, 2e305]


def one_point_sums(sums, s):
    """Numerator and denominator at s, each its shifted terms times the
    weights added one at a time from k = 0: the bits each point of a batch
    must get."""
    terms = sums.denominator.shifted_terms(complex(s))[0]

    def added(weights):
        total = terms[0] * weights[0]
        for k in range(1, len(weights)):
            total = total + terms[k] * weights[k]
        return complex(total)

    return added(sums.numerator.weights), added(sums.denominator.weights)


class TestBatchedEvaluation:
    """evaluate_wam over a sequence: each point as it is alone, bit for bit."""

    @given(factorizations(), st.lists(POINTS, max_size=12))
    @example(factor(72), [0.5, FIRST_TWO_TERM_ZERO, 0.5])
    def test_each_point_gets_the_bits_it_gets_alone(self, f, pts):
        sums = integer_wam_sums(f)
        batch = evaluate_wam(sums, pts)
        assert isinstance(batch, list) and len(batch) == len(pts)
        for s, ev in zip(pts, batch):
            alone = evaluate_wam(sums, s)
            assert ev.s == alone.s == complex(s)
            assert ev.value == alone.value and ev.is_pole == alone.is_pole
            assert ev.numerator == alone.numerator and ev.denominator == alone.denominator
            assert (ev.numerator, ev.denominator) == one_point_sums(sums, s)

    @given(factorizations(), st.lists(POINTS, min_size=1, max_size=12))
    @example(factor(6), [complex(-1500, -7), 0.5, complex(-1500, -7), complex(-2000, -7)])
    def test_exp_sum_values_do_not_depend_on_the_batch(self, f, pts):
        # The critical-line probe evaluates a block's candidates in one call
        # and relies on each getting the value it gets alone.
        den = integer_wam_sums(f).denominator
        ends = den.rates.min(), den.rates.max()  # f(s) overflows once r_k Re s > 709
        pts = [complex(s) for s in pts if max(complex(s).real * r for r in ends) < 700]
        batch = den(np.array(pts, dtype=complex))
        assert batch.tolist() == [den(s) for s in pts]

    def test_the_pole_is_flagged_in_a_batch(self):
        batch = wam_at(factor(72), [0.5, FIRST_TWO_TERM_ZERO, FIRST_TWO_TERM_ZERO + 0.01])
        assert [ev.is_pole for ev in batch] == [False, True, False]

    def test_sequence_types(self):
        sums = integer_wam_sums(factor(72))
        want = evaluate_wam(sums, [0.5, 2j])
        assert evaluate_wam(sums, (0.5, 2j)) == want
        assert evaluate_wam(sums, np.array([0.5, 2j])) == want
        assert evaluate_wam(sums, np.complex128(0.5)) == want[0]

    def test_no_points_give_an_empty_list(self):
        sums = integer_wam_sums(factor(72))
        assert evaluate_wam(sums, []) == []
        assert evaluate_wam(sums, np.array([], dtype=complex)) == []
        assert wam_at(factor(72), ()) == []
        assert mersenne_lower_bound_check(5, []) == []

    def test_more_than_one_axis_is_refused(self):
        with pytest.raises(ValueError, match="1-d"):
            evaluate_wam(integer_wam_sums(factor(72)), [[0.5, 1.0]])

    @pytest.mark.parametrize("bad", BAD_POINTS[:2] + BAD_POINTS[4:])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_one_bad_point_stops_the_batch_before_any_evaluation(self, monkeypatch, bad, at):
        evaluated = []
        shifted_terms = ExpSum.shifted_terms
        monkeypatch.setattr(
            ExpSum, "shifted_terms", lambda self, s: evaluated.append(s) or shifted_terms(self, s)
        )
        pts = [0.5, 2j]
        pts.insert(at, bad)
        with pytest.raises(ValueError):
            evaluate_wam(integer_wam_sums(factor(72)), pts)
        assert evaluated == []


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
    """ExpSum.grid, the separable kernel behind heatmaps and seed grids: a
    real table [Re f; Im f] from one product of a y factor and an x factor."""

    RE = np.linspace(-6.0, 6.0, 25)
    IM = np.linspace(-40.0, 40.0, 33)

    def shift(self, es, re):
        """exp(max_k r_k re), the factor grid divides each column by."""
        return np.exp(np.multiply.outer(re, es.rates).max(axis=1))

    @staticmethod
    def complex_table(es, im, re):
        table = es.grid(im, re)
        assert table.shape == (2 * np.size(im), np.size(re)) and table.dtype == float
        return table[: np.size(im)] + 1j * table[np.size(im) :]

    @given(factorizations(min_m=2))
    def test_rectangle_matches_pointwise(self, f):
        es = integer_wam_sums(f).numerator
        table = self.complex_table(es, self.IM, self.RE) * self.shift(es, self.RE)
        pointwise = es(self.RE[None, :] + 1j * self.IM[:, None])
        assert np.all(np.abs(table - pointwise) <= 1e-12 * term_scale(es, self.RE))

    @given(factorizations(min_m=2))
    def test_shift_keeps_signs(self, f):
        es = integer_wam_sums(f).numerator
        table = self.complex_table(es, self.IM, self.RE)
        pointwise = es(self.RE[None, :] + 1j * self.IM[:, None])
        clear = 1e-9 * term_scale(es, self.RE)
        for part in (np.real, np.imag):
            away = np.abs(part(pointwise)) > clear
            assert np.array_equal(np.sign(part(pointwise))[away], np.sign(part(table))[away])

    @given(factorizations(min_m=2), st.floats(-2.0, 4.0))
    def test_line_matches_pointwise_to_large_height(self, f, a):
        # The vertical line a + ib as a one-column grid, and as the critical
        # line probe tables it: the weighted terms of every 64th b times the
        # shifted terms of the 64 offsets, both to b = 1e5.
        es = integer_wam_sums(f).numerator
        block, step = 64, 1e5 / 64**2
        heads = block * np.arange(block)
        column = self.complex_table(es, step * np.arange(block**2), [a])[:, 0]
        u_terms = es.shifted_terms(1j * step * heads)[0] * es.weights
        v_terms = es.shifted_terms(a + 1j * step * np.arange(block))[0]
        scan = _serial_product(u_terms, v_terms.T).ravel()
        pointwise = es(a + 1j * step * np.arange(block**2)) * np.exp(-max(es.rates * a))
        # Each path rounds the phase r_k b to within eps |r_k| b / 2, so the
        # two may differ by eps |r_k| b: about 3.4e-11 for p = 97 at b = 1e5.
        floor = 2 * np.finfo(float).eps * np.abs(es.rates).max() * 1e5
        scale = term_scale(es, a) * np.exp(-max(es.rates * a))
        assert np.all(np.abs(column - pointwise) <= floor * scale)
        assert np.all(np.abs(scan - pointwise) <= floor * scale)

    @given(factorizations(min_m=2))
    def test_factors_multiply_to_the_table(self, f):
        es = integer_wam_sums(f).numerator
        # exp(r (x + iy)) = exp(iry) exp(rx): the weighted terms on the
        # imaginary axis times the shifted terms on the real one.
        u_terms = es.shifted_terms(1j * self.IM)[0] * es.weights
        v_terms = es.shifted_terms(self.RE)[0]
        assert u_terms.shape == (self.IM.size, es.rates.size) == (self.IM.size, v_terms.shape[1])
        terms = u_terms[:, None, :] * v_terms[None, :, :]
        table = self.complex_table(es, self.IM, self.RE)
        assert np.all(np.abs(terms.sum(axis=2) - table) <= 1e-12 * np.abs(terms).sum(axis=2))

    def test_table_is_written_into_out(self):
        es = integer_wam_sums(factor(2 * 3**2 * 7 * 11**3)).numerator
        out = np.full((2 * self.IM.size, self.RE.size), np.nan)
        assert es.grid(self.IM, self.RE, out=out) is out
        assert out.tobytes() == es.grid(self.IM, self.RE).tobytes()

    @given(factorizations(min_m=2))
    def test_shifted_rectangle_survives_extreme_real_parts(self, f):
        mpmath = pytest.importorskip("mpmath")
        sums = integer_wam_sums(f)
        re = np.array([-2000.0, 2000.0])
        with np.errstate(over="ignore", invalid="ignore"):
            pointwise = sums.denominator(re[None, :] + 1j * self.IM[:, None])
        assert not np.all(np.isfinite(pointwise))
        num = self.complex_table(sums.numerator, self.IM, re)
        den = self.complex_table(sums.denominator, self.IM, re)
        assert np.all(np.isfinite(num)) and np.all(np.isfinite(den))
        with mpmath.workdps(30):
            for i in range(0, self.IM.size, 8):
                for j in range(re.size):
                    s = mpmath.mpc(re[j], self.IM[i])
                    terms = [mpmath.log(p) ** s for p in f.primes]
                    top = mpmath.fsum(e * t for e, t in zip(f.exponents, terms))
                    exact = float(abs(top / mpmath.fsum(terms)))
                    assert abs(abs(num[i, j] / den[i, j]) - exact) <= 1e-9 * exact


def block_rows(m, k, n):
    """The rows of a, in order, of each block that _serial_product hands
    np.matmul for an (m×k) @ (k×n) product.  The spy multiplies nothing,
    so b and the result can be zero-stride views of any size."""
    blocks = []
    a = np.zeros((m, k))
    a[:, 0] = np.arange(m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wamcore.np, "matmul", lambda block, b, out: blocks.append(block[:, 0].astype(int).tolist()))
        _serial_product(a, np.broadcast_to(0.0, (k, n)), np.broadcast_to(0.0, (m, n)))
    return blocks


#: The measured OpenBLAS cut-offs, stated here apart from the library's own
#: constants: zgemm threads from M·N·K = 65,536, zgemv from M·N = 4,096.
GEMM_SERIAL, GEMV_SERIAL = 65_536, 4_096


def under_the_bounds(k, rows, cols):
    """Whether OpenBLAS runs a rows×k @ k×cols block on one thread: numpy
    sends 1-row and 1-column products to gemv."""
    if cols == 1:
        return rows * k < GEMV_SERIAL
    if rows == 1:
        return k * cols < GEMV_SERIAL
    return rows * k * cols < GEMM_SERIAL


class TestSerialProduct:
    """_serial_product: every 2-d product of the library, cut into row
    blocks that OpenBLAS runs on one thread.  Each block's last bits depend
    on the BLAS kernel, so the blocks agree with a @ b within rounding."""

    RNG = np.random.default_rng(10)

    def complex_matrix(self, *shape):
        return self.RNG.standard_normal(shape) + 1j * self.RNG.standard_normal(shape)

    def assert_within_rounding(self, a, b):
        # Two sums of k products, in any order, each within about (k + 2)·eps
        # of the exact one relative to |a| @ |b|, real or complex: they
        # differ by at most 2·(k + 2)·eps <= 8·k·eps of it.
        whole = a @ b
        bound = 8 * a.shape[1] * np.finfo(float).eps * (np.abs(a) @ np.abs(b))
        out = np.empty_like(whole)
        for blocked in (_serial_product(a, b), _serial_product(a, b, out)):
            assert blocked.dtype == whole.dtype and blocked.shape == whole.shape
            assert np.all(np.abs(blocked - whole) <= bound)
        assert blocked is out

    @pytest.mark.parametrize("k", [1, 2, 4, 6, 9, 15, 27])
    @pytest.mark.parametrize("rest", [0, 1, 2])
    def test_matrix_vector_matches_matmul(self, k, rest):
        # One-column products, as the probe's fine table at K = 2 makes.
        # Rows past whole blocks: 0, 1 (joined to the last block) or 2.
        block = len(block_rows(2**13, k, 1)[0])
        for m in (3 * block + rest, 40 * block + rest):
            a = self.complex_matrix(m, k)
            self.assert_within_rounding(a, self.RNG.standard_normal((k, 1)))
            self.assert_within_rounding(a, self.complex_matrix(k, 1))
            self.assert_within_rounding(np.abs(a), self.RNG.standard_normal((k, 1)))

    @pytest.mark.parametrize("k", [1, 2, 4, 6, 9, 15])
    @pytest.mark.parametrize("n", [2, 3, 109, 301, 1025])
    @pytest.mark.parametrize("rest", [0, 1, 2])
    def test_matrix_matrix_matches_matmul(self, k, n, rest):
        m = 5 * len(block_rows(2**16, k, n)[0]) + rest
        a = self.complex_matrix(m, k) * self.RNG.standard_normal(k)
        # b as ExpSum.grid and the probe build it (Fortran order) and in C order.
        self.assert_within_rounding(a, self.complex_matrix(n, k).T.astype(complex))
        self.assert_within_rounding(a, self.complex_matrix(k, n))
        self.assert_within_rounding(np.abs(a), self.RNG.standard_normal((k, n)))

    @pytest.mark.parametrize("k", [4, 6, 12])
    @pytest.mark.parametrize("extra", [1, 2, 129, 1000])
    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_wide_products_match_matmul(self, k, extra, m):
        # k·n >= 2^15: two rows exceed the gemm bound; blocks of 2 or 3 rows.
        n = 2**15 // k + extra
        self.assert_within_rounding(self.complex_matrix(m, k), self.complex_matrix(n, k).T.astype(complex))
        self.assert_within_rounding(np.abs(self.complex_matrix(m, k)), self.RNG.standard_normal((k, n)))

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_empty_and_single_row_products(self, m):
        # A product of one block is a @ b itself, whatever the kernel.
        for a, b in [
            (self.complex_matrix(m, 4), self.RNG.standard_normal((4, 1))),
            (self.complex_matrix(m, 4), self.complex_matrix(4, 301)),
        ]:
            assert len(block_rows(m, 4, b.shape[1])) == min(m, 1)
            assert _serial_product(a, b).tobytes() == (a @ b).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 9, 15, 27, 60, 100])
    def test_every_block_stays_under_the_bounds(self, k):
        sizes = [1, 2, 3, 166, 301, 1025, 2**15 // k + 1, 2**19]
        for m, n in itertools.product([0, 1, 2, 3, 5, 17, 151, 1024, 4097], sizes):
            if m * n > 2**22:  # the largest grid the library builds
                continue
            blocks = block_rows(m, k, n)
            assert [row for rows in blocks for row in rows] == list(range(m)), (m, k, n)
            for rows in blocks:
                assert len(rows) >= min(m, 2), (m, k, n, len(rows))
                # A 1-row rest can make a block one row longer, so every
                # block fits wherever three rows do.  A 1-row product is
                # left whole.
                if m > 1 and under_the_bounds(k, 3, n):
                    assert under_the_bounds(k, len(rows), n), (m, k, n, len(rows))

    def test_call_sites_hand_blas_only_small_blocks(self, monkeypatch):
        # Every product of a heatmap, a zero search with its contour count
        # and a critical-line probe goes through blocks under the bounds.
        blocks = []
        matmul = np.matmul

        def spy(a, b, **kwargs):
            blocks.append((a.shape, b.shape))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(wamcore.np, "matmul", spy)
        f = factor(13573088 * 349609375 * 363182463)
        region = zeros.SearchRegion(-1.0, 7.29, 0.0, 60.0)
        zeros.find_zeros(f, region)
        zeros.argument_principle_count(f, region)
        zeros.critical_line_probe(f, 1e4, 200_000)
        grid_region = zeros.SearchRegion(-6.0, 6.0, -6.0, 6.0, grid_step=0.05)
        triples.max_wam_heatmap(triples.generate_triples(3000), grid_region)
        assert blocks
        for a, b in blocks:
            rows, k = a
            assert len(b) == 2, (a, b)  # sums at points never reach BLAS
            assert under_the_bounds(k, rows, b[1]), (a, b)

    def test_no_product_bypasses_the_helper(self):
        # The spy above sees only what reaches np.matmul; an `@` or a dot
        # elsewhere would bypass it.  Sums at points are _weighted_sum's
        # elementwise passes, and integer products (which numpy does not
        # send to BLAS) may stay outside the helper.
        allowed = {
            ("wamcore", "_serial_product"),
            ("ffpoly", "_ModRing.mul"),  # int64 reduction
            ("ffpoly", "_ModRing.frobenius"),  # int64 Frobenius table
        }
        found = set()
        for path in sorted(pathlib.Path(wamcore.__file__).parent.glob("*.py")):
            found |= products_in(path.stem, ast.parse(path.read_text()))
        assert found == allowed


def products_in(module, tree):
    """(module, qualified function) of every `@`, matmul, dot or einsum."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        is_product = isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            is_product |= node.func.attr in {"matmul", "dot", "vdot", "einsum", "tensordot", "inner"}
        if is_product:
            found.add((module, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


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

    @pytest.mark.parametrize("s", [0.5, 0.0, -1.0 + 3.0j, 0.9 + 5.0j, -7000.0 + 2.0j])
    def test_reports_the_wam_value_it_checks(self, s):
        for n in (2, 11, 40, 63):
            report = mersenne_lower_bound_check(n, s)
            assert report.wam == wam_at(mersenne_factorization(n), s).value
            assert report.goal_lhs == abs(report.wam)

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

    @pytest.mark.parametrize("n", [2, 3, 11, 29, 61, 62, 63])
    def test_factorization_from_the_odd_part(self, monkeypatch, n):
        want = factor(2**n * (2**n - 1))
        factored = []
        monkeypatch.setattr(wamcore, "factor", lambda m: factored.append(m) or factor(m))
        assert mersenne_factorization(n) == want
        assert factored == [2**n - 1]

    @given(st.integers(2, 63), st.lists(POINTS_LEFT_OF_ONE, max_size=12))
    def test_a_sequence_checks_as_each_point_alone(self, n, pts):
        batch = mersenne_lower_bound_check(n, pts)
        assert batch == [mersenne_lower_bound_check(n, s) for s in pts]

    def test_one_factorization_and_one_evaluation_per_call(self, monkeypatch):
        factored, calls = [], []
        monkeypatch.setattr(wamcore, "factor", lambda m: factored.append(m) or factor(m))
        monkeypatch.setattr(wamcore, "wam_at", lambda f, s: calls.append(s) or wam_at(f, s))
        pts = [0.5, 0.5 + 5j, -1.0, -1 + 1j, 0.5 + 1j]
        checks = mersenne_lower_bound_check(40, pts)
        assert len(checks) == 5 and all(c.holds for c in checks)
        assert factored == [2**40 - 1]
        assert calls == [pts + [0.5, -1.0]]  # the points, then their real parts

    @pytest.mark.parametrize("bad", BAD_POINTS)
    def test_one_bad_point_stops_the_check_before_any_evaluation(self, monkeypatch, bad):
        called = []
        monkeypatch.setattr(wamcore, "factor", lambda m: called.append(m) or factor(m))
        monkeypatch.setattr(wamcore, "wam_at", lambda f, s: called.append(s) or wam_at(f, s))
        with pytest.raises(ValueError):
            mersenne_lower_bound_check(11, [0.5, bad, -1.0])
        assert called == []

    @pytest.mark.parametrize("a", [-8000.0, -1e6])
    def test_lemma_holds_where_both_printed_sides_underflow(self, a):
        # (ln p)^a underflows to 0 for every odd p here, and n (ln 3)^(a - 1)
        # ln 2 as well; in units of (ln 3)^a the sides are e_3 (or 0) and
        # n ln 2 / ln 3.
        for n in range(2, 64):
            for report in (mersenne_lower_bound_check(n, a), mersenne_lower_bound_check(n, complex(a, 3))):
                assert report.lemma_lhs == report.lemma_rhs == 0.0
                assert report.holds, (n, report)
                assert report.goal_lhs > report.goal_rhs


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
