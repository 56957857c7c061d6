"""Weighted average multiplicity of a factorization at a complex exponent.

For n = prod p_k^{e_k} define

    wam(n, s) = sum_k e_k (ln p_k)^s  /  sum_k (ln p_k)^s

where each term (ln p_k)^s is exp(s * ln(ln p_k)), an entire function of s
with no branch cut (ln p_k > 0 always; note ln(ln 2) < 0, so the p = 2 term
decays as Re(s) grows while every other term expands).  At s = 1 this is
ln(n)/ln(rad n), at s = 0 it is Omega/omega, and as Re(s) -> +inf it tends
to e_m, the multiplicity of the largest prime factor.

The same shape with polynomial degrees as heights serves the function-field
case, so the evaluation core below takes an explicit height list.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

import numpy as np

from .arith import Factorization, factor

LN2 = math.log(2.0)
LN3 = math.log(3.0)

# A point s is reported as a pole when |denominator| drops below this fraction
# of sum_k |h_k^s| over the factors, the scale of the terms being cancelled:
# sum_d W_d |d^s| over merged heights d.
POLE_RTOL = 1e-12


class EmptyFactorization(ValueError):
    """wam is undefined for n = 1 (no prime factors, 0/0 at every s)."""


#: Largest |Re s| and |Im s| that as_complex accepts.  Every rate r_k = ln h_k
#: of a positive double height lies in [-745, 710], so r_k s and its shift by
#: max_k r_k Re s stay below 1455 * 1e305 and finite, whatever the factors.
_S_MAX = 1e305


#: OpenBLAS (0.3.31, measured on a 2-vCPU x86-64 VM) runs a gemm on one
#: thread while M·N·K stays below _GEMM_SERIAL and a gemv while M·N stays
#: below _GEMV_SERIAL.  Above them it wakes its other threads, which then
#: spin through the Python work that follows such small products.  No product
#: needs a pool, so `import wamlab` before numpy loads OpenBLAS with one thread
#: unless a thread count is set.
_GEMM_SERIAL = 1 << 16
_GEMV_SERIAL = 1 << 12


def _serial_product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for 2-d a and b, into `out` when given, in row blocks that
    OpenBLAS runs on one thread: the grids and the critical-line tables.
    With the one thread that `import wamlab` asks for, the blocks change nothing;
    with a pool (a thread count set, or numpy imported first) they keep it idle.

    A block has the most rows under the bound (_GEMV_SERIAL for one column,
    _GEMM_SERIAL otherwise) less one, and at least 2, since numpy sends a
    1-row product to gemv with the lower bound; a 1-row rest joins the block
    before it.  The result is the same for any OPENBLAS_NUM_THREADS, and
    within rounding of a @ b on any kernel, not bit for bit: heatmap cells
    agree across kernels within 1e-13 in log10 |wam|.  Sums at points
    (_weighted_sum) keep their bytes on every kernel.
    """
    m, k = a.shape
    n = b.shape[1]
    if out is None:
        out = np.empty((m, n), dtype=np.result_type(a, b))
    bound = _GEMV_SERIAL if n == 1 else _GEMM_SERIAL
    rows = max(2, (bound - 1) // max(k * n, 1) - 1)
    edges = [*range(0, m, rows), m]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    for lo, hi in zip(edges, edges[1:]):
        np.matmul(a[lo:hi], b, out=out[lo:hi])
    return out


def _weighted_sum(terms: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights[k] terms[..., k] as m elementwise passes k = 0, ..., m - 1:
    every sum at points goes through here, and each value gets the same bits
    whatever the batch around it and whatever BLAS kernel numpy links."""
    out = terms[..., 0] * weights[0]
    for k in range(1, len(weights)):
        out += terms[..., k] * weights[k]
    return out


def _majorant(f: ExpSum, moduli: np.ndarray, order: int = 0) -> np.ndarray:
    """sum_k |w_k r_k^order| moduli[..., k]: bounds |f^(order)| where no term's modulus exceeds moduli."""
    return _weighted_sum(moduli, np.abs(f.weights * f.rates**order))


def _rounding(f: ExpSum, scale, z):
    """8 eps scale (max_k |r_k| |z| + m): the most that rounding the phases r_k z and the sum moves f."""
    return 8 * np.finfo(float).eps * scale * (np.abs(f.rates).max() * np.abs(z) + f.rates.size)


def as_complex(s) -> complex:
    """Validate and coerce an evaluation point; NaN, inf and points with
    |Re s| or |Im s| above 1e305 (where r_k s could overflow) are rejected."""
    z = complex(s)
    if not (abs(z.real) <= _S_MAX and abs(z.imag) <= _S_MAX):
        raise ValueError(f"evaluation point needs |Re s|, |Im s| <= {_S_MAX:g}, got {z}")
    return z


class ExpSum:
    """f(s) = sum_k w_k * exp(r_k * s), real weights w and rates r.

    Both the numerator and denominator of wam have this form (with
    r_k = ln ln p_k), as do their s-derivatives (weights w_k r_k).  The one
    pointwise evaluator is `shifted_terms`: the terms divided by the largest
    term modulus, which cannot overflow and leave ratios of sums on the
    same rates (wam, f/f', f'/f) unchanged; `_weighted_sum` adds them.  A
    grid of Re f and Im f over a rectangle is one product of `phases` and
    `columns`.
    """

    __slots__ = ("weights", "rates")

    def __init__(self, weights: Sequence[float], rates: Sequence[float]):
        self.weights = np.asarray(weights, dtype=float)
        self.rates = np.asarray(rates, dtype=float)
        if self.weights.shape != self.rates.shape or self.weights.ndim != 1:
            raise ValueError("weights and rates must be parallel 1-d sequences")

    def shifted_terms(self, s):
        """(exp(r_k s - sigma), sigma), sigma = max_k r_k Re s, for any array s;
        the terms get a trailing axis of length m and the dtype of s."""
        exponents = np.multiply.outer(s, self.rates)
        a = np.real(s)  # r_k a is monotone in r_k: its largest value is at an end
        sigma = np.maximum(a * self.rates.max(), a * self.rates.min())
        exponents.real -= sigma[..., None]
        return np.exp(exponents), sigma

    def __call__(self, s):
        """f(s) itself, unshifted; it overflows once max_k r_k Re s > 709."""
        terms, sigma = self.shifted_terms(np.asarray(s, dtype=complex))
        vals = _weighted_sum(terms, self.weights) * np.exp(sigma)
        return complex(vals) if np.ndim(s) == 0 else vals

    def phases(self, y):
        """[cos(y ⊗ r); sin(y ⊗ r)]: times the weights, the row factor of a grid."""
        phases = np.multiply.outer(np.asarray(y, dtype=float), self.rates)
        return np.concatenate([np.cos(phases), np.sin(phases)])

    def columns(self, x):
        """exp(r ⊗ x - max_k r_k x).T, the column factor of a grid, shared by every
        sum on these rates: [Re f; Im f] at x[j] + i y[i] is (phases(y) * weights)
        @ columns(x), as exp(r(x + iy)) = exp(iry) exp(rx), from (len y + len x)·m
        exponentials.  Column j is divided by exp(max_k r_k x_j): it cannot
        overflow, and signs of Re and Im and ratios of sums are kept."""
        return self.shifted_terms(np.asarray(x, dtype=float))[0].T


@dataclass(frozen=True)
class WamSums:
    """Numerator and denominator of a wam function as exponential sums on one
    set of strictly increasing rates; build them with wam_sums."""

    numerator: ExpSum
    denominator: ExpSum


def wam_sums(heights: Sequence[float], exponents: Sequence[int]) -> WamSums:
    """Wam sums from positive heights h_k and multiplicities e_k; all are made here.

    Integer case: h_k = ln p_k.  Polynomial case: h_k = deg p_k.  Terms on
    one rate ln h_k merge: the denominator weight W is their count and the
    numerator weight their multiplicities' sum, so the rates strictly
    increase.  Strictly increasing heights are kept as given, every W = 1.
    """
    if len(heights) == 0:
        raise EmptyFactorization("at least one factor is required")
    if len(heights) != len(exponents):
        raise ValueError("heights and exponents must be parallel")
    if not all(0 < h < math.inf for h in heights):
        raise ValueError("heights must be positive and finite")
    rates, counts = [math.log(h) for h in heights], [1.0] * len(heights)
    if not all(map(operator.lt, rates, rates[1:])):
        pairs = groupby(sorted(zip(rates, exponents)), operator.itemgetter(0))
        merged = [(r, [e for _, e in g]) for r, g in pairs]
        rates, exponents = [r for r, _ in merged], [sum(es) for _, es in merged]
        counts = [float(len(es)) for _, es in merged]
    return WamSums(ExpSum([float(e) for e in exponents], rates), ExpSum(counts, rates))


def integer_wam_sums(f: Factorization) -> WamSums:
    if not f.primes:
        raise EmptyFactorization("wam is undefined for n = 1")
    return wam_sums([math.log(p) for p in f.primes], f.exponents)


Sums = WamSums | Factorization  # what the analytic entry points take


def as_sums(x: Sums) -> WamSums:
    """x itself if it is WamSums, else the sums of the integer Factorization x:
    the one conversion each analytic entry point makes."""
    return x if isinstance(x, WamSums) else integer_wam_sums(x)


@dataclass(frozen=True)
class WamEvaluation:
    """One evaluation of wam at s.  `value is None` marks a zero of the denominator.
    numerator and denominator are in units of the largest term modulus max_k |(ln p_k)^s|."""

    s: complex
    numerator: complex
    denominator: complex
    value: complex | None

    @property
    def is_pole(self) -> bool:
        return self.value is None


def _points(s) -> tuple[list[complex], bool]:
    """The points of s, one point or a 1-d sequence of them, each checked by
    as_complex, and whether s is a sequence."""
    if np.ndim(s) == 0:
        return [as_complex(s)], False
    if np.ndim(s) != 1:
        raise ValueError(f"expected a point or a 1-d sequence of points, got shape {np.shape(s)}")
    return [as_complex(z) for z in s], True


def wam_at(x: Sums, s):
    """wam of WamSums, or of an integer Factorization, at complex s or at each
    of a 1-d sequence of points; a sequence gives a list, one evaluation per
    point ([] for no points).  Every point is checked before any is evaluated.

    >>> round(wam_at(factor(72), 0).value.real, 12)
    2.5
    """
    sums = as_sums(x)
    points, is_sequence = _points(s)
    terms = sums.denominator.shifted_terms(np.array(points, dtype=complex))[0]  # numerator's too
    nums = _weighted_sum(terms, sums.numerator.weights).tolist()
    dens = _weighted_sum(terms, sums.denominator.weights).tolist()
    scales = _majorant(sums.denominator, np.abs(terms)).tolist()
    out = [
        WamEvaluation(z, num, den, None if abs(den) < POLE_RTOL * scale else num / den)
        for z, num, den, scale in zip(points, nums, dens, scales)
    ]
    return out if is_sequence else out[0]


def wam(n: int, s: complex) -> WamEvaluation:
    """Convenience wrapper on integers; negative n uses |n|."""
    n = abs(n)
    if n <= 1:
        raise EmptyFactorization(f"wam is undefined for n = {n}")
    return wam_at(factor(n), s)


#: Largest n of the family m = 2^n (2^n - 1) that the library takes:
#: factor's default budget splits every 2^n - 1 up to it.
MERSENNE_N_MAX = 63


@dataclass(frozen=True)
class MersenneBound:
    """Divergence-direction bounds for m = 2^n (2^n - 1) at one point s.

    lemma: the odd part of m satisfies
        sum e_i (ln p_i)^Re(s)  <  n * (ln 3)^(Re(s) - 1) * ln 2,
    which feeds the modulus bound
        |wam(m, s)|  >  (1/2) * (1 - (ln2/ln3)^(1 - Re s)) * wam(m, Re s).
    Both inequalities are strict for every n >= 2 when Re(s) < 1.  `holds`
    decides the lemma in units of (ln 3)^Re(s), where neither side underflows.
    `wam` is wam(m, s), None at a pole.
    """

    n: int
    s: complex
    wam: complex | None
    lemma_lhs: float
    lemma_rhs: float
    goal_lhs: float
    goal_rhs: float
    holds: bool

    @property
    def lemma_margin(self) -> float:
        return self.lemma_rhs - self.lemma_lhs

    @property
    def goal_margin(self) -> float:
        return self.goal_lhs - self.goal_rhs


def mersenne_lower_bound_check(n: int, s):
    """Check both divergence inequalities at s, one point or a 1-d sequence
    of points (a list of checks then, [] for no points); requires Re(s) < 1
    and 2 <= n <= MERSENNE_N_MAX, checked in that order.  2^n - 1 is factored
    once, and wam evaluated once, at the points and their distinct real
    parts, on the heights ln 2 and ln p of the odd primes p."""
    points, is_sequence = _points(s)
    for z in points:
        if z.real >= 1:
            raise ValueError(f"bounds hold for Re(s) < 1 only, got Re(s) = {z.real}")
    if not 2 <= n <= MERSENNE_N_MAX:
        raise ValueError(f"n must lie in [2, {MERSENNE_N_MAX}], got {n}")
    odd = [(math.log(p), e) for p, e in factor(2**n - 1).pairs()]
    reals = list(dict.fromkeys(z.real for z in points))
    evs = wam_at(wam_sums([LN2, *(h for h, _ in odd)], [n, *(e for _, e in odd)]), points + reals)
    wam_real = {a: ev.value.real for a, ev in zip(reals, evs[len(points) :])}
    checks = []
    for z, ev in zip(points, evs):
        a = z.real
        lemma_lhs = sum(e * h**a for h, e in odd)
        lemma_rhs = n * LN3 ** (a - 1.0) * LN2
        # Both sides in units of (ln 3)^a: as printed they underflow to 0
        # once a drops below about -7,950.
        lemma_holds = sum(e * (h / LN3) ** a for h, e in odd) < n * LN2 / LN3
        goal_lhs = math.inf if ev.is_pole else abs(ev.value)
        goal_rhs = 0.5 * (1.0 - (LN2 / LN3) ** (1.0 - a)) * wam_real[a]
        holds = lemma_holds and goal_lhs > goal_rhs
        checks.append(MersenneBound(n, z, ev.value, lemma_lhs, lemma_rhs, goal_lhs, goal_rhs, holds))
    return checks if is_sequence else checks[0]
