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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arith import Factorization, factor

LN2 = math.log(2.0)
LN3 = math.log(3.0)

# A point s is reported as a pole when |denominator| drops below this fraction
# of sum_k |(ln p_k)^s|, the scale of the terms being cancelled.
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
#: spin through the Python work that follows such small products.
_GEMM_SERIAL = 1 << 16
_GEMV_SERIAL = 1 << 12
#: Row tiles start at multiples of this, so every row keeps its place in
#: the kernels' unrolled loops and the tiles give the bits of the whole
#: product (real gemv rows cut at other places do not).
_ROW_TILE = 4


def _product_plan(m: int, k: int, n: int | None) -> list[slice]:
    """Row blocks of an (m×k) @ (k×n) product, n None for a 1-d right
    factor, each of which OpenBLAS runs on one thread while 5·k·n stays
    below _GEMM_SERIAL (5·k below _GEMV_SERIAL for a gemv).

    numpy sends a product with one row or one column, or a 1-d right
    factor, to gemv, with the lower bound; a block of 1 row cut from a
    larger product would move that row from gemm or gemv to another kernel,
    so no block has 1 row.  A 1-row product is left whole (it threads when
    k·n >= _GEMV_SERIAL).  Wider products get blocks of 4 or 5 rows, which
    may thread, with the same bits.
    """
    if m < 2:
        return [slice(None)]
    k = max(k, 1)
    most = (_GEMV_SERIAL - 1) // k if n is None or n < 2 else (_GEMM_SERIAL - 1) // (k * n)
    edges = [*range(0, m, _ROW_TILE * max(1, (most - 1) // _ROW_TILE)), m]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:  # a 1-row rest joins the last
        del edges[-2]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _serial_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a 2-d a and a 1-d or 2-d b, bit for bit, as the row blocks
    of _product_plan.  Every 2-d product of the library goes through here."""
    m, k = a.shape
    out = np.empty(a.shape[:1] + b.shape[1:], dtype=np.result_type(a, b))
    for rows in _product_plan(m, k, b.shape[1] if b.ndim == 2 else None):
        np.matmul(a[rows], b, out=out[rows])
    return out


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
    same rates (wam, f/f', f'/f) unchanged.
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
        flat = _serial_product(terms.reshape(-1, self.weights.size), self.weights)
        vals = flat.reshape(sigma.shape) * np.exp(sigma)
        return complex(vals) if np.ndim(s) == 0 else vals

    def outer(self, u, v):
        """f(u[i] + v[j]) for 1-d u and v, as one matrix product.

        exp(r(u + v)) = exp(ru) exp(rv), so the table is
        (exp(u ⊗ r) diag w) @ exp(v ⊗ r)ᵀ: (len u + len v)·m exponentials
        instead of len u·len v·m.  The v factor is shifted terms, so column
        j comes divided by exp(max_k r_k Re v_j): with the real parts in v it
        cannot overflow, and the signs of Re and Im and the ratio of two
        sums on the same rates are kept.
        """
        u_terms = np.exp(np.multiply.outer(np.asarray(u, dtype=complex), self.rates))
        v_terms = self.shifted_terms(np.asarray(v))[0]
        # Both factors complex, so each block is one single-threaded zgemm.
        return _serial_product(u_terms * self.weights, v_terms.T.astype(complex))


@dataclass(frozen=True)
class WamSums:
    """Numerator and denominator of a wam function as exponential sums."""

    numerator: ExpSum
    denominator: ExpSum


def wam_sums(heights: Sequence[float], exponents: Sequence[int]) -> WamSums:
    """Build wam sums from positive heights h_k and multiplicities e_k.

    Integer case: h_k = ln p_k.  Polynomial case: h_k = deg p_k (heights may
    repeat there; every irreducible factor contributes its own term).
    """
    if len(heights) == 0:
        raise EmptyFactorization("at least one factor is required")
    if len(heights) != len(exponents):
        raise ValueError("heights and exponents must be parallel")
    if any(h <= 0 for h in heights):
        raise ValueError("heights must be positive")
    rates = [math.log(h) for h in heights]
    return WamSums(
        numerator=ExpSum([float(e) for e in exponents], rates),
        denominator=ExpSum([1.0] * len(rates), rates),
    )


def integer_wam_sums(f: Factorization) -> WamSums:
    return wam_sums([math.log(p) for p in f.primes], f.exponents)


@dataclass(frozen=True)
class WamEvaluation:
    """One evaluation of wam at s.  `value is None` marks a pole.  numerator
    and denominator are in units of the largest term modulus max_k |(ln p_k)^s|."""

    s: complex
    numerator: complex
    denominator: complex
    value: complex | None

    @property
    def is_pole(self) -> bool:
        return self.value is None


def evaluate_wam(sums: WamSums, s: complex) -> WamEvaluation:
    z = as_complex(s)
    terms = sums.denominator.shifted_terms(z)[0]  # the numerator's terms too
    num = complex(terms @ sums.numerator.weights)
    den = complex(terms @ sums.denominator.weights)
    if abs(den) < POLE_RTOL * float(np.abs(terms).sum()):
        return WamEvaluation(z, num, den, None)
    return WamEvaluation(z, num, den, num / den)


def wam_at(f: Factorization, s: complex) -> WamEvaluation:
    """wam of a factorization at complex s.

    >>> round(wam_at(factor(72), 0).value.real, 12)
    2.5
    """
    if not f.primes:
        raise EmptyFactorization("wam is undefined for n = 1")
    return evaluate_wam(integer_wam_sums(f), s)


def wam(n: int, s: complex) -> WamEvaluation:
    """Convenience wrapper on integers; negative n uses |n|."""
    n = abs(n)
    if n <= 1:
        raise EmptyFactorization(f"wam is undefined for n = {n}")
    return wam_at(factor(n), s)


def wam_original(f: Factorization) -> float:
    """The s = 1 value in closed form: ln(n) / ln(rad n)."""
    if not f.primes:
        raise EmptyFactorization("wam is undefined for n = 1")
    log_n = sum(e * math.log(p) for p, e in f.pairs())
    log_rad = sum(math.log(p) for p in f.primes)
    return log_n / log_rad


def em_limit(f: Factorization) -> int:
    """Limit of wam(n, a) as real a -> +inf: the top multiplicity e_m."""
    if not f.exponents:
        raise EmptyFactorization("wam is undefined for n = 1")
    return f.exponents[-1]


@dataclass(frozen=True)
class CrudeEmBound:
    """e_m <= wam(n, 1) * omega(n), with both sides recorded."""

    e_m: int
    wam_at_one: float
    omega: int
    bound: float
    holds: bool


def crude_em_bound_holds(f: Factorization) -> CrudeEmBound:
    """Check the multiplicity bound e_m <= wam(n, 1) * omega(n)."""
    w1 = wam_original(f)
    e_m = f.exponents[-1]
    bound = w1 * len(f.primes)
    return CrudeEmBound(e_m, w1, len(f.primes), bound, e_m <= bound + 1e-12)


def mersenne_factorization(n: int) -> Factorization:
    """Factorization of m = 2^n * (2^n - 1)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return factor(2**n * (2**n - 1))


@dataclass(frozen=True)
class MersenneBound:
    """Divergence-direction bounds for m = 2^n (2^n - 1) at one point s.

    lemma: the odd part of m satisfies
        sum e_i (ln p_i)^Re(s)  <  n * (ln 3)^(Re(s) - 1) * ln 2,
    which feeds the modulus bound
        |wam(m, s)|  >  (1/2) * (1 - (ln2/ln3)^(1 - Re s)) * wam(m, Re s).
    Both inequalities are strict for every n >= 2 when Re(s) < 1.
    """

    n: int
    s: complex
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


def mersenne_lower_bound_check(n: int, s: complex) -> MersenneBound:
    """Check both divergence inequalities at s; requires Re(s) < 1, 2<=n<=63."""
    if not 2 <= n <= 63:
        raise ValueError(f"n must lie in [2, 63], got {n}")
    z = as_complex(s)
    a = z.real
    if a >= 1:
        raise ValueError(f"bounds hold for Re(s) < 1 only, got Re(s) = {a}")
    f = mersenne_factorization(n)
    odd = [(p, e) for p, e in f.pairs() if p != 2]
    lemma_lhs = sum(e * math.log(p) ** a for p, e in odd)
    lemma_rhs = n * LN3 ** (a - 1.0) * LN2
    ev = wam_at(f, z)
    goal_lhs = math.inf if ev.is_pole else abs(ev.value)
    wam_real = wam_at(f, a).value.real
    goal_rhs = 0.5 * (1.0 - (LN2 / LN3) ** (1.0 - a)) * wam_real
    holds = lemma_lhs < lemma_rhs and goal_lhs > goal_rhs
    return MersenneBound(n, z, lemma_lhs, lemma_rhs, goal_lhs, goal_rhs, holds)
