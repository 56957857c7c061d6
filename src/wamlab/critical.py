"""Critical abscissa of a wam denominator and the induced |wam| bound.

For primes p_1 < ... < p_m, the denominator f(a) = sum_k (ln p_k)^a on the
real axis has a sign boundary at the unique a_crit solving

    g(a) = sum_{k<m} (ln p_k / ln p_m)^a = 1.

Every ratio in g lies in (0, 1), so g is strictly decreasing even though the
raw terms (ln p_k)^a are not all increasing (the p = 2 term decreases: its
log is below 1).  To the right of a_crit the top term dominates outright,
which yields an explicit upper bound on |wam| and a pole-free half-plane.

a_crit does not depend on the log base: in base b every term
(log_b p_k)^s = (ln b)^(-s) (ln p_k)^s gains the same factor (ln b)^(-s),
which cancels from the ratios in g(a).  Natural logs are used throughout
and recorded in every CLI output header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import Factorization
from .wamcore import EmptyFactorization

BISECT_TOL = 1e-10
_BRACKET_START = 64.0
_MAX_EXPANSIONS = 60


class BelowCritical(ValueError):
    """wam_upper was requested at an abscissa a <= a_crit."""


@dataclass(frozen=True)
class CriticalProfile:
    """Critical abscissa and constancy data for one factorization.

    a_crit is None iff m <= 1 (no defining equation).  is_constant flags
    the degenerate inputs (all exponents equal: perfect powers of
    squarefree numbers) on which wam is a constant and every denominator
    zero is a removable singularity.
    """

    a_crit: float | None
    is_constant: bool
    m: int
    e_m: int


def _log_ratios(f: Factorization) -> np.ndarray:
    """ln(ln p_k / ln p_m) for k < m; all entries are negative."""
    logs = np.log([float(p) for p in f.primes])
    return np.log(logs[:-1]) - math.log(logs[-1])


def _g(f: Factorization, a: float, weights=1.0) -> float:
    """sum_{k<m} w_k (ln p_k / ln p_m)^a; w = 1 is the bracketing function g."""
    with np.errstate(over="ignore"):
        return float(np.sum(weights * np.exp(a * _log_ratios(f))))


def is_wam_constant(f: Factorization) -> bool:
    """True iff all exponents are equal; then wam == e_1 off the poles."""
    if not f.exponents:
        raise EmptyFactorization("constancy is undefined for n = 1")
    return len(set(f.exponents)) == 1


def critical_abscissa(f: Factorization) -> CriticalProfile:
    """Solve g(a) = 1 by bisection to |delta a| < 1e-10.

    m = 1 has no equation (a_crit = None); m = 2 gives g(0) = 1 exactly,
    so a_crit = 0 with no solver run.

    >>> from wamlab.arith import factor
    >>> critical_abscissa(factor(6)).a_crit
    0.0
    """
    if not f.primes:
        raise EmptyFactorization("a_crit is undefined for n = 1")
    m = len(f.primes)
    constant = is_wam_constant(f)
    e_m = f.exponents[-1]
    if m == 1:
        return CriticalProfile(None, constant, m, e_m)
    if m == 2:
        return CriticalProfile(0.0, constant, m, e_m)

    lo, hi = -_BRACKET_START, _BRACKET_START
    for _ in range(_MAX_EXPANSIONS):
        if _g(f, hi) < 1.0:
            break
        hi *= 2.0
    else:
        raise RuntimeError("bisection bracket expansion failed")
    # g(lo) > 1 is automatic for m >= 3: g decreases and g(0) = m - 1 >= 2.
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if _g(f, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return CriticalProfile(0.5 * (lo + hi), constant, m, e_m)


def denominator_gap(f: Factorization, a: float) -> float:
    """(ln p_m)^a - sum_{k<m} (ln p_k)^a: positive exactly when a > a_crit.

    This is the triangle-inequality margin keeping f(s) nonzero on the
    whole vertical line Re(s) = a.
    """
    terms = [math.log(p) ** a for p in f.primes]
    return terms[-1] - sum(terms[:-1])


def wam_upper(f: Factorization, a: float) -> float:
    """Upper bound for |wam(n, a+ib)| over all b, valid for a > a_crit.

    Bound: sum_k e_k (ln p_k)^a divided by the denominator gap.  Both
    are divided by (ln p_m)^a, so the bound is finite for every a.  It
    decreases in a and converges to e_m as a -> +inf.
    """
    if not f.primes:
        raise EmptyFactorization("wam_upper is undefined for n = 1")
    gap = 1.0 - _g(f, a)
    if gap <= 0.0:
        raise BelowCritical(
            f"a = {a} is at or below the critical abscissa (1 - g(a) = {gap})"
        )
    return (f.exponents[-1] + _g(f, a, np.array(f.exponents[:-1]))) / gap
