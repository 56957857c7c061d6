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
from typing import Iterable

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


def _g(log_ratios: np.ndarray, a) -> np.ndarray:
    """g(a) = sum_{k<m} (ln p_k / ln p_m)^a over the last axis of _log_ratios.
    For a stack of rows, `a` is a column holding one abscissa per row.

    np.add.reduce sums each row pairwise, as np.sum does a single row, so a
    row's value does not depend on the rows stacked with it.
    """
    return np.add.reduce(np.exp(a * log_ratios), axis=-1)


def is_wam_constant(f: Factorization) -> bool:
    """True iff all exponents are equal; then wam == e_1 off the poles."""
    if not f.exponents:
        raise EmptyFactorization("constancy is undefined for n = 1")
    return len(set(f.exponents)) == 1


def critical_abscissa(f: Factorization) -> CriticalProfile:
    """Solve g(a) = 1 by bisection to |delta a| <= 1e-10, or one ulp.

    m = 1 has no equation (a_crit = None); m = 2 gives g(0) = 1 exactly,
    so a_crit = 0 with no solver run.

    >>> from wamlab.arith import factor
    >>> critical_abscissa(factor(6)).a_crit
    0.0
    """
    return critical_abscissae([f])[0]


def critical_abscissae(fs: Iterable[Factorization]) -> list[CriticalProfile]:
    """critical_abscissa of every factorization in fs, in input order.

    The factorizations with m >= 3 are bisected together, one numpy pass
    per step over each group of equal m.  A row's steps do not depend on
    the other rows, so its a_crit is the same wherever it is solved.

    >>> from wamlab.arith import factor
    >>> [p.a_crit for p in critical_abscissae([factor(8), factor(30), factor(6)])]
    [None, 1.1932950206974056, 0.0]
    """
    fs = list(fs)
    a_crit: list[float | None] = []
    groups: dict[int, list[int]] = {}
    for i, f in enumerate(fs):
        if not f.primes:
            raise EmptyFactorization("a_crit is undefined for n = 1")
        m = len(f.primes)
        a_crit.append(None if m == 1 else 0.0)  # m >= 3 is solved below
        if m >= 3:
            groups.setdefault(m, []).append(i)
    for rows in groups.values():
        roots = _bisect(np.array([_log_ratios(fs[i]) for i in rows]))
        for i, root in zip(rows, roots.tolist()):
            a_crit[i] = root
    return [
        CriticalProfile(a, is_wam_constant(f), len(f.primes), f.exponents[-1])
        for f, a in zip(fs, a_crit)
    ]


def _bisect(log_ratios: np.ndarray) -> np.ndarray:
    """The root of g = 1 for each row of a (T, m - 1) stack of _log_ratios.

    Every a the solver evaluates is >= -64 and every log ratio is above
    -4.9 for p < 2^127, so exp(a * log_ratio) <= exp(313) cannot overflow.
    """
    rows = len(log_ratios)
    lo = np.full(rows, -_BRACKET_START)
    hi = np.full(rows, _BRACKET_START)
    growing = np.arange(rows)
    for _ in range(_MAX_EXPANSIONS):
        growing = growing[~(_g(log_ratios[growing], hi[growing, None]) < 1.0)]
        if not growing.size:
            break
        hi[growing] *= 2.0
    else:
        raise RuntimeError("bisection bracket expansion failed")
    # g(lo) > 1 is automatic for m >= 3: g decreases and g(0) = m - 1 >= 2.
    # Each row stops at its own first hi - lo <= BISECT_TOL, or at one ulp of
    # hi where that is wider (a_crit above 2^19), as no float lies between.
    roots = np.empty(rows)
    live = np.arange(rows)
    while True:
        wide = hi - lo > np.maximum(BISECT_TOL, np.spacing(hi))
        still = np.count_nonzero(wide)
        if still < live.size:
            roots[live[~wide]] = 0.5 * (lo[~wide] + hi[~wide])
            if not still:
                return roots
            live, lo, hi, log_ratios = live[wide], lo[wide], hi[wide], log_ratios[wide]
        mid = 0.5 * (lo + hi)
        above = _g(log_ratios, mid[:, None]) > 1.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)


def wam_upper(f: Factorization, a: float) -> float:
    """Upper bound for |wam(n, a+ib)| over all b, valid for a > a_crit.

    Bound: sum_k e_k (ln p_k)^a over the gap (ln p_m)^a - sum_{k<m} (ln p_k)^a,
    a lower bound on |f(a + ib)|.  Both are divided by (ln p_m)^a, so the
    bound is finite for every a.  It decreases in a and converges to e_m as
    a -> +inf; a = +inf gives e_m.  A NaN a raises ValueError.
    """
    if not f.primes:
        raise EmptyFactorization("wam_upper is undefined for n = 1")
    if math.isnan(a):
        raise ValueError("the abscissa a must be a number, got nan")
    log_ratios = _log_ratios(f)
    with np.errstate(over="ignore"):  # a is arbitrary here
        gap = 1.0 - float(_g(log_ratios, a))
        tail = float(np.add.reduce(np.array(f.exponents[:-1]) * np.exp(a * log_ratios)))
    if gap <= 0.0:
        raise BelowCritical(
            f"a = {a} is at or below the critical abscissa (1 - g(a) = {gap})"
        )
    return (f.exponents[-1] + tail) / gap
