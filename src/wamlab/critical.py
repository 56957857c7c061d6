"""Critical abscissa of a wam denominator and the induced |wam| bound.

Every function here takes WamSums, or an integer Factorization that
wamcore.as_sums converts.  Over heights h_1 < ... < h_m (ln p_k for the
integers, degrees over F_q[x]) with weights W_k (the number of factors of
height h_k), f(a) = sum_k W_k h_k^a has a sign boundary at the root of

    g(a) = sum_{k<m} (W_k / W_m) (h_k / h_m)^a = 1.

Every ratio h_k / h_m lies in (0, 1), so g is strictly decreasing although
the terms h_k^a need not all increase (ln 2 < 1).  To the right of a_crit
the top term dominates outright, which yields an explicit upper bound on
|wam| and a pole-free half-plane.  a_crit does not depend on the log base:
base b multiplies every (ln p_k)^s by (ln b)^(-s), which cancels from g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .wamcore import ExpSum, Sums, as_sums

BISECT_TOL = 1e-10
_BRACKET_START = 64.0
_MAX_EXPANSIONS = 60


class BelowCritical(ValueError):
    """wam_upper was requested at an abscissa a <= a_crit."""


@dataclass(frozen=True)
class CriticalProfile:
    """Critical abscissa and constancy of one wam function.

    a_crit is None iff m = 1 (no defining equation).  is_constant flags
    the degenerate inputs (every height's mean multiplicity E_k / W_k
    equal: for the integers, perfect powers of squarefree numbers) on which
    wam is a constant and every denominator zero is a removable singularity.
    """

    a_crit: float | None
    is_constant: bool


def _log_ratios(den: ExpSum) -> tuple[np.ndarray, np.ndarray]:
    """ln(h_k / h_m) = r_k - r_m for k < m, all negative, and W_k / W_m."""
    return den.rates[:-1] - den.rates[-1], den.weights[:-1] / den.weights[-1]


def _g(log_ratios: np.ndarray, weights: np.ndarray, a) -> np.ndarray:
    """g(a) = sum_{k<m} (W_k / W_m) (h_k / h_m)^a over the last axis of
    _log_ratios and its weights.  For a stack of rows, `a` is a column
    holding one abscissa per row.

    np.add.reduce sums each row pairwise, as np.sum does a single row, so a
    row's value does not depend on the rows stacked with it.
    """
    return np.add.reduce(weights * np.exp(a * log_ratios), axis=-1)


def is_wam_constant(x: Sums) -> bool:
    """True iff every height has one mean multiplicity E_k / W_k (for the
    integers: all exponents are equal), the value of wam off the poles."""
    sums = as_sums(x)
    return len(set((sums.numerator.weights / sums.denominator.weights).tolist())) == 1


def critical_abscissa(x: Sums) -> CriticalProfile:
    """Solve g(a) = 1 by bisection to |delta a| <= 1e-10, or one ulp.

    m = 1 has no equation (a_crit = None); m = 2 is solved in closed form,
    a_crit = ln(W_1 / W_2) / (r_2 - r_1), which is 0 for W_1 = W_2.

    >>> from wamlab.arith import factor
    >>> critical_abscissa(factor(6)).a_crit
    0.0
    """
    return critical_abscissae([x])[0]


def critical_abscissae(xs: Iterable[Sums]) -> list[CriticalProfile]:
    """critical_abscissa of every input in xs, in input order.

    The inputs with m >= 3 are bisected together, one numpy pass per step
    over each group of equal m.  A row's steps do not depend on the other
    rows, so its a_crit is the same wherever it is solved.

    >>> from wamlab.arith import factor
    >>> [p.a_crit for p in critical_abscissae([factor(8), factor(30), factor(6)])]
    [None, 1.1932950206974056, 0.0]
    """
    sums = [as_sums(x) for x in xs]
    a_crit: list[float | None] = []
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(sums):
        den, m = s.denominator, s.denominator.rates.size
        a_crit.append(None)  # m = 1 has no equation; m >= 3 is solved below
        if m == 2:  # +0.0 for W_1 = W_2, as r_2 - r_1 > 0
            (w1, w2), (r1, r2) = den.weights.tolist(), den.rates.tolist()
            a_crit[i] = math.log(w1 / w2) / (r2 - r1)
        elif m >= 3:
            groups.setdefault(m, []).append(i)
    for rows in groups.values():
        log_ratios, weights = zip(*(_log_ratios(sums[i].denominator) for i in rows))
        roots = _bisect(np.array(log_ratios), np.array(weights))
        for i, root in zip(rows, roots.tolist()):
            a_crit[i] = root
    return [CriticalProfile(a, is_wam_constant(s)) for s, a in zip(sums, a_crit)]


def _bisect(log_ratios: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The root of g = 1 for each row of (T, m - 1) stacks of _log_ratios.

    lo and hi start at -64 and 64 and double until g(lo) > 1 > g(hi).  Only
    a heavy top weight moves lo: g(-64) > g(0) = m - 1 >= 2 where every
    W_k = 1.  Log ratios exceed -4.9 for p < 2^127 and ln(1/64) = -4.16 for
    degrees to ffpoly.MAX_FACTOR_DEGREE, so on [-64, 64] every term is below
    e^313 times the number of factors; past it g = inf still compares right.
    """
    rows = len(log_ratios)
    lo, hi = np.full(rows, -_BRACKET_START), np.full(rows, _BRACKET_START)
    with np.errstate(over="ignore"):
        for end, beyond in ((lo, np.greater), (hi, np.less)):
            growing = np.arange(rows)
            for _ in range(_MAX_EXPANSIONS):
                g = _g(log_ratios[growing], weights[growing], end[growing, None])
                growing = growing[~beyond(g, 1.0)]
                if not growing.size:
                    break
                end[growing] *= 2.0
            else:
                raise RuntimeError("bisection bracket expansion failed")
        # Each row stops at its own first hi - lo <= BISECT_TOL, or at one ulp
        # of hi where that is wider (a_crit above 2^19), as no float lies between.
        roots = np.empty(rows)
        live = np.arange(rows)
        while True:
            wide = hi - lo > np.maximum(BISECT_TOL, np.spacing(hi))
            still = np.count_nonzero(wide)
            if still < live.size:
                roots[live[~wide]] = 0.5 * (lo[~wide] + hi[~wide])
                if not still:
                    return roots
                live, lo, hi = live[wide], lo[wide], hi[wide]
                log_ratios, weights = log_ratios[wide], weights[wide]
            mid = 0.5 * (lo + hi)
            above = _g(log_ratios, weights, mid[:, None]) > 1.0
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)


def wam_upper(x: Sums, a: float) -> float:
    """Upper bound for |wam(a+ib)| over all b, valid for a > a_crit.

    Bound: sum_k E_k h_k^a over the gap W_m h_m^a - sum_{k<m} W_k h_k^a,
    a lower bound on |f(a + ib)|.  Both are divided by W_m h_m^a, so the
    bound is finite for every a.  It decreases in a and converges to
    E_m / W_m (e_m for the integers) as a -> +inf; a = +inf gives that
    limit.  A NaN a raises ValueError.
    """
    if math.isnan(a):
        raise ValueError("the abscissa a must be a number, got nan")
    sums = as_sums(x)
    log_ratios, weights = _log_ratios(sums.denominator)
    tops = sums.numerator.weights / sums.denominator.weights[-1]
    with np.errstate(over="ignore"):  # a is arbitrary here
        gap = 1.0 - float(_g(log_ratios, weights, a))
        tail = float(_g(log_ratios, tops[:-1], a))
    if gap <= 0.0:
        raise BelowCritical(f"a = {a} is at or below the critical abscissa (1 - g(a) = {gap})")
    return (float(tops[-1]) + tail) / gap
