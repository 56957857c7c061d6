"""Zero location for wam denominators f(s) = sum_k W_k h_k^s.

Heights h_k and weights W_k are as in critical, and every function here
takes WamSums or an integer Factorization.  Zeros of f are the candidate
poles of wam.  A zero is a pole unless the numerator vanishes there too, as
it does at every zero when wam is constant, and can at some zeros when the
rates are commensurable (degrees 1, 2, 4).  The search is grid-seeded Newton
iteration; a certified winding count of f round the same rectangle serves
as an independent cross-check, and a direct scan along the vertical line
Re(s) = a_crit probes how close f comes to vanishing near it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .critical import critical_abscissa
from .wamcore import ExpSum, Sums, _majorant, _rounding, _serial_product, _weighted_sum, as_sums

#: |N(s)| below this multiple of sum_k E_k |h_k^s| marks a removable zero.
REMOVABLE_RTOL = 1e-8
#: Points per block of the seed grid and of the critical-line scan: 2^16
#: complex values, or their real and imaginary parts, about 1 MB.  Seed
#: rows up to _SEED_ROW_MAX points wide are evaluated in bands of two rows.
_SEED_BLOCK = _PROBE_BLOCK = 1 << 16
_SEED_ROW_MAX = 1 << 19
#: Most values a seed grid evaluates, weighted by their time (2-vCPU x86-64): a
#: point 1 (4.2 ns) plus _SEED_TERM_WEIGHT per term of its product (0.6 ns), a row
#: _SEED_ROW_WEIGHT (18 ns) times 2m + 4, for its cosines, sines and own passes.
#: At the cap a grid takes 3-7 s at m = 3 to 25, up to 14 s in rows over 2^15 points.
_SEED_MAX_VALUES = 1 << 30
_SEED_TERM_WEIGHT, _SEED_ROW_WEIGHT = 1 / 8, 4
#: Most Newton seeds: 0.4 KB (m = 3) to 1.3 KB (m = 25) each, so at most 0.7 GB.
_MAX_SEEDS = 1 << 19
#: The critical-line scan tables every _PROBE_STRIDE-th sample.
_PROBE_STRIDE = 8
#: Newton stops at |f(z)| < NEWTON_TOL, with |f| in units of the largest
#: term modulus max_k |h_k^z|, as are all magnitudes the search reports.
NEWTON_TOL = 1e-10
MAX_NEWTON_ITERS = 40
#: Most samples critical_line_probe takes: 15-25 s, since 2e8 samples take
#: 0.6-0.7 s at m = 6 and 1.1 s at m = 7 (2-vCPU x86-64).  A scan the bound
#: cannot prune is exhaustive, at about 2.3 s per 2e8 samples.
_PROBE_MAX_SAMPLES = 1 << 32
#: Most segments argument_principle_count tests: about 27 s at m = 6, which
#: tests 6e5 segments a second (2-vCPU x86-64).
_COUNT_MAX_SEGMENTS = 1 << 24


class BoundaryZero(RuntimeError):
    """f is within rounding of 0 on the contour of a winding count.  The
    message names the point and rounding's reach there as a share of the term
    scale: tiny at a zero on the contour, large where no jitter can help."""


class Classification(str, Enum):
    POLE = "pole"
    REMOVABLE = "removable"


@dataclass(frozen=True)
class SearchRegion:
    """A rectangle in the s-plane plus the seed-grid step of the search."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    grid_step: float = 0.05

    def __post_init__(self):
        knobs = (self.re_min, self.re_max, self.im_min, self.im_max, self.grid_step)
        if not all(map(math.isfinite, knobs)):
            raise ValueError("region edges and grid_step must be finite")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("region must have positive extent on both axes")
        if self.grid_step <= 0:
            raise ValueError("grid_step must be positive")

    def contains(self, z, slack: float = 0.0):  # elementwise for arrays
        return (
            (self.re_min - slack <= z.real) & (z.real <= self.re_max + slack)
            & (self.im_min - slack <= z.imag) & (z.imag <= self.im_max + slack)
        )


@dataclass(frozen=True)
class ZeroRecord:
    """One polished zero of f with its pole-vs-removable classification;
    residual |f| and numerator_magnitude |N| are in units of max_k |h_k^s|."""

    location: complex
    residual: float
    numerator_magnitude: float
    classification: Classification


@dataclass(frozen=True)
class ZeroSearch:
    """find_zeros result: the records plus search diagnostics.

    The counters say how many Newton seeds were launched, how many
    converged, and how many were dropped (and why), so nothing is
    silently lost.
    """

    records: tuple[ZeroRecord, ...]
    seeds: int
    converged: int
    no_convergence: int
    out_of_region: int
    deduplicated: int = 0

    def __len__(self) -> int:  # perfbench's tracer counts the zeros by len(search)
        return len(self.records)


def _axis_size(lo: float, hi: float, step: float, most: float) -> int:
    """Number of grid points lo + k*step <= hi; MemoryError above `most`."""
    span = (hi - lo) / step + 1e-9
    if not span < most:
        raise MemoryError(f"grid step {step} puts over {most:.4g} points on [{lo}, {hi}], "
                          "more than fit the memory budget; search a smaller rectangle")
    return int(span) + 1


def _seed_points(den: ExpSum, region: SearchRegion) -> np.ndarray:
    """Centers of grid cells where Re f and Im f both change sign.

    The grid is evaluated as [Re f; Im f] tables, and its im axis built, in
    bands of at most _SEED_BLOCK points, or of two rows where rows are wider
    than half that; each band starts on the last row of the one before, so
    no cell loses a corner, and each column's m exponentials are shared.
    Rows wider than _SEED_ROW_MAX, grids of over _SEED_MAX_VALUES weighted
    values and over _MAX_SEEDS seeds raise MemoryError.
    """
    step, m = region.grid_step, den.rates.size
    n_re = _axis_size(region.re_min, region.re_max, step, _SEED_ROW_MAX)
    n_im = _axis_size(region.im_min, region.im_max, step, _SEED_MAX_VALUES)  # a row is >= 1 value
    if n_re < 2 or n_im < 2:
        raise ValueError("region is smaller than one grid cell")
    rows = max(2, _SEED_BLOCK // n_re)
    bands = -(-(n_im - 1) // (rows - 1))  # each band after the first repeats one row
    row = n_re * (1 + m * _SEED_TERM_WEIGHT) + _SEED_ROW_WEIGHT * (2 * m + 4)
    if (n_im + bands - 1) * row + n_re * m > _SEED_MAX_VALUES:
        raise MemoryError(f"a seed grid of {n_re} x {n_im:.4g} points evaluates over "
                          f"{_SEED_MAX_VALUES} values; search a smaller rectangle")
    re = region.re_min + step * np.arange(n_re)
    columns = den.columns(re)

    def _mixed(p):  # a cell is mixed unless its four corners agree
        corner = p[:-1, :-1]
        return (corner != p[:-1, 1:]) | (corner != p[1:, :-1]) | (corner != p[1:, 1:])

    ii, jj, seeds = [], [], 0
    for lo in range(0, n_im - 1, rows - 1):
        im = region.im_min + step * np.arange(lo, min(lo + rows, n_im))
        positive = _serial_product(den.phases(im) * den.weights, columns) >= 0  # Re f, then Im f
        i, j = np.nonzero(_mixed(positive[: im.size]) & _mixed(positive[im.size :]))
        seeds += i.size
        if seeds > _MAX_SEEDS:
            raise MemoryError(f"the grid seeds over {_MAX_SEEDS} Newton runs; search a smaller rectangle")
        ii.append(i + lo)
        jj.append(j)
    ii, jj = np.concatenate(ii), np.concatenate(jj)
    return (re[jj] + 0.5 * step) + 1j * (region.im_min + step * ii + 0.5 * step)


def _newton_polish(den: ExpSum, seeds: np.ndarray):
    """Run Newton iteration on every seed at once; split by outcome.

    One set of shifted terms per iteration gives both f and f' at z; the f
    of each step's result is also its convergence test, |f| < NEWTON_TOL
    in units of the largest term modulus.
    """
    slopes = den.weights * den.rates
    z = seeds.astype(complex)
    active = np.ones(z.shape, dtype=bool)
    for it in range(MAX_NEWTON_ITERS + 1):
        idx = np.nonzero(active)[0]
        terms = den.shifted_terms(z[idx])[0]
        fz = _weighted_sum(terms, den.weights)
        if it:
            small = np.abs(fz) < NEWTON_TOL
            active[idx[small]] = False
            idx, terms, fz = idx[~small], terms[~small], fz[~small]
        if it == MAX_NEWTON_ITERS or not idx.size:
            break
        dfz = _weighted_sum(terms, slopes)
        z[idx] -= np.divide(fz, dfz, out=np.zeros_like(fz), where=np.abs(dfz) > 1e-300)
    converged = ~active
    return z[converged], int(converged.sum()), int(active.sum())


def _dedup(points: np.ndarray, residuals, radius) -> list[int]:
    """Greedy clustering: within radius, keep the smaller residual.

    `radius` is one distance or one per point; two points are within radius
    when they lie closer than the larger of their radii.  Points are visited
    in (re, im) order.  Each merges into the first kept slot whose point lies
    within radius, and replaces that point when its residual is smaller;
    otherwise it opens a new slot.  Slots sit in grid cells of the largest
    radius R, so a point meets only the slots in the cells spanned by
    re +- R and im +- R.  floor(v / R) is monotone in v, so no slot within
    radius is missed.
    """
    radii = np.broadcast_to(radius, points.shape).tolist()
    size = max(radii, default=1.0)

    def cell(v: float) -> int:
        return math.floor(v / size)

    pts = points.tolist()
    kept: list[int] = []
    cells: dict[tuple[int, int], list[int]] = {}
    for i in np.lexsort((points.imag, points.real)).tolist():
        z = pts[i]
        near = [
            j
            for x in range(cell(z.real - size), cell(z.real + size) + 1)
            for y in range(cell(z.imag - size), cell(z.imag + size) + 1)
            for j in cells.get((x, y), ())
            if abs(z - pts[kept[j]]) < max(radii[i], radii[kept[j]])
        ]
        if near:
            j = min(near)
            if residuals[i] >= residuals[kept[j]]:
                continue
            old = pts[kept[j]]
            cells[cell(old.real), cell(old.imag)].remove(j)
            kept[j] = i
        else:
            j = len(kept)
            kept.append(i)
        cells.setdefault((cell(z.real), cell(z.imag)), []).append(j)
    return kept


def find_zeros(x: Sums, region: SearchRegion) -> ZeroSearch:
    """Zeros of the denominator of wam inside the region.

    Every grid cell (default step 0.05) where both Re f and Im f change
    sign seeds a Newton run.  Converged points are filtered to the region,
    merged within twice their Newton step |f/f'|, with |f| widened by
    _rounding (a point lies within that step of its zero), but at most half
    the grid step; the smaller residual wins.  Each is classified
    pole/removable by the relative size of the numerator.

    >>> from wamlab.arith import factor
    >>> search = find_zeros(factor(6), SearchRegion(-1.0, 1.0, 0.0, 10.0))
    >>> [round(r.location.imag, 6) for r in search.records]
    [6.821234]
    >>> search.records[0].classification.value
    'removable'
    """
    den = (sums := as_sums(x)).denominator
    if len(den.weights) < 2:
        raise ValueError("zero search requires at least two heights (m >= 2)")
    seeds = _seed_points(den, region)
    polished, converged, dropped = _newton_polish(den, seeds)

    inside = region.contains(polished, NEWTON_TOL)
    out_of_region = int(inside.size - inside.sum())
    pts = polished[inside]
    terms = den.shifted_terms(pts)[0]  # the numerator's terms too
    residuals = np.abs(_weighted_sum(terms, den.weights))
    num = np.abs(_weighted_sum(terms, sums.numerator.weights))
    removable = num < REMOVABLE_RTOL * _majorant(sums.numerator, np.abs(terms))
    slope = np.abs(_weighted_sum(terms, den.weights * den.rates))
    rounding = _rounding(den, _majorant(den, np.abs(terms)), pts)
    newton = np.divide(residuals + rounding, slope, out=np.full(pts.shape, np.inf), where=slope > 0)
    kept = _dedup(pts, residuals.tolist(), np.minimum(2 * newton, region.grid_step / 2))
    dedup_dropped = int(pts.size - len(kept))

    records = []
    for i in kept:
        cls = Classification.REMOVABLE if removable[i] else Classification.POLE
        records.append(ZeroRecord(complex(pts[i]), float(residuals[i]), float(num[i]), cls))
    # Sort on (re, im) with re rounded to 1e-6 so that vertically stacked
    # zeros (equal re up to solver noise) come out in increasing im order.
    records.sort(key=lambda r: (round(r.location.real, 6), r.location.imag))
    return ZeroSearch(
        records=tuple(records),
        seeds=int(seeds.size),
        converged=converged,
        no_convergence=dropped,
        out_of_region=out_of_region,
        deduplicated=dedup_dropped,
    )


def argument_principle_count(x: Sums, region: SearchRegion) -> int:
    """Number of zeros of f inside the rectangle, by a certified winding count.

    The count is the winding number of g(s) = e^(-cs) f(s) round the
    boundary, c the midpoint of the rates: g has the zeros of f and a
    smaller slope.  On a segment [z0, z1], |g'| is at most L, the order-1
    _majorant of each term's largest modulus on it.  Where L |z1 - z0| plus
    the _rounding slack stays below the larger of |g(z0)| and |g(z1)|, g
    keeps within a half-plane along the segment and the principal argument
    of g(z1)/g(z0) is its exact turn; every other segment is halved (X. Ying
    and I. N. Katz, Numer. Math. 53, 1988).  Segments carry g at their ends,
    so each point is evaluated once, and are tested from a stack, in blocks
    of at most _SEED_BLOCK terms.  BoundaryZero is raised where |g| is
    within rounding of 0 on the boundary, and MemoryError past
    _COUNT_MAX_SEGMENTS segments.
    """
    den = as_sums(x).denominator
    if len(den.weights) < 2:
        raise ValueError("argument principle requires at least two heights")
    g = ExpSum(den.weights, den.rates - 0.5 * (den.rates.max() + den.rates.min()))
    block = max(1, _SEED_BLOCK // (2 * g.rates.size))  # segments whose two ends have _SEED_BLOCK term moduli

    def ends(z):
        """Rows (z, g(z) in units of e^sigma, sigma) for the points z."""
        terms, sigma = g.shifted_terms(z)
        return np.stack([z, _weighted_sum(terms, g.weights), sigma], axis=1)

    box = ends(np.array([complex(region.re_min, region.im_min), complex(region.re_max, region.im_min),
                         complex(region.re_max, region.im_max), complex(region.re_min, region.im_max)]))
    stack, turn, tested = [(box, np.roll(box, -1, axis=0))], 0.0, 0
    while stack:
        a, b = stack.pop()
        if len(a) > block:
            stack.append((a[block:], b[block:]))
            a, b = a[:block], b[:block]
        tested += len(a)
        if tested > _COUNT_MAX_SEGMENTS:
            raise MemoryError(f"the winding count tests at most {_COUNT_MAX_SEGMENTS} segments")
        # Both ends in the units of the larger of their shifts; each term's
        # modulus peaks at the right end where r_k > 0, the left where r_k < 0.
        (za, ga, sa), (zb, gb, sb) = a.T, b.T
        top = np.maximum(sa.real, sb.real)
        v0, v1 = ga * np.exp(sa.real - top), gb * np.exp(sb.real - top)
        peak = np.maximum(np.multiply.outer(za.real, g.rates), np.multiply.outer(zb.real, g.rates))
        maxima = np.exp(peak - top[:, None])
        scale, slope = _majorant(g, maxima), _majorant(g, maxima, 1) * np.abs(zb - za)
        slack = _rounding(g, scale, np.maximum(np.abs(za), np.abs(zb)))
        ok = slope + slack < np.maximum(np.abs(v0), np.abs(v1))
        if np.any(stuck := ~ok & (slope <= slack)):
            i = np.argmax(stuck)
            z, share = complex(za[i] + zb[i]) / 2, slack[i] / scale[i]
            raise BoundaryZero(f"f is within rounding of 0 near s = {z} on the contour; rounding moves "
                               f"it by {share:.3g} of its term scale: jitter the rectangle if that is small")
        turn += np.angle(v1[ok] * v0[ok].conj()).sum()
        if not ok.all():
            mid = ends(0.5 * (a[~ok, 0] + b[~ok, 0]))
            stack.append((np.concatenate([a[~ok], mid]), np.concatenate([mid, b[~ok]])))
    return round(float(turn) / (2 * math.pi))


@dataclass(frozen=True)
class CriticalLineProbe:
    """min |f| along a segment of the critical line Re(s) = a_crit."""

    a_crit: float
    b_max: float
    samples: int
    min_abs: float
    argmin_b: float


def critical_line_probe(x: Sums, b_max: float, samples: int) -> CriticalLineProbe:
    """Scan |f(a_crit + ib)| for b on a uniform grid over [0, b_max].

    `samples` counts grid intervals, so the b spacing is b_max/samples and
    the minimum is taken over samples+1 points; doubling `samples` (or
    extending b_max at fixed spacing) refines to a superset grid, and every
    sample is judged by its pointwise value (`ExpSum.__call__`, whose bits do
    not depend on the batch), so the minimum is monotone under refinement.
    Ties go to the smallest b.  Requires m >= 3 (at m = 2 every zero of f
    lies on the line).  More than 2^32 samples raise MemoryError, and an
    a_crit at which sum_k W_k h_k^a overflows a double raises ValueError,
    before any sample is taken.

    The scan runs in blocks of at most 2^16 samples, each one product of
    the weighted terms of every K-th sample and the shifted terms of the
    offsets.  |f| has slope at most L, the order-1 _majorant on the line, so
    between tabled samples i < j it stays above
    (|f_i| + |f_j| - L (j - i) step) / 2.  The samples inside are tabled only
    where that bound, less the _rounding slack at b, does not exceed the
    least value seen.  K is _PROBE_STRIDE, so every interval has the same
    length, and a tail of k < K samples uses the first k - 1 offsets; K = 1
    would be the exhaustive scan.  Every tabled sample that kernel rounding
    could make the minimum is evaluated pointwise, in one call per block, so
    the result does not depend on the blocks, on K or on the BLAS kernel.
    """
    den = (sums := as_sums(x)).denominator
    if den.rates.size < 3:
        raise ValueError("the critical-line probe requires m >= 3")
    if not 0 < b_max < math.inf:
        raise ValueError(f"b_max must be positive and finite, got {b_max}")
    if samples < 1:
        raise ValueError("samples must be positive")
    if not samples <= _PROBE_MAX_SAMPLES:
        raise MemoryError("the critical-line probe takes at most 2^32 samples")
    a = critical_abscissa(sums).a_crit
    step = b_max / samples
    terms, sigma = den.shifted_terms(a)
    scale = _majorant(den, terms)  # in the kernel's units
    if not sigma + math.log(scale) < math.log(np.finfo(float).max):  # |f| <= scale e^sigma
        raise ValueError(f"a_crit = {a!r} is too large: |f| on the critical line overflows")
    lip = _majorant(den, terms, 1)
    unit = math.exp(-sigma)  # from |f| to the kernel's units
    best, best_k, lo = math.inf, 0, 0
    shifts = np.exp(np.multiply.outer(den.rates, 1j * step * np.arange(1, _PROBE_STRIDE)))
    while lo < samples:
        k = min(_PROBE_STRIDE, samples - lo)
        n = min(_PROBE_BLOCK // k, (samples - lo) // k)  # intervals of k samples
        width = math.isqrt(n) + 1
        heads = lo + k * width * np.arange(-(-(n + 1) // width))
        u_terms = den.shifted_terms(1j * step * heads)[0] * den.weights  # sigma = 0 there
        v_terms = den.shifted_terms(a + 1j * step * k * np.arange(width))[0]
        coarse = np.abs(_serial_product(u_terms, v_terms.T)).ravel()[: n + 1]
        # Kernel and pointwise values differ by at most slack / 2; `least`
        # bounds the pointwise minimum from above, in the kernel's units.
        slack = _rounding(den, scale, step * (lo + k * n))
        least = min(best * unit, coarse.min() + slack / 2)
        bound = 0.5 * (coarse[:-1] + coarse[1:] - lip * k * step)
        live = np.flatnonzero(bound - slack <= least)
        fine, fine_min = None, math.inf
        if live.size and k > 1:
            row, col = np.divmod(live, width)
            left = np.take(u_terms, row, axis=0) * np.take(v_terms, col, axis=0)
            fine = np.abs(_serial_product(left, shifts[:, : k - 1]))  # fine[i, d - 1]: sample k live[i] + d
            fine_min = fine.min()
        cut = min(least, fine_min + slack / 2) + slack / 2
        ks = k * np.flatnonzero(coarse <= cut)
        if fine_min <= cut:
            i, d = np.nonzero(fine <= cut)
            # No fine sample is a multiple of k, so the two sorted sets are
            # disjoint and one sort merges them (np.union1d imports numpy.ma).
            ks = np.sort(np.concatenate([ks, k * live[i] + d + 1]))
        if ks.size:
            values = np.abs(den(a + 1j * step * (lo + ks)))
            j = int(np.argmin(values))  # ks is sorted: ties go to the smallest b
            if values[j] < best:
                best, best_k = float(values[j]), lo + int(ks[j])
        lo += k * n
    return CriticalLineProbe(a, b_max, samples, best, step * best_k)
