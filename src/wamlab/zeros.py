"""Zero location for wam denominators f(s) = sum_k (ln p_k)^s.

Zeros of f are the candidate poles of wam.  A zero is an actual pole
unless the numerator vanishes there too, which happens identically (for
every zero at once) exactly when all exponents are equal.  The search is
grid-seeded Newton iteration; an argument-principle contour count over
the same rectangle serves as an independent cross-check, and a direct
scan along the vertical line Re(s) = a_crit probes how close f comes to
vanishing near its critical abscissa.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .arith import Factorization
from .critical import critical_abscissa
from .wamcore import ExpSum, _serial_product, integer_wam_sums

#: |N(s)| below this multiple of sum e_k |(ln p_k)^s| marks a removable zero.
REMOVABLE_RTOL = 1e-8
#: |f| below this multiple of its term scale is unsafe for contour quadrature.
BOUNDARY_RTOL = 1e-12
_GL_NODES_PER_PANEL = 64
_MAX_PANELS_PER_EDGE = 64
#: Seed-grid points evaluated per band, and the widest row (two rows per band).
_SEED_BLOCK = 1 << 20
_SEED_ROW_MAX = _SEED_BLOCK // 2
#: Newton stops at |f(z)| < NEWTON_TOL, with |f| in units of the largest
#: term modulus max_k |(ln p_k)^z|, as are all magnitudes the search reports.
NEWTON_TOL = 1e-10
MAX_NEWTON_ITERS = 40
#: Most samples critical_line_probe takes: about 50 s, since 2e8 samples take
#: 2.4 s at m = 6 (2-vCPU x86-64).
_PROBE_MAX_SAMPLES = 1 << 32


class BoundaryZero(RuntimeError):
    """A contour node sits too close to a zero of f for safe quadrature."""


class QuadratureNoConvergence(RuntimeError):
    """The contour integral did not settle on an integer within budget."""


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

    def contains(self, z: complex, slack: float = 0.0) -> bool:
        return (
            self.re_min - slack <= z.real <= self.re_max + slack
            and self.im_min - slack <= z.imag <= self.im_max + slack
        )


@dataclass(frozen=True)
class ZeroRecord:
    """One polished zero of f with its pole-vs-removable classification;
    residual |f| and numerator_magnitude |N| are in units of max_k |(ln p_k)^s|."""

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
        raise MemoryError(f"grid step {step} puts {span + 1:.4g} points on "
                          f"[{lo}, {hi}]; at most {most} fit the memory budget")
    return int(span) + 1


def _seed_points(den: ExpSum, region: SearchRegion) -> np.ndarray:
    """Centers of grid cells where Re f and Im f both change sign.

    The grid is evaluated, and its im axis built, in bands of at most
    _SEED_BLOCK points; each band starts on the last row of the one before,
    so no cell loses a corner.  Rows wider than _SEED_ROW_MAX are refused.
    """
    step = region.grid_step
    n_re = _axis_size(region.re_min, region.re_max, step, _SEED_ROW_MAX)
    n_im = _axis_size(region.im_min, region.im_max, step, math.inf)
    if n_re < 2 or n_im < 2:
        raise ValueError("region is smaller than one grid cell")
    re = region.re_min + step * np.arange(n_re)

    def _mixed(positive):
        sign = np.where(positive, np.int8(1), np.int8(-1))
        corners = sign[:-1, :-1] + sign[:-1, 1:] + sign[1:, :-1] + sign[1:, 1:]
        return np.abs(corners) < 4

    rows = max(2, _SEED_BLOCK // n_re)
    ii, jj = [], []
    for lo in range(0, n_im - 1, rows - 1):
        im = region.im_min + step * np.arange(lo, min(lo + rows, n_im))
        vals = den.outer(1j * im, re)
        i, j = np.nonzero(_mixed(vals.real >= 0) & _mixed(vals.imag >= 0))
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
        fz = _serial_product(terms, den.weights)
        if it:
            small = np.abs(fz) < NEWTON_TOL
            active[idx[small]] = False
            idx, terms, fz = idx[~small], terms[~small], fz[~small]
        if it == MAX_NEWTON_ITERS or not idx.size:
            break
        dfz = _serial_product(terms, slopes)
        z[idx] -= np.divide(fz, dfz, out=np.zeros_like(fz), where=np.abs(dfz) > 1e-300)
    converged = ~active
    return z[converged], int(converged.sum()), int(active.sum())


def _dedup(points: np.ndarray, residuals, radius: float) -> list[int]:
    """Greedy clustering: within radius, keep the smaller residual.

    Points are visited in (re, im) order.  Each merges into the first kept
    slot whose point lies within radius, and replaces that point when its
    residual is smaller; otherwise it opens a new slot.  Slots sit in grid
    cells of size radius, so a point meets only the slots in the cells
    spanned by re +- radius and im +- radius.  floor(v / radius) is monotone
    in v, so no slot within radius is missed.
    """

    def cell(v: float) -> int:
        return math.floor(v / radius)

    pts = points.tolist()
    kept: list[int] = []
    cells: dict[tuple[int, int], list[int]] = {}
    for i in np.lexsort((points.imag, points.real)).tolist():
        z = pts[i]
        near = [
            j
            for x in range(cell(z.real - radius), cell(z.real + radius) + 1)
            for y in range(cell(z.imag - radius), cell(z.imag + radius) + 1)
            for j in cells.get((x, y), ())
            if abs(z - pts[kept[j]]) < radius
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


def find_zeros(f: Factorization, region: SearchRegion) -> ZeroSearch:
    """Zeros of the denominator of wam(n, s) inside the region.

    Every grid cell (default step 0.05) where both Re f and Im f change
    sign seeds a Newton run; converged points are filtered to the region,
    deduplicated within 10x NEWTON_TOL (smaller residual wins), and
    classified pole/removable by the relative size of the numerator.

    >>> from wamlab.arith import factor
    >>> search = find_zeros(factor(6), SearchRegion(-1.0, 1.0, 0.0, 10.0))
    >>> [round(r.location.imag, 6) for r in search.records]
    [6.821234]
    >>> search.records[0].classification.value
    'removable'
    """
    sums = integer_wam_sums(f)
    if len(sums.denominator.weights) < 2:
        raise ValueError("zero search requires at least two factors (m >= 2)")
    den = sums.denominator
    seeds = _seed_points(den, region)
    polished, converged, dropped = _newton_polish(den, seeds)

    inside = np.array([region.contains(z, NEWTON_TOL) for z in polished], dtype=bool)
    out_of_region = int(inside.size - inside.sum())
    pts = polished[inside]
    terms = den.shifted_terms(pts)[0]  # the numerator's terms too
    residuals = np.abs(_serial_product(terms, den.weights)).tolist()
    num = np.abs(_serial_product(terms, sums.numerator.weights))
    removable = num < REMOVABLE_RTOL * _serial_product(np.abs(terms), sums.numerator.weights)

    kept = _dedup(pts, residuals, 10.0 * NEWTON_TOL)
    dedup_dropped = int(pts.size - len(kept))

    records = []
    for i in kept:
        cls = Classification.REMOVABLE if removable[i] else Classification.POLE
        records.append(ZeroRecord(complex(pts[i]), residuals[i], float(num[i]), cls))
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


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The panel rule on [-1, 1], computed once per process, on first use."""
    return np.polynomial.legendre.leggauss(_GL_NODES_PER_PANEL)


def _edge_nodes(z0: complex, z1: complex, panels: int):
    """Gauss-Legendre nodes and weights on [z0, z1], composite in panels."""
    x, w = _gauss_legendre()
    starts = np.arange(panels) / panels
    t = (starts[:, None] + (x[None, :] + 1.0) / (2.0 * panels)).ravel()
    dz = z1 - z0
    nodes = z0 + t * dz
    weights = np.tile(w, panels) * (dz / (2.0 * panels))
    return nodes, weights


def _contour_integral(den: ExpSum, region: SearchRegion, panels: int) -> complex:
    corners = [
        complex(region.re_min, region.im_min),
        complex(region.re_max, region.im_min),
        complex(region.re_max, region.im_max),
        complex(region.re_min, region.im_max),
    ]
    slopes = den.weights * den.rates
    total = 0.0 + 0.0j
    for a, b in zip(corners, corners[1:] + corners[:1]):
        nodes, weights = _edge_nodes(a, b, panels)
        terms = den.shifted_terms(nodes)[0]
        fz = _serial_product(terms, den.weights)
        floor = BOUNDARY_RTOL * _serial_product(np.abs(terms), np.abs(den.weights))
        if np.any(np.abs(fz) < floor):
            raise BoundaryZero(
                "denominator vanishes on the contour; jitter the rectangle"
            )
        total += np.sum(weights * _serial_product(terms, slopes) / fz)
    return total / (2j * math.pi)


def argument_principle_count(f: Factorization, region: SearchRegion) -> int:
    """Number of zeros of f inside the rectangle, by contour integration.

    (1/2 pi i) times the integral of f'/f over the boundary, evaluated by
    composite Gauss-Legendre quadrature (64 nodes per panel) with the
    panel count doubled until the rounded value is stable.
    """
    den = integer_wam_sums(f).denominator
    if len(den.weights) < 2:
        raise ValueError("argument principle requires at least two factors")
    previous = None
    panels = 1
    while panels <= _MAX_PANELS_PER_EDGE:
        value = _contour_integral(den, region, panels)
        snapped = int(round(value.real))
        if (
            previous == snapped
            and abs(value.real - snapped) < 0.25
            and abs(value.imag) < 0.25
        ):
            if snapped < 0:
                raise QuadratureNoConvergence(
                    f"contour count converged to {snapped} < 0"
                )
            return snapped
        previous = snapped
        panels *= 2
    raise QuadratureNoConvergence(
        f"contour integral unstable after {_MAX_PANELS_PER_EDGE} panels/edge"
    )


@dataclass(frozen=True)
class CriticalLineProbe:
    """min |f| along a segment of the critical line Re(s) = a_crit."""

    a_crit: float
    b_max: float
    samples: int
    min_abs: float
    argmin_b: float


def critical_line_probe(
    f: Factorization, b_max: float, samples: int
) -> CriticalLineProbe:
    """Scan |f(a_crit + ib)| for b on a uniform grid over [0, b_max].

    `samples` counts grid intervals, so the b spacing is b_max/samples and
    samples+1 points are evaluated; doubling `samples` (or extending b_max
    at fixed spacing) refines to a superset grid, and every sample is judged
    by its pointwise value, which is what makes the reported minimum
    monotone under refinement.  Requires m >= 3, where
    denominator zeros genuinely are poles of a nonconstant wam.  More than
    2^32 samples raise MemoryError, and an a_crit at which sum_k (ln p_k)^a
    overflows a double raises ValueError, before any sample is taken.
    """
    if len(f.primes) < 3:
        raise ValueError("the critical-line probe requires m >= 3")
    if not 0 < b_max < math.inf:
        raise ValueError(f"b_max must be positive and finite, got {b_max}")
    if samples < 1:
        raise ValueError("samples must be positive")
    if not samples <= _PROBE_MAX_SAMPLES:
        raise MemoryError("the critical-line probe takes at most 2^32 samples")
    a = critical_abscissa(f).a_crit
    den = integer_wam_sums(f).denominator
    step = b_max / samples
    terms, sigma = den.shifted_terms(a)
    scale = terms @ np.abs(den.weights)  # in the kernel's units
    if not sigma + math.log(scale) < math.log(np.finfo(float).max):  # |f| <= scale e^sigma
        raise ValueError(f"a_crit = {a!r} is too large: |f| on the critical line overflows")
    rmax, floor = np.abs(den.rates).max(), 8 * np.finfo(float).eps * scale
    best, best_b = math.inf, 0.0
    chunk = 1 << 20
    for start in range(0, samples + 1, chunk):
        n = min(chunk, samples + 1 - start)
        block = math.isqrt(n - 1) + 1
        heads = start + block * np.arange(-(-n // block))
        vals = np.abs(den.outer(1j * step * heads, a + 1j * step * np.arange(block)))
        vals = vals.ravel()[:n]
        # Kernel and pointwise values differ by the rounding of the phases
        # r_k b and of the sum; every sample that rounding could make the
        # minimum is re-evaluated pointwise, so the result is the pointwise
        # minimum whatever the blocks.
        slack = floor * (rmax * step * (start + n) + den.rates.size)
        ks = start + np.flatnonzero(vals <= vals.min() + slack)
        exact = np.abs(den(a + 1j * step * ks))
        i = int(np.argmin(exact))
        if exact[i] < best:
            best, best_b = float(exact[i]), float(step * ks[i])
    return CriticalLineProbe(a, b_max, samples, best, best_b)
