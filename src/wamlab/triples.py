"""ABC triples over the integers and their wam statistics.

An ABC triple is a coprime pair a + b = c (canonicalized to a <= b); its
quality is ln c / ln rad(abc), so quality > 1 means c beats the radical.
The module validates and streams triples from "a b c" text files,
enumerates all triples up to a ceiling, histograms e_m of a*b*c, and
rasterizes max |wam(abc, s)| grids over rectangles of the s-plane.
"""

from __future__ import annotations

import functools
import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .arith import MAX_VALUE, Factorization, _primes_upto, factor
from .wamcore import MERSENNE_N_MAX, ExpSum, _serial_product, integer_wam_sums
from .zeros import SearchRegion, _axis_size

DEFAULT_HEATMAP_CAP = 1e6
#: Most cells a heatmap may have.  Its [Re; Im] table, group maximum and running
#: maximum take 32 bytes per computed cell, so a heatmap at the cap peaks 128 MB
#: above the interpreter (VmHWM), or 96 MB when mirrored rows halve them.
_HEATMAP_MAX_CELLS = 1 << 22
GENERATE_C_MAX_LIMIT = 10**7
#: Most triples generate_triples may keep.  A kept triple takes about 0.7 KB,
#: so a result at the cap holds about 0.7 GB; low qualities reach it first
#: (q <= 1/3 keeps every coprime pair: 608,294 of them up to c = 2000).
_GENERATE_MAX_TRIPLES = 1 << 20
#: Relative slack for the vectorized quality prefilter; survivors are
#: re-tested exactly before being kept.
_PREFILTER_SLACK = 1e-9
#: Candidates (a, c) that generate_triples prefilters per vectorized pass;
#: bounds its temporaries while amortizing numpy call overhead.
_CANDIDATE_BLOCK = 1 << 13
#: c values whose root budgets and prefix lengths generate_triples computes
#: at once, so no temporary spans the whole range of c.
_C_BLOCK = 1 << 16


class NotATriple(ValueError):
    """a + b != c (or a nonpositive entry)."""


class NotCoprime(ValueError):
    """The triple shares a common factor."""


@dataclass(frozen=True)
class AbcTriple:
    """A validated ABC triple with its abc factorization cached."""

    a: int
    b: int
    c: int
    abc_factorization: Factorization
    quality: float
    e_m: int

    def __str__(self) -> str:
        return f"{self.a} {self.b} {self.c}"


def validate_triple(a: int, b: int, c: int) -> AbcTriple:
    """Validate and canonicalize (a, b, c); factor a*b*c along the way.

    a, b and c are factored at factor's default budget; a cofactor that
    resists it raises FactorizationBudgetExceeded.

    >>> t = validate_triple(8, 1, 9)
    >>> (t.a, t.b, t.e_m, round(t.quality, 5))
    (1, 8, 2, 1.22629)
    """
    if min(a, b, c) < 1:
        raise NotATriple(f"entries must be positive, got {(a, b, c)}")
    if a > b:
        a, b = b, a
    if a + b != c:
        raise NotATriple(f"{a} + {b} != {c}")
    if math.gcd(a, b) != 1:  # with a + b = c this covers all three pairs
        raise NotCoprime(f"gcd({a}, {b}) = {math.gcd(a, b)} > 1")
    if a * b * c >= MAX_VALUE:
        raise ValueError("product exceeds 2^127")
    # a, b and c are pairwise coprime, so their prime powers merge as they are.
    pairs = sorted(pair for x in (a, b, c) if x > 1 for pair in factor(x).pairs())
    primes, exponents = zip(*pairs)
    f = Factorization(a * b * c, primes, exponents)
    quality = math.log(c) / sum(math.log(p) for p in primes)
    return AbcTriple(a, b, c, f, quality, exponents[-1])


@dataclass(frozen=True)
class ParseIssue:
    """A rejected dataset line: its number, raw text, and the reason."""

    line_number: int
    text: str
    message: str


class DatasetParse:
    """Single-pass iterator over the triples of an "a b c" text file.

    Lines hold three whitespace-separated integers; '#' starts a comment
    and blank lines are skipped.  Malformed or invalid lines never stop
    the stream: they are collected (with line numbers) in `issues`, which
    is complete once iteration finishes.  I/O errors do abort.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = path
        self.issues: list[ParseIssue] = []

    def __iter__(self) -> Iterator[AbcTriple]:
        with open(self.path, "r", encoding="ascii") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                fields = line.split()
                if len(fields) != 3:
                    self.issues.append(
                        ParseIssue(lineno, raw.rstrip("\n"), "expected 3 fields")
                    )
                    continue
                try:
                    a, b, c = (int(x) for x in fields)
                except ValueError:
                    self.issues.append(
                        ParseIssue(lineno, raw.rstrip("\n"), "non-integer field")
                    )
                    continue
                try:
                    yield validate_triple(a, b, c)
                except ValueError as exc:
                    self.issues.append(
                        ParseIssue(lineno, raw.rstrip("\n"), str(exc))
                    )


def _radical_sieve(limit: int) -> np.ndarray:
    """rad(x) for x in [0, limit] (rad(0) := 1), as int32: the primes up to
    sqrt(limit) are sieved and divided out, and the cofactor left, 1 or the
    one prime factor above sqrt(limit), is multiplied in."""
    rad = np.ones(limit + 1, dtype=np.int32)
    rest = np.arange(limit + 1, dtype=np.int32)
    rest[0] = 1
    for p in _primes_upto(math.isqrt(limit)):
        rad[p::p] *= p
        q = p
        while q <= limit:
            rest[q::q] //= p
            q *= p
    rad *= rest
    return rad


def generate_triples(c_max: int, min_quality: float = 1.0) -> list[AbcTriple]:
    """All ABC triples with c <= c_max and quality >= min_quality.

    Sorted by descending quality (ties by ascending c then a).  A sieve
    supplies radicals.  Quality >= q forces rad(a) rad(b) <= B(c) =
    c^(1/q) / rad(c), so min(rad a, rad b) is at most the root budget
    sqrt(B(c)).  For each c only the x < c with rad(x) within the root
    budget are scanned (a prefix of 1..c_max sorted by radical), and
    a = min(x, c - x).  Each pair is counted once: at its smaller member,
    or at its only member within the root budget.  The root budget is
    capped at c // 2, since a <= c // 2 gives rad(a) <= c // 2; for q <= 0
    that cap is the budget, and every coprime pair is scanned.  Candidates
    of many c are prefiltered together by approximate quality, and
    survivors are validated exactly.  Radicals and indices are int32 and
    the scan runs on blocks of c: about 0.7 s and 49 MB peak RSS at
    c_max = 10^6, and 10.4 s and 182 MB at 10^7 (2-vCPU x86-64, q = 1).

    MemoryError is raised, before any candidate is validated, if more than
    _GENERATE_MAX_TRIPLES survive the prefilter.  The last
    result is cached, so a second call with the same arguments returns a
    new list of the same triples without generating them again.
    """
    return list(_generate(c_max, min_quality))


@functools.lru_cache(maxsize=1)
def _generate(c_max: int, min_quality: float) -> tuple[AbcTriple, ...]:
    if not 2 <= c_max <= GENERATE_C_MAX_LIMIT:
        raise ValueError(f"c_max must lie in [2, {GENERATE_C_MAX_LIMIT}]")
    if math.isnan(min_quality):
        raise ValueError("min_quality must be a number, got nan")
    rad = _radical_sieve(c_max)
    by_rad = np.argsort(rad[1:], kind="stable").astype(np.int32) + 1
    sorted_rad = rad[by_rad]
    inv_q = 1.0 / min_quality if min_quality > 0 else math.inf
    pairs, survivors = [], 0  # coprime prefilter survivors (a, c), validated after the scan
    for c_lo in range(2, c_max + 1, _C_BLOCK):
        cs = np.arange(c_lo, min(c_lo + _C_BLOCK, c_max + 1), dtype=np.int32)
        # The slack only widens the scan; validate_triple stays the exact gate.
        # Every pair has a member a <= c // 2, and rad(a) <= a, so a larger
        # root adds nothing.  Radicals are integers, so the root is floored.
        with np.errstate(over="ignore"):
            budget = np.power(cs.astype(float), inv_q) / rad[cs]
            root = np.sqrt(budget * (1 + _PREFILTER_SLACK))
        root = np.minimum(root, cs // 2).astype(np.int32)
        lengths = np.searchsorted(sorted_rad, root, side="right")
        ends = np.cumsum(lengths)
        lo = 0
        while lo < cs.size:
            first = ends[lo] - lengths[lo]
            hi = max(lo + 1, int(np.searchsorted(ends, first + _CANDIDATE_BLOCK, "right")))
            k = lengths[lo:hi]
            c = np.repeat(cs[lo:hi], k)
            x = by_rad[np.arange(c.size) - np.repeat(ends[lo:hi] - k - first, k)]
            y = c - x
            # Keep each pair once: at its smaller member, or at its only member
            # within the root budget (then the other is never scanned).  x = y
            # happens only for (1, 1, 2).
            alone = rad[np.maximum(y, 0)] > np.repeat(root[lo:hi], k)
            keep = (y > 0) & ((x <= y) | alone)
            a, c = np.minimum(x, y)[keep], c[keep]
            b = c - a
            # quality ~= ln c / ln(rad(a) rad(b) rad(c)); exact for (1,1,2).
            log_radprod = np.log(rad[a]) + np.log(rad[b]) + np.log(rad[c])
            passing = np.log(c) >= (min_quality - _PREFILTER_SLACK) * log_radprod
            a, c = a[passing], c[passing]
            coprime = np.gcd(a, c) == 1
            survivors += np.count_nonzero(coprime)
            if survivors > _GENERATE_MAX_TRIPLES:
                raise MemoryError(
                    f"generation would keep over {_GENERATE_MAX_TRIPLES} triples; "
                    "raise the minimum quality or lower c_max"
                )
            pairs.append((a[coprime], c[coprime]))
            lo = hi
    found = [
        t
        for a, c in pairs
        for ai, ci in zip(a.tolist(), c.tolist())
        if (t := validate_triple(ai, ci - ai, ci)).quality >= min_quality
    ]
    found.sort(key=lambda t: (-t.quality, t.c, t.a))
    return tuple(found)


def em_histogram(triples: Iterable[AbcTriple]) -> dict[int, int]:
    """Counts of the top multiplicity e_m of abc across the triples."""
    return dict(sorted(Counter(t.e_m for t in triples).items()))


def _symmetric_axis(lo: float, hi: float, step: float, n: int) -> np.ndarray:
    """Uniform grid of n points on [lo, hi], symmetric about the midpoint.

    Using integer indices around the exact center makes the axis (and any
    grid built on it) bit-exactly symmetric under reflection, so conjugate
    symmetry of |wam| survives in floating point.
    """
    center = 0.5 * (lo + hi)
    idx = np.arange(n) - 0.5 * (n - 1)
    return center + step * idx


@dataclass(frozen=True)
class HeatmapGrid:
    """log10 of capped max |wam(abc, s)| over a triple set, on a grid.

    cells[i, j] corresponds to s = re_axis[j] + 1j * im_axis[i].  The first
    `mirrored` rows are copies of the last `mirrored` rows in reverse order
    (the conjugate half of an im axis symmetric about 0).
    """

    re_axis: np.ndarray
    im_axis: np.ndarray
    cells: np.ndarray
    cap: float
    mirrored: int = 0


def max_wam_heatmap(
    triples: Sequence[AbcTriple],
    region: SearchRegion,
    cap: float = DEFAULT_HEATMAP_CAP,
) -> HeatmapGrid:
    """Rasterize log10(max over triples of |wam(abc, s)|), capped.

    Cells at poles (or anywhere the ratio exceeds the cap) saturate at
    exactly log10(cap); the cap is recorded on the grid.  Triples are
    grouped by denominator sum (abc with the same primes share one).  A
    group takes one ExpSum.grid_factors, one product for |D|^2 = Re D^2 +
    Im D^2 and one per triple for |N|^2, all into one table, and divides
    its largest |N|^2 by |D|^2 once: division is monotone, so that is the
    largest ratio bit for bit.  Its square root is the only modulus taken.
    |wam| is conjugate symmetric, so when the im axis is symmetric about 0
    only the rows with im >= 0 are computed and the rest mirror them.  Over
    _HEATMAP_MAX_CELLS cells, MemoryError is raised before any axis is built.
    """
    if not triples:
        raise ValueError("heatmap needs at least one triple")
    if not 0 < cap < math.inf:
        raise ValueError(f"cap must be positive and finite, got {cap}")
    step = region.grid_step
    n_re = _axis_size(region.re_min, region.re_max, step, _HEATMAP_MAX_CELLS)
    n_im = _axis_size(region.im_min, region.im_max, step, _HEATMAP_MAX_CELLS // n_re)
    re_axis = _symmetric_axis(region.re_min, region.re_max, step, n_re)
    im_axis = _symmetric_axis(region.im_min, region.im_max, step, n_im)
    half = im_axis.size // 2 if np.all(im_axis + im_axis[::-1] == 0.0) else 0
    ims, rows = im_axis[half:], im_axis.size - half
    groups: dict[bytes, tuple[ExpSum, list[ExpSum]]] = {}
    for t in triples:
        sums = integer_wam_sums(t.abc_factorization)  # both sums on the same rates
        den = sums.denominator
        key = den.rates.tobytes() + den.weights.tobytes()
        groups.setdefault(key, (den, []))[1].append(sums.numerator)
    table = np.empty((2 * rows, re_axis.size))
    best, top = np.zeros((2, rows, re_axis.size))

    def squared_modulus(f: ExpSum, factors, out: np.ndarray) -> np.ndarray:
        _serial_product(factors[0] * f.weights, factors[1], out=table)
        np.square(table, out=table)
        return np.add(table[:rows], table[rows:], out=out)

    # 0/0 and x/0 ratios are NaN and inf, np.maximum keeps both, and the last
    # fmin takes cap over a NaN.  A squared ratio overflows past 1.3e154, far
    # beyond the rounding of |D|, so such a cell reads the cap too.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for den, (first, *rest) in groups.values():
            factors = den.grid_factors(ims, re_axis)
            squared_modulus(first, factors, top)
            for f in rest:
                np.maximum(top, squared_modulus(f, factors, table[:rows]), out=top)
            np.divide(top, squared_modulus(den, factors, table[:rows]), out=top)
            np.maximum(best, top, out=best)
        np.sqrt(best, out=best)
        np.fmin(best, cap, out=best)
    np.log10(np.maximum(best, 1e-300, out=best), out=best)
    cells = np.concatenate([best[::-1][:half], best]) if half else best
    return HeatmapGrid(re_axis, im_axis, cells, cap, half)


def mersenne_family(n_max: int) -> tuple[AbcTriple, ...]:
    """The triples (1, 2^n - 1, 2^n) for n in [2, n_max], each validated.

    n_max lies in [2, MERSENNE_N_MAX], so the family has n_max - 1
    triples, in increasing n.
    """
    if not 2 <= n_max <= MERSENNE_N_MAX:
        raise ValueError(f"n_max must lie in [2, {MERSENNE_N_MAX}], got {n_max}")
    return tuple(validate_triple(1, 2**n - 1, 2**n) for n in range(2, n_max + 1))
