"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
on passing checks too.  Check 1 compares the critical abscissa of six
sample ABC products with targets taken from an independent oracle: the
root of sum_{k<m} (ln p_k / ln p_m)^a = 1 for sympy's factorization,
solved with mpmath at 40 digits and rounded to 6 decimals.  The targets
first stated for these triples sit 0.015-0.121 to the left of that root,
and five of them have a genuine pole of wam to their right, so they cannot
be the holomorphy boundary; `test_stated_targets_lie_left_of_poles` keeps
those five poles as evidence.
"""

import math
import random
import time

import numpy as np
import pytest

from conftest import SMALL_PRIMES, random_poly_triple
from wamlab.arith import factor, radical
from wamlab.critical import critical_abscissa, wam_upper
from wamlab.ffpoly import (
    cyclotomic_wam_formula,
    is_irreducible,
    mason_stothers_check,
    pigeonhole_triple,
    poly_wam,
    validate_poly_triple,
)
from wamlab.triples import generate_triples, max_wam_heatmap
from wamlab.wamcore import (
    mersenne_lower_bound_check,
    wam,
    wam_at,
)
from wamlab.zeros import (
    BoundaryZero,
    SearchRegion,
    argument_principle_count,
    find_zeros,
)


def verdict(number, ok, detail):
    line = f"CRITERION {number:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# Sample triples with target abscissas and target top primes.  The first
# triple is stated elsewhere with middle digits transposed (1, 1484734,
# 1484735); those digits factor with top prime 742367, contradicting the
# stated p_m = 61, while (1, 1484374, 1484375) = (1, 2*23^3*61, 5^7*19)
# matches it exactly, so the transposition is corrected here.
#
# Each target is the mpmath oracle root (40 digits, sympy factorization)
# rounded to 6 decimals.  The trailing comment keeps the target stated
# with the triple; POLE_WITNESSES below shows why those values are wrong.
SAMPLE_TRIPLES = [
    ((1, 1484374, 1484375), 2.631112, 61),  # stated 2.61
    ((1960, 59049, 61009), 3.535544, 19),  # stated 3.48
    ((78, 9765547, 9765625), 5.940793, 29),  # stated 5.82
    ((4782969, 41354375, 46137344), 1.729836, 521),  # stated 1.70
    ((537824, 134906067, 135443891), 2.558913, 113),  # stated 2.45
    ((13573088, 349609375, 363182463), 6.285312, 179),  # stated 6.27
]
ABSCISSA_TOL = 1e-6

# A pole of wam to the right of the stated target, for each of the six
# triples: (c, stated target, pole as printed by the search).  The first
# five were found by find_zeros on the strip [stated - 0.1, a_crit + 0.1]
# x [0, 2e4].  For c = 363182463 (stated 6.27) none turned up below Im
# 2e4; its witness was polished from a_crit - 0.01 + 33261.4i, where
# `critical-line --bmax 1e5 --samples 1000000` puts the minimum of |f|.
POLE_WITNESSES = [
    (1484375, 2.61, complex(2.620906956, 11494.47251185)),
    (61009, 3.48, complex(3.483711676, 296.1086285136)),
    (9765625, 5.82, complex(5.881314926, 16517.31204254)),
    (46137344, 1.70, complex(1.724814929, 19005.27645733)),
    (135443891, 2.45, complex(2.524601856, 11825.00148990)),
    (363182463, 6.27, complex(6.275788940392628, 33261.39684439615)),
]


def test_criterion_01_sample_triple_abscissas():
    start = time.perf_counter()
    rows = []
    failures = []
    for (a, b, c), target, top_prime in SAMPLE_TRIPLES:
        f = factor(a * b * c)
        computed = critical_abscissa(f).a_crit
        delta = computed - target
        rows.append(f"({a},{b},{c}): a_crit {computed:.7f} vs {target} "
                    f"(delta {delta:+.1e}), p_m {f.primes[-1]} vs {top_prime}")
        if abs(delta) > ABSCISSA_TOL:
            failures.append(f"abscissa off by {delta:+.1e} for c={c}")
        if f.primes[-1] != top_prime:
            failures.append(f"top prime {f.primes[-1]} != {top_prime} for c={c}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s (limit 10s)")
    detail = f"{len(SAMPLE_TRIPLES) - sum('abscissa' in x for x in failures)}/6 " \
             f"abscissas within {ABSCISSA_TOL:g} of the oracle, all top primes " \
             f"exact; " + "; ".join(rows)
    verdict(1, not failures, detail)


def test_stated_targets_lie_left_of_poles():
    """Each witness polishes to a true pole strictly between stated and a_crit.

    The check is independent of wamlab: sympy factors the product and
    mpmath polishes the denominator root at 40 digits.  A pole at
    Re s > stated target shows that wam is not holomorphic right of it.
    """
    mpmath = pytest.importorskip("mpmath")
    sympy = pytest.importorskip("sympy")
    products = {c: (a * b * c, target) for (a, b, c), target, _ in SAMPLE_TRIPLES}
    for c, stated, start in POLE_WITNESSES:
        n, a_crit = products[c]
        pairs = sorted(sympy.factorint(n).items())
        with mpmath.workdps(40):
            rates = [mpmath.log(mpmath.log(p)) for p, _ in pairs]

            def den(s):
                return mpmath.fsum(mpmath.exp(r * s) for r in rates)

            z = mpmath.findroot(den, mpmath.mpc(start.real, start.imag))
            scale = mpmath.fsum(abs(mpmath.exp(r * z)) for r in rates)
            num = mpmath.fsum(e * mpmath.exp(r * z) for (_, e), r in zip(pairs, rates))
            den_residual = float(abs(den(z)) / scale)
            num_size = float(abs(num) / scale)
        where = f"c={c}: pole {complex(z)}"
        assert abs(complex(z) - start) < 1e-6, f"{where} drifted from {start}"
        assert den_residual < 1e-20, f"{where}: |den|/scale {den_residual:.1e}"
        assert stated < z.real < a_crit, f"{where} not in ({stated}, {a_crit})"
        assert num_size > 1e-3, f"{where}: |num|/scale {num_size:.1e}, removable"


def test_criterion_02_two_prime_zero_oracle():
    start = time.perf_counter()
    gap = math.log(math.log(3) / math.log(2))
    expected = []
    k = 0
    while math.pi * (2 * k + 1) / gap <= 50.0:
        expected.append(complex(0.0, math.pi * (2 * k + 1) / gap))
        k += 1
    search = find_zeros(factor(6), SearchRegion(-1.0, 1.0, 0.0, 50.0))
    elapsed = time.perf_counter() - start
    ok = len(search.records) == len(expected)
    worst = 0.0
    if ok:
        worst = max(
            abs(r.location - z) for r, z in zip(search.records, expected)
        )
        ok = worst < 1e-8 and elapsed < 1.0
    verdict(
        2,
        ok,
        f"{len(search.records)} zeros found vs {len(expected)} closed-form "
        f"points in Im [0, 50], worst offset {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_contour_count_agreement():
    rng = random.Random(303)
    agreements = 0
    trials = 20
    for _ in range(trials):
        m = rng.choice([2, 3, 4])
        primes = rng.sample(SMALL_PRIMES, m)
        f = factor(math.prod(p ** rng.randrange(1, 5) for p in primes))
        a0 = critical_abscissa(f).a_crit
        matched = False
        for bump in (0.0, 0.0371, 0.0734):
            region = SearchRegion(-1.0, a0 + 1.0, 0.0, 40.0 + bump)
            try:
                counted = argument_principle_count(f, region)
            except BoundaryZero:
                continue
            found = len(find_zeros(f, region).records)
            matched = counted == found
            break
        agreements += matched
    verdict(3, agreements == trials, f"{agreements}/{trials} contour counts equal search counts")


def test_criterion_04_mersenne_inequality_grid():
    start = time.perf_counter()
    checked = 0
    failures = []
    for n in range(2, 64):
        for re_part in (-1.0, 0.0, 0.5, 0.9):
            for im_part in (0.0, 1.0, 5.0):
                report = mersenne_lower_bound_check(n, complex(re_part, im_part))
                checked += 1
                if not (report.holds and report.lemma_margin > 0 and report.goal_margin > 0):
                    failures.append((n, re_part, im_part))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    verdict(
        4,
        ok,
        f"{checked - len(failures)}/{checked} grid points hold with positive "
        f"margins for n in [2, 63], {elapsed:.1f}s",
    )


def test_criterion_05_polynomial_triple_bound():
    rng = random.Random(505)
    values = []
    for i in range(100):
        q = (2, 3, 5)[i % 3]
        t = random_poly_triple(rng, q, 16)
        values.append(poly_wam(t, 1.0).value.real)
    construction = pigeonhole_triple(2, 21)
    values.append(poly_wam(construction.triple, 1.0).value.real)
    worst = max(values)
    verdict(
        5,
        worst <= 3.0,
        f"multiplicity at s=1 stayed <= 3 on 100 random triples over "
        f"F_2/F_3/F_5 plus the degree-21 construction (max {worst:.4f})",
    )


def test_criterion_06_pigeonhole_construction():
    start = time.perf_counter()
    pc = pigeonhole_triple(2, 21)
    elapsed = time.perf_counter() - start
    t = pc.triple
    checks = {
        "sum": t.a + t.b == t.c,
        "deg_r": pc.r_poly.degree <= 5,
        "ends_irreducible": is_irreducible(t.a) and is_irreducible(t.c),
        "monic": t.a.lead == 1 and t.c.lead == 1,
        "revalidates": validate_poly_triple(t.a, t.b, t.c) == t,
        "mason": mason_stothers_check(t).holds,
        "time": elapsed < 30.0,
    }
    bad = [name for name, ok in checks.items() if not ok]
    verdict(
        6,
        not bad,
        f"degree-21 construction over F_2: deg R = {pc.r_poly.degree}, "
        f"{pc.candidates_tested} candidates tested, {elapsed:.1f}s"
        + (f"; failed: {bad}" if bad else ""),
    )


def test_criterion_07_pole_free_region():
    rng = random.Random(707)
    examined = 0
    violations = 0
    zero_total = 0
    while examined < 50:
        n = rng.randrange(2, 10**6)
        f = factor(n)
        if f.m < 2:
            continue
        examined += 1
        a0 = critical_abscissa(f).a_crit
        search = find_zeros(f, SearchRegion(-1.0, a0 + 1.0, 0.0, 100.0))
        zero_total += len(search.records)
        for record in search.records:
            if record.location.real > a0 + 1e-8:
                violations += 1
    verdict(
        7,
        violations == 0,
        f"{zero_total} zeros located for 50 random n < 10^6; none beyond "
        f"the critical abscissa (+1e-8)",
    )


def test_criterion_08_identity_suite():
    rng = random.Random(808)
    worst_log_ratio = 0.0
    worst_mult_ratio = 0.0
    crude_failures = 0
    for _ in range(10_000):
        n = rng.randrange(2, 10**12)
        f = factor(n)
        at_one = wam_at(f, 1.0).value.real
        expected_one = math.log(n) / math.log(radical(f))
        worst_log_ratio = max(worst_log_ratio, abs(at_one - expected_one))
        at_zero = wam_at(f, 0.0).value.real
        expected_zero = sum(f.exponents) / f.m
        worst_mult_ratio = max(worst_mult_ratio, abs(at_zero - expected_zero))
        if f.e_m > at_one * f.m + 1e-12:
            crude_failures += 1
    limit_ok = all(
        abs(wam(n, 50.0).value - factor(n).e_m) < 1e-6
        for n in (12, 72, 2048 * 2047)
    )
    ok = (
        worst_log_ratio < 1e-9
        and worst_mult_ratio < 1e-12
        and crude_failures == 0
        and limit_ok
    )
    verdict(
        8,
        ok,
        f"10^4 random n: s=1 identity within {worst_log_ratio:.1e}, s=0 "
        f"identity within {worst_mult_ratio:.1e}, crude top-multiplicity "
        f"bound violations {crude_failures}, large-s limits {'ok' if limit_ok else 'failed'}",
    )


def test_criterion_09_divergence_direction():
    small = mersenne_lower_bound_check(5, 0.5).wam.real
    large = mersenne_lower_bound_check(60, 0.5).wam.real
    cyclo = [abs(cyclotomic_wam_formula(p, 0.5).value) for p in (5, 11, 31, 101)]
    increasing = all(x < y for x, y in zip(cyclo, cyclo[1:]))
    verdict(
        9,
        large > small and increasing,
        f"power-of-two family grows at s=0.5 ({small:.4f} -> {large:.4f}); "
        f"prime-family closed form increases over {{5, 11, 31, 101}} "
        f"({cyclo[0]:.3f} -> {cyclo[-1]:.3f})",
    )


def test_criterion_10_heatmap_sanity():
    triples = generate_triples(10_000, 1.0)
    region = SearchRegion(-6.0, 6.0, -6.0, 6.0, grid_step=0.1)
    grid = max_wam_heatmap(triples, region)
    no_nan = not np.any(np.isnan(grid.cells))
    symmetric = bool(np.all(np.abs(grid.cells - grid.cells[::-1, :]) <= 1e-9))
    # Single-prime products have constant wam and no abscissa; they still
    # take part in the ceiling below via their flat tail bound.
    abscissas = [
        a
        for a in (critical_abscissa(t.abc_factorization).a_crit for t in triples)
        if a is not None
    ]
    top = max(abscissas)
    bound_failures = 0
    checked_columns = 0
    for j, re_part in enumerate(grid.re_axis):
        if re_part <= top:
            continue
        checked_columns += 1
        ceiling = math.log10(
            max(wam_upper(t.abc_factorization, float(re_part)) for t in triples)
        )
        if np.any(grid.cells[:, j] > ceiling + 1e-9):
            bound_failures += 1
    ok = no_nan and symmetric and bound_failures == 0 and checked_columns > 0
    verdict(
        10,
        ok,
        f"{len(triples)} triples, 121x121 grid: nan-free {no_nan}, "
        f"conjugate-symmetric {symmetric}, {checked_columns} columns right of "
        f"max a_crit {top:.3f} all under the tail bound",
    )
