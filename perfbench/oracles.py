"""Independent checks of every output of a benchmark repetition.

Nothing here imports wamlab.  Factorizations and primality come from sympy,
sums of (ln p)^s from mpmath at 30 digits, arithmetic in F_q[x] from sympy,
the expected triple set from a separate numpy enumeration, and artifacts are
parsed from their CSV text.

``check(inputs, results)`` returns findings ``(op_id, kind, message)``.
``kind`` is "wrong" when an output states something false, and "failed"
when an operation raised, exited nonzero, or returned less than an
independent count says it should.  Every finding marks its operation as
failed; only "wrong" findings make a run incorrect.
"""

from __future__ import annotations

import csv
import math
import random
from collections import Counter
from functools import lru_cache

import mpmath
import numpy as np
import sympy

from workloads import read_dataset

mpmath.mp.dps = 30

#: |g(a_crit) - 1|, g(a) = sum_{k<m} (ln p_k / ln p_m)^a; bisection stops at
#: |delta a| < 1e-10 and |g'| is a few units, so 1e-8 leaves ample room.
A_CRIT_TOL = 1e-8
#: Relative agreement of a float output with its 30-digit recomputation.
VALUE_RTOL = 1e-9
#: Absolute agreement of a log10 heatmap cell, before the allowance for
#: cancellation in the denominator near a pole.
CELL_TOL = 1e-9
#: A reported zero must lie within this Newton step (relative to max(1,|z|))
#: of a true zero.
ZERO_TOL = 1e-7
#: Heatmap cells checked against mpmath per artifact.
CELL_SAMPLES = 16
#: Critical-line grid points checked to lie above the reported minimum.
PROBE_SAMPLES = 64
#: The CLI's b spacing when critical-line gets no --samples.
PROBE_STEP = 0.05


@lru_cache(maxsize=None)
def factor_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(sympy.factorint(n).items()))


def read_artifact(path: str):
    """(meta, header, rows) of a wamlab CSV artifact."""
    meta, body = {}, []
    with open(path, encoding="ascii") as fh:
        for line in fh.read().splitlines():
            if line.startswith("# "):
                key, _, val = line[2:].partition(": ")
                meta[key] = val
            else:
                body.append(line)
    table = list(csv.reader(body))
    return meta, table[0], table[1:]


def close(x: float, y, rtol: float = VALUE_RTOL, atol: float = 0.0) -> bool:
    return abs(x - y) <= atol + rtol * abs(y)


# ----------------------------------------------------------------------
# exponential sums in mpmath


def _rates(pairs):
    return [mpmath.log(mpmath.log(p)) for p, _ in pairs]


def wam_parts(pairs, s):
    """(numerator, denominator, sum of |denominator terms|) of wam at s."""
    s = mpmath.mpc(s)
    terms = [mpmath.exp(r * s) for r in _rates(pairs)]
    num = sum(e * t for (_, e), t in zip(pairs, terms))
    return num, sum(terms), sum(abs(t) for t in terms)


def a_crit_error(primes, a: float):
    logs = [mpmath.log(p) for p in primes]
    return abs(sum((h / logs[-1]) ** mpmath.mpf(a) for h in logs[:-1]) - 1)


def check_a_crit(primes, a_crit) -> list[str]:
    m = len(primes)
    if m <= 1:
        return [] if a_crit is None else [f"a_crit {a_crit} for m = {m}, expected none"]
    if a_crit is None:
        return [f"a_crit missing for m = {m}"]
    if m == 2:
        return [] if a_crit == 0.0 else [f"a_crit {a_crit} for m = 2, expected 0"]
    err = a_crit_error(primes, a_crit)
    return [] if err <= A_CRIT_TOL else [f"|g(a_crit) - 1| = {float(err):.3g} at a_crit {a_crit}"]


# ----------------------------------------------------------------------
# integers: factors and ABC triples


def check_factor(n: int, pairs) -> list[str]:
    out = []
    if math.prod(p**e for p, e in pairs) != n:
        out.append(f"factors of {n} multiply to {math.prod(p**e for p, e in pairs)}")
    primes = [p for p, _ in pairs]
    if primes != sorted(set(primes)) or any(e < 1 for _, e in pairs):
        out.append(f"factors of {n} are not increasing primes with positive exponents")
    out += [f"factor {p} of {n} is not prime" for p in primes if not sympy.isprime(p)]
    return out


def _radicals(limit: int) -> np.ndarray:
    rad = [1] * (limit + 1)
    for p in range(2, limit + 1):
        if rad[p] == 1:  # no smaller prime divides p
            for k in range(p, limit + 1, p):
                rad[k] *= p
    return np.array(rad, dtype=np.int64)


@lru_cache(maxsize=4)
def expected_triples(c_max: int, min_q: float):
    """(sure, borderline): the triples with c <= c_max and quality >= min_q,
    and those within rounding of the threshold, enumerated without wamlab."""
    rad = _radicals(c_max)
    sure, borderline = set(), set()
    for c in range(2, c_max + 1):
        a = np.arange(1, c // 2 + 1)
        a = a[np.gcd(a, c) == 1]
        radprod = rad[a] * rad[c - a] * rad[c]
        quality = math.log(c) / np.log(radprod.astype(float))
        for ai in a[quality >= min_q * (1 + 1e-9)]:
            sure.add((int(ai), c - int(ai), c))
        for ai in a[np.abs(quality - min_q) < 1e-9 * min_q]:
            borderline.add((int(ai), c - int(ai), c))
    return frozenset(sure), frozenset(borderline)


def check_triple_rows(rows, c_max: int, min_q: float) -> list[str]:
    """acrit-scan rows (a, b, c, quality, p_m, a_crit)."""
    out, seen = [], []
    for a_s, b_s, c_s, q_s, pm_s, ac_s in rows:
        a, b, c, quality, p_m = int(a_s), int(b_s), int(c_s), float(q_s), int(pm_s)
        t = f"({a}, {b}, {c})"
        seen.append((a, b, c))
        if not (1 <= a <= b and a + b == c):
            out.append(f"{t} is not a canonical a + b = c")
            continue
        if math.gcd(a, b) != 1:
            out.append(f"{t} is not coprime")
        primes = [p for p, _ in factor_pairs(a * b * c)]
        true_q = math.log(c) / sum(math.log(p) for p in primes)
        if not close(quality, true_q, 1e-12):
            out.append(f"{t} quality {quality} != {true_q}")
        if p_m != primes[-1]:
            out.append(f"{t} p_m {p_m} != {primes[-1]}")
        out += [f"{t} {msg}" for msg in check_a_crit(primes, float(ac_s) if ac_s else None)]
    keys = [(-float(r[3]), int(r[2]), int(r[0])) for r in rows]
    if keys != sorted(keys):
        out.append("triples are not sorted by descending quality, then c, then a")
    if len(set(seen)) != len(seen):
        out.append("duplicate triples")
    sure, borderline = expected_triples(c_max, min_q)
    missing, extra = sure - set(seen), set(seen) - sure - borderline
    if missing:
        out.append(f"{len(missing)} triples missing, e.g. {min(missing)}")
    if extra:
        out.append(f"{len(extra)} triples beyond the cutoff or quality, e.g. {min(extra)}")
    return out


def check_em_hist(rows, triples) -> list[str]:
    expected = Counter(factor_pairs(math.prod(t))[-1][1] for t in triples)
    got = {int(e): int(k) for e, k in rows}
    return [] if got == dict(expected) else [f"e_m histogram {got} != {dict(expected)}"]


def check_heatmap(meta, header, rows, triples, rng: random.Random) -> list[str]:
    out = []
    if int(meta.get("triples", -1)) != len(triples) or meta.get("parse_issues", "0") != "0":
        out.append(f"heatmap over {meta.get('triples')} triples, expected {len(triples)}")
    cap_cell = math.log10(float(meta["cap"]))
    re_axis = [float(x) for x in header[1:]]
    im_axis = [float(r[0]) for r in rows]
    cells = np.array([[float(x) for x in r[1:]] for r in rows])
    if cells.shape != (len(im_axis), len(re_axis)):
        return out + ["heatmap rows have the wrong length"]
    if not np.all(np.isfinite(cells)) or cells.max() > cap_cell:
        out.append("heatmap cells are not finite or exceed the cap")
    cap = mpmath.mpf(meta["cap"])
    factored = [factor_pairs(math.prod(t)) for t in triples]
    for _ in range(CELL_SAMPLES):
        i, j = rng.randrange(len(im_axis)), rng.randrange(len(re_axis))
        best, cond = mpmath.mpf(0), 0.0
        for pairs in factored:
            num, den, scale = wam_parts(pairs, complex(re_axis[j], im_axis[i]))
            ratio = min(abs(num) / abs(den), cap) if den != 0 else cap
            if ratio >= best:
                best, cond = ratio, float(scale / abs(den)) if den != 0 else math.inf
        expected = float(mpmath.log10(max(best, mpmath.mpf("1e-300"))))
        tol = CELL_TOL + 1e-13 * cond
        at_cap = expected >= cap_cell - tol and cells[i, j] >= cap_cell - tol
        if abs(cells[i, j] - expected) > tol and not at_cap:
            out.append(
                f"cell s = {re_axis[j]}+{im_axis[i]}j is {cells[i, j]}, mpmath gives {expected}"
            )
    return out


# ----------------------------------------------------------------------
# zeros and the critical line


def check_zeros(op, value, meta, rows, contour) -> list[tuple[str, str]]:
    """Findings (kind, message) for one `zeros` artifact."""
    out = []
    pairs = factor_pairs(op["n"])
    primes = [p for p, _ in pairs]
    a_crit = value["a_crit"]
    out += [("wrong", msg) for msg in check_a_crit(primes, a_crit)]
    re_lo, re_hi, im_lo, im_hi = value["region"]
    rates = _rates(pairs)
    found = []
    for re_s, im_s, _res, _num, cls in rows:
        z = complex(float(re_s), float(im_s))
        found.append(z)
        if not (re_lo - 1e-9 <= z.real <= re_hi + 1e-9 and im_lo - 1e-9 <= z.imag <= im_hi + 1e-9):
            out.append(("wrong", f"zero {z} lies outside the rectangle"))
            continue
        s = mpmath.mpc(z)
        terms = [mpmath.exp(r * s) for r in rates]
        f = sum(terms)
        df = sum(r * t for r, t in zip(rates, terms))
        if abs(f / df) > ZERO_TOL * max(1.0, abs(z)):
            out.append(("wrong", f"{z} is {float(abs(f / df)):.3g} from a zero by Newton's step"))
        num = abs(sum(e * t for (_, e), t in zip(pairs, terms)))
        threshold = 1e-8 * sum(e * abs(t) for (_, e), t in zip(pairs, terms))
        expected = "removable" if num < threshold else "pole"
        if cls != expected and not (threshold / 100 < num < threshold * 100):
            out.append(("wrong", f"zero {z} classified {cls}, expected {expected}"))
    found.sort(key=lambda z: (z.real, z.imag))
    for k, z in enumerate(found):
        if any(abs(z - w) < 1e-6 for w in found[k + 1 : k + 8]):
            out.append(("wrong", f"zero {z} is reported twice"))
    if isinstance(contour, int) and len(rows) != contour:
        kind = "failed" if len(rows) < contour else "wrong"
        out.append((kind, (
            f"found {len(rows)} zeros, contour count {contour} "
            f"(seeds {meta.get('seeds')}, no_convergence {meta.get('no_convergence')})"
        )))
    return out


def check_critical_line(n: int, b_max: float, row, rng: random.Random) -> list[str]:
    a_s, bmax_s, samples_s, min_s, argmin_s = row
    a, min_abs, argmin_b, samples = float(a_s), float(min_s), float(argmin_s), int(samples_s)
    pairs = factor_pairs(n)
    out = check_a_crit([p for p, _ in pairs], a)
    if float(bmax_s) != b_max or samples != max(1, math.ceil(b_max / PROBE_STEP)):
        out.append(f"b_max {bmax_s} / samples {samples} do not match --bmax {b_max}")
    _, den, scale = wam_parts(pairs, complex(a, argmin_b))
    floor = 1e-9 * float(scale)
    if not close(min_abs, float(abs(den)), 1e-6, floor):
        out.append(f"min |f| {min_abs} at b = {argmin_b}, mpmath gives {float(abs(den))}")
    step = b_max / samples
    for _ in range(PROBE_SAMPLES):
        b = step * rng.randrange(samples + 1)
        _, den, _ = wam_parts(pairs, complex(a, b))
        if float(abs(den)) < min_abs - floor:
            out.append(f"|f| at b = {b} is {float(abs(den))}, below the reported minimum {min_abs}")
    return out


# ----------------------------------------------------------------------
# the Mersenne family 2^n (2^n - 1)


def _mersenne_pairs(n: int):
    return ((2, n),) + factor_pairs(2**n - 1)


def _wam(pairs, s):
    num, den, _ = wam_parts(pairs, s)
    return num / den


def check_mersenne(meta, rows) -> list[str]:
    out = []
    s = complex(meta["s"])
    if [int(r[0]) for r in rows] != list(range(2, 2 + len(rows))) or "skipped" in meta:
        out.append("mersenne rows do not cover n = 2..nmax")
    for n_s, b_s, q_s, em_s, wam_s, _lm, _gm, holds in rows:
        n = int(n_s)
        pairs = _mersenne_pairs(n)
        quality = n * math.log(2) / sum(math.log(p) for p, _ in pairs)
        if int(b_s) != 2**n - 1 or not close(float(q_s), quality, 1e-12) or int(em_s) != pairs[-1][1]:
            out.append(f"n = {n}: b, quality or e_m is wrong")
        expected = complex(_wam(pairs, s))
        if not close(complex(wam_s), expected):
            out.append(f"n = {n}: wam {wam_s}, mpmath gives {expected}")
        if s.real < 1 and holds != "true":
            out.append(f"n = {n}: the bounds do not hold")
    return out


def check_bounds(rows, nmax: int) -> list[str]:
    out = []
    grid = {(int(r[0]), float(r[1]), float(r[2])) for r in rows}
    expected_grid = {
        (n, re, im) for n in range(2, nmax + 1) for re in (-1.0, 0.0, 0.5, 0.9) for im in (0.0, 1.0, 5.0)
    }
    if grid != expected_grid or len(rows) != len(expected_grid):
        out.append("bounds-check rows do not cover the n x Re x Im grid")
    ln2, ln3 = mpmath.log(2), mpmath.log(3)
    for n_s, re_s, im_s, ll_s, lr_s, gl_s, gr_s, holds in rows:
        n, a = int(n_s), float(re_s)
        pairs = _mersenne_pairs(n)
        lemma_lhs = sum(e * mpmath.log(p) ** a for p, e in pairs if p != 2)
        lemma_rhs = n * ln3 ** (a - 1) * ln2
        goal_lhs = abs(_wam(pairs, complex(a, float(im_s))))
        goal_rhs = (1 - (ln2 / ln3) ** (1 - a)) / 2 * _wam(pairs, a).real
        got = [float(x) for x in (ll_s, lr_s, gl_s, gr_s)]
        want = [float(x) for x in (lemma_lhs, lemma_rhs, goal_lhs, goal_rhs)]
        if not all(close(g, w, VALUE_RTOL, 1e-12) for g, w in zip(got, want)):
            out.append(f"n = {n}, s = {a}+{im_s}j: sides {got}, mpmath gives {want}")
        if holds != "true" or not (lemma_lhs < lemma_rhs and goal_lhs > goal_rhs):
            out.append(f"n = {n}, s = {a}+{im_s}j: the bound does not hold")
    return out


# ----------------------------------------------------------------------
# F_q[x]

_X = sympy.Symbol("x")


def _poly(coeffs, q: int) -> sympy.Poly:
    return sympy.Poly(list(reversed([int(c) for c in coeffs])) or [0], _X, modulus=q)


def _parse_poly(text: str):
    body, _, q = text.partition("@")
    return [int(c) for c in body.split(",")], int(q)


def check_poly_triple(row, q: int, n: int) -> list[str]:
    q_s, n_s, k_s, a_s, b_s, c_s, r_s, degr_s, wam1_s, holds = row
    (a, _), (b, _), (c, _), (r, _) = (_parse_poly(x) for x in (a_s, b_s, c_s, r_s))
    k = int(k_s)
    A, B, C = _poly(a, q), _poly(b, q), _poly(c, q)
    out = []
    if (int(q_s), int(n_s)) != (q, n):
        out.append(f"row is for q = {q_s}, n = {n_s}")
    if A + B != C or sympy.gcd(A, B).degree() != 0:
        out.append("a + b != c or gcd(a, b) != 1")
    for name, coeffs, P in (("a", a, A), ("c", c, C)):
        if len(coeffs) != n + 1 or coeffs[-1] != 1 or not P.is_irreducible:
            out.append(f"{name} is not a monic irreducible of degree {n}")
    if a[: n - k] != c[: n - k] or any(b[: n - k]) or b[n - k :] != r or int(degr_s) != len(r) - 1:
        out.append("a and c do not share their low coefficients, or b != x^(n-k) r")
    _, factors = (A * B * C).factor_list()
    degrees = [(f.degree(), e) for f, e in factors]
    wam1 = sum(e * d for d, e in degrees) / sum(d for d, _ in degrees)
    if not close(float(wam1_s), wam1) or wam1 > 3 or holds != "true":
        out.append(f"Mason-Stothers: wam(abc, 1) {wam1_s}, sympy gives {wam1}")
    return out


def check_poly_factor(op, value) -> list[str]:
    q, coeffs = op["q"], op["coeffs"]
    out = []
    product = _poly([value["unit"]], q)
    keys = []
    for f, e in value["factors"]:
        P = _poly(f, q)
        keys.append(tuple(f))
        if len(f) < 2 or f[-1] != 1 or e < 1 or not P.is_irreducible:
            out.append(f"factor {f}^{e} is not a monic irreducible")
        product *= P**e
    if product != _poly(coeffs, q):
        out.append("the factors do not multiply back to the input")
    if len(set(keys)) != len(keys):
        out.append("a factor is listed twice")
    return out


# ----------------------------------------------------------------------


def contour_counts(inputs: dict, results: list[dict]) -> dict[str, int | None]:
    """The contour count of each zeros rectangle, None where it failed."""
    by_id = {r["id"]: r for r in results}
    return {op["of"]: by_id[op["id"]]["value"] for op in inputs["ops"] if op["kind"] == "contour"}


def contour_mismatch(inputs: dict, results: list[dict]) -> int:
    """Rectangles where the number of zeros found differs from the contour count."""
    counts = contour_counts(inputs, results)
    errors = {r["id"]: r["error"] for r in results}
    return sum(
        isinstance(counts[op["id"]], int) and len(read_artifact(op["path"])[2]) != counts[op["id"]]
        for op in inputs["ops"]
        if op["kind"] == "zeros" and errors[op["id"]] is None
    )


def _argv_value(argv, flag):
    return argv[argv.index(flag) + 1]


def check(inputs: dict, results: list[dict]) -> list[tuple[str, str, str]]:
    """Findings (op_id, kind, message) for one repetition's results."""
    rng = random.Random(f"oracle:{inputs['workload']}:{inputs['seed']}")
    by_id = {r["id"]: r for r in results}
    contours = contour_counts(inputs, results)
    findings = []

    def add(op_id, messages, kind="wrong"):
        findings.extend((op_id, kind, m) for m in messages)

    ops = inputs["ops"]
    triples = read_dataset(inputs["dataset"]) if "dataset" in inputs else None
    if inputs["workload"] == "triple-survey":
        # The survey's heatmap and histogram cover the set acrit-scan lists,
        # which is itself compared with an independent enumeration.
        if by_id["acrit-scan"]["error"] is None:
            _, _, rows = read_artifact(next(o["path"] for o in ops if o["id"] == "acrit-scan"))
            triples = [(int(r[0]), int(r[1]), int(r[2])) for r in rows]
        else:
            triples = sorted(expected_triples(inputs["c_max"], inputs["min_quality"])[0])

    for op in ops:
        res = by_id[op["id"]]
        if res["error"] is not None:
            add(op["id"], [res["error"]], "failed")
            continue
        kind = op["kind"]
        if kind == "factor":
            add(op["id"], check_factor(op["n"], res["value"]))
        elif kind == "poly_factor":
            add(op["id"], check_poly_factor(op, res["value"]))
        elif kind == "contour":
            if not (isinstance(res["value"], int) and res["value"] >= 0):
                add(op["id"], [f"contour count {res['value']} is not a count"])
        elif kind == "zeros":
            meta, _, rows = read_artifact(op["path"])
            for k, msg in check_zeros(op, res["value"], meta, rows, contours[op["id"]]):
                add(op["id"], [msg], k)
        else:
            meta, header, rows = read_artifact(op["path"])
            argv = op["argv"]
            command = argv[0]
            if command == "heatmap":
                add(op["id"], check_heatmap(meta, header, rows, triples, rng))
            elif command == "em-hist":
                add(op["id"], check_em_hist(rows, triples))
            elif command == "acrit-scan":
                c_max, min_q = int(_argv_value(argv, "--gen")), float(_argv_value(argv, "--min-quality"))
                add(op["id"], check_triple_rows(rows, c_max, min_q))
            elif command == "critical-line":
                add(op["id"], check_critical_line(int(argv[1]), float(_argv_value(argv, "--bmax")), rows[0], rng))
            elif command == "mersenne":
                add(op["id"], check_mersenne(meta, rows))
            elif command == "bounds-check":
                add(op["id"], check_bounds(rows, int(_argv_value(argv, "--nmax"))))
            elif command == "poly-triple":
                q, n = int(_argv_value(argv, "--q")), int(_argv_value(argv, "--n"))
                add(op["id"], check_poly_triple(rows[0], q, n))
            else:
                raise ValueError(f"no oracle for {command}")
    return findings
