"""Seeded inputs for the benchmark workloads.

Each workload is one closed-loop client: an ordered list of operations, each
sent only after the previous one has returned.  ``make_inputs(name, seed,
outdir)`` builds that list as plain JSON data; the same seed always gives the
same list.  Only this data reaches the program, never the seed itself.

Sizes are chosen so that the work of one repetition varies little from seed
to seed.  Brent rho's cost varies widely between semiprimes of one size, so
many small ones are averaged.  Factoring a random polynomial costs what its
factor degrees make it cost, so each polynomial is the product of seeded
random irreducibles with a fixed pattern of degrees and multiplicities.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("triple-survey", "pole-census", "factor-algebra")

#: Triple dataset read by pole-census: every triple with c <= 10^4 and
#: quality >= 1 (122 lines), written once by wamlab.write_dataset.
DATASET = "perfbench/data/triples_c10000.txt"

# triple-survey: scripts/triple_survey.py with a seeded cutoff and quality.
SURVEY_C_MAX = (9900, 10000)
SURVEY_QUALITIES = (1.0, 1.01)
SURVEY_WINDOW = "-6:6"
SURVEY_STEP = "0.1"

# pole-census: a 301 x 301 heatmap over the dataset, then per sampled triple
# the pole_scatter.py rectangle, its contour count and a critical-line scan.
CENSUS_STEP = "0.04"
CENSUS_SAMPLES = 4
#: Sampled triples have this many distinct primes in abc (73 of the 122 do),
#: because the critical-line scan's cost is proportional to it.
CENSUS_M = 4
CENSUS_IM_MAX = 60.0
CENSUS_BMAX = "1e5"
#: The 12-prime product of 53..103 with exponents 1, 2, 1, 2, ...  Its
#: rectangle [a_crit - 8, a_crit + 0.5] x [500, 1000] holds one zero by the
#: contour count, which the Newton search does not find.
TWELVE_PRIMES = (53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103)
TWELVE_RE = ((True, -8.0), (True, 0.5))
TWELVE_IM = (500.0, 1000.0)

# factor-algebra: semiprimes for Brent rho, the Mersenne family, pigeonhole
# triples on both irreducibility paths, and random polynomials to factor.
SEMIPRIMES = 400
SEMIPRIME_BITS = 24
MERSENNE_NMAX = "63"
#: Degrees n for which poly-triple succeeds: q does not divide n, the
#: collision bound holds, and 3n stays within the factoring degree limit.
POLY_TRIPLE_N = {2: (17, 19, 21), 3: (13, 14), 5: (8, 9), 7: (8, 9)}
#: (q, ((degree, multiplicity), ...), count) of the polynomials handed to
#: poly_factor: a repeated factor for the square-free step, two factors of
#: one degree for equal-degree splitting, distinct degrees otherwise.
POLY_FACTOR_CASES = (
    (2, ((1, 2), (6, 1), (6, 1), (9, 1), (11, 1), (14, 1)), 8),
    (3, ((1, 2), (4, 1), (4, 1), (7, 1), (8, 1), (10, 1), (12, 1)), 8),
    (65521, ((1, 2), (3, 1), (3, 1), (5, 1), (8, 1), (12, 1)), 10),
)


def cli_op(op_id: str, argv: list[str], outdir: str) -> dict:
    """A wamlab CLI invocation writing its artifact to outdir/<op_id>.csv."""
    path = f"{outdir}/{op_id}.csv"
    return {"id": op_id, "kind": "cli", "argv": [*argv, "--out", path], "path": path}


def zeros_op(op_id: str, n: int, re, im, outdir: str) -> dict:
    """`wamlab zeros` on a rectangle whose real edges may sit relative to
    a_crit: each of ``re`` is (relative_to_a_crit, value)."""
    return {
        "id": op_id,
        "kind": "zeros",
        "n": n,
        "re": [list(edge) for edge in re],
        "im": list(im),
        "path": f"{outdir}/{op_id}.csv",
    }


def read_dataset(path: str = DATASET) -> list[tuple[int, int, int]]:
    triples = []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                a, b, c = (int(x) for x in line.split())
                triples.append((a, b, c))
    return triples


def _random_prime(rng: random.Random, bits: int) -> int:
    from sympy import isprime

    while True:
        x = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if isprime(x):
            return x


def _random_irreducible(rng: random.Random, q: int, degree: int) -> list[int]:
    from sympy import Poly, Symbol

    while True:
        coeffs = [rng.randrange(q) for _ in range(degree)] + [1]
        if degree == 1 or Poly(coeffs[::-1], Symbol("x"), modulus=q).is_irreducible:
            return coeffs


def _poly_mul(a: list[int], b: list[int], q: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return out


def _patterned_poly(rng: random.Random, q: int, pattern) -> list[int]:
    """A seeded unit times distinct random monic irreducibles, with the
    degrees and multiplicities of `pattern`."""
    product, used = [rng.randrange(1, q)], []
    for degree, mult in pattern:
        factor = _random_irreducible(rng, q, degree)
        while factor in used:
            factor = _random_irreducible(rng, q, degree)
        used.append(factor)
        for _ in range(mult):
            product = _poly_mul(product, factor, q)
    return product


def triple_survey(rng: random.Random, outdir: str) -> dict:
    c_max = rng.randint(*SURVEY_C_MAX)
    min_q = rng.choice(SURVEY_QUALITIES)
    source = ["--gen", str(c_max), "--min-quality", repr(min_q)]
    window = ["--re", SURVEY_WINDOW, "--im", SURVEY_WINDOW, "--step", SURVEY_STEP]
    return {
        "c_max": c_max,
        "min_quality": min_q,
        "ops": [
            cli_op("heatmap", ["heatmap", *source, *window], outdir),
            cli_op("em-hist", ["em-hist", *source], outdir),
            cli_op("acrit-scan", ["acrit-scan", *source], outdir),
        ],
    }


def pole_census(rng: random.Random, outdir: str) -> dict:
    from sympy import factorint

    window = ["--re", SURVEY_WINDOW, "--im", SURVEY_WINDOW, "--step", CENSUS_STEP]
    ops = [cli_op("heatmap", ["heatmap", "--triples", DATASET, *window], outdir)]
    eligible = [t for t in read_dataset() if len(factorint(math.prod(t))) == CENSUS_M]
    for a, b, c in rng.sample(eligible, CENSUS_SAMPLES):
        n, tag = a * b * c, f"{a}-{b}-{c}"
        region = ((False, -1.0), (True, 1.0))
        ops.append(zeros_op(f"zeros-{tag}", n, region, (0.0, CENSUS_IM_MAX), outdir))
        ops.append({"id": f"contour-{tag}", "kind": "contour", "n": n, "of": f"zeros-{tag}"})
        ops.append(
            cli_op(f"critical-line-{tag}", ["critical-line", str(n), "--bmax", CENSUS_BMAX], outdir)
        )
    n12 = math.prod(p ** (1 + i % 2) for i, p in enumerate(TWELVE_PRIMES))
    ops.append(zeros_op("zeros-12prime", n12, TWELVE_RE, TWELVE_IM, outdir))
    ops.append({"id": "contour-12prime", "kind": "contour", "n": n12, "of": "zeros-12prime"})
    return {"dataset": DATASET, "ops": ops}


def factor_algebra(rng: random.Random, outdir: str) -> dict:
    ops = []
    for i in range(SEMIPRIMES):
        p = _random_prime(rng, SEMIPRIME_BITS)
        q = p
        while q == p:
            q = _random_prime(rng, SEMIPRIME_BITS)
        ops.append({"id": f"factor-{i}", "kind": "factor", "n": p * q})
    ops.append(cli_op("mersenne", ["mersenne", "--nmax", MERSENNE_NMAX], outdir))
    ops.append(cli_op("bounds-check", ["bounds-check", "--nmax", MERSENNE_NMAX], outdir))
    for q, sizes in POLY_TRIPLE_N.items():
        n = rng.choice(sizes)
        ops.append(cli_op(f"poly-triple-{q}", ["poly-triple", "--q", str(q), "--n", str(n)], outdir))
    for q, pattern, count in POLY_FACTOR_CASES:
        for i in range(count):
            coeffs = _patterned_poly(rng, q, pattern)
            ops.append({"id": f"poly-factor-{q}-{i}", "kind": "poly_factor", "q": q, "coeffs": coeffs})
    return {"ops": ops}


_INPUT_MAKERS = {
    "triple-survey": triple_survey,
    "pole-census": pole_census,
    "factor-algebra": factor_algebra,
}


def make_inputs(name: str, seed: int, outdir: str) -> dict:
    """The operations of workload `name` for `seed`, writing under outdir."""
    inputs = _INPUT_MAKERS[name](random.Random(f"{name}:{seed}"), outdir)
    inputs.update(workload=name, seed=seed)
    return inputs
