"""Shared strategies and suite-wide settings.

Exhaustive sweeps run at desk scale by default; set WAMLAB_FULL=1 to run
the wider (slower) ranges.
"""

import math
import os
import subprocess
import sys

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import wamlab
from wamlab import triples
from wamlab.arith import MAX_VALUE, Factorization
from wamlab.wamcore import _serial_product

FULL = os.environ.get("WAMLAB_FULL") == "1"

settings.register_profile(
    "wamlab",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=200 if FULL else 60,
)
settings.load_profile("wamlab")


def grid_table(es, y, x, out=None):
    """[Re f; Im f] of the ExpSum es at x[j] + i y[i], into `out` when given:
    the one product of ExpSum.phases and ExpSum.columns that the heatmap and
    the zero seeds take."""
    return _serial_product(es.phases(y) * es.weights, es.columns(x), out)


@pytest.fixture(autouse=True)
def fresh_generation():
    """Start every test with an empty generate_triples cache, so that a test
    which patches the generator's internals runs them instead of reading a
    result an earlier test left."""
    triples._generate.cache_clear()


SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)


@st.composite
def factorizations(draw, min_m=1, max_m=4, max_exp=5):
    """Factorizations assembled from a pool of small primes.

    Each drawn exponent is lowered, if need be, until the product stays
    below 2^127, the factoring limit; (79*83*89*97)^5 would exceed it.
    """
    primes = sorted(
        draw(st.sets(st.sampled_from(SMALL_PRIMES), min_size=min_m, max_size=max_m))
    )
    room = (MAX_VALUE - 1) // math.prod(primes)
    pairs = []
    for p in primes:
        e = draw(st.integers(1, max_exp))
        while p ** (e - 1) > room:
            e -= 1
        room //= p ** (e - 1)
        pairs.append((p, e))
    return Factorization(
        math.prod(p**e for p, e in pairs), tuple(p for p, _ in pairs), tuple(e for _, e in pairs)
    )


def require_openblas():
    """Skip unless numpy's BLAS is OpenBLAS: elsewhere OPENBLAS_NUM_THREADS
    is ignored and every run would use the same thread count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 does not report its BLAS
        blas = "unknown"
    if "openblas" not in blas.lower():
        pytest.skip(f"OPENBLAS_NUM_THREADS does not reach numpy's BLAS ({blas})")


def run_with_blas_threads(threads, args):
    """Run `python args...` in a fresh interpreter whose BLAS uses `threads`
    threads (OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads).
    Skips unless numpy's BLAS is OpenBLAS."""
    require_openblas()
    src = os.path.dirname(os.path.dirname(wamlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
    subprocess.run([sys.executable, *args], env=env, check=True, timeout=120)


def random_poly(rng, q, max_deg, *, monic=False):
    """A uniformly random nonzero polynomial over F_q of degree <= max_deg."""
    from wamlab.ffpoly import FpPoly

    while True:
        deg = rng.randint(0, max_deg)
        coeffs = [rng.randrange(q) for _ in range(deg)]
        coeffs.append(1 if monic else rng.randrange(1, q))
        poly = FpPoly(q, tuple(coeffs))
        if not poly.is_zero:
            return poly


def random_poly_triple(rng, q, max_deg):
    """A random valid coprime triple a + b = c over F_q."""
    from wamlab.ffpoly import InvalidPolyTriple, validate_poly_triple

    while True:
        a = random_poly(rng, q, max_deg)
        b = random_poly(rng, q, max_deg)
        c = a + b
        if c.is_zero:
            continue
        try:
            return validate_poly_triple(a, b, c)
        except InvalidPolyTriple:
            continue
