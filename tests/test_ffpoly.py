"""Polynomials over prime fields: factorization, counts, triples, pigeonhole."""

import collections
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import FULL, random_poly, random_poly_triple
from wamlab.ffpoly import (
    EnumerationBudget,
    FpPoly,
    InvalidPolyTriple,
    PreconditionFailed,
    ZeroPolynomial,
    count_irreducibles,
    cyclotomic_wam_formula,
    is_irreducible,
    mason_stothers_check,
    pigeonhole_triple,
    poly_factor,
    poly_wam,
    validate_poly_triple,
)
from wamlab.arith import mobius
from wamlab.ffpoly import _distinct_degree, _ldivmod, _lgcd, _llist, _lmul, _lsub, _ModRing
from wamlab.wamcore import wam_at, wam_sums

FIELD_SIZES = (2, 3, 5, 7, 13)
#: The (q, n) of the benchmark's poly-triple runs.
BENCH_POLY_TRIPLES = ((2, 17), (2, 19), (2, 21), (3, 13), (3, 14), (5, 8), (5, 9), (7, 8), (7, 9))


def coefficient_lists(q, max_len=8):
    return st.lists(st.integers(0, q - 1), min_size=0, max_size=max_len)


def all_monic(q, n):
    """All monic degree-n polynomials over F_q."""
    for lower in itertools.product(range(q), repeat=n):
        yield FpPoly(q, tuple(lower) + (1,))


def schoolbook_powmod(a, e, f, p):
    """a^e mod f by right-to-left square-and-multiply on coefficient lists."""
    result = [1]
    a = _ldivmod(a, f, p)[1]
    while e:
        if e & 1:
            result = _ldivmod(_lmul(result, a, p), f, p)[1]
        a = _ldivmod(_lmul(a, a, p), f, p)[1]
        e >>= 1
    return result


def sympy_factors(poly):
    """(unit, sorted (monic coefficients, exponent)) by sympy's factor_list."""
    sympy = pytest.importorskip("sympy")
    q = poly.characteristic
    unit, pairs = sympy.Poly(
        poly.coefficients[::-1], sympy.Symbol("x"), modulus=q
    ).factor_list()
    factors = []
    for g, e in pairs:
        coeffs = [int(c) % q for c in g.all_coeffs()[::-1]]
        unit = unit * pow(coeffs[-1], e, q)
        inv = pow(coeffs[-1], -1, q)
        factors.append((tuple(c * inv % q for c in coeffs), e))
    return int(unit) % q, sorted(factors, key=lambda fe: (len(fe[0]), fe[0]))


def remainder(a, b):
    """The coefficients of a mod b, both FpPoly over one field."""
    return _ldivmod(a.coefficients, b.coefficients, a.characteristic)[1]


def per_degree_split(coeffs, q):
    """The distinct-degree split one degree at a time, the reference for
    _distinct_degree: a gcd of x^(q^d) - x with f for every d, and a new
    ring for f after every factor."""
    f = list(coeffs)
    ring = _ModRing(f, q)
    h = ring.residue([0, 1])  # x^(q^d) mod f
    d = 0
    while len(f) - 1 > 0:
        d += 1
        if 2 * d > len(f) - 1:
            yield f, len(f) - 1
            return
        h = ring.pow(h, q)
        g = _lgcd(_lsub(_llist(h), [0, 1], q), f, q)
        if len(g) > 1:
            yield g, d
            f = _ldivmod(f, g, q)[0]
            ring = _ModRing(f, q)
            h = ring.residue(_llist(h))


def sympy_irreducible(poly):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    return sympy.Poly(poly.coefficients[::-1], x, modulus=poly.characteristic).is_irreducible


def irreducible_of_degree(rng, q, d, avoid=()):
    """A seeded random monic irreducible of degree d not in `avoid`; found
    with is_irreducible, confirmed by sympy."""
    for _ in range(100 * d):
        poly = FpPoly(q, tuple(rng.randrange(q) for _ in range(d)) + (1,))
        if poly not in avoid and is_irreducible(poly):
            assert sympy_irreducible(poly), str(poly)
            return poly
    raise AssertionError(f"no irreducible of degree {d} over F_{q} in {100 * d} draws")


def oracle_irreducible(poly):
    """Trial division by every lower-degree monic polynomial."""
    n = poly.degree
    if n <= 0:
        return False
    for d in range(1, n // 2 + 1):
        for g in all_monic(poly.characteristic, d):
            if not remainder(poly, g):
                return False
    return True


class TestFpPolyBasics:
    def test_parse_and_str_round_trip(self):
        for text in ("1,0,1@2", "0@5", "3@7", "4,0,0,1@5", "1,1@2"):
            assert str(FpPoly.parse(text)) == text

    def test_parse_normalizes(self):
        assert str(FpPoly.parse("7,8@5")) == "2,3@5"
        assert str(FpPoly.parse("1,1,0@2")) == "1,1@2"
        assert str(FpPoly.parse("0,0@3")) == "0@3"

    def test_parse_rejects_malformed(self):
        for text in ("1,2", "@5", "1,2@", "1;2@5", "1,2@4", "1,2@-3", "x@5"):
            with pytest.raises(ValueError):
                FpPoly.parse(text)

    def test_characteristic_must_be_small_prime(self):
        for q in (0, 1, 4, 6, -3, 65537, 91):
            with pytest.raises(ValueError):
                FpPoly(q, (1,))
        assert FpPoly(65521, (1, 1)).degree == 1  # largest prime in range

    def test_constructors(self):
        assert FpPoly(3, ()).is_zero
        assert FpPoly(3, ()).degree == -1
        assert FpPoly.one(3).degree == 0
        x3 = FpPoly.x_power(5, 3)
        assert x3.degree == 3
        assert str(x3) == "0,0,0,1@5"

    def test_degree_lead_monic(self):
        f = FpPoly.parse("1,2,3@5")
        assert f.degree == 2
        assert f.lead == 3
        assert f.gcd(f) == FpPoly.parse("2,4,1@5")  # f made monic: 3 * 2 = 1 mod 5

    def test_internal_normalization(self):
        f = FpPoly(5, (6, 10, 7, 0, 0))
        assert f.coefficients == (1, 0, 2)


class TestFpPolyArithmetic:
    @given(st.sampled_from(FIELD_SIZES), st.data())
    def test_ring_identities(self, q, data):
        a = FpPoly(q, tuple(data.draw(coefficient_lists(q))))
        b = FpPoly(q, tuple(data.draw(coefficient_lists(q))))
        c = FpPoly(q, tuple(data.draw(coefficient_lists(q))))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == FpPoly(q, ())
        assert (a * b) * c == a * (b * c)

    @given(st.sampled_from(FIELD_SIZES), st.data())
    def test_division_identity(self, q, data):
        a = FpPoly(q, tuple(data.draw(coefficient_lists(q))))
        b = FpPoly(q, tuple(data.draw(coefficient_lists(q, max_len=5))))
        if b.is_zero:
            with pytest.raises(ZeroDivisionError):
                _ldivmod(a.coefficients, b.coefficients, q)
            return
        quot, rem = (FpPoly(q, tuple(c)) for c in _ldivmod(a.coefficients, b.coefficients, q))
        assert quot * b + rem == a
        assert rem.degree < b.degree

    @given(st.sampled_from(FIELD_SIZES), st.data())
    def test_gcd_divides_both_operands(self, q, data):
        a = FpPoly(q, tuple(data.draw(coefficient_lists(q))))
        b = FpPoly(q, tuple(data.draw(coefficient_lists(q))))
        if a.is_zero and b.is_zero:
            return
        g = a.gcd(b)
        assert g.lead == 1
        for c in (a, b):
            assert not remainder(c, g)

    @given(st.sampled_from(FIELD_SIZES), st.data())
    def test_derivative_product_rule(self, q, data):
        a = FpPoly(q, tuple(data.draw(coefficient_lists(q))))
        b = FpPoly(q, tuple(data.draw(coefficient_lists(q))))
        lhs = (a * b).derivative()
        rhs = a.derivative() * b + a * b.derivative()
        assert lhs == rhs

    def test_mixed_characteristics_are_rejected(self):
        with pytest.raises(ValueError):
            FpPoly.parse("1,1@2") + FpPoly.parse("1,1@3")
        with pytest.raises(ValueError):
            FpPoly.parse("1,1@2") * FpPoly.parse("1@5")


class TestPolyFactor:
    def test_known_factorizations(self):
        pf = poly_factor(FpPoly.parse("1,0,1@2"))  # x^2 + 1 = (x + 1)^2
        assert pf.unit == 1
        assert [(str(p), e) for p, e in pf.factors] == [("1,1@2", 2)]

        pf = poly_factor(FpPoly.parse("1,1,0,0,1@2"))  # x^4 + x + 1, irreducible
        assert [(str(p), e) for p, e in pf.factors] == [("1,1,0,0,1@2", 1)]

        pf = poly_factor(FpPoly.parse("0,2,0,1@3"))  # x^3 + 2x = x(x+1)(x+2)
        assert [(str(p), e) for p, e in pf.factors] == [
            ("0,1@3", 1),
            ("1,1@3", 1),
            ("2,1@3", 1),
        ]

    def test_unit_is_leading_coefficient(self):
        pf = poly_factor(FpPoly.parse("0,0,0,4@5"))
        assert pf.unit == 4
        assert [(str(p), e) for p, e in pf.factors] == [("0,1@5", 3)]

    def test_constant_polynomial(self):
        pf = poly_factor(FpPoly.parse("3@5"))
        assert pf.unit == 3
        assert pf.factors == ()

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            poly_factor(FpPoly(2, ()))

    def test_degree_cap(self):
        too_big = FpPoly.x_power(2, 65) + FpPoly.one(2)
        with pytest.raises(ValueError):
            poly_factor(too_big)

    def test_random_round_trips(self):
        rng = random.Random(4451)
        rounds = 2000 if FULL else 600
        for _ in range(rounds):
            q = rng.choice((2, 3, 5, 7))
            poly = random_poly(rng, q, 20)
            pf = poly_factor(poly)
            assert pf.value == poly
            for p, e in pf.factors:
                assert e >= 1
                assert p.lead == 1
                assert is_irreducible(p)
            keys = [p.sort_key() for p, _ in pf.factors]
            assert keys == sorted(keys)

    def test_deterministic(self):
        poly = FpPoly.parse("3,1,4,1,5,2,6@7")
        first = poly_factor(poly)
        second = poly_factor(poly)
        assert first == second

    def test_matches_sympy_at_large_characteristic(self):
        q = 65521
        rng = random.Random(65521)

        def of_degree(n, lead):
            return FpPoly(q, tuple(rng.randrange(q) for _ in range(n)) + (lead,))

        polys = [of_degree(n, rng.randrange(1, q)) for n in (17, 33, 48, 64)]
        for degrees in ((1, 1, 3, 3, 12), (2, 2, 5, 9, 20), (4, 4, 4, 30)):
            parts = [of_degree(d, 1) for d in degrees]
            poly = FpPoly(q, (rng.randrange(1, q),))
            for part in parts + parts[:2]:  # the first two twice
                poly = poly * part
            polys.append(poly)
        for poly in polys:
            pf = poly_factor(poly)
            unit, factors = sympy_factors(poly)
            assert pf.unit == unit
            assert [(p.coefficients, e) for p, e in pf.factors] == factors

    @pytest.mark.parametrize("q, d", [(2, 4), (2, 6), (3, 3), (5, 2), (7, 2)])
    def test_every_irreducible_of_a_degree_splits_apart(self, q, d):
        # x^(q^d) - x is the product of the monic irreducibles of degree
        # dividing d, each once: many factors of one degree for the
        # equal-degree split, of which a random draw often shares one.
        poly = FpPoly.x_power(q, q**d) - FpPoly.x_power(q, 1)
        pf = poly_factor(poly)
        assert pf.value == poly
        assert all(e == 1 and is_irreducible(p) and d % p.degree == 0 for p, e in pf.factors)

        def count(k):  # Gauss's count of the monic irreducibles of degree k
            return sum(mobius(j) * q ** (k // j) for j in range(1, k + 1) if k % j == 0) // k

        by_degree = collections.Counter(p.degree for p, _ in pf.factors)
        assert by_degree == {k: count(k) for k in range(1, d + 1) if d % k == 0}

    def test_frobenius_power_has_single_root_factor(self):
        # x^9 + 2 = (x + 2)^9 over F_3 since cubing is a field homomorphism.
        poly = FpPoly.x_power(3, 9) + FpPoly.parse("2@3")
        pf = poly_factor(poly)
        assert [(str(p), e) for p, e in pf.factors] == [("2,1@3", 9)]


class TestIrreducibility:
    def test_known_cases(self):
        assert is_irreducible(FpPoly.parse("1,1,0,0,1@2"))  # x^4 + x + 1
        assert is_irreducible(FpPoly.parse("1,1@2"))
        assert not is_irreducible(FpPoly.parse("1,0,1@2"))  # (x + 1)^2
        assert not is_irreducible(FpPoly.parse("1@2"))  # units are not
        assert not is_irreducible(FpPoly.parse("0,1,1@2"))  # x(x + 1)
        assert is_irreducible(FpPoly.parse("1,1,0,0,0,0,1@2"))  # x^6 + x + 1

    def test_matches_trial_division_gf2(self):
        top = 8 if FULL else 7
        for n in range(1, top + 1):
            for poly in all_monic(2, n):
                assert is_irreducible(poly) == oracle_irreducible(poly), str(poly)

    def test_matches_trial_division_gf3(self):
        for n in range(1, 5):
            for poly in all_monic(3, n):
                assert is_irreducible(poly) == oracle_irreducible(poly), str(poly)

    @pytest.mark.parametrize("q", (2, 3, 5, 65521))
    def test_matches_sympy_above_exhaustive_degrees(self, q):
        # Degrees 9..40: random polynomials, irreducibles g, squares g^2 and
        # products g*h of two distinct irreducibles of one degree, where
        # only the first distinct-degree part can tell.
        rng = random.Random(9000 + q)

        def random_irreducible(d):
            while True:
                poly = FpPoly(q, tuple(rng.randrange(q) for _ in range(d)) + (1,))
                if sympy_irreducible(poly):
                    return poly

        cases = [random_poly(rng, q, 40) for _ in range(8)]
        cases = [p for p in cases if p.degree >= 9]
        for d in (9, rng.randint(10, 16), rng.randint(17, 20)):
            g = h = random_irreducible(d)
            while h == g:
                h = random_irreducible(d)
            cases += [g, g * g, FpPoly(q, (rng.randrange(1, q),)) * g * h]
        for poly in cases:
            assert is_irreducible(poly) == sympy_irreducible(poly), str(poly)

    @pytest.mark.parametrize("q", (2, 3, 65521))
    def test_matches_sympy_at_degree_64(self, q):
        rng = random.Random(6400 + q)
        g = irreducible_of_degree(rng, q, 64)  # confirmed by sympy
        half = irreducible_of_degree(rng, q, 32)
        other = irreducible_of_degree(rng, q, 32, avoid=(half,))
        assert is_irreducible(g)
        assert not is_irreducible(half * other)
        assert not is_irreducible(half * half)
        draws = 1 if q == 65521 else 4  # sympy takes about 0.5 s a test at q = 65521
        for _ in range(draws):
            poly = FpPoly(q, tuple(rng.randrange(q) for _ in range(64)) + (rng.randrange(1, q),))
            assert is_irreducible(poly) == sympy_irreducible(poly), str(poly)

    def test_non_monic_handled(self):
        # 2x^2 + 2x + 2 = 2(x^2 + x + 1) over F_3; the monic part decides.
        assert is_irreducible(FpPoly.parse("2,2,2@3")) == is_irreducible(
            FpPoly.parse("1,1,1@3")
        )

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            is_irreducible(FpPoly.x_power(2, 65) + FpPoly.one(2))


class TestModRing:
    @given(
        st.sampled_from((2, 3, 65521)),
        st.integers(1, 64),
        st.integers(1, 1 << 40),
        st.data(),
    )
    def test_pow_matches_schoolbook(self, q, n, e, data):
        coeff = st.integers(0, q - 1)
        f = data.draw(st.lists(coeff, min_size=n, max_size=n))
        f.append(data.draw(st.integers(1, q - 1)))  # non-monic too
        a = data.draw(st.lists(coeff, max_size=2 * n + 2))
        ring = _ModRing(f, q)
        assert _llist(ring.pow(ring.residue(a), e)) == schoolbook_powmod(a, e, f, q)

    def test_int64_worst_case(self):
        # Every coefficient p - 1: the middle convolution sum reaches its
        # bound n (p - 1)^2, which must come out exact, not wrapped.
        p, n = 65521, 64
        top = [p - 1] * n
        f = [p - 1] * (n + 1)
        ring = _ModRing(f, p)
        a = ring.residue(top)
        assert int(np.convolve(a, a)[n - 1]) == n * (p - 1) ** 2
        assert _llist(ring.mul(a, a)) == _ldivmod(_lmul(top, top, p), f, p)[1]
        assert _llist(ring.pow(a, p**2 + 7)) == schoolbook_powmod(top, p**2 + 7, f, p)

    @pytest.mark.parametrize("q, n", [(2, 40), (3, 17), (5, 8), (7, 9), (65521, 33), (65521, 64)])
    def test_frobenius_table_matches_pow(self, q, n, monkeypatch):
        rng = random.Random(q * 1000 + n)
        f = [rng.randrange(q) for _ in range(n)] + [rng.randrange(1, q)]
        ring = _ModRing(f, q)
        xq = ring.pow(ring.residue([0, 1]), q)
        products = []
        mul = _ModRing.mul
        monkeypatch.setattr(_ModRing, "mul", lambda self, a, b: products.append(1) or mul(self, a, b))
        ring.tabulate_frobenius(xq)
        monkeypatch.undo()
        assert len(products) == n - 2
        residues = [ring.residue([rng.randrange(q) for _ in range(n)]) for _ in range(6)]
        residues.append(ring.residue([q - 1] * n))  # every sum in h @ Q at its largest
        for h in residues:
            assert np.array_equal(ring.frobenius(h), ring.pow(h, q))

    def test_frobenius_table_int64_worst_case(self):
        # deg f = 64 at q = 65521: every entry of h and Q at q - 1 puts
        # n (q - 1)^2, just under 2^38, in each sum of h @ Q.
        q, n = 65521, 64
        ring = _ModRing([q - 1] * (n + 1), q)
        ring.Q = np.full((n, n), q - 1, dtype=np.int64)
        h = np.full(n, q - 1, dtype=np.int64)
        assert np.array_equal(ring.frobenius(h), np.full(n, n * (q - 1) ** 2 % q))


class TestDistinctDegree:
    """The block split yields exactly the per-degree loop's pairs."""

    CASES = [
        (q, degrees)
        for q in (2, 3, 5, 7, 65521)
        for degrees in (
            (1, 2, 3, 4, 6, 9),  # mixed, every block refined
            (4, 4, 5, 5, 7),  # equal-degree pairs
            (3, 3, 8, 8, 8),
            (6, 6, 9, 11, 14),  # the benchmark's F_2 pattern
            (4, 4, 7, 8, 10, 12),
            (5, 9, 13, 17),
            (1, 15, 16),
            (2,), (5,), (16,), (23,),  # irreducible inputs
        )
    ]

    @staticmethod
    def product_of(rng, q, degrees):
        factors = []
        for d in degrees:
            factors.append(irreducible_of_degree(rng, q, d, avoid=factors))
        poly = FpPoly.one(q)
        for g in factors:
            poly = poly * g
        return poly

    @pytest.mark.parametrize("q, degrees", CASES)
    def test_matches_the_per_degree_loop(self, q, degrees, monkeypatch):
        rng = random.Random(q + 17 * sum(degrees))
        poly = self.product_of(rng, q, degrees)
        tables = []
        tabulate = _ModRing.tabulate_frobenius
        monkeypatch.setattr(
            _ModRing, "tabulate_frobenius", lambda self, xq: tables.append(self.n) or tabulate(self, xq)
        )
        coeffs = list(poly.coefficients)
        pairs = list(_distinct_degree(coeffs, q))
        assert pairs == list(per_degree_split(coeffs, q))
        assert sorted(d for g, d in pairs for _ in range((len(g) - 1) // d)) == sorted(degrees)
        # The table is built once the split gets past degree 1, where its
        # n - 2 products cost less than squaring's c per later step: never
        # for q = 2 and 3, and for every q >= 5 from n = 6 on.
        n, c = poly.degree, {2: 1, 3: 2, 5: 3, 7: 4, 65521: 27}[q]
        past_degree_1 = n - degrees.count(1) >= 4
        assert tables == ([n] if past_degree_1 and n - 2 < (n // 2 - 1) * c else [])
        assert tables or q < 5 or n < 6 or not past_degree_1

    @pytest.mark.parametrize("q", (2, 3, 5, 65521))
    def test_first_part_of_non_squarefree_inputs(self, q):
        # is_irreducible reads only the first pair, on any input.
        rng = random.Random(q)
        g, h = (irreducible_of_degree(rng, q, d) for d in (3, 7))
        for poly in (g * g, g * g * h, h * h, FpPoly(q, (q - 1,)) * h * h * g):
            coeffs = list(poly.coefficients)
            assert next(_distinct_degree(coeffs, q)) == next(per_degree_split(coeffs, q))


class TestCountIrreducibles:
    @pytest.mark.parametrize(
        "q,n,count",
        [(2, 1, 2), (2, 2, 1), (2, 3, 2), (2, 4, 3), (2, 8, 30), (3, 2, 3), (5, 1, 5)],
    )
    def test_known_counts(self, q, n, count):
        assert count_irreducibles(q, n) == count

    def test_matches_enumeration(self):
        cases = [(2, n) for n in range(1, 11 if FULL else 9)]
        cases += [(3, n) for n in range(1, 6)]
        cases += [(5, n) for n in range(1, 4)]
        cases += [(7, n) for n in range(1, 3)]
        for q, n in cases:
            brute = sum(1 for poly in all_monic(q, n) if oracle_irreducible(poly))
            assert count_irreducibles(q, n) == brute, (q, n)

    def test_degree_sum_identity(self):
        # Sum over d | n of d * (number of degree-d irreducibles) = q^n.
        for q, n in ((2, 12), (3, 8), (5, 6), (7, 4)):
            total = sum(
                d * count_irreducibles(q, d) for d in range(1, n + 1) if n % d == 0
            )
            assert total == q**n

    def test_rejects_out_of_range(self):
        with pytest.raises(OverflowError):
            count_irreducibles(2, 200)
        with pytest.raises(ValueError):
            count_irreducibles(4, 3)
        with pytest.raises(ValueError):
            count_irreducibles(2, 0)


class TestValidatePolyTriple:
    def test_basic(self):
        t = validate_poly_triple(
            FpPoly.parse("1@2"), FpPoly.parse("0,1@2"), FpPoly.parse("1,1@2")
        )
        assert t.characteristic == 2

    def test_rejects_mismatched_fields(self):
        with pytest.raises(InvalidPolyTriple):
            validate_poly_triple(
                FpPoly.parse("1@2"), FpPoly.parse("0,1@3"), FpPoly.parse("1,1@3")
            )

    def test_rejects_wrong_sum(self):
        with pytest.raises(InvalidPolyTriple):
            validate_poly_triple(
                FpPoly.parse("1@2"), FpPoly.parse("0,1@2"), FpPoly.parse("0,1@2")
            )

    def test_rejects_common_factor(self):
        x = FpPoly.parse("0,1@3")
        with pytest.raises(InvalidPolyTriple):
            validate_poly_triple(x, x, x + x)

    def test_common_factor_message_names_the_gcd(self):
        x, one = FpPoly.parse("0,1@2"), FpPoly.one(2)
        b = x * (x + one)
        with pytest.raises(InvalidPolyTriple, match="common factor 0,1@2"):
            validate_poly_triple(x, b, x + b)

    def test_rejects_zero_entries(self):
        with pytest.raises((InvalidPolyTriple, ZeroPolynomial)):
            validate_poly_triple(
                FpPoly(2, ()), FpPoly.parse("1,1@2"), FpPoly.parse("1,1@2")
            )

    def test_rejects_vanishing_derivatives(self):
        # 1 + x^2 = (1 + x)^2 over F_2: all three derivatives vanish, which
        # voids the degree argument behind the polynomial bound.
        with pytest.raises(InvalidPolyTriple):
            validate_poly_triple(
                FpPoly.parse("1@2"), FpPoly.parse("0,0,1@2"), FpPoly.parse("1,0,1@2")
            )

    def test_random_triples_are_reproducible(self):
        t1 = random_poly_triple(random.Random(5), 3, 8)
        t2 = random_poly_triple(random.Random(5), 3, 8)
        assert t1 == t2


def product_route_wam(t, s):
    """poly_wam by factoring the product a*b*c, of degree up to 3n."""
    f = poly_factor(t.a * t.b * t.c)
    heights = [float(p.degree) for p, _ in f.factors]
    return wam_at(wam_sums(heights, [e for _, e in f.factors]), s)


class TestPolyWam:
    @pytest.mark.parametrize("q,n", BENCH_POLY_TRIPLES)
    def test_equals_the_product_route(self, q, n):
        t = pigeonhole_triple(q, n).triple
        for s in (1.0, 0.0, -2.5, 0.5 + 3j):
            assert poly_wam(t, s) == product_route_wam(t, s)

    def test_random_triples_equal_the_product_route(self):
        rng = random.Random(79)
        for _ in range(20):
            t = random_poly_triple(rng, rng.choice((2, 3, 5)), 10)
            assert poly_wam(t, 1.0) == product_route_wam(t, 1.0)

    def test_pole_scale_counts_every_factor(self):
        # (1, x^5 + 1, x^5) over F_2 has degrees 1, 1 and 4: W = (2, 1), and
        # the denominator 2 + 4^s vanishes at s0.  Just off s0, |den| =
        # 1.66e-12 lies below 1e-12 * (2 |1^s| + |4^s|) = 2.0e-12, though
        # above 1e-12 * (|1^s| + |4^s|) = 1.5e-12.
        one, x5 = FpPoly.one(2), FpPoly.x_power(2, 5)
        t = validate_poly_triple(one, x5 + one, x5)
        s0 = complex(math.log(2), math.pi) / math.log(4)
        ev = poly_wam(t, s0 + 1.2e-12)
        assert 1.5e-12 < abs(ev.denominator) < 2.0e-12
        assert ev.is_pole

    def test_linear_triple_is_constant_one(self):
        t = validate_poly_triple(
            FpPoly.parse("1@2"), FpPoly.parse("0,1@2"), FpPoly.parse("1,1@2")
        )
        for s in (0.0, 1.0, -2.0, 3 + 4j):
            assert abs(poly_wam(t, s).value - 1.0) < 1e-12

    def test_zero_gives_multiplicity_ratio(self):
        rng = random.Random(77)
        for _ in range(20):
            t = random_poly_triple(rng, rng.choice((2, 3, 5)), 10)
            pf = poly_factor(t.a * t.b * t.c)
            total = sum(e for _, e in pf.factors)
            distinct = len(pf.factors)
            got = poly_wam(t, 0.0).value
            assert abs(got - total / distinct) < 1e-9

    def test_one_gives_degree_ratio(self):
        rng = random.Random(78)
        for _ in range(20):
            t = random_poly_triple(rng, rng.choice((2, 3, 5)), 10)
            pf = poly_factor(t.a * t.b * t.c)
            total = sum(e * p.degree for p, e in pf.factors)
            distinct = sum(p.degree for p, _ in pf.factors)
            got = poly_wam(t, 1.0).value
            assert abs(got - total / distinct) < 1e-9


class TestMasonStothers:
    def test_bound_is_three(self):
        t = validate_poly_triple(
            FpPoly.parse("1@2"), FpPoly.parse("0,1@2"), FpPoly.parse("1,1@2")
        )
        report = mason_stothers_check(t)
        assert report.bound == 3.0
        assert report.holds
        assert report.wam_at_one <= report.bound + 1e-9

    def test_holds_on_random_triples(self):
        rng = random.Random(90)
        for _ in range(30):
            t = random_poly_triple(rng, rng.choice((2, 3, 5)), 12)
            report = mason_stothers_check(t)
            assert report.holds, (str(t.a), str(t.b), str(t.c))


class TestCyclotomicFormula:
    def test_known_values(self):
        # (p + 1 + (p - 1)^s) / ((p - 1)^s + 2)
        assert abs(cyclotomic_wam_formula(5, 1.0).value - 5 / 3) < 1e-12
        assert abs(cyclotomic_wam_formula(5, 0.5).value - 2.0) < 1e-12
        assert abs(cyclotomic_wam_formula(5, 0.0).value - 7 / 3) < 1e-12
        assert abs(cyclotomic_wam_formula(3, 1.0).value - 3 / 2) < 1e-12
        assert abs(cyclotomic_wam_formula(2, 1.0).value - 4 / 3) < 1e-12

    @pytest.mark.parametrize("p,q", [(3, 2), (5, 2), (7, 3), (11, 2), (13, 2)])
    def test_equals_the_wam_of_the_triple(self, p, q):
        # q is a primitive root mod p, so x^p - 1 = (x - 1) Phi_p over F_q
        # with Phi_p irreducible of degree p - 1.
        one, xp = FpPoly.one(q), FpPoly.x_power(q, p)
        t = validate_poly_triple(one, xp - one, xp)
        for s in (1.0, 0.5, complex(2, 3), complex(-1.5, 0.7)):
            assert cyclotomic_wam_formula(p, s) == poly_wam(t, s)

    def test_magnitude_grows_with_characteristic(self):
        values = [
            abs(cyclotomic_wam_formula(p, 0.5).value) for p in (5, 11, 31, 101)
        ]
        assert values == sorted(values)
        assert values[-1] > 9

    def test_pole_location(self):
        p = 5
        s = complex(math.log(2), math.pi) / math.log(p - 1)
        ev = cyclotomic_wam_formula(p, s)
        assert ev.is_pole
        assert ev.value is None

    @pytest.mark.parametrize("s", [2000, -2000, complex(700, 30), complex(3, 4)])
    def test_large_exponents_match_mpmath(self, s):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ps = mpmath.power(4, mpmath.mpc(s))
            want = complex((5 + 1 + ps) / (ps + 2))
        got = cyclotomic_wam_formula(5, s).value
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_rejects_composite_characteristic(self):
        for p in (1, 4, 6, 9):
            with pytest.raises(ValueError):
                cyclotomic_wam_formula(p, 1.0)


class TestPigeonhole:
    def test_gf2_degree_21(self):
        pc = pigeonhole_triple(2, 21)
        assert pc.k == 5
        assert pc.pigeonhole_bound == 2 ** (21 - 5)
        assert pc.irreducible_count == count_irreducibles(2, 21)
        assert pc.irreducible_count > pc.pigeonhole_bound
        t = pc.triple
        assert t.a + t.b == t.c
        assert t.a.degree == 21 and t.c.degree == 21
        assert t.a.lead == 1 and t.c.lead == 1
        assert is_irreducible(t.a) and is_irreducible(t.c)
        assert pc.r_poly.degree <= pc.k - 1
        assert mason_stothers_check(t).holds

    def test_remainder_reconstructs_middle_term(self):
        pc = pigeonhole_triple(2, 21)
        rebuilt = pc.r_poly * FpPoly.x_power(2, 21 - pc.k)
        assert rebuilt == pc.triple.b

    def test_small_case_against_bruteforce(self):
        pc = pigeonhole_triple(5, 3)
        # Exhaustive check: buckets keyed by the two lowest coefficients,
        # scanned lexicographically; a cubic over F_5 is irreducible exactly
        # when it has no root.
        def irreducible(c0, c1, c2):
            return all((x**3 + c2 * x**2 + c1 * x + c0) % 5 for x in range(5))

        found = None
        for c0 in range(1, 5):
            for c1 in range(5):
                hits = [c2 for c2 in range(5) if irreducible(c0, c1, c2)]
                if len(hits) >= 2:
                    found = (c0, c1, hits[0], hits[1])
                    break
            if found:
                break
        assert found is not None
        c0, c1, first, second = found
        assert pc.triple.a == FpPoly(5, (c0, c1, first, 1))
        assert pc.triple.c == FpPoly(5, (c0, c1, second, 1))
        assert pc.collision_lower == (c0, c1)

    def test_gf7_quadratics(self):
        pc = pigeonhole_triple(7, 2)
        assert pc.k == 1
        t = pc.triple
        assert is_irreducible(t.a) and is_irreducible(t.c)
        assert t.b.degree < 2

    def test_odd_characteristic_medium(self):
        pc = pigeonhole_triple(3, 8)
        assert pc.irreducible_count == 810
        t = pc.triple
        assert is_irreducible(t.a) and is_irreducible(t.c)
        assert mason_stothers_check(t).holds

    def test_deterministic(self):
        assert pigeonhole_triple(2, 9) == pigeonhole_triple(2, 9)

    def test_rejects_characteristic_dividing_degree(self):
        with pytest.raises(PreconditionFailed):
            pigeonhole_triple(2, 20)
        with pytest.raises(PreconditionFailed):
            pigeonhole_triple(3, 9)

    def test_rejects_when_pigeonhole_fails(self):
        # One linear polynomial per bucket: no collision is forced.
        with pytest.raises(PreconditionFailed):
            pigeonhole_triple(3, 1)

    def test_enumeration_budget(self):
        with pytest.raises(EnumerationBudget):
            pigeonhole_triple(2, 27)

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: pigeonhole_triple(2, 40000001), EnumerationBudget),
            (lambda: pigeonhole_triple(65521, 10**12 + 1), EnumerationBudget),
            (lambda: count_irreducibles(2, 40000001), OverflowError),
            (lambda: count_irreducibles(3, 10**12), OverflowError),
        ],
    )
    def test_huge_degrees_are_refused_before_q_to_the_n(self, call, error):
        tracemalloc.start()
        try:
            with pytest.raises(error):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_rejects_composite_field_size(self):
        with pytest.raises(ValueError):
            pigeonhole_triple(4, 3)
