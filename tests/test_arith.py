"""Integer factorization and multiplicative helpers."""

import math
import random

import pytest
from hypothesis import given

from conftest import FULL, factorizations
from wamlab.arith import (
    _MR_LADDER,
    MAX_VALUE,
    Factorization,
    FactorizationBudgetExceeded,
    big_omega,
    factor,
    is_prime,
    mobius,
    omega,
    radical,
)


def oracle_factor(n):
    """Plain trial division, independent of the library implementation."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def next_prime_at_least(n):
    while not is_prime(n):
        n += 1
    return n


# Two primes big enough that Pollard rho needs far more than a handful of
# iterations, yet small enough that the default budget splits them quickly.
HARD_P = next_prime_at_least(1 << 36)
HARD_Q = next_prime_at_least(1 << 37)
HARD_SEMIPRIME = HARD_P * HARD_Q


class TestFactorCorrectness:
    def test_exhaustive_small_range(self):
        limit = 1_000_000 if FULL else 200_000
        for n in range(2, limit + 1):
            assert factor(n).pairs() == oracle_factor(n), n

    def test_random_round_trips(self):
        rng = random.Random(1207)
        for _ in range(5000):
            n = rng.randrange(2, 1 << 40)
            f = factor(n)
            assert f.value == n
            primes = [p for p, _ in f.pairs()]
            assert primes == sorted(set(primes))
            assert all(is_prime(p) for p in primes)
            assert all(e >= 1 for _, e in f.pairs())

    def test_known_factorizations(self):
        assert factor(72).pairs() == ((2, 3), (3, 2))
        assert factor(2047).pairs() == ((23, 1), (89, 1))
        assert factor(2048 * 2047).pairs() == ((2, 11), (23, 1), (89, 1))
        assert factor((1 << 61) - 1).pairs() == (((1 << 61) - 1, 1),)

    def test_semiprime_with_default_budget(self):
        f = factor(HARD_SEMIPRIME)
        assert f.pairs() == ((HARD_P, 1), (HARD_Q, 1))

    @pytest.mark.parametrize(
        "n",
        [
            1,
            4093**2,  # the largest prime below 2^12, squared
            4093 * 4099,  # 4099 is the first prime above 2^12
            4099**2,
            2 * 4093,
            3 * 5 * 7 * 4093**3,
            *[2**k * 1000003 for k in (1, 5, 40)],
            *[2**k * ((1 << 61) - 1) for k in (1, 7, 60)],
            *[2**k * 4099 for k in (1, 12, 100)],
            3 * ((1 << 89) - 1),
            4093 * ((1 << 107) - 1),
            17 * 4099 * (10**18 + 9),
            4093 * 4099 * (10**9 + 7),
        ],
    )
    def test_small_prime_split_matches_sympy(self, n):
        sympy = pytest.importorskip("sympy")
        want = tuple(sorted(sympy.factorint(n).items()))
        assert factor(n).pairs() == want
        # A non-default budget bypasses the cache of factor.
        assert factor(n, budget=10**7).pairs() == want

    def test_largest_allowed_values(self):
        m127 = (1 << 127) - 1  # prime, and the largest admissible input
        assert factor(m127).pairs() == ((m127, 1),)
        assert factor(1 << 126).pairs() == ((2, 126),)


class TestFactorDomain:
    @pytest.mark.parametrize("bad", [0, -1, -72])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            factor(bad)

    def test_unit_factors_to_empty(self):
        f = factor(1)
        assert f.pairs() == ()
        assert f.value == 1

    def test_rejects_too_large(self):
        with pytest.raises(ValueError):
            factor(MAX_VALUE)

    @pytest.mark.parametrize("bad", [2.0, "72", None])
    def test_rejects_non_integers(self, bad):
        with pytest.raises((TypeError, ValueError)):
            factor(bad)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(FactorizationBudgetExceeded):
            factor(HARD_SEMIPRIME, budget=50)

    def test_budget_error_is_runtime_error(self):
        assert issubclass(FactorizationBudgetExceeded, RuntimeError)


class TestIsPrime:
    @pytest.mark.parametrize(
        "p",
        [2, 3, 5, 7919, (1 << 31) - 1, (1 << 61) - 1, 10**18 + 9, (1 << 127) - 1],
    )
    def test_known_primes(self, p):
        assert is_prime(p)

    @pytest.mark.parametrize(
        "c",
        [
            0,
            1,
            2047,          # 23 * 89
            561,           # Carmichael
            41041,         # Carmichael
            3215031751,    # strong pseudoprime to bases 2, 3, 5, 7
            (1 << 67) - 1,  # 193707721 * 761838257287
            318665857834031151167461,    # strong pseudoprime to bases 2, ..., 37
            3317044064679887385961981,   # strong pseudoprime to bases 2, ..., 41
            # Chernick Carmichael numbers (6k+1)(12k+1)(18k+1), all three
            # factors prime, above the Miller-Rabin ladder; those at
            # k = 6300850, 6300966, 1000000606 and 100000002290 are also
            # strong pseudoprimes to base 2, so only the Lucas test rejects them.
            *[
                (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
                for k in (6300850, 6300966, 14000240, 1000000606, 100000002290, 400000000056)
            ],
        ],
    )
    def test_known_composites(self, c):
        assert not is_prime(c)

    def test_agrees_with_sympy_above_the_ladder(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(127)
        lo = _MR_LADDER[-1][0]
        odd = [rng.randrange(lo, MAX_VALUE) | 1 for _ in range(2000)]
        primes = [sympy.prevprime(rng.randrange(2 * lo, MAX_VALUE)) for _ in range(50)]
        for n in odd + primes:
            assert is_prime(n) == sympy.isprime(n), n
        assert all(is_prime(p) for p in primes)

    def test_agrees_with_sieve(self):
        limit = 100_000
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        for n in range(limit + 1):
            assert is_prime(n) == bool(sieve[n]), n


class TestFactorizationType:
    def test_from_pairs_sorts(self):
        f = Factorization.from_pairs([(3, 2), (2, 3)])
        assert f.pairs() == ((2, 3), (3, 2))
        assert f.value == 72

    def test_from_pairs_rejects_composite_base(self):
        with pytest.raises(ValueError):
            Factorization.from_pairs([(4, 1)])

    def test_from_pairs_rejects_zero_exponent(self):
        with pytest.raises(ValueError):
            Factorization.from_pairs([(2, 0)])

    def test_from_pairs_rejects_oversized_product(self):
        with pytest.raises(ValueError):
            Factorization.from_pairs([(2, 126), (3, 2)])

    def test_accessors(self):
        f = factor(72)
        assert f.primes == (2, 3)
        assert f.exponents == (3, 2)
        assert f.value == 72
        assert omega(f) == 2
        assert big_omega(f) == 5
        assert radical(f) == 6
        assert f.m == 2
        assert f.e_m == 2

    def test_e_m_is_last_exponent(self):
        f = factor(2048 * 2047)
        assert f.primes[-1] == 89
        assert f.e_m == 1

    def test_empty_factorization_has_no_e_m(self):
        empty = Factorization.from_pairs([])
        assert empty.m == 0
        with pytest.raises(ValueError):
            empty.e_m


class TestMobius:
    @pytest.mark.parametrize(
        "n,mu",
        [(2, -1), (3, -1), (4, 0), (6, 1), (12, 0), (30, -1), (210, 1)],
    )
    def test_known_values(self, n, mu):
        assert mobius(n) == mu

    def test_unit_has_mobius_one(self):
        assert mobius(1) == 1

    def test_vanishes_on_non_squarefree(self):
        for n in (4, 8, 9, 12, 18, 50, 72, 2**6 * 3):
            assert mobius(n) == 0

    def test_sign_matches_omega_on_squarefree(self):
        for n in (2, 3, 6, 10, 15, 30, 105, 210, 2310):
            assert mobius(n) == (-1) ** omega(factor(n))


class TestInvariants:
    @given(factorizations())
    def test_omega_le_big_omega_le_log2(self, f):
        assert omega(f) <= big_omega(f) <= math.log2(f.value) + 1e-9

    @given(factorizations())
    def test_radical_divides_value(self, f):
        assert f.value % radical(f) == 0

    @given(factorizations())
    def test_factor_inverts_value(self, f):
        assert factor(f.value).pairs() == f.pairs()

    @given(factorizations(min_m=8, max_m=12))
    def test_strategy_stays_below_the_factoring_limit(self, f):
        # Uncapped, eight primes with exponents up to 5 often pass 2^127.
        assert len(f.primes) >= 8 and f.value < MAX_VALUE
