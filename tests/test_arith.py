"""Integer factorization and multiplicative helpers."""

import math
import random

import pytest
import hypothesis.strategies as st
from hypothesis import given

from conftest import FULL, factorizations
from wamlab import arith
from wamlab.arith import (
    _MR_LADDER,
    _OLF_LIMIT,
    _OLF_MULT,
    _RHO_PROBE,
    _brent_rho,
    _one_line,
    _split,
    _trial_divide,
    DEFAULT_RHO_BUDGET,
    MAX_VALUE,
    Factorization,
    FactorizationBudgetExceeded,
    factor,
    is_prime,
    mobius,
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
# iterations.  At the default budget the square search splits their product:
# q is close to 2p, so 480 * 15 * p * q = (30(2p + q))^2 - (30(2p - q))^2.
HARD_P = next_prime_at_least(1 << 36)
HARD_Q = next_prime_at_least(1 << 37)
HARD_SEMIPRIME = HARD_P * HARD_Q


def prev_prime_below(n):
    n -= 1
    while not is_prime(n):
        n -= 1
    return n


def composites_near(bound):
    """Balanced and unbalanced products of two or three primes, some just
    below `bound` and some just above it."""
    root = math.isqrt(bound)
    p, q = prev_prime_below(root), next_prime_at_least(root)
    below = [prev_prime_below(p) * p, 65521 * prev_prime_below(bound // 65521)]
    above = [q * next_prime_at_least(q + 1), 65521 * next_prime_at_least(bound // 65521 + 1)]
    r = math.isqrt(bound // 4099)
    below.append(4099 * prev_prime_below(r) * prev_prime_below(prev_prime_below(r)))
    above.append(4099 * next_prime_at_least(r + 1) * next_prime_at_least(r + 2))
    assert max(below) < bound < min(above)
    return below + above


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
            # Trial division to min(n^(1/3), 2^16) below 2^64: 4099 is the
            # first prime above 2^12, 65521 the last below 2^16 and 65537
            # the first above it.
            4099 * 65521,
            4099 * 65537,
            65521 * 65537,
            4099 * 65521 * 65537,
            4099 * next_prime_at_least(1 << 40),
            65521 * prev_prime_below(1 << 31),  # 65521 lies above n^(1/3)
            65521 * next_prime_at_least(1 << 33),  # n^(1/3) lies above 2^16
            65537 * next_prime_at_least(1 << 33),
            65537 * next_prime_at_least(1 << 50),
            4099 * 65521 * ((1 << 31) - 1),
            4099 * 65537 * ((1 << 61) - 1),
            65521 * 65537 * next_prime_at_least(1 << 40),
            *composites_near(1 << 48),
            *composites_near(1 << 64),
            4111**2,
            4099**3,
            4111**3,
            4099**2 * 4111,
            (4099 * 4111) ** 2,
            4099**3 * 4111**2,
            4099**5,
            (4099 * 4111) ** 3,  # above 2^64: no trial division
            4099**2 * next_prime_at_least(1 << 40),
            4099**3 * 65521**2,
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


def random_prime(rng, bits):
    while True:
        p = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if is_prime(p):
            return p


def random_semiprimes(seed, p_bits, q_bits, count):
    rng = random.Random(seed)
    return [random_prime(rng, p_bits) * random_prime(rng, q_bits) for _ in range(count)]


def close_pair(p_floor):
    """Consecutive primes p < q from p_floor, whose product the square search
    splits on trial 30: 480 * 30 = 120^2, so 480 * 30 * p q = s^2 - t^2 with
    s = 60(p + q), t = 60(q - p), and t^2 < 2s - 1 makes s the ceiling."""
    p = next_prime_at_least(p_floor)
    q = next_prime_at_least(p + 1)
    assert (60 * (q - p)) ** 2 < 2 * 60 * (p + q) - 1
    return p, q


def reference_one_line(n, trials):
    """Hart's one-line factoring on Python ints, the way _one_line documents it."""
    for i in range(1, trials + 1):
        kni = _OLF_MULT * n * i
        s = math.isqrt(kni - 1) + 1
        m = s * s - kni
        t = math.isqrt(m)
        if t * t == m and 1 < (g := math.gcd(s - t, n)) < n:
            return g, i
    return None, trials


def sympy_pairs(n):
    sympy = pytest.importorskip("sympy")
    return tuple(sorted(sympy.factorint(n).items()))


class TestSplitPhases:
    """The three phases of _split: a short rho walk, the square search, rho."""

    @pytest.mark.parametrize("bits", [32, 40, 48, 56, 62, 64])
    def test_balanced_semiprimes_match_sympy(self, bits):
        for n in random_semiprimes(bits, bits // 2, bits - bits // 2, 6):
            assert factor(n).pairs() == sympy_pairs(n), n

    @pytest.mark.parametrize("p_bits,q_bits", [(13, 35), (16, 36), (20, 40), (24, 38)])
    def test_unbalanced_semiprimes_match_sympy(self, p_bits, q_bits):
        for n in random_semiprimes(p_bits, p_bits, q_bits, 6):
            assert factor(n).pairs() == sympy_pairs(n), n

    def test_products_whose_multiple_wraps_uint64(self):
        # 480 n >= 2^64 just above n = 2^55, so k n i is only known mod 2^64.
        ns = [n for n in random_semiprimes(55, 28, 28, 20) if n > (1 << 64) // _OLF_MULT]
        assert len(ns) >= 5
        for n in ns:
            assert factor(n).pairs() == sympy_pairs(n), n
        p, q = close_pair(1 << 28)
        assert p * q > (1 << 64) // _OLF_MULT
        assert _one_line(p * q, 30) in ((p, 30), (q, 30))

    def test_square_search_at_its_exactness_limit(self):
        # Products for which trial 30 is the last with 480 n i <= 2^100.  There
        # s is near 2^50, and its float root is at times one too large.
        top = math.isqrt(_OLF_LIMIT // (30 * _OLF_MULT))
        float_misses = 0
        for k in range(1, 25):
            p, q = close_pair(top - k * 250_000)
            n = p * q
            assert _OLF_LIMIT // (_OLF_MULT * n) == 30
            s_float = math.ceil(math.sqrt(_OLF_MULT * n) * math.sqrt(30))
            float_misses += s_float != 60 * (p + q)
            assert _one_line(n, 30) in ((p, 30), (q, 30))
            assert factor(n).pairs() == sympy_pairs(n)
        assert float_misses > 0

    @pytest.mark.parametrize(
        "n",
        [
            *random_semiprimes(40, 20, 20, 3),
            *random_semiprimes(56, 28, 28, 3),
            *random_semiprimes(80, 40, 40, 3),
            *random_semiprimes(88, 44, 44, 3),
            HARD_SEMIPRIME,
        ],
    )
    def test_vectorized_search_matches_python_ints(self, n):
        trials = min(20_000, _OLF_LIMIT // (_OLF_MULT * n))
        assert _one_line(n, trials) == reference_one_line(n, trials)

    def test_roadmap_example(self):
        n = ((1 << 40) - 87) * ((1 << 40) - 167)
        assert factor(n).pairs() == sympy_pairs(n)

    def test_above_the_search_range_rho_splits_alone(self, monkeypatch):
        n = 1000003 * ((1 << 89) - 1)
        assert _OLF_LIMIT // (_OLF_MULT * n) == 0
        trials = []

        def spy(n, t):
            trials.append(t)
            return _one_line(n, t)

        monkeypatch.setattr(arith, "_one_line", spy)
        counts = {}
        _split(n, counts, DEFAULT_RHO_BUDGET)
        assert tuple(sorted(counts.items())) == sympy_pairs(n)
        assert set(trials) <= {0}


class TestLehmanOrder:
    """Below 2^64 the primes in (2^12, min(n^(1/3), 2^16)] are divided out
    first; the rho probe runs only from 2^48 on; every walk keeps to its
    budget."""

    def test_trial_division_stops_at_the_cube_root(self):
        for p in (4099, 4111, 65521):
            counts = {}
            assert _trial_divide(p**3, counts) == 1 and counts == {p: 3}
        # 65521 lies just above the cube root of this n < 65521^3, and below
        # that of 4099 n.
        q = prev_prime_below(65521**2)
        counts = {}
        assert _trial_divide(65521 * q, counts) == 65521 * q and counts == {}
        assert _trial_divide(4099 * 65521 * q, counts) == q
        assert counts == {4099: 1, 65521: 1}

    def test_composite_below_2_48_split_for_an_n_above_2_64(self, monkeypatch):
        rng = random.Random(4848)
        p, q = random_prime(rng, 24), random_prime(rng, 24)
        n = (p * q) ** 2
        assert n >= 1 << 64 and p * q < 1 << 48
        seen = []

        def spy(m, counts, budget):
            seen.append(m)
            return _split(m, counts, budget)

        monkeypatch.setattr(arith, "_split", spy)
        counts = {}
        _split(n, counts, DEFAULT_RHO_BUDGET)
        assert p * q in seen
        assert tuple(sorted(counts.items())) == sympy_pairs(n)

    @given(
        st.integers(0, 10**6),
        st.integers(20, 80),
        st.integers(0, 63),
        st.integers(0, 5000),
    )
    def test_walks_keep_to_their_budget(self, rng_seed, bits, seed, budget):
        n = random_semiprimes(rng_seed, bits // 2, bits - bits // 2, 1)[0]
        g, spent = _brent_rho(n, seed, budget)
        assert 0 <= spent <= budget
        if g is not None:
            assert 1 < g <= n and n % g == 0
            # A bigger budget only lets the same walk run longer.
            assert _brent_rho(n, seed, DEFAULT_RHO_BUDGET) == (g, spent)

    def test_square_search_splits_48_bit_semiprimes_without_rho(self, monkeypatch):
        steps = []

        def spy(n, seed, budget):
            g, spent = _brent_rho(n, seed, budget)
            steps.append(spent)
            return g, spent

        monkeypatch.setattr(arith, "_brent_rho", spy)
        for n in random_semiprimes(4848, 24, 24, 10):
            assert n < 1 << 48
            counts = {}
            _split(n, counts, DEFAULT_RHO_BUDGET)
            assert tuple(sorted(counts.items())) == sympy_pairs(n)
        assert steps == []

    def test_parts_below_2_24_skip_the_primality_test(self, monkeypatch):
        # Free of factors below 2^12, a part below 2^24 is prime: of each
        # 48-bit semiprime only n itself is tested, not its 24-bit factors.
        tested = []

        def spy(n):
            tested.append(n)
            return is_prime(n)

        monkeypatch.setattr(arith, "is_prime", spy)
        semiprimes = random_semiprimes(2424, 24, 24, 10)
        for n in semiprimes:
            counts = {}
            _split(n, counts, DEFAULT_RHO_BUDGET)
            assert tuple(sorted(counts.items())) == sympy_pairs(n)
        assert tested == semiprimes
        # factor hands a remainder below 2^24 to _split, which records it.
        tested.clear()
        for p in (4099, 65521, (1 << 24) - 3):
            assert arith._factor.__wrapped__(8 * p, DEFAULT_RHO_BUDGET).pairs() == ((2, 3), (p, 1))
        assert tested == []

    def test_a_starved_walk_reports_the_budget(self):
        # Above 2^91 there is no square search, and rho needs about 2^20 steps
        # for a 40-bit factor, so each of these budgets runs out in a walk,
        # which then stops rather than restarting.
        n = next_prime_at_least(1 << 40) * next_prime_at_least(1 << 60)
        for budget in range(0, 4000, 97):
            with pytest.raises(FactorizationBudgetExceeded) as exc:
                factor(n, budget=budget)
            assert str(exc.value) == f"factoring budget {budget} exhausted splitting {n}"


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
        # The probe walk spends `probe` steps (its next doubling round does
        # not fit) and the square search splits HARD_SEMIPRIME on trial 15, so
        # the split needs probe + 15 units of budget and no fewer.
        g, probe = _brent_rho(HARD_SEMIPRIME, 0, 50)
        assert g is None and reference_one_line(HARD_SEMIPRIME, 15)[1] == 15
        assert _brent_rho(HARD_SEMIPRIME, 0, probe + 14) == (None, probe)
        with pytest.raises(FactorizationBudgetExceeded, match="exhausted"):
            factor(HARD_SEMIPRIME, budget=probe + 14)
        f = factor(HARD_SEMIPRIME, budget=probe + 15)
        assert f.pairs() == ((HARD_P, 1), (HARD_Q, 1))

    def test_rejects_negative_budget(self):
        for n in (72, 1000000016000000063):
            with pytest.raises(ValueError, match="budget"):
                factor(n, budget=-5)

    def test_zero_budget_is_valid(self):
        assert factor(72, budget=0).pairs() == ((2, 3), (3, 2))
        assert factor(4099**3 * 65521, budget=0).pairs() == ((4099, 3), (65521, 1))
        with pytest.raises(FactorizationBudgetExceeded, match="budget 0 exhausted"):
            factor(HARD_SEMIPRIME, budget=0)

    def test_square_search_trials_draw_on_the_budget(self):
        n = random_semiprimes(48, 24, 24, 1)[0]
        with pytest.raises(FactorizationBudgetExceeded):
            factor(n, budget=100)
        # One unit of budget per trial: the close pair splits on trial 30 with
        # the probe walk's steps plus 30, and not with one unit less.
        p, q = close_pair(1 << 24)
        g, probe = _brent_rho(p * q, 0, int(_RHO_PROBE * (p * q) ** (1 / 6)))
        assert g is None and reference_one_line(p * q, 30) in ((p, 30), (q, 30))
        with pytest.raises(FactorizationBudgetExceeded):
            factor(p * q, budget=probe + 29)
        assert factor(p * q, budget=probe + 30).pairs() == ((p, 1), (q, 1))

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
        assert sum(f.exponents) == 5
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
            assert mobius(n) == (-1) ** factor(n).m


class TestInvariants:
    @given(factorizations())
    def test_omega_le_big_omega_le_log2(self, f):
        assert f.m <= sum(f.exponents) <= math.log2(f.value) + 1e-9

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
