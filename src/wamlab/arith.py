"""Integer factorization primitives sized for 128-bit inputs.

Factorizations are the substrate for every weighted-multiplicity computation in
this package, so this module keeps its own primality test and splitter instead
of delegating: the iteration budget is part of the public contract
(`FactorizationBudgetExceeded`), and callers rely on the exponent ordering
guarantees of :class:`Factorization`.

A composite is split in Lehman's order.  Below 2^64, one vectorized trial
division first divides out every prime in (2^12, min(n^(1/3), 2^16)]; like
the gcd with the primes below 2^12, it is a fixed amount of work and draws
on no budget.  Three phases then draw on one budget: a short Brent rho walk,
which finds a factor below about n^(1/3) and runs only where the trial
division cannot have removed every such factor (n >= 2^48); Hart's one-line
square search (a vectorized form of Lehman's method), which finds the
balanced factors of n below about 2^91; and Brent rho again, with whatever
is left.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_VALUE = 1 << 127
DEFAULT_RHO_BUDGET = 10**8

# The phases of _split.  Below 2^64 the trial division by _trial_primes()
# comes first and costs no budget; below 2^48 it leaves no factor under
# n^(1/3), so there the rho probe does not run.  Otherwise the first rho walk
# stops within _RHO_PROBE * n^(1/6) steps, which finds a factor below n^(1/3)
# (rho needs about sqrt(p) steps).  The square search then runs up to
# n^(1/3) trials, Lehman's range, in numpy chunks of _OLF_CHUNK, and only
# while k n i <= _OLF_LIMIT, where its uint64 and float64 steps are exact.
_RHO_PROBE = 4
_OLF_MULT = 480
_OLF_CHUNK = 4096
_OLF_LIMIT = 1 << 100

# Deterministic Miller-Rabin witness ladder.  Each entry (bound, bases) is a
# set of bases with no composite strong pseudoprime below the bound; the last
# entry covers everything below 2^64 and beyond (up to ~3.2e23).  Above it
# is_prime runs Baillie-PSW, which has no known counterexample.
_MR_LADDER: tuple[tuple[int, tuple[int, ...]], ...] = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (9080191, (31, 73)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)


def _primes_upto(limit: int) -> list[int]:
    """The primes p <= limit, by the sieve of Eratosthenes."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).tolist()


_SMALL_PRIMES = _primes_upto(1 << 12)
_SMALL_PRIME_SET = set(_SMALL_PRIMES)
#: The product of the primes below 2^12 (5,811 bits): one gcd with it finds
#: every small prime factor of n at once.
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)


@lru_cache(maxsize=None)
def _trial_primes() -> np.ndarray:
    """The 5,978 primes in (2^12, 2^16] as uint64, which _split divides out
    of n < 2^64.  Built on first use, so that the import does not pay for
    the sieve."""
    return np.array(_primes_upto(1 << 16)[len(_SMALL_PRIMES) :], dtype=np.uint64)


class FactorizationBudgetExceeded(RuntimeError):
    """Splitting one composite spent the whole budget of rho steps and
    square-search trials."""


def _mr_witness(n: int, a: int, d: int, r: int) -> bool:
    # True if `a` witnesses that odd n = d * 2^r + 1 is composite.
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd non-square n, with
    Selfridge's parameters: the first D in 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1, Q = (1 - D)/4."""
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else 2 - D
    if j == 0:  # gcd(|D|, n) > 1, and |D| < n at the sizes is_prime asks about
        return False
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s

    def half(x: int) -> int:
        x %= n
        return (x + n) // 2 if x & 1 else x // 2

    # U_k, V_k and Q^k mod n, k running over the leading bits of d.
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(D * u + v), qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test: deterministic below ~3.2e23, Baillie-PSW above.

    >>> is_prime(2047)
    False
    >>> is_prime(2**61 - 1)
    True
    """
    if n < 2:
        return False
    if n < 1 << 12:
        return n in _SMALL_PRIME_SET
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return False
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for bound, bases in _MR_LADDER:
        if n < bound:
            return not any(_mr_witness(n, a, d, r) for a in bases)
    if math.isqrt(n) ** 2 == n:
        return False
    return not _mr_witness(n, 2, d, r) and _strong_lucas(n)


def _brent_rho(n: int, seed: int, budget: int) -> tuple[int | None, int]:
    """One Brent-cycle rho run on odd composite n.

    Returns (g, iterations spent), with spent <= budget: g is a factor
    1 < g < n, which may be composite (callers split recursively), or n if
    the walk failed, or None if the budget ran out first.  A doubling round
    costs 2r iterations and runs only if it fits in what is left.
    """
    rng = random.Random(seed * 0x9E3779B97F4A7C15 + n)
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = q = r = 1
    x = ys = y
    spent = 0
    while g == 1:
        if spent + 2 * r > budget:
            return None, spent
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        spent += 2 * r
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            if spent >= budget:
                return None, spent
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            spent += 1
    return g, spent


def _one_line(n: int, trials: int) -> tuple[int | None, int]:
    """Hart's one-line factoring of odd composite n, for i = 1 .. trials.

    With k = _OLF_MULT, s = ceil(sqrt(k n i)) and m = s^2 - k n i: if m = t^2
    then gcd(s - t, n) may split n.  Needs k n trials <= _OLF_LIMIT = 2^100,
    so s <= 2^50 and m < 2^53: the wrapped uint64 difference is exact and
    float64 finds t exactly.  Returns (factor or None, trials spent).
    """
    kn = _OLF_MULT * n
    kn_low = np.uint64(kn & 0xFFFF_FFFF_FFFF_FFFF)
    root_kn = math.sqrt(kn)
    for lo in range(1, trials + 1, _OLF_CHUNK):
        i = np.arange(lo, min(lo + _OLF_CHUNK, trials + 1), dtype=np.uint64)
        kni = kn_low * i  # k n i mod 2^64
        s = np.ceil(root_kn * np.sqrt(i)).astype(np.uint64)
        # s is within 1 of the true ceiling; m wraps back into int64 exactly.
        m = (s * s - kni).view(np.int64)
        s += m < 0
        s -= m >= (2 * s - 1).view(np.int64)
        m = s * s - kni
        t = np.sqrt(m.astype(np.float64)).astype(np.uint64)
        for j in np.flatnonzero(t * t == m):
            g = math.gcd(int(s[j]) - int(t[j]), n)
            if 1 < g < n:
                return g, lo + int(j)
    return None, trials


def _trial_divide(n: int, counts: dict[int, int]) -> int:
    """n < 2^64 with every prime in (2^12, min(n^(1/3), 2^16)] divided out
    into counts: one numpy pass, Lehman's first step."""
    cube = round(n ** (1 / 3))
    cube -= cube**3 > n  # round() gives the floor of the cube root or one more
    table = _trial_primes()
    table = table[: table.searchsorted(np.uint64(cube), "right")]
    for p in table[np.uint64(n) % table == 0].tolist():
        n = _divide_out(n, p, counts)
    return n


def _split(n: int, counts: dict[int, int], budget: int) -> None:
    # n odd, free of factors below 2^12, so below 2^24 it is 1 or a prime.
    if n == 1:
        return
    if n < 1 << 24 or is_prime(n):
        counts[n] = counts.get(n, 0) + 1
        return
    root = math.isqrt(n)
    if root * root == n:
        _split(root, counts, budget)
        _split(root, counts, budget)
        return
    if n < 1 << 64:
        rem = _trial_divide(n, counts)
        if rem < n:
            _split(rem, counts, budget)
            return
    remaining = budget
    g = None
    if n >= 1 << 48:
        g, spent = _brent_rho(n, 0, min(remaining, int(_RHO_PROBE * n ** (1 / 6))))
        remaining -= spent
    if g is None or g == n:
        trials = min(remaining, int(n ** (1 / 3)), _OLF_LIMIT // (_OLF_MULT * n))
        g, spent = _one_line(n, trials)
        remaining -= spent
    attempt = 0
    while g is None or g == n:
        attempt += 1
        if attempt == 64:
            raise FactorizationBudgetExceeded(f"rho failed to split {n} after 64 restarts")
        g, spent = _brent_rho(n, attempt, remaining)
        if g is None:
            raise FactorizationBudgetExceeded(
                f"factoring budget {budget} exhausted splitting {n}"
            )
        remaining -= spent
    _split(g, counts, budget)
    _split(n // g, counts, budget)


@dataclass(frozen=True)
class Factorization:
    """n = prod(p_k ** e_k) with primes strictly increasing.

    `primes` and `exponents` are parallel tuples; `primes[-1]` is p_m, the
    largest prime factor, and `exponents[-1]` its multiplicity e_m.
    """

    value: int
    primes: tuple[int, ...]
    exponents: tuple[int, ...]

    @property
    def m(self) -> int:
        """Number of distinct prime factors (omega)."""
        return len(self.primes)

    @property
    def e_m(self) -> int:
        """Multiplicity of the largest prime factor: the limit of wam(n, a)
        as real a -> +inf."""
        if not self.exponents:
            raise ValueError("1 has no prime factors")
        return self.exponents[-1]

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.primes, self.exponents))


def _divide_out(rem: int, p: int, counts: dict[int, int]) -> int:
    """rem with every factor p removed, their number added to counts[p]."""
    e = 0
    while rem % p == 0:
        rem //= p
        e += 1
    counts[p] = counts.get(p, 0) + e
    return rem


@lru_cache(maxsize=1 << 15)
def _factor(n: int, budget: int) -> Factorization:
    counts: dict[int, int] = {}
    rem = n
    # g is the product of the distinct primes below 2^12 that divide n.  It
    # is squarefree, so once p * p > g what is left of it is 1 or a prime.
    g = math.gcd(n, _SMALL_PRIMORIAL)
    for p in _SMALL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            rem = _divide_out(rem, p, counts)
    if g > 1:
        rem = _divide_out(rem, g, counts)
    _split(rem, counts, budget)  # rem has no factor below 2^12
    items = sorted(counts.items())
    out = Factorization(n, tuple(p for p, _ in items), tuple(e for _, e in items))
    if math.prod(p**e for p, e in items) != n:
        raise RuntimeError(f"factors {items} do not multiply back to {n}")
    return out


def factor(n: int, *, budget: int = DEFAULT_RHO_BUDGET) -> Factorization:
    """Factor n completely.  Domain: 1 <= n < 2^127.

    >>> factor(2047).pairs()
    ((23, 1), (89, 1))
    >>> factor(1).primes
    ()
    """
    if not isinstance(n, int):
        raise ValueError(f"expected an integer, got {type(n).__name__}")
    if n < 1 or n >= MAX_VALUE:
        raise ValueError(f"n must satisfy 1 <= n < 2^127, got {n}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    return _factor(n, budget)


def radical(f: Factorization) -> int:
    """Product of the distinct primes of f.

    >>> radical(factor(72))
    6
    """
    return math.prod(f.primes)


def mobius(n: int) -> int:
    """Moebius function: 0 unless n squarefree, else (-1)^omega."""
    f = factor(n)
    if any(e > 1 for e in f.exponents):
        return 0
    return -1 if len(f.primes) % 2 else 1
