"""Polynomials over prime fields: factorization, wam, and ABC triples.

Heights in the polynomial world are degrees: for f = u * prod p_k^{e_k}
with monic irreducible p_k,

    wam(f, s) = sum_k e_k (deg p_k)^s / sum_k (deg p_k)^s,

with (deg)^s = exp(s * ln deg) (real log, deg >= 1; degree-1 factors
contribute the constant 1 at every s).  The module also builds explicit
polynomial ABC triples: two monic irreducibles of degree n sharing their
low-order coefficients differ by x^{n-k} * R with small R, giving a
triple whose middle term has a high-multiplicity factor x.  Mason's
inequality pins wam(abc, 1) <= 3 for every valid triple, a theorem here
rather than a conjecture.

poly_factor and is_irreducible share one Frobenius-gcd loop, the
distinct-degree split: is_irreducible is Ben-Or's test, which stops at
the loop's first part.  The loop keeps x^(q^d) modulo its input in one
ring and takes one gcd per block of degrees [d, 2d).  Every power modulo
a fixed f runs in one numpy kernel (_ModRing), which tabulates
x^(n+j) mod f and, where that costs fewer products than square-and-
multiply, the Frobenius map as x^(iq) mod f; both functions therefore
raise ValueError above degree MAX_FACTOR_DEGREE = 64.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .arith import is_prime, mobius
from .wamcore import WamEvaluation, wam_at, wam_sums

MAX_CHARACTERISTIC = 1 << 16
MAX_FACTOR_DEGREE = 64
#: Enumerating monic irreducibles stays below this many candidates (q^n).
ENUMERATION_LIMIT = 1 << 26


class ZeroPolynomial(ValueError):
    """The zero polynomial has no factorization."""


class InvalidPolyTriple(ValueError):
    """a + b != c, a common factor, or all formal derivatives vanish."""


class PreconditionFailed(ValueError):
    """The pigeonhole construction does not apply at these (q, n)."""


class EnumerationBudget(RuntimeError):
    """q^n exceeds the enumeration budget for the pigeonhole scan."""


@lru_cache(maxsize=64)
def _check_characteristic(q: int) -> None:
    if not isinstance(q, int) or q < 2 or q > MAX_CHARACTERISTIC:
        raise ValueError(f"characteristic must be a prime <= 2^16, got {q}")
    if not is_prime(q):
        raise ValueError(f"characteristic must be prime, got {q}")


# ----------------------------------------------------------------------
# low-level coefficient-list arithmetic (lowest degree first, not
# necessarily stripped); every function takes the modulus p explicitly


def _lstrip(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _ladd(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _lstrip(out)


def _lsub(a, b, p):
    return _ladd(a, [-c for c in b], p)


def _lmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _lstrip([c % p for c in out])


def _ldivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    quot = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        coef = (a[-1] * inv) % p
        shift = len(a) - 1 - db
        quot[shift] = coef
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * bc) % p
        _lstrip(a)
    return _lstrip(quot), a


def _lmonic(a, p):
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [(c * inv) % p for c in a]


def _lgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _ldivmod(a, b, p)[1]
    return _lmonic(a, p)


def _lderiv(a, p):
    return _lstrip([(i * c) % p for i, c in enumerate(a)][1:])


class _ModRing:
    """Arithmetic in F_p[x]/(f) for one fixed f of degree n.

    Residues are int64 vectors of length n, lowest degree first.  f is made
    monic once, and R[j] = x^(n+j) mod f (j = 0..n-2) is tabulated once, so
    a product c = a*b (np.convolve, then mod p) folds back to degree < n as
    (c[:n] + c[n:] @ R) mod p.  int64 bound: every sum in the convolution
    and in the fold is at most n*(p-1)^2 + p < 2^38 for n <= 64, p <= 2^16.
    R holds n^2 entries, so n > MAX_FACTOR_DEGREE raises ValueError.  The
    Frobenius table Q[i] = x^(ip) mod f is built only on request.
    """

    def __init__(self, f: list[int], p: int):
        n = len(f) - 1
        if n > MAX_FACTOR_DEGREE:
            raise ValueError(f"degree {n} exceeds {MAX_FACTOR_DEGREE}")
        self.f, self.p, self.n = _lmonic(f, p), p, n
        self.R = np.zeros((max(n - 1, 0), n), dtype=np.int64)
        if n > 1:
            self.R[0] = [-c % p for c in self.f[:n]]
        for j in range(1, n - 1):  # x^(n+j) = x * x^(n+j-1)
            self.R[j, 1:] = self.R[j - 1, :-1]
            self.R[j] = (self.R[j] + self.R[j - 1, -1] * self.R[0]) % p
        self.Q = None

    def residue(self, a: list[int]) -> np.ndarray:
        """a mod f, for a coefficient list of any length."""
        r = _ldivmod(a, self.f, self.p)[1]
        return np.array(r + [0] * (self.n - len(r)), dtype=np.int64)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        c = np.convolve(a, b) % self.p
        return (c[: self.n] + np.dot(c[self.n :], self.R)) % self.p

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        """a^e for e >= 1, by left-to-right square-and-multiply."""
        result = a
        for bit in bin(e)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result

    def tabulate_frobenius(self, xq: np.ndarray) -> None:
        """Q[i] = x^(i p) mod f from xq = x^p mod f, with n - 2 products."""
        self.Q = np.zeros((self.n, self.n), dtype=np.int64)
        self.Q[0, 0], self.Q[1] = 1, xq
        for i in range(2, self.n):
            self.Q[i] = self.mul(self.Q[i - 1], xq)

    def frobenius(self, a: np.ndarray) -> np.ndarray:
        """a^p = sum_i a_i x^(i p) over F_p: a @ Q once Q is tabulated (its
        sums are at most n (p - 1)^2 < 2^38), else square-and-multiply."""
        return self.pow(a, self.p) if self.Q is None else np.dot(a, self.Q) % self.p


def _llist(a: np.ndarray) -> list[int]:
    return _lstrip(a.tolist())


@dataclass(frozen=True)
class FpPoly:
    """A polynomial over F_p, p prime, dense lowest-degree-first coeffs."""

    characteristic: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        _check_characteristic(self.characteristic)
        coeffs = [c % self.characteristic for c in self.coefficients]
        _lstrip(coeffs)
        object.__setattr__(self, "coefficients", tuple(coeffs))

    # -- constructors --------------------------------------------------
    @classmethod
    def one(cls, q: int) -> "FpPoly":
        return cls(q, (1,))

    @classmethod
    def x_power(cls, q: int, k: int = 1) -> "FpPoly":
        return cls(q, (0,) * k + (1,))

    @classmethod
    def parse(cls, text: str) -> "FpPoly":
        """Parse the "c0,c1,...,cd@q" serialization.

        >>> FpPoly.parse("1,1,0,0,1@2").degree
        4
        """
        body, _, char = text.partition("@")
        if not char:
            raise ValueError(f"missing '@q' characteristic suffix in {text!r}")
        coeffs = tuple(int(c) for c in body.split(","))
        return cls(int(char), coeffs)

    # -- basic structure -----------------------------------------------
    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def lead(self) -> int:
        if self.is_zero:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def __str__(self) -> str:
        if self.is_zero:
            return f"0@{self.characteristic}"
        body = ",".join(str(c) for c in self.coefficients)
        return f"{body}@{self.characteristic}"

    def _wrap(self, coeffs: list[int]) -> "FpPoly":
        return FpPoly(self.characteristic, tuple(coeffs))

    def _require_same_field(self, other: "FpPoly") -> None:
        if self.characteristic != other.characteristic:
            raise ValueError("mixed characteristics")

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "FpPoly") -> "FpPoly":
        self._require_same_field(other)
        p = self.characteristic
        return self._wrap(_ladd(list(self.coefficients), list(other.coefficients), p))

    def __sub__(self, other: "FpPoly") -> "FpPoly":
        self._require_same_field(other)
        p = self.characteristic
        return self._wrap(_lsub(list(self.coefficients), list(other.coefficients), p))

    def __mul__(self, other: "FpPoly") -> "FpPoly":
        self._require_same_field(other)
        p = self.characteristic
        return self._wrap(_lmul(list(self.coefficients), list(other.coefficients), p))

    def gcd(self, other: "FpPoly") -> "FpPoly":
        self._require_same_field(other)
        return self._wrap(
            _lgcd(list(self.coefficients), list(other.coefficients), self.characteristic)
        )

    def derivative(self) -> "FpPoly":
        return self._wrap(_lderiv(list(self.coefficients), self.characteristic))

    def sort_key(self):
        return (self.degree, self.coefficients)


@dataclass(frozen=True)
class PolyFactorization:
    """unit * product of (monic irreducible)^exponent, canonically sorted."""

    unit: int
    factors: tuple[tuple[FpPoly, int], ...]
    characteristic: int

    @property
    def value(self) -> FpPoly:
        acc = FpPoly(self.characteristic, (self.unit,))
        for poly, e in self.factors:
            for _ in range(e):
                acc = acc * poly
        return acc


def _pth_root(coeffs: list[int], p: int) -> list[int]:
    """p-th root of g(x^p) over F_p; Frobenius fixes the coefficients."""
    return _lstrip(list(coeffs[::p]))


def _squarefree_parts(coeffs: list[int], p: int):
    """Yield (squarefree monic coeff list, multiplicity) covering the input."""
    out: list[tuple[list[int], int]] = []

    def rec(f: list[int], scale: int) -> None:
        if len(f) <= 1:
            return
        df = _lderiv(f, p)
        if not df:
            rec(_pth_root(f, p), scale * p)
            return
        c = _lgcd(f, df, p)
        w = _ldivmod(f, c, p)[0]
        i = 1
        while len(w) > 1:
            y = _lgcd(w, c, p)
            z = _ldivmod(w, y, p)[0]
            if len(z) > 1:
                out.append((z, scale * i))
            w = y
            c = _ldivmod(c, y, p)[0]
            i += 1
        if len(c) > 1:
            rec(_pth_root(c, p), scale * p)

    rec(_lmonic(coeffs, p), 1)
    return out


def _distinct_degree(coeffs: list[int], q: int):
    """Yield (product, d) parts of f, each product of degree-d irreducibles.

    For squarefree monic f the parts cover f.  For any f the first part has
    d = deg f exactly when f is irreducible: a reducible f has an
    irreducible factor of degree d <= deg f / 2, which divides
    gcd(x^(q^d) - x, f) (Ben-Or's test).

    x^(q^d) is kept modulo the input, which the remaining f divides.  Each
    block of degrees [lo, 2 lo) takes one gcd of f with the product of its
    x^(q^d) - x, and a gcd per degree only where that gcd has a factor.  The
    Frobenius table is built after the first step where its n - 2 products
    cost less than square-and-multiply's c in each of the at most
    n // 2 - 1 later steps.
    """
    f = list(coeffs)
    ring = _ModRing(f, q)
    x = h = ring.residue([0, 1])  # h = x^(q^d) mod the input
    c = q.bit_length() + bin(q).count("1") - 2  # products in ring.pow(h, q)
    tabulate = ring.n - 2 < (ring.n // 2 - 1) * c
    lo = 1
    while len(f) > 1:
        if 2 * lo > len(f) - 1:
            yield f, len(f) - 1
            return
        hi = min(2 * lo - 1, (len(f) - 1) // 2)
        gaps = []  # x^(q^d) - x for d in [lo, hi]
        for d in range(lo, hi + 1):
            if d == 2 and tabulate:
                ring.tabulate_frobenius(h)
            h = ring.frobenius(h)
            gaps.append((h - x) % q)
        block = _lgcd(_llist(reduce(ring.mul, gaps)), f, q)
        for d, gap in zip(range(lo, hi + 1), gaps):
            if len(block) == 1:
                break
            if d == hi or len(block) - 1 == d:  # only degree-d factors are left
                g = block
            elif len(block) - 1 < 2 * d:  # one irreducible, of degree above d
                continue
            else:
                g = _lgcd(_llist(gap), block, q)
            if len(g) > 1:
                yield g, d
                f = _ldivmod(f, g, q)[0]
                block = _ldivmod(block, g, q)[0]
        lo = hi + 1


def _equal_degree(coeffs: list[int], d: int, q: int, rng: random.Random):
    """Cantor-Zassenhaus split of a product of degree-d irreducibles."""
    n = len(coeffs) - 1
    if n == d:
        return [coeffs]
    ring = _ModRing(coeffs, q)
    while True:
        r = [rng.randrange(q) for _ in range(n)]
        _lstrip(r)
        if len(r) <= 1:
            continue
        if q == 2:  # trace r + r^2 + ... + r^(2^(d-1))
            trace = sq = ring.residue(r)
            for _ in range(d - 1):
                sq = ring.mul(sq, sq)
                trace = (trace + sq) % 2
            t = _lgcd(_llist(trace), coeffs, 2)
        else:
            u = ring.pow(ring.residue(r), (q**d - 1) // 2)
            t = _lgcd(_lsub(_llist(u), [1], q), coeffs, q)
        if not 0 < len(t) - 1 < n:
            continue
        rest = _ldivmod(coeffs, t, q)[0]
        return _equal_degree(t, d, q, rng) + _equal_degree(rest, d, q, rng)


def poly_factor(poly: FpPoly) -> PolyFactorization:
    """Canonical factorization into monic irreducibles.

    Square-free decomposition (with p-th-root descent for vanishing
    derivatives), then distinct-degree splitting, then randomized
    equal-degree splitting.  The factors are sorted, so the split's seed
    (one constant) decides only how many draws it takes, not the result.

    >>> [str(f) for f, e in poly_factor(FpPoly.parse("1,0,1@2")).factors]
    ['1,1@2']
    """
    if poly.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if poly.degree > MAX_FACTOR_DEGREE:
        raise ValueError(f"degree {poly.degree} exceeds {MAX_FACTOR_DEGREE}")
    q = poly.characteristic
    unit = poly.lead
    exponents: dict[FpPoly, int] = {}
    if poly.degree >= 1:
        rng = random.Random(0)
        for part, mult in _squarefree_parts(list(poly.coefficients), q):
            for prod, d in _distinct_degree(part, q):
                for irr in _equal_degree(prod, d, q, rng):
                    f = FpPoly(q, tuple(irr))
                    exponents[f] = exponents.get(f, 0) + mult
    factors = tuple(sorted(exponents.items(), key=lambda fe: fe[0].sort_key()))
    return PolyFactorization(unit, factors, q)


def is_irreducible(poly: FpPoly) -> bool:
    """Deterministic irreducibility test (Ben-Or), exact for every poly.

    Degrees above MAX_FACTOR_DEGREE raise ValueError.
    """
    n = poly.degree
    if n < 1:
        return False
    return next(_distinct_degree(list(poly.coefficients), poly.characteristic))[1] == n


def count_irreducibles(q: int, n: int) -> int:
    """Number of monic irreducible degree-n polynomials over F_q.

    Exact Moebius sum (1/n) sum_{d|n} mu(d) q^{n/d}; the q^n < 2^63 guard
    keeps the arithmetic in machine-checkable range.

    >>> count_irreducibles(2, 4)
    3
    """
    _check_characteristic(q)
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    # q^n >= 2^(n (bits(q) - 1)): a huge n is refused before q^n is built
    if n * (q.bit_length() - 1) >= 63 or q**n >= 1 << 63:
        raise OverflowError(f"q^n = {q}^{n} exceeds 2^63")
    total = sum(mobius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0)
    if total % n:
        raise RuntimeError(f"Moebius sum {total} is not divisible by {n}")
    return total // n


@dataclass(frozen=True)
class PolyAbcTriple:
    """Coprime a + b = c over one F_p, not all derivatives zero."""

    a: FpPoly
    b: FpPoly
    c: FpPoly

    @property
    def characteristic(self) -> int:
        return self.a.characteristic


def validate_poly_triple(a: FpPoly, b: FpPoly, c: FpPoly) -> PolyAbcTriple:
    """Check the polynomial ABC-triple invariants and build the triple."""
    if a.characteristic != b.characteristic or b.characteristic != c.characteristic:
        raise InvalidPolyTriple("mixed characteristics")
    if a.is_zero or b.is_zero or c.is_zero:
        raise InvalidPolyTriple("zero entries are not allowed")
    if (a + b) != c:
        raise InvalidPolyTriple("a + b != c")
    if a.gcd(b).degree != 0:  # with a + b = c this covers all three pairs
        raise InvalidPolyTriple(f"common factor {a.gcd(b)}")
    if a.derivative().is_zero and b.derivative().is_zero and c.derivative().is_zero:
        raise InvalidPolyTriple("all formal derivatives vanish")
    return PolyAbcTriple(a, b, c)


def poly_wam(t: PolyAbcTriple, s: complex) -> WamEvaluation:
    """wam of abc at s, with degrees as heights.

    >>> one, x = FpPoly.one(2), FpPoly.x_power(2)
    >>> t = validate_poly_triple(one, x, one + x)
    >>> poly_wam(t, 1).value
    (1+0j)
    """
    # a, b and c are pairwise coprime, so their factors merge as they are;
    # wam_sums merges the factors of one degree.
    factors = [(float(p.degree), e) for x in (t.a, t.b, t.c) for p, e in poly_factor(x).factors]
    return wam_at(wam_sums(*zip(*factors)), s)


@dataclass(frozen=True)
class MasonStothersReport:
    """wam(abc, 1) against the polynomial ABC bound of 3."""

    wam_at_one: float
    bound: float
    holds: bool


def mason_stothers_check(t: PolyAbcTriple) -> MasonStothersReport:
    """wam(abc, 1) <= 3: a theorem for valid triples, verified numerically."""
    value = poly_wam(t, 1.0).value.real
    return MasonStothersReport(value, 3.0, value <= 3.0 + 1e-9)


def cyclotomic_wam_formula(p: int, s: complex) -> WamEvaluation:
    """Closed-form wam of the rational triple (1, x^p - 1, x^p), p prime.

    x^p has the factor x of degree 1, p times; x^p - 1 splits as (x - 1)
    times the cyclotomic polynomial of degree p - 1, irreducible over Q and
    over F_q for q a primitive root mod p.  So wam(abc, s) =
    (p + 1 + (p - 1)^s) / ((p - 1)^s + 2): the wam of degree heights
    (1, p - 1, 1) with multiplicities (p, 1, 1), evaluated like every other
    wam; no polynomial factorization is performed.

    >>> cyclotomic_wam_formula(5, 0).value
    (2.3333333333333335+0j)
    """
    if p < 2 or not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return wam_at(wam_sums([1.0, p - 1.0, 1.0], [p, 1, 1]), s)


@dataclass(frozen=True)
class PigeonholeConstruction:
    """A pigeonhole triple (Q, x^(n-k) R, P) plus how it was found.

    P and Q are monic irreducibles of degree n sharing their lower n-k
    coefficients; the counting bound irreducible_count > q^(n-k)
    guarantees such a pair exists.  Statistics describe the (early
    stopping) bucket scan that located the first collision.
    """

    triple: PolyAbcTriple
    q: int
    n: int
    k: int
    r_poly: FpPoly
    irreducible_count: int
    pigeonhole_bound: int
    buckets_scanned: int
    candidates_tested: int
    irreducibles_seen: int
    collision_lower: tuple[int, ...]


def pigeonhole_triple(q: int, n: int) -> PigeonholeConstruction:
    """Construct a polynomial ABC triple from an irreducible collision.

    With k = ceil(log_q n), the count of monic irreducibles of degree n
    must exceed q^(n-k) (checked, not assumed); two of them then share
    their lower n-k coefficients.  Scanning lower-coefficient buckets in
    lexicographic order and stopping at the first bucket holding two
    irreducibles returns the lexicographically smallest such pair.  The
    characteristic must not divide n (this keeps the derivative of
    x^(n-k) R nonzero: deg R < k and the x^n derivative term survives).
    """
    _check_characteristic(q)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n % q == 0:
        raise PreconditionFailed(
            f"characteristic {q} divides n = {n}; derivatives degenerate"
        )
    # q^n >= 2^(n (bits(q) - 1)): a huge n is refused before q^n is built
    if n * (q.bit_length() - 1) >= ENUMERATION_LIMIT.bit_length() or q**n > ENUMERATION_LIMIT:
        raise EnumerationBudget(f"q^n = {q}^{n} exceeds {ENUMERATION_LIMIT}")
    k = 0
    while q**k < n:
        k += 1
    count = count_irreducibles(q, n)
    bound = q ** (n - k)
    if count <= bound:
        raise PreconditionFailed(
            f"N_{q}({n}) = {count} <= {q}^{n - k} = {bound}: "
            "no collision is guaranteed at this size"
        )

    buckets_scanned = 0
    tested = 0
    seen = 0
    # Buckets are lower tuples (c_0, ..., c_{n-k-1}) in lexicographic order
    # from c_0 on; c_0 = 0 is skipped, since x | f makes f reducible for
    # every degree n >= 2.
    for lower in itertools.product(range(1, q), *[range(q)] * (n - k - 1)):
        buckets_scanned += 1
        hits: list[FpPoly] = []
        for upper in itertools.product(range(q), repeat=k):
            coeffs = lower + upper + (1,)
            if sum(coeffs) % q == 0:  # f(1) = 0 makes x-1 a factor
                continue
            tested += 1
            if is_irreducible(FpPoly(q, coeffs)):
                seen += 1
                hits.append(FpPoly(q, coeffs))
                if len(hits) == 2:
                    break
        if len(hits) == 2:
            qq, pp = hits
            b = pp - qq
            r_poly = FpPoly(q, b.coefficients[n - k :])
            triple = validate_poly_triple(qq, b, pp)
            return PigeonholeConstruction(
                triple=triple,
                q=q,
                n=n,
                k=k,
                r_poly=r_poly,
                irreducible_count=count,
                pigeonhole_bound=bound,
                buckets_scanned=buckets_scanned,
                candidates_tested=tested,
                irreducibles_seen=seen,
                collision_lower=lower,
            )
    raise RuntimeError("pigeonhole scan found no collision despite the bound")
