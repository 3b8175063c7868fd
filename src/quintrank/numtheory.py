"""Exact integer and polynomial arithmetic for quintic field screening.

Everything here is exact: Kronecker symbols by reciprocity, quintic
discriminants from one closed form (a quartic in a0 with coefficients in
a4..a1), real root counts of quintics from the sign of the discriminant
and, when it is positive, the leading minors of Hermite's power-sum
form, and factorization patterns mod p.  A quintic's pattern at a prime
not dividing its discriminant is read off the number of its roots mod p
and the Kronecker symbol (disc|p), by Stickelberger's theorem as stated
in R. G. Swan, Pacific J. Math. 12 (1962); only monic quintics are
factored.  factor_pattern_mod_p counts the roots at one
prime as deg gcd(x^p - x, f), and quintic_patterns counts them for a
whole block of primes in one pass, by gcds of f(x) with the product of
the block's primes above x.  The S5 verdict that reads these patterns,
and its two proofs of reducibility, live in galois.  Squarefree kernels
of integers come from one gcd with the product of the primes below
1000, then gcds with
products of runs of larger primes up to the trial bound (D. J.
Bernstein, "How to find smooth parts of integers", 2004) until the
cofactor is below the cube of the next untried prime, then Miller-Rabin,
once per cofactor and deterministic below the bound proven by Sorenson
and Webster (2017).
A cofactor that none of these resolves leaves complete=False.  One that
Miller-Rabin calls prime above that bound is taken as prime with
complete=True, so such a kernel rests on a probable prime (see
"Miller-Rabin range" in ROADMAP.md).
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import chain, compress, islice
from typing import Iterator, NamedTuple, Optional

DEFAULT_TRIAL_BOUND = 10 ** 6
DEFAULT_PRIME_BUDGET = 200
MAX_PRIME_BUDGET = 100_000    # first_primes(100_000) sieves to 2^21

# Miller-Rabin to the first 13 prime bases is deterministic below
# psi_13 = _MR_PROVEN (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN = 3317044064679887385961981
# squarefree_kernel takes one gcd with the product of the primes below
# _TRIAL_BELOW and then gcds with products of _CHUNK consecutive primes
# above it, which are sieved _SEGMENT odd numbers at a time
_TRIAL_BELOW = 1000
_CHUNK = 512
_SEGMENT = 1 << 15


def parse_int(text: str) -> int:
    """A decimal integer: an optional sign and ASCII digits, with
    surrounding whitespace.  Plain int() would also take underscores
    and non-ASCII digits."""
    stripped = text.strip()
    digits = stripped[1:] if stripped[:1] in ("+", "-") else stripped
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(stripped)


# -- polynomials -------------------------------------------------------------


def _trim(coeffs) -> tuple:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class IntPolynomial:
    """Immutable integer polynomial, coefficients low to high; the zero
    polynomial has an empty coefficient tuple."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(map(int, coeffs))
        if coeffs and not coeffs[-1]:
            coeffs = _trim(coeffs)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *_):
        raise AttributeError("IntPolynomial is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return (self.coeffs == other.coeffs if type(other) is IntPolynomial
                else NotImplemented)

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPolynomial(coeffs={self.coeffs!r})"

    @staticmethod
    def descending(coeffs) -> "IntPolynomial":
        return IntPolynomial(tuple(coeffs)[::-1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def lc(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            term = "x" if i == 1 else f"x^{i}" if i else ""
            mag = "" if abs(c) == 1 and i else str(abs(c))
            parts.append(("-" if c < 0 else "+", (mag + "*" + term).strip("*")
                          if mag and term else mag + term))
        sign0, body0 = parts[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


# -- Kronecker symbol --------------------------------------------------------


def kronecker_symbol(a: int, n: int) -> int:
    """Full Kronecker symbol (a|n) for arbitrary integers: (a|0) is 1
    exactly for a = +-1; (a|2) follows the mod-8 rule; (a|-1) is the
    sign of a."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    v2 = (n & -n).bit_length() - 1
    n >>= v2
    if v2:
        if a & 1 == 0:
            return 0
        if v2 & 1 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        t = 0
        while a & 1 == 0:
            a >>= 1
            t += 1
        if t & 1 and n % 8 in (3, 5):
            result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


# -- primes ------------------------------------------------------------------


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the 13 prime bases 2..41.  Deterministic for
    every n below _MR_PROVEN = psi_13 ~ 3.3e24 (J. Sorenson and J.
    Webster, Math. Comp. 86, 2017); a probable prime beyond."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _odd_primes(limit: int) -> Iterator[int]:
    """The odd primes up to limit, in order, from an odd-only sieve."""
    half = (limit + 1) // 2                # flags[i] stands for 2i + 1
    flags = bytearray([0]) + bytearray([1]) * (half - 1)  # 1 is not prime
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2::p] = bytes(len(range(p * p // 2, half, p)))
    return compress(range(1, limit + 1, 2), flags)


@lru_cache(maxsize=None)
def _sieve(limit: int) -> tuple[int, ...]:
    return (2,) * (limit >= 2) + tuple(_odd_primes(limit))


def first_primes(count: int) -> tuple[int, ...]:
    """The first count primes, a prefix of the primes up to a power of
    two, so that all counts share a handful of cached sieves."""
    # n-th prime is below n (ln n + ln ln n) for n >= 6
    bound = int(count * (math.log(count + 6)
                         + math.log(math.log(count + 6)))) + 10
    limit = 1 << bound.bit_length()
    while len(ps := _sieve(limit)) < count:
        limit *= 2
    return ps[:count]


@lru_cache(maxsize=None)
def _primorial(count: int) -> int:
    """The product of the first count primes, multiplied in pairs, layer
    by layer: a balanced tree, where one running product of the 100,000
    primes of MAX_PRIME_BUDGET takes ten times as long."""
    layer = first_primes(count)
    while len(layer) > 1:
        layer = [math.prod(layer[i:i + 2]) for i in range(0, len(layer), 2)]
    return math.prod(layer)


def good_prime_count(count: int, disc: int) -> int:
    """How many of the first count primes do not divide disc.  Those that
    do are the prime factors of the squarefree g = gcd(disc, their
    product), taken out by trial division only while p^2 <= g; what is
    left of g is then 1 or one more prime."""
    g = math.gcd(disc, _primorial(count))
    for p in first_primes(count):
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            count -= 1
    return count - (g > 1)


# -- integer squarefree kernel -------------------------------------------------


_SMALL_PRIMES = _sieve(_TRIAL_BELOW - 1)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)


class SquarefreeResult(NamedTuple):
    kernel: int
    complete: bool


def squarefree_kernel(n: int) -> SquarefreeResult:
    """Product of the primes dividing n to an odd power, with the sign
    of n.  Trial division up to the fixed bound DEFAULT_TRIAL_BOUND
    (10^6), then the cofactor is resolved when it is 1, a probable
    prime, a perfect square, or a semiprime forced by size (below p^3,
    p the smallest prime not tried); otherwise the cofactor is kept in
    the kernel and complete=False.  Above _MR_PROVEN a probable prime
    is not proven prime, yet it still gives complete=True (see
    "Miller-Rabin range" in ROADMAP.md).

    The primes below 1000 that divide n are those of one gcd with their
    product, and only they are divided out; a cofactor below 1000^2 is
    then 1 or a prime.  Larger primes up to the bound are taken 512 at a
    time as a product, whose gcd with the cofactor is peeled in layers,
    after D. J. Bernstein, "How to find smooth parts of integers"
    (2004).  The scan stops once the cofactor is a prime or below p^3,
    and Miller-Rabin runs once per distinct cofactor, as most runs leave
    it as it was."""
    if n == 0:
        raise ValueError("squarefree kernel of 0 is undefined")
    sign = -1 if n < 0 else 1
    m = abs(n)
    kernel = 1
    g = math.gcd(m, _SMALL_PRODUCT)
    for p in _SMALL_PRIMES:
        if g == 1:
            break
        if g % p == 0:
            g //= p
            m //= p
            e = 1
            while m % p == 0:
                m //= p
                e += 1
            if e & 1:
                kernel *= p
    if m < _TRIAL_BELOW ** 2:
        # no prime factor below 1000: the cofactor is 1 or a prime
        return SquarefreeResult(sign * kernel * m, True)
    prime = lru_cache(maxsize=1)(is_probable_prime)
    for below, product in _prime_products():
        if below ** 3 > m or m < _MR_PROVEN and prime(m):
            break
        # the k-th layer g holds the run's primes of exponent >= k,
        # and g // h those of exponent exactly k
        g = math.gcd(m, product % m)
        odd = True
        while g > 1:
            m //= g
            h = math.gcd(m, g)
            if odd:
                kernel *= g // h
            g, odd = h, not odd
    else:
        below = DEFAULT_TRIAL_BOUND     # no prime below it divides m
    if m == 1:
        return SquarefreeResult(sign * kernel, True)
    if prime(m):
        # cofactor is prime (exactly, or with MR confidence)
        return SquarefreeResult(sign * kernel * m, True)
    root = math.isqrt(m)
    if root * root == m:
        # a square cofactor has only even exponents, whatever its factors
        return SquarefreeResult(sign * kernel, True)
    if m < below ** 3:
        # all factors are at least `below`, so at most two of them; not
        # a prime and not a square forces two distinct primes
        return SquarefreeResult(sign * kernel * m, True)
    return SquarefreeResult(sign * kernel * m, False)


def _prime_segments(lo: int, limit: int) -> Iterator[Iterator[int]]:
    """The primes from lo to limit, in order, one iterator per segment
    of _SEGMENT odd numbers, for _TRIAL_BELOW <= lo and limit <=
    _TRIAL_BELOW^2, where every composite has a prime factor below
    _TRIAL_BELOW.  Each segment is an odd-only sieve by those primes,
    and its flags are dropped when the next one is sieved."""
    for start in range(lo | 1, limit + 1, 2 * _SEGMENT):
        size = min(_SEGMENT, (limit - start) // 2 + 1)
        flags = bytearray([1]) * size          # flags[i] stands for start + 2i
        for p in _SMALL_PRIMES[1:]:
            # start + 2i is the least odd multiple of p from start on;
            # it is not p itself, as p < start
            i = -start * ((p + 1) // 2) % p
            flags[i::p] = bytes(len(range(i, size, p)))
        yield compress(range(start, start + 2 * size, 2), flags)


@lru_cache(maxsize=None)
def _prime_products() -> tuple[tuple[int, int], ...]:
    """(smallest prime, product) of each run of _CHUNK consecutive
    primes from _TRIAL_BELOW to DEFAULT_TRIAL_BOUND.  The primes are
    streamed from a segmented sieve, so neither they nor a sieve of the
    whole range are ever held at once."""
    primes = chain.from_iterable(
        _prime_segments(_TRIAL_BELOW, DEFAULT_TRIAL_BOUND))
    out = []
    while run := list(islice(primes, _CHUNK)):
        # the product of two half products is a balanced multiplication,
        # cheaper than finishing one running product
        half = len(run) // 2
        out.append((run[0], math.prod(run[:half]) * math.prod(run[half:])))
    return tuple(out)


# -- discriminants and real root counts ---------------------------------------


def disc_coeffs_in_a0(a4: int, a3: int, a2: int, a1: int
                      ) -> tuple[int, int, int, int, int]:
    """(c4, c3, c2, c1, c0) with disc(x^5 + a4 x^4 + a3 x^3 + a2 x^2 +
    a1 x + a0) = c4 a0^4 + c3 a0^3 + c2 a0^2 + c1 a0 + c0: the 1, 6, 16,
    20 and 16 monomials of the discriminant grouped by powers of a0, in
    Horner form in a1, then a2, a3 and a4.  c4 = 5^5, and c0 is a1^2
    times the discriminant of x^4 + a4 x^3 + a3 x^2 + a2 x + a1."""
    c3 = (-2500 * a1 * a4 + a2 * (2000 * a4 ** 2 - 3750 * a3)
          + a3 * (2250 * a3 * a4 - 1600 * a4 ** 3) + 256 * a4 ** 5)
    c2 = (a1 * (a1 * (2000 * a3 - 50 * a4 ** 2)
                + a2 * (2250 * a2 - 2050 * a3 * a4 + 160 * a4 ** 3)
                + a3 * (a3 * (1020 * a4 ** 2 - 900 * a3) - 192 * a4 ** 4))
          + a2 * (a2 * (a3 * (825 * a3 + 560 * a4 ** 2) - 900 * a2 * a4
                        - 128 * a4 ** 4)
                  + a3 ** 2 * (144 * a4 ** 3 - 630 * a3 * a4))
          + a3 ** 4 * (108 * a3 - 27 * a4 ** 2))
    c1 = (a1 * (a1 * (a1 * (160 * a3 * a4 - 1600 * a2 - 36 * a4 ** 3)
                      + a2 * (1020 * a2 * a4 + a3 * (560 * a3 - 746 * a4 ** 2)
                              + 144 * a4 ** 4)
                      + a3 ** 2 * (24 * a3 * a4 - 6 * a4 ** 3))
                + a2 * (a2 * (a2 * (24 * a4 ** 2 - 630 * a3)
                              + a3 * (356 * a3 * a4 - 80 * a4 ** 3))
                        + a3 ** 3 * (18 * a4 ** 2 - 72 * a3)))
          + a2 ** 3 * (a2 * (108 * a2 - 72 * a3 * a4 + 16 * a4 ** 3)
                       + a3 ** 2 * (16 * a3 - 4 * a4 ** 2)))
    c0 = a1 ** 2 * (
        a1 * (a1 * (256 * a1 - 192 * a2 * a4 + a3 * (144 * a4 ** 2 - 128 * a3)
                    - 27 * a4 ** 4)
              + a2 * (a2 * (144 * a3 - 6 * a4 ** 2)
                      + a3 * (18 * a4 ** 3 - 80 * a3 * a4))
              + a3 ** 3 * (16 * a3 - 4 * a4 ** 2))
        + a2 ** 2 * (a2 * (18 * a3 * a4 - 27 * a2 - 4 * a4 ** 3)
                     + a3 ** 2 * (a4 ** 2 - 4 * a3)))
    return 3125, c3, c2, c1, c0


def poly_discriminant(f: IntPolynomial) -> int:
    """Discriminant of the quintic f, exact: disc_coeffs_in_a0 and one
    Horner step per power of a0.  For lc(f) = a != 1 this is applied to
    the monic a^4 f(y/a), whose discriminant is a^12 disc f."""
    if f.degree != 5:
        raise ValueError("expected a quintic")
    a0, a1, a2, a3, a4, a = f.coeffs
    if a != 1:
        a0, a1, a2, a3 = a0 * a ** 4, a1 * a ** 3, a2 * a ** 2, a3 * a
    disc = reduce(lambda acc, c: acc * a0 + c,
                  disc_coeffs_in_a0(a4, a3, a2, a1), 0)
    return disc if a == 1 else disc // a ** 12


def real_root_count(f: IntPolynomial, disc: Optional[int] = None) -> int:
    """Number r1 of real roots of the squarefree quintic f, with disc =
    disc(f) computed when not given.  sign(disc) = (-1)^r2 gives 3 when
    disc < 0, and r1 is 5 or 1 when disc > 0.  Then take the monic
    g = a^4 f(y/a) (a = lc f), with the same number of real roots, and
    its Hermite form [s_(i+j)], s_k the k-th power sum of g's roots: its
    signature is r1 and its determinant is disc g > 0 (Hermite), so
    r1 = 5 exactly when it is positive definite, that is when its
    leading minors D2, D3, D4 are positive (Sylvester).  The s_k come
    from Newton's identities and the minors from a fraction-free
    Bareiss elimination that stops at the first pivot <= 0."""
    if f.degree != 5:
        raise ValueError("expected a quintic")
    if disc is None:
        disc = poly_discriminant(f)
    if disc == 0:
        raise ValueError("polynomial has a repeated root")
    if disc < 0:
        return 3
    a0, a1, a2, a3, a4, a = f.coeffs
    c1, c2, c3, c4, c5 = a4, a3 * a, a2 * a ** 2, a1 * a ** 3, a0 * a ** 4
    s1 = -c1
    s2 = -c1 * s1 - 2 * c2
    s3 = -c1 * s2 - c2 * s1 - 3 * c3
    s4 = -c1 * s3 - c2 * s2 - c3 * s1 - 4 * c4
    s5 = -c1 * s4 - c2 * s3 - c3 * s2 - c4 * s1 - 5 * c5
    s6 = -c1 * s5 - c2 * s4 - c3 * s3 - c4 * s2 - c5 * s1
    # Bareiss on the symmetric [s_(i+j)], 0 <= i, j <= 3, with s0 = 5:
    # each step's first pivot is the next leading minor
    d2, u12, u13 = 5 * s2 - s1 * s1, 5 * s3 - s1 * s2, 5 * s4 - s1 * s3
    if d2 <= 0:
        return 1
    u22, u23, u33 = 5 * s4 - s2 * s2, 5 * s5 - s2 * s3, 5 * s6 - s3 * s3
    d3 = (u22 * d2 - u12 * u12) // 5
    if d3 <= 0:
        return 1
    v23 = (u23 * d2 - u12 * u13) // 5
    v33 = (u33 * d2 - u13 * u13) // 5
    return 5 if (v33 * d3 - v23 * v23) // d2 > 0 else 1


# -- arithmetic mod p ----------------------------------------------------------


def _pgcd(a, b, p):
    """Monic gcd mod p.  Remainders are reduced in place, popping the
    leading term that each step cancels; no quotient is built."""
    a, b = list(a), list(b)
    while b:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        while len(a) > db:
            c = a.pop() * inv % p
            if c:
                k = len(a) - db
                for i in range(db):
                    a[i + k] = (a[i + k] - c * b[i]) % p
        a, b = b, list(_trim(a))
    inv = pow(a[-1], -1, p) if a else 0
    return tuple(c * inv % p for c in a)


class FactorPattern(NamedTuple):
    squarefree: bool
    pattern: Optional[tuple[int, ...]]  # sorted factor degrees, or None


# Quintic patterns by Stickelberger's theorem in the form given by
# R. G. Swan, Pacific J. Math. 12 (1962): for monic f and p not
# dividing disc(f), p = 2 included, (disc|p) = (-1)^(5 - number of
# irreducible factors of f mod p).  That sign and the number r of roots mod p fix
# the pattern; no other (r, sign) pair can occur.
_QUINTIC_PATTERNS = {
    (r, sign): FactorPattern(True, pattern) for r, sign, pattern in (
        (0, 1, (5,)), (0, -1, (2, 3)), (1, -1, (1, 4)), (1, 1, (1, 2, 2)),
        (2, 1, (1, 1, 3)), (3, -1, (1, 1, 1, 2)), (5, 1, (1, 1, 1, 1, 1)))}


def _frobenius_quintic(c, p, power=0):
    """x^power (x^p when power is 0) mod f for monic f with ascending
    coefficients c mod p, by repeated squaring where each set bit of
    the exponent multiplies by x."""
    n0, n1, n2, n3, n4 = [-a % p for a in c[:5]]   # x^5 = sum n_i x^i
    u0, u1, u2, u3, u4 = 0, 1, 0, 0, 0
    for bit in bin(power or p)[3:]:
        w0 = u0 * u0
        w1 = 2 * u0 * u1
        w2 = 2 * u0 * u2 + u1 * u1
        w3 = 2 * (u0 * u3 + u1 * u2)
        w4 = 2 * (u0 * u4 + u1 * u3) + u2 * u2
        w5 = 2 * (u1 * u4 + u2 * u3)
        w6 = 2 * u2 * u4 + u3 * u3
        w7 = 2 * u3 * u4
        w8 = u4 * u4
        if bit == "1":
            # times x, folding the new x^9 = x^4 * x^5 back at once
            t = w8 % p
            w0, w1, w2, w3, w4, w5, w6, w7, w8 = (
                0, w0, w1, w2, w3 + t * n0, w4 + t * n1, w5 + t * n2,
                w6 + t * n3, w7 + t * n4)
        # fold x^8, x^7, x^6, x^5 back with x^5 = sum n_i x^i
        t = w8 % p
        w3, w4, w5, w6, w7 = (w3 + t * n0, w4 + t * n1, w5 + t * n2,
                              w6 + t * n3, w7 + t * n4)
        t = w7 % p
        w2, w3, w4, w5, w6 = (w2 + t * n0, w3 + t * n1, w4 + t * n2,
                              w5 + t * n3, w6 + t * n4)
        t = w6 % p
        w1, w2, w3, w4, w5 = (w1 + t * n0, w2 + t * n1, w3 + t * n2,
                              w4 + t * n3, w5 + t * n4)
        t = w5 % p
        w0, w1, w2, w3, w4 = (w0 + t * n0, w1 + t * n1, w2 + t * n2,
                              w3 + t * n3, w4 + t * n4)
        u0, u1, u2, u3, u4 = w0 % p, w1 % p, w2 % p, w3 % p, w4 % p
    return (u0, u1, u2, u3, u4)


def factor_pattern_mod_p(f: IntPolynomial, p: int, disc: int
                         ) -> FactorPattern:
    """Degrees of the irreducible factors of the monic quintic f mod p;
    pattern is omitted when f mod p has a repeated factor.  Read off the
    number of roots of f mod p, deg gcd(x^p - x, f), and (disc|p), with
    disc = disc(f); exact at every prime."""
    if f.degree != 5 or f.lc != 1:
        raise ValueError("expected a monic quintic")
    if disc % p == 0:
        return FactorPattern(False, None)
    c = [a % p for a in f.coeffs]
    w0, w1, w2, w3, w4 = _frobenius_quintic(c, p)
    roots = len(_pgcd(c, _trim([w0, (w1 - 1) % p, w2, w3, w4]), p)) - 1
    return _QUINTIC_PATTERNS[roots, kronecker_symbol(disc, p)]


def quintic_patterns(f: IntPolynomial, primes, disc: int
                     ) -> list[FactorPattern]:
    """Patterns of the monic quintic f at each of the increasing primes,
    none of which may divide disc = disc(f).

    The roots mod p of every listed p are counted in one pass: f(x) is
    evaluated once over the integers for x = 0 .. max(primes) - 1, and
    g = gcd(f(x), M) is taken with M the product of the listed primes
    above x (each prime is divided out of M when x reaches it).  A prime
    dividing g has a root at x; g is mostly 1 or a single prime, and
    f(x) = 0 gives g = M, a root for every prime above x (after D. J.
    Bernstein's prime-product gcds, 2004).  The pattern then follows
    from the root count and (disc|p) as in factor_pattern_mod_p."""
    c = f.coeffs
    if len(c) != 6 or c[5] != 1:
        raise ValueError("expected a monic quintic")
    primes = list(primes)
    if any(a >= b for a, b in zip(primes, primes[1:])):
        raise ValueError("primes must be strictly increasing")
    signs = []
    for p in primes:
        d = disc % p
        if d == 0:
            raise ValueError(f"p={p} divides the discriminant")
        signs.append(kronecker_symbol(disc, 2) if p == 2
                     else 1 if pow(d, (p - 1) // 2, p) == 1 else -1)
    roots = dict.fromkeys(primes, 0)
    a0, a1, a2, a3, a4 = c[:5]
    gcd = math.gcd
    M = math.prod(primes)
    lo = 0
    for q in primes:
        # for x in [lo, q), M is the product of the listed primes from q on
        for x in range(lo, q):
            g = gcd(((((x + a4) * x + a3) * x + a2) * x + a1) * x + a0, M)
            if g != 1:
                if g in roots:
                    roots[g] += 1
                else:
                    for p in primes:
                        if g % p == 0:
                            roots[p] += 1
        M //= q
        lo = q
    return [_QUINTIC_PATTERNS[roots[p], s] for p, s in zip(primes, signs)]


# -- quadratic resolvent -----------------------------------------------------------


class ResolventData(NamedTuple):
    disc: int
    squarefree_kernel: int
    fundamental_disc: int
    complete: bool
    degenerate: bool      # square discriminant: the resolvent collapses


def resolvent(disc: int) -> ResolventData:
    """The quadratic resolvent Q(sqrt disc) of a quintic of discriminant
    disc; squarefree_kernel raises ValueError on disc = 0."""
    sk = squarefree_kernel(disc)
    D = sk.kernel
    fund = D if D % 4 == 1 else 4 * D
    return ResolventData(disc, D, fund, sk.complete, D == 1)
