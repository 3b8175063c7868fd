"""Exact integer and polynomial arithmetic for quintic field screening.

Everything here is exact: Kronecker symbols by reciprocity, resultants
by the subresultant remainder sequence, real root counts by Sturm
chains with sign-corrected pseudo-remainders, and factorization
patterns mod p.  A quintic's pattern at a prime not dividing its
discriminant is read off the number of its roots mod p and the
Kronecker symbol (disc|p), by Stickelberger's theorem as stated in
R. G. Swan, Pacific J. Math. 12 (1962); only quintics are factored.
factor_pattern_mod_p counts the roots at one prime as
deg gcd(x^p - x, f), and quintic_patterns counts them for a whole
block of primes in one pass, by gcds of f(x) with the product of the
block's primes above x.  Squarefree kernels of integers come from
trial division by the primes below 1000, then gcds with products of
runs of larger primes up to the trial bound (D. J. Bernstein, "How to
find smooth parts of integers", 2004), then Miller-Rabin,
deterministic below the bound proven by Sorenson and Webster (2017);
whenever a cofactor cannot be resolved the result carries
complete=False rather than a guess.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import compress, dropwhile, islice
from typing import Callable, Iterator, Optional

from . import InternalCheckFailed

DEFAULT_TRIAL_BOUND = 10 ** 6
DEFAULT_PRIME_BUDGET = 200

# Miller-Rabin to the first 13 prime bases is deterministic below
# psi_13 = _MR_PROVEN (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN = 3317044064679887385961981
# squarefree_kernel trial-divides by the primes below _TRIAL_BELOW and
# takes gcds with products of _CHUNK consecutive primes above it
_TRIAL_BELOW = 1000
_CHUNK = 512


class NotSquarefree(RuntimeError):
    """Sturm counting requires a squarefree polynomial."""


class LeadingCoeffVanishes(RuntimeError):
    """Reduction mod p killed the leading coefficient."""


def parse_int(text: str) -> int:
    """A decimal integer: an optional sign and ASCII digits, with
    surrounding whitespace.  Plain int() would also take underscores
    and non-ASCII digits."""
    stripped = text.strip()
    if re.fullmatch(r"[+-]?[0-9]+", stripped) is None:
        raise ValueError(f"expected an integer, got {text!r}")
    return int(stripped)


# -- polynomials -------------------------------------------------------------


def _trim(coeffs: list) -> tuple:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients low to high; the zero polynomial
    has an empty coefficient tuple."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _trim([int(c) for c in coeffs]))

    @staticmethod
    def descending(coeffs) -> "IntPolynomial":
        return IntPolynomial(list(reversed(list(coeffs))))

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

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

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
    limit = 16
    while True:
        # n-th prime is below n (ln n + ln ln n) for n >= 6
        bound = max(limit, int(count * (math.log(count + 6)
                                        + math.log(math.log(count + 6)))) + 10)
        ps = _sieve(bound)
        if len(ps) >= count:
            return ps[:count]
        limit = bound * 2


# -- integer squarefree kernel -------------------------------------------------


@dataclass(frozen=True)
class SquarefreeResult:
    kernel: int
    complete: bool


def squarefree_kernel(n: int) -> SquarefreeResult:
    """Product of the primes dividing n to an odd power, with the sign
    of n.  Trial division up to the fixed bound DEFAULT_TRIAL_BOUND
    (10^6), then the cofactor is resolved when it is 1, a probable
    prime, a perfect square, or a semiprime forced by size (< 10^18);
    otherwise the cofactor is kept in the kernel and complete=False.

    Primes below 1000 are tried one by one; larger primes up to the
    bound are taken 512 at a time as a product, whose gcd with
    the cofactor is peeled in layers, after D. J. Bernstein, "How to
    find smooth parts of integers" (2004).  The scan stops as soon as
    the cofactor is 1 or a prime."""
    if n == 0:
        raise ValueError("squarefree kernel of 0 is undefined")
    sign = -1 if n < 0 else 1
    m = abs(n)
    kernel = 1
    for p in _sieve(_TRIAL_BELOW - 1):
        if p * p > m:
            # no prime factor below p: the cofactor is 1 or a prime
            return SquarefreeResult(sign * kernel * m, True)
        if m % p == 0:
            m //= p
            e = 1
            while m % p == 0:
                m //= p
                e += 1
            if e & 1:
                kernel *= p
    if m >= _TRIAL_BELOW ** 2:
        for lo, product in _prime_products():
            if lo * lo > m or m < _MR_PROVEN and is_probable_prime(m):
                return SquarefreeResult(sign * kernel * m, True)
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
    if m == 1:
        return SquarefreeResult(sign * kernel, True)
    if is_probable_prime(m):
        # cofactor is prime (exactly, or with MR confidence)
        return SquarefreeResult(sign * kernel * m, True)
    root = math.isqrt(m)
    if root * root == m:
        # a square cofactor has only even exponents, whatever its factors
        return SquarefreeResult(sign * kernel, True)
    if m < DEFAULT_TRIAL_BOUND ** 3:
        # all factors exceed the bound, so at most two of them; not a
        # prime and not a square forces two distinct primes
        return SquarefreeResult(sign * kernel * m, True)
    return SquarefreeResult(sign * kernel * m, False)


@lru_cache(maxsize=None)
def _prime_products() -> tuple[tuple[int, int], ...]:
    """(smallest prime, product) of each run of _CHUNK consecutive
    primes from _TRIAL_BELOW to DEFAULT_TRIAL_BOUND.  The odd-only sieve
    is streamed, so the primes themselves are never all held at once."""
    primes = dropwhile(lambda p: p < _TRIAL_BELOW,
                       _odd_primes(DEFAULT_TRIAL_BOUND))
    out = []
    while run := list(islice(primes, _CHUNK)):
        out.append((run[0], math.prod(run)))
    return tuple(out)


# -- resultants and discriminants ---------------------------------------------


def _content(coeffs) -> int:
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
        if g == 1:
            break
    return max(g, 1)


def _prem(A: tuple, B: tuple) -> tuple:
    """Pseudo-remainder: lc(B)^(deg A - deg B + 1) * A modulo B."""
    R = list(A)
    dB = len(B) - 1
    c = B[-1]
    steps = len(A) - len(B) + 1
    while len(R) - 1 >= dB and R:
        lead = R[-1]
        k = len(R) - 1 - dB
        R = [c * x for x in R]
        for i, b in enumerate(B):
            R[i + k] -= lead * b
        R = list(_trim(R))
        steps -= 1
    if steps > 0 and R:
        f = c ** steps
        R = [f * x for x in R]
    return tuple(R)


def _resultant(A: tuple, B: tuple) -> int:
    """Exact resultant by the subresultant remainder sequence."""
    if not A or not B:
        return 0
    dA, dB = len(A) - 1, len(B) - 1
    if dA == 0 and dB == 0:
        return 1
    s = 1
    if dA < dB:
        if (dA & 1) and (dB & 1):
            s = -s
        A, B, dA, dB = B, A, dB, dA
    if dB == 0:
        return s * B[0] ** dA
    ca, cb = _content(A), _content(B)
    A = tuple(c // ca for c in A)
    B = tuple(c // cb for c in B)
    t = ca ** dB * cb ** dA
    g = h = 1
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if (dA & 1) and (dB & 1):
            s = -s
        R = _prem(A, B)
        A = B
        denom = g * h ** delta
        B = tuple(c // denom for c in R)
        if not B:
            return 0  # nonconstant common factor
        g = A[-1]
        if delta > 0:
            h = g ** delta // h ** (delta - 1)
        if len(B) == 1:
            break
    dA = len(A) - 1
    h = B[0] ** dA // h ** (dA - 1)
    return s * t * h


def poly_discriminant(f: IntPolynomial) -> int:
    """(-1)^(d(d-1)/2) Res(f, f') / lc(f), exact."""
    d = f.degree
    if d < 2:
        raise ValueError("discriminant needs degree >= 2")
    res = _resultant(f.coeffs, f.derivative().coeffs)
    sign = -1 if (d * (d - 1) // 2) & 1 else 1
    q, r = divmod(sign * res, f.lc)
    if r:
        raise InternalCheckFailed(
            "resultant is not divisible by the leading coeff")
    return q


# -- real root counting --------------------------------------------------------


def _sturm_chain(f: IntPolynomial) -> list[tuple]:
    chain = [f.coeffs, f.derivative().coeffs]
    while chain[-1]:
        A, B = chain[-2], chain[-1]
        if len(B) - 1 == 0:
            break
        R = _prem(A, B)
        # pseudo-division scales by lc(B)^k; flip so the chain keeps the
        # signs of the true remainders, then shrink by the content
        scale = B[-1] ** (len(A) - len(B) + 1)
        R = tuple(-c for c in R) if scale > 0 else R
        cont = _content(R)
        chain.append(tuple(c // cont for c in R))
    return chain


def _variations(signs: list[int]) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def real_root_count(f: IntPolynomial) -> int:
    """Number of distinct real roots by Sturm's theorem."""
    if f.degree < 1:
        return 0
    chain = _sturm_chain(f)
    if len(chain[-1]) == 0:
        chain.pop()
    if len(chain[-1]) > 1:
        raise NotSquarefree("polynomial has a repeated factor")
    at_plus = [p[-1] for p in chain]
    at_minus = [p[-1] * (-1 if (len(p) - 1) & 1 else 1) for p in chain]
    return _variations(at_minus) - _variations(at_plus)


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


@dataclass(frozen=True)
class FactorPattern:
    squarefree: bool
    pattern: Optional[tuple[int, ...]]  # sorted factor degrees, or None


# Quintic patterns by Stickelberger's theorem in the form given by
# R. G. Swan, Pacific J. Math. 12 (1962): for p not dividing lc(f)
# disc(f), p = 2 included, (disc|p) = (-1)^(5 - number of irreducible
# factors of f mod p).  That sign and the number r of roots mod p fix
# the pattern; no other (r, sign) pair can occur.
_QUINTIC_PATTERNS = {
    (r, sign): FactorPattern(True, pattern) for r, sign, pattern in (
        (0, 1, (5,)), (0, -1, (2, 3)), (1, -1, (1, 4)), (1, 1, (1, 2, 2)),
        (2, 1, (1, 1, 3)), (3, -1, (1, 1, 1, 2)), (5, 1, (1, 1, 1, 1, 1)))}


def _frobenius_quintic(c, p):
    """x^p mod f for monic f with ascending coefficients c mod p, by
    repeated squaring where each set bit of p multiplies by x."""
    n0, n1, n2, n3, n4 = [-a % p for a in c[:5]]   # x^5 = sum n_i x^i
    u0, u1, u2, u3, u4 = 0, 1, 0, 0, 0
    for bit in bin(p)[3:]:
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


def factor_pattern_mod_p(f: IntPolynomial, p: int,
                         disc: Optional[int] = None) -> FactorPattern:
    """Degrees of the irreducible factors of the quintic f mod p; pattern
    is omitted when f mod p has a repeated factor.  Read off the number
    of roots of f mod p, deg gcd(x^p - x, f), and (disc|p), with disc
    computed when not given; exact at every prime."""
    if f.degree != 5:
        raise ValueError("factor patterns are read for quintics only")
    if f.lc % p == 0:
        raise LeadingCoeffVanishes(f"p={p} divides the leading coefficient")
    if disc is None:
        disc = poly_discriminant(f)
    if disc % p == 0:
        return FactorPattern(False, None)
    inv = pow(f.lc, -1, p)
    c = [a * inv % p for a in f.coeffs]
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


# -- Galois certification --------------------------------------------------------


@dataclass(frozen=True)
class S5Certificate:
    status: str                       # "Certified" or "Inconclusive"
    five_cycle_witness: Optional[int]
    transposition_witness: Optional[int]
    primes_scanned: int


def certify_s5(f: IntPolynomial, prime_budget: int = DEFAULT_PRIME_BUDGET,
               disc: Optional[int] = None,
               patterns: Optional[Callable[[int, int], tuple]] = None
               ) -> S5Certificate:
    """Sound one-sided Galois test for a quintic: a prime with factor
    pattern {5} forces transitivity, one with {1,1,1,2} puts a
    transposition in the group, and a transitive degree-5 group with a
    transposition is the full symmetric group.  Tries the first
    prime_budget primes and skips those dividing the discriminant or the
    leading coefficient, so primes_scanned counts only the primes it
    read a pattern at; never certifies falsely, but may return
    Inconclusive.  A caller that keeps a pattern stream passes it as
    patterns(k, p): the pattern at p, the k-th scanned prime (from 0)."""
    if f.degree != 5:
        raise ValueError("certification applies to quintics")
    if disc is None:
        disc = poly_discriminant(f)
    if disc == 0:
        raise ValueError("discriminant vanishes")
    five = transposition = None
    scanned = 0
    for p in first_primes(prime_budget):
        if disc % p == 0 or f.lc % p == 0:
            continue
        pat = (patterns(scanned, p) if patterns is not None
               else factor_pattern_mod_p(f, p, disc).pattern)
        scanned += 1
        if pat == (5,):
            five = five if five is not None else p
        elif pat == (1, 1, 1, 2):
            transposition = transposition if transposition is not None else p
        if five is not None and transposition is not None:
            return S5Certificate("Certified", five, transposition, scanned)
    return S5Certificate("Inconclusive", five, transposition, scanned)


# -- quadratic resolvent -----------------------------------------------------------


@dataclass(frozen=True)
class ResolventData:
    disc: int
    squarefree_kernel: int
    fundamental_disc: int
    complete: bool
    degenerate: bool      # square discriminant: the resolvent collapses


def resolvent(f: IntPolynomial, disc: Optional[int] = None) -> ResolventData:
    if disc is None:
        disc = poly_discriminant(f)
    if disc == 0:
        raise NotSquarefree("zero discriminant has no resolvent")
    sk = squarefree_kernel(disc)
    D = sk.kernel
    fund = D if D % 4 == 1 else 4 * D
    return ResolventData(disc, D, fund, sk.complete, D == 1)


class Splitting(Enum):
    SPLIT = "Split"
    INERT = "Inert"
    RAMIFIED = "Ramified"


def splitting_in_resolvent(p: int, rd: ResolventData) -> Splitting:
    if not rd.complete:
        raise ValueError("resolvent factorization is incomplete")
    s = kronecker_symbol(rd.fundamental_disc, p)
    return Splitting.SPLIT if s == 1 else (
        Splitting.INERT if s == -1 else Splitting.RAMIFIED)
