"""The S5 verdict on a monic integer quintic, and exact proofs about its
factors over Z.

certify_s5 decides whether a quintic's Galois group is S5, as the
paper's family requires: it reads the factor patterns mod p that its
caller streams to it (numtheory computes them) until a {5} and a
{1,1,1,2} pattern prove the group S5, or until its budget of good primes
runs out.  Two exact proofs of reducibility end a scan early with the
full scan's answer: has_integer_root finds an integer root by Newton
lifting, and quadratic_factor proves a quintic a quadratic times a
cubic, as in H. Cohen, A Course in Computational Algebraic Number
Theory (GTM 138), section 3.5.  At a prime p not dividing disc f where
f splits as {2,3}, the quadratic factor mod p is gcd(f, x^(p^2) - x).
It is lifted p-adically to q with f = q c over Z_p, by Newton's method
on q's two coefficients, each step squaring the modulus, until the
modulus passes twice the bound 2 |f|_2 that every coefficient of a
quadratic factor of f over Z obeys (|q_i| <= binom(2, i) M(f) <=
2 |f|_2, Mignotte).  The lift's symmetric residues are then the only
candidate for a factor over Z, and one exact division decides it.  The
bound is compared in squares, so nothing here leaves the integers.
fieldscan imports this module with the scan stack.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, NamedTuple, Optional

from .numtheory import IntPolynomial, _frobenius_quintic, _pgcd, _trim

# certify_s5 tries to prove a quadratic factor only once it has read this
# many patterns, a fingerprint's 20 and an audit's 30, so that neither a
# field certified within them nor a budget of fewer good primes pays
_LIFT_AFTER = 50


class S5Certificate(NamedTuple):
    status: str                       # "Certified" or "Inconclusive"
    five_cycle_witness: Optional[int]
    transposition_witness: Optional[int]
    primes_scanned: int


def has_integer_root(f: IntPolynomial, p: int) -> bool:
    """Whether the monic f has a root in Z, for a prime p not dividing
    disc f.  Each root mod p is simple and lifts by Newton steps mod
    p^(2^k); an integer root r has |r| <= 1 + max|a_i| (Cauchy), so once
    the modulus exceeds twice that, r is the lift's symmetric residue,
    and f(r) = 0 is checked exactly.  The work grows with the length of
    the coefficients, not with |a0|, so this serves input of any size;
    fieldscan.enumerate_quintics drops the rooted a0 of a whole row at
    once, as the values -g(r) of the row's head g at |r| <= max|a0|."""
    def at(coeffs, x):
        return reduce(lambda acc, a: acc * x + a, reversed(coeffs), 0)

    c, dc = f.coeffs, f.derivative().coeffs
    bound = 2 * (1 + max(map(abs, c[:-1])))
    for r in (x for x in range(p) if at(c, x) % p == 0):
        q = p
        while q <= bound:
            q *= q
            r = (r - at(c, r) * pow(at(dc, r), -1, q)) % q
        if at(c, r - q if 2 * r > q else r) == 0:
            return True
    return False


def _divide(desc: list, b: int, c: int) -> tuple[list, list]:
    """Quotient and remainder, both descending, of the monic polynomial
    with descending coefficients desc by x^2 + b x + c."""
    out = list(desc)
    for i in range(len(out) - 2):
        out[i + 1] -= b * out[i]
        out[i + 2] -= c * out[i]
    return out[:-2], out[-2:]


def quadratic_factor(f: IntPolynomial, p: int) -> Optional[IntPolynomial]:
    """The monic quadratic factor of the monic quintic f over Z that
    reduces mod p to g = gcd(f, x^(p^2) - x), or None when g is not
    quadratic or lifts to no factor over Z.  p is a prime not dividing
    disc f; where f has the pattern {2,3} mod p, g is its quadratic
    factor mod p, and where it has {5}, g is 1.

    Write r = r1 x + r0 for f mod q and s = s1 x + s0 for Q mod q, where
    f = Q q + r.  Then dr/db = -x Q and dr/dc = -Q mod q, for
    q = x^2 + b x + c, so a Newton step adds to (b, c) the solution of
    [[s0 - b s1, s1], [-c s1, s0]] (db, dc) = (r1, r0); its determinant
    is the resultant of q and Q, a unit mod p."""
    a = [v % p for v in f.coeffs]
    w = _frobenius_quintic(a, p, p * p)
    g = _pgcd(a, _trim([w[0], (w[1] - 1) % p, *w[2:]]), p)
    if len(g) != 3:
        return None
    c, b, _ = g
    desc = f.coeffs[::-1]
    bound = 16 * sum(v * v for v in desc)     # (4 |f|_2)^2
    m = p
    while m * m <= bound:
        m *= m
        quotient, (r1, r0) = _divide(desc, b, c)
        s1, s0 = _divide(quotient, b, c)[1]
        e = s0 - b * s1
        inverse = pow(e * s0 + c * s1 * s1, -1, m)
        b, c = ((b + (s0 * r1 - s1 * r0) * inverse) % m,
                (c + (c * s1 * r1 + e * r0) * inverse) % m)
    b -= m if 2 * b > m else 0
    c -= m if 2 * c > m else 0
    return IntPolynomial((c, b, 1)) if _divide(desc, b, c)[1] == [0, 0] \
        else None


def certify_s5(f: IntPolynomial, good: int,
               stream: Callable[[int], tuple[list, list]]) -> S5Certificate:
    """Sound one-sided Galois test for a monic quintic: a prime with
    factor pattern {5} forces transitivity, one with {1,1,1,2} puts a
    transposition in the group, and a transitive degree-5 group with a
    transposition is the full symmetric group.  Reads the patterns at
    the first `good` primes not dividing disc(f), no more.  Never
    certifies falsely, but may return Inconclusive, and then
    primes_scanned is good; else it counts the primes read.

    Two exact proofs of reducibility end the scan with the full scan's
    answer.  A quintic with an integer root has a root mod every good
    prime (Dedekind), so no pattern is {5}: once every pattern so far
    has a linear factor and one is {1,1,1,2}, a single has_integer_root
    test may end the scan.  A quadratic times a cubic shows neither {5}
    nor {1,4}: once the patterns read, at least _LIFT_AFTER of them,
    show neither, but a transposition and a {2,3} prime, one
    quadratic_factor lift at that prime may end it.

    The caller's stream(n) returns (patterns, primes): lists of at least
    n entries, the good primes in increasing order and the patterns at
    them.  They are read in place, and stream is called again, with one
    more than the entries read, only once every entry has been read."""
    if f.degree != 5 or f.lc != 1:
        raise ValueError("expected a monic quintic")
    five = transposition = split = None
    linear = True       # every pattern read so far has a root mod p
    lift = True         # no pattern so far rules out a quadratic factor
    patterns = ()
    for scanned in range(good):
        if scanned == len(patterns):
            if lift and scanned >= _LIFT_AFTER and split and transposition:
                lift = False
                if quadratic_factor(f, split) is not None:
                    return S5Certificate("Inconclusive", None, transposition,
                                         good)
            patterns, primes = stream(scanned + 1)
        pat = patterns[scanned]
        linear = linear and pat[0] == 1
        if pat == (5,):
            lift = False
            five = five or primes[scanned]
        elif pat == (1, 1, 1, 2) and transposition is None:
            transposition = primes[scanned]
            if linear and has_integer_root(f, primes[0]):
                return S5Certificate("Inconclusive", None, transposition,
                                     good)
        elif pat == (2, 3):
            split = split or primes[scanned]
        elif pat == (1, 4):
            lift = False
        if five is not None and transposition is not None:
            return S5Certificate("Certified", five, transposition,
                                 scanned + 1)
    return S5Certificate("Inconclusive", five, transposition, good)
