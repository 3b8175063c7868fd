"""Exact proofs about the factors of a monic integer quintic over Z.

quadratic_factor proves a quintic a quadratic times a cubic, as in
H. Cohen, A Course in Computational Algebraic Number Theory (GTM 138),
section 3.5.  At a prime p not dividing disc f where f splits as
{2,3}, the quadratic factor mod p is gcd(f, x^(p^2) - x).  It is lifted
p-adically to q with f = q c over Z_p, by Newton's method on q's two
coefficients, each step squaring the modulus, until the modulus passes
twice the bound 2 |f|_2 that every coefficient of a quadratic factor of
f over Z obeys (|q_i| <= binom(2, i) M(f) <= 2 |f|_2, Mignotte).  The
lift's symmetric residues are then the only candidate for a factor over
Z, and one exact division decides it.  The bound is compared in squares,
so nothing here leaves the integers.
"""

from __future__ import annotations

from typing import Optional

from .numtheory import IntPolynomial, _frobenius_quintic, _pgcd, _trim


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
