"""Independent reference implementations used only by the tests.

Each routine here recomputes a quantity by a different algorithm than
the package uses: Legendre symbols by squaring residues, resultants by
Sylvester matrices with Bareiss elimination, real root counts by
Descartes bisection over exact rationals, mod-p factor patterns by
exhaustive trial division, and squarefree kernels by trial division by
every odd number up to the trial bound.
"""

import math
from fractions import Fraction
from math import comb

from quintrank.numtheory import (
    DEFAULT_TRIAL_BOUND,
    SquarefreeResult,
    is_probable_prime,
)


def legendre_by_enumeration(a: int, p: int) -> int:
    """Quadratic residue symbol for odd prime p, by listing squares."""
    squares = {x * x % p for x in range(1, p)}
    r = a % p
    if r == 0:
        return 0
    return 1 if r in squares else -1


def bareiss_det(M) -> int:
    """Exact integer determinant, fraction-free elimination."""
    M = [list(row) for row in M]
    n = len(M)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for r in range(k + 1, n):
                if M[r][k]:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def sylvester_resultant(f_coeffs, g_coeffs) -> int:
    """Res(f, g) as the determinant of the Sylvester matrix.
    Coefficients low to high, nonzero leading terms."""
    m = len(f_coeffs) - 1
    n = len(g_coeffs) - 1
    size = m + n
    fd = list(reversed(f_coeffs))
    gd = list(reversed(g_coeffs))
    rows = []
    for i in range(n):
        rows.append([0] * i + fd + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + gd + [0] * (size - n - 1 - i))
    return bareiss_det(rows)


def sylvester_discriminant(coeffs) -> int:
    """Discriminant via the Sylvester resultant of f and f'."""
    d = len(coeffs) - 1
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    res = sylvester_resultant(coeffs, deriv)
    sign = -1 if (d * (d - 1) // 2) & 1 else 1
    q, r = divmod(sign * res, coeffs[-1])
    assert r == 0
    return q


def _eval_frac(coeffs, x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _descartes_bound(coeffs, a: Fraction, b: Fraction) -> int:
    """Sign-variation bound on the roots in the open interval (a, b):
    shift to (0,1), then apply the Moebius map x -> 1/(1+x)."""
    n = len(coeffs) - 1
    # p(x) = f(a + (b - a) x), built by Horner with polynomial steps
    p = [Fraction(0)]
    for c in reversed(coeffs):
        scaled = [Fraction(0)] + [(b - a) * t for t in p]
        for i, t in enumerate(p):
            scaled[i] += a * t
        scaled[0] += c
        p = scaled[:n + 1] if len(scaled) > n + 1 else scaled
    # q(x) = (1 + x)^n p(1/(1 + x)) = sum_i p_i (1 + x)^(n - i)
    q = [Fraction(0)] * (n + 1)
    for i, pi in enumerate(p):
        if pi == 0:
            continue
        for k in range(n - i + 1):
            q[k] += pi * comb(n - i, k)
    signs = [t for t in q if t != 0]
    return sum(1 for u, v in zip(signs, signs[1:]) if u * v < 0)


def count_real_roots_bisection(coeffs) -> int:
    """Distinct real roots of a squarefree integer polynomial by
    Descartes bisection with exact rational endpoints."""
    lead = abs(coeffs[-1])
    bound = 1 + max(abs(c) for c in coeffs[:-1]) // lead + 1
    total = 0
    stack = [(Fraction(-bound), Fraction(bound))]
    while stack:
        a, b = stack.pop()
        v = _descartes_bound(coeffs, a, b)
        if v == 0:
            continue
        if v == 1:
            total += 1
            continue
        mid = (a + b) / 2
        if _eval_frac(coeffs, mid) == 0:
            total += 1
        stack.append((a, mid))
        stack.append((mid, b))
    return total


def _poly_divmod_p(a, b, p):
    inv = pow(b[-1], p - 2, p)
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        k = len(a) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            a[i + k] = (a[i + k] - c * y) % p
        while a and a[-1] == 0:
            a.pop()
    return q, a


def brute_factors_mod_p(coeffs, p):
    """All monic irreducible factors of f mod p with multiplicity, by
    trial division against every monic polynomial in ascending degree.
    Returns a list of coefficient tuples (low to high)."""
    f = [c % p for c in coeffs]
    while f and f[-1] == 0:
        f.pop()
    inv = pow(f[-1], p - 2, p)
    work = tuple(c * inv % p for c in f)
    factors = []
    while len(work) - 1 > 0:
        d = len(work) - 1
        found = None
        for deg in range(1, d):
            for idx in range(p ** deg):
                g = []
                t = idx
                for _ in range(deg):
                    g.append(t % p)
                    t //= p
                g.append(1)
                q, r = _poly_divmod_p(work, tuple(g), p)
                if not r:
                    found = (tuple(g), tuple(q))
                    break
            if found:
                break
        if found is None:
            factors.append(work)  # work is itself irreducible
            break
        g, q = found
        factors.append(g)
        work = tuple(q)  # quotient of monics is monic, no trim needed
    return factors


def brute_pattern_mod_p(coeffs, p):
    """(squarefree, sorted degree pattern) by exhaustive factorization."""
    factors = brute_factors_mod_p(coeffs, p)
    squarefree = len(set(factors)) == len(factors)
    return squarefree, tuple(sorted(len(g) - 1 for g in factors))


def factor_completely(n: int):
    """Full trial-division factorization, for small oracle inputs only."""
    assert n != 0
    out = {}
    m = abs(n)
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def squarefree_kernel_by_trial_division(
        n: int, trial_bound: int = DEFAULT_TRIAL_BOUND) -> SquarefreeResult:
    """Product of the primes dividing n to an odd power, with the sign
    of n.  Trial division up to trial_bound, then the cofactor is
    resolved when it is 1, a probable prime, a perfect square, or a
    semiprime forced by size (< trial_bound^3); otherwise the cofactor
    is kept in the kernel and complete=False."""
    if n == 0:
        raise ValueError("squarefree kernel of 0 is undefined")
    sign = -1 if n < 0 else 1
    m = abs(n)
    kernel = 1
    d = 2
    while d <= trial_bound and d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            if e & 1:
                kernel *= d
        d += 1 if d == 2 else 2
    if m == 1:
        return SquarefreeResult(sign * kernel, True)
    if d * d > m or is_probable_prime(m):
        # cofactor is prime (exactly, or with MR confidence)
        return SquarefreeResult(sign * kernel * m, True)
    root = math.isqrt(m)
    if root * root == m:
        # a square cofactor has only even exponents, whatever its factors
        return SquarefreeResult(sign * kernel, True)
    if m < trial_bound ** 3:
        # all factors exceed trial_bound, so at most two of them; not a
        # prime and not a square forces two distinct primes
        return SquarefreeResult(sign * kernel * m, True)
    return SquarefreeResult(sign * kernel * m, False)
