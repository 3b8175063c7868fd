"""Independent reference implementations used only by the tests.

Each routine here recomputes a quantity by a different algorithm than
the package uses: Legendre symbols by squaring residues, resultants by
Sylvester matrices with Bareiss elimination and by the subresultant
remainder sequence (any degree, any leading coefficient; the package's
quintic discriminants come from a closed form), real root counts by
Sturm chains and by Descartes bisection over exact rationals (the
package reads a quintic's from Hermite's form), mod-p factor patterns by
exhaustive trial division and, for any degree and prime, by
distinct-degree splitting, S5 certificates by reading the pattern at
every budget prime, the parity sign chi as a product of symbols over
the multiplicative primes and as the root number w(E/K)/w(E) place by
place from Sturm chains and mod-p factor counts, squarefree kernels by
trial division by every odd number up to the trial bound, quaternion
group tables by float nearest-neighbour matching and by looking up
every pairwise exact Hamilton product, quaternion closures on numpy
arrays of golden pairs (all three from floats (a + b*phi)/2 computed
here from the exact units, snapped back to golden pairs), isomorphisms
with their own class sizes, their own extension of generator images
and a numpy check of every product, tensor inductions by one np.kron chain per group element,
cocycle defects one group element at a time and over all
|G|^3 triples in slices of numpy temporaries, the Pin cocycle table by
one einsum over all products of dense numpy blade vectors at the
generator columns, cohomology dimensions from the dense coboundary
matrices (one row per triple or pair, reduced mod 2) and from the
full sparse coboundary rows, coboundary witnesses from all n^2
equations, group tables from every pairwise product, integer roots
by trying the divisors of a0, quintic enumeration by deriving every
vector of the coefficient box, a whole scan of a small box (its kept
fields and buckets) from the routines here alone, mirror/reciprocal
orbits by transforming the polynomial itself, Taylor shifts f(x + c)
by summing multiples of the powers of (x + c), and cache lines in the
unversioned layout by re-signing a record.  It also holds the rules
every parity certificate keeps, the test-only cyclic groups, direct
products and full homomorphism check of a representation, and the
modular group of order 16 as a non-permutation closure input.
"""

import hashlib
import json
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

import numpy as np

from quintrank.cocycles import (Gf2Solver, _blade_sign,
                                transposition_factorization)
from quintrank.fieldscan import (
    NotSeparable,
    QuinticField,
    _is_square,
    dedupe_stream,
)
from quintrank.groups import FiniteGroup, coset_factorization
from quintrank.numtheory import (
    DEFAULT_PRIME_BUDGET,
    DEFAULT_TRIAL_BOUND,
    FactorPattern,
    IntPolynomial,
    S5Certificate,
    SquarefreeResult,
    _trim,
    first_primes,
    is_probable_prime,
    kronecker_symbol,
    poly_discriminant,
)
from quintrank.icosians import ClosureFailure
from quintrank.rankgrowth import admissible, certify_pair
from quintrank.reps import _factor_permutation_matrix


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


def subresultant_resultant(A: tuple, B: tuple) -> int:
    """Res(A, B) by the subresultant remainder sequence; coefficients
    low to high.  This was the package's route to every discriminant
    before the quintic closed form."""
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


def subresultant_discriminant(coeffs) -> int:
    """(-1)^(d(d-1)/2) Res(f, f') / lc(f) by subresultant_resultant, for
    any degree d >= 2; coefficients low to high."""
    d = len(coeffs) - 1
    assert d >= 2
    deriv = tuple(i * c for i, c in enumerate(coeffs))[1:]
    res = subresultant_resultant(tuple(coeffs), deriv)
    sign = -1 if (d * (d - 1) // 2) & 1 else 1
    q, r = divmod(sign * res, coeffs[-1])
    assert r == 0
    return q


def _sturm_chain(coeffs) -> list[tuple]:
    chain = [tuple(coeffs), tuple(i * c for i, c in enumerate(coeffs))[1:]]
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


def sturm_root_count(coeffs) -> int:
    """Distinct real roots of a squarefree integer polynomial of any
    degree >= 1 by Sturm's theorem, with sign-corrected
    pseudo-remainders; coefficients low to high.  This was the
    package's signature route before the Hermite form."""
    chain = _sturm_chain(coeffs)
    if len(chain[-1]) == 0:
        chain.pop()
    assert len(chain[-1]) == 1, "not squarefree"
    at_plus = [p[-1] for p in chain]
    at_minus = [p[-1] * (-1 if (len(p) - 1) & 1 else 1) for p in chain]
    return _variations(at_minus) - _variations(at_plus)


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


def _poly_trim_p(coeffs, p):
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_mulmod_p(a, b, m, p):
    """a * b mod (m, p)."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_divmod_p(_poly_trim_p(out, p), m, p)[1]


def _poly_sub_p(a, b, p):
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _poly_trim_p(out, p)


def _poly_gcd_p(a, b, p):
    """Monic gcd mod p by Euclid's algorithm."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_divmod_p(a, b, p)[1]
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def ddf_pattern_mod_p(f: IntPolynomial, p: int) -> FactorPattern:
    """Factor pattern of f mod p, of any degree, by distinct-degree
    splitting: g_d = gcd(x^(p^d) - x, v) collects the degree-d factors
    of the part v not yet split off.  Squarefreeness is gcd(f, f') = 1."""
    fp = _poly_trim_p(f.coeffs, p)
    inv = pow(fp[-1], p - 2, p)
    fp = [c * inv % p for c in fp]
    deriv = _poly_trim_p([i * c for i, c in enumerate(fp)][1:], p)
    if len(_poly_gcd_p(fp, deriv, p)) != 1:
        return FactorPattern(False, None)
    pattern = []
    v = fp
    x = [0, 1]
    w = x
    d = 0
    while len(v) - 1 > 0:
        d += 1
        if 2 * d > len(v) - 1:
            pattern.append(len(v) - 1)
            break
        # w = x^(p^d) mod v, by square-and-multiply
        base, e, w = _poly_divmod_p(w, v, p)[1], p, [1]
        while e:
            if e & 1:
                w = _poly_mulmod_p(w, base, v, p)
            e >>= 1
            if e:
                base = _poly_mulmod_p(base, base, v, p)
        g = _poly_gcd_p(v, _poly_sub_p(w, x, p), p)
        if len(g) > 1:
            pattern.extend([d] * ((len(g) - 1) // d))
            v = _poly_divmod_p(v, g, p)[0]
            w = _poly_divmod_p(w, v, p)[1]
    return FactorPattern(True, tuple(sorted(pattern)))


def certify_s5_full_scan(f: IntPolynomial, budget: int,
                         pattern=None) -> S5Certificate:
    """certify_s5 without its stop at the first transposition of a
    quintic with an integer root: the pattern at every one of the first
    budget primes not dividing disc f is read, by ddf_pattern_mod_p
    unless pattern(p) gives it, until both witnesses are found."""
    disc = poly_discriminant(f)
    five = transposition = None
    scanned = 0
    for p in first_primes(budget):
        if disc % p == 0:
            continue
        pat = (ddf_pattern_mod_p(f, p) if pattern is None
               else pattern(p)).pattern
        scanned += 1
        if pat == (5,) and five is None:
            five = p
        elif pat == (1, 1, 1, 2) and transposition is None:
            transposition = p
        if five is not None and transposition is not None:
            return S5Certificate("Certified", five, transposition, scanned)
    return S5Certificate("Inconclusive", five, transposition, scanned)


def chi_by_primes(curve, field) -> int:
    """chi of an admissible pair as the product of (disc f|p) over the
    primes p || N, the route certify_pair took before it read the one
    symbol (disc f|-N): on the paper's family disc f > 0 and every
    additive (disc f|p) is 1."""
    chi = 1
    for p, e in curve.factorization:
        if e == 1:
            chi *= kronecker_symbol(field.disc, p)
    return chi


def root_number_ratio(curve, field) -> int | None:
    """w(E/K)/w(E) place by place, reading no Kronecker symbol, or None
    when f mod p is not squarefree at some p | N.  Infinity gives
    (-1)^(r1 + r2 + 1), r1 by Sturm's theorem.  With g_p the number of
    factors of f mod p, by distinct-degree splitting, a p || N gives
    (-1)^(g_p + 1): the residue degrees above p sum to 5, so whether E
    is split or non-split at p cancels out.  An additive p^e || N gives
    (-1)^((5 - g_p) e), by Tate's unramified-twist formula."""
    r1 = sturm_root_count(field.poly.coeffs)
    sign = (-1) ** (r1 + (5 - r1) // 2 + 1)
    for p, e in curve.factorization:
        pattern = ddf_pattern_mod_p(field.poly, p).pattern
        if pattern is None:
            return None
        g = len(pattern)
        sign *= (-1) ** (g + 1 if e == 1 else (5 - g) * e)
    return sign


def certificate_breaks_rules(curve, field, cert) -> bool:
    """Whether certify_pair's certificate of (curve, field) breaks the
    rules of the criterion: it carries the pair's labels and
    admissible's reasons, and the pair is admissible exactly when there
    are none; growth is Certified exactly when the pair is admissible,
    parity is Odd and chi = -1; an admissible pair has chi =
    (disc f|-N) and parity Odd exactly when chi = -1; any other pair has
    chi and parity None and growth Unknown."""
    rules = [
        (cert.curve, cert.field) == (curve.label, field.label),
        cert.reasons == admissible(curve, field),
        cert.admissible == (not cert.reasons),
        (cert.growth == "Certified") == (
            cert.admissible and cert.parity == "Odd" and cert.chi == -1),
        cert.growth in ("Certified", "Unknown"),
    ]
    if cert.admissible:
        rules += [cert.chi == kronecker_symbol(field.disc, -curve.conductor),
                  cert.parity in ("Odd", "Even"),
                  (cert.parity == "Odd") == (cert.chi == -1)]
    else:
        rules += [cert.chi is None, cert.parity is None,
                  cert.growth == "Unknown"]
    return not all(rules)


def root_number_disagreements(curves, fields):
    """Compare root_number_ratio with certify_pair's chi and with
    chi_by_primes on every admissible pair, and with (disc f|-N) on
    every pair where no p | N divides disc f; check every pair's
    certificate with certificate_breaks_rules.  Returns the counts of
    admissible and unramified pairs and the (curve, field) labels of
    the pairs where some route disagrees or a rule breaks."""
    admitted = unramified = 0
    bad = []
    for field in fields:
        for curve in curves:
            cert = certify_pair(curve, field)
            ok = not certificate_breaks_rules(curve, field, cert)
            if all(field.disc % p for p, _ in curve.factorization):
                unramified += 1
                w = root_number_ratio(curve, field)
                ok = ok and w == kronecker_symbol(field.disc, -curve.conductor)
                if cert.admissible:
                    admitted += 1
                    ok = ok and w == cert.chi == chi_by_primes(curve, field)
            if not ok:
                bad.append((curve.label, field.label))
    return admitted, unramified, bad


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


def squarefree_kernel_by_trial_division(n: int) -> SquarefreeResult:
    """Product of the primes dividing n to an odd power, with the sign
    of n.  Trial division up to DEFAULT_TRIAL_BOUND, then the cofactor
    is resolved when it is 1, a probable prime, a perfect square, or a
    semiprime forced by size (< DEFAULT_TRIAL_BOUND^3); otherwise the
    cofactor is kept in the kernel and complete=False."""
    if n == 0:
        raise ValueError("squarefree kernel of 0 is undefined")
    sign = -1 if n < 0 else 1
    m = abs(n)
    kernel = 1
    d = 2
    while d <= DEFAULT_TRIAL_BOUND and d * d <= m:
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
    if m < DEFAULT_TRIAL_BOUND ** 3:
        # all factors exceed the bound, so at most two of them; not a
        # prime and not a square forces two distinct primes
        return SquarefreeResult(sign * kernel * m, True)
    return SquarefreeResult(sign * kernel * m, False)


def _float_hamilton(q1, q2):
    a1, b1, c1, d1 = (q1[..., i] for i in range(4))
    a2, b2, c2, d2 = (q2[..., i] for i in range(4))
    return np.stack([
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    ], axis=-1)


def quaternion_table_by_nearest_neighbour(quats):
    """(order, table) for a finite set of float unit quaternions: the
    identity is moved to the front, and each float Hamilton product is
    matched to its nearest member.  Sound when the members are more than
    1e-3 apart and every product lands within 1e-6 of one."""
    quats = np.asarray(quats, dtype=np.float64)
    n = len(quats)
    diffs = np.linalg.norm(quats[:, None] - quats[None, :], axis=-1)
    np.fill_diagonal(diffs, np.inf)
    assert diffs.min() > 1e-3
    ident = int(np.argmin(np.linalg.norm(quats - [1.0, 0, 0, 0], axis=-1)))
    order = [ident] + [i for i in range(n) if i != ident]
    quats = quats[order]
    prods = _float_hamilton(quats[:, None], quats[None, :])
    dist = np.linalg.norm(prods[:, :, None] - quats[None, None, :], axis=-1)
    assert dist.min(axis=-1).max() < 1e-6
    return order, dist.argmin(axis=-1)


GOLDEN = (1 + math.sqrt(5)) / 2


def golden_floats(units) -> np.ndarray:
    """The float coordinates (a + b*phi)/2, shape (n, 4), of exact
    units given as golden pairs (a, b) of twice each coordinate."""
    pairs = np.asarray(units, dtype=np.float64)
    return (pairs[..., 0] + pairs[..., 1] * GOLDEN) / 2


def snap_golden_array(quats) -> np.ndarray:
    """Integer pairs (a, b) with 2x = a + b*phi, shape (n, 4, 2), for the
    float coordinates x, as one numpy search over |b| <= 4 for all
    coordinates at once; x snaps only when |2x - a - b*phi| < 1e-9."""
    two_x = 2.0 * np.asarray(quats, dtype=np.float64)
    bs = np.arange(-4, 5)
    rest = two_x[..., None] - bs * GOLDEN
    a = np.rint(rest)
    hit = np.abs(rest - a) < 1e-9
    hit &= (np.abs(two_x) <= 2.0 + 1e-9)[..., None]  # |x| <= 1
    if not hit.any(axis=-1).all():
        raise ClosureFailure("a coordinate does not lie in (1/2)Z[phi]")
    j = hit.argmax(axis=-1)
    a = np.take_along_axis(a, j[..., None], axis=-1)[..., 0]
    return np.stack([a.astype(np.int64), bs[j]], axis=-1)


def _golden_mul_array(x, y):
    """(a1 + b1 phi)(a2 + b2 phi) with phi^2 = phi + 1, on (..., 2) pairs."""
    bb = x[..., 1] * y[..., 1]
    return np.stack([x[..., 0] * y[..., 0] + bb,
                     x[..., 0] * y[..., 1] + x[..., 1] * y[..., 0] + bb],
                    axis=-1)


def golden_hamilton_array(q1, q2):
    """Exact Hamilton product of (..., 4, 2) golden-pair quaternions; the
    denominators multiply."""
    a1, b1, c1, d1 = (q1[..., i, :] for i in range(4))
    a2, b2, c2, d2 = (q2[..., i, :] for i in range(4))
    m = _golden_mul_array
    return np.stack([
        m(a1, a2) - m(b1, b2) - m(c1, c2) - m(d1, d2),
        m(a1, b2) + m(b1, a2) + m(c1, d2) - m(d1, c2),
        m(a1, c2) - m(b1, d2) + m(c1, a2) + m(d1, b2),
        m(a1, d2) + m(b1, c2) - m(c1, b2) + m(d1, a2),
    ], axis=-2)


def quaternion_group_by_arrays(quats):
    """(G, exact) for a finite set of float unit quaternions, by the
    numpy closure: snapped (n, 4, 2) pair arrays, the products by
    greedily picked generators taken for a whole frontier at once, and
    the other table columns by associativity.  ``exact`` holds the
    snapped pairs in label order."""
    exact = snap_golden_array(quats)
    if not (_golden_mul_array(exact, exact).sum(axis=1) == (4, 0)).all():
        raise ClosureFailure("a member is not an exact unit quaternion")
    keys = [tuple(k) for k in (2 * exact).reshape(-1, 8).tolist()]
    ident = (4, 0, 0, 0, 0, 0, 0, 0)
    if len(set(keys)) != len(keys) or ident not in keys:
        raise ClosureFailure("members repeat or miss the identity")
    i0 = keys.index(ident)
    order = [i0] + [i for i in range(len(keys)) if i != i0]
    label = {keys[i]: lab for lab, i in enumerate(order)}
    exact = exact[order]
    n = len(order)
    gens, right, done = [], [], []
    parent = {0: None}
    found = [0]
    while len(found) < n:
        gens.append(next(y for y in range(n) if y not in parent))
        right.append(np.empty(n, dtype=np.int32))
        done.append(0)
        grew = True
        while grew:
            grew = False
            for j, g in enumerate(gens):
                xs = found[done[j]:]
                done[j] = len(found)
                if not xs:
                    continue
                prods = golden_hamilton_array(exact[xs], exact[g])
                ys = [label.get(tuple(k))
                      for k in prods.reshape(-1, 8).tolist()]
                if None in ys:
                    raise ClosureFailure("a product is not in the set")
                right[j][xs] = ys
                for x, y in zip(xs, ys):
                    if y not in parent:
                        parent[y] = (x, j)
                        found.append(y)
                        grew = True
    cols = np.empty((n, n), dtype=np.int32)  # cols[y] = table[:, y]
    cols[0] = np.arange(n)
    for y in found[1:]:
        x, j = parent[y]
        cols[y] = right[j][cols[x]]
    quats = np.asarray(quats)[order]
    return FiniteGroup([tuple(q) for q in quats], cols.T.tolist()), exact


def quaternion_table_by_all_products(quats):
    """(order, table) for a finite set of unit quaternions in
    (1/2)Z[phi]: the identity is moved to the front, and all n^2 exact
    Hamilton products of the snapped members are looked up among them."""
    exact = snap_golden_array(quats)
    keys = [tuple(k) for k in (2 * exact).reshape(-1, 8).tolist()]
    ident = keys.index((4, 0, 0, 0, 0, 0, 0, 0))
    order = [ident] + [i for i in range(len(keys)) if i != ident]
    label = {keys[i]: lab for lab, i in enumerate(order)}
    exact = exact[order]
    prods = golden_hamilton_array(exact[:, None], exact[None, :])
    flat = [label[tuple(k)] for k in prods.reshape(-1, 8).tolist()]
    return order, np.array(flat, dtype=np.int32).reshape(len(order), -1)


def class_sizes_by_conjugation(G):
    """The size of each label's conjugacy class, as the number of
    distinct g^-1 x g over all g, from one numpy array of them."""
    t = np.array(G.table, dtype=np.int32)
    left = t[np.argmax(t == 0, axis=1)]  # left[g, x] = g^-1 x
    conj = t[left, np.arange(len(t))[:, None]]  # conj[g, x] = g^-1 x g
    return [len(set(col)) for col in conj.T.tolist()]


def extend_by_frontiers(G1, G2, gens, imgs):
    """The map x -> phi(x) on the labels that ``gens`` reach in G1, grown
    a frontier at a time from phi(1) = 1 and phi(x g) = phi(x) phi(g)
    over every edge x -> x g; None when two edges into one label
    disagree."""
    t1, t2 = G1.table, G2.table
    phi, frontier = {0: 0}, [0]
    while frontier:
        grown = []
        for x in frontier:
            for g, h in zip(gens, imgs):
                y, img = t1[x][g], t2[phi[x]][h]
                if y not in phi:
                    phi[y] = img
                    grown.append(y)
                elif phi[y] != img:
                    return None
        frontier = grown
    return phi


def find_isomorphism_by_arrays(G1, G2):
    """The isomorphism search with a numpy array result and a numpy check
    of all |G1|^2 products: the same candidates in the same order, with
    class sizes and extensions computed here."""
    if G1.order != G2.order or G1.order_census() != G2.order_census():
        return None
    gens = list(G1.generators)
    sizes1 = class_sizes_by_conjugation(G1)
    sizes2 = class_sizes_by_conjugation(G2)
    orders1, orders2 = G1.element_orders(), G2.element_orders()
    candidates = []
    for g in gens:
        cand = [h for h in range(G2.order)
                if orders2[h] == orders1[g] and sizes2[h] == sizes1[g]]
        if not cand:
            return None
        candidates.append(cand)
    t1 = np.array(G1.table, dtype=np.int32)
    t2 = np.array(G2.table, dtype=np.int32)

    def search(level, imgs):
        if level == len(gens):
            phi_map = extend_by_frontiers(G1, G2, gens, imgs)
            if phi_map is None or len(phi_map) != G1.order:
                return None
            phi = np.array([phi_map[x] for x in range(G1.order)],
                           dtype=np.int32)
            if len(set(phi.tolist())) != G1.order:
                return None
            if (phi[t1] == t2[np.ix_(phi, phi)]).all():
                return phi
            return None
        for h in candidates[level]:
            imgs.append(h)
            if extend_by_frontiers(G1, G2, gens[:level + 1], imgs) is not None:
                found = search(level + 1, imgs)
                if found is not None:
                    return found
            imgs.pop()
        return None

    return search(0, [])


def tensor_induction_by_kron(cs, rho):
    """The images of the tensor induction of rho along cs, one group
    element at a time: the np.kron chain of rho(q_1(g)), .., rho(q_n(g))
    times psi(pi(g))."""
    pos = {lab: i for i, lab in enumerate(cs.subgroup)}
    images = []
    for g in range(cs.group.order):
        pi, q = coset_factorization(cs, g)
        M = rho.images[pos[q[0]]]
        for qi in q[1:]:
            M = np.kron(M, rho.images[pos[qi]])
        images.append(M @ _factor_permutation_matrix(pi, rho.dim))
    return np.stack(images)


def cocycle_defect_labels(G, values):
    """Labels g at which w(h,k) - w(gh,k) + w(g,hk) - w(g,h) is odd for
    some (h, k), one g at a time."""
    w = np.asarray(values, dtype=np.int64)
    t = np.asarray(G.table)
    bad = []
    for g in range(len(t)):
        d = w - w[t[g]] + w[g][t] - w[g][:, None]
        if (d % 2).any():
            bad.append(g)
    return bad


# Entry budget for every n^3-sized temporary below: checks over triples
# run in slices of at most this many entries.
CHUNK_ENTRIES = 1 << 18


def row_chunks(n: int, per_row: int) -> list[tuple[int, int]]:
    """[lo, hi) slices of range(n), each holding at most CHUNK_ENTRIES
    entries of a per_row-wide temporary (but one row at least)."""
    step = max(1, CHUNK_ENTRIES // max(1, per_row))
    return [(lo, min(n, lo + step)) for lo in range(0, n, step)]


def coboundary2_slice(t, w, lo: int, hi: int):
    """delta w (g,h,k) = w(h,k) + w(gh,k) + w(g,hk) + w(g,h) mod 2 for
    lo <= g < hi, as a (hi - lo) x n x n array, for a table array t and
    a 0/1 array w."""
    g = np.arange(lo, hi)
    return w[None] ^ w[t[g]] ^ w[g][:, t] ^ w[g][:, :, None]


def defect_labels_chunked(G, values):
    """Labels g at which the cocycle identity fails for some (h, k),
    checked over all |G|^3 triples in slices of consecutive g holding at
    most CHUNK_ENTRIES triples (S5 takes 7 slices)."""
    t = np.asarray(G.table)
    w = np.asarray(values, dtype=np.int8) % 2
    n = G.order
    bad = []
    for lo, hi in row_chunks(n, n * n):
        defect = coboundary2_slice(t, w, lo, hi)
        bad += (lo + np.flatnonzero(defect.any(axis=(1, 2)))).tolist()
    return bad


def verify_cocycle_exhaustive(c) -> bool:
    """The cocycle identity of a Cocycle2 at all |G|^3 triples."""
    return not defect_labels_chunked(c.group, c.values)


@lru_cache(maxsize=None)
def blade_product_tables(n: int):
    """IDX[i,k] = i xor k and S2[i,k] = sign(e_i * e_{i xor k}), so a dense
    product is out[k] = sum_i a[i] * S2[i,k] * b[i xor k]."""
    size = 1 << n
    idx = np.arange(size)[:, None] ^ np.arange(size)[None, :]
    s2 = np.array([[_blade_sign(i, i ^ k) for k in range(size)]
                   for i in range(size)], dtype=np.int64)
    return idx, s2


def right_mul(b):
    """R[..., i, k] = S2[i, k] * b[..., i xor k] for dense blade vectors b
    of Cl(n), so that a @ R is the Clifford product a * b; batched over
    the leading axes of b."""
    idx, s2 = blade_product_tables(b.shape[-1].bit_length() - 1)
    return s2 * b[..., idx]


def pin_lift_dense(p):
    """(v, k) as the package's pin_lift gives them, as an int64 array
    built by right_mul along the same transposition factorization."""
    fac = transposition_factorization(p)
    v = np.zeros(1 << p.degree, dtype=np.int64)
    v[0] = 1
    for i, j in fac:
        r = np.zeros_like(v)
        r[1 << i], r[1 << j] = 1, -1
        v = v @ right_mul(r)
    return v, len(fac)


def pin_table_einsum(G):
    """The Pin cocycle table of G = symmetric_group(n) as an int8 array:
    all lift products at the generator columns in one einsum, each
    checked for its scale and sign, and the other columns filled along
    the breadth-first walk by w(g, xs) = w(g, x) + w(gx, s) + w(x, s)."""
    lifts = [pin_lift_dense(p) for p in G.elems]
    L = np.stack([v for v, _ in lifts])
    scale = -np.array([k for _, k in lifts], dtype=np.int64)
    gens = list(G.generators)
    t = np.asarray(G.table)
    prod = np.einsum("ai,bik->abk", L, right_mul(L[gens]))
    c = t[:, gens]
    d = scale[c] - scale[:, None] - scale[None, gens]
    assert not (d < 0).any() and not (d % 2).any()
    target = L[c] * (1 << (d // 2))[:, :, None]
    plus = (prod == target).all(axis=2)
    minus = (prod == -target).all(axis=2)
    assert (plus ^ minus).all()
    cols = np.zeros((G.order, G.order), dtype=np.int8)  # cols[y] = w[:, y]
    cols[gens] = minus.T
    seen, queue = {0}, [0]
    for x in queue:
        for s in gens:
            y = int(t[x, s])
            if y not in seen:
                seen.add(y)
                queue.append(y)
                cols[y] = cols[x] ^ cols[s][t[:, x]] ^ cols[s][x]
    return cols.T


def delta2_matrix(G):
    """Dense matrix of the 2-coboundary operator mod 2, one row per
    (g,h,k) triple and one column per (x,y) pair."""
    n = G.order
    t = np.asarray(G.table)
    A = np.zeros((n * n * n, n * n), dtype=np.int8)
    g, h, k = np.meshgrid(np.arange(n), np.arange(n), np.arange(n),
                          indexing="ij")
    g, h, k = g.ravel(), h.ravel(), k.ravel()
    rows = np.arange(n * n * n)
    np.add.at(A, (rows, h * n + k), 1)
    np.add.at(A, (rows, t[g, h] * n + k), -1)
    np.add.at(A, (rows, g * n + t[h, k]), 1)
    np.add.at(A, (rows, g * n + h), -1)
    return A % 2


def delta1_matrix(G):
    """Dense matrix of the 1-coboundary operator mod 2, one row per
    (g,h) pair."""
    n = G.order
    t = np.asarray(G.table)
    A = np.zeros((n * n, n), dtype=np.int8)
    g, h = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    g, h = g.ravel(), h.ravel()
    rows = np.arange(n * n)
    np.add.at(A, (rows, h), 1)
    np.add.at(A, (rows, t[g, h]), -1)
    np.add.at(A, (rows, g), 1)
    return A % 2


def delta1_rows(G):
    """Rows of delta1 in (g, h) order, one per pair, as Python ints:
    row (g,h) has bits h, gh and g, column x at bit x."""
    return [(1 << h) ^ (1 << gh) ^ (1 << g)
            for g, row in enumerate(G.table)
            for h, gh in enumerate(row)]


def delta2_rows(G):
    """Rows of delta2 in (g, h, k) order, one per triple, as Python ints:
    row (g,h,k) has bits (h,k), (gh,k), (g,hk) and (g,h), column (x,y)
    at bit x*n + y."""
    n, t = G.order, np.asarray(G.table, dtype=np.int64)
    g, h, k = np.indices((n, n, n)).reshape(3, -1)
    cols = (h * n + k, t[g, h] * n + k, g * n + t[h, k], g * n + h)
    return [(1 << a) ^ (1 << b) ^ (1 << c) ^ (1 << d)
            for a, b, c, d in zip(*(col.tolist() for col in cols))]


def coboundary_witness_full(G, values):
    """A 1-cochain c with delta c = values, solved over GF(2) on all n^2
    equations (one per pair); None when that system is inconsistent."""
    solver = Gf2Solver()
    rhs = np.asarray(values).ravel().tolist()
    for row, v in zip(delta1_rows(G), rhs):
        solver.add(row << 1 | int(v) % 2)
    sol = solver.solve()
    if sol is None:
        return None
    return np.array([(sol >> j) & 1 for j in range(G.order)], dtype=np.int8)


def pack_rows_gf2(A):
    """The nonzero rows of A mod 2 as ints, column j at bit j."""
    packed = np.packbits(np.asarray(A) % 2, axis=1, bitorder="little")
    width, raw = packed.shape[1], packed.tobytes()
    return {int.from_bytes(raw[i:i + width], "little")
            for i in range(0, len(raw), width)} - {0}


def divisor_integer_root(coeffs_desc) -> bool:
    """Whether a monic integer polynomial has an integer root, by trying
    the divisors of a0 up to sqrt|a0| and their cofactors: a rational
    root of a monic polynomial is an integer dividing a0."""
    a0 = coeffs_desc[-1]
    if a0 == 0:
        return True
    d = 1
    while d * d <= abs(a0):
        if a0 % d == 0:
            for r in (d, -d, a0 // d, -(a0 // d)):
                acc = 0
                for c in coeffs_desc:
                    acc = acc * r + c
                if acc == 0:
                    return True
        d += 1
    return False


def enumerate_full_box(coeff_height, disc_bound,
                       prime_budget=DEFAULT_PRIME_BUDGET):
    """enumerate_quintics by the plain loop: every vector of the box, in
    lexicographic order, gets a QuinticField (and so a discriminant),
    and dedup drops the later members of each fingerprint class."""
    def raw():
        span = range(-coeff_height, coeff_height + 1)
        for tail in product(span, repeat=5):
            coeffs = (1,) + tail
            if divisor_integer_root(coeffs):
                continue
            try:
                field = QuinticField(IntPolynomial.descending(coeffs),
                                     prime_budget=prime_budget)
            except NotSeparable:
                continue
            if abs(field.disc) > disc_bound:
                continue
            if _is_square(field.disc) or field.s5_status != "Certified":
                continue
            yield field

    return dedupe_stream(raw())


OracleField = namedtuple("OracleField", "coeffs poly disc kernel")


def scan_box(height, disc_bound, budget):
    """The fields enumerate_quintics(height, disc_bound, budget) keeps, in
    its order, from the routines of this module alone: every vector of
    the box in lexicographic order without an integer root (by
    divisor_integer_root), with a nonzero, non-square subresultant
    discriminant within the bound, and with the ddf patterns (5) and
    (1, 1, 1, 2) among the first `budget` primes not dividing it.  Of
    each key, the trial-division kernel with the ddf patterns at the
    first 20 primes not dividing the discriminant, the first vector is
    kept, as an OracleField holding that kernel."""
    span = range(-height, height + 1)
    keys, kept = set(), []
    for tail in product(span, repeat=5):
        coeffs = (1,) + tail
        if divisor_integer_root(coeffs):
            continue
        disc = subresultant_discriminant(coeffs[::-1])
        if disc == 0 or abs(disc) > disc_bound \
                or (disc > 0 and math.isqrt(disc) ** 2 == disc):
            continue
        poly = IntPolynomial.descending(coeffs)
        at = {}

        def pattern(p):
            if p not in at:
                at[p] = ddf_pattern_mod_p(poly, p).pattern
            return at[p]
        seen = set()
        for p in first_primes(budget):
            if disc % p:
                seen.add(pattern(p))
                if {(5,), (1, 1, 1, 2)} <= seen:
                    break
        else:
            continue
        # a nonzero disc has fewer prime factors than bits
        good = [p for p in first_primes(20 + abs(disc).bit_length())
                if disc % p][:20]
        kernel = squarefree_kernel_by_trial_division(disc)
        patterns = tuple(map(pattern, good))
        if (kernel.kernel, patterns) not in keys:
            keys.add((kernel.kernel, patterns))
            kept.append(OracleField(coeffs, poly, disc, kernel))
    return kept


def scan_report_of(curve, fields, edges) -> dict:
    """scan --json's report for curve over OracleFields: for each bound X
    in edges, the fields with |disc| <= X, the admissible pairs among
    them, and the pairs with chi = -1.  A pair is admissible when the
    kernel is complete, N is odd, Sturm's theorem finds one real root,
    no p | N divides disc, and (disc|p) = 1 by legendre_by_enumeration
    at each additive p; chi is root_number_ratio."""
    rows = []
    for field in fields:
        ok = (field.kernel.complete and curve.conductor % 2 == 1
              and sturm_root_count(field.poly.coeffs) == 1
              and all(field.disc % p for p, _ in curve.factorization)
              and all(legendre_by_enumeration(field.disc, p) == 1
                      for p, e in curve.factorization if e >= 2))
        rows.append((abs(field.disc), ok,
                     ok and root_number_ratio(curve, field) == -1))
    return {"curve": curve.label, "buckets": [
        {"X": x, "total": sum(d <= x for d, _, _ in rows),
         "admissible": sum(d <= x and ok for d, ok, _ in rows),
         "odd": sum(d <= x and odd for d, _, odd in rows)}
        for x in edges]}


def quintic_orbit(coeffs):
    """The monic quintics (descending coefficients) reached from coeffs
    by -f(-x) and, for a unit constant term, by x^5 f(1/x) / f(0)."""
    def mirror(c):
        asc = c[::-1]
        return tuple(-a * (-1) ** k for k, a in enumerate(asc))[::-1]

    def reciprocal(c):
        return tuple(a // c[-1] for a in c[::-1])

    orbit = {tuple(coeffs)}
    while True:
        grown = orbit | {mirror(c) for c in orbit} \
            | {reciprocal(c) for c in orbit if c[-1] in (1, -1)}
        if grown == orbit:
            return orbit
        orbit = grown


def shift_desc_binomial(coeffs, c: int) -> tuple:
    """Coefficients of f(x + c), descending input and output: each
    a_k (x + c)^k expanded by building the powers of (x + c) in turn."""
    asc = list(reversed(coeffs))
    acc = [0] * len(asc)
    cur = [1]
    for a in asc:
        for i, t in enumerate(cur):
            acc[i] += a * t
        nxt = [0] * (len(cur) + 1)
        for i, t in enumerate(cur):
            nxt[i] += c * t
            nxt[i + 1] += t
        cur = nxt
    return tuple(reversed(acc))


@lru_cache(maxsize=None)
def cyclic_group(n: int) -> FiniteGroup:
    table = (np.arange(n)[:, None] + np.arange(n)) % n
    return FiniteGroup(range(n), table.tolist(),
                       generators=[1] if n > 1 else None)


def direct_product(G1: FiniteGroup, G2: FiniteGroup) -> FiniteGroup:
    """Direct product with labels (a, b) -> a * |G2| + b."""
    n1, n2 = G1.order, G2.order
    t1 = np.asarray(G1.table, dtype=np.int64)
    t2 = np.asarray(G2.table, dtype=np.int64)
    t = (t1[:, None, :, None] * n2
         + t2[None, :, None, :]).reshape(n1 * n2, n1 * n2)
    elems = [(G1.elems[a], G2.elems[b]) for a in range(n1) for b in range(n2)]
    gens = [g * n2 for g in G1.generators] + list(G2.generators)
    return FiniteGroup(elems, t.tolist(), generators=gens or None)


def is_homomorphism(rep, tol: float = 1e-8) -> bool:
    """Every product rep(a) rep(b) matches rep(ab) within tol."""
    n, t, imgs = rep.group.order, np.asarray(rep.group.table), rep.images
    return all(np.abs(imgs[lo:hi, None] @ imgs - imgs[t[lo:hi]]).max() <= tol
               for lo, hi in row_chunks(n, n * rep.dim * rep.dim))


def pairwise_product_table(elems):
    """The table of a closed list of elements by all n^2 products, each
    looked up by equality."""
    index = {e: i for i, e in enumerate(elems)}
    return np.array([[index[a * b] for b in elems] for a in elems],
                    dtype=np.int32)


def closure_by_saturation(generators):
    """The set of all products of the generators, grown by multiplying
    every pair of members until nothing new appears."""
    members = set(generators)
    while True:
        grown = members | {a * b for a in members for b in members}
        if grown == members:
            return members
        members = grown


class M16(tuple):
    """The modular group of order 16, <a, b | a^8 = b^2 = 1,
    b a b = a^5>, as pairs (i, j) standing for a^i b^j."""

    def __mul__(self, y):
        return M16(((self[0] + y[0] * pow(5, self[1], 8)) % 8,
                    (self[1] + y[1]) % 2))


def unversioned_cache_line(rec: dict) -> str:
    """The cache line of rec in the layout before records carried a
    version: no "version" key, the fingerprint patterns as lists of
    factor degrees, and the SHA-256 of the canonical record text after
    '{"checksum":"<digest>",'.  rec may hold its own line's checksum."""
    old = {key: value for key, value in rec.items()
           if key not in ("checksum", "version")}
    kernel, codes = rec["fingerprint"]
    old["fingerprint"] = [kernel, [list(map(int, c)) for c in codes.split()]]
    text = json.dumps(old, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return '{"checksum":"' + digest + '",' + text[1:] + "\n"
