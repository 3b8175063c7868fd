"""Independent reference implementations used only by the tests.

Each routine here recomputes a quantity by a different algorithm than
the package uses: Legendre symbols by squaring residues, resultants by
Sylvester matrices with Bareiss elimination, real root counts by
Descartes bisection over exact rationals, mod-p factor patterns by
exhaustive trial division and, for any degree and prime, by
distinct-degree splitting, squarefree kernels by trial division by
every odd number up to the trial bound, quaternion group tables by
float nearest-neighbour matching, cocycle defects one group element
at a time, cohomology dimensions from the dense coboundary
matrices (one row per triple or pair, reduced mod 2), quintic
enumeration by deriving every vector of the coefficient box, and
mirror/reciprocal orbits by transforming the polynomial itself.  It
also holds the test-only cyclic groups, direct products and full
homomorphism check of a representation.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

import numpy as np

from quintrank.cocycles import _row_chunks
from quintrank.fieldscan import (
    NotSeparable,
    QuinticField,
    _has_integer_root,
    _is_square,
    dedupe_stream,
)
from quintrank.groups import FiniteGroup
from quintrank.numtheory import (
    DEFAULT_PRIME_BUDGET,
    DEFAULT_TRIAL_BOUND,
    FactorPattern,
    IntPolynomial,
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


def cocycle_defect_labels(G, values):
    """Labels g at which w(h,k) - w(gh,k) + w(g,hk) - w(g,h) is odd for
    some (h, k), one g at a time."""
    w = np.asarray(values, dtype=np.int64)
    t = G.table
    bad = []
    for g in range(len(t)):
        d = w - w[t[g]] + w[g][t] - w[g][:, None]
        if (d % 2).any():
            bad.append(g)
    return bad


def delta2_matrix(G):
    """Dense matrix of the 2-coboundary operator mod 2, one row per
    (g,h,k) triple and one column per (x,y) pair."""
    n = G.order
    t = G.table
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
    t = G.table
    A = np.zeros((n * n, n), dtype=np.int8)
    g, h = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    g, h = g.ravel(), h.ravel()
    rows = np.arange(n * n)
    np.add.at(A, (rows, h), 1)
    np.add.at(A, (rows, t[g, h]), -1)
    np.add.at(A, (rows, g), 1)
    return A % 2


def pack_rows_gf2(A):
    """The nonzero rows of A mod 2 as ints, column j at bit j."""
    packed = np.packbits(np.asarray(A) % 2, axis=1, bitorder="little")
    width, raw = packed.shape[1], packed.tobytes()
    return {int.from_bytes(raw[i:i + width], "little")
            for i in range(0, len(raw), width)} - {0}


def enumerate_full_box(coeff_height, disc_bound,
                       prime_budget=DEFAULT_PRIME_BUDGET, cache=None):
    """enumerate_quintics by the plain loop: every vector of the box, in
    lexicographic order, gets a QuinticField (and so a discriminant),
    and dedup drops the later members of each fingerprint class."""
    def raw():
        span = range(-coeff_height, coeff_height + 1)
        for tail in product(span, repeat=5):
            coeffs = (1,) + tail
            if _has_integer_root(coeffs):
                continue
            if cache is not None:
                hit = cache.get(coeffs, prime_budget)
                if hit is not None:
                    if abs(hit.disc) <= disc_bound \
                            and hit.s5_status == "Certified":
                        yield hit
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
            if cache is not None:
                cache.put(field)
            yield field

    return dedupe_stream(raw())


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


@lru_cache(maxsize=None)
def cyclic_group(n: int) -> FiniteGroup:
    table = (np.arange(n)[:, None] + np.arange(n)) % n
    return FiniteGroup(range(n), table, generators=[1] if n > 1 else None)


def direct_product(G1: FiniteGroup, G2: FiniteGroup) -> FiniteGroup:
    """Direct product with labels (a, b) -> a * |G2| + b."""
    n1, n2 = G1.order, G2.order
    t = (G1.table[:, None, :, None].astype(np.int64) * n2
         + G2.table[None, :, None, :]).reshape(n1 * n2, n1 * n2)
    elems = [(G1.elems[a], G2.elems[b]) for a in range(n1) for b in range(n2)]
    gens = [g * n2 for g in G1.generators] + list(G2.generators)
    return FiniteGroup(elems, t, generators=gens or None)


def is_homomorphism(rep, tol: float = 1e-8) -> bool:
    """Every product rep(a) rep(b) matches rep(ab) within tol."""
    n, t, imgs = rep.group.order, rep.group.table, rep.images
    return all(np.abs(imgs[lo:hi, None] @ imgs - imgs[t[lo:hi]]).max() <= tol
               for lo, hi in _row_chunks(n, n * rep.dim * rep.dim))
