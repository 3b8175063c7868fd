import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import chain, product

import numpy as np
import pytest

from oracles import (
    brute_pattern_mod_p,
    certify_s5_full_scan,
    count_real_roots_bisection,
    ddf_pattern_mod_p,
    divisor_integer_root,
    factor_completely,
    squarefree_kernel_by_trial_division,
    sturm_root_count,
    subresultant_discriminant,
    subresultant_resultant,
    sylvester_discriminant,
    sylvester_resultant,
)
from quintrank import galois, numtheory
from quintrank.fieldscan import QuinticField
from quintrank.galois import certify_s5, has_integer_root
from quintrank.numtheory import (
    DEFAULT_PRIME_BUDGET,
    FactorPattern,
    IntPolynomial,
    SquarefreeResult,
    disc_coeffs_in_a0,
    factor_pattern_mod_p,
    first_primes,
    is_probable_prime,
    kronecker_symbol,
    parse_int,
    poly_discriminant,
    quintic_patterns,
    real_root_count,
    resolvent,
    squarefree_kernel,
)

X5_X_1 = IntPolynomial.descending([1, 0, 0, 0, -1, -1])  # x^5 - x - 1


def _pattern(f, p):
    return factor_pattern_mod_p(f, p, poly_discriminant(f))


def _certify(f, budget=DEFAULT_PRIME_BUDGET):
    """certify_s5 fed, as two whole lists, the budget primes not
    dividing disc f and the patterns at them."""
    disc = poly_discriminant(f)
    good = [p for p in first_primes(budget) if disc % p]
    patterns = [factor_pattern_mod_p(f, p, disc).pattern for p in good]
    return certify_s5(f, len(good), lambda n: (patterns, good))


def _random_quintics(count, seed=20260819, lo=-30, hi=30):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        c = [int(v) for v in rng.integers(lo, hi + 1, size=6)]
        if c[5] != 0:
            out.append(IntPolynomial(c))
    return out


# -- integers -----------------------------------------------------------------


def test_parse_int_takes_only_ascii_decimals():
    assert [parse_int(t) for t in ["7", " -12 ", "+3", "-0", "007"]] \
        == [7, -12, 3, 0, 7]
    for bad in ["2.5", "x", "1e3", "1_0", "\u0661", "-\u0661", "", "+",
                "--1", "+-1", "\u00b2", "1 2", "0x10"]:
        with pytest.raises(ValueError, match="expected an integer"):
            parse_int(bad)


# -- Kronecker symbol ---------------------------------------------------------


def test_kronecker_matches_legendre_enumeration():
    for p in first_primes(95):
        if p == 2:
            continue
        squares = {x * x % p for x in range(1, p)}
        for a in range(-500, 501):
            expect = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert kronecker_symbol(a, p) == expect
        assert p <= 500


def test_kronecker_fixed_values():
    assert kronecker_symbol(5, 11) == 1
    assert kronecker_symbol(2, 15) == 1
    assert kronecker_symbol(2869, 3) == 1
    assert kronecker_symbol(5, 2) == -1
    for a in range(-7, 8):
        assert kronecker_symbol(a, 1) == 1


def test_kronecker_zero_and_negative_conventions():
    assert kronecker_symbol(1, 0) == 1
    assert kronecker_symbol(-1, 0) == 1
    for a in (0, 2, -2, 5, 9, -9):
        assert kronecker_symbol(a, 0) == 0
    # (a|2) by a mod 8
    for a, want in [(1, 1), (7, 1), (-1, 1), (3, -1), (5, -1), (-3, -1)]:
        assert kronecker_symbol(a, 2) == want
    assert kronecker_symbol(4, 2) == 0
    # (a|-1) is the sign of a
    assert kronecker_symbol(3, -1) == 1
    assert kronecker_symbol(-3, -1) == -1
    assert kronecker_symbol(-7, -5) == -kronecker_symbol(-7, 5)


def test_kronecker_nonpositive_n_by_definition():
    # (a|-1) is -1 for a < 0 and 1 otherwise, so (0|-1) = 1; (a|0) is 1
    # exactly for a = +-1; and (a|-n) = (a|-1) (a|n)
    for a in range(-50, 51):
        sign = -1 if a < 0 else 1
        assert kronecker_symbol(a, -1) == sign, a
        assert kronecker_symbol(a, 0) == (1 if a in (1, -1) else 0), a
        for n in range(1, 51):
            assert kronecker_symbol(a, -n) == \
                sign * kronecker_symbol(a, n), (a, n)


def test_kronecker_multiplicative_both_slots():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a, b = (int(v) for v in rng.integers(-200, 201, size=2))
        n, m = (int(v) for v in rng.integers(-120, 121, size=2))
        if 0 in (a, b, n, m):
            continue
        assert kronecker_symbol(a * b, n) == \
            kronecker_symbol(a, n) * kronecker_symbol(b, n)
        assert kronecker_symbol(a, n * m) == \
            kronecker_symbol(a, n) * kronecker_symbol(a, m)


def test_kronecker_periodic_mod_4n():
    rng = np.random.default_rng(8)
    for _ in range(200):
        a = int(rng.integers(-300, 301))
        n = int(rng.integers(1, 150))
        assert kronecker_symbol(a, n) == kronecker_symbol(a + 4 * n, n)


# -- primes ---------------------------------------------------------------------


def test_first_primes():
    assert first_primes(10) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    ps = first_primes(200)
    assert len(ps) == 200
    assert ps[-1] == 1223
    assert all(is_probable_prime(p) for p in ps)
    # each count reads a prefix of a sieve up to a power of two
    longest = first_primes(700)
    for n in (0, 1, 5, 6, 7, 37, 168, 169, 200, 300, 699):
        assert first_primes(n) == longest[:n]


def test_probable_prime_against_sieve():
    limit = 20000
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(flags[p * p::p]))
    for n in range(limit + 1):
        assert is_probable_prime(n) == bool(flags[n])


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 1000])
def test_sieve_matches_trial_division(limit):
    want = tuple(n for n in range(2, limit + 1)
                 if all(n % d for d in range(2, math.isqrt(n) + 1)))
    assert numtheory._sieve.__wrapped__(limit) == want


def test_probable_prime_large_and_carmichael():
    assert not is_probable_prime(561)
    assert not is_probable_prime(1105)
    assert is_probable_prime(2 ** 61 - 1)
    assert not is_probable_prime(2 ** 67 - 1)


def test_probable_prime_beyond_the_twelve_base_bound():
    # psi_12, the least strong pseudoprime to every base 2..37
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_probable_prime(psi12)
    assert psi12 < numtheory._MR_PROVEN
    assert is_probable_prime(41) and not is_probable_prime(41 * 43)


# -- discriminants ----------------------------------------------------------------


def test_discriminant_fixed_values():
    assert poly_discriminant(X5_X_1) == 2869
    assert factor_completely(2869) == {19: 1, 151: 1}
    assert poly_discriminant(IntPolynomial.descending([1, 0, 0, 0, 0, -1])) \
        == 3125


def test_discriminant_quadratic_and_cubic_closed_forms():
    # the subresultant oracle, which serves every degree
    rng = np.random.default_rng(11)
    for _ in range(200):
        b, c = (int(v) for v in rng.integers(-40, 41, size=2))
        assert subresultant_discriminant((c, b, 1)) == b * b - 4 * c
        p, q = (int(v) for v in rng.integers(-20, 21, size=2))
        assert subresultant_discriminant((q, p, 0, 1)) \
            == -4 * p ** 3 - 27 * q ** 2


def test_discriminant_trinomial_quintics():
    # disc(x^5 + a x + b) = 256 a^5 + 3125 b^4
    rng = np.random.default_rng(12)
    for _ in range(100):
        a, b = (int(v) for v in rng.integers(-30, 31, size=2))
        f = IntPolynomial([b, a, 0, 0, 0, 1])
        assert poly_discriminant(f) == 256 * a ** 5 + 3125 * b ** 4


def test_discriminant_against_sylvester_on_random_quintics():
    # mostly not monic: the closed form runs on a^4 f(y / a)
    for f in _random_quintics(1000):
        assert poly_discriminant(f) == sylvester_discriminant(f.coeffs)
    rng = random.Random(18)
    for h in (10, 50, 10 ** 4, 10 ** 9):
        for _ in range(150):
            c = [rng.randint(-h, h) for _ in range(5)] + [1]
            assert poly_discriminant(IntPolynomial(c)) \
                == sylvester_discriminant(c), (h, c)


def test_discriminant_other_degrees_against_sylvester():
    rng = np.random.default_rng(13)
    for deg in (2, 3, 4, 6, 7):
        for _ in range(60):
            c = [int(v) for v in rng.integers(-25, 26, size=deg + 1)]
            if c[deg] == 0:
                c[deg] = 1
            assert subresultant_discriminant(tuple(c)) \
                == sylvester_discriminant(c)


def test_closed_form_discriminant_on_the_height_three_box():
    # every monic quintic with |a_i| <= 3, one head's coefficients at a
    # time as the enumeration takes them
    for a4, a3, a2, a1 in product(range(-3, 4), repeat=4):
        cs = disc_coeffs_in_a0(a4, a3, a2, a1)
        for a0 in range(-3, 4):
            want = subresultant_discriminant((a0, a1, a2, a3, a4, 1))
            assert poly_discriminant(
                IntPolynomial([a0, a1, a2, a3, a4, 1])) == want
            assert (((cs[0] * a0 + cs[1]) * a0 + cs[2]) * a0 + cs[3]) * a0 \
                + cs[4] == want


def _inverse_vandermonde(nodes):
    """(M, D) with M / D the inverse of V[j][i] = nodes[j] ** i, M
    integer: M / D takes values at the nodes to monomial coefficients."""
    n = len(nodes)
    rows = [[Fraction(x) ** i for i in range(n)]
            + [Fraction(int(i == j)) for i in range(n)]
            for j, x in enumerate(nodes)]
    for k in range(n):
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for j in range(n):
            if j != k and rows[j][k]:
                c = rows[j][k]
                rows[j] = [a - c * b for a, b in zip(rows[j], rows[k])]
    inv = [row[n:] for row in rows]
    D = math.lcm(*(v.denominator for row in inv for v in row))
    return [[int(v * D) for v in row] for row in inv], D


def test_disc_coeffs_in_a0_by_interpolation():
    """disc f has degree <= 4 in a0 (a0 sits in four rows of the
    Sylvester matrix of f and f') and total degree 8, so each of its
    coefficients in a0 has degree <= 8 in each of a4..a1.  Its values on
    the head grid {-4..4}^4, interpolated from the Sylvester
    discriminants at a0 = -2..2, therefore fix all five polynomials:
    agreeing with disc_coeffs_in_a0 there proves the closed form, and
    the interpolated monomials are the 1, 6, 16, 20 and 16 terms."""
    a0s, nodes = range(-2, 3), range(-4, 5)
    M0, D0 = _inverse_vandermonde(a0s)
    grid = np.empty((5,) + (len(nodes),) * 4, dtype=object)
    for idx in product(range(len(nodes)), repeat=4):
        a4, a3, a2, a1 = (nodes[i] for i in idx)
        values = [sylvester_discriminant([a0, a1, a2, a3, a4, 1])
                  for a0 in a0s]
        low_to_high = [sum(m * v for m, v in zip(row, values)) for row in M0]
        assert all(c % D0 == 0 for c in low_to_high)
        cs = tuple(c // D0 for c in reversed(low_to_high))
        assert cs == disc_coeffs_in_a0(a4, a3, a2, a1), (a4, a3, a2, a1)
        grid[(slice(None),) + idx] = cs
    M, D = _inverse_vandermonde(nodes)
    M = np.array(M, dtype=object)
    for axis in range(1, 5):
        grid = np.moveaxis(np.tensordot(M, grid, axes=([1], [axis])), 0, axis)
    monomials = [[c // D ** 4 for c in grid[k].ravel() if c] for k in range(5)]
    assert all(c % D ** 4 == 0 for c in grid.ravel())
    assert [len(m) for m in monomials] == [1, 6, 16, 20, 16]
    assert monomials[0] == [3125]


def test_resultant_random_pairs_against_sylvester():
    rng = np.random.default_rng(14)
    for _ in range(250):
        df = int(rng.integers(1, 6))
        dg = int(rng.integers(1, 6))
        fc = [int(v) for v in rng.integers(-12, 13, size=df + 1)]
        gc = [int(v) for v in rng.integers(-12, 13, size=dg + 1)]
        if fc[df] == 0:
            fc[df] = 3
        if gc[dg] == 0:
            gc[dg] = -2
        assert subresultant_resultant(tuple(fc), tuple(gc)) == \
            sylvester_resultant(fc, gc)


def test_resultant_constant_and_shared_factor_cases():
    f = (2, 0, 1)       # x^2 + 2
    assert subresultant_resultant(f, (7,)) == 49
    assert subresultant_resultant((7,), f) == 49
    # common factor (x - 1): resultant vanishes
    a = (-1, 0, 1)      # (x-1)(x+1)
    b = (1, -2, 1)      # (x-1)^2
    assert subresultant_resultant(a, b) == 0


def test_discriminant_degree_precondition():
    for coeffs in ([3, 2], [1, 0, 0, 1], [1, 0, 0, 0, 0, 0, 1]):
        with pytest.raises(ValueError):
            poly_discriminant(IntPolynomial(coeffs))


# -- real root counts ---------------------------------------------------------------


def test_root_count_fixed_values():
    assert real_root_count(X5_X_1) == 1
    assert sturm_root_count((1, 0, 1)) == 0                    # x^2 + 1
    assert real_root_count(IntPolynomial([0, -4, 0, 0, 0, 1])) == 3
    # five real roots: x(x-1)(x+1)(x-2)(x+2)
    full = IntPolynomial([0, 4, 0, -5, 0, 1])
    assert real_root_count(full) == 5
    assert real_root_count(full, poly_discriminant(full)) == 5


def test_root_count_not_squarefree():
    f = IntPolynomial.descending([1, 0, -3, -2, 0, 0])  # x^2 (x+1)^2 (x-2)
    with pytest.raises(ValueError, match="repeated root"):
        real_root_count(f)
    with pytest.raises(ValueError, match="repeated root"):
        real_root_count(X5_X_1, disc=0)


def test_root_count_is_quintic_only():
    for coeffs in ([1, 0, 1], [2, -3, 0, 1], [1, 0, 0, 0, 0, 0, 1], [7]):
        with pytest.raises(ValueError):
            real_root_count(IntPolynomial(coeffs))


def test_root_count_against_bisection_on_random_quintics():
    skipped = 0
    for f in _random_quintics(1000):
        if poly_discriminant(f) == 0:
            skipped += 1
            continue
        assert real_root_count(f) == count_real_roots_bisection(f.coeffs)
    assert skipped < 20


def test_root_count_against_bisection_on_seeded_large_quintics():
    # monic and not, up to height 2^70: the minors run to ~ 2^1000
    rng = random.Random(1901)
    seen = set()
    for h in (10 ** 3, 10 ** 9, 2 ** 40, 2 ** 70):
        for monic in (True, False):
            for _ in range(12):
                c = [rng.randint(-h, h) for _ in range(5)]
                c.append(1 if monic else rng.choice([-1, 1]) * rng.randint(2, h))
                f = IntPolynomial(c)
                disc = poly_discriminant(f)
                if disc == 0:
                    continue
                r = real_root_count(f, disc)
                assert r == count_real_roots_bisection(c), c
                seen.add(r)
    assert seen == {1, 3, 5}


def test_root_count_against_sturm_on_the_height_three_box():
    seen = set()
    for tail in product(range(-3, 4), repeat=5):
        f = IntPolynomial.descending((1,) + tail)
        disc = poly_discriminant(f)
        if disc == 0:
            continue
        r = real_root_count(f, disc)
        assert r == sturm_root_count(f.coeffs), tail
        seen.add((r, disc > 0))
    assert seen == {(1, True), (3, False), (5, True)}


def test_root_count_of_x5_plus_a0_has_a_zero_hankel_pivot():
    # s1 = .. = s4 = 0, so the leading 2x2 minor 5 s2 - s1^2 vanishes;
    # disc = 5^5 a^4 a0^4 > 0 and there is one real root
    for a in (1, -1, 3):
        for a0 in (-7, -2, -1, 1, 2, 10 ** 4, 2 ** 70):
            f = IntPolynomial([a0, 0, 0, 0, 0, a])
            assert poly_discriminant(f) > 0
            assert real_root_count(f) == 1 == sturm_root_count(f.coeffs)


def test_root_count_of_five_distinct_linear_factors():
    rng = random.Random(1902)
    for h in (3, 50, 10 ** 6):
        for _ in range(40):
            f = (1,)
            roots = set()
            while len(roots) < 5:
                b, c = rng.randint(1, 4), rng.randint(-h, h)
                if Fraction(c, b) in roots:
                    continue
                roots.add(Fraction(c, b))
                # times (b x - c), coefficients low to high
                f = tuple(b * u - c * v
                          for u, v in zip((0,) + f, f + (0,)))
            assert real_root_count(IntPolynomial(f)) == 5


def test_root_count_against_bisection_other_degrees():
    # the Sturm oracle that the quintic Hermite route replaced
    rng = np.random.default_rng(15)
    for deg in (2, 3, 4, 6):
        for _ in range(80):
            c = [int(v) for v in rng.integers(-15, 16, size=deg + 1)]
            if c[deg] == 0:
                c[deg] = 1
            if subresultant_discriminant(tuple(c)) == 0:
                continue
            assert sturm_root_count(c) == count_real_roots_bisection(c)


def test_root_count_determines_discriminant_sign():
    # five distinct roots of which r are real: sign(disc) = (-1)^((5-r)/2),
    # the rule behind real_root_count's disc < 0 shortcut, on the oracle
    for f in _random_quintics(300, seed=16):
        disc = poly_discriminant(f)
        if disc == 0:
            continue
        r = sturm_root_count(f.coeffs)
        pairs = (5 - r) // 2
        assert (disc > 0) == (pairs % 2 == 0)


# -- factor patterns mod p ------------------------------------------------------------


def test_pattern_fixed_values():
    assert _pattern(X5_X_1, 2) == FactorPattern(True, (2, 3))
    x5_x = IntPolynomial([0, -1, 0, 0, 0, 1])
    assert _pattern(x5_x, 3) == FactorPattern(True, (1, 1, 1, 2))


def test_pattern_ramified_primes_not_squarefree():
    # 2869 = 19 * 151; both primes see a repeated factor
    for p in (19, 151):
        assert _pattern(X5_X_1, p) == FactorPattern(False, None)


def test_pattern_against_brute_factorization():
    rng = np.random.default_rng(17)
    for _ in range(150):
        c = [int(v) for v in rng.integers(-10, 11, size=6)]
        c[5] = 1
        f = IntPolynomial(c)
        for p in (2, 3, 5, 7, 11):
            sf, pattern = brute_pattern_mod_p(f.coeffs, p)
            got = _pattern(f, p)
            assert got.squarefree == sf
            if sf:
                assert got.pattern == pattern


def test_pattern_fast_path_matches_general_ddf():
    rng = np.random.default_rng(23)
    for _ in range(120):
        c = [int(v) for v in rng.integers(-15, 16, size=6)]
        c[5] = 1
        f = IntPolynomial(c)
        for p in (2, 3, 5, 7, 101, 1223):
            assert _pattern(f, p) == ddf_pattern_mod_p(f, p)


def test_root_count_rule_matches_ddf_for_every_monic_quintic_mod_small_p():
    from itertools import product

    for p in (2, 3, 5, 7):
        for tail in product(range(p), repeat=5):
            f = IntPolynomial(list(tail) + [1])
            assert _pattern(f, p) == ddf_pattern_mod_p(f, p)


def test_root_count_rule_matches_ddf_at_first_200_primes():
    primes = first_primes(200)
    rng = np.random.default_rng(29)
    for _ in range(40):
        c = [int(v) for v in rng.integers(-50, 51, size=6)]
        c[5] = 1
        f = IntPolynomial(c)
        disc = poly_discriminant(f)
        for p in primes:
            expect = ddf_pattern_mod_p(f, p)
            assert factor_pattern_mod_p(f, p, disc) == expect


@pytest.mark.parametrize("floor", [2 ** 20, 2 ** 31, 10 ** 12, 2 ** 61])
def test_root_count_rule_matches_ddf_at_large_primes(floor):
    # the root count is exact at every prime, far above any prime budget
    p = next(n for n in range(floor + 1, 2 * floor) if is_probable_prime(n))
    seen = set()
    for f in _random_quintics(60, seed=31, lo=-10 ** 6, hi=10 ** 6):
        f = IntPolynomial(list(f.coeffs[:5]) + [1])
        disc = poly_discriminant(f)
        expect = ddf_pattern_mod_p(f, p)
        assert factor_pattern_mod_p(f, p, disc) == expect
        seen.add(expect.pattern)
    assert len(seen) >= 4


def test_pattern_rejects_non_quintics():
    # a non-monic quintic is refused like any non-quintic
    for coeffs in ([1, 0, 0, 0, 1], [1, 1, 0, 0, 0, 0, 1], [-1, 1],
                   [1, 1, 0, 0, 0, 3]):
        with pytest.raises(ValueError):
            factor_pattern_mod_p(IntPolynomial(coeffs), 7, 1)
        with pytest.raises(ValueError):
            certify_s5(IntPolynomial(coeffs), 1, lambda n: ([], []))


def _good_primes(disc, count):
    return [p for p in first_primes(count + abs(disc).bit_length())
            if disc % p][:count]


def _assert_kernel_matches_per_prime(f, primes):
    disc = poly_discriminant(f)
    assert quintic_patterns(f, primes, disc) == [
        factor_pattern_mod_p(f, p, disc) for p in primes]


@pytest.mark.parametrize("height", [2, 50, 10 ** 4, 2 ** 70])
def test_quintic_patterns_match_per_prime_on_random_quintics(height):
    # the blocks a field's pattern stream asks for: the fingerprint, the
    # audit (where a rebuilt field starts, after 20 seeded patterns) and
    # the next doubling
    rng = random.Random(height)
    for _ in range(25):
        f = IntPolynomial([rng.randint(-height, height) for _ in range(5)]
                          + [1])
        disc = poly_discriminant(f)
        if disc == 0:
            continue
        good = _good_primes(disc, 100)
        for lo, hi in ((0, 20), (20, 50), (50, 100)):
            _assert_kernel_matches_per_prime(f, good[lo:hi])


def test_quintic_patterns_with_integer_roots():
    # f(x) = 0 at some x >= 0 makes the gcd the whole prime product;
    # roots below 0 are only ever seen through their residues
    for roots, rest in (((0,), (1, 1, 0, 0, 1)), ((3,), (1, 0, 1, 1, 1)),
                        ((7, -2), (1, 1, 0, 1)), ((-1,), (1, 0, 0, 1, 1)),
                        ((-5, -11, 4), (1, 1, 1)), ((2, 5, -3, 10, -20), (1,))):
        c = list(rest)                  # ascending; times x - r per root
        for r in roots:
            c = [a - r * b for a, b in zip([0] + c, c + [0])]
        f = IntPolynomial(c)
        assert f.degree == 5 and f.lc == 1
        assert all(sum(a * r ** i for i, a in enumerate(c)) == 0
                   for r in roots)
        disc = poly_discriminant(f)
        assert disc != 0
        _assert_kernel_matches_per_prime(f, _good_primes(disc, 60))


def test_quintic_patterns_at_two_and_three():
    # every residue class of a monic quintic mod 6
    from itertools import product
    checked = 0
    for tail in product(range(6), repeat=5):
        f = IntPolynomial(list(tail) + [1])
        disc = poly_discriminant(f)
        if disc % 6:
            block = [p for p in (2, 3, 5, 7) if disc % p]
            assert quintic_patterns(f, block, disc) == [
                factor_pattern_mod_p(f, p, disc) for p in block]
            checked += 1
    assert checked > 6000


def test_quintic_patterns_past_the_per_prime_crossover():
    from quintrank.fieldscan import _BLOCK_BELOW
    for f in (X5_X_1, IntPolynomial.descending([1, -3, 17, 0, -40, 9])):
        disc = poly_discriminant(f)
        block = [p for p in numtheory._sieve(_BLOCK_BELOW + 600)
                 if p > _BLOCK_BELOW - 600 and disc % p]
        assert block[0] < _BLOCK_BELOW < block[-1]
        _assert_kernel_matches_per_prime(f, block)


def test_quintic_patterns_preconditions():
    disc = poly_discriminant(X5_X_1)            # 2869 = 19 * 151
    assert quintic_patterns(X5_X_1, [], disc) == []
    with pytest.raises(ValueError):
        quintic_patterns(X5_X_1, [17, 19, 23], disc)
    with pytest.raises(ValueError):
        quintic_patterns(X5_X_1, [5, 3], disc)
    with pytest.raises(ValueError):
        quintic_patterns(X5_X_1, [3, 5, 5], disc)
    with pytest.raises(ValueError):
        quintic_patterns(IntPolynomial([-1, -1, 0, 0, 0, 3]), [5], disc)
    with pytest.raises(ValueError):
        quintic_patterns(IntPolynomial([-1, -1, 0, 1]), [5], disc)


def test_pattern_degrees_sum_to_degree():
    rng = np.random.default_rng(18)
    for _ in range(200):
        c = [int(v) for v in rng.integers(-20, 21, size=6)]
        c[5] = 1
        f = IntPolynomial(c)
        for p in (2, 3, 5, 13, 101):
            got = _pattern(f, p)
            if got.squarefree:
                assert sum(got.pattern) == 5


# -- Galois certification ----------------------------------------------------------------


def test_certify_flagship_quintic():
    cert = _certify(X5_X_1)
    assert cert.status == "Certified"
    p5, p2 = cert.five_cycle_witness, cert.transposition_witness
    assert _pattern(X5_X_1, p5).pattern == (5,)
    assert _pattern(X5_X_1, p2).pattern == (1, 1, 1, 2)
    # re-check both witnesses with the exhaustive factorizer
    assert brute_pattern_mod_p(X5_X_1.coeffs, p5) == (True, (5,))
    assert brute_pattern_mod_p(X5_X_1.coeffs, p2) == (True, (1, 1, 1, 2))
    assert cert.primes_scanned <= 200
    # the budget counts the primes tried: 19 and 151, the 8th and 36th
    # primes, divide disc = 2869 and are tried but not scanned
    from quintrank.fieldscan import QuinticField
    for budget, want in ((8, ("Inconclusive", 3, None, 7)),
                         (37, ("Inconclusive", 3, None, 35)),
                         (38, ("Certified", 3, 163, 36))):
        cert = _certify(X5_X_1, budget)
        assert (cert.status, cert.five_cycle_witness,
                cert.transposition_witness, cert.primes_scanned) == want
        assert QuinticField(X5_X_1, prime_budget=budget).certificate == cert


def test_certify_solvable_quintic_inconclusive():
    # x^5 - 2 has a solvable splitting field: no transposition pattern
    f = IntPolynomial([-2, 0, 0, 0, 0, 1])
    cert = _certify(f)
    assert cert.status == "Inconclusive"
    assert cert.transposition_witness is None
    assert cert.five_cycle_witness is not None


def test_certify_reducible_inconclusive():
    # (x^2 + 1)(x^3 - 2): never irreducible mod p
    f = IntPolynomial([-2, 0, -2, 1, 0, 1])
    cert = _certify(f)
    assert cert.status == "Inconclusive"
    assert cert.five_cycle_witness is None


def test_certify_degree_precondition():
    with pytest.raises(ValueError):
        certify_s5(IntPolynomial([1, 0, 0, 0, 1]), 1, lambda n: ([], []))


def test_certify_reads_only_the_primes_it_is_handed(monkeypatch):
    # the caller's stream hands the good primes with their patterns;
    # certify_s5 sieves none, takes the i-th pattern as the one at the
    # i-th prime it was handed, and reads no more than `good` of them
    def no_sieve(count):
        raise AssertionError("certify_s5 sieved primes")
    monkeypatch.setattr(numtheory, "first_primes", no_sieve)
    handed = [(2, 3), (5,), (1, 1, 1, 2)], [7, 11, 13]
    assert certify_s5(X5_X_1, 3, lambda n: handed) \
        == galois.S5Certificate("Certified", 11, 13, 3)
    assert certify_s5(X5_X_1, 2, lambda n: handed) \
        == galois.S5Certificate("Inconclusive", 11, None, 2)
    assert certify_s5(X5_X_1, 2, lambda n: ([(5,), (1, 4)], [7, 11])) \
        == galois.S5Certificate("Inconclusive", 7, None, 2)


def _times_linear(r, g_desc):
    """Descending coefficients of (x - r) g(x)."""
    out = list(g_desc) + [0]
    for i, a in enumerate(g_desc):
        out[i + 1] -= r * a
    return out


def _first_good_prime(f):
    disc = poly_discriminant(f)
    return next(p for p in first_primes(disc.bit_length() + 2) if disc % p)


def _counting_integer_root_tests(monkeypatch):
    calls = []

    def counted(f, p):
        calls.append(f)
        return has_integer_root(f, p)
    monkeypatch.setattr(galois, "has_integer_root", counted)
    return calls


def test_certify_rooted_height_two_box_matches_full_scan(monkeypatch):
    # the full scan reads patterns from one quintic_patterns pass per
    # vector (the tests above check it against the per-prime patterns,
    # and those against ddf_pattern_mod_p at the first 200 primes); ddf
    # at every prime would take about a minute here
    calls = _counting_integer_root_tests(monkeypatch)
    rooted = transpositions = 0
    for tail in product(range(-2, 3), repeat=5):
        coeffs = (1,) + tail
        if not divisor_integer_root(coeffs):
            continue
        f = IntPolynomial.descending(coeffs)
        disc = poly_discriminant(f)
        if disc == 0:
            continue
        rooted += 1
        good = [p for p in first_primes(200) if disc % p]
        at = dict(zip(good, quintic_patterns(f, good, disc)))
        patterns = [at[p].pattern for p in good]
        for budget in (7, 40, 200):
            want = certify_s5_full_scan(f, budget, pattern=at.__getitem__)
            assert want.status == "Inconclusive"
            transpositions += want.transposition_witness is not None
            handed = [p for p in first_primes(budget) if disc % p]
            cert = certify_s5(f, len(handed), lambda n: (patterns, good))
            assert cert == want, (coeffs, budget)
            field = QuinticField(f, prime_budget=budget)
            assert field.certificate == want, (coeffs, budget)
    assert rooted == 990
    # every pattern of a rooted quintic has a linear factor, so each of
    # the two paths tests for an integer root exactly at the first
    # transposition, when there is one
    assert len(calls) == 2 * transpositions > 2 * rooted


def test_certify_x5_plus_x_never_sees_a_transposition(monkeypatch):
    # x^5 + x = x (x^4 + 1): x^4 + 1 is never (1, 1, 2) mod p
    calls = _counting_integer_root_tests(monkeypatch)
    f = IntPolynomial([0, 1, 0, 0, 0, 1])
    for budget in (7, 40, 200):
        want = certify_s5_full_scan(f, budget)
        assert want.transposition_witness is None
        assert _certify(f, budget) == want
        assert QuinticField(f, prime_budget=budget).certificate == want
    assert want == galois.S5Certificate("Inconclusive", None, None, 199)
    assert calls == []


def test_certify_planted_integer_roots_match_full_scan():
    rng = random.Random(17)
    for _ in range(4):
        r = rng.choice((-1, 1)) * rng.randint(1, 10 ** 12)
        g = [1] + [rng.randint(-10 ** 40, 10 ** 40) for _ in range(4)]
        f = IntPolynomial.descending(_times_linear(r, g))
        for budget in (7, 40, 200):
            want = certify_s5_full_scan(f, budget)
            assert _certify(f, budget) == want
            assert QuinticField(f, prime_budget=budget).certificate == want


def test_has_integer_root_matches_divisor_test_on_height_three_box():
    checked = 0
    for tail in product(range(-3, 4), repeat=5):
        coeffs = (1,) + tail
        f = IntPolynomial.descending(coeffs)
        if poly_discriminant(f) == 0:
            continue
        checked += 1
        assert has_integer_root(f, _first_good_prime(f)) \
            == divisor_integer_root(coeffs), coeffs
    assert checked > 15000


@pytest.mark.parametrize("coeffs, p, rooted", [
    ((1, 0, 0, 0, 1, 0), 3, True),      # x^5 + x: root 0
    ((1, -1, 0, -1, 0, 1), 2, True),    # (x - 1)(x^4 - x - 1), disc -283
    ((1, 0, 0, 0, -1, 0), 3, True),     # x^5 - x, disc -256
    ((1, 0, 0, 0, 1, -2), 5, True),     # x^5 + x - 2, disc 50256 = 2^4 3^2 349
    ((1, 0, 0, 0, 0, -2), 3, False),    # x^5 - 2: 2 is a root mod 3
    ((1, 0, 0, 0, -1, -1), 2, False),   # x^5 - x - 1
])
def test_has_integer_root_fixed_cases(coeffs, p, rooted):
    f = IntPolynomial.descending(coeffs)
    assert _first_good_prime(f) == p
    assert has_integer_root(f, p) is rooted


def test_has_integer_root_planted_roots_near_10_to_the_12():
    rng = random.Random(12)
    t0 = time.perf_counter()
    for _ in range(20):
        r = rng.choice((-1, 1)) * (10 ** 12 + rng.randint(-50, 50))
        g = [1] + [rng.randint(-10 ** 40, 10 ** 40) for _ in range(4)]
        desc = _times_linear(r, g)
        f = IntPolynomial.descending(desc)
        assert has_integer_root(f, _first_good_prime(f))
        desc[-1] += 1    # moves every root off the integers here
        f = IntPolynomial.descending(desc)
        assert not has_integer_root(f, _first_good_prime(f))
    # Newton lifting takes a few steps; a divisor search of a0 never ends
    assert time.perf_counter() - t0 < 1.0


def test_five_cycle_density_flagship():
    # proportion of irreducible reductions over the first 500 good primes
    disc = poly_discriminant(X5_X_1)
    hits = good = 0
    for p in first_primes(510):
        if disc % p == 0:
            continue
        if good == 500:
            break
        good += 1
        if factor_pattern_mod_p(X5_X_1, p, disc).pattern == (5,):
            hits += 1
    assert good == 500
    assert 0.1 <= hits / good <= 0.3


# -- squarefree kernel ----------------------------------------------------------


def test_squarefree_kernel_fixed_values():
    assert squarefree_kernel(2869).kernel == 2869
    assert squarefree_kernel(2869).complete
    assert squarefree_kernel(4) == type(squarefree_kernel(4))(1, True)
    assert squarefree_kernel(18).kernel == 2
    assert squarefree_kernel(-12).kernel == -3
    assert squarefree_kernel(1).kernel == 1
    with pytest.raises(ValueError):
        squarefree_kernel(0)


def test_squarefree_kernel_against_full_factorization():
    rng = np.random.default_rng(19)
    for _ in range(400):
        n = int(rng.integers(2, 10 ** 6))
        if rng.integers(0, 2):
            n = -n
        res = squarefree_kernel(n)
        assert res.complete
        expect = 1
        for p, e in factor_completely(n).items():
            if e % 2:
                expect *= p
        if n < 0:
            expect = -expect
        assert res.kernel == expect
        # the removed part is a perfect square
        quad = n // res.kernel
        assert quad > 0 and math.isqrt(quad) ** 2 == quad


# primes above the trial bound 10^6; P3 ** 3 and P3 * Q3 * R3 exceed 10^18
P3, Q3, R3 = 1000003, 1000033, 1000037
P13 = 1000000000039


def test_squarefree_kernel_cofactor_resolution():
    # semiprime cofactor below bound^3 = 10^18 is forced
    r = squarefree_kernel(P3 * Q3)
    assert r == type(r)(P3 * Q3, True)
    # square cofactor contributes nothing even if its root is composite
    assert squarefree_kernel(P3 ** 2) == type(r)(1, True)
    assert squarefree_kernel(-(P3 * Q3) ** 2) == type(r)(-1, True)
    # prime-power cofactor beyond bound^3 stays unresolved
    r = squarefree_kernel(P3 ** 3)
    assert not r.complete
    assert r.kernel == P3 ** 3
    # three large primes: flagged incomplete
    assert not squarefree_kernel(P3 * Q3 * R3).complete
    # prime cofactor resolved by the primality test
    r = squarefree_kernel(4 * P13)
    assert r == type(r)(P13, True)


# primes just above the bound; the last three rows leave cofactors of
# 10^18 and more that are neither prime nor square, so incomplete
LARGE_PRIME_PRODUCTS = [
    P3 * Q3 * 7 ** 3 * 11, P3 ** 2 * Q3, (P3 * Q3) ** 2 * 5,
    2 ** 5 * Q3 * R3 ** 2, P3 ** 4 * R3, P3 * Q3 * R3 * 3 ** 2 * 13,
    P3 ** 3 * Q3 ** 2 * 7]


def test_squarefree_kernel_of_primes_just_above_the_bound():
    got = []
    for i, n in enumerate(LARGE_PRIME_PRODUCTS):
        for signed in (n, -n) if i % 2 else (n,):
            got.append(squarefree_kernel(signed))
            assert got[-1] == squarefree_kernel_by_trial_division(signed), n
    assert got[0] == SquarefreeResult(7 * 11 * P3 * Q3, True)
    assert not any(r.complete for r in got[-4:])


def test_squarefree_kernel_tests_each_cofactor_once(monkeypatch):
    # a cofactor that no run of primes changes is tested once, where each
    # of the 153 runs used to test it again; and P3 * Q3 has at most two
    # prime factors once a run's smallest prime p has p^3 > P3 * Q3, so
    # the scan stops at the first run above 10^4
    calls, runs = [], []
    real = numtheory.is_probable_prime
    monkeypatch.setattr(numtheory, "is_probable_prime",
                        lambda n: calls.append(n) or real(n))
    table = numtheory._prime_products()
    monkeypatch.setattr(numtheory, "_prime_products",
                        lambda: (runs.append(run[0]) or run for run in table))
    squarefree_kernel(P3 * Q3 * 7 ** 3 * 11)
    assert calls == [P3 * Q3]
    assert runs[-1] ** 3 > P3 * Q3 > runs[-2] ** 3 and len(runs) < 10
    for n in LARGE_PRIME_PRODUCTS + [1009 ** 3 * P3 * Q3, P13 * 999983]:
        calls.clear()
        result = squarefree_kernel(n)
        assert calls and len(calls) == len(set(calls)), n
        assert result == squarefree_kernel_by_trial_division(n)


def _next_prime(n, step=1):
    while not is_probable_prime(n):
        n += step
    return n


def _chunk_runs(bound):
    primes = [p for p in numtheory._sieve(bound) if p >= 1000]
    return [primes[i:i + numtheory._CHUNK]
            for i in range(0, len(primes), numtheory._CHUNK)]


def _kernel_cases(bound, rng):
    """Inputs built around `bound`: the chunk-run edges of the primes up
    to it, prime powers, square and semiprime cofactors on both sides of
    bound^3 and of the Miller-Rabin bound.  At bound = 10^6, the fixed
    trial bound, they steer squarefree_kernel through each of its
    exits."""
    lead = {1009, 999983}
    runs = _chunk_runs(bound)
    for run in runs[:2] + runs[len(runs) // 2:][:1] + runs[-1:]:
        lead |= {run[0], run[-1]}
    cases = [p ** k * q for p in sorted(lead)
             for k, q in ((1, 1000003), (2, 1), (2, 6 * 1000003), (3, 6))]
    cases += [p * p * c for p in (991, 997, 1009, 1013) for c in (1, 15)]
    p = _next_prime(max(bound, 1) + 1)
    for edge in (max(bound, 1) ** 3, numtheory._MR_PROVEN):
        near = max(edge // p, 3)
        for q in (_next_prime(near), _next_prime(near, -1)):
            cases += [p * q, 12 * p * q]
        cases += [_next_prime(edge), 3 * _next_prime(max(edge, 3), -1)]
    cases += [318665857834031151167461, 41, 4 * 41 ** 3]
    # seeded random n below 10^40, plain and with repeated factors
    for _ in range(3):
        a, b, c = (int(rng.integers(1, 10 ** k)) for k in (18, 18, 4))
        cases += [a * b * c, (a % 10 ** 9 + 2) ** 4 * c]
    return cases


@pytest.mark.parametrize("around", [1, 2, 3, 10, 999, 1000, 1009,
                                    10 ** 4, 10 ** 6])
def test_squarefree_kernel_matches_trial_division_oracle(around):
    # the cases built around smaller bounds hit the early chunks and
    # small cofactors of the fixed bound
    rng = np.random.default_rng(around)
    for i, n in enumerate(_kernel_cases(around, rng)):
        for signed in (n, -n) if i % 5 == 0 else (n,):
            assert squarefree_kernel(signed) == \
                squarefree_kernel_by_trial_division(signed), (n, around)


def test_squarefree_kernel_prime_products_table():
    assert numtheory._prime_products() == tuple(
        (run[0], math.prod(run)) for run in _chunk_runs(10 ** 6))


SEGMENT_END = 999 + 2 * numtheory._SEGMENT      # the first segment's last


@pytest.mark.parametrize("lo, limit", [
    (1000, 1000), (1000, 1009), (1000, SEGMENT_END),
    (1000, SEGMENT_END + 2), (SEGMENT_END - 100, SEGMENT_END + 100),
    (999_000, 10 ** 6)])
def test_prime_segments_match_the_whole_sieve(lo, limit):
    want = [p for p in numtheory._sieve.__wrapped__(limit) if p >= lo]
    got = chain.from_iterable(numtheory._prime_segments(lo, limit))
    assert list(got) == want


def test_prime_products_build_holds_one_segment_at_a_time():
    # sieving all of [1, 10^6) at once peaked ~770 KiB above the ~200 KiB
    # table it kept
    numtheory._prime_products.cache_clear()
    tracemalloc.start()
    try:
        table = numtheory._prime_products()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 153
    assert peak - kept < 200 * 1024


def test_squarefree_kernel_small_parts_near_1000_around_10_to_the_6():
    # the primes below 1000 come from one gcd, and a cofactor below 1000^2
    # is taken as 1 or a prime: parts built from the largest primes below
    # 1000, times cofactors just below and just above 10^6
    rng = random.Random(2026)
    parts = [1, 2, 12, 991, 997, 991 ** 2, 997 ** 2, 991 ** 3, 997 ** 3,
             991 * 997 ** 2, 4 * 991 ** 2 * 997 ** 3]
    cofactors = [999_983, 10 ** 6, 1_000_003, 1009 ** 2, 1009 * 1013,
                 997 * 1009, 991 * 997 * 1009]
    cofactors += [rng.randrange(10 ** 6 - 5000, 10 ** 6) for _ in range(30)]
    cofactors += [rng.randrange(10 ** 6, 10 ** 6 + 5000) for _ in range(30)]
    for part, cofactor in product(parts, cofactors):
        for n in (part * cofactor, -part * cofactor):
            assert squarefree_kernel(n) == \
                squarefree_kernel_by_trial_division(n), n


def test_squarefree_kernel_small_inputs_leave_chunk_table_unbuilt():
    # a cofactor below 1000^2 with no prime factor below 1000 is 1 or a
    # prime, so |n| < 10^6 never needs the products of larger primes
    numtheory._prime_products.cache_clear()
    edge = range(10 ** 6 - 30000, 10 ** 6)
    for n in [*range(1, 10 ** 6, 101), *edge, 991 * 997, 997 ** 2]:
        squarefree_kernel(n)
        squarefree_kernel(-n)
    assert numtheory._prime_products.cache_info().currsize == 0
    squarefree_kernel(1009 ** 2)
    assert numtheory._prime_products.cache_info().currsize == 1


# -- resolvent and splitting ------------------------------------------------------


def test_resolvent_flagship():
    rd = resolvent(poly_discriminant(X5_X_1))
    assert rd.disc == 2869
    assert rd.squarefree_kernel == 2869
    assert rd.fundamental_disc == 2869  # 2869 = 4*717 + 1
    assert rd.complete and not rd.degenerate


def test_resolvent_negative_discriminant():
    f = IntPolynomial([0, -4, 0, 0, 0, 1])  # three real roots
    rd = resolvent(poly_discriminant(f))
    assert rd.disc < 0 and rd.fundamental_disc < 0
    assert rd.fundamental_disc % 4 in (0, 1)


def test_resolvent_degenerate_square_discriminant():
    # cyclic quintic: the real subfield of the 11th cyclotomic field
    f = IntPolynomial.descending([1, 1, -4, -3, 3, 1])
    d = poly_discriminant(f)
    assert math.isqrt(d) ** 2 == d
    rd = resolvent(d)
    assert rd.degenerate and rd.squarefree_kernel == 1


def test_resolvent_fundamental_disc_invariants():
    for f in _random_quintics(150, seed=21, lo=-12, hi=12):
        disc = poly_discriminant(f)
        if disc == 0:
            continue
        rd = resolvent(disc)
        assert rd.fundamental_disc % 4 in (0, 1)
        if rd.complete:
            quad = disc // rd.squarefree_kernel
            assert quad > 0 and math.isqrt(quad) ** 2 == quad
            for p, e in factor_completely(rd.squarefree_kernel).items():
                assert e == 1
    with pytest.raises(ValueError):
        resolvent(0)


def test_resolvent_incomplete_propagates():
    # a stand-in discriminant whose kernel the fixed bound cannot finish;
    # the unresolved cofactor stays in the kernel, so kernel times a
    # square is still disc and the symbols at odd p are unchanged (at
    # p = 2 only a disc = 0 or 1 mod 4, as of a quintic, keeps them)
    rd = resolvent(P3 * Q3 * R3)
    assert not rd.complete
    quad = rd.disc // rd.squarefree_kernel
    assert quad * rd.squarefree_kernel == rd.disc
    assert math.isqrt(quad) ** 2 == quad
    for p in first_primes(40)[1:]:
        assert kronecker_symbol(rd.disc, p) == \
            kronecker_symbol(rd.fundamental_disc, p)


def test_splitting_fixed_values():
    # the split test of rankgrowth.admissible: (disc f|p) is 1 at split
    # primes, 0 at ramified ones and -1 at inert ones
    rd = resolvent(2869)
    for p, want in ((3, 1), (19, 0), (151, 0), (7, -1), (2, -1)):
        assert kronecker_symbol(rd.disc, p) == want
        assert kronecker_symbol(rd.fundamental_disc, p) == want
    assert kronecker_symbol(5, 2) == -1         # 2 is inert in Q(sqrt 5)


def test_splitting_matches_pattern_counts():
    # split primes give the resolvent quadratic two roots mod p
    rd = resolvent(2869)
    for p in first_primes(60):
        if p == 2 or rd.fundamental_disc % p == 0:
            continue
        symbol = kronecker_symbol(rd.disc, p)
        roots = sum(1 for x in range(p)
                    if (x * x - rd.fundamental_disc) % p == 0)
        assert (symbol == 1) == (roots == 2)
        assert (symbol == -1) == (roots == 0)


# -- polynomial plumbing -----------------------------------------------------------


def test_polynomial_basics():
    f = X5_X_1
    assert f.degree == 5 and f.lc == 1
    assert f.derivative().coeffs == (-1, 0, 0, 0, 5)
    assert IntPolynomial([0, 0, 0]).is_zero
    assert IntPolynomial.descending([1, 2, 3]).coeffs == (3, 2, 1)
    assert str(IntPolynomial([-1, -1, 0, 0, 0, 1])) == "x^5 - x - 1"
