import math
import random

import numpy as np
import pytest

from oracles import (
    brute_pattern_mod_p,
    count_real_roots_bisection,
    ddf_pattern_mod_p,
    factor_completely,
    squarefree_kernel_by_trial_division,
    sylvester_discriminant,
    sylvester_resultant,
)
from quintrank import numtheory
from quintrank.numtheory import (
    FactorPattern,
    IntPolynomial,
    LeadingCoeffVanishes,
    NotSquarefree,
    ResolventData,
    Splitting,
    _resultant,
    certify_s5,
    factor_pattern_mod_p,
    first_primes,
    is_probable_prime,
    kronecker_symbol,
    parse_int,
    poly_discriminant,
    quintic_patterns,
    real_root_count,
    resolvent,
    splitting_in_resolvent,
    squarefree_kernel,
)

X5_X_1 = IntPolynomial.descending([1, 0, 0, 0, -1, -1])  # x^5 - x - 1


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
                "--1", "1 2", "0x10"]:
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
    rng = np.random.default_rng(11)
    for _ in range(200):
        b, c = (int(v) for v in rng.integers(-40, 41, size=2))
        f = IntPolynomial([c, b, 1])
        assert poly_discriminant(f) == b * b - 4 * c
        p, q = (int(v) for v in rng.integers(-20, 21, size=2))
        g = IntPolynomial([q, p, 0, 1])
        assert poly_discriminant(g) == -4 * p ** 3 - 27 * q ** 2


def test_discriminant_trinomial_quintics():
    # disc(x^5 + a x + b) = 256 a^5 + 3125 b^4
    rng = np.random.default_rng(12)
    for _ in range(100):
        a, b = (int(v) for v in rng.integers(-30, 31, size=2))
        f = IntPolynomial([b, a, 0, 0, 0, 1])
        assert poly_discriminant(f) == 256 * a ** 5 + 3125 * b ** 4


def test_discriminant_against_sylvester_on_random_quintics():
    for f in _random_quintics(1000):
        assert poly_discriminant(f) == sylvester_discriminant(f.coeffs)


def test_discriminant_other_degrees_against_sylvester():
    rng = np.random.default_rng(13)
    for deg in (2, 3, 4, 6, 7):
        for _ in range(60):
            c = [int(v) for v in rng.integers(-25, 26, size=deg + 1)]
            if c[deg] == 0:
                c[deg] = 1
            f = IntPolynomial(c)
            assert poly_discriminant(f) == sylvester_discriminant(f.coeffs)


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
        assert _resultant(tuple(fc), tuple(gc)) == \
            sylvester_resultant(fc, gc)


def test_resultant_constant_and_shared_factor_cases():
    f = (2, 0, 1)       # x^2 + 2
    assert _resultant(f, (7,)) == 49
    assert _resultant((7,), f) == 49
    # common factor (x - 1): resultant vanishes
    a = (-1, 0, 1)      # (x-1)(x+1)
    b = (1, -2, 1)      # (x-1)^2
    assert _resultant(a, b) == 0


def test_discriminant_degree_precondition():
    with pytest.raises(ValueError):
        poly_discriminant(IntPolynomial([3, 2]))


# -- real root counts ---------------------------------------------------------------


def test_root_count_fixed_values():
    assert real_root_count(X5_X_1) == 1
    assert real_root_count(IntPolynomial([1, 0, 1])) == 0       # x^2 + 1
    assert real_root_count(IntPolynomial([0, -4, 0, 0, 0, 1])) == 3
    # five real roots: x(x-1)(x+1)(x-2)(x+2)
    full = IntPolynomial([0, 4, 0, -5, 0, 1])
    assert real_root_count(full) == 5


def test_root_count_not_squarefree():
    f = IntPolynomial([2, -3, 0, 1])  # (x - 1)^2 (x + 2)
    with pytest.raises(NotSquarefree):
        real_root_count(f)


def test_root_count_against_bisection_on_random_quintics():
    skipped = 0
    for f in _random_quintics(1000):
        if poly_discriminant(f) == 0:
            skipped += 1
            continue
        assert real_root_count(f) == count_real_roots_bisection(f.coeffs)
    assert skipped < 20


def test_root_count_against_bisection_other_degrees():
    rng = np.random.default_rng(15)
    for deg in (2, 3, 4, 6):
        for _ in range(80):
            c = [int(v) for v in rng.integers(-15, 16, size=deg + 1)]
            if c[deg] == 0:
                c[deg] = 1
            f = IntPolynomial(c)
            if poly_discriminant(f) == 0:
                continue
            assert real_root_count(f) == count_real_roots_bisection(f.coeffs)


def test_root_count_determines_discriminant_sign():
    # five distinct roots of which r are real: sign(disc) = (-1)^((5-r)/2)
    for f in _random_quintics(300, seed=16):
        disc = poly_discriminant(f)
        if disc == 0:
            continue
        r = real_root_count(f)
        pairs = (5 - r) // 2
        assert (disc > 0) == (pairs % 2 == 0)


# -- factor patterns mod p ------------------------------------------------------------


def test_pattern_fixed_values():
    assert factor_pattern_mod_p(X5_X_1, 2) == FactorPattern(True, (2, 3))
    x5_x = IntPolynomial([0, -1, 0, 0, 0, 1])
    assert factor_pattern_mod_p(x5_x, 3) == FactorPattern(True, (1, 1, 1, 2))


def test_pattern_ramified_primes_not_squarefree():
    # 2869 = 19 * 151; both primes see a repeated factor
    for p in (19, 151):
        assert factor_pattern_mod_p(X5_X_1, p) == FactorPattern(False, None)


def test_pattern_leading_coeff_vanishes():
    f = IntPolynomial([1, 1, 0, 0, 0, 3])
    with pytest.raises(LeadingCoeffVanishes):
        factor_pattern_mod_p(f, 3)


def test_pattern_against_brute_factorization():
    rng = np.random.default_rng(17)
    for _ in range(150):
        c = [int(v) for v in rng.integers(-10, 11, size=6)]
        if c[5] == 0:
            c[5] = 1
        f = IntPolynomial(c)
        for p in (2, 3, 5, 7, 11):
            if f.lc % p == 0:
                continue
            sf, pattern = brute_pattern_mod_p(f.coeffs, p)
            got = factor_pattern_mod_p(f, p)
            assert got.squarefree == sf
            if sf:
                assert got.pattern == pattern


def test_pattern_fast_path_matches_general_ddf():
    rng = np.random.default_rng(23)
    for _ in range(120):
        c = [int(v) for v in rng.integers(-15, 16, size=6)]
        if c[5] == 0:
            c[5] = 1
        f = IntPolynomial(c)
        for p in (2, 3, 5, 7, 101, 1223):
            if f.lc % p == 0:
                continue
            assert factor_pattern_mod_p(f, p) == ddf_pattern_mod_p(f, p)


def test_root_count_rule_matches_ddf_for_every_monic_quintic_mod_small_p():
    from itertools import product

    for p in (2, 3, 5, 7):
        for tail in product(range(p), repeat=5):
            f = IntPolynomial(list(tail) + [1])
            assert factor_pattern_mod_p(f, p) == ddf_pattern_mod_p(f, p)


def test_root_count_rule_matches_ddf_at_first_200_primes():
    # with and without a given discriminant, monic and not
    primes = first_primes(200)
    rng = np.random.default_rng(29)
    for i in range(40):
        c = [int(v) for v in rng.integers(-50, 51, size=6)]
        c[5] = 1 if i % 2 == 0 else c[5] or 7
        f = IntPolynomial(c)
        disc = poly_discriminant(f)
        for p in primes:
            if f.lc % p == 0:
                continue
            expect = ddf_pattern_mod_p(f, p)
            assert factor_pattern_mod_p(f, p, disc) == expect
            assert factor_pattern_mod_p(f, p) == expect


@pytest.mark.parametrize("floor", [2 ** 20, 2 ** 31, 10 ** 12, 2 ** 61])
def test_root_count_rule_matches_ddf_at_large_primes(floor):
    # the root count is exact at every prime, far above any prime budget
    p = next(n for n in range(floor + 1, 2 * floor) if is_probable_prime(n))
    seen = set()
    for i, f in enumerate(_random_quintics(60, seed=31, lo=-10 ** 6,
                                           hi=10 ** 6)):
        if i % 2 == 0:
            f = IntPolynomial(list(f.coeffs[:5]) + [1])
        disc = poly_discriminant(f)
        expect = ddf_pattern_mod_p(f, p)
        assert factor_pattern_mod_p(f, p, disc) == expect
        assert factor_pattern_mod_p(f, p) == expect
        seen.add(expect.pattern)
    assert len(seen) >= 4


def test_pattern_rejects_non_quintics():
    for coeffs in ([1, 0, 0, 0, 1], [1, 1, 0, 0, 0, 0, 1], [-1, 1]):
        with pytest.raises(ValueError):
            factor_pattern_mod_p(IntPolynomial(coeffs), 7)


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
        assert all(f(r) == 0 for r in roots)
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
        if c[5] == 0:
            c[5] = 1
        f = IntPolynomial(c)
        for p in (2, 3, 5, 13, 101):
            if f.lc % p == 0:
                continue
            got = factor_pattern_mod_p(f, p)
            if got.squarefree:
                assert sum(got.pattern) == 5


# -- Galois certification ----------------------------------------------------------------


def test_certify_flagship_quintic():
    cert = certify_s5(X5_X_1)
    assert cert.status == "Certified"
    p5, p2 = cert.five_cycle_witness, cert.transposition_witness
    assert factor_pattern_mod_p(X5_X_1, p5).pattern == (5,)
    assert factor_pattern_mod_p(X5_X_1, p2).pattern == (1, 1, 1, 2)
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
        cert = certify_s5(X5_X_1, budget)
        assert (cert.status, cert.five_cycle_witness,
                cert.transposition_witness, cert.primes_scanned) == want
        assert QuinticField(X5_X_1, prime_budget=budget).certificate == cert


def test_certify_solvable_quintic_inconclusive():
    # x^5 - 2 has a solvable splitting field: no transposition pattern
    f = IntPolynomial([-2, 0, 0, 0, 0, 1])
    cert = certify_s5(f)
    assert cert.status == "Inconclusive"
    assert cert.transposition_witness is None
    assert cert.five_cycle_witness is not None


def test_certify_reducible_inconclusive():
    # (x^2 + 1)(x^3 - 2): never irreducible mod p
    f = IntPolynomial([-2, 0, -2, 1, 0, 1])
    cert = certify_s5(f)
    assert cert.status == "Inconclusive"
    assert cert.five_cycle_witness is None


def test_certify_degree_precondition():
    with pytest.raises(ValueError):
        certify_s5(IntPolynomial([1, 0, 0, 0, 1]))


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
        if factor_pattern_mod_p(X5_X_1, p).pattern == (5,):
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
    rd = resolvent(X5_X_1)
    assert rd.disc == 2869
    assert rd.squarefree_kernel == 2869
    assert rd.fundamental_disc == 2869  # 2869 = 4*717 + 1
    assert rd.complete and not rd.degenerate


def test_resolvent_negative_discriminant():
    f = IntPolynomial([0, -4, 0, 0, 0, 1])  # three real roots
    rd = resolvent(f)
    assert rd.disc < 0 and rd.fundamental_disc < 0
    assert rd.fundamental_disc % 4 in (0, 1)


def test_resolvent_degenerate_square_discriminant():
    # cyclic quintic: the real subfield of the 11th cyclotomic field
    f = IntPolynomial.descending([1, 1, -4, -3, 3, 1])
    d = poly_discriminant(f)
    assert math.isqrt(d) ** 2 == d
    rd = resolvent(f)
    assert rd.degenerate and rd.squarefree_kernel == 1


def test_resolvent_fundamental_disc_invariants():
    for f in _random_quintics(150, seed=21, lo=-12, hi=12):
        disc = poly_discriminant(f)
        if disc == 0:
            continue
        rd = resolvent(f)
        assert rd.fundamental_disc % 4 in (0, 1)
        if rd.complete:
            quad = disc // rd.squarefree_kernel
            assert quad > 0 and math.isqrt(quad) ** 2 == quad
            for p, e in factor_completely(rd.squarefree_kernel).items():
                assert e == 1


def test_resolvent_incomplete_propagates():
    # a stand-in discriminant whose kernel the fixed bound cannot finish
    rd = resolvent(X5_X_1, disc=P3 * Q3 * R3)
    assert not rd.complete
    with pytest.raises(ValueError):
        splitting_in_resolvent(3, rd)


def test_splitting_fixed_values():
    rd = resolvent(X5_X_1)
    assert splitting_in_resolvent(3, rd) is Splitting.SPLIT
    assert splitting_in_resolvent(19, rd) is Splitting.RAMIFIED
    assert splitting_in_resolvent(151, rd) is Splitting.RAMIFIED
    toy = ResolventData(5, 5, 5, True, False)
    assert splitting_in_resolvent(2, toy) is Splitting.INERT


def test_splitting_matches_pattern_counts():
    # split primes give the resolvent quadratic two roots mod p
    rd = resolvent(X5_X_1)
    for p in first_primes(60):
        if p == 2 or rd.fundamental_disc % p == 0:
            continue
        kind = splitting_in_resolvent(p, rd)
        roots = sum(1 for x in range(p)
                    if (x * x - rd.fundamental_disc) % p == 0)
        assert (kind is Splitting.SPLIT) == (roots == 2)
        assert (kind is Splitting.INERT) == (roots == 0)


# -- polynomial plumbing -----------------------------------------------------------


def test_polynomial_basics():
    f = X5_X_1
    assert f.degree == 5 and f.lc == 1
    assert f(0) == -1 and f(1) == -1 and f(2) == 29
    assert f.derivative().coeffs == (-1, 0, 0, 0, 5)
    assert IntPolynomial([0, 0, 0]).is_zero
    assert IntPolynomial.descending([1, 2, 3]).coeffs == (3, 2, 1)
    assert str(IntPolynomial([-1, -1, 0, 0, 0, 1])) == "x^5 - x - 1"
