import ast
import random
from pathlib import Path

from quintrank import galois, numtheory
from quintrank.galois import quadratic_factor
from quintrank.numtheory import (
    IntPolynomial,
    factor_pattern_mod_p,
    first_primes,
    poly_discriminant,
)

X5_X_1 = IntPolynomial.descending([1, 0, 0, 0, -1, -1])  # x^5 - x - 1


def _times(a, b):
    """The product of two ascending coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _patterns(f, count):
    disc = poly_discriminant(f)
    return [(p, factor_pattern_mod_p(f, p, disc).pattern)
            for p in first_primes(count) if disc % p]


def test_quadratic_factor_is_recovered_at_every_split_prime():
    # seeded products q c, coefficients up to 10^40: at every {2,3} prime
    # among the first 60, the lift past the Mignotte bound is q itself
    rng = random.Random(50)
    products = lifted = 0
    while products < 40:
        height = 10 ** rng.choice((1, 3, 12, 40))
        q = [rng.randint(-height, height), rng.randint(-height, height), 1]
        c = [rng.randint(-height, height) for _ in range(3)] + [1]
        f = IntPolynomial(_times(q, c))
        if not poly_discriminant(f):
            continue
        products += 1
        for p, pattern in _patterns(f, 60):
            if pattern == (2, 3):
                assert quadratic_factor(f, p) == IntPolynomial(q), (q, c, p)
                lifted += 1
    assert lifted > 200


def test_no_quadratic_factor_of_an_irreducible_quintic():
    # x^5 - x - 1 = (x^2 + x + 1)(x^3 + x^2 + 1) mod 2, yet it is
    # irreducible: the lift divides nothing; at a {5} prime g is 1
    assert dict(_patterns(X5_X_1, 1))[2] == (2, 3)
    assert quadratic_factor(X5_X_1, 2) is None
    for p, pattern in _patterns(X5_X_1, 60):
        if pattern in ((2, 3), (5,)):
            assert quadratic_factor(X5_X_1, p) is None


def test_quadratic_factor_of_the_reducible_example():
    # (x^2 + 1)(x^3 + 2x^2 + 2x - 1), and a product whose quadratic is
    # larger than the lift's first modulus
    f = IntPolynomial.descending([1, 2, 3, 1, 2, -1])
    q = IntPolynomial((1, 0, 1))
    splits = [p for p, pattern in _patterns(f, 200) if pattern == (2, 3)]
    assert splits and all(quadratic_factor(f, p) == q for p in splits)
    big = IntPolynomial(_times([-10 ** 30 - 7, 3 * 10 ** 29, 1],
                               [5, -1, 2, 1]))
    splits = [p for p, pattern in _patterns(big, 100) if pattern == (2, 3)]
    assert splits and all(quadratic_factor(big, p)
                          == IntPolynomial((-10 ** 30 - 7, 3 * 10 ** 29, 1))
                          for p in splits)


def test_galois_alone_holds_the_verdict_and_imports_at_module_level():
    # numtheory keeps no copy or re-export of the moved names, and no
    # function of galois imports anything when it is called
    moved = {"certify_s5", "S5Certificate", "has_integer_root", "_LIFT_AFTER"}
    assert moved <= set(vars(galois))
    assert not moved & set(vars(numtheory))
    tree = ast.parse(Path(galois.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports and all(node in tree.body for node in imports)
