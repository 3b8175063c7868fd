import hashlib
import importlib
import json
import os
import pkgutil
import random
import subprocess
import sys
import textwrap
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from oracles import (
    certify_s5_full_scan,
    count_real_roots_bisection,
    divisor_integer_root,
    enumerate_full_box,
    quintic_orbit,
    shift_desc_binomial,
    sturm_root_count,
    subresultant_discriminant,
    unversioned_cache_line,
)

import quintrank
from quintrank import cocycles, fieldscan, groups, numtheory, rankgrowth
from quintrank.fieldscan import (
    BucketStat,
    FalseMergeError,
    FieldCache,
    NotSeparable,
    QuinticField,
    dedupe_stream,
    enumerate_quintics,
    field_from_coeffs,
    ingest_fields,
    scan,
    ScanReport,
)
from quintrank.numtheory import (
    IntPolynomial,
    factor_pattern_mod_p,
    first_primes,
    parse_int,
    poly_discriminant,
)
from quintrank.rankgrowth import CurveData

CURVE37 = CurveData.parse("37a 37 37^1")


def field_of(*desc, **kw):
    return QuinticField(IntPolynomial.descending(desc), **kw)


def decode(codes: str) -> list[tuple[int, ...]]:
    """The patterns of a fingerprint's codes: each code is the digits of
    one pattern's factor degrees."""
    return [tuple(map(int, code)) for code in codes.split()]


def full_scan(poly, budget, disc):
    """The full scan's certificate, its patterns one prime at a time."""
    return certify_s5_full_scan(
        poly, budget, pattern=lambda p: factor_pattern_mod_p(poly, p, disc))


def collect_errors():
    errs = []
    return errs, lambda lineno, msg: errs.append((lineno, msg))


# -- field object ---------------------------------------------------------------


def test_flagship_field_derivations():
    f = field_of(1, 0, 0, 0, -1, -1)
    assert f.coeffs == (1, 0, 0, 0, -1, -1)
    assert f.label == "x^5 - x - 1"
    assert f.disc == 2869
    assert f.signature == (1, 2)
    assert f.resolvent.fundamental_disc == 2869
    assert f.s5_status == "Certified"
    kernel, codes = f.fingerprint
    assert kernel == 2869
    assert isinstance(codes, str)
    good = [p for p in first_primes(40) if f.disc % p][:20]
    assert decode(codes) == f._stream(20)[:20] == [
        factor_pattern_mod_p(f.poly, p, f.disc).pattern for p in good]
    assert len(f.extended_fingerprint) == 30


def test_field_rejects_bad_polynomials():
    with pytest.raises(NotSeparable):
        field_of(1, 0, 0, 0, 0, 0)              # x^5
    with pytest.raises(NotSeparable):           # the caller's own disc
        field_of(1, 0, 0, 0, -1, -1, disc=0)
    with pytest.raises(ValueError):
        field_of(2, 0, 0, 0, -1, -1)            # not monic
    with pytest.raises(ValueError):
        QuinticField(IntPolynomial([1, 1]))     # wrong degree


def test_signature_invariants_on_enumeration():
    flagship = field_of(1, 0, 0, 0, -1, -1)
    fields = list(enumerate_quintics(1, 10 ** 5, prime_budget=60))
    assert fields
    rep = None
    for f in fields:
        r1, r2 = f.signature
        assert r1 + 2 * r2 == 5
        assert f.disc != 0
        if r1 == 1:
            assert f.disc > 0
        assert f.s5_status == "Certified"
        if f.fingerprint == flagship.fingerprint:
            rep = f
    # the flagship field is present, represented by the lex-smallest
    # generator (x^5 - x^4 + 1, the reciprocal transform, comes first)
    assert rep is not None
    assert rep.disc == 2869
    assert rep.coeffs == (1, -1, 0, 0, 0, 1)
    assert rep.coeffs <= flagship.coeffs


# x^5 - 3x^3 + 2x and x^5 - 5x^3 + 4x + 1: five real roots, disc > 0
FIVE_REAL = [(1, 0, -3, 0, 2, 0), (1, 0, -5, 0, 4, 1)]


def test_signature_matches_sturm_on_the_height_three_box():
    # against the Sturm oracle, the route before the disc sign and
    # Hermite's form
    seen = Counter()
    for tail in product(range(-3, 4), repeat=5):
        poly = IntPolynomial.descending((1,) + tail)
        if poly_discriminant(poly) == 0:
            continue
        f = QuinticField(poly)
        r1 = sturm_root_count(poly.coeffs)
        assert f.signature == (r1, (5 - r1) // 2), tail
        seen[f.signature, f.disc > 0] += 1
    assert set(seen) == {((5, 0), True), ((1, 2), True), ((3, 1), False)}


def test_signature_matches_bisection_on_seeded_rows():
    rng = random.Random(1801)
    rows = [(1,) + tuple(rng.randint(-h, h) for _ in range(5))
            for h, n in ((3, 300), (12, 40), (50, 40), (10 ** 4, 40))
            for _ in range(n)] + FIVE_REAL
    seen = set()
    for coeffs in rows:
        poly = IntPolynomial.descending(coeffs)
        if poly_discriminant(poly) == 0:
            continue
        f = QuinticField(poly)
        r1 = count_real_roots_bisection(poly.coeffs)
        assert f.signature == (r1, (5 - r1) // 2), coeffs
        seen.add(f.signature)
    assert seen == {(5, 0), (1, 2), (3, 1)}


def test_negative_disc_signature_needs_no_root_count(monkeypatch):
    def refuse(poly, disc=None):
        raise AssertionError("root count for a negative discriminant")
    monkeypatch.setattr(fieldscan, "real_root_count", refuse)
    f = field_of(1, 0, -4, 0, 2, -1)
    assert f.disc == -16075 and f.signature == (3, 1)
    with pytest.raises(AssertionError):
        field_of(*FIVE_REAL[1]).signature


# -- pattern stream ---------------------------------------------------------------

# certificates that stop after 11, 36 and 54 good primes (inside the
# fingerprint, inside the audit, past both), and x^5 - 2, which scans
# the whole budget
STREAM_SAMPLES = [(1, -1, -1, 0, 0, -1), (1, 0, 0, 0, -1, -1),
                  (1, 0, 0, 0, -4, 2), (1, 0, 0, 0, 0, -2)]


def _count_patterns(monkeypatch, one_at_a_time=None) -> Counter:
    """Patterns computed per (coefficients, prime), whether a block of
    primes goes through the kernel or a prime goes one at a time (those
    primes are also appended to one_at_a_time, when given)."""
    calls = Counter()
    real_block = fieldscan.quintic_patterns
    real_one = fieldscan.factor_pattern_mod_p

    def block(f, primes, disc):
        calls.update((f.coeffs, p) for p in primes)
        return real_block(f, primes, disc)

    def one(f, p, disc):
        calls[f.coeffs, p] += 1
        if one_at_a_time is not None:
            one_at_a_time.append(p)
        return real_one(f, p, disc)
    monkeypatch.setattr(fieldscan, "quintic_patterns", block)
    monkeypatch.setattr(fieldscan, "factor_pattern_mod_p", one)
    return calls


def test_pattern_stream_computes_each_pattern_once(monkeypatch):
    calls = _count_patterns(monkeypatch)
    for desc in STREAM_SAMPLES:
        f = field_of(*desc)
        f.certificate
        f.fingerprint
        f.extended_fingerprint
        f.extended_fingerprint
    assert calls and max(calls.values()) == 1
    per_field = Counter(c for c, _ in calls.elements())
    scanned = [field_of(*desc).certificate.primes_scanned
               for desc in STREAM_SAMPLES]
    assert scanned == [11, 36, 54, 198]
    # the stream grows in blocks ending at 20, 50, 100 and 200 patterns,
    # capped at the 198 good primes of x^5 - 2's budget, so each field
    # computes the first block end covering both its certificate and the
    # 50 fingerprint and audit primes
    assert [per_field[IntPolynomial.descending(d).coeffs]
            for d in STREAM_SAMPLES] == [50, 50, 100, 198]


def test_cold_pass_shares_a_few_cached_sieves():
    # each field asks first_primes for (block end + bits of disc) primes;
    # rounded up to powers of two, these counts share a handful of sieves
    # where one sieve per count held ~0.24 MB after a cold table pass
    numtheory._sieve.cache_clear()
    rng = random.Random(26)
    for k in range(80):
        height = 10 ** (1 + k % 5)
        f = field_of(1, *(rng.randint(-height, height) for _ in range(5)))
        assert f.disc and f.fingerprint and f.certificate
        f.extended_fingerprint
    assert numtheory._sieve.cache_info().currsize <= 8


def test_stream_past_the_block_crossover(monkeypatch):
    # x^5 - 2 never certifies, so a budget of 600 primes fills blocks up
    # to its 598 good budget primes (disc = 2^4 5^5), which run past the
    # kernel's crossover, and no further
    one_at_a_time = []
    calls = _count_patterns(monkeypatch, one_at_a_time)
    poly = IntPolynomial.descending((1, 0, 0, 0, 0, -2))
    f = QuinticField(poly, prime_budget=600)
    assert f.certificate == full_scan(poly, 600, f.disc)
    assert len(calls) == 598 and max(calls.values()) == 1
    primes = sorted(p for _, p in calls)
    assert primes == [p for p in first_primes(600) if f.disc % p]
    assert one_at_a_time == [p for p in primes if p >= fieldscan._BLOCK_BELOW]
    assert primes[0] < fieldscan._BLOCK_BELOW < primes[-1]
    assert f._stream(598) == [factor_pattern_mod_p(poly, p, f.disc).pattern
                              for p in primes]


def test_certificate_sieves_the_budget_once(monkeypatch):
    # the certificate filters the first prime_budget primes itself and
    # hands them to certify_s5, which sieves none, and tells the stream
    # how many it will read
    budgets = []

    def counted(count):
        budgets.append(count)
        return first_primes(count)
    monkeypatch.setattr(numtheory, "first_primes", counted)
    monkeypatch.setattr(fieldscan, "first_primes", counted)
    f = field_of(1, 0, 0, 0, 0, -2, prime_budget=600)
    assert f.certificate.primes_scanned == 598
    assert budgets.count(600) == 1


def test_first_block_is_the_fingerprint_at_small_budgets(monkeypatch):
    # at budget 3 the certificate reads at most 3 patterns, but the first
    # block is still the fingerprint's 20, and nothing more is computed;
    # the audit then asks past the budget for its 30 patterns
    calls = _count_patterns(monkeypatch)
    for desc in STREAM_SAMPLES:
        f = field_of(*desc, prime_budget=3)
        assert f.certificate.primes_scanned <= 3
        assert len(f._patterns) == 20
        assert decode(f.fingerprint[1]) == f._patterns
    assert len(calls) == 20 * len(STREAM_SAMPLES)
    for budget in (3, 40):
        f = field_of(1, 0, 0, 0, 0, -2, prime_budget=budget)
        f.certificate
        assert len(f.extended_fingerprint) == 30
        assert len(f._patterns) == 50


def test_certificate_reads_each_block_in_place(monkeypatch):
    # certify_s5 calls the stream only when it has read every pattern it
    # was given, so each call computes a new block
    for budget in (3, 40, 200):
        for desc in STREAM_SAMPLES:
            f = field_of(*desc, prime_budget=budget)
            grown = []

            def patterns(n, most=0, stream=f._stream):
                before = len(f._patterns)
                out = stream(n, most)
                grown.append(before < n <= len(out))
                return out
            monkeypatch.setattr(f, "_stream", patterns)
            cert = f.certificate
            assert grown and all(grown), (desc, budget)
            assert cert == full_scan(f.poly, budget, f.disc)
    # x^5 - 2 at budget 200 reads the blocks ending at 20, 50, 100, 198
    f = field_of(1, 0, 0, 0, 0, -2)
    sizes = []
    stream = f._stream
    monkeypatch.setattr(f, "_stream",
                        lambda n, most=0: sizes.append(n) or stream(n, most))
    f.certificate
    assert sizes == [1, 21, 51, 101]
    assert len(f._patterns) == 198


def test_stream_fed_certificate_matches_standalone():
    span = range(-1, 2)
    for i, tail in enumerate(product(span, repeat=5)):
        coeffs = (1,) + tail
        poly = IntPolynomial.descending(coeffs)
        disc = poly_discriminant(poly)
        if disc == 0:
            continue
        for budget in (3, 40):
            f = QuinticField(poly, prime_budget=budget)
            if i % 2:
                f.fingerprint        # stream filled before the certificate
            assert f.certificate == full_scan(poly, budget, disc)


def test_rebuilt_field_audits_only_the_audit_primes(monkeypatch):
    for desc in STREAM_SAMPLES:
        fresh = field_of(*desc)
        rec = json.loads(json.dumps(fresh.to_record()))
        expect = fresh.extended_fingerprint
        calls = _count_patterns(monkeypatch)
        rebuilt = QuinticField.from_record(rec)
        assert rebuilt.extended_fingerprint == expect
        assert sum(calls.values()) == 30
        monkeypatch.undo()


# -- enumeration ------------------------------------------------------------------


def test_enumeration_deterministic_and_deduped():
    a = [f.coeffs for f in enumerate_quintics(1, 10 ** 5, prime_budget=60)]
    b = [f.coeffs for f in enumerate_quintics(1, 10 ** 5, prime_budget=60)]
    assert a == b
    fps = [f.fingerprint for f in enumerate_quintics(1, 10 ** 5,
                                                     prime_budget=60)]
    assert len(fps) == len(set(fps))


def test_enumeration_edge_heights():
    assert list(enumerate_quintics(0, 10 ** 6)) == []
    with pytest.raises(ValueError):
        list(enumerate_quintics(51, 10 ** 6))
    with pytest.raises(ValueError):
        list(enumerate_quintics(-1, 10 ** 6))


def test_disc_bound_respected():
    for f in enumerate_quintics(1, 3000, prime_budget=60):
        assert abs(f.disc) <= 3000


def test_enumeration_skips_certifying_square_discriminants(monkeypatch):
    # a square discriminant puts the Galois group in A5, so no prime has
    # the transposition pattern and the field can never certify
    squares = []
    for tail in product(range(-2, 3), repeat=5):
        coeffs = (1,) + tail
        poly = IntPolynomial.descending(coeffs)
        disc = poly_discriminant(poly)
        if disc > 0 and fieldscan._is_square(disc) \
                and not divisor_integer_root(coeffs):
            squares.append(poly)
    assert len(squares) == 22
    for poly in squares:
        assert full_scan(poly, 200, poly_discriminant(poly)).status == \
            "Inconclusive"
        assert QuinticField(poly, prime_budget=40).s5_status == "Inconclusive"
    certified = []
    real = fieldscan.certify_s5

    def recording(f, *args, **kwargs):
        certified.append(f)
        return real(f, *args, **kwargs)
    monkeypatch.setattr(fieldscan, "certify_s5", recording)
    fields = list(enumerate_quintics(2, 10 ** 6, prime_budget=40))
    assert fields and certified
    assert not set(certified) & set(squares)


def test_shifted_polynomial_merges():
    f = field_of(1, 0, 0, 0, -1, -1)
    # (x-1)^5 - (x-1) - 1 = x^5 - 5x^4 + 10x^3 - 10x^2 + 4x - 1
    g = field_of(1, -5, 10, -10, 4, -1)
    assert f.disc == g.disc
    assert f.fingerprint == g.fingerprint
    kept = list(dedupe_stream([f, g]))
    assert kept == [f]


def test_taylor_shift_matches_the_binomial_oracle():
    for tail in product(range(-3, 4), repeat=5):
        coeffs = (1,) + tail
        for c in range(-6, 7):
            assert fieldscan._shift_desc(coeffs, c) \
                == shift_desc_binomial(coeffs, c)
    rng = random.Random(40)
    for _ in range(200):
        coeffs = tuple(10 ** 4 + rng.randint(-50, 50) for _ in range(6))
        c = rng.randint(-10 ** 4 - 50, 10 ** 4 + 50)
        assert fieldscan._shift_desc(coeffs, c) \
            == shift_desc_binomial(coeffs, c)


def test_reciprocal_then_shift_merges_without_audit(monkeypatch):
    def no_audit(self):
        raise AssertionError("audited a merge that a move proves")
    monkeypatch.setattr(QuinticField, "extended_fingerprint",
                        property(no_audit))
    f = field_of(1, -2, 3, -2, -3, 1)
    # x^5 f(1/x), then x -> x - 1
    g = field_of(1, -8, 20, -19, 3, 4)
    assert f.fingerprint == g.fingerprint
    assert list(dedupe_stream([f, g])) == [f]
    assert list(dedupe_stream([g, f])) == [g]


def test_served_and_derived_fields_of_one_class_merge(tmp_path, monkeypatch):
    # one field from the cache and its shift derived afresh: the merge
    # audits them (the shift proof is switched off), and the served
    # field's stream starts from its decoded codes when the audit grows it
    store = tmp_path / "cache.jsonl"
    with FieldCache(store) as cache:
        cache.put(field_of(1, 0, 0, 0, -1, -1))
    monkeypatch.setattr(fieldscan, "_provably_same_field", lambda a, b: False)
    for served_first in (True, False):
        served = FieldCache(store).get((1, 0, 0, 0, -1, -1))
        fresh = field_of(1, -5, 10, -10, 4, -1)
        assert served.fingerprint == fresh.fingerprint
        audits = []
        real = QuinticField._stream

        def stream(self, n):
            audits.append((self is served, len(self._patterns or ())))
            return real(self, n)
        monkeypatch.setattr(QuinticField, "_stream", stream)
        pair = [served, fresh] if served_first else [fresh, served]
        assert list(dedupe_stream(pair)) == pair[:1]
        monkeypatch.setattr(QuinticField, "_stream", real)
        assert sorted(audits) == [(False, 20), (True, 0)]
        assert served._patterns == fresh._patterns
        assert len(served._patterns) == 50


def test_false_merge_is_surfaced():
    f = field_of(1, 0, 0, 0, -1, -1)
    g = field_of(1, 0, 0, 0, -4, 2)    # genuinely different field
    g.fingerprint = f.fingerprint      # force a collision
    with pytest.raises(FalseMergeError, match=r"^x\^5 - x - 1 and "
                       r"x\^5 - 4\*x \+ 2 share a fingerprint"):
        list(dedupe_stream([f, g]))


def test_equal_patterns_with_other_kernels_are_kept_unaudited(monkeypatch):
    # the kernel half of the fingerprint separates two fields whose 20
    # pattern codes agree, with no audit and no proof of a merge
    def no_audit(*args):
        raise AssertionError("audited fields with different kernels")
    monkeypatch.setattr(QuinticField, "extended_fingerprint",
                        property(no_audit))
    monkeypatch.setattr(fieldscan, "_provably_same_field", no_audit)
    f = field_of(1, 0, 0, 0, -1, -1)
    g = field_of(1, 0, 0, 0, -4, 2)
    g.fingerprint = (g.fingerprint[0], f.fingerprint[1])
    assert f.fingerprint[0] != g.fingerprint[0]
    assert list(dedupe_stream([f, g])) == [f, g]


# -- orbit walk and discriminant rows ---------------------------------------------


def _field_data(fields):
    return [(f.coeffs, f.disc, f.certificate, f.fingerprint) for f in fields]


@pytest.mark.parametrize("height", [1, 2, 3])
def test_enumeration_matches_full_box_oracle(tmp_path, height):
    kw = dict(prime_budget=40)
    want = _field_data(enumerate_full_box(height, 10 ** 6, **kw))
    assert want
    assert _field_data(enumerate_quintics(height, 10 ** 6, **kw)) == want
    store = tmp_path / "cache.jsonl"
    for _ in ("cold", "warm"):
        with FieldCache(store) as cache:
            fields = enumerate_quintics(height, 10 ** 6, cache=cache, **kw)
            assert _field_data(fields) == want


def _orbit_walk(height):
    return [head + (a0,) for head, a0s in fieldscan._orbit_minimal_rows(height)
            for a0 in a0s]


def test_orbit_walk_visits_one_member_per_orbit():
    visited = _orbit_walk(2)
    assert visited == sorted(set(visited))
    seen = set(visited)
    orbits = set()
    for tail in product(range(-2, 3), repeat=5):
        orbit = frozenset(c[1:] for c in quintic_orbit((1,) + tail))
        assert len(orbit & seen) == 1, tail
        orbits.add(orbit)
    assert len(visited) == len(orbits) == 1275


def test_row_filters_match_the_per_vector_references(monkeypatch):
    # at heights 0-6 the rows are the per-a0 orbit test over every head,
    # and their root-free entries those the divisor walk passes; the
    # orbit test itself runs only at a0 = +-1, so at most twice a head
    real = fieldscan._orbit_minimal
    calls = []
    monkeypatch.setattr(fieldscan, "_orbit_minimal",
                        lambda tail: calls.append(tail) or real(tail))
    counts = []
    for height in range(7):
        span = range(-height, height + 1)
        calls.clear()
        rows = list(fieldscan._orbit_minimal_rows(height))
        assert {tail[-1] for tail in calls} <= {-1, 1}
        assert len(set(calls)) == len(calls)
        assert rows == [
            (head, a0s) for head in product(range(-height, 1), span, span, span)
            if (a0s := [a0 for a0 in span if real(head + (a0,))])]
        free = [head + (a0,) for head, a0s in rows
                for a0 in fieldscan._root_free(head, a0s)]
        assert free == [head + (a0,) for head, a0s in rows for a0 in a0s
                        if not divisor_integer_root((1,) + head + (a0,))]
        counts.append((len(rows), sum(len(a0s) for _, a0s in rows),
                       len(free)))
    assert counts == [(1, 1, 0), (45, 90, 28), (325, 1275, 737),
                      (1225, 7252, 5023), (3321, 26325, 19880),
                      (7381, 73326, 58611), (14365, 171535, 141934)]


def test_skipped_vectors_are_their_orbit_minimum_field():
    seen = set(_orbit_walk(2))
    skipped = 0
    for tail in product(range(-2, 3), repeat=5):
        coeffs = (1,) + tail
        if tail in seen or divisor_integer_root(coeffs):
            continue
        rep = min(quintic_orbit(coeffs))
        assert rep[1:] in seen
        disc = poly_discriminant(IntPolynomial.descending(coeffs))
        assert disc == poly_discriminant(IntPolynomial.descending(rep))
        if disc == 0:
            continue
        assert field_of(*coeffs).fingerprint == field_of(*rep).fingerprint
        assert fieldscan._provably_same_field(rep, coeffs)
        skipped += 1
    # the full box derives 1962 root-free vectors, the walk 737
    assert skipped == 1962 - 737


def test_enumeration_rows_match_the_discriminant_oracle(monkeypatch):
    # every field the walk builds carries the subresultant discriminant,
    # and every root-free vector with a nonzero, non-square one is built
    built = []

    class Recorded(QuinticField):
        def __init__(self, poly, *args, **kw):
            super().__init__(poly, *args, **kw)
            built.append((self.coeffs, self.disc))
    monkeypatch.setattr(fieldscan, "QuinticField", Recorded)
    list(enumerate_quintics(2, 10 ** 12, prime_budget=7))
    want = []
    for coeffs in _orbit_walk(2):
        coeffs = (1,) + coeffs
        disc = subresultant_discriminant(coeffs[::-1])
        if not divisor_integer_root(coeffs) \
                and disc != 0 and not fieldscan._is_square(disc):
            want.append((coeffs, disc))
    assert built == want and len(want) > 600


def _count_discriminants(monkeypatch) -> list:
    """The polynomials fieldscan computes a discriminant of, in order."""
    calls = []
    real = fieldscan.poly_discriminant

    def counting(f):
        calls.append(f)
        return real(f)
    monkeypatch.setattr(fieldscan, "poly_discriminant", counting)
    return calls


def test_enumeration_counts_every_discriminant(monkeypatch):
    # one set of coefficients in a0 per row of the walk, one Horner step
    # per entry, and no poly_discriminant call; the count does not depend
    # on the bound, and a bound of 1 certifies nothing
    heads = []
    real = fieldscan.disc_coeffs_in_a0
    monkeypatch.setattr(fieldscan, "disc_coeffs_in_a0",
                        lambda *head: heads.append(head) or real(*head))
    full = _count_discriminants(monkeypatch)
    for height, rows in ((2, 325), (3, 1225)):
        heads.clear()
        assert list(enumerate_quintics(height, 1)) == []
        assert heads == [h for h, _ in fieldscan._orbit_minimal_rows(height)]
        assert len(heads) == rows and full == []


def test_row_discriminants_are_exact_and_never_cost_more(monkeypatch):
    # rows of one head fed to the enumeration: each entry it builds a
    # field for carries the subresultant discriminant, and a row of any
    # length costs one set of coefficients in a0 and no poly_discriminant
    head = (-2, 2, -1, -1)
    rows = ([1], [-3, 0, 2, 5, 6], [-3, -2, 0, 1, 4, 9], list(range(-7, 8)))
    built, heads = [], []

    class Recorded(QuinticField):
        def __init__(self, poly, *args, **kw):
            super().__init__(poly, *args, **kw)
            built.append((self.coeffs, self.disc))
    monkeypatch.setattr(fieldscan, "QuinticField", Recorded)
    real = fieldscan.disc_coeffs_in_a0
    monkeypatch.setattr(fieldscan, "disc_coeffs_in_a0",
                        lambda *h: heads.append(h) or real(*h))
    full = _count_discriminants(monkeypatch)
    for a0s in rows:
        built.clear()
        heads.clear()
        monkeypatch.setattr(fieldscan, "_orbit_minimal_rows",
                            lambda h, a0s=a0s: iter([(head, a0s)]))
        list(enumerate_quintics(1, 10 ** 30, prime_budget=7))
        want = []
        for a0 in a0s:
            coeffs = (1,) + head + (a0,)
            disc = subresultant_discriminant(coeffs[::-1])
            if not divisor_integer_root(coeffs) \
                    and disc != 0 and not fieldscan._is_square(disc):
                want.append((coeffs, disc))
        assert built == want
        assert heads == [head] and full == []
    assert len(want) > 10


# sha256 of the JSON list of kept coefficient vectors of
# enumerate_quintics(height, 10**6, prime_budget=40), as the full-box
# enumeration produced them
ENUMERATION_SHA256 = {
    1: "3e0d51a60ac27db27d5ad3839357e0fb4bddaccd181c340fd834e80d504a3926",
    2: "477377a2d83b9d833b95a3012519e446cd4710b338a036da5ccd075ee9a188e8",
    3: "c14f88fbebeee3ede2c335010c3e390465d4c89a1ae2283171b52c5b83e5f7e5",
}


def test_enumeration_outputs_are_pinned():
    for height, digest in ENUMERATION_SHA256.items():
        kept = [list(f.coeffs)
                for f in enumerate_quintics(height, 10 ** 6, prime_budget=40)]
        assert hashlib.sha256(json.dumps(kept).encode()).hexdigest() == digest
    report = scan(CURVE37, enumerate_quintics(2, 10 ** 6, prime_budget=40),
                  [100_000, 400_000, 1_000_000])
    assert [(b.total, b.admissible, b.odd) for b in report.buckets] == [
        (364, 295, 145), (537, 430, 225), (569, 446, 233)]


# -- ingestion ----------------------------------------------------------------------


def test_ingest_csv(tmp_path):
    table = tmp_path / "fields.csv"
    table.write_text(
        "label,a5,a4,a3,a2,a1,a0\n"
        "f1,1,0,0,0,-1,-1\n"
        "\n"
        "# comment\n"
        "short,1,2,3\n"
        "f2,1,0,0,0,-4,2\n"
        "bad,1,x,0,0,0,1\n"
        "notmonic,2,0,0,0,-1,-1\n"
        # int() would read these as x^5 - x - 10 and x^5 - x - 1
        "u,1,0,0,0,-1,-1_0\n"
        "v,1,0,0,0,-1,-\u0661\n"
        "sep,1,0,0,0,0,0\n", encoding="utf-8")
    errs, on_error = collect_errors()
    fields = list(ingest_fields(table, "csv", on_error=on_error))
    assert [f.label for f in fields] == ["f1", "f2"]
    assert fields[0].disc == 2869
    assert [lineno for lineno, _ in errs] == [5, 7, 8, 9, 10, 11]
    assert "NotSeparable" in errs[-1][1]
    assert any("NotMonic" in msg for _, msg in errs)


def test_ingest_jsonl(tmp_path):
    table = tmp_path / "fields.jsonl"
    rows = [
        json.dumps({"label": "f1", "coeffs": [1, 0, 0, 0, -1, -1]}),
        "{broken",
        json.dumps({"coeffs": [1, 0, 0, 0, -4, 2]}),
        json.dumps({"label": "x", "coeffs": [1, 2]}),
        json.dumps({"label": "y"}),
        # not an object, not a list, or not JSON integers: each skipped
        "[1,0,0,0,-1,-1]",
        '"x"',
        '{"coeffs":5}',
        '{"coeffs":[1,0,0,0,-1,null]}',
        '{"coeffs":[1,0,0,0,-1,-1.5]}',
        '{"coeffs":[true,0,0,0,-1,-1]}',
        '{"coeffs":[1,0,0,0,-1,-1],"label":7}',
    ]
    table.write_text("\n".join(rows) + "\n")
    errs, on_error = collect_errors()
    fields = list(ingest_fields(table, "jsonl", on_error=on_error))
    assert len(fields) == 2
    assert fields[0].label == "f1"
    assert fields[1].label == "x^5 - 4*x + 2"  # default label from the poly
    assert [lineno for lineno, _ in errs] == [2, 4, 5, 6, 7, 8, 9, 10, 11, 12]


def test_csv_fast_path_reads_cells_as_parse_int_does(tmp_path, monkeypatch):
    # rows of ASCII cells without "_" are read by int, the others (and
    # those int refuses) by parse_int: a cell means what parse_int says
    cells = [" 007 ", "\t-3\t", "+3", "\u00a05\u00a0", "\u20035\u2003",
             "1_0", "\u0661", "\uff11", "+", "--1", "0x10", "\u00b2"]
    table = tmp_path / "fields.csv"
    table.write_text("".join(f"r{i},1,0,0,0,-1,{cell}\n"
                             for i, cell in enumerate(cells)),
                     encoding="utf-8")
    want_fields, want_errs = [], []
    for lineno, cell in enumerate(cells, 1):
        try:
            a0 = parse_int(cell)
        except ValueError as exc:
            want_errs.append((lineno, str(exc)))
        else:
            want_fields.append((f"r{lineno - 1}", (1, 0, 0, 0, -1, a0)))
    assert len(want_fields) == 5 and len(want_errs) == 7
    calls = []
    monkeypatch.setattr(fieldscan, "parse_int",
                        lambda text: calls.append(text) or parse_int(text))
    errs, on_error = collect_errors()
    got = [(f.label, f.coeffs)
           for f in ingest_fields(table, "csv", on_error=on_error)]
    assert got == want_fields and errs == want_errs
    assert [coeffs[-1] for _, coeffs in got] == [7, -3, 3, 5, 5]
    # the three rows int reads never reached parse_int, the other nine
    # did (the line is stripped first, so a0 loses its trailing padding)
    assert len(calls) == 9 * 6 \
        and calls[5::6] == [cell.rstrip() for cell in cells[3:]]
    calls.clear()
    table.write_text("r, 1 ,\t0\t, +0 ,-0,-1 ,-1\n", encoding="utf-8")
    assert [f.coeffs for f in ingest_fields(table, "csv")] \
        == [(1, 0, 0, 0, -1, -1)] and calls == []
    # whatever int accepts of ASCII without "_", parse_int reads alike
    for n in range(4):
        for cell in map("".join, product(" \t\n\v\f\r\x1c\x1f+-019x.",
                                         repeat=n)):
            try:
                value = int(cell)
            except ValueError:
                continue
            assert parse_int(cell) == value


def test_ingest_empty_and_bad_format(tmp_path):
    table = tmp_path / "empty.csv"
    table.write_text("")
    assert list(ingest_fields(table, "csv")) == []
    with pytest.raises(ValueError):
        list(ingest_fields(table, "xml"))


# -- cache -------------------------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    store = tmp_path / "cache.jsonl"
    f = field_of(1, 0, 0, 0, -1, -1)
    with FieldCache(store) as cache:
        cache.put(f)
    fresh = FieldCache(store)
    assert len(fresh) == 1 and fresh.corrupt_lines == []
    g = fresh.get((1, 0, 0, 0, -1, -1))
    assert g is not None
    assert g.coeffs == f.coeffs and g.label == f.label
    assert g.disc == f.disc and g.signature == f.signature
    assert g.resolvent == f.resolvent
    assert g.certificate == f.certificate
    assert g.fingerprint == f.fingerprint
    assert fresh.get((1, 0, 0, 0, 0, -2)) is None


def test_cache_detects_corruption(tmp_path):
    store = tmp_path / "cache.jsonl"
    with FieldCache(store) as cache:
        cache.put(field_of(1, 0, 0, 0, -1, -1))
        cache.put(field_of(1, 0, 0, 0, -4, 2))
    lines = store.read_text().splitlines()
    lines[0] = lines[0].replace("2869", "2868", 1)
    lines.append("not json at all")
    store.write_text("\n".join(lines) + "\n")
    with FieldCache(store) as reloaded:
        assert reloaded.corrupt_lines == [1, 3]
        assert reloaded.get((1, 0, 0, 0, -1, -1)) is None
        assert reloaded.get((1, 0, 0, 0, -4, 2)) is not None
        # recompute and re-store the lost entry
        f = field_from_coeffs((1, 0, 0, 0, -1, -1), cache=reloaded)
    assert f.disc == 2869
    healed = FieldCache(store)
    assert healed.get((1, 0, 0, 0, -1, -1)).disc == 2869


def test_failed_cache_rewrite_keeps_the_file(tmp_path, monkeypatch):
    # a load whose rewrite fails still loads, and leaves the file and
    # no temporary file behind
    store = tmp_path / "cache.jsonl"
    with FieldCache(store) as cache:
        cache.put(field_of(1, 0, 0, 0, -1, -1))
    before = store.read_text() + "not json at all\n"
    store.write_text(before)

    def full_disk(rec):
        raise OSError("no space left on device")
    monkeypatch.setattr(fieldscan, "_line_of", full_disk)
    cache = FieldCache(store)
    assert cache.corrupt_lines == [2] and len(cache) == 1
    assert store.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]
    monkeypatch.undo()
    FieldCache(store)
    assert store.read_text() == before.splitlines(keepends=True)[0]


def test_cache_skips_recomputation(tmp_path, monkeypatch):
    store = tmp_path / "cache.jsonl"
    table = tmp_path / "fields.csv"
    # f3 is reducible but separable: still a cacheable record; f4 = x^5
    # has a repeated root, so it raises before it is cached and a warm
    # run computes its discriminant again
    table.write_text("f1,1,0,0,0,-1,-1\nf2,1,0,0,0,-4,2\nf3,1,0,0,0,1,-1\n"
                     "f4,1,0,0,0,0,0\n")
    calls = _count_discriminants(monkeypatch)
    errs, on_error = collect_errors()
    with FieldCache(store) as cache:
        first = list(ingest_fields(table, "csv", cache=cache,
                                   on_error=on_error))
    assert len(calls) == 4
    calls.clear()
    with FieldCache(store) as cache:
        again = list(ingest_fields(table, "csv", cache=cache,
                                   on_error=on_error))
    assert len(calls) == 1
    assert errs == [(4, "NotSeparable: zero discriminant")] * 2
    assert len(first) == 3
    assert [f.coeffs for f in again] == [f.coeffs for f in first]
    assert [f.fingerprint for f in again] == [f.fingerprint for f in first]


def test_cold_ingest_opens_the_cache_file_once(tmp_path, monkeypatch):
    store = tmp_path / "cache.jsonl"
    table = tmp_path / "fields.csv"
    rows = [(1, 0, 0, 0, -1, -1), (1, 0, 0, 0, -4, 2), (1, 0, 0, 0, 1, -1),
            (1, 0, 0, 0, -1, 1), (1, 0, 0, 0, 2, 3)]
    table.write_text("".join(f"f{i}," + ",".join(map(str, c)) + "\n"
                             for i, c in enumerate(rows)))
    appends = []

    def counting_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if mode == "a":
            appends.append((Path(file), fh))
        return fh
    monkeypatch.setattr(fieldscan, "open", counting_open, raising=False)
    with FieldCache(store) as cache:
        fields = list(ingest_fields(table, "csv", cache=cache))
        # each line is flushed as it is put
        assert len(store.read_text().splitlines()) == len(rows)
    assert [f.coeffs for f in fields] == rows
    assert [path for path, _ in appends] == [store]
    assert appends[0][1].closed
    assert len(FieldCache(store)) == len(rows)


def test_cache_serves_only_records_with_the_requested_parameters(tmp_path):
    store = tmp_path / "cache.jsonl"
    x5 = (1, 0, 0, 0, -1, -1)
    with FieldCache(store) as cache:
        stale = field_from_coeffs(x5, cache=cache, prime_budget=3)
    assert stale.s5_status == "Inconclusive"
    with FieldCache(store) as cache:
        fresh = field_from_coeffs(x5, cache=cache, prime_budget=200)
    assert fresh.s5_status == "Certified"
    assert fresh.prime_budget == 200
    # the newest record wins, in memory and on reload
    assert cache.get(x5).s5_status == "Certified"
    assert FieldCache(store).get(x5).s5_status == "Certified"
    assert FieldCache(store).get(x5, prime_budget=3) is None
    # a record derived with another trial bound is never served: write
    # one with a valid checksum and it is a miss
    rec = dict(cache.get(x5).to_record(), trial_bound=10)
    line = dict(rec, checksum=hashlib.sha256(
        quintrank.canonical_json(rec).encode("utf-8")).hexdigest())
    with open(store, "a", encoding="utf-8") as fh:
        fh.write(quintrank.canonical_json(line) + "\n")
    reloaded = FieldCache(store)
    assert reloaded.corrupt_lines == [] and len(reloaded) == 1
    assert reloaded.get(x5) is None
    # the load kept only the newest of the superseded lines
    assert store.read_text() == quintrank.canonical_json(line) + "\n"


# written by FieldCache.put for x^5 - x - 1 before records carried a
# version and their fingerprint as codes: a stale line now
UNVERSIONED_LINE = (
    '{"checksum":"9c85b33dbbd44ed307f6027418c9cc0a7ba10528cb9eda683eca45249e'
    'e71a73","coeffs":[1,0,0,0,-1,-1],"disc":2869,"fingerprint":[2869,[[2,3'
    '],[5],[5],[2,3],[5],[5],[1,1,3],[1,4],[1,4],[1,4],[2,3],[1,1,3],[1,1,3'
    '],[1,1,3],[1,1,3],[2,3],[1,4],[1,2,2],[1,2,2],[2,3]]],"label":"x^5 - x'
    ' - 1","prime_budget":200,"resolvent":[2869,2869,2869,true,false],"s5":'
    '["Certified",3,163,36],"signature":[1,2],"trial_bound":1000000}\n')

# written by FieldCache.put for x^5 - x - 1 in the versioned layout; the
# bytes must stay loadable and stay put's
GOLDEN_LINE = (
    '{"checksum":"3ed936f4afe0e8a4cfc08ea7519ecced7da9135ae0bfbcf27cca4cfd45'
    'ef8ea6","coeffs":[1,0,0,0,-1,-1],"disc":2869,"fingerprint":[2869,"23 5 5'
    ' 23 5 5 113 14 14 14 23 113 113 113 113 23 14 122 122 23"],"label":"x^5'
    ' - x - 1","prime_budget":200,"resolvent":[2869,2869,2869,true,false],"s5'
    '":["Certified",3,163,36],"signature":[1,2],"trial_bound":1000000,"versi'
    'on":2}\n')


def signed_line(rec: dict, tail: str = "") -> str:
    """rec as a cache line with a checksum that matches it, with tail
    after the record's text and under the checksum."""
    text = json.dumps(rec, sort_keys=True, separators=(",", ":")) + tail
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return '{"checksum":"' + digest + '",' + text[1:] + "\n"


def test_cache_golden_line_loads_and_put_writes_it_back(tmp_path):
    # the unversioned line is stale: never served, and dropped by the
    # load's rewrite, which keeps the versioned line after it
    old = tmp_path / "old.jsonl"
    old.write_text(UNVERSIONED_LINE, encoding="utf-8")
    cache = FieldCache(old)
    assert cache.stale_lines == [1] and cache.corrupt_lines == []
    assert len(cache) == 0 and cache.get((1, 0, 0, 0, -1, -1)) is None
    assert old.read_text(encoding="utf-8") == ""
    assert unversioned_cache_line(json.loads(GOLDEN_LINE)) == UNVERSIONED_LINE
    old.write_text(UNVERSIONED_LINE + GOLDEN_LINE, encoding="utf-8")
    cache = FieldCache(old)
    assert cache.stale_lines == [1] and cache.corrupt_lines == []
    assert len(cache) == 1 and old.read_text(encoding="utf-8") == GOLDEN_LINE
    cache = FieldCache(old)
    assert cache.stale_lines == cache.corrupt_lines == [] and len(cache) == 1
    served = cache.get((1, 0, 0, 0, -1, -1))
    assert served.disc == 2869 and served.s5_status == "Certified"
    for field in (served, field_of(1, 0, 0, 0, -1, -1)):
        new = tmp_path / "new.jsonl"
        new.unlink(missing_ok=True)
        with FieldCache(new) as cache:
            cache.put(field)
        assert new.read_text(encoding="utf-8") == GOLDEN_LINE


def test_cache_line_is_checksum_then_the_record_text(tmp_path):
    # "checksum" sorts before every record key, so the canonical line
    # opens with the digest and the rest is the record's canonical text
    rec = field_of(1, 0, 0, 0, -1, -1, label="é ✓").to_record()
    assert all(key > "checksum" for key in rec)
    store = tmp_path / "cache.jsonl"
    with FieldCache(store) as cache:
        cache.put(field_of(1, 0, 0, 0, -1, -1, label="é ✓"))
    assert store.read_text(encoding="utf-8") == signed_line(rec)
    assert FieldCache(store).get((1, 0, 0, 0, -1, -1)).label == "x^5 - x - 1"


def test_record_keys_carry_the_version_after_the_checksum():
    rec = field_of(1, 0, 0, 0, -1, -1).to_record()
    assert "version" in fieldscan._RECORD_KEYS and rec.keys() \
        == fieldscan._RECORD_KEYS
    assert rec["version"] == fieldscan.CACHE_VERSION
    assert sorted(fieldscan._RECORD_KEYS | {"checksum"})[0] == "checksum"


def test_records_of_another_version_are_stale(tmp_path):
    # a checksummed record of another version, or in the unversioned
    # layout, is stale: not served, dropped at load, derived again; a
    # record of this version without every key is corrupt
    store = tmp_path / "cache.jsonl"
    rec = field_of(1, 0, 0, 0, -1, -1).to_record()
    other = field_of(1, 0, 0, 0, -4, 2).to_record()
    partial = {k: v for k, v in other.items() if k != "label"}
    store.write_text(
        signed_line(dict(rec, version=3)) + signed_line(dict(rec, version=1))
        + unversioned_cache_line(rec) + signed_line({"version": 0})
        + signed_line(partial) + signed_line(other), encoding="utf-8")
    with FieldCache(store) as cache:
        assert cache.stale_lines == [1, 2, 3, 4] and cache.corrupt_lines == [5]
        assert cache.get(rec["coeffs"]) is None and len(cache) == 1
        assert store.read_text(encoding="utf-8") == signed_line(other)
        assert field_from_coeffs(rec["coeffs"], cache=cache).to_record() \
            == rec
    again = FieldCache(store)
    assert again.stale_lines == again.corrupt_lines == [] and len(again) == 2


def test_cache_line_in_another_layout_is_corrupt(tmp_path):
    store = tmp_path / "cache.jsonl"
    with FieldCache(store) as cache:
        cache.put(field_of(1, 0, 0, 0, -1, -1))
    obj = json.loads(store.read_text(encoding="utf-8"))
    checksum_last = dict(obj)
    checksum_last["checksum"] = checksum_last.pop("checksum")
    store.write_text(json.dumps(obj, sort_keys=True) + "\n"
                     + json.dumps(checksum_last, separators=(",", ":")) + "\n",
                     encoding="utf-8")
    cache = FieldCache(store)
    assert cache.corrupt_lines == [1, 2] and len(cache) == 0


def test_cache_record_without_every_key_is_corrupt(tmp_path):
    # a valid checksum over an incomplete or padded record is no record
    store = tmp_path / "cache.jsonl"
    rec = field_of(1, 0, 0, 0, -1, -1).to_record()
    partial = {k: v for k, v in rec.items() if k != "prime_budget"}
    without_coeffs = {k: v for k, v in rec.items() if k != "coeffs"}
    store.write_text(signed_line({"coeffs": rec["coeffs"]})
                     + signed_line(partial) + signed_line(without_coeffs)
                     + signed_line(dict(rec, extra=1)), encoding="utf-8")
    with FieldCache(store) as cache:
        assert cache.corrupt_lines == [1, 2, 3, 4] and len(cache) == 0
        assert cache.get(rec["coeffs"]) is None
        assert field_from_coeffs(rec["coeffs"], cache=cache).disc == 2869
    assert FieldCache(store).get(rec["coeffs"]).disc == 2869


def test_record_text_is_decoded_as_json_loads_does(tmp_path):
    # trailing whitespace after the record is served; trailing text or a
    # second object makes the line corrupt, whatever its checksum says
    rec = field_of(1, 0, 0, 0, -1, -1, label="padded").to_record()
    store = tmp_path / "cache.jsonl"
    store.write_text(signed_line(rec, "   "), encoding="utf-8")
    cache = FieldCache(store)
    assert cache.corrupt_lines == [] and cache.get(rec["coeffs"]).label \
        == "x^5 - x - 1"
    for tail in (" x", '{"disc":1}', "}"):
        store.write_text(signed_line(rec, tail), encoding="utf-8")
        cache = FieldCache(store)
        assert cache.corrupt_lines == [1] and len(cache) == 0


def test_served_records_pass_the_field_checks(tmp_path):
    # a checksummed record is rebuilt through QuinticField's constructor,
    # so it refuses a non-monic quintic and a zero discriminant
    rec = field_of(1, 0, 0, 0, -1, -1).to_record()
    non_monic = dict(rec, coeffs=[2, 0, 0, 0, -1, -1])
    store = tmp_path / "cache.jsonl"
    store.write_text(signed_line(non_monic) + signed_line(dict(rec, disc=0)),
                     encoding="utf-8")
    with FieldCache(store) as cache:
        assert cache.corrupt_lines == [] and len(cache) == 2
        with pytest.raises(ValueError, match="expected a monic quintic") \
                as refused:
            field_from_coeffs(non_monic["coeffs"], cache=cache)
        assert not isinstance(refused.value, NotSeparable)
        with pytest.raises(NotSeparable):
            field_from_coeffs(rec["coeffs"], cache=cache)


def test_a_cache_hit_keeps_the_callers_label(tmp_path):
    table = tmp_path / "fields.csv"
    rows = "flagship,1,0,0,0,-1,-1\nrepeat,1,0,0,0,-1,-1\n,1,0,0,0,-4,2\n"
    table.write_text(rows, encoding="utf-8")
    store = tmp_path / "cache.jsonl"

    def labels(cache=None):
        return [f.label for f in ingest_fields(table, cache=cache)]

    want = ["flagship", "repeat", "x^5 - 4*x + 2"]
    assert labels() == want
    with FieldCache(store) as cache:
        assert labels(cache) == want            # cold: repeat is a hit
    cold = store.read_bytes()
    with FieldCache(store) as cache:
        assert labels(cache) == want            # warm
    table.write_text(rows.replace("flagship", "renamed"), encoding="utf-8")
    with FieldCache(store) as cache:
        assert labels(cache) == ["renamed", "repeat", "x^5 - 4*x + 2"]
        # without a label, get serves str(poly), not the record's
        assert cache.get((1, 0, 0, 0, -1, -1)).label == "x^5 - x - 1"
    assert store.read_bytes() == cold


def test_an_unlabelled_row_is_labelled_alike_with_or_without_a_cache(
        tmp_path):
    # the second row's field is a hit on the record the first row wrote,
    # and takes its own str(poly) label, not the record's "flagship"
    table = tmp_path / "fields.csv"
    table.write_text("flagship,1,0,0,0,-1,-1\n,1,0,0,0,-1,-1\n",
                     encoding="utf-8")
    store = tmp_path / "cache.jsonl"

    def labels(cache=None):
        return [f.label for f in ingest_fields(table, cache=cache)]

    want = ["flagship", "x^5 - x - 1"]
    assert labels() == want
    for _ in ("cold", "warm"):
        with FieldCache(store) as cache:
            assert labels(cache) == want
    assert json.loads(store.read_text(encoding="utf-8"))["label"] \
        == "flagship"


@pytest.fixture(scope="module")
def height_two_cold_cache(tmp_path_factory):
    """The cache file a cold height-2 enumeration (budget 40) writes, and
    the _field_data of the fields it yields."""
    store = tmp_path_factory.mktemp("cold") / "cache.jsonl"
    with FieldCache(store) as cache:
        fields = _field_data(enumerate_quintics(2, 10 ** 6, prime_budget=40,
                                                cache=cache))
    return store.read_bytes(), fields


def test_warm_cached_enumeration_certifies_nothing(
        tmp_path, monkeypatch, height_two_cold_cache):
    cold, want = height_two_cold_cache
    records = [json.loads(line) for line in cold.splitlines()]
    assert Counter(rec["s5"][0] for rec in records) \
        == {"Certified": 599, "Inconclusive": 127}
    store = tmp_path / "cache.jsonl"
    store.write_bytes(cold)
    certified = []
    real = fieldscan.certify_s5

    def recording(f, *args):
        certified.append(f)
        return real(f, *args)
    monkeypatch.setattr(fieldscan, "certify_s5", recording)
    with FieldCache(store) as cache:
        assert _field_data(enumerate_quintics(
            2, 10 ** 6, prime_budget=40, cache=cache)) == want
    assert store.read_bytes() == cold
    assert certified == []


def test_a_record_does_not_depend_on_the_path_that_wrote_it(
        tmp_path, height_two_cold_cache):
    # the enumeration's discriminant comes from the row's Horner step,
    # field_from_coeffs' from poly_discriminant
    cold, _ = height_two_cold_cache
    rejected = [line for line in cold.decode("utf-8").splitlines(True)
                if json.loads(line)["s5"][0] != "Certified"]
    assert len(rejected) == 127
    store = tmp_path / "rows.jsonl"
    with FieldCache(store) as cache:
        for line in rejected:
            field_from_coeffs(json.loads(line)["coeffs"], cache=cache,
                              prime_budget=40)
    assert store.read_text(encoding="utf-8").splitlines(True) == rejected


def test_enumeration_with_cache_is_stable(tmp_path):
    store = tmp_path / "cache.jsonl"
    runs = []
    for _ in ("cold", "warm"):
        with FieldCache(store) as cache:
            runs.append([f.coeffs for f in enumerate_quintics(
                1, 10 ** 5, prime_budget=60, cache=cache)])
    assert runs[0] == runs[1] and runs[0]


# Inconclusive with an integer root: (x - 3)(x^4 + x + 1), disc > 0, and
# (x + 1)(x^4 - x^3 - 3x^2 + 3x - 1), disc < 0, and one root near 10^6;
# without one: (x^2 + 1)(x^3 + 2x^2 + 2x - 1) and x^5 - 5x + 12, whose
# group is in A5
PINNED_ROWS = [(1, -3, 0, 1, -2, -3), (1, 0, -4, 0, 2, -1),
               (1, -1000003, 0, 1, -1000002, -1000003),
               (1, 2, 3, 1, 2, -1), (1, 0, 0, 0, -5, 12)] + FIVE_REAL


def _write_pinned_records(path) -> list[dict]:
    """Cold-cache records of the height-2 enumeration (budget 40), then
    of seeded rows at heights 12, 50 and 10^4 and PINNED_ROWS (budget
    200), all in one cache file; the records, in file order."""
    rng = random.Random(1802)
    rows = [(1,) + tuple(rng.randint(-h, h) for _ in range(5))
            for h in (12, 50, 10 ** 4) for _ in range(10)]
    with FieldCache(path) as cache:
        list(enumerate_quintics(2, 10 ** 6, prime_budget=40, cache=cache))
        for coeffs in rows + PINNED_ROWS:
            field_from_coeffs(coeffs, cache=cache)
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


# sha256 of the file _write_pinned_records writes; of the same file
# without the 127 lines of the enumeration's Inconclusive candidates,
# which were written when the enumeration recorded only certified
# fields; and of those 636 records in the unversioned layout, recorded
# while every discriminant came from subresultants, every signature from
# a Sturm chain and Miller-Rabin ran once per run of primes
ALL_RECORDS_SHA256 = \
    "db264d739dfd4578646e1a95e9fd14c2e789359a383e3d145badc6a2717590d2"
PINNED_RECORDS_SHA256 = \
    "ac1ff91823d7fa3a798737aaac985c51b3972edbbb54a06e140820a47f59218a"
UNVERSIONED_RECORDS_SHA256 = \
    "ecc8cbd87a5d1cc4049a8d11d55714b2405e9136198817ee20217e362c582f2f"


def test_cold_cache_records_are_pinned(tmp_path):
    store = tmp_path / "cache.jsonl"
    records = _write_pinned_records(store)
    assert hashlib.sha256(store.read_bytes()).hexdigest() \
        == ALL_RECORDS_SHA256
    # the seeded and pinned rows are derived with the default budget, 200
    lines = store.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [(line, rec) for line, rec in zip(lines, records)
            if rec["prime_budget"] != 40 or rec["s5"][0] == "Certified"]
    assert (len(lines), len(kept)) == (763, 636)
    assert hashlib.sha256("".join(line for line, _ in kept).encode(
        "utf-8")).hexdigest() == PINNED_RECORDS_SHA256
    # each record, its codes decoded and its version removed, is the
    # record the unversioned layout wrote
    unversioned = "".join(unversioned_cache_line(rec) for _, rec in kept)
    assert hashlib.sha256(unversioned.encode("utf-8")).hexdigest() \
        == UNVERSIONED_RECORDS_SHA256
    # what the set is meant to cover
    rows = records[-len(PINNED_ROWS) - 30:]
    assert {rec["disc"] > 0 for rec in rows} == {True, False}
    assert {tuple(rec["signature"]) for rec in rows} \
        == {(5, 0), (3, 1), (1, 2)}
    assert not all(rec["resolvent"][3] for rec in rows)
    status = {(tuple(rec["coeffs"]), rec["s5"][0]) for rec in rows}
    assert all((c, "Inconclusive") in status for c in PINNED_ROWS[:5])


# -- scan ---------------------------------------------------------------------------


def test_scan_toy_counts():
    f1 = field_of(1, 0, 0, 0, -1, -1)    # disc 2869, odd parity for 37a
    f2 = field_of(1, 0, 0, 0, -4, 2)     # |disc| = 249644, wrong signature
    report = scan(CURVE37, [f1, f2], [3000, 300000])
    assert report.curve == "37a"
    b1, b2 = report.buckets
    assert (b1.X, b1.total, b1.admissible, b1.odd) == (3000, 1, 1, 1)
    assert (b2.X, b2.total, b2.admissible, b2.odd) == (300000, 2, 1, 1)


def test_scan_empty_stream():
    report = scan(CURVE37, [], [10, 100])
    assert all((b.total, b.admissible, b.odd) == (0, 0, 0)
               for b in report.buckets)


def test_scan_uncertified_fields_count_as_total_only():
    f = field_of(1, 0, 0, 0, 0, -2)   # x^5 - 2: Inconclusive
    report = scan(CURVE37, [f], [10 ** 6])
    b = report.buckets[0]
    assert (b.total, b.admissible, b.odd) == (1, 0, 0)


def test_scan_bucket_edges_validated():
    with pytest.raises(ValueError):
        scan(CURVE37, [], [])
    with pytest.raises(ValueError):
        scan(CURVE37, [], [100, 100])
    with pytest.raises(ValueError):
        scan(CURVE37, [], [100, 10])


def test_scan_report_json_schema():
    f1 = field_of(1, 0, 0, 0, -1, -1)
    doc = scan(CURVE37, [f1], [10 ** 4]).to_json_dict()
    assert set(doc.keys()) == {"curve", "buckets"}
    assert doc["buckets"] == [
        {"X": 10 ** 4, "total": 1, "admissible": 1, "odd": 1}]


def test_scan_height_two_monotone():
    fields = list(enumerate_quintics(2, 10 ** 6, prime_budget=40))
    report = scan(CURVE37, fields, [10 ** 4, 10 ** 5, 10 ** 6])
    totals = [b.total for b in report.buckets]
    adms = [b.admissible for b in report.buckets]
    odds = [b.odd for b in report.buckets]
    assert totals == sorted(totals)
    assert adms == sorted(adms)
    assert odds == sorted(odds)
    for b in report.buckets:
        assert b.odd <= b.admissible <= b.total
    assert report.buckets[-1].total == len(
        [f for f in fields if abs(f.disc) <= 10 ** 6])
    # a second pass over a fresh enumeration gives the identical report
    fields2 = enumerate_quintics(2, 10 ** 6, prime_budget=40)
    assert scan(CURVE37, fields2, [10 ** 4, 10 ** 5, 10 ** 6]) == report


def test_enumeration_builds_labels_only_for_the_fields_scan_reads(
        monkeypatch):
    # a candidate's label, str(poly), is built only when it is read, so
    # the candidates that fail the certificate or dedup never build one
    to_str, init = IntPolynomial.__str__, QuinticField.__init__
    labelled, built = Counter(), Counter()

    def counted_str(self):
        labelled[self.coeffs] += 1
        return to_str(self)

    def counted_init(self, *args, **kwargs):
        built["fields"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(IntPolynomial, "__str__", counted_str)
    monkeypatch.setattr(QuinticField, "__init__", counted_init)
    report = scan(CURVE37, enumerate_quintics(2, 10 ** 6, prime_budget=40),
                  [100_000, 400_000, 1_000_000])
    assert len(labelled) == report.buckets[-1].total == 569
    assert set(labelled.values()) == {1}
    assert built["fields"] > len(labelled)


# -- records --------------------------------------------------------------------------


RECORDS = [
    numtheory.SquarefreeResult(-6, True),
    numtheory.FactorPattern(True, (5,)),
    numtheory.S5Certificate("Certified", 3, 7, 4),
    numtheory.resolvent(2869),
    CURVE37,
    rankgrowth.certify_pair(CURVE37, field_of(1, 0, 0, 0, -1, -1)),
    BucketStat(10, 2, 2, 1),
    ScanReport("37a", (BucketStat(10, 2, 2, 1),)),
    IntPolynomial([-1, -1, 0, 0, 0, 1]),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    first = getattr(record, "_fields", ("coeffs",))[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        record.note = "not a field"


def test_only_records_of_outside_input_check_their_fields():
    # the records the program builds itself are plain namedtuples, whose
    # rules the tests check over whole boxes of fields
    for module in pkgutil.iter_modules(quintrank.__path__):
        importlib.import_module(f"quintrank.{module.name}")
    assert set(quintrank.CheckedRecord.__subclasses__()) == {
        CurveData, groups.Permutation, cocycles.Cocycle2}


def test_int_polynomial_trims_and_compares_by_coefficients():
    f = IntPolynomial([1, 2.0, 0, 0])
    assert f.coeffs == (1, 2) and all(type(c) is int for c in f.coeffs)
    g = IntPolynomial.descending([0, 2, 1])
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1
    assert f != IntPolynomial([1, 2, 1]) and f != (1, 2)
    assert IntPolynomial([0, 0]).is_zero and IntPolynomial([0, 0]).degree == -1
    assert repr(f) == "IntPolynomial(coeffs=(1, 2))"
    with pytest.raises(AttributeError):
        del f.coeffs


# -- guards that python -O keeps ------------------------------------------------------


GUARDS_UNDER_O = textwrap.dedent("""
    from quintrank import cocycles
    from quintrank.groups import symmetric_group

    if __debug__:
        raise SystemExit("expected python -O")

    def raises(exc, fn, *args):
        try:
            fn(*args)
        except exc:
            return
        raise SystemExit(f"{fn.__name__}{args} did not raise {exc.__name__}")

    G = symmetric_group(2)
    zero = cocycles.Cocycle2(G, [[0, 0], [0, 0]])
    cocycles.coboundary = lambda group, c: ((1, 1), (1, 1))
    raises(RuntimeError, cocycles.coboundary_witness, zero)
""")


def test_invariant_guards_survive_python_O():
    src = str(Path(quintrank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", GUARDS_UNDER_O],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
