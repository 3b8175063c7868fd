import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from oracles import enumerate_full_box, quintic_orbit

import quintrank
from quintrank import fieldscan
from quintrank.fieldscan import (
    FalseMergeError,
    FieldCache,
    NotSeparable,
    QuinticField,
    dedupe_stream,
    enumerate_quintics,
    field_from_coeffs,
    ingest_fields,
    scan,
)
from quintrank.numtheory import (
    IntPolynomial,
    certify_s5,
    factor_pattern_mod_p,
    poly_discriminant,
)
from quintrank.rankgrowth import CurveData

CURVE37 = CurveData.parse("37a 37 37^1")


def field_of(*desc, **kw):
    return QuinticField(IntPolynomial.descending(desc), **kw)


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
    kernel, patterns = f.fingerprint
    assert kernel == 2869
    assert len(patterns) == 20
    assert all(sum(p) == 5 for p in patterns)
    assert len(f.extended_fingerprint) == 30


def test_field_rejects_bad_polynomials():
    with pytest.raises(NotSeparable):
        field_of(1, 0, 0, 0, 0, 0)              # x^5
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

    def one(f, p, disc=None):
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
    # so each field computes the first block end covering both its
    # certificate and the 50 fingerprint and audit primes
    assert [per_field[IntPolynomial.descending(d).coeffs]
            for d in STREAM_SAMPLES] == [50, 50, 100, 200]


def test_stream_past_the_block_crossover(monkeypatch):
    # x^5 - 2 never certifies, so a budget of 600 primes fills blocks up
    # to 800 patterns, whose primes run past the kernel's crossover
    one_at_a_time = []
    calls = _count_patterns(monkeypatch, one_at_a_time)
    poly = IntPolynomial.descending((1, 0, 0, 0, 0, -2))
    f = QuinticField(poly, prime_budget=600)
    assert f.certificate == certify_s5(poly, 600, f.disc)
    assert len(calls) == 800 and max(calls.values()) == 1
    primes = sorted(p for _, p in calls)
    assert one_at_a_time == [p for p in primes if p >= fieldscan._BLOCK_BELOW]
    assert primes[0] < fieldscan._BLOCK_BELOW < primes[-1]
    assert f._stream(800) == [factor_pattern_mod_p(poly, p, f.disc).pattern
                              for p in primes]


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
            assert f.certificate == certify_s5(poly, budget, disc)


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
                and not fieldscan._has_integer_root(coeffs):
            squares.append(poly)
    assert len(squares) == 22
    for poly in squares:
        assert certify_s5(poly, 200).status == "Inconclusive"
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


def test_false_merge_is_surfaced():
    f = field_of(1, 0, 0, 0, -1, -1)
    g = field_of(1, 0, 0, 0, -4, 2)    # genuinely different field
    g._fingerprint = f.fingerprint     # force a collision
    with pytest.raises(FalseMergeError):
        list(dedupe_stream([f, g]))


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
    cold = enumerate_quintics(height, 10 ** 6, cache=FieldCache(store), **kw)
    assert _field_data(cold) == want
    warm = enumerate_quintics(height, 10 ** 6, cache=FieldCache(store), **kw)
    assert _field_data(warm) == want


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


def test_skipped_vectors_are_their_orbit_minimum_field():
    seen = set(_orbit_walk(2))
    skipped = 0
    for tail in product(range(-2, 3), repeat=5):
        coeffs = (1,) + tail
        if tail in seen or fieldscan._has_integer_root(coeffs):
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


def _exact_row(head, start, count):
    return [poly_discriminant(IntPolynomial.descending((1,) + head + (a0,)))
            for a0 in range(start, start + count)]


def test_difference_rows_match_poly_discriminant():
    for head in product(range(-3, 4), repeat=4):
        assert fieldscan._discs_along_a0(head, -3, 7) \
            == _exact_row(head, -3, 7)
    rng = random.Random(20181)
    for h in (10, 50):
        for _ in range(40):
            head = tuple(rng.randint(-h, h) for _ in range(4))
            assert fieldscan._discs_along_a0(head, -h, 2 * h + 1) \
                == _exact_row(head, -h, 2 * h + 1)
    # (x - 1)^2 (x^3 + x + 1): a repeated root at a0 = 1 of its row
    head = (-2, 2, -1, -1)
    row = fieldscan._discs_along_a0(head, -10, 21)
    assert row == _exact_row(head, -10, 21) and row[11] == 0


def _count_discriminants(monkeypatch) -> list:
    """The polynomials fieldscan computes a discriminant of, in order."""
    calls = []
    real = fieldscan.poly_discriminant

    def counting(f):
        calls.append(f)
        return real(f)
    monkeypatch.setattr(fieldscan, "poly_discriminant", counting)
    return calls


def test_row_discriminants_are_exact_and_never_cost_more(monkeypatch):
    head = (-2, 2, -1, -1)
    rows = ([1], [-3, 0, 2, 5, 6], [-3, -2, 0, 1, 4, 9], list(range(-7, 8)))
    calls = _count_discriminants(monkeypatch)
    for a0s in rows:
        calls.clear()
        got = fieldscan._row_discriminants(head, a0s)
        assert got == [poly_discriminant(
            IntPolynomial.descending((1,) + head + (a0,))) for a0 in a0s]
        assert len(calls) == min(len(a0s), 5)


def test_enumeration_counts_every_discriminant(monkeypatch):
    calls = _count_discriminants(monkeypatch)
    # the count does not depend on the bound; a bound of 1 certifies nothing
    for height, want in ((2, 737), (3, 4891)):
        calls.clear()
        assert list(enumerate_quintics(height, 1)) == []
        assert len(calls) == want


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


def test_ingest_empty_and_bad_format(tmp_path):
    table = tmp_path / "empty.csv"
    table.write_text("")
    assert list(ingest_fields(table, "csv")) == []
    with pytest.raises(ValueError):
        list(ingest_fields(table, "xml"))


# -- cache -------------------------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    store = tmp_path / "cache.jsonl"
    cache = FieldCache(store)
    f = field_of(1, 0, 0, 0, -1, -1)
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
    cache = FieldCache(store)
    cache.put(field_of(1, 0, 0, 0, -1, -1))
    cache.put(field_of(1, 0, 0, 0, -4, 2))
    lines = store.read_text().splitlines()
    lines[0] = lines[0].replace("2869", "2868", 1)
    lines.append("not json at all")
    store.write_text("\n".join(lines) + "\n")
    reloaded = FieldCache(store)
    assert reloaded.corrupt_lines == [1, 3]
    assert reloaded.get((1, 0, 0, 0, -1, -1)) is None
    assert reloaded.get((1, 0, 0, 0, -4, 2)) is not None
    # recompute and re-store the lost entry
    f = field_from_coeffs((1, 0, 0, 0, -1, -1), cache=reloaded)
    assert f.disc == 2869
    healed = FieldCache(store)
    assert healed.get((1, 0, 0, 0, -1, -1)).disc == 2869


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
    first = list(ingest_fields(table, "csv", cache=FieldCache(store),
                               on_error=on_error))
    assert len(calls) == 4
    calls.clear()
    again = list(ingest_fields(table, "csv", cache=FieldCache(store),
                               on_error=on_error))
    assert len(calls) == 1
    assert errs == [(4, "NotSeparable: zero discriminant")] * 2
    assert len(first) == 3
    assert [f.coeffs for f in again] == [f.coeffs for f in first]
    assert [f.fingerprint for f in again] == [f.fingerprint for f in first]


def test_cache_serves_only_records_with_the_requested_parameters(tmp_path):
    store = tmp_path / "cache.jsonl"
    x5 = (1, 0, 0, 0, -1, -1)
    stale = field_from_coeffs(x5, cache=FieldCache(store), prime_budget=3)
    assert stale.s5_status == "Inconclusive"
    cache = FieldCache(store)
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
        fieldscan._canonical_json(rec).encode("utf-8")).hexdigest())
    with open(store, "a", encoding="utf-8") as fh:
        fh.write(fieldscan._canonical_json(line) + "\n")
    reloaded = FieldCache(store)
    assert reloaded.corrupt_lines == [] and len(reloaded) == 1
    assert reloaded.get(x5) is None


def test_enumeration_with_cache_is_stable(tmp_path):
    store = tmp_path / "cache.jsonl"
    cold = [f.coeffs for f in enumerate_quintics(
        1, 10 ** 5, prime_budget=60, cache=FieldCache(store))]
    warm = [f.coeffs for f in enumerate_quintics(
        1, 10 ** 5, prime_budget=60, cache=FieldCache(store))]
    assert cold == warm and cold


# -- scan ---------------------------------------------------------------------------


def test_scan_toy_counts():
    f1 = field_of(1, 0, 0, 0, -1, -1)    # disc 2869, odd parity for 37a
    f2 = field_of(1, 0, 0, 0, -4, 2)     # |disc| = 249644, wrong signature
    report = scan(CURVE37, [f1, f2], [3000, 300000])
    assert report.curve == "37a"
    b1, b2 = report.buckets
    assert (b1.X, b1.total, b1.admissible, b1.odd) == (3000, 1, 1, 1)
    assert (b2.X, b2.total, b2.admissible, b2.odd) == (300000, 2, 1, 1)
    assert b1.odd_proportion == 1.0


def test_scan_empty_stream():
    report = scan(CURVE37, [], [10, 100])
    assert all((b.total, b.admissible, b.odd) == (0, 0, 0)
               for b in report.buckets)


def test_scan_uncertified_fields_count_as_total_only():
    f = field_of(1, 0, 0, 0, 0, -2)   # x^5 - 2: Inconclusive
    report = scan(CURVE37, [f], [10 ** 6])
    b = report.buckets[0]
    assert (b.total, b.admissible, b.odd) == (1, 0, 0)
    assert b.odd_proportion is None


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


# -- guards that python -O keeps ------------------------------------------------------


GUARDS_UNDER_O = textwrap.dedent("""
    import numpy as np
    from quintrank import cocycles
    from quintrank.fieldscan import BucketStat, ScanReport
    from quintrank.groups import symmetric_group
    from quintrank.rankgrowth import ParityCertificate

    if __debug__:
        raise SystemExit("expected python -O")

    def raises(exc, fn, *args):
        try:
            fn(*args)
        except exc:
            return
        raise SystemExit(f"{fn.__name__}{args} did not raise {exc.__name__}")

    raises(ValueError, BucketStat, 10, 1, 2, 0)
    raises(ValueError, BucketStat, 10, 2, 1, 2)
    ok = BucketStat(10, 2, 2, 1)
    raises(ValueError, ScanReport, "c", (ok, BucketStat(5, 2, 2, 1)))
    raises(ValueError, ScanReport, "c", (ok, BucketStat(20, 1, 1, 1)))
    raises(ValueError, ParityCertificate, "c", "f", False, (), None, None,
           "Certified")
    raises(ValueError, ParityCertificate, "c", "f", True, (), 1, "Odd",
           "Unknown")
    G = symmetric_group(2)
    zero = cocycles.Cocycle2(G, np.zeros((2, 2), dtype=np.int8))
    cocycles.coboundary = lambda group, c: np.ones((2, 2), dtype=np.int64)
    raises(RuntimeError, cocycles.coboundary_witness, zero)
""")


def test_invariant_guards_survive_python_O():
    src = str(Path(quintrank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", GUARDS_UNDER_O],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
