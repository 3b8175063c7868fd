from functools import lru_cache
from math import prod

import pytest
from oracles import (
    certificate_breaks_rules,
    ddf_pattern_mod_p,
    root_number_disagreements,
)

from quintrank.cli import _load_curves
from quintrank.fieldscan import (
    BucketStat,
    QuinticField,
    enumerate_quintics,
    scan,
)
from quintrank import rankgrowth
from quintrank.numtheory import IntPolynomial, first_primes, kronecker_symbol
from quintrank.rankgrowth import CurveData, admissible, certify_pair


def field_of(*desc_coeffs, **kw):
    return QuinticField(IntPolynomial.descending(desc_coeffs), **kw)


FLAGSHIP = field_of(1, 0, 0, 0, -1, -1)          # x^5 - x - 1, disc 2869
THREE_REAL = field_of(1, 0, 0, 0, -4, 2)         # x^5 - 4x + 2, S5, 3 real roots
SOLVABLE = field_of(1, 0, 0, 0, 0, -2)           # x^5 - 2, not S5-certifiable
CURVE37 = CurveData.parse("37a 37 37^1")


def shifted(poly: IntPolynomial, c: int) -> IntPolynomial:
    """f(x + c), exact integer composition."""
    acc = [0]
    cur = [1]
    for a in poly.coeffs:
        for i, t in enumerate(cur):
            if i == len(acc):
                acc.append(0)
            acc[i] += a * t
        nxt = [0] * (len(cur) + 1)
        for i, t in enumerate(cur):
            nxt[i] += c * t
            nxt[i + 1] += t
        cur = nxt
    return IntPolynomial(acc)


# -- curve parsing -------------------------------------------------------------


def test_parse_curve_line():
    c = CurveData.parse("37a 37 37^1")
    assert c.label == "37a" and c.conductor == 37
    assert c.factorization == ((37, 1),)
    # N- = 37, and no additive part
    assert prod(p for p, e in c.factorization if e == 1) == 37
    assert prod(p ** e for p, e in c.factorization if e >= 2) == 1


def test_parse_mixed_reduction():
    c = CurveData.parse("e 1350 2^1 3^3 5^2")
    assert prod(p for p, e in c.factorization if e == 1) == 2
    assert prod(p ** e for p, e in c.factorization if e >= 2) == 675
    assert c.factorization == ((2, 1), (3, 3), (5, 2))


def test_parse_rejects_bad_lines():
    with pytest.raises(ValueError):
        CurveData.parse("x 36 2^1 3^1")       # product mismatch
    with pytest.raises(ValueError):
        CurveData.parse("x 81 9^2")           # 9 is not prime
    with pytest.raises(ValueError):
        CurveData.parse("x 9 3^1 3^1")        # duplicate prime
    with pytest.raises(ValueError):
        CurveData.parse("x 5 5")              # missing ^e
    with pytest.raises(ValueError):
        CurveData.parse("x 1 3^0")            # exponent 0
    with pytest.raises(ValueError):
        CurveData.parse("only-label")


def test_curve_data_checks_every_construction():
    # parse sorts the factors; the constructor must still refuse them
    # out of order, and _replace goes through the same checks
    assert CurveData(label="x", conductor=6, factorization=((2, 1), (3, 1)))
    with pytest.raises(ValueError):
        CurveData(label="x", conductor=6, factorization=((3, 1), (2, 1)))
    with pytest.raises(ValueError):
        CURVE37._replace(conductor=74)
    assert CURVE37._replace(label="37b").label == "37b"


# -- admissibility -------------------------------------------------------------


def test_flagship_pair_admissible():
    assert admissible(CURVE37, FLAGSHIP) == ()


def test_even_conductor_reason():
    cert = certify_pair(CurveData.parse("14a 14 2^1 7^1"), FLAGSHIP)
    assert not cert.admissible
    assert cert.reasons == ("EvenConductor",)
    assert cert.chi is None and cert.parity is None
    assert cert.growth == "Unknown"


def test_wrong_signature_reason():
    assert THREE_REAL.s5_status == "Certified"
    assert THREE_REAL.signature == (3, 1)
    cert = certify_pair(CURVE37, THREE_REAL)
    assert cert.reasons == ("WrongSignature",)


def test_ramified_prime_reason():
    # disc(x^5 - x - 1) = 2869 = 19 * 151
    cert = certify_pair(CurveData.parse("19a 19 19^1"), FLAGSHIP)
    assert cert.reasons == ("RamifiedPrime",)


def test_nonsplit_prime_reason():
    assert kronecker_symbol(2869, 7) == -1  # 7 inert in the resolvent
    cert = certify_pair(CurveData.parse("s 147 3^1 7^2"), FLAGSHIP)
    assert cert.reasons == ("NonSplitPrime",)


def test_uncertified_field_reason():
    assert SOLVABLE.s5_status == "Inconclusive"
    assert SOLVABLE.signature == (1, 2)
    cert = certify_pair(CURVE37, SOLVABLE)
    assert cert.reasons == ("NotCertifiedS5",)


def test_reasons_accumulate_in_check_order():
    # disc(x^5 - 4x + 2) = -249644 is even, so 2 also shows up ramified
    assert THREE_REAL.disc % 2 == 0
    cert = certify_pair(CurveData.parse("14a 14 2^1 7^1"), THREE_REAL)
    assert cert.reasons == ("EvenConductor", "WrongSignature", "RamifiedPrime")


def test_incomplete_resolvent():
    # an incomplete kernel is a reason, given alone, not an error
    stub = field_of(1, 0, 0, 0, -1, -1)
    stub.resolvent = stub.resolvent._replace(complete=False)
    assert not stub.resolvent.complete
    assert admissible(CURVE37, stub) == ("IncompleteData",)
    cert = certify_pair(CURVE37, stub)
    assert cert.reasons == ("IncompleteData",)
    assert (cert.admissible, cert.chi, cert.growth) == (False, None, "Unknown")


# -- parity ---------------------------------------------------------------------


def test_flagship_parity_odd_via_residue_enumeration():
    squares = {x * x % 37 for x in range(1, 37)}
    assert 2869 % 37 == 20
    expected_chi = 1 if 20 in squares else -1
    assert expected_chi == -1  # 20 is a non-residue mod 37
    cert = certify_pair(CURVE37, FLAGSHIP)
    assert cert.chi == expected_chi
    assert cert.parity == "Odd" and cert.growth == "Certified"
    assert cert.admissible and cert.reasons == ()
    assert cert.chi == kronecker_symbol(2869, 37)


def test_parity_requires_admissible():
    cert = certify_pair(CurveData.parse("14a 14 2^1 7^1"), FLAGSHIP)
    assert not cert.admissible and cert.chi is None
    assert "EvenConductor" in cert.reasons


def test_certify_pair_checks_admissibility_once(monkeypatch):
    calls = []
    real = rankgrowth.admissible

    def counted(curve, field):
        calls.append(field.label)
        return real(curve, field)

    monkeypatch.setattr(rankgrowth, "admissible", counted)
    certs = [certify_pair(CURVE37, f) for f in (FLAGSHIP, SOLVABLE, THREE_REAL)]
    assert [c.admissible for c in certs] == [True, False, False]
    assert calls == [FLAGSHIP.label, SOLVABLE.label, THREE_REAL.label]


def test_empty_multiplicative_part_is_even_parity():
    # all additive primes, 3 split in the resolvent: chi is an empty product
    assert kronecker_symbol(2869, 3) == 1
    cert = certify_pair(CurveData.parse("a 9 3^2"), FLAGSHIP)
    assert cert.chi == 1
    assert cert.parity == "Even" and cert.growth == "Unknown"


def test_two_inert_primes_cancel():
    assert kronecker_symbol(2869, 7) == -1
    assert kronecker_symbol(2869, 23) == -1
    cert = certify_pair(CurveData.parse("ee 161 7^1 23^1"), FLAGSHIP)
    assert cert.chi == 1 and cert.parity == "Even"


def test_chi_matches_one_shot_kronecker():
    curve = CurveData.parse("m 483 3^1 7^1 23^1")
    cert = certify_pair(curve, FLAGSHIP)
    assert cert.chi == kronecker_symbol(2869, 483)
    # and against the prime-by-prime product done by hand
    hand = 1
    for p in (3, 7, 23):
        hand *= kronecker_symbol(2869, p)
    assert cert.chi == hand


def test_certificate_invariant_under_generator_change():
    base = certify_pair(CURVE37, FLAGSHIP)
    for c in (1, -1, 2):
        g = shifted(FLAGSHIP.poly, c)
        other = QuinticField(g)
        assert other.disc == FLAGSHIP.disc  # translation preserves disc
        cert = certify_pair(CURVE37, other)
        assert (cert.admissible, cert.chi, cert.parity, cert.growth) == \
            (base.admissible, base.chi, base.parity, base.growth)


@lru_cache(maxsize=None)
def _height_two_box():
    return tuple(enumerate_quintics(2, 10 ** 6, prime_budget=40))


def test_chi_is_the_frobenius_sign_of_the_ddf_oracle():
    # chi is the product over p || N of (-1)^(5 - number of factors of f
    # mod p) (Stickelberger), the factors from the ddf oracle, which
    # never reads the discriminant's kernel or (disc|p)
    chis = []
    for curve in _load_curves("sample"):
        for field in _height_two_box():
            cert = certify_pair(curve, field)
            if not cert.admissible:
                continue
            sign = 1
            for p, e in curve.factorization:
                if e == 1:
                    factors = ddf_pattern_mod_p(field.poly, p).pattern
                    sign *= (-1) ** (5 - len(factors))
            assert cert.chi == sign, (curve.label, field.label)
            chis.append(sign)
    assert len(chis) > 1000 and set(chis) == {1, -1}


def test_root_numbers_place_by_place_agree_with_the_certificate():
    # w(E/K)/w(E) from Sturm chains and ddf factor counts, with no
    # Kronecker symbol, against chi and the product over p || N on every
    # admissible pair, and against (disc f|-N) on every unramified one
    fields = tuple(enumerate_quintics(3, 10 ** 6, prime_budget=40))
    admissible_pairs, unramified_pairs, bad = root_number_disagreements(
        _load_curves("sample"), fields)
    assert bad == []
    assert (admissible_pairs, unramified_pairs) == (20356, 28142)


def test_certificates_and_scan_reports_keep_their_rules_over_a_box():
    # the records are plain namedtuples, so these rules are checked here,
    # over the 2,952 fields of the height-3 box and the 10 bundled curves
    fields = tuple(enumerate_quintics(3, 10 ** 6, prime_budget=40))
    assert len(fields) == 2952
    edges = [1000, 10_000, 100_000, 400_000, 1_000_000]
    for curve in _load_curves("sample"):
        certs = [certify_pair(curve, field) for field in fields]
        broken = [cert for field, cert in zip(fields, certs)
                  if certificate_breaks_rules(curve, field, cert)]
        assert broken == []
        pairs = [(abs(field.disc), cert) for field, cert in zip(fields, certs)]
        recount = tuple(
            BucketStat(x, sum(d <= x for d, _ in pairs),
                       sum(d <= x and c.admissible for d, c in pairs),
                       sum(d <= x and c.parity == "Odd" for d, c in pairs))
            for x in edges)
        report = scan(curve, fields, edges)
        assert report == (curve.label, recount)
        buckets = report.buckets
        assert all(0 <= b.odd <= b.admissible <= b.total for b in buckets)
        for a, b in zip(buckets, buckets[1:]):
            assert a.X < b.X
            assert (a.total <= b.total and a.admissible <= b.admissible
                    and a.odd <= b.odd)


def test_kronecker_of_disc_f_equals_that_of_the_fundamental_disc():
    # disc f = D m^2 and disc f = 0 or 1 mod 4, so an odd disc f has
    # D = 1 mod 4: the symbols agree at every p not dividing disc f
    checked = 0
    for field in _height_two_box():
        fund = field.resolvent.fundamental_disc
        for p in first_primes(46):              # the primes below 200
            if field.disc % p:
                assert kronecker_symbol(field.disc, p) == \
                    kronecker_symbol(fund, p), (field.label, p)
                checked += p == 2
    assert checked > 0


# -- batch ------------------------------------------------------------------------


def test_batch_totality_and_structural_invariants():
    certs = [certify_pair(CURVE37, f) for f in (FLAGSHIP, SOLVABLE, THREE_REAL)]
    assert len(certs) == 3
    for cert in certs:
        if cert.growth == "Certified":
            assert cert.admissible and cert.parity == "Odd" and cert.chi == -1
        if cert.admissible:
            assert cert.reasons == ()
            assert (cert.parity == "Odd") == (cert.chi == -1)
        else:
            assert cert.reasons and cert.chi is None and cert.parity is None
    assert [c.admissible for c in certs] == [True, False, False]


def test_certificate_json_schema():
    doc = certify_pair(CURVE37, FLAGSHIP).to_json_dict()
    assert list(doc.keys()) == [
        "curve", "field", "admissible", "reasons", "chi", "parity", "growth"]
    assert doc["curve"] == "37a"
    assert doc["field"] == "x^5 - x - 1"
    assert doc["admissible"] is True and doc["reasons"] == []
    assert doc["chi"] == -1 and doc["parity"] == "Odd"
    assert doc["growth"] == "Certified"
