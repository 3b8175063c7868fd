"""End-to-end acceptance battery.

Ten criteria, one test each, covering the cohomology layer, the
tensor-induced representation, the exact integer arithmetic, the
parity certificates, and the scanning pipeline.  Each test prints a
single "criterion NN PASS/FAIL" line (visible with -s or on failure)
and enforces its stated tolerance and time budget.
"""

import subprocess
import sys
import time

import numpy as np

from oracles import (
    count_real_roots_bisection,
    legendre_by_enumeration,
    sylvester_discriminant,
)
from test_numtheory import _random_quintics
from test_reps import _closed_form_index2

from quintrank.cocycles import (
    central_extension,
    coboundary_witness,
    h1_dimension,
    h2_dimension,
    pin_cocycle_sn,
    restrict_cocycle,
    verify_cocycle,
)
from quintrank.fieldscan import QuinticField, enumerate_quintics, scan
from quintrank.icosians import double_cover
from quintrank.groups import (
    CosetSystem,
    alternating_group,
    coset_factorization,
    symmetric_group,
    transfer,
)
from quintrank.numtheory import (
    IntPolynomial,
    first_primes,
    kronecker_symbol,
    poly_discriminant,
    real_root_count,
)
from quintrank.rankgrowth import CurveData, admissible, certify_pair
from quintrank.reps import (
    cover_rep,
    criterion_catalog,
    dual_twist_reducibility,
    tensor_induction,
    verify_standard_rep,
)

FLAGSHIP = IntPolynomial.descending([1, 0, 0, 0, -1, -1])


def _report(num: int, ok: bool, detail: str):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_cohomology_dimensions():
    t0 = time.perf_counter()
    S4 = symmetric_group(4)
    A4 = alternating_group(4)
    A5 = alternating_group(5)
    got = {
        "h2(S4)": h2_dimension(S4),
        "h2(A4)": h2_dimension(A4),
        "h1(A5)": h1_dimension(A5),
        "h1(A4)": h1_dimension(A4),
    }
    want = {"h2(S4)": 2, "h2(A4)": 1, "h1(A5)": 0, "h1(A4)": 0}
    elapsed = time.perf_counter() - t0
    ok = got == want and elapsed < 60
    _report(1, ok, f"{got}, {elapsed:.1f}s (limit 60s)")


def test_criterion_02_double_cover_class():
    t0 = time.perf_counter()
    S5 = symmetric_group(5)
    c = pin_cocycle_sn(5)
    identity_ok = verify_cocycle(c)
    w_full = coboundary_witness(c)
    evens = [l for l, p in enumerate(S5.elems) if p.is_even()]
    restricted, _ = restrict_cocycle(c, evens)
    w_sub = coboundary_witness(restricted)
    ext = central_extension(S5, c)
    E = ext.group
    orders = E.element_orders()
    lifts = [l for l in range(E.order)
             if S5.elems[int(ext.projection[l])].is_transposition()]
    lifts_ok = len(lifts) == 20 and all(orders[l] == 2 for l in lifts)
    elapsed = time.perf_counter() - t0
    ok = (identity_ok and w_full is None and w_sub is None
          and E.order == 240 and lifts_ok and elapsed < 30)
    _report(2, ok, f"identity={identity_ok}, class nontrivial="
                   f"{w_full is None}, restriction nontrivial={w_sub is None}, "
                   f"|E|={E.order}, {len(lifts)} transposition lifts of "
                   f"order 2, {elapsed:.1f}s (limit 30s)")


def test_criterion_03_standard_representation():
    t0 = time.perf_counter()
    report = verify_standard_rep()
    elapsed = time.perf_counter() - t0
    names = [c["name"] for c in report["checks"] if not c["passed"]]
    ok = report["all_pass"] and len(report["checks"]) == 4 and elapsed < 60
    _report(3, ok, f"4 checks decided in Z[phi], failed={names or 'none'}, "
                   f"{elapsed:.1f}s (limit 60s)")


def test_criterion_04_tensor_induction_forms():
    worst_closed = worst_trace = worst_char = 0.0
    for n in (5, 4):
        data = double_cover(n)
        G = data.extension.group
        rho = cover_rep(n)
        cs = data.coset_system
        theta = data.transposition_lifts[0]
        cs1 = CosetSystem.build(G, cs.subgroup, reps=(0, theta))
        induced = tensor_induction(cs1, rho)
        closed = _closed_form_index2(cs1, theta, rho)
        worst_closed = max(worst_closed,
                           float(np.abs(induced.images - closed).max()))

        chi = rho.character().values
        pos = {lab: i for i, lab in enumerate(cs.subgroup)}
        base = tensor_induction(cs, rho)
        for g in range(G.order):
            if cs.coset_of[g] != 0:
                expect = chi[pos[G.mul(g, g)]]
                worst_trace = max(worst_trace,
                                  abs(np.trace(base.images[g]) - expect))

        theta2 = data.transposition_lifts[1]
        cs2 = CosetSystem.build(G, cs.subgroup, reps=(0, theta2))
        chars = (base.character().values,
                 tensor_induction(cs2, rho).character().values)
        worst_char = max(worst_char, float(np.abs(chars[0] - chars[1]).max()))
    ok = worst_closed <= 1e-8 and worst_trace <= 1e-8 and worst_char <= 1e-8
    _report(4, ok, f"closed-form dev {worst_closed:.1e}, square-trace dev "
                   f"{worst_trace:.1e}, rep-choice char dev {worst_char:.1e} "
                   f"(tolerance 1e-8)")


def test_criterion_05_reducibility_catalog():
    catalog = criterion_catalog()
    mismatches = []
    bad_linear = []
    n_reducible = 0
    for inst in catalog:
        out = dual_twist_reducibility(inst["cs"], inst["theta"], inst["rho"])
        if out["criterion_holds"] != (out["selfnorm"] >= 2):
            mismatches.append(inst["name"])
        if out["selfnorm"] >= 2:
            n_reducible += 1
            if sum(out["linear_multiplicities"]) != 1:
                bad_linear.append(inst["name"])
    ok = (not mismatches and not bad_linear
          and n_reducible >= 1 and n_reducible < len(catalog))
    _report(5, ok, f"{len(catalog)} instances, criterion==reducibility on "
                   f"all, {n_reducible} reducible each with one linear "
                   f"constituent, mismatches={mismatches or 'none'}")


def test_criterion_06_exact_arithmetic_oracles():
    n_symbols = 0
    for p in first_primes(120):
        if p == 2 or p > 500:
            continue
        for a in range(-500, 501):
            assert kronecker_symbol(a, p) == legendre_by_enumeration(a, p)
            n_symbols += 1

    quintics = _random_quintics(1000)
    for f in quintics:
        assert poly_discriminant(f) == sylvester_discriminant(f.coeffs)

    skipped = 0
    for f in quintics:
        if poly_discriminant(f) == 0:
            skipped += 1
            continue
        assert real_root_count(f) == count_real_roots_bisection(f.coeffs)

    flagship_disc = poly_discriminant(FLAGSHIP)
    ok = flagship_disc == 2869 and skipped < 20
    _report(6, ok, f"{n_symbols} kronecker symbols vs enumeration, 1000 "
                   f"discriminants vs sylvester, {1000 - skipped} root "
                   f"counts vs bisection, disc(x^5-x-1)={flagship_disc}")


def test_criterion_07_flagship_pair():
    curve = CurveData.parse("37a 37 37^1")
    field = QuinticField(FLAGSHIP)
    hyp = {
        "odd conductor": curve.conductor % 2 == 1,
        "one real embedding": field.signature == (1, 2),
        "no ramified conductor prime": all(field.disc % p != 0
                                           for p, _ in curve.factorization),
        # vacuous here: 37a has no additive prime
        "additive primes split": all(e == 1 for _, e in curve.factorization),
    }
    adm = admissible(curve, field)
    cert = certify_pair(curve, field)

    residues = {pow(x, 2, 37) for x in range(1, 37)}
    chi_enum = 1 if 2869 % 37 in residues else -1
    chi_kron = kronecker_symbol(2869, 37)

    ok = (all(hyp.values()) and adm.ok and adm.reasons == ()
          and cert.chi == chi_kron == chi_enum == -1
          and cert.parity == "Odd" and cert.growth == "Certified")
    logged = ", ".join(f"{k}={v}" for k, v in hyp.items())
    _report(7, ok, f"{logged}; chi={cert.chi} (kronecker {chi_kron}, "
                   f"enumeration {chi_enum}), parity={cert.parity}, "
                   f"growth={cert.growth}")


def test_criterion_08_transfer_triviality():
    worst_det = 0.0
    rechoice_ok = True
    target_factors = {}
    for n in (5, 4):
        data = double_cover(n)
        G = data.extension.group
        cs = data.coset_system
        tm = transfer(cs)
        target_factors[G.name] = tm.target_ab.factors
        pos = {lab: i for i, lab in enumerate(cs.subgroup)}
        for g in range(G.order):
            _, qs = coset_factorization(cs, g)
            det = 1.0 + 0.0j
            for q in qs:
                det *= np.linalg.det(cover_rep(n).images[pos[q]])
            worst_det = max(worst_det, abs(det - 1.0))
        cs2 = CosetSystem.build(G, cs.subgroup,
                                reps=(0, data.transposition_lifts[1]))
        rechoice_ok = rechoice_ok and transfer(cs2).values == tm.values
    tm5 = transfer(double_cover(5).coset_system)
    trivial = all(v == tm5.target_ab.zero for v in tm5.values)
    ok = worst_det <= 1e-8 and rechoice_ok and trivial
    _report(8, ok, f"det-of-transfer dev {worst_det:.1e}, values trivial on "
                   f"the 240-element cover={trivial}, invariant under "
                   f"representative rechoice={rechoice_ok}, target "
                   f"abelianizations={target_factors}")


def test_criterion_09_height_six_scan():
    t0 = time.perf_counter()
    curve = CurveData.parse("37a 37 37^1")
    edges = [100_000, 400_000, 1_000_000]
    report = scan(curve, enumerate_quintics(6, edges[-1], prime_budget=40),
                  edges)
    elapsed = time.perf_counter() - t0

    buckets = report.buckets
    enough = all(b.admissible >= 200 for b in buckets)
    props = [b.odd / b.admissible for b in buckets]
    balanced = all(0.35 <= p <= 0.65 for p in props)
    monotone = all(a.total <= b.total and a.admissible <= b.admissible
                   and a.odd <= b.odd
                   for a, b in zip(buckets, buckets[1:]))
    growth_positive = all(b.odd > 0 for b in buckets if b.admissible >= 50)
    exact = [(b.total, b.admissible, b.odd) for b in buckets] == [
        (1410, 1028, 501), (5988, 4170, 2055), (12788, 8631, 4310)]
    ok = (enough and balanced and monotone and growth_positive and exact
          and elapsed < 600)
    stats = "; ".join(f"X={b.X}: {b.total}/{b.admissible}/{b.odd}"
                      for b in buckets)
    _report(9, ok, f"total/admissible/odd per bucket {stats}; proportions "
                   f"{[round(p, 3) for p in props]}; {elapsed:.0f}s "
                   f"(limit 600s)")


def test_criterion_10_byte_determinism():
    def run(args):
        proc = subprocess.run([sys.executable, "-m", "quintrank.cli"] + args,
                              capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    selftest = [run(["selftest", "--json"]) for _ in range(2)]
    scan_args = ["scan", "--curve", "37a 37 37^1", "--height", "1",
                 "--buckets", "3000,100000", "--json"]
    scans = [run(scan_args) for _ in range(2)]
    ok = (selftest[0] == selftest[1] and scans[0] == scans[1]
          and selftest[0].startswith(b"{") and scans[0].startswith(b"{"))
    _report(10, ok, f"selftest runs identical ({len(selftest[0])} bytes), "
                    f"scan runs identical ({len(scans[0])} bytes)")
