"""Command line interface.

Subcommands:

  selftest       run the built-in invariant battery
  h2             cohomology dimensions and double-cover class tests
  standard-rep   verify the tensor-induced 4-dimensional representation
  analyze-field  resolvent, signature and Galois data for one quintic
  certify        parity certificates for curve/field pairs
  scan           bucketed growth counts over an enumerated or ingested table

Results go to stdout (canonical JSON with --json; certify and scan
reports are JSON regardless); diagnostics go to stderr.  Exit codes:
0 success, 1 a check failed (a failed self-check, or an internal
invariant, reported as "internal check failed: ..."), 2 usage error,
3 bad input or data.  Unless the environment sets OPENBLAS_NUM_THREADS,
main sets it to 1 while a command runs, so numpy starts no BLAS worker
threads, and unsets it again on return.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from typing import TYPE_CHECKING

# Each converter and handler imports the modules it runs, so a command
# starts with only those: reps pulls in numpy, which only standard-rep
# loads, and fieldscan, numtheory and rankgrowth are the scan stack,
# which h2 and standard-rep never load.
from . import InternalCheckFailed, canonical_json

if TYPE_CHECKING:
    from . import numtheory, rankgrowth


class DataError(ValueError):
    """Bad input that argparse cannot see: files, specs, domains."""


# -- argument converters (failures here are usage errors, exit 2) ----------

def _poly_arg(text: str) -> numtheory.IntPolynomial:
    from . import numtheory
    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError(
            "expected 6 comma-separated integers a5,a4,a3,a2,a1,a0")
    try:
        coeffs = [numtheory.parse_int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-integer coefficient in {text!r}")
    return numtheory.IntPolynomial.descending(coeffs)


def _buckets_arg(text: str) -> list[int]:
    from .numtheory import parse_int
    try:
        edges = [parse_int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-integer bucket edge in {text!r}")
    if not edges or edges[0] <= 0 or any(b <= a for a, b in zip(edges, edges[1:])):
        raise argparse.ArgumentTypeError(
            "bucket edges must be positive and strictly ascending")
    return edges


def _int_arg(text: str) -> int:
    from .numtheory import parse_int
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _budget_arg(text: str) -> int:
    from .numtheory import MAX_PRIME_BUDGET
    n = _int_arg(text)
    if not 1 <= n <= MAX_PRIME_BUDGET:
        raise argparse.ArgumentTypeError(
            f"prime budget must be between 1 and {MAX_PRIME_BUDGET}")
    return n


def _height_arg(text: str) -> int:
    from .fieldscan import MAX_ENUM_HEIGHT
    n = _int_arg(text)
    if not 0 <= n <= MAX_ENUM_HEIGHT:
        raise argparse.ArgumentTypeError(
            f"height must be between 0 and {MAX_ENUM_HEIGHT}")
    return n


def _prime_budget(args) -> int:
    """--prime-budget, or numtheory's default when it was not given."""
    from .numtheory import DEFAULT_PRIME_BUDGET
    return DEFAULT_PRIME_BUDGET if args.prime_budget is None \
        else args.prime_budget


# -- shared loaders ---------------------------------------------------------

def _load_curves(token: str) -> list[rankgrowth.CurveData]:
    """Curve specs from a file, one per line; 'sample' names the bundled
    table of odd-conductor curves."""
    from . import rankgrowth
    if token == "sample":
        from importlib import resources
        text = resources.files("quintrank").joinpath("data/curves.txt").read_text()
    else:
        try:
            with open(token, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DataError(f"cannot read curve file: {exc}")
    curves = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            curves.append(rankgrowth.CurveData.parse(stripped))
        except ValueError as exc:
            raise DataError(f"curve file line {lineno}: {exc}")
    if not curves:
        raise DataError("curve file contains no curve specs")
    return curves


# -- selftest ---------------------------------------------------------------

def _selftest_checks() -> list[dict]:
    from . import cocycles, fieldscan, groups, icosians, numtheory, rankgrowth
    checks = []

    def add(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        checks.append({"name": name, "passed": bool(ok), "detail": detail})

    def kronecker_check():
        count = 0
        for p in (3, 7, 11, 37, 101):
            squares = {pow(x, 2, p) for x in range(1, p)}
            for a in range(-6, 7):
                want = 0 if a % p == 0 else (1 if a % p in squares else -1)
                if numtheory.kronecker_symbol(a, p) != want:
                    return False, f"mismatch at ({a} | {p})"
                count += 1
        return True, f"{count} symbols against residue enumeration"
    add("kronecker symbols", kronecker_check)

    def disc_check():
        flagship = numtheory.IntPolynomial.descending([1, 0, 0, 0, -1, -1])
        d = numtheory.poly_discriminant(flagship)
        if d != 2869:
            return False, f"disc(x^5 - x - 1) = {d}, want 2869"
        for a, b in ((1, 1), (2, -3), (-1, 4)):
            f = numtheory.IntPolynomial.descending([1, 0, 0, 0, a, b])
            if numtheory.poly_discriminant(f) != 256 * a**5 + 3125 * b**4:
                return False, f"trinomial closed form fails at a={a}, b={b}"
        return True, "x^5 - x - 1 and 3 trinomials match closed forms"
    add("quintic discriminants", disc_check)

    def pin4_check():
        c = cocycles.pin_cocycle_sn(4)
        if not cocycles.verify_cocycle(c):
            return False, "cocycle identity fails"
        if cocycles.coboundary_witness(c) is not None:
            return False, "class is unexpectedly trivial"
        return True, "identity holds on 24^3 triples, class nontrivial"
    add("degree-4 double cover cocycle", pin4_check)

    def cohomology_check():
        S4 = groups.symmetric_group(4)
        A4 = groups.alternating_group(4)
        A5 = groups.alternating_group(5)
        got = (cocycles.h2_dimension(S4), cocycles.h2_dimension(A4),
               cocycles.h1_dimension(A5))
        if got != (2, 1, 0):
            return False, f"(h2 S4, h2 A4, h1 A5) = {got}, want (2, 1, 0)"
        return True, "h2(S4)=2, h2(A4)=1, h1(A5)=0"
    add("cohomology dimensions", cohomology_check)

    def rep_check():
        passed = icosians.standard_rep_checks().passed
        return all(passed), f"{sum(passed)}/{len(passed)} checks"
    add("tensor-induced standard representation", rep_check)

    def certificate_check():
        curve = rankgrowth.CurveData.parse("37a 37 37^1")
        poly = numtheory.IntPolynomial.descending([1, 0, 0, 0, -1, -1])
        field = fieldscan.QuinticField(poly)
        cert = rankgrowth.certify_pair(curve, field)
        if not cert.admissible:
            return False, f"not admissible: {', '.join(cert.reasons)}"
        if (cert.chi, cert.parity, cert.growth) != (-1, "Odd", "Certified"):
            return False, f"chi={cert.chi}, parity={cert.parity}, growth={cert.growth}"
        return True, "conductor-37 curve certified over x^5 - x - 1"
    add("flagship parity certificate", certificate_check)

    return checks


def _cmd_selftest(args) -> int:
    checks = _selftest_checks()
    passed = all(c["passed"] for c in checks)
    if args.json:
        print(canonical_json({"checks": checks, "passed": passed}))
    else:
        for c in checks:
            mark = "pass" if c["passed"] else "FAIL"
            print(f"{mark}  {c['name']}: {c['detail']}")
        n = sum(c["passed"] for c in checks)
        print(f"selftest: {n}/{len(checks)} checks passed")
    return 0 if passed else 1


# -- h2 ---------------------------------------------------------------------

def _cmd_h2(args) -> int:
    from . import cocycles, groups
    S4 = groups.symmetric_group(4)
    A4 = groups.alternating_group(4)
    S5 = groups.symmetric_group(5)
    A5 = groups.alternating_group(5)
    dims = {
        "h2": {"S4": cocycles.h2_dimension(S4),
               "A4": cocycles.h2_dimension(A4)},
        "h1": {"S5": cocycles.h1_dimension(S5),
               "A5": cocycles.h1_dimension(A5)},
    }
    pin5 = cocycles.pin_cocycle_sn(5)
    identity_ok = cocycles.verify_cocycle(pin5)
    w_full = cocycles.coboundary_witness(pin5)
    evens = [l for l, p in enumerate(S5.elems) if p.is_even()]
    restricted, _ = cocycles.restrict_cocycle(pin5, evens)
    w_sub = cocycles.coboundary_witness(restricted)
    cover = {
        "cocycle_identity": bool(identity_ok),
        "class_S5": "nontrivial" if w_full is None else "split",
        "class_A5_restriction": "nontrivial" if w_sub is None else "split",
    }
    if args.json:
        print(canonical_json({**dims, "double_cover": cover}))
    else:
        print("cohomology dimensions (coefficients Z/2, trivial action)")
        for key in ("S4", "A4"):
            print(f"  h2({key}) = {dims['h2'][key]}")
        for key in ("S5", "A5"):
            print(f"  h1({key}) = {dims['h1'][key]}")
        print("double cover of S5")
        print(f"  cocycle identity: {'ok' if identity_ok else 'FAIL'}")
        print(f"  class over S5: {cover['class_S5']}")
        print(f"  class restricted to A5: {cover['class_A5_restriction']}")
    return 0 if identity_ok else 1


# -- standard-rep -----------------------------------------------------------

def _cmd_standard_rep(args) -> int:
    from . import reps
    report = reps.verify_standard_rep()
    if args.json:
        print(canonical_json(report))
    else:
        for c in report["checks"]:
            mark = "pass" if c["passed"] else "FAIL"
            line = f"{mark}  {c['name']}"
            if "matched" in c:
                line += f" ({c['matched']}/{c['total']} matches)"
            print(line)
            print(f"      expected {c['expected']}; computed {c['computed']}")
        n = sum(c["passed"] for c in report["checks"])
        print(f"standard-rep: {n}/{len(report['checks'])} checks passed")
    return 0 if report["all_pass"] else 1


# -- analyze-field ----------------------------------------------------------

def _cmd_analyze_field(args) -> int:
    from . import fieldscan
    field = fieldscan.QuinticField(args.poly, args.label, _prime_budget(args))
    rd = field.resolvent
    cert = field.certificate
    payload = {
        "label": field.label,
        "polynomial": str(field.poly),
        "coeffs": list(field.coeffs),
        "disc": field.disc,
        "signature": {"real": field.signature[0],
                      "complex_pairs": field.signature[1]},
        "fundamental_disc": rd.fundamental_disc,
        "resolvent_complete": rd.complete,
        "resolvent_degenerate": rd.degenerate,
        "galois_status": cert.status,
        "five_cycle_witness": cert.five_cycle_witness,
        "transposition_witness": cert.transposition_witness,
        "primes_scanned": cert.primes_scanned,
    }
    if args.json:
        print(canonical_json(payload))
    else:
        print(f"field {field.label}")
        print(f"  polynomial: {field.poly}")
        print(f"  discriminant: {field.disc}")
        print(f"  signature: {field.signature[0]} real, "
              f"{field.signature[1]} complex pairs")
        print(f"  fundamental discriminant: {rd.fundamental_disc}"
              + ("" if rd.complete else " (factorization incomplete)")
              + (" (degenerate)" if rd.degenerate else ""))
        wit5 = cert.five_cycle_witness
        wit2 = cert.transposition_witness
        print(f"  galois: {cert.status} "
              f"(5-cycle at {wit5}, transposition at {wit2}, "
              f"{cert.primes_scanned} primes scanned)")
    return 0


# -- certify ----------------------------------------------------------------

def _cmd_certify(args) -> int:
    from . import fieldscan, rankgrowth
    if args.curve is not None:
        curves = [rankgrowth.CurveData.parse(args.curve)]
    else:
        curves = _load_curves(args.curve_file)
    field = fieldscan.QuinticField(args.poly, args.label, _prime_budget(args))
    for curve in curves:
        cert = rankgrowth.certify_pair(curve, field)
        print(canonical_json(cert.to_json_dict()))
    return 0


# -- scan -------------------------------------------------------------------

def _report_skipped(path, kind: str, lines: list[int]):
    """One stderr line for the cache lines of one kind that a load
    skipped; their fields are derived afresh when the scan reaches them."""
    if lines:
        s = "s" if len(lines) > 1 else ""
        shown = ", ".join(map(str, lines[:5])) + (", ..." if len(lines) > 5
                                                  else "")
        print(f"cache {path}: {len(lines)} {kind} line{s} skipped "
              f"(line{s} {shown})", file=sys.stderr)


def _cmd_scan(args) -> int:
    from . import fieldscan, rankgrowth
    curve = rankgrowth.CurveData.parse(args.curve)
    budget = _prime_budget(args)
    with (fieldscan.FieldCache(args.cache) if args.cache
          else nullcontext()) as cache:
        if cache is not None:
            _report_skipped(args.cache, "corrupt", cache.corrupt_lines)
            _report_skipped(args.cache, "stale", cache.stale_lines)
        if args.height is not None:
            fields = fieldscan.enumerate_quintics(
                args.height, max(args.buckets),
                prime_budget=budget, cache=cache)
        else:
            raw = fieldscan.ingest_fields(args.fields, fmt=args.format,
                                          cache=cache, prime_budget=budget)
            fields = fieldscan.dedupe_stream(raw)
        report = fieldscan.scan(curve, fields, args.buckets)
    if args.json:
        print(canonical_json(report.to_json_dict()))
    else:
        print(f"scan: curve {curve.label}")
        for b in report.buckets:
            print(f"  X<={b.X}  total={b.total}  "
                  f"admissible={b.admissible}  odd={b.odd}")
    return 0


# -- parser -----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quintrank",
        description="rank-growth parity criterion toolkit for quintic fields")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit canonical JSON on stdout")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--prime-budget", type=_budget_arg,
                        default=None, metavar="B",
                        help="primes scanned by the Galois test")
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--poly", type=_poly_arg, required=True,
                       metavar="a5,a4,a3,a2,a1,a0",
                       help="monic quintic, descending coefficients")
    field.add_argument("--label", default=None, help="name for the field")

    p = sub.add_parser("selftest", parents=[common],
                       help="run the built-in invariant battery")
    p.set_defaults(handler=_cmd_selftest)

    p = sub.add_parser("h2", parents=[common],
                       help="cohomology dimensions and double-cover classes")
    p.set_defaults(handler=_cmd_h2)

    p = sub.add_parser("standard-rep", parents=[common],
                       help="verify the tensor-induced standard representation")
    p.set_defaults(handler=_cmd_standard_rep)

    p = sub.add_parser("analyze-field", parents=[common, field, budget],
                       help="resolvent, signature and Galois data for a quintic")
    p.set_defaults(handler=_cmd_analyze_field)

    p = sub.add_parser("certify", parents=[common, field, budget],
                       help="parity certificates (JSON, one per line)")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--curve", metavar="SPEC",
                     help="curve spec: 'label N p1^e1 p2^e2 ...'")
    src.add_argument("--curve-file", metavar="PATH",
                     help="file of curve specs, or 'sample' for the bundled table")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("scan", parents=[common, budget],
                       help="bucketed growth counts for one curve")
    p.add_argument("--curve", metavar="SPEC", required=True,
                   help="curve spec: 'label N p1^e1 p2^e2 ...'")
    p.add_argument("--buckets", type=_buckets_arg, required=True,
                   metavar="X1,X2,...",
                   help="ascending discriminant bounds")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--fields", metavar="PATH", help="field table to ingest")
    src.add_argument("--height", type=_height_arg, metavar="H",
                     help="enumerate monic quintics with |coefficients| <= H")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                   help="field table format (default csv)")
    p.add_argument("--cache", metavar="PATH", default=None,
                   help="JSONL field cache to read and extend")
    p.set_defaults(handler=_cmd_scan)

    return parser


def main(argv=None) -> int:
    # No command multiplies a float matrix larger than 4x4, so an OpenBLAS
    # worker pool would never run; set before a handler imports numpy,
    # and unset on return, so that a caller's later subprocesses do not
    # inherit it.
    unset = "OPENBLAS_NUM_THREADS" not in os.environ
    if unset:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        try:
            return args.handler(args)
        except InternalCheckFailed as exc:
            print(f"internal check failed: {exc}", file=sys.stderr)
            return 1
        except (OSError, ValueError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    finally:
        if unset:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)


if __name__ == "__main__":
    sys.exit(main())
