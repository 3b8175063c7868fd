"""Quintic field supply: ingestion, enumeration, dedup, scan, cache.

A QuinticField wraps a monic separable integer quintic and derives its
data lazily: discriminant, signature, quadratic resolvent, S5
certificate, and a dedupe fingerprint (squarefree discriminant kernel
plus the factorization patterns at the first 20 primes not dividing the
discriminant).  Fingerprint identity is a heuristic for field
isomorphism, not a proof, so every merge is audited against 30 further
primes and a disagreement raises instead of silently collapsing two
fields.  The certificate, the fingerprint and the audit all read one
append-only list of patterns at those primes, in increasing order, so
no pattern is computed twice; each one comes from the root count mod p
and (disc|p) by Stickelberger's theorem (R. G. Swan, Pacific J. Math.
12 (1962)).  The list is filled a block of primes at a time (up to the
fingerprint, up to the audit, then doubling), with the roots of a whole
block counted by gcds of f(x) with products of its primes; primes from
_BLOCK_BELOW up go one at a time.  A square discriminant puts the
Galois group in A5, so the enumeration does not try to certify such a
polynomial.

Enumeration iterates coefficient vectors in lexicographic order, which
makes the kept representative of each fingerprint class the
lexicographically smallest vector and the whole stream reproducible.
It visits only the smallest vector of each orbit under the mirror
f(x) -> -f(-x) and, for a unit constant term, the reciprocal
f(x) -> +-x^5 f(1/x); the others always share their minimum's field and
fingerprint, so dedup would drop them anyway.  For fixed (a4, ..., a1)
the discriminant is a quartic in a0, so a row with more than five
discriminants to find takes five exactly and the rest by forward
differences.  A QuinticField is built only once its discriminant is
within the bound.

The cache is an append-only JSONL file with a SHA-256 checksum per
record; corrupt lines are detected at load, reported, and simply
recomputed.  A record is served only to a request with the prime
budget it was derived with, and only if it was derived with
DEFAULT_TRIAL_BOUND; any other request derives the field afresh and its
record replaces the old one.  Single writer, any number of readers.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

from . import InternalCheckFailed
from .numtheory import (
    DEFAULT_PRIME_BUDGET,
    DEFAULT_TRIAL_BOUND,
    IntPolynomial,
    ResolventData,
    S5Certificate,
    certify_s5,
    factor_pattern_mod_p,
    first_primes,
    parse_int,
    poly_discriminant,
    quintic_patterns,
    real_root_count,
    resolvent,
)
from .rankgrowth import CurveData, certify_pair

MAX_ENUM_HEIGHT = 50
FINGERPRINT_PRIMES = 20
AUDIT_PRIMES = 30
# below this prime a block of patterns costs less by quintic_patterns
# than one factor_pattern_mod_p call per prime; both cost about the same
# between 3000 and 5000 on the stream's 400th to 800th primes
_BLOCK_BELOW = 4000


class NotSeparable(ValueError):
    """Zero discriminant: the polynomial has a repeated root."""


class FalseMergeError(InternalCheckFailed):
    """Two fields shared a fingerprint but disagree at audit primes."""


class ChecksumMismatch(RuntimeError):
    """A cache entry failed its checksum."""


class QuinticField:
    """Monic separable integer quintic with lazily derived field data."""

    __slots__ = ("poly", "label", "prime_budget", "_disc", "_signature",
                 "_resolvent", "_certificate", "_fingerprint", "_patterns")

    def __init__(self, poly: IntPolynomial, label: Optional[str] = None,
                 prime_budget: int = DEFAULT_PRIME_BUDGET):
        if poly.degree != 5 or poly.lc != 1:
            raise ValueError("expected a monic quintic")
        disc = poly_discriminant(poly)
        if disc == 0:
            raise NotSeparable(f"{poly} has a repeated root")
        self._start(poly, label, prime_budget, disc)

    @classmethod
    def _of_disc(cls, poly: IntPolynomial, disc: int, prime_budget: int,
                 label: Optional[str] = None) -> "QuinticField":
        """A field whose nonzero discriminant the caller has computed."""
        self = object.__new__(cls)
        self._start(poly, label, prime_budget, disc)
        return self

    def _start(self, poly, label, prime_budget, disc):
        self.poly = poly
        self.label = label if label is not None else str(poly)
        self.prime_budget = prime_budget
        self._disc = disc
        self._signature = None
        self._resolvent = None
        self._certificate = None
        self._fingerprint = None
        self._patterns = []

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients a5..a0, descending."""
        return tuple(reversed(self.poly.coeffs))

    @property
    def disc(self) -> int:
        return self._disc

    @property
    def signature(self) -> tuple[int, int]:
        if self._signature is None:
            r1 = real_root_count(self.poly)
            self._signature = (r1, (5 - r1) // 2)
        return self._signature

    @property
    def resolvent(self) -> ResolventData:
        if self._resolvent is None:
            self._resolvent = resolvent(self.poly, disc=self._disc)
        return self._resolvent

    @property
    def certificate(self) -> S5Certificate:
        if self._certificate is None:
            self._certificate = certify_s5(self.poly, self.prime_budget,
                                           disc=self._disc,
                                           patterns=self._pattern)
        return self._certificate

    @property
    def s5_status(self) -> str:
        return self.certificate.status

    def _pattern(self, k: int, p: int) -> tuple:
        """Pattern at p, the k-th prime (from 0) not dividing the
        discriminant.  Readers walk the primes in order, so a miss is
        always the next entry of the stream."""
        if k == len(self._patterns):
            self._fill(k + 1)
        return self._patterns[k]

    def _fill(self, count: int):
        """Extend the stream to at least `count` patterns, a block at a
        time: up to the fingerprint, up to the audit, then doubling.  A
        block's primes below _BLOCK_BELOW share one quintic_patterns
        pass; larger ones go one at a time."""
        patterns, disc = self._patterns, self._disc
        audited = FINGERPRINT_PRIMES + AUDIT_PRIMES
        while len(patterns) < count:
            have = len(patterns)
            end = (FINGERPRINT_PRIMES if have < FINGERPRINT_PRIMES
                   else audited if have < audited else 2 * have)
            # a nonzero disc has fewer prime factors than bits
            good = [p for p in first_primes(end + abs(disc).bit_length())
                    if disc % p][have:end]
            small = [p for p in good if p < _BLOCK_BELOW]
            patterns += [fp.pattern for fp in
                         quintic_patterns(self.poly, small, disc)]
            patterns += [factor_pattern_mod_p(self.poly, p, disc).pattern
                         for p in good[len(small):]]

    def _stream(self, count: int) -> list:
        """Patterns at the first `count` primes not dividing the
        discriminant."""
        self._fill(count)
        return self._patterns[:count]

    @property
    def fingerprint(self) -> tuple:
        if self._fingerprint is None:
            self._fingerprint = (self.resolvent.squarefree_kernel,
                                 tuple(self._stream(FINGERPRINT_PRIMES)))
        return self._fingerprint

    @property
    def extended_fingerprint(self) -> tuple:
        return tuple(self._stream(FINGERPRINT_PRIMES
                                  + AUDIT_PRIMES)[FINGERPRINT_PRIMES:])

    def __repr__(self):
        return f"QuinticField({self.label!r})"

    def to_record(self) -> dict:
        """Complete derived data, JSON-ready; forces all computations."""
        sig = self.signature
        rd = self.resolvent
        cert = self.certificate
        fp = self.fingerprint
        return {
            "coeffs": list(self.coeffs),
            "label": self.label,
            "disc": self._disc,
            "signature": list(sig),
            "resolvent": [rd.disc, rd.squarefree_kernel, rd.fundamental_disc,
                          rd.complete, rd.degenerate],
            "s5": [cert.status, cert.five_cycle_witness,
                   cert.transposition_witness, cert.primes_scanned],
            "fingerprint": [fp[0], [list(p) for p in fp[1]]],
            "prime_budget": self.prime_budget,
            "trial_bound": DEFAULT_TRIAL_BOUND,
        }

    @staticmethod
    def from_record(rec: dict) -> "QuinticField":
        """Rebuild without recomputing anything; the fingerprint patterns
        seed the pattern stream, so an audit computes only its own."""
        self = QuinticField._of_disc(IntPolynomial.descending(rec["coeffs"]),
                                     rec["disc"], rec["prime_budget"],
                                     rec["label"])
        self._signature = tuple(rec["signature"])
        self._resolvent = ResolventData(*rec["resolvent"])
        self._certificate = S5Certificate(*rec["s5"])
        self._fingerprint = (rec["fingerprint"][0],
                             tuple(tuple(p) for p in rec["fingerprint"][1]))
        self._patterns = list(self._fingerprint[1])
        return self


# -- cache ---------------------------------------------------------------------


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class FieldCache:
    """Append-only JSONL store of derived field records.

    Every line is a record plus its SHA-256 checksum.  Lines that fail
    to parse or to verify are skipped and listed in corrupt_lines;
    callers recompute and re-put, and the newest record for a key wins
    on reload.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._by_coeffs: dict[tuple, dict] = {}
        self.corrupt_lines: list[int] = []
        if self.path.exists():
            with open(self.path, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    if not line.strip():
                        continue
                    try:
                        rec = self._verify_line(line, lineno)
                    except ChecksumMismatch:
                        self.corrupt_lines.append(lineno)
                        continue
                    self._by_coeffs[tuple(rec["coeffs"])] = rec

    @staticmethod
    def _verify_line(line: str, lineno: int) -> dict:
        try:
            obj = json.loads(line)
            claimed = obj.pop("checksum")
        except (json.JSONDecodeError, KeyError, AttributeError, TypeError):
            raise ChecksumMismatch(f"cache line {lineno} is unreadable")
        digest = hashlib.sha256(
            _canonical_json(obj).encode("utf-8")).hexdigest()
        if digest != claimed:
            raise ChecksumMismatch(f"cache line {lineno} fails its checksum")
        return obj

    def put(self, field: QuinticField):
        rec = field.to_record()
        line = dict(rec)
        line["checksum"] = hashlib.sha256(
            _canonical_json(rec).encode("utf-8")).hexdigest()
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(_canonical_json(line) + "\n")
        self._by_coeffs[tuple(rec["coeffs"])] = rec

    def get(self, coeffs, prime_budget: int = DEFAULT_PRIME_BUDGET
            ) -> Optional[QuinticField]:
        """The record for coeffs, if it was derived with this prime budget
        and DEFAULT_TRIAL_BOUND; a record made under other parameters is
        a miss, so it is never served."""
        rec = self._by_coeffs.get(tuple(coeffs))
        if rec is None or rec["prime_budget"] != prime_budget \
                or rec["trial_bound"] != DEFAULT_TRIAL_BOUND:
            return None
        return QuinticField.from_record(rec)

    def __len__(self):
        return len(self._by_coeffs)


def field_from_coeffs(coeffs, label: Optional[str] = None,
                      cache: Optional[FieldCache] = None,
                      prime_budget: int = DEFAULT_PRIME_BUDGET) -> QuinticField:
    """Construct a field, serving it from the cache when a record with
    the same parameters exists; a miss derives everything and stores
    the record, which then replaces any older one."""
    coeffs = tuple(int(c) for c in coeffs)
    if cache is not None:
        hit = cache.get(coeffs, prime_budget)
        if hit is not None:
            return hit
    field = QuinticField(IntPolynomial.descending(coeffs), label, prime_budget)
    if cache is not None:
        cache.put(field)
    return field


# -- ingestion -------------------------------------------------------------------


_CSV_HEADER = "label,a5,a4,a3,a2,a1,a0"


def _default_on_error(lineno: int, message: str):
    print(f"row {lineno} skipped: {message}", file=sys.stderr)


def ingest_fields(path, fmt: str = "csv",
                  cache: Optional[FieldCache] = None,
                  on_error: Optional[Callable[[int, str], None]] = None,
                  prime_budget: int = DEFAULT_PRIME_BUDGET
                  ) -> Iterator[QuinticField]:
    """Stream fields from a table; malformed rows are reported with
    their line number and skipped, never fatal."""
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {fmt!r}")
    report = on_error if on_error is not None else _default_on_error
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if fmt == "csv" and line == _CSV_HEADER:
                continue
            try:
                if fmt == "csv":
                    parts = line.split(",")
                    if len(parts) != 7:
                        raise ValueError("expected label plus 6 coefficients")
                    label = parts[0].strip() or None
                    coeffs = [parse_int(x) for x in parts[1:]]
                else:
                    obj = json.loads(line)
                    if not isinstance(obj, dict):
                        raise ValueError("expected a JSON object")
                    label, coeffs = obj.get("label"), obj.get("coeffs")
                    if label is not None and not isinstance(label, str):
                        raise ValueError("label must be a string")
                    # bool is a subclass of int, and true is no coefficient
                    if (not isinstance(coeffs, list)
                            or any(type(c) is not int for c in coeffs)):
                        raise ValueError("coeffs must be a list of integers")
                    if len(coeffs) != 6:
                        raise ValueError("expected 6 coefficients a5..a0")
                if coeffs[0] != 1:
                    raise ValueError("NotMonic: leading coefficient must be 1")
                field = field_from_coeffs(coeffs, label, cache, prime_budget)
            except NotSeparable:
                report(lineno, "NotSeparable: zero discriminant")
                continue
            except ValueError as exc:
                report(lineno, str(exc))
                continue
            yield field


# -- enumeration and dedup ----------------------------------------------------------


def _shift_desc(coeffs: tuple[int, ...], c: int) -> tuple[int, ...]:
    """Coefficients of f(x + c), descending input and output."""
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


def _moves(coeffs: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Images of the monic quintic (1, a4, a3, a2, a1, a0) under the
    mirror M, f(x) -> -f(-x), and, when a0 = s = +-1, under the
    reciprocal R, f(x) -> s x^5 f(1/x), and M R.  M and R commute and
    are involutions, so with coeffs they make up its whole orbit.  They
    send a root to -x or 1/x, so they never change the field."""
    _, a4, a3, a2, a1, a0 = coeffs
    images = [(1, -a4, a3, -a2, a1, -a0)]
    if a0 == 1 or a0 == -1:
        r = (1, a0 * a1, a0 * a2, a0 * a3, a0 * a4, a0)
        images += [r, (1, -r[1], r[2], -r[3], r[4], -r[5])]
    return images


def _provably_same_field(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True when the monic quintics a and b are related by one of
    _moves, a translation x -> x - c, or both.  False only means "not
    proven here"."""
    for v in [b] + _moves(b):
        delta = v[1] - a[1]
        if delta % 5 == 0 and _shift_desc(a, delta // 5) == v:
            return True
    return False


def dedupe_stream(fields: Iterable[QuinticField]) -> Iterator[QuinticField]:
    """Keep the first field of each fingerprint class.  Every merge is
    audited: it must either be provably a same-field transform or agree
    at 30 extra primes; a disagreement means the fingerprint collided
    for two genuinely different fields and raises FalseMergeError."""
    seen: dict[tuple, QuinticField] = {}
    for field in fields:
        fp = field.fingerprint
        rep = seen.get(fp)
        if rep is not None:
            if not _provably_same_field(rep.coeffs, field.coeffs) \
                    and rep.extended_fingerprint != field.extended_fingerprint:
                raise FalseMergeError(
                    f"{rep.label} and {field.label} share a fingerprint but "
                    f"split differently at audit primes")
            continue
        seen[fp] = field
        yield field


def _has_integer_root(coeffs_desc: tuple[int, ...]) -> bool:
    # a rational root of a monic integer polynomial is an integer
    # dividing the constant term
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


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _orbit_minimal(tail: tuple[int, ...]) -> bool:
    """True when no image of t = (a4, a3, a2, a1, a0) under _moves is
    lexicographically smaller."""
    coeffs = (1,) + tail
    return not any(u < coeffs for u in _moves(coeffs))


def _orbit_minimal_rows(h: int) -> Iterator[tuple[tuple, list[int]]]:
    """The box |a_i| <= h row by row in lexicographic order: each head
    (a4, a3, a2, a1) with the ascending a0 that make an orbit-minimal
    tail.  A head with a4 > 0 has none, as M t starts with -a4 < a4."""
    span = range(-h, h + 1)
    for head in product(range(-h, 1), span, span, span):
        a0s = [a0 for a0 in span if _orbit_minimal(head + (a0,))]
        if a0s:
            yield head, a0s


def _disc_at(head: tuple[int, ...], a0: int) -> int:
    return poly_discriminant(IntPolynomial.descending((1,) + head + (a0,)))


def _discs_along_a0(head: tuple[int, ...], start: int, count: int
                    ) -> list[int]:
    """disc(x^5 + a4 x^4 + a3 x^3 + a2 x^2 + a1 x + a0) for a0 = start,
    ..., start + count - 1.  For a fixed head it is an integer quartic
    in a0, so five exact values fix its forward-difference table and
    additions give the rest exactly."""
    diffs = [_disc_at(head, start + i) for i in range(5)]
    for k in range(1, 5):
        for i in range(4, k - 1, -1):
            diffs[i] -= diffs[i - 1]
    out = []
    for _ in range(count):
        out.append(diffs[0])
        for k in range(4):
            diffs[k] += diffs[k + 1]
    return out


def _row_discriminants(head: tuple[int, ...], a0s: list[int]) -> list[int]:
    """Discriminants at the ascending a0s of one row: exact when there
    are at most five, else from five exact seeds by differences, so a
    row never costs more poly_discriminant calls than it has entries."""
    if len(a0s) <= 5:
        return [_disc_at(head, a0) for a0 in a0s]
    row = _discs_along_a0(head, a0s[0], a0s[-1] - a0s[0] + 1)
    return [row[a0 - a0s[0]] for a0 in a0s]


def enumerate_quintics(coeff_height: int, disc_bound: int,
                       prime_budget: int = DEFAULT_PRIME_BUDGET,
                       cache: Optional[FieldCache] = None
                       ) -> Iterator[QuinticField]:
    """All certified S5 fields from monic quintics with |a_i| <=
    coeff_height and |disc| <= disc_bound, deduplicated by fingerprint.
    Lexicographic coefficient order makes the output deterministic and
    the kept representatives lexicographically smallest.

    Only orbit-minimal vectors are visited (see _orbit_minimal).  The
    mirror and the reciprocal keep the box, integer roots, disc, the
    pattern at every prime not dividing disc, the fingerprint, the
    certificate and the field.  So the orbit minimum comes first and
    passes the same filters, and its fingerprint is in dedup's table
    before any other member arrives.  Dedup drops every later member,
    and its audit passes on one whenever it passed on the minimum, as
    the two agree at every prime not dividing their common disc.  A
    skipped vector is thus exactly one that dedup dropped.

    The box is walked lazily, a row of a0 at a time (see
    _row_discriminants), and a QuinticField is built only once its
    discriminant passes the bound."""
    if not 0 <= coeff_height <= MAX_ENUM_HEIGHT:
        raise ValueError(f"coefficient height must be in [0, {MAX_ENUM_HEIGHT}]")

    def raw() -> Iterator[QuinticField]:
        for head, a0s in _orbit_minimal_rows(coeff_height):
            row = []    # (coeffs, cache hit or None) for root-free entries
            for a0 in a0s:
                coeffs = (1,) + head + (a0,)
                if _has_integer_root(coeffs):
                    continue  # reducible, can never certify
                row.append((coeffs, None if cache is None else
                            cache.get(coeffs, prime_budget)))
            discs = iter(_row_discriminants(
                head, [coeffs[-1] for coeffs, hit in row if hit is None]))
            for coeffs, hit in row:
                if hit is not None:
                    if abs(hit.disc) <= disc_bound \
                            and hit.s5_status == "Certified":
                        yield hit
                    continue
                disc = next(discs)
                # zero: a repeated root; a square disc puts the group in A5
                if disc == 0 or abs(disc) > disc_bound or _is_square(disc):
                    continue
                field = QuinticField._of_disc(IntPolynomial.descending(coeffs),
                                              disc, prime_budget)
                if field.s5_status != "Certified":
                    continue
                if cache is not None:
                    cache.put(field)
                yield field

    yield from dedupe_stream(raw())


# -- scan -----------------------------------------------------------------------


@dataclass(frozen=True)
class BucketStat:
    X: int
    total: int
    admissible: int
    odd: int

    def __post_init__(self):
        if not 0 <= self.odd <= self.admissible <= self.total:
            raise ValueError("bucket counts must satisfy "
                             "0 <= odd <= admissible <= total")

    @property
    def odd_proportion(self) -> Optional[float]:
        return self.odd / self.admissible if self.admissible else None


@dataclass(frozen=True)
class ScanReport:
    curve: str
    buckets: tuple[BucketStat, ...]

    def __post_init__(self):
        for a, b in zip(self.buckets, self.buckets[1:]):
            if not a.X < b.X:
                raise ValueError("bucket bounds must be strictly ascending")
            if not (a.total <= b.total and a.admissible <= b.admissible
                    and a.odd <= b.odd):
                raise ValueError("bucket counts must be cumulative")

    def to_json_dict(self) -> dict:
        return {"curve": self.curve,
                "buckets": [{"X": b.X, "total": b.total,
                             "admissible": b.admissible, "odd": b.odd}
                            for b in self.buckets]}


def scan(curve: CurveData, fields: Iterable[QuinticField],
         bucket_edges: Iterable[int]) -> ScanReport:
    """Cumulative counts per discriminant bound X: fields seen,
    admissible pairs, and odd-parity pairs (the certified lower bound
    for the number of fields with rank growth)."""
    edges = [int(x) for x in bucket_edges]
    if not edges or any(a >= b for a, b in zip(edges, edges[1:])):
        raise ValueError("bucket edges must be strictly ascending, nonempty")
    stats = [[0, 0, 0] for _ in edges]
    for field in fields:
        ad = abs(field.disc)
        if ad > edges[-1]:
            continue
        cert = certify_pair(curve, field)
        for i, x in enumerate(edges):
            if ad <= x:
                stats[i][0] += 1
                if cert.admissible:
                    stats[i][1] += 1
                    if cert.growth == "Certified":
                        stats[i][2] += 1
    return ScanReport(curve.label, tuple(
        BucketStat(x, *row) for x, row in zip(edges, stats)))
