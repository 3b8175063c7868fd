"""Quintic field supply: ingestion, enumeration, dedup, scan, cache.

A QuinticField wraps a monic separable integer quintic and derives its
data lazily: discriminant, signature (from the sign of the discriminant
and, when it is positive, Hermite's form), quadratic resolvent, S5
certificate, and a dedupe fingerprint (squarefree discriminant kernel
plus the factorization patterns at the first 20 primes not dividing the
discriminant, as one string of codes, "23 5 5 113 ...", each the digits
of a pattern's factor degrees).  Fingerprint identity is a heuristic
for field isomorphism, not a proof, so a merge that _provably_same_field
cannot prove (a translation between a mirror or reciprocal image of each
side) is audited against 30 further primes, and a disagreement raises
instead of silently collapsing two fields.
The certificate, the fingerprint and the audit all read one
append-only list of patterns at those primes, in increasing order, so
no pattern is computed twice; each one comes from the root count mod p
and (disc|p) by Stickelberger's theorem (R. G. Swan, Pacific J. Math.
12 (1962)).  The certificate reads the list in place, and that of a
quintic with an integer root only up to its first transposition prime.
The list is filled a block of primes at a time (up to the fingerprint,
up to the audit, then doubling), never past the most patterns its reader
says it will read unless asked, with the roots of a whole block counted by
gcds of f(x) with products of its primes; primes from _BLOCK_BELOW up go
one at a time.  A square discriminant puts the Galois group in A5, so
the enumeration does not try to certify such a polynomial.

Enumeration iterates coefficient vectors in lexicographic order, which
makes the kept representative of each fingerprint class the
lexicographically smallest vector and the whole stream reproducible.
It visits only the smallest vector of each orbit under the mirror
f(x) -> -f(-x) and, for a unit constant term, the reciprocal
f(x) -> +-x^5 f(1/x); the others always share their minimum's field and
fingerprint, so dedup would drop them anyway.  It filters a row, the a0
of one head (a4, a3, a2, a1), at a time: the mirror's rule is read off
the head's signs, only a0 = +-1 can have a smaller reciprocal, and the
a0 that give an integer root are the values -g(r), |r| <= max|a0|, of
g = f - a0.  The discriminant is a quartic in a0, so each row computes
its five coefficients once and each entry's discriminant by one Horner
step.  A field is taken only once its discriminant is within the bound,
through field_from_coeffs, as a table row's is.

The cache is a JSONL file of checksummed records, laid out as FieldCache
says, and field_from_coeffs is its only reader and writer: it records
every field it derives, a rejected enumeration candidate as much as a
certified one.  A record carries "version" and its fingerprint's code
string, which a rebuilt field decodes into its pattern stream only when
an audit grows the stream.  Corrupt lines and stale ones (records of
another version) are listed at load, reported by `scan --cache` on
stderr, never served, and recomputed.  A record is served only to a request with the
prime budget it was derived with, and only if it was derived with
DEFAULT_TRIAL_BOUND; any other request derives the field afresh and its
record replaces the old one.  Single writer: a FieldCache that has put
a record holds its append handle until it is closed, and a load that
rewrites the file counts as a writer too.  Only the checksums need
hashlib, which maps OpenSSL's libcrypto, so the module imports it when
the process constructs its first FieldCache: a scan, certificate or
analysis without a cache never loads it.
"""

from __future__ import annotations

import json
import math
import os
import sys
from bisect import bisect_left
from collections import namedtuple
from contextlib import suppress
from functools import cached_property
from itertools import accumulate, product
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

from . import InternalCheckFailed, canonical_json
from .numtheory import (
    DEFAULT_PRIME_BUDGET,
    DEFAULT_TRIAL_BOUND,
    IntPolynomial,
    ResolventData,
    S5Certificate,
    certify_s5,
    disc_coeffs_in_a0,
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
# each factor pattern of a squarefree quintic, as the digits of its degrees
_CODE = {pattern: "".join(map(str, pattern)) for pattern in (
    (5,), (2, 3), (1, 4), (1, 2, 2), (1, 1, 3), (1, 1, 1, 2), (1, 1, 1, 1, 1))}
_PATTERN_OF = {code: pattern for pattern, code in _CODE.items()}


class NotSeparable(ValueError):
    """Zero discriminant: the polynomial has a repeated root."""


class FalseMergeError(InternalCheckFailed):
    """Two fields shared a fingerprint but disagree at audit primes."""


class QuinticField:
    """Monic separable integer quintic with lazily derived field data;
    disc, when given, is the caller's own discriminant of poly."""

    def __init__(self, poly: IntPolynomial, label: Optional[str] = None,
                 prime_budget: int = DEFAULT_PRIME_BUDGET,
                 disc: Optional[int] = None):
        if len(poly.coeffs) != 6 or poly.coeffs[5] != 1:
            raise ValueError("expected a monic quintic")
        if disc is None:
            disc = poly_discriminant(poly)
        if disc == 0:
            raise NotSeparable(f"{poly} has a repeated root")
        self.poly = poly
        if label is not None:
            self.label = label
        self.prime_budget = prime_budget
        self.disc = disc
        self._patterns = []     # None on a rebuilt field until it grows

    @cached_property
    def label(self) -> str:
        """The caller's label, or else str(poly), built when first read,
        so the candidates that an enumeration drops never build one."""
        return str(self.poly)

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients a5..a0, descending."""
        return tuple(reversed(self.poly.coeffs))

    @cached_property
    def signature(self) -> tuple[int, int]:
        """(r1, r2) with r1 + 2 r2 = 5.  sign(disc) = (-1)^r2, so a
        negative disc is (3, 1); Hermite's form decides (5, 0) from
        (1, 2)."""
        r1 = 3 if self.disc < 0 else real_root_count(self.poly, self.disc)
        return (r1, (5 - r1) // 2)

    @cached_property
    def resolvent(self) -> ResolventData:
        return resolvent(self.disc)

    @cached_property
    def certificate(self) -> S5Certificate:
        good = [p for p in first_primes(self.prime_budget) if self.disc % p]
        return certify_s5(self.poly, good,
                          lambda count: self._stream(count, len(good)))

    @property
    def s5_status(self) -> str:
        return self.certificate.status

    def _stream(self, count: int, most: int = 0) -> list:
        """The pattern stream, extended to at least `count` entries: the
        patterns at the primes not dividing the discriminant, in order.
        It grows a block at a time and is returned without copying.  The
        first block is the fingerprint's 20 patterns, whatever the
        reader; later blocks end at the audit's 50, then double, but
        never past the reader's `most` (the certificate's good budget
        primes), unless `count` asks for more.  A block's primes below
        _BLOCK_BELOW share one quintic_patterns pass; larger ones go one
        at a time.  A field rebuilt from a record starts from its
        fingerprint's codes."""
        if self._patterns is None:
            self._patterns = [_PATTERN_OF[code]
                              for code in self.fingerprint[1].split()]
        patterns, disc = self._patterns, self.disc
        audited = FINGERPRINT_PRIMES + AUDIT_PRIMES
        while len(patterns) < count:
            have = len(patterns)
            end = (FINGERPRINT_PRIMES if have < FINGERPRINT_PRIMES
                   else max(count, min(audited if have < audited
                                       else 2 * have, most)))
            # a nonzero disc has fewer prime factors than bits
            good = [p for p in first_primes(end + abs(disc).bit_length())
                    if disc % p][have:end]
            small = [p for p in good if p < _BLOCK_BELOW]
            patterns += [fp.pattern for fp in
                         quintic_patterns(self.poly, small, disc)]
            patterns += [factor_pattern_mod_p(self.poly, p, disc).pattern
                         for p in good[len(small):]]
        return patterns

    @cached_property
    def fingerprint(self) -> tuple[int, str]:
        """(squarefree kernel, the first 20 stream patterns' codes)."""
        first = self._stream(FINGERPRINT_PRIMES)[:FINGERPRINT_PRIMES]
        return (self.resolvent.squarefree_kernel,
                " ".join(map(_CODE.__getitem__, first)))

    @property
    def extended_fingerprint(self) -> tuple:
        audited = FINGERPRINT_PRIMES + AUDIT_PRIMES
        return tuple(self._stream(audited)[FINGERPRINT_PRIMES:audited])

    def __repr__(self):
        return f"QuinticField({self.label!r})"

    def to_record(self) -> dict:
        """Complete derived data, JSON-ready; forces all computations.
        The resolvent and the certificate are stored as the lists of
        their fields, in order, which from_record passes back."""
        return {
            "coeffs": list(self.coeffs),
            "label": self.label,
            "disc": self.disc,
            "signature": list(self.signature),
            "resolvent": list(self.resolvent),
            "s5": list(self.certificate),
            "fingerprint": list(self.fingerprint),
            "prime_budget": self.prime_budget,
            "trial_bound": DEFAULT_TRIAL_BOUND,
            "version": CACHE_VERSION,
        }

    @staticmethod
    def from_record(rec: dict, label: Optional[str] = None
                    ) -> "QuinticField":
        """Rebuild without recomputing anything, labelled `label` when
        given and else str(poly), never with the record's label; the
        stream is decoded from the fingerprint's codes only when it must
        grow, so an audit computes only its own patterns."""
        self = QuinticField(IntPolynomial.descending(rec["coeffs"]), label,
                            rec["prime_budget"], rec["disc"])
        self.signature = tuple(rec["signature"])
        self.resolvent = ResolventData._make(rec["resolvent"])
        self.certificate = S5Certificate._make(rec["s5"])
        self.fingerprint = tuple(rec["fingerprint"])
        self._patterns = None
        return self


# -- cache ---------------------------------------------------------------------


CACHE_VERSION = 2           # records without a "version" key were 1
_CHECKSUM_OPEN = '{"checksum":"'
_RECORD_AT = len(_CHECKSUM_OPEN) + 64 + 2    # past the digest and '",'
_UNVERSIONED_KEYS = frozenset(("coeffs", "label", "disc", "signature",
                               "resolvent", "s5", "fingerprint",
                               "prime_budget", "trial_bound"))
_RECORD_KEYS = _UNVERSIONED_KEYS | {"version"}
_STALE: dict = {}           # _record_of's answer for a stale line
_decode = json.JSONDecoder().raw_decode
_sha256 = None              # hashlib.sha256, bound by the first FieldCache


def _record_of(line: str) -> Optional[dict]:
    """The record on a cache line; _STALE for a checksummed record of
    another version, and None unless the line is '{"checksum":"<digest>",'
    plus record text of that SHA-256 with exactly the keys of a record."""
    if not line.startswith(_CHECKSUM_OPEN) \
            or line[_RECORD_AT - 2:_RECORD_AT] != '",':
        return None
    digest = line[len(_CHECKSUM_OPEN):_RECORD_AT - 2]
    text = "{" + line[_RECORD_AT:].rstrip("\n")
    if _sha256(text.encode("utf-8")).hexdigest() != digest:
        return None
    try:
        rec, end = _decode(text)
    except json.JSONDecodeError:
        return None
    # json.loads takes trailing whitespace, and nothing else, past the value
    if text[end:].strip(" \t\n\r"):
        return None
    if rec.get("version") == CACHE_VERSION:
        return rec if rec.keys() == _RECORD_KEYS else None
    return _STALE if "version" in rec or rec.keys() == _UNVERSIONED_KEYS \
        else None


def _line_of(rec: dict) -> str:
    text = canonical_json(rec)
    digest = _sha256(text.encode("utf-8")).hexdigest()
    return _CHECKSUM_OPEN + digest + '",' + text[1:] + "\n"


class FieldCache:
    """JSONL store of derived field records; put appends a line.

    The first put opens one append handle, and each put writes and
    flushes its line through it; close() (or leaving a with block)
    closes it.  The first FieldCache of a process, loaded or empty,
    imports hashlib and binds its sha256 once for every line that
    later loads check and puts write.

    Each line is canonical JSON (sorted keys, no spaces) of the record
    plus its SHA-256 checksum.  "checksum" sorts before every record
    key, "version" included, so a line is '{"checksum":"<64 hex>",' and
    the rest of the record's canonical text, whose digest is that of
    "{" + rest as stored: a load hashes and parses the characters on
    disk once, and never re-encodes a record.  A line in another layout,
    failing its checksum, or of this version without exactly the keys
    of QuinticField.to_record is corrupt (corrupt_lines); a checksummed
    record of another version, or in the unversioned layout, is stale
    (stale_lines).  Neither is served; callers recompute and re-put, and
    the newest record for a key wins on reload.  A load that finds such
    a line or a superseded record rewrites the file with one line per
    record, the newest, in the bytes put writes: into path + ".tmp",
    which then replaces the file.  If that write fails, the file is left
    as it was.
    """

    def __init__(self, path):
        global _sha256
        if _sha256 is None:
            from hashlib import sha256 as _sha256
        self.path = Path(path)
        self._by_coeffs: dict[tuple, dict] = {}
        self.corrupt_lines: list[int] = []
        self.stale_lines: list[int] = []
        self._out = None
        if not self.path.exists():
            return
        records = 0
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                rec = _record_of(line)
                if rec is None:
                    if line.strip():        # a blank line is no record
                        self.corrupt_lines.append(lineno)
                elif rec is _STALE:
                    self.stale_lines.append(lineno)
                else:
                    records += 1
                    self._by_coeffs[tuple(rec["coeffs"])] = rec
        if self.corrupt_lines or self.stale_lines \
                or records > len(self._by_coeffs):
            tmp = self.path.with_name(self.path.name + ".tmp")
            with suppress(OSError):
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.writelines(map(_line_of, self._by_coeffs.values()))
                os.replace(tmp, self.path)
            tmp.unlink(missing_ok=True)

    def put(self, field: QuinticField):
        rec = field.to_record()
        if self._out is None:
            self._out = open(self.path, "a", encoding="utf-8")
        self._out.write(_line_of(rec))
        self._out.flush()
        self._by_coeffs[tuple(rec["coeffs"])] = rec

    def close(self):
        if self._out is not None:
            self._out.close()
            self._out = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def get(self, coeffs, prime_budget: int = DEFAULT_PRIME_BUDGET,
            label: Optional[str] = None) -> Optional[QuinticField]:
        """The field of the record for coeffs, if it was derived with this
        prime budget and DEFAULT_TRIAL_BOUND, labelled as from_record
        labels it; a record made under other parameters is a miss, so it
        is never served."""
        rec = self._by_coeffs.get(tuple(coeffs))
        if rec is None or rec["prime_budget"] != prime_budget \
                or rec["trial_bound"] != DEFAULT_TRIAL_BOUND:
            return None
        return QuinticField.from_record(rec, label)

    def __len__(self):
        return len(self._by_coeffs)


def field_from_coeffs(coeffs, label: Optional[str] = None,
                      cache: Optional[FieldCache] = None,
                      prime_budget: int = DEFAULT_PRIME_BUDGET,
                      disc: Optional[int] = None) -> QuinticField:
    """Construct a field, serving it from the cache when a record with
    the same parameters exists; a miss derives everything, whatever the
    certificate decides, and stores the record, which then replaces any
    older one.  A hit takes the caller's label, or else str(poly), never
    the record's, so a field is labelled alike with or without a cache.
    disc, when given, is the caller's own discriminant, as for
    QuinticField.  This is the only path in or out of a cache: table
    rows and enumerated candidates alike."""
    if cache is not None:
        hit = cache.get(coeffs, prime_budget, label)
        if hit is not None:
            return hit
    field = QuinticField(IntPolynomial.descending(coeffs), label, prime_budget,
                         disc)
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
                    label, _, cells = line.partition(",")
                    parts = cells.split(",")
                    if len(parts) != 6:
                        raise ValueError("expected label plus 6 coefficients")
                    label = label.strip() or None
                    try:
                        # int reads an ASCII cell without "_" as parse_int
                        # does, or refuses it, and parse_int then says why
                        if not cells.isascii() or "_" in cells:
                            raise ValueError
                        coeffs = list(map(int, parts))
                    except ValueError:
                        coeffs = [parse_int(x) for x in parts]
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
    """Coefficients of f(x + c), descending input and output, by Horner's
    Taylor shift in place: pass k leaves the last k of them final."""
    a = list(coeffs)
    for end in range(len(a) - 1, 0, -1):
        for i in range(1, end + 1):
            a[i] += c * a[i - 1]
    return tuple(a)


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
    """True when a translation x -> x - c takes a or one of its _moves
    to b or one of its _moves, so shift(reciprocal(a)) is caught as
    well as reciprocal(shift(a)).  False only means "not proven here"."""
    for u in [a] + _moves(a):
        for v in [b] + _moves(b):
            delta = v[1] - u[1]
            if delta % 5 == 0 and _shift_desc(u, delta // 5) == v:
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
    tail.  The mirror M t = (-a4, a3, -a2, a1, -a0) is smaller than t
    when a4 > 0 or a4 = 0 < a2 (no row), or a4 = a2 = 0 < a0; only
    a0 = +-1 has a reciprocal, for _orbit_minimal to decide."""
    span = range(-h, h + 1)
    for head in product(range(-h, 1), span, span, span):
        a4, _, a2, _ = head
        if a4 == 0 and a2 > 0:
            continue
        yield head, [a0 for a0 in (span if a4 or a2 else range(-h, 1))
                     if a0 * a0 != 1 or _orbit_minimal(head + (a0,))]


def _root_free(head: tuple, a0s: list[int]) -> list[int]:
    """The a0 in a0s for which g + a0 has no integer root, with
    g(x) = x^5 + a4 x^4 + a3 x^3 + a2 x^2 + a1 x: r is a root exactly
    when a0 = -g(r), and r divides a0, so only |r| <= max|a0| are
    tried, 2 max|a0| + 1 evaluations of g per row."""
    a4, a3, a2, a1 = head
    reach = max(map(abs, a0s))
    rooted = {-((((r + a4) * r + a3) * r + a2) * r + a1) * r
              for r in range(-reach, reach + 1)}
    return [a0 for a0 in a0s if a0 not in rooted]


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

    The box is walked lazily, a row of a0 at a time (_orbit_minimal_rows,
    then _root_free).  The row's head gives the discriminant's
    coefficients in a0 once (disc_coeffs_in_a0), each entry takes one
    Horner step, and a field is taken from field_from_coeffs only once
    its discriminant is nonzero, within the bound and not a square.
    With a cache, every such candidate is served from or recorded in it,
    certified or not, so a second enumeration with the same cache and
    prime budget certifies no candidate."""
    if not 0 <= coeff_height <= MAX_ENUM_HEIGHT:
        raise ValueError(f"coefficient height must be in [0, {MAX_ENUM_HEIGHT}]")

    def raw() -> Iterator[QuinticField]:
        for head, a0s in _orbit_minimal_rows(coeff_height):
            c4, c3, c2, c1, c0 = disc_coeffs_in_a0(*head)
            for a0 in _root_free(head, a0s):  # a rooted f is reducible
                coeffs = (1,) + head + (a0,)
                disc = (((c4 * a0 + c3) * a0 + c2) * a0 + c1) * a0 + c0
                # zero: a repeated root; a square disc puts the group in A5
                if disc == 0 or abs(disc) > disc_bound or _is_square(disc):
                    continue
                field = field_from_coeffs(coeffs, cache=cache,
                                          prime_budget=prime_budget, disc=disc)
                if field.s5_status == "Certified":
                    yield field

    yield from dedupe_stream(raw())


# -- scan -----------------------------------------------------------------------


BucketStat = namedtuple("BucketStat", "X total admissible odd")


_ScanFields = namedtuple("_ScanFields", "curve buckets")


class ScanReport(_ScanFields):
    """Only scan builds one; the tests check its counts against the
    certificates they come from."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"curve": self.curve,
                "buckets": [b._asdict() for b in self.buckets]}


def scan(curve: CurveData, fields: Iterable[QuinticField],
         bucket_edges: Iterable[int]) -> ScanReport:
    """Cumulative counts per discriminant bound X: fields seen,
    admissible pairs, and odd-parity pairs, one per fingerprint class
    of the stream.  Two polynomials of different index can define the
    same field under two fingerprints, so the odd count is not yet a
    lower bound for the number of fields with rank growth."""
    edges = [int(x) for x in bucket_edges]
    if not edges or any(a >= b for a, b in zip(edges, edges[1:])):
        raise ValueError("bucket edges must be strictly ascending, nonempty")
    # counts in each field's first bucket, summed into the others at the end
    n = len(edges)
    total, admitted, odd = ([0] * n for _ in range(3))
    for field in fields:
        i = bisect_left(edges, abs(field.disc))
        if i == n:
            continue
        cert = certify_pair(curve, field)
        total[i] += 1
        if cert.admissible:
            admitted[i] += 1
            if cert.growth == "Certified":
                odd[i] += 1
    sums = zip(accumulate(total), accumulate(admitted), accumulate(odd))
    return ScanReport(curve.label, tuple(
        BucketStat(x, *row) for x, row in zip(edges, sums)))
