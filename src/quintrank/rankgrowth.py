"""Parity certificates for L-function rank growth over quintic fields.

Let K be the field of a quintic f and write Ind_K^Q 1 = 1 + rho, with
rho the standard representation of S5; det rho is the sign character,
the quadratic character of Q(sqrt(disc f)).  Then L(E/K, s) =
L(E, s) L(E x rho, s), and when every prime of the conductor N of E is
unramified in K, the conductor of the orthogonal rho is prime to N, so

    w(E/K) / w(E) = w(E x rho) = det rho(-N) = (disc f | -N)

(D. E. Rohrlich, Compositio Math. 100 (1996); V. Dokchitser, Proc. LMS
91 (2005)).  Place by place this is Tate's unramified-twist formula
(Corvallis 1979, (3.4.6)): infinity gives sign(disc f), and p | N gives
(disc f|p)^e for p^e || N.  certify_pair reads chi as this one symbol.
When chi = -1 the L-ratio L(E x rho, s) has odd order at the central
point, which forces extra vanishing: parity Odd yields growth
Certified.  Parity Even proves nothing (order 0 and order 2 look
alike), so those certificates carry growth Unknown, never "no growth".

admissible keeps the paper's family: a certified S5 quintic with
exactly one real embedding, an odd conductor, no prime of N ramified,
and every additive prime split in the quadratic resolvent.  On that
family disc f > 0 (signature (1, 2) has r2 even) and each additive
(disc f|p) is 1, so (disc f | -N) is the paper's product of (disc f|p)
over the primes of multiplicative reduction.

Both the split test and chi are Kronecker symbols of the polynomial
discriminant.  They are read only at primes p not dividing disc f,
where they equal the symbols of the fundamental discriminant D:
disc f = D m^2, and disc f = 0 or 1 mod 4 (Stickelberger), so an odd
disc f has D = 1 mod 4, p = 2 included.  A resolvent whose squarefree
kernel is incomplete makes the pair inadmissible with the reason
IncompleteData; it is a reason, not an error.

Reduction type is read off the conductor exponent alone (e = 1
multiplicative, e >= 2 additive); nothing here needs Tamagawa or
Kodaira data.  Fields are consumed through a small protocol: .label,
.disc, .signature, .s5_status and .resolvent.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from . import CheckedRecord
from .numtheory import is_probable_prime, kronecker_symbol, parse_int

# admissibility reason codes, in check order
REASON_NOT_S5 = "NotCertifiedS5"
REASON_EVEN = "EvenConductor"
REASON_SIGNATURE = "WrongSignature"
REASON_RAMIFIED = "RamifiedPrime"
REASON_NONSPLIT = "NonSplitPrime"
REASON_INCOMPLETE = "IncompleteData"


_CurveFields = namedtuple("_CurveFields", "label conductor factorization")


class CurveData(CheckedRecord, _CurveFields):
    """Elliptic curve identified by its label and factored conductor:
    factorization holds (prime, exponent) pairs, primes ascending."""

    __slots__ = ()

    def _check(self):
        prod = 1
        last = 1
        for p, e in self.factorization:
            if p <= last:
                raise ValueError("primes must be distinct and ascending")
            if not is_probable_prime(p):
                raise ValueError(f"{p} is not prime")
            if e < 1:
                raise ValueError("exponents must be positive")
            prod *= p ** e
            last = p
        if prod != self.conductor:
            raise ValueError(
                f"factorization gives {prod}, conductor says {self.conductor}")

    @staticmethod
    def parse(line: str) -> "CurveData":
        """One line: `label N p1^e1 p2^e2 ...`."""
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"curve line needs at least label and N: {line!r}")
        label, n_str, *factors = parts
        fact = []
        for tok in factors:
            if "^" not in tok:
                raise ValueError(f"factor {tok!r} is not of the form p^e")
            p_str, e_str = tok.split("^", 1)
            fact.append((parse_int(p_str), parse_int(e_str)))
        fact.sort()
        return CurveData(label, parse_int(n_str), tuple(fact))


class Admissibility(NamedTuple):
    ok: bool
    reasons: tuple[str, ...]


_ParityFields = namedtuple(
    "_ParityFields", "curve field admissible reasons chi parity growth")


class ParityCertificate(CheckedRecord, _ParityFields):
    """The curve's and the field's labels, whether the pair is admissible
    and the reasons it is not, then chi (None when the criterion does
    not apply), parity ("Odd", "Even" or None) and growth ("Certified"
    or "Unknown")."""

    __slots__ = ()

    def _check(self):
        if self.growth == "Certified" and not (
                self.admissible and self.parity == "Odd" and self.chi == -1):
            raise ValueError("certified growth needs an admissible pair "
                             "with odd parity and chi = -1")
        if self.admissible and (self.parity == "Odd") != (self.chi == -1):
            raise ValueError("parity must be odd exactly when chi = -1")

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "reasons": list(self.reasons)}


def admissible(curve: CurveData, field) -> Admissibility:
    """Hypothesis checks, in order: certified S5 field, odd conductor,
    one real embedding, no conductor prime ramified in the field, every
    additive prime split in the resolvent.  An incomplete resolvent
    kernel is the only reason given when it occurs."""
    if not field.resolvent.complete:
        return Admissibility(False, (REASON_INCOMPLETE,))
    reasons = []
    if field.s5_status != "Certified":
        reasons.append(REASON_NOT_S5)
    if curve.conductor % 2 == 0:
        reasons.append(REASON_EVEN)
    if field.signature[0] != 1:
        reasons.append(REASON_SIGNATURE)
    disc = field.disc
    for p, _ in curve.factorization:
        if disc % p == 0:
            reasons.append(REASON_RAMIFIED)
            break
    for p, e in curve.factorization:
        # an additive prime splits when (disc f|p) = 1; ramified ones,
        # where the symbol is 0, are already reported above
        if e >= 2 and kronecker_symbol(disc, p) == -1:
            reasons.append(REASON_NONSPLIT)
            break
    return Admissibility(not reasons, tuple(reasons))


def certify_pair(curve: CurveData, field) -> ParityCertificate:
    """The parity certificate of a pair; non-admissible pairs get a
    certificate carrying the reasons instead of an error."""
    adm = admissible(curve, field)
    if not adm.ok:
        return ParityCertificate(curve.label, field.label, False,
                                 adm.reasons, None, None, "Unknown")
    chi = kronecker_symbol(field.disc, -curve.conductor)
    odd = chi == -1
    return ParityCertificate(curve.label, field.label, True, (), chi,
                             "Odd" if odd else "Even",
                             "Certified" if odd else "Unknown")
