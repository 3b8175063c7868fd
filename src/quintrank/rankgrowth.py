"""Parity certificates for L-function rank growth over quintic fields.

For an elliptic curve of odd conductor N write N = N+ N- with N- the
product of the primes of multiplicative reduction.  Over a certified
S5-quintic field with exactly one real embedding, unramified at the
primes of N and with every prime of N+ split in the quadratic resolvent,
the order of vanishing of the L-ratio at the central point is odd
exactly when the Kronecker symbol of the resolvent discriminant over
N- equals -1.  Odd order forces extra vanishing, so parity Odd yields
growth Certified; parity Even proves nothing (order 0 and order 2 look
alike), so those certificates carry growth Unknown, never "no growth".

Reduction type is read off the conductor exponent alone (e = 1
multiplicative, e >= 2 additive); nothing here needs Tamagawa or
Kodaira data.  Fields are consumed through a small protocol: .label,
.disc, .signature, .s5_status and .resolvent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import InternalCheckFailed
from .numtheory import (
    Splitting,
    is_probable_prime,
    kronecker_symbol,
    parse_int,
    splitting_in_resolvent,
)

# admissibility reason codes, in check order
REASON_NOT_S5 = "NotCertifiedS5"
REASON_EVEN = "EvenConductor"
REASON_SIGNATURE = "WrongSignature"
REASON_RAMIFIED = "RamifiedPrime"
REASON_NONSPLIT = "NonSplitPrime"
REASON_INCOMPLETE = "IncompleteData"


class IncompleteData(RuntimeError):
    """The field's resolvent factorization did not complete."""


@dataclass(frozen=True)
class CurveData:
    """Elliptic curve identified by its label and factored conductor."""

    label: str
    conductor: int
    factorization: tuple[tuple[int, int], ...]  # (prime, exponent), ascending

    def __post_init__(self):
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

    @property
    def multiplicative_part(self) -> int:
        out = 1
        for p, e in self.factorization:
            if e == 1:
                out *= p
        return out

    @property
    def additive_part(self) -> int:
        return self.conductor // self.multiplicative_part


@dataclass(frozen=True)
class Admissibility:
    ok: bool
    reasons: tuple[str, ...]


@dataclass(frozen=True)
class ParityCertificate:
    curve: str
    field: str
    admissible: bool
    reasons: tuple[str, ...]
    chi: Optional[int]      # None when the criterion does not apply
    parity: Optional[str]   # "Odd" | "Even" | None
    growth: str             # "Certified" | "Unknown"

    def __post_init__(self):
        if self.growth == "Certified" and not (
                self.admissible and self.parity == "Odd" and self.chi == -1):
            raise ValueError("certified growth needs an admissible pair "
                             "with odd parity and chi = -1")
        if self.admissible and (self.parity == "Odd") != (self.chi == -1):
            raise ValueError("parity must be odd exactly when chi = -1")

    def to_json_dict(self) -> dict:
        return {
            "curve": self.curve,
            "field": self.field,
            "admissible": self.admissible,
            "reasons": list(self.reasons),
            "chi": self.chi,
            "parity": self.parity,
            "growth": self.growth,
        }


def admissible(curve: CurveData, field) -> Admissibility:
    """Hypothesis checks, in order: certified S5 field, odd conductor,
    one real embedding, no conductor prime ramified in the field, every
    additive prime split in the resolvent."""
    if not field.resolvent.complete:
        raise IncompleteData(
            f"resolvent of {field.label} has an unresolved cofactor")
    reasons = []
    if field.s5_status != "Certified":
        reasons.append(REASON_NOT_S5)
    if curve.conductor % 2 == 0:
        reasons.append(REASON_EVEN)
    if field.signature[0] != 1:
        reasons.append(REASON_SIGNATURE)
    if any(field.disc % p == 0 for p, _ in curve.factorization):
        reasons.append(REASON_RAMIFIED)
    for p, e in curve.factorization:
        # the splitting test only makes sense at unramified primes;
        # ramified ones are already reported above
        if e >= 2 and field.disc % p != 0 and \
                splitting_in_resolvent(p, field.resolvent) is not Splitting.SPLIT:
            reasons.append(REASON_NONSPLIT)
            break
    return Admissibility(not reasons, tuple(reasons))


def certify_pair(curve: CurveData, field) -> ParityCertificate:
    """The parity certificate of a pair; non-admissible pairs get a
    certificate carrying the reasons instead of an error."""
    try:
        adm = admissible(curve, field)
    except IncompleteData:
        return ParityCertificate(curve.label, field.label, False,
                                 (REASON_INCOMPLETE,), None, None, "Unknown")
    if not adm.ok:
        return ParityCertificate(curve.label, field.label, False,
                                 adm.reasons, None, None, "Unknown")
    fund = field.resolvent.fundamental_disc
    chi = 1
    for p, e in curve.factorization:
        if e == 1:
            chi *= kronecker_symbol(fund, p)
    # the bottom argument is completely multiplicative: the prime-by-prime
    # product must equal the one-shot symbol over N-
    if chi != kronecker_symbol(fund, curve.multiplicative_part):
        raise InternalCheckFailed("parity cross-check failed: routes disagree")
    odd = chi == -1
    return ParityCertificate(
        curve=curve.label, field=field.label, admissible=True, reasons=(),
        chi=chi, parity="Odd" if odd else "Even",
        growth="Certified" if odd else "Unknown")
