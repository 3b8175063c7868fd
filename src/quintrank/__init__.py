"""Toolkit for certifying analytic rank growth over quintic fields.

Submodules:
    groups     finite groups on dense tables, cosets, abelianization, transfer
    cocycles   2-cocycles, Clifford/Pin lifts of symmetric groups, extensions
    icosians   unit quaternion groups, isomorphism search, double covers and
               the standard-rep checks in Z[phi]
    reps       icosians' unit groups and double covers as float matrices,
               tensor induction, reducibility tests
    numtheory  Kronecker symbols, discriminants, root counts, S5 certification
    rankgrowth parity certificates for rank growth of elliptic curves
    fieldscan  quintic field enumeration, dedup, scanning, caching
    cli        command line interface
"""

import json

__version__ = "0.1.0"


def canonical_json(obj) -> str:
    """Sorted keys, no spaces: the record text of a cache line and every
    --json document on stdout."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class CheckedRecord:
    """Base for a record built from input from outside the program
    (CurveData, Permutation, Cocycle2), whose fields a
    collections.namedtuple holds: listed before that namedtuple among a
    subclass's bases, it runs the subclass's _check, which raises
    ValueError on inconsistent fields, whenever a record is made, by
    _make and _replace too.  The program's own records are plain
    namedtuples, checked by the tests.  (A typing.NamedTuple would do
    as well, but it compiles each string annotation of its fields.)"""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class InternalCheckFailed(RuntimeError):
    """An internal invariant failed: a bug or a broken assumption, never
    bad input.  The command line exits 1 on it, not 3."""
