"""In-memory span tracer that wraps the program's layer boundaries.

A span is ``[id, parent, name, start, end]``.  Wrappers replace a
module attribute or class attribute for the length of a traced
phase and record one span per call; ``restore`` puts every original
back.  Self time is a span's duration minus the durations of its
direct children.  Counting wrappers on the streaming functions record
counts only, because a generator's work interleaves with its consumer.

The span names are ``<module>.<function>``; the module is the layer the
wrapped code belongs to, whichever module's name binding was wrapped.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class TraceTargetMissing(RuntimeError):
    """A name the tracer must wrap does not exist any more."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else -1,
               name, perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec: list):
        rec[4] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _timed(self, fn, name, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if observe is not None:
                observe(self.counters, result, args)
            return result
        return wrapper

    # -- installing wrappers -------------------------------------------------

    @staticmethod
    def _original(owner, attr: str):
        # read from __dict__ so that properties and plain functions are
        # restored exactly as they were
        if attr not in owner.__dict__:
            raise TraceTargetMissing(
                f"{getattr(owner, '__name__', owner)}.{attr} no longer exists")
        return owner.__dict__[attr]

    def _replace(self, owner, attr: str, new):
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap(self, owner, attr: str, name: str, observe=None):
        """Record a span named `name` around every call of owner.attr."""
        fn = self._original(owner, attr)
        self._replace(owner, attr, self._timed(fn, name, observe))

    def wrap_property(self, cls, attr: str, name: str):
        prop = self._original(cls, attr)
        if not isinstance(prop, property):
            raise TraceTargetMissing(f"{cls.__name__}.{attr} is not a property")
        self._replace(cls, attr, property(self._timed(prop.fget, name, None)))

    def wrap_stream(self, owner, attr: str, prefix: str, count_input=False,
                    on_call=None):
        """Count the items a generator function yields (`prefix`.out) and,
        with count_input, the items of its first argument (`prefix`.in)."""
        fn = self._original(owner, attr)
        counters = self.counters

        def counted(items, key):
            for item in items:
                counters[key] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                args, kwargs = on_call(counters, args, kwargs)
            if count_input:
                args = (counted(args[0], prefix + ".in"),) + tuple(args[1:])
            return counted(fn(*args, **kwargs), prefix + ".out")
        self._replace(owner, attr, wrapper)

    def restore(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"could not restore {attr}")

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, list[float]]:
        return summarize(self.spans)

    def dump(self, path, extra=None):
        data = {"spans": self.spans, "counters": dict(self.counters)}
        data.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))


def summarize(spans) -> dict[str, list[float]]:
    """name -> [calls, total seconds, self seconds]; span ids are list
    indices, so a span's children follow it."""
    child = [0.0] * len(spans)
    for sid, parent, _, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list[float]] = {}
    for sid, _, name, start, end in spans:
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[sid]
    return out


def merge_summaries(into: dict, other: dict):
    for name, (calls, total, self_s) in other.items():
        row = into.setdefault(name, [0, 0.0, 0.0])
        row[0] += calls
        row[1] += total
        row[2] += self_s


# -- the program's layer boundaries ------------------------------------------


def _obs_certify_s5(c, cert, args):
    c["certify_s5.certified"] += cert.status == "Certified"
    c["certify_s5.primes"] += cert.primes_scanned


def _obs_squarefree(c, res, args):
    c["squarefree_kernel.incomplete"] += not res.complete


def _obs_certify_pair(c, cert, args):
    c["certify_pair.admissible"] += bool(cert.admissible)
    c["certify_pair.odd"] += cert.growth == "Certified"


def _obs_cache_get(c, hit, args):
    c["cache.get.hits"] += hit is not None


def _obs_cache_load(c, _, args):
    cache = args[0]
    c["cache.loads"] += 1
    c["cache.records"] += len(cache)
    c["cache.corrupt_lines"] += len(cache.corrupt_lines)
    c["cache.bytes"] += cache.path.stat().st_size if cache.path.exists() else 0


def _ingest_call(c, args, kwargs):
    report = kwargs.get("on_error")
    if report is None:
        raise RuntimeError("traced ingest needs an explicit on_error")

    def on_error(lineno, message):
        c["ingest.rejected"] += 1
        report(lineno, message)
    return args, dict(kwargs, on_error=on_error)


def _enumerate_call(c, args, kwargs):
    height = args[0] if args else kwargs["coeff_height"]
    c["enumerate.polys"] += (2 * height + 1) ** 5
    return args, kwargs


def install_layers(tr: Tracer):
    """Wrap every layer boundary the benchmark reports on.  Raises
    TraceTargetMissing, after undoing what it did, when a name is gone."""
    from quintrank import cocycles, fieldscan, groups, numtheory, rankgrowth, reps
    try:
        # names fieldscan imports from numtheory and rankgrowth
        tr.wrap(fieldscan, "certify_s5", "numtheory.certify_s5", _obs_certify_s5)
        tr.wrap(fieldscan, "factor_pattern_mod_p",
                "numtheory.factor_pattern_mod_p.from_fieldscan")
        tr.wrap(fieldscan, "poly_discriminant", "numtheory.poly_discriminant")
        tr.wrap(fieldscan, "real_root_count", "numtheory.real_root_count")
        tr.wrap(fieldscan, "resolvent", "numtheory.resolvent")
        tr.wrap(fieldscan, "certify_pair", "rankgrowth.certify_pair",
                _obs_certify_pair)
        # globals that certify_s5 and resolvent look up inside numtheory
        tr.wrap(numtheory, "factor_pattern_mod_p",
                "numtheory.factor_pattern_mod_p.from_certify")
        tr.wrap(numtheory, "squarefree_kernel", "numtheory.squarefree_kernel",
                _obs_squarefree)
        # cache and audit
        tr.wrap(fieldscan.FieldCache, "__init__", "fieldscan.cache.load",
                _obs_cache_load)
        tr.wrap(fieldscan.FieldCache, "put", "fieldscan.cache.put")
        tr.wrap(fieldscan.FieldCache, "get", "fieldscan.cache.get",
                _obs_cache_get)
        tr.wrap_property(fieldscan.QuinticField, "extended_fingerprint",
                         "fieldscan.audit")
        # streams
        tr.wrap_stream(fieldscan, "ingest_fields", "ingest",
                       on_call=_ingest_call)
        tr.wrap_stream(fieldscan, "dedupe_stream", "dedupe", count_input=True)
        tr.wrap_stream(fieldscan, "enumerate_quintics", "enumerate",
                       on_call=_enumerate_call)
        # what cli calls in numtheory, rankgrowth, groups, cocycles, reps
        tr.wrap(numtheory, "poly_discriminant", "numtheory.poly_discriminant")
        tr.wrap(rankgrowth, "certify_pair", "rankgrowth.certify_pair",
                _obs_certify_pair)
        for mod in (groups, cocycles, reps):
            tr.wrap(mod, "symmetric_group", "groups.symmetric_group")
        tr.wrap(groups, "alternating_group", "groups.alternating_group")
        for name in ("h2_dimension", "h1_dimension", "coboundary_witness",
                     "verify_cocycle", "pin_cocycle_sn"):
            tr.wrap(cocycles, name, f"cocycles.{name}")
        tr.wrap(reps, "pin_cocycle_sn", "cocycles.pin_cocycle_sn")
        for name in ("icosian_group", "verify_standard_rep", "tensor_induction",
                     "find_isomorphism"):
            tr.wrap(reps, name, f"reps.{name}")
    except BaseException:
        tr.restore()
        raise
