"""Seeded field tables for the table workloads, and their expected reports.

A table is drawn from a recorded pool of monic quintics.  The pool's
polynomials are regenerated from a fixed seed; ``data/pool.json`` holds,
for every one of them, the outcomes the program gave when the pool was
recorded: the discriminant bucket, the dedupe class (the first pool
entry with the same fingerprint), the S5 status, whether the resolvent
factorization completed, and the certificate for each bundled curve.
The expected scan report of any table built from the pool therefore
follows from recorded data alone, for every seed.

Row mix (shares of the table, fixed for every seed):

* base rows at coefficient heights 3, 12 and 50, one per dedupe class;
* rows with coefficients of about 10^4, whose discriminants drive
  ``squarefree_kernel`` through full trial division and Miller-Rabin,
  some ending with ``complete=False``;
* malformed rows: non-monic, wrong arity, non-integer;
* repeated-root rows (x - r)^2 (x^3 + b x^2 + c x + d);
* exact repeats of earlier rows, which hit the cache even when cold;
* mirror and shift duplicates of earlier rows (merged without audit);
* reciprocal-and-shift duplicates of earlier rows with unit constant
  term, which dedupe can only merge after the 30-prime audit.

Base rows and the sources of duplicates are drawn stratified by what
sets a row's cost (S5 status, resolvent completeness, unit constant
term), so every seed gives the same mix and about the same work, and
the audits are exactly the reciprocal duplicates.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

POOL_PATH = Path(__file__).resolve().parent / "data" / "pool.json"

# discriminant bucket edges of every table scan
EDGES = (10 ** 6, 10 ** 9, 10 ** 12, 10 ** 15, 10 ** 40)

POOL_SEED = 20180220
# category -> (coefficient height, pool size)
POOL_CATEGORIES = {"h3": (3, 900), "h12": (12, 900), "h50": (50, 900),
                   "big": (10 ** 4, 80)}

# shares of a table's rows; base rows take what is left, split evenly
# across the three base heights
SHARES = {"big": 0.02, "malformed": 0.03, "repeated_root": 0.03,
          "exact_repeat": 0.05, "mirror_shift": 0.07, "reciprocal_shift": 0.02}
BASE_CATEGORIES = ("h3", "h12", "h50")
MALFORMED_KINDS = ("non_monic", "wrong_arity", "non_integer")


def pool_polynomials() -> dict[str, list[tuple[int, ...]]]:
    """The pool's coefficient vectors a5..a0, per category, in order."""
    rng = random.Random(POOL_SEED)
    out = {}
    for cat, (height, size) in POOL_CATEGORIES.items():
        out[cat] = [(1,) + tuple(rng.randint(-height, height) for _ in range(5))
                    for _ in range(size)]
    return out


def pool_digest(polys: dict[str, list[tuple[int, ...]]]) -> str:
    text = json.dumps({k: [list(c) for c in v] for k, v in polys.items()},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class PoolEntry:
    coeffs: tuple[int, ...]
    bucket: int          # index of the first edge >= |disc|; len(EDGES) if none
    cls: int             # global index of the first entry with this fingerprint
    status: str          # "C" certified S5, "I" inconclusive
    complete: bool       # resolvent factorization completed
    outcomes: str        # per curve: "-" not admissible, "e" even, "o" odd


@dataclass
class Pool:
    curves: list[str]
    # category -> usable entries: separable, and each the first of its
    # dedupe class, so base rows of a table never merge with each other
    entries: dict[str, list[PoolEntry]]


def load_pool(path: Path = POOL_PATH) -> Pool:
    """Regenerate the pool and attach its recorded outcomes; refuses a
    record made from different polynomials or bucket edges."""
    rec = json.loads(path.read_text())
    polys = pool_polynomials()
    if rec["polys_sha256"] != pool_digest(polys):
        raise RuntimeError("pool polynomials differ from the recorded pool")
    if rec["edges"] != [str(e) for e in EDGES]:
        raise RuntimeError("bucket edges differ from the recorded pool")
    entries = {}
    index = 0
    for cat, rows in rec["entries"].items():
        if len(rows) != len(polys[cat]):
            raise RuntimeError(f"pool category {cat} has the wrong size")
        usable = []
        for coeffs, row in zip(polys[cat], rows):
            index += 1
            if row == "z":          # zero discriminant, never sampled
                continue
            bucket, cls, flags, outcomes = row.split(":")
            if int(cls) != index - 1:
                continue            # not the first of its class
            usable.append(PoolEntry(coeffs, int(bucket), int(cls), flags[0],
                                    flags[1] == "c", outcomes))
        entries[cat] = usable
    return Pool(rec["curves"], entries)


# -- coefficient transforms (each keeps the generated field) -----------------


def mirror(c):
    """-f(-x): roots negated."""
    return (c[0], -c[1], c[2], -c[3], c[4], -c[5])


def shift(c, s):
    """f(x + s), descending coefficients in and out."""
    out = list(c)
    n = len(out) - 1
    for i in range(n):                 # repeated synthetic division
        for j in range(1, n + 1 - i):
            out[j] += s * out[j - 1]
    return tuple(out)


def reciprocal(c):
    """x^5 f(1/x) / a0 for a unit constant term: roots inverted."""
    if abs(c[5]) != 1:
        raise ValueError("reciprocal needs a unit constant term")
    return tuple(x * c[5] for x in reversed(c))


# -- tables ------------------------------------------------------------------


@dataclass
class Row:
    text: str                 # CSV line without newline
    kind: str
    entry: PoolEntry | None   # pool entry whose outcomes the row shares
    key: float = 0.0          # sort key; derived rows sort after their source


@dataclass
class Table:
    rows: list[Row]
    counts: dict[str, int] = field(default_factory=dict)

    def write(self, path: Path):
        lines = ["label,a5,a4,a3,a2,a1,a0"] + [r.text for r in self.rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @property
    def rejected_lines(self) -> list[int]:
        """File line numbers (header is line 1) ingest must reject."""
        return [i + 2 for i, r in enumerate(self.rows) if r.entry is None]

    def shares(self) -> dict[str, float]:
        n = len(self.rows)
        return {k: round(v / n, 4) for k, v in sorted(self.counts.items())}


def _csv(label, coeffs) -> str:
    return ",".join([label] + [str(x) for x in coeffs])


def _stratified(rng: random.Random, items: list, k: int, key,
                replace: bool = False) -> list:
    """k of `items`, each group of equal key(item) keeping its share of
    the items (largest remainder), drawn at random within the group, so
    every seed draws the same number from every group."""
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    quota = {g: k * len(v) / len(items) for g, v in groups.items()}
    count = {g: int(q) for g, q in quota.items()}
    order = sorted(groups, key=repr)
    by_remainder = sorted(order, key=lambda g: count[g] - quota[g])
    for g in by_remainder[:k - sum(count.values())]:
        count[g] += 1
    picked = []
    for g in order:
        picked += rng.choices(groups[g], k=count[g]) if replace \
            else rng.sample(groups[g], count[g])
    return picked


def make_table(pool: Pool, seed: int, rows: int) -> Table:
    """A table of `rows` rows for `seed`; the same seed gives the same
    table.  Every kind of row is present in every table of 50 rows or
    more."""
    if rows < 50:
        raise ValueError("tables have at least 50 rows")
    rng = random.Random(seed)
    n = {k: max(1, int(round(rows * s))) for k, s in SHARES.items()}
    n["malformed"] = max(n["malformed"], len(MALFORMED_KINDS))
    n_base = rows - sum(n.values())
    per_base = {c: n_base // 3 + (1 if i < n_base % 3 else 0)
                for i, c in enumerate(BASE_CATEGORIES)}

    out: list[Row] = []
    counts: dict[str, int] = {}

    def add(row: Row):
        out.append(row)
        counts[row.kind] = counts.get(row.kind, 0) + 1

    def cost(e: PoolEntry) -> tuple:
        # what sets a row's cost: a whole prime budget for inconclusive
        # rows, full trial division for incomplete ones, and the audit
        # for a reciprocal duplicate, which needs a unit constant term
        return e.status, e.complete, abs(e.coeffs[5]) == 1

    for cat in BASE_CATEGORIES + ("big",):
        k = n["big"] if cat == "big" else per_base[cat]
        for e in _stratified(rng, pool.entries[cat], k, cost):
            add(Row(_csv(f"{cat}-{len(out)}", e.coeffs), cat, e, rng.random()))

    base = list(out)
    units = [r for r in base if abs(r.entry.coeffs[5]) == 1]

    def sources(rows: list[Row], k: int) -> list[Row]:
        return _stratified(rng, rows, k, lambda r: (r.kind,) + cost(r.entry),
                           replace=True)

    def derived(kind: str, src: Row, coeffs):
        add(Row(_csv(f"{kind}-{len(out)}", coeffs), kind, src.entry,
                rng.uniform(src.key, 1.0)))

    for src in sources(base, n["exact_repeat"]):
        derived("exact_repeat", src, src.entry.coeffs)
    for src in sources(base, n["mirror_shift"]):
        c = src.entry.coeffs
        moves = rng.choice(("m", "s", "ms"))
        if "s" in moves:
            c = shift(c, rng.choice((-2, -1, 1, 2)))
        if "m" in moves:
            c = mirror(c)
        derived("mirror_shift", src, c)
    for src in sources(units, n["reciprocal_shift"]):
        derived("reciprocal_shift", src,
                shift(reciprocal(src.entry.coeffs), rng.choice((-1, 1))))
    for _ in range(n["repeated_root"]):
        r = rng.randint(-3, 3)
        b, c, d = (rng.randint(-3, 3) for _ in range(3))
        # (x - r)^2 (x^3 + b x^2 + c x + d)
        sq = (1, -2 * r, r * r)
        cubic = (1, b, c, d)
        prod = [0] * 6
        for i, x in enumerate(sq):
            for j, y in enumerate(cubic):
                prod[i + j] += x * y
        add(Row(_csv(f"rr-{len(out)}", prod), "repeated_root", None,
                rng.random()))
    for i in range(n["malformed"]):
        kind = MALFORMED_KINDS[i % len(MALFORMED_KINDS)]
        c = list(rng.choice(base).entry.coeffs)
        if kind == "non_monic":
            c[0] = rng.choice((0, -1, 2, 3))
            text = _csv(f"bad-{len(out)}", c)
        elif kind == "wrong_arity":
            c = c[:5] if rng.random() < 0.5 else c + [rng.randint(-3, 3)]
            text = _csv(f"bad-{len(out)}", c)
        else:
            c[rng.randint(1, 5)] = rng.choice(("2.5", "x", "1e3"))
            text = _csv(f"bad-{len(out)}", c)
        add(Row(text, kind, None, rng.random()))

    out.sort(key=lambda r: r.key)
    return Table(out, counts)


def expected_reports(pool: Pool, table: Table) -> dict[str, dict]:
    """The scan report for every pool curve, as ``ScanReport.to_json_dict``
    gives it: rejected rows dropped, the first row of each dedupe class
    kept, then cumulative counts per bucket edge."""
    seen = set()
    kept = []
    for r in table.rows:
        if r.entry is None or r.entry.cls in seen:
            continue
        seen.add(r.entry.cls)
        kept.append(r.entry)
    reports = {}
    for ci, label in enumerate(pool.curves):
        buckets = []
        for bi, x in enumerate(EDGES):
            inside = [e for e in kept if e.bucket <= bi]
            adm = [e for e in inside if e.outcomes[ci] != "-"]
            odd = [e for e in adm if e.outcomes[ci] == "o"]
            buckets.append({"X": x, "total": len(inside),
                            "admissible": len(adm), "odd": len(odd)})
        reports[label] = {"curve": label, "buckets": buckets}
    return reports
