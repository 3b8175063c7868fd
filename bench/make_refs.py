"""Record the benchmark's reference outputs from the current source tree.

    python3 bench/make_refs.py

Writes ``bench/data/pool.json`` (recorded outcomes of every pool
polynomial, see ``tables.py``) and ``bench/data/reference.json``
(``enum-scan`` buckets and the exit code and stdout of each ``algebra``
command).  Run it only at a commit whose outputs are trusted: the
benchmark counts any later difference as a failed operation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import tables  # noqa: E402
from quintrank import fieldscan, numtheory, rankgrowth  # noqa: E402
from run import (ALGEBRA_COMMANDS, ENUM_BUCKETS, ENUM_BUDGET,  # noqa: E402
                 ENUM_CURVE, sample_curves)


def _bucket(disc: int) -> int:
    for i, x in enumerate(tables.EDGES):
        if abs(disc) <= x:
            return i
    return len(tables.EDGES)


def record_pool() -> dict:
    curves = sample_curves(rankgrowth)
    polys = tables.pool_polynomials()
    by_fp: dict[tuple, tuple[int, fieldscan.QuinticField]] = {}
    entries: dict[str, list[str]] = {}
    index = 0
    for cat, rows in polys.items():
        out = []
        for coeffs in rows:
            try:
                f = fieldscan.QuinticField(
                    numtheory.IntPolynomial.descending(coeffs))
            except fieldscan.NotSeparable:
                out.append("z")
                index += 1
                continue
            fp = f.fingerprint
            if fp in by_fp:
                cls, rep = by_fp[fp]
                if rep.extended_fingerprint != f.extended_fingerprint:
                    raise RuntimeError(f"false merge in pool: {coeffs}")
            else:
                cls = index
                by_fp[fp] = (index, f)
            outcomes = ""
            for curve in curves:
                cert = rankgrowth.certify_pair(curve, f)
                outcomes += ("-" if not cert.admissible else
                             "o" if cert.growth == "Certified" else "e")
            flags = ("C" if f.s5_status == "Certified" else "I") + \
                    ("c" if f.resolvent.complete else "u")
            out.append(f"{_bucket(f.disc)}:{cls}:{flags}:{outcomes}")
            index += 1
        entries[cat] = out
        print(f"pool {cat}: {len(out)} polynomials", file=sys.stderr)
    return {"polys_sha256": tables.pool_digest(polys),
            "edges": [str(e) for e in tables.EDGES],
            "curves": [c.label for c in curves],
            "entries": entries}


def record_enum(height: int) -> dict:
    curve = rankgrowth.CurveData.parse(ENUM_CURVE)
    report = fieldscan.scan(curve, fieldscan.enumerate_quintics(
        height, ENUM_BUCKETS[-1], prime_budget=ENUM_BUDGET), ENUM_BUCKETS)
    return report.to_json_dict()


def record_algebra() -> dict:
    out = {}
    for cmd in ALGEBRA_COMMANDS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "algebra_child.py"), cmd, "--json"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        out[cmd] = {"exit_code": proc.returncode, "stdout": proc.stdout}
    return out


def main():
    pool = record_pool()
    (BENCH / "data" / "pool.json").write_text(
        json.dumps(pool, separators=(",", ":")) + "\n")
    ref = {"enum": {"2": record_enum(2), "1": record_enum(1)},
           "algebra": record_algebra()}
    (BENCH / "data" / "reference.json").write_text(
        json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
