"""Summarise benchmark run reports into a baseline file.

    for s in 101 102 103 104 105 106 107 108 109 110; do
      for w in enum-scan table-cold table-warm algebra; do
        python3 bench/run.py --workload $w --seed $s --seconds 18 --trace 0
      done
    done
    for w in enum-scan table-cold table-warm algebra; do
      python3 bench/run.py --workload $w --seed 101 --seconds 18 --trace 1
    done
    python3 bench/baseline.py > bench/BASELINE.json

Reads every ``.bench_out/report-*.json`` that run.py wrote and prints,
per workload, the median and quartiles of each end-to-end metric over
the untraced runs, with their spread (interquartile range over median),
and the per-layer metrics and prediction checks of the traced run.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT_DIR = BENCH.parent / ".bench_out"


def summarize(reports: list[dict]) -> dict:
    out: dict = {}
    for rep in sorted(reports, key=lambda r: (r["workload"], r["seed"])):
        wl = out.setdefault(rep["workload"], {"seeds": [], "runs": []})
        if rep["trace"]:
            wl["traced_seed"] = rep["seed"]
            wl["per_layer"] = {k: v["value"]
                               for k, v in rep["per_layer"].items()}
            wl["predictions"] = rep["predictions"]
        else:
            wl["seeds"].append(rep["seed"])
            wl["runs"].append(rep)
    for name, wl in out.items():
        runs = wl.pop("runs")
        if not runs:
            continue
        wl["all_correct"] = all(r["correct"] for r in runs)
        wl["work"] = runs[0]["work"]
        if "table" in runs[0]:
            wl["table_shares"] = runs[0]["table"]["shares"]
        load = [r["environment"]["loadavg"]["before"][0] for r in runs]
        wl["loadavg_1min"] = [min(load), max(load)]
        e2e = {}
        for metric, first in runs[0]["end_to_end"].items():
            values = [r["end_to_end"][metric]["value"] for r in runs]
            med = statistics.median(values)
            row = {"unit": first["unit"], "better": first["better"],
                   "median": med}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3,
                           spread=(q3 - q1) / med if med else 0.0)
            e2e[metric] = row
        wl["end_to_end"] = e2e
    return out


def main() -> int:
    reports = [json.loads(p.read_text())
               for p in sorted(OUT_DIR.glob("report-*.json"))]
    reports = [r for r in reports if not r["smoke"]]
    if not reports:
        print(f"no run reports under {OUT_DIR}", file=sys.stderr)
        return 2
    env = reports[0]["environment"]
    doc = {"commit": env["git_commit"],
           "environment": {k: env[k] for k in ("python", "numpy", "nproc",
                                               "machine")},
           "seconds": reports[0]["seconds"],
           "workloads": summarize(reports)}
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
