"""The quintrank benchmark: one closed-loop workload per run, one
operation at a time, every output checked against recorded references.

    python3 bench/run.py --workload enum-scan --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --smoke --workload table-cold --seed 1 --trace 1

Workloads (see ``layers.json`` for what each one should show):

* ``enum-scan``  -- criterion 9 at height 2: ``scan`` of 37a over
  ``enumerate_quintics(2, 10**6, prime_budget=40)``; the seed has no
  effect, the box is fixed.
* ``table-cold`` -- ``ingest_fields -> dedupe_stream -> scan`` of 37a over
  a seeded table (``tables.py``), starting from an empty ``FieldCache``.
* ``table-warm`` -- the same table with its cache filled in set-up; one
  scan per bundled sample curve, each loading a fresh ``FieldCache``.
* ``algebra``    -- ``selftest``, ``h2`` and ``standard-rep`` with
  ``--json``, each in a fresh interpreter (``algebra_child.py``).

``--seconds`` fixes the amount of work, not a deadline: it is divided by
the nominal cost of one unit of work at the baseline commit (constants
below), so the same ``--seconds`` gives the same work on every commit and
a faster commit finishes sooner.  ``wall_s`` is the length of the timed
phase.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` the same work runs untraced and then traced, the two
outputs must be identical, and the last line holds the per-layer
metrics.  The line before it is the full report (every metric, the run
environment, the table mix); it is also written, with the spans of a
traced run, under ``.bench_out/``.  The run exits 0 after printing a
result, and 2 without one when the program or the recorded references
are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
REFERENCE_PATH = BENCH / "data" / "reference.json"
LAYERS_PATH = BENCH / "layers.json"

WORKLOADS = ("enum-scan", "table-cold", "table-warm", "algebra")
LAYERS = ("groups", "cocycles", "reps", "numtheory", "rankgrowth",
          "fieldscan", "cli")

# Nominal cost of one unit of work at the baseline commit (2-core x86
# machine, CPython 3.11); they turn --seconds into a fixed amount of work.
ENUM_OP_S = 8.6            # one height-2 scan
COLD_PASS_S = 5.85         # one pass over the table, empty cache
WARM_SCAN_S = 0.14         # one warm scan of the table for one curve
ALGEBRA_ROUND_S = 2.0      # selftest + h2 + standard-rep
TABLE_ROWS = 500
MIN_COLD_PASSES = 2        # 1000 row samples: ten beyond row_p99_ms
SETUP_REPEATS = 7          # the median of 7 cheap set-ups
FILL_REPEATS = 3           # a cache fill costs a cold pass

ENUM_HEIGHT = 2
ENUM_BUDGET = 40
ENUM_BUCKETS = (100_000, 400_000, 1_000_000)
ENUM_CURVE = "37a 37 37^1"
ALGEBRA_COMMANDS = ("selftest", "h2", "standard-rep")

SMOKE = {"enum_height": 1, "table_rows": 50, "rounds": 1, "warm_passes": 1,
         "setup_repeats": 1}


class BenchSetupError(RuntimeError):
    """The checkout lacks what the benchmark needs; no result is printed."""


# -- environment ---------------------------------------------------------------


def _loadavg() -> list[float]:
    try:
        return [float(x) for x in
                Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (the
    benchmark reads nothing outside its checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "git_commit": _git_commit()}


# -- output gate -----------------------------------------------------------------


class Gate:
    """Counts operations and the ones that raised or differed from their
    reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checks_ok = True

    def op(self, name: str, fn, want):
        """Run one operation; returns its output, or None when it raised."""
        self.attempted += 1
        try:
            got = fn()
        except Exception:
            self.failed += 1
            self.problems.append(f"{name} raised:\n{traceback.format_exc()}")
            return None
        if got != want:
            self.failed += 1
            self.problems.append(f"{name}: output differs from the reference: "
                                 f"{_short(got)} != {_short(want)}")
        return got

    def check(self, ok: bool, message: str):
        """A set-up or consistency check that is not an operation."""
        if not ok:
            self.checks_ok = False
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.checks_ok


def _short(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=str)
    return text if len(text) < 400 else text[:400] + "..."


# -- workloads -------------------------------------------------------------------


def _median_setup(repeats: int, once) -> float:
    """Median wall time of `repeats` set-ups; each one times a fresh
    interpreter importing the program, then calls once()."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, 'src'); import quintrank.cli"],
            cwd=ROOT, capture_output=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise BenchSetupError("cannot import quintrank: "
                                  + proc.stderr.decode(errors="replace"))
        once()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Workload:
    """set_up() once, then ops() gives the operations of the timed phase
    as (name, kind, fn, expected output); times are kept per kind."""

    root_span = "fieldscan"
    setup_repeats_full = SETUP_REPEATS

    def __init__(self, args, ref: dict, gate: Gate):
        self.args = args
        self.ref = ref
        self.gate = gate
        self.work: dict = {}
        self.extra: dict = {}

    def set_up(self) -> float:
        return _median_setup(self.setup_repeats, lambda: None)

    @property
    def setup_repeats(self) -> int:
        return SMOKE["setup_repeats"] if self.args.smoke \
            else self.setup_repeats_full

    def end_to_end(self, wall: float, timings: dict) -> dict:
        return {}

    def prediction_context(self) -> dict:
        return {}

    def clean_up(self):
        pass


class EnumScan(Workload):
    def __init__(self, *a):
        super().__init__(*a)
        self.height = SMOKE["enum_height"] if self.args.smoke else ENUM_HEIGHT
        self.n_ops = 1 if self.args.smoke else \
            max(1, round(self.args.seconds / ENUM_OP_S))
        self.want = self.ref["enum"][str(self.height)]
        self.work = {"height": self.height, "ops": self.n_ops,
                     "polys_per_op": (2 * self.height + 1) ** 5}

    def ops(self):
        from quintrank import fieldscan, rankgrowth
        curve = rankgrowth.CurveData.parse(ENUM_CURVE)

        def one():
            fields = fieldscan.enumerate_quintics(
                self.height, ENUM_BUCKETS[-1], prime_budget=ENUM_BUDGET)
            return fieldscan.scan(curve, fields, ENUM_BUCKETS).to_json_dict()
        return [(f"enum-scan[{i}]", "scan", one, self.want)
                for i in range(self.n_ops)]

    def end_to_end(self, wall, timings):
        return {"polys_per_s": (self.n_ops * self.work["polys_per_op"] / wall,
                                "1/s", "higher")}


class TableWorkload(Workload):
    def __init__(self, *a):
        super().__init__(*a)
        import tables
        self.tables = tables
        self.rows = SMOKE["table_rows"] if self.args.smoke else TABLE_ROWS
        WORK_DIR.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{self.args.workload}-",
                                         dir=WORK_DIR))
        self.csv = self.tmp / "table.csv"
        self.row_times: list[float] = []
        self._fills = 0

    def clean_up(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _make_table(self):
        pool = self.tables.load_pool()
        table = self.tables.make_table(pool, self.args.seed, self.rows)
        table.write(self.csv)
        return pool, table

    def _build_inputs(self):
        from quintrank import rankgrowth
        pool, table = self._make_table()
        self.table = table
        self.expected = self.tables.expected_reports(pool, table)
        self.curves = sample_curves(rankgrowth)
        self.gate.check([c.label for c in self.curves] == pool.curves,
                        "bundled sample curves differ from the recorded pool")
        rejected = sum(n for k, n in table.counts.items()
                       if k in self.tables.MALFORMED_KINDS
                       or k == "repeated_root")
        self.gate.check(len(table.rejected_lines) == rejected,
                        "generated rejects do not match the row mix")
        self.extra["table"] = {"rows": len(table.rows),
                               "counts": dict(sorted(table.counts.items())),
                               "shares": table.shares()}

    def pass_over(self, curve, cache_path, row_times=None) -> dict:
        """One scan of the table for `curve`, through a FieldCache loaded
        from cache_path, as ``quintrank scan --fields --cache`` does."""
        from quintrank import fieldscan
        rejected: list[int] = []
        cache = fieldscan.FieldCache(cache_path)
        stream = fieldscan.ingest_fields(
            self.csv, cache=cache,
            on_error=lambda lineno, message: rejected.append(lineno))
        if row_times is not None:
            stream = _timed_rows(stream, row_times)
        report = fieldscan.scan(curve, fieldscan.dedupe_stream(stream),
                                self.tables.EDGES)
        return {"report": report.to_json_dict(), "rejected": rejected}

    def want(self, curve) -> dict:
        return {"report": self.expected[curve.label],
                "rejected": self.table.rejected_lines}

    def fresh_cache_path(self) -> Path:
        self._fills += 1
        return self.tmp / f"cache-{self._fills}.jsonl"


def sample_curves(rankgrowth):
    """The bundled sample curves, as ``--curve-file sample`` loads them."""
    from importlib import resources
    text = resources.files("quintrank").joinpath("data/curves.txt").read_text()
    return [rankgrowth.CurveData.parse(line.strip())
            for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def _timed_rows(stream, times: list[float]):
    """Yield from `stream`, recording for each row the time from asking
    for it to receiving it (a rejected row folds into the next one)."""
    it = iter(stream)
    while True:
        t0 = time.perf_counter()
        try:
            row = next(it)
        except StopIteration:
            return
        times.append(time.perf_counter() - t0)
        yield row


class TableCold(TableWorkload):
    def set_up(self):
        return _median_setup(self.setup_repeats, self._build_inputs)

    def ops(self):
        curve = self.curves[0]
        passes = 1 if self.args.smoke else \
            max(MIN_COLD_PASSES, round(self.args.seconds / COLD_PASS_S))
        self.work = {"rows": self.rows, "passes": passes,
                     "curve": curve.label}

        def one():
            path = self.fresh_cache_path()
            try:
                return self.pass_over(curve, path, self.row_times)
            finally:
                path.unlink(missing_ok=True)
        return [(f"table-cold[{i}]", "pass", one, self.want(curve))
                for i in range(passes)]

    def end_to_end(self, wall, timings):
        times = self.row_times
        cuts = statistics.quantiles(times, n=100) if len(times) > 1 else \
            [times[0]] * 99
        self.extra["row_samples"] = len(times)
        return {"rows_per_s": (self.rows * self.work["passes"] / wall,
                               "1/s", "higher"),
                "row_p50_ms": (1000 * statistics.median(times), "ms", "lower"),
                "row_p99_ms": (1000 * cuts[98], "ms", "lower")}


class TableWarm(TableWorkload):
    setup_repeats_full = FILL_REPEATS

    def set_up(self):
        return _median_setup(self.setup_repeats, self._fill)

    def _fill(self):
        """Generate the table and fill a cache with one cold pass; the
        pass must give the reference report, so cold and warm agree."""
        self._build_inputs()
        curve = self.curves[0]
        path = self.fresh_cache_path()
        got = self.pass_over(curve, path)
        self.gate.check(got == self.want(curve),
                        f"cold fill pass differs from the reference: "
                        f"{_short(got)}")
        self.cache_path = path

    def ops(self):
        per_pass = len(self.curves)
        passes = SMOKE["warm_passes"] if self.args.smoke else max(
            1, round(self.args.seconds / (per_pass * WARM_SCAN_S)))
        self.work = {"rows": self.rows, "passes": passes,
                     "curves": per_pass, "scans": passes * per_pass}
        return [(f"table-warm[{i}:{c.label}]", "scan",
                 lambda c=c: self.pass_over(c, self.cache_path), self.want(c))
                for i in range(passes) for c in self.curves]

    def end_to_end(self, wall, timings):
        return {"rows_per_s": (self.rows * self.work["scans"] / wall,
                               "1/s", "higher")}

    def prediction_context(self):
        return {"repeated_root_scans":
                self.table.counts["repeated_root"] * self.work["scans"]}


class Algebra(Workload):
    root_span = "cli.main"

    def __init__(self, *a):
        super().__init__(*a)
        self.rounds = SMOKE["rounds"] if self.args.smoke else \
            max(1, round(self.args.seconds / ALGEBRA_ROUND_S))
        self.work = {"rounds": self.rounds, "commands": list(ALGEBRA_COMMANDS)}
        self.trace_dir: Path | None = None
        self.trace_files: list[Path] = []

    def ops(self):
        out = []
        for i in range(self.rounds):
            for cmd in ALGEBRA_COMMANDS:
                out.append((f"algebra[{i}:{cmd}]", cmd,
                            lambda cmd=cmd: self.command(cmd),
                            self.ref["algebra"][cmd]))
        return out

    def command(self, cmd: str) -> dict:
        env = dict(os.environ)
        if self.trace_dir is not None:
            path = self.trace_dir / f"{len(self.trace_files)}.json"
            self.trace_files.append(path)
            env["BENCH_TRACE_OUT"] = str(path)
            env["BENCH_LAUNCH_TIME"] = repr(time.time())
        proc = subprocess.run(
            [sys.executable, str(BENCH / "algebra_child.py"), cmd, "--json"],
            cwd=ROOT, env=env, capture_output=True, timeout=150, check=False)
        if proc.returncode != 0 and proc.stderr:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        return {"exit_code": proc.returncode,
                "stdout": proc.stdout.decode("utf-8")}

    def end_to_end(self, wall, timings):
        return {f"{cmd.replace('-', '_')}_s":
                (statistics.median(timings[cmd]), "s", "lower")
                for cmd in ALGEBRA_COMMANDS}


WORKLOAD_CLASSES = {"enum-scan": EnumScan, "table-cold": TableCold,
                    "table-warm": TableWarm, "algebra": Algebra}


# -- timed phase -----------------------------------------------------------------


class Phase:
    """What a timed phase measured: its wall time, each operation's time
    by kind, and the outputs."""

    def __init__(self):
        self.wall = 0.0
        self.times: dict[str, list[float]] = {}
        self.outputs: list = []


def timed_phase(wl: Workload, ops, tr=None) -> Phase:
    """Run every operation once, in order."""
    ph = Phase()
    t_start = time.perf_counter()
    for name, kind, fn, want in ops:
        t0 = time.perf_counter()
        if tr is None:
            got = wl.gate.op(name, fn, want)
        else:
            with tr.span(wl.root_span):
                got = wl.gate.op(name, fn, want)
        ph.times.setdefault(kind, []).append(time.perf_counter() - t0)
        ph.outputs.append(got)
    ph.wall = time.perf_counter() - t_start
    return ph


def traced_phase(wl: Workload, ops) -> tuple[float, dict, dict, list]:
    """The same operations with every layer boundary wrapped.  Returns
    wall time, span summary, counters, and the outputs."""
    import tracer
    if isinstance(wl, Algebra):
        WORK_DIR.mkdir(exist_ok=True)
        wl.trace_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=WORK_DIR))
        try:
            ph = timed_phase(wl, ops)
            summary, counters, startups = {}, {}, []
            for path in wl.trace_files:
                if not path.exists():
                    wl.gate.check(False, f"traced child wrote no {path.name}")
                    continue
                data = json.loads(path.read_text())
                tracer.merge_summaries(summary,
                                       tracer.summarize(data["spans"]))
                for k, v in data["counters"].items():
                    counters[k] = counters.get(k, 0) + v
                startups.append(data["startup_s"])
            counters["cli.startup_s"] = statistics.median(startups) \
                if startups else 0.0
        finally:
            shutil.rmtree(wl.trace_dir, ignore_errors=True)
            wl.trace_dir = None
        return ph.wall, summary, counters, ph.outputs
    tr = tracer.Tracer()
    tracer.install_layers(tr)
    try:
        ph = timed_phase(wl, ops, tr)
    finally:
        tr.restore()
    OUT_DIR.mkdir(exist_ok=True)
    tr.dump(OUT_DIR / f"spans-{wl.args.workload}-seed{wl.args.seed}.json")
    return ph.wall, tr.summary(), dict(tr.counters), ph.outputs


# -- per-layer metrics -------------------------------------------------------------


def layer_metrics(summary: dict, counters: dict, wall: float,
                  untraced_wall: float) -> dict:
    """Every per-layer metric, as name -> (value, unit)."""
    def calls(n):
        return summary.get(n, (0, 0.0, 0.0))[0]

    def total(n):
        return summary.get(n, (0, 0.0, 0.0))[1]

    def self_s(n):
        return summary.get(n, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    c = counters.get
    m = {}
    for n in ("numtheory.factor_pattern_mod_p.from_certify",
              "numtheory.factor_pattern_mod_p.from_fieldscan",
              "numtheory.certify_s5", "numtheory.poly_discriminant",
              "numtheory.squarefree_kernel", "numtheory.real_root_count",
              "fieldscan.cache.get", "fieldscan.cache.put",
              "rankgrowth.certify_pair", "cocycles.h2_dimension",
              "cocycles.h1_dimension", "cocycles.coboundary_witness",
              "cocycles.verify_cocycle", "cocycles.pin_cocycle_sn"):
        m[f"{n}.calls"] = (calls(n), "count")
        m[f"{n}.self_s"] = (self_s(n), "s")
    cs5 = calls("numtheory.certify_s5")
    m["numtheory.certify_s5.certified_ratio"] = (
        ratio(c("certify_s5.certified", 0), cs5), "ratio")
    m["numtheory.certify_s5.primes_per_call"] = (
        ratio(c("certify_s5.primes", 0), cs5), "count")
    m["numtheory.squarefree_kernel.incomplete_ratio"] = (
        ratio(c("squarefree_kernel.incomplete", 0),
              calls("numtheory.squarefree_kernel")), "ratio")
    m["numtheory.resolvent.self_s"] = (self_s("numtheory.resolvent"), "s")
    m["fieldscan.cache.load_s"] = (total("fieldscan.cache.load"), "s")
    m["fieldscan.cache.records"] = (c("cache.records", 0), "count")
    m["fieldscan.cache.bytes"] = (c("cache.bytes", 0), "bytes")
    m["fieldscan.cache.corrupt_lines"] = (c("cache.corrupt_lines", 0), "count")
    m["fieldscan.cache.get.hit_ratio"] = (
        ratio(c("cache.get.hits", 0), calls("fieldscan.cache.get")), "ratio")
    d_in, d_out = c("dedupe.in", 0), c("dedupe.out", 0)
    m["fieldscan.dedupe.in"] = (d_in, "count")
    m["fieldscan.dedupe.out"] = (d_out, "count")
    m["fieldscan.dedupe.merge_ratio"] = (ratio(d_in - d_out, d_in), "ratio")
    m["fieldscan.audit.calls"] = (calls("fieldscan.audit"), "count")
    m["fieldscan.enumerate.polys"] = (c("enumerate.polys", 0), "count")
    m["fieldscan.enumerate.fields_out"] = (c("enumerate.out", 0), "count")
    m["fieldscan.ingest.rows"] = (c("ingest.out", 0), "count")
    m["fieldscan.ingest.rejected"] = (c("ingest.rejected", 0), "count")
    m["fieldscan.self_s"] = (self_s("fieldscan"), "s")
    cp = calls("rankgrowth.certify_pair")
    adm = c("certify_pair.admissible", 0)
    m["rankgrowth.certify_pair.admissible_ratio"] = (ratio(adm, cp), "ratio")
    m["rankgrowth.certify_pair.odd_ratio"] = (
        ratio(c("certify_pair.odd", 0), adm), "ratio")
    for n in ("groups.symmetric_group", "groups.alternating_group",
              "reps.icosian_group", "reps.verify_standard_rep",
              "reps.tensor_induction", "reps.find_isomorphism"):
        m[f"{n}.self_s"] = (self_s(n), "s")
    m["cli.startup_s"] = (c("cli.startup_s", 0.0), "s")
    m["cli.self_s"] = (self_s("cli.main"), "s")
    for layer in LAYERS:
        spent = sum(row[2] for name, row in summary.items()
                    if name.split(".")[0] == layer)
        m[f"{layer}.self_share"] = (ratio(spent, wall), "ratio")
    m["trace.overhead_ratio"] = (ratio(wall, untraced_wall), "ratio")
    return m


def check_predictions(workload: str, metrics: dict, wall: float,
                      context: dict) -> list[dict]:
    """Each prediction of layers.json for this workload, with what the
    trace measured and whether it holds."""
    spec = json.loads(LAYERS_PATH.read_text())
    out = []
    for pred in spec["predictions"]:
        if workload not in pred["workloads"]:
            continue
        value = sum(metrics[name][0] for name in pred["sum"])
        if pred.get("of_wall"):
            value /= wall
        op, limit = pred["expect"]
        if isinstance(limit, str):
            limit = context[limit]
        holds = {"<=": value <= limit, "<": value < limit,
                 ">=": value >= limit, "==": value == limit}[op]
        out.append({"claim": pred["claim"], "measured": value,
                    "expect": [op, limit],
                    "holds": holds})
    return out


# -- main --------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=18.0,
                   help="nominal length of the timed phase; sets the work")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs for the benchmark's own tests")
    return p.parse_args(argv)


def _load_reference() -> dict:
    if not (SRC / "quintrank" / "__init__.py").exists():
        raise BenchSetupError(f"no program source under {SRC}")
    if not REFERENCE_PATH.exists():
        raise BenchSetupError(f"no recorded references at {REFERENCE_PATH}")
    return json.loads(REFERENCE_PATH.read_text())


def run(args) -> dict:
    ref = _load_reference()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    gate = Gate()
    wl = WORKLOAD_CLASSES[args.workload](args, ref, gate)
    load = {"before": _loadavg()}
    try:
        setup_s = wl.set_up()
        ops = wl.ops()
        ph = timed_phase(wl, ops)
        e2e = {"wall_s": (ph.wall, "s", "lower"),
               "setup_s": (setup_s, "s", "lower")}
        e2e.update(wl.end_to_end(ph.wall, ph.times))
        layers = predictions = None
        if args.trace:
            t_wall, summary, counters, t_outputs = traced_phase(wl, ops)
            gate.check(t_outputs == ph.outputs,
                       "traced outputs differ from the untraced run")
            layers = layer_metrics(summary, counters, t_wall, ph.wall)
            predictions = check_predictions(args.workload, layers, t_wall,
                                            wl.prediction_context())
    finally:
        wl.clean_up()
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    rss_kb = child_rss if isinstance(wl, Algebra) else self_rss
    e2e["peak_rss_mb"] = (rss_kb / 1024.0, "MB", "lower")
    e2e["fail_ratio"] = (gate.failed / gate.attempted if gate.attempted
                         else 1.0, "ratio", "lower")
    load["after"] = _loadavg()
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "work": wl.work, **wl.extra,
            "environment": {**environment(), "loadavg": load},
            "correct": gate.correct, "attempted": gate.attempted,
            "failed": gate.failed, "problems": gate.problems[:20],
            "end_to_end": {k: {"value": v, "unit": u, "better": b}
                           for k, (v, u, b) in e2e.items()},
            "per_layer": None if layers is None else
            {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
            "predictions": predictions}


# the end-to-end metrics every workload reports on its result line
RESULT_METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def result_line(report: dict) -> dict:
    if report["trace"]:
        metrics = report["per_layer"]
    else:
        metrics = {k: {"value": report["end_to_end"][k]["value"],
                       "unit": report["end_to_end"][k]["unit"]}
                   for k in RESULT_METRICS}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        report = run(args)
    except (BenchSetupError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for problem in report["problems"]:
        print(problem, file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
