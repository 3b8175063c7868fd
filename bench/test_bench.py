"""The benchmark's own tests; they use its smoke mode and finish in
seconds.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tables  # noqa: E402
import tracer  # noqa: E402


def _bench(*args, cwd):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _copy(dest: Path, with_program: bool = True) -> Path:
    """A fresh checkout: BENCHMARK.json, bench/ and, optionally, src/."""
    parts = ["bench", "src"] if with_program else ["bench"]
    for part in parts:
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    return _copy(tmp_path_factory.mktemp("checkout"))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced_run_is_correct_and_complete(workload, checkout):
    proc = _bench("--smoke", "--workload", workload, "--seed", "7",
                  "--trace", "1", cwd=checkout)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["problems"]
    names = [m["name"] for m in _spec()["per_layer"]]
    assert list(result["metrics"]) == names
    assert report["predictions"], "every workload checks some prediction"
    env = report["environment"]
    assert {"python", "numpy", "nproc", "git_commit"} <= set(env)
    assert set(env["loadavg"]) == {"before", "after"}


def test_untraced_result_line_has_every_end_to_end_metric(checkout):
    proc = _bench("--smoke", "--workload", "table-warm", "--seed", "3",
                  "--trace", "0", cwd=checkout)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert list(result["metrics"]) == [m["name"] for m in _spec()["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    e2e = report["end_to_end"]
    assert e2e["fail_ratio"]["value"] == 0
    assert e2e["rows_per_s"]["value"] > 0


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    proc = _bench("--workload", "enum-scan", "--seed", "1", "--trace", "0",
                  cwd=_copy(tmp_path, with_program=False))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- generator -------------------------------------------------------------------


def test_table_is_a_function_of_the_seed_and_has_every_row_kind():
    pool = tables.load_pool()
    a = tables.make_table(pool, 11, 60)
    b = tables.make_table(pool, 11, 60)
    c = tables.make_table(pool, 12, 60)
    assert [r.text for r in a.rows] == [r.text for r in b.rows]
    assert [r.text for r in a.rows] != [r.text for r in c.rows]
    assert set(a.counts) == {"h3", "h12", "h50", "big", "exact_repeat",
                             "mirror_shift", "reciprocal_shift",
                             "repeated_root", *tables.MALFORMED_KINDS}
    assert sum(a.counts.values()) == len(a.rows) == 60
    rejects = sum(a.counts[k] for k in tables.MALFORMED_KINDS) \
        + a.counts["repeated_root"]
    assert len(a.rejected_lines) == rejects


def test_transforms_keep_the_field():
    from quintrank import fieldscan, numtheory
    c = (1, 0, 0, 0, -1, -1)
    same = [tables.mirror(c), tables.shift(c, 2),
            tables.shift(tables.reciprocal(c), -1)]
    fp = fieldscan.QuinticField(numtheory.IntPolynomial.descending(c))
    for d in same:
        f = fieldscan.QuinticField(numtheory.IntPolynomial.descending(d))
        assert f.fingerprint == fp.fingerprint
        assert f.extended_fingerprint == fp.extended_fingerprint


def test_recorded_pool_refuses_other_polynomials(monkeypatch):
    monkeypatch.setattr(tables, "POOL_SEED", tables.POOL_SEED + 1)
    with pytest.raises(RuntimeError, match="differ"):
        tables.load_pool()


# -- gate ------------------------------------------------------------------------


def test_gate_counts_wrong_outputs_and_raises_as_failures():
    gate = run.Gate()
    assert gate.op("ok", lambda: 1, 1) == 1
    gate.op("wrong", lambda: 2, 1)
    gate.op("raises", lambda: 1 // 0, 1)
    assert (gate.attempted, gate.failed) == (3, 2)
    assert not gate.correct


def test_algebra_reference_mismatch_is_a_failed_operation(monkeypatch):
    ref = json.loads(run.REFERENCE_PATH.read_text())
    ref["algebra"]["h2"]["stdout"] += " "
    args = run.parse_args(["--smoke", "--workload", "algebra", "--seed", "1"])
    gate = run.Gate()
    wl = run.Algebra(args, ref, gate)
    ops = [op for op in wl.ops() if op[1] == "h2"]
    run.timed_phase(wl, ops)
    assert (gate.attempted, gate.failed) == (1, 1)


# -- tracer ----------------------------------------------------------------------


def test_tracer_restores_every_wrapped_name():
    from quintrank import fieldscan, numtheory
    before = (fieldscan.certify_s5, numtheory.factor_pattern_mod_p,
              fieldscan.FieldCache.__dict__["__init__"],
              fieldscan.QuinticField.__dict__["extended_fingerprint"])
    tr = tracer.Tracer()
    tracer.install_layers(tr)
    assert fieldscan.certify_s5 is not before[0]
    tr.restore()
    after = (fieldscan.certify_s5, numtheory.factor_pattern_mod_p,
             fieldscan.FieldCache.__dict__["__init__"],
             fieldscan.QuinticField.__dict__["extended_fingerprint"])
    assert after == before


def test_tracer_fails_loudly_on_a_missing_name_and_undoes_itself(monkeypatch):
    from quintrank import fieldscan, reps
    original = fieldscan.certify_s5
    monkeypatch.delattr(reps, "find_isomorphism")
    with pytest.raises(tracer.TraceTargetMissing, match="find_isomorphism"):
        tracer.install_layers(tracer.Tracer())
    assert fieldscan.certify_s5 is original


def test_self_time_subtracts_direct_children():
    spans = [[0, -1, "a", 0.0, 10.0], [1, 0, "b", 1.0, 4.0],
             [2, 1, "c", 2.0, 3.0], [3, 0, "b", 5.0, 6.0]]
    s = tracer.summarize(spans)
    assert s["a"] == [1, 10.0, 6.0]
    assert s["b"] == [2, 4.0, 3.0]
    assert s["c"] == [1, 1.0, 1.0]


def test_benchmark_json_matches_the_runner():
    spec = _spec()
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.RESULT_METRICS)
    layer = run.layer_metrics({}, {}, 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(k, u) for k, (_, u) in layer.items()]
