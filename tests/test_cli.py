"""The command line is a thin client: these tests pin exit codes, the
JSON schemas, and byte-level determinism of repeated runs."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import unversioned_cache_line

from quintrank import InternalCheckFailed, cli, fieldscan, rankgrowth
from quintrank.cli import main
from quintrank.cocycles import TooLarge
from quintrank.groups import CapExceeded
from quintrank.icosians import StandardRepChecks
from quintrank.numtheory import IntPolynomial
from quintrank.reps import (
    ClosureFailure,
    DimensionOverflow,
    NonIntegral,
    PreconditionViolated,
)

FLAGSHIP_POLY = "1,0,0,0,-1,-1"
CURVE37 = "37a 37 37^1"

CERT_KEYS = {"curve", "field", "admissible", "reasons", "chi", "parity", "growth"}


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _readme_examples():
    """(argv, stdout) for each `$ quintrank ...` line in the README's
    code blocks; its output runs to the next blank line or fence."""
    lines = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ quintrank "):
            out = []
            for nxt in lines[i + 1:]:
                if not nxt.strip() or nxt.startswith("```"):
                    break
                out.append(nxt + "\n")
            examples.append((shlex.split(line)[2:], "".join(out)))
    return examples


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("argv, want", README_EXAMPLES,
                         ids=[argv[0] for argv, _ in README_EXAMPLES])
def test_readme_examples_print_what_they_show(argv, want, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def test_readme_has_examples():
    assert len(README_EXAMPLES) == 3


# -- usage errors -----------------------------------------------------------

def test_no_args_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_unknown_flag_rejected(capsys):
    assert main(["selftest", "--bogus"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "selftest" in capsys.readouterr().out


def test_bad_poly_shape_is_usage_error(capsys):
    assert main(["analyze-field", "--poly", "1,2,3"]) == 2
    assert main(["analyze-field", "--poly", "1,0,0,0,x,1"]) == 2
    # int() would read these as x^5 - x - 10 and x^5 - x - 1
    assert main(["analyze-field", "--poly", "1,0,0,0,-1,-1_0"]) == 2
    assert main(["analyze-field", "--poly", "1,0,0,0,-1,-\u0661"]) == 2


def test_height_out_of_range_is_usage_error(capsys):
    assert main(["scan", "--curve", CURVE37, "--buckets", "100",
                 "--height", "99"]) == 2
    # an Arabic-Indic 1: in range, but not an ASCII decimal
    assert main(["scan", "--curve", CURVE37, "--buckets", "100",
                 "--height", "\u0661"]) == 2


def test_bad_buckets_are_usage_errors(capsys):
    base = ["scan", "--curve", CURVE37, "--height", "1"]
    assert main(base + ["--buckets", "5,3"]) == 2
    assert main(base + ["--buckets", "0"]) == 2
    assert main(base + ["--buckets", "ten"]) == 2
    assert main(base + ["--buckets", "1_000,100000"]) == 2


def test_certify_requires_exactly_one_curve_source(capsys):
    assert main(["certify", "--poly", FLAGSHIP_POLY]) == 2
    assert main(["certify", "--poly", FLAGSHIP_POLY, "--curve", CURVE37,
                 "--curve-file", "sample"]) == 2


def test_scan_requires_field_source(capsys):
    assert main(["scan", "--curve", CURVE37, "--buckets", "100"]) == 2


# -- certify ----------------------------------------------------------------

def test_certify_flagship_pair(capsys):
    assert main(["certify", "--curve", CURVE37, "--poly", FLAGSHIP_POLY]) == 0
    out = capsys.readouterr().out
    cert = json.loads(out)
    assert set(cert) == CERT_KEYS
    assert cert["curve"] == "37a"
    assert cert["field"] == "x^5 - x - 1"
    assert cert["admissible"] is True
    assert cert["reasons"] == []
    assert cert["chi"] == -1
    assert cert["parity"] == "Odd"
    assert cert["growth"] == "Certified"


def test_certify_matches_library(capsys):
    assert main(["certify", "--curve", "91a 91 7^1 13^1",
                 "--poly", FLAGSHIP_POLY]) == 0
    out = capsys.readouterr().out
    curve = rankgrowth.CurveData.parse("91a 91 7^1 13^1")
    field = fieldscan.QuinticField(
        IntPolynomial.descending([1, 0, 0, 0, -1, -1]))
    want = rankgrowth.certify_pair(curve, field).to_json_dict()
    assert out == canonical(want)


def test_certify_curve_file(tmp_path, capsys):
    path = tmp_path / "curves.txt"
    path.write_text("# two curves\n\n37a 37 37^1\n43a 43 43^1\n")
    assert main(["certify", "--curve-file", str(path),
                 "--poly", FLAGSHIP_POLY]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    labels = [json.loads(l)["curve"] for l in lines]
    assert labels == ["37a", "43a"]


def test_certify_bundled_sample(capsys):
    assert main(["certify", "--curve-file", "sample",
                 "--poly", FLAGSHIP_POLY]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) >= 8
    certs = [json.loads(l) for l in lines]
    assert all(set(c) == CERT_KEYS for c in certs)
    assert any(c["growth"] == "Certified" for c in certs)


def test_certify_bad_curve_spec_is_data_error(capsys):
    assert main(["certify", "--curve", "37a 37", "--poly", FLAGSHIP_POLY]) == 3
    assert capsys.readouterr().err == \
        "error: factorization gives 1, conductor says 37\n"
    assert main(["certify", "--curve", "37a 3_7 37^1",
                 "--poly", FLAGSHIP_POLY]) == 3
    assert capsys.readouterr() == ("", "error: expected an integer, got '3_7'\n")


def test_certify_missing_curve_file_is_data_error(capsys):
    assert main(["certify", "--curve-file", "/no/such/file",
                 "--poly", FLAGSHIP_POLY]) == 3
    assert capsys.readouterr().err == (
        "error: cannot read curve file: [Errno 2] No such file or directory: "
        "'/no/such/file'\n")


def test_certify_non_admissible_still_exits_zero(capsys):
    assert main(["certify", "--curve", "14a 14 2^1 7^1",
                 "--poly", FLAGSHIP_POLY]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["admissible"] is False
    assert "EvenConductor" in cert["reasons"]
    assert cert["growth"] == "Unknown"


# -- failures inside a command -----------------------------------------------

def test_parity_cross_check_failure_exits_one(capsys, monkeypatch):
    # make the prime-by-prime and one-shot symbols over N- = 91 disagree
    monkeypatch.setattr(rankgrowth, "kronecker_symbol",
                        lambda a, n: -1 if n == 91 else 1)
    assert main(["certify", "--curve", "91a 91 7^1 13^1",
                 "--poly", FLAGSHIP_POLY]) == 1
    assert capsys.readouterr().err.startswith(
        "internal check failed: parity cross-check failed")


def test_false_merge_exits_one(capsys, monkeypatch):
    # every merge now looks unproven and splits differently at the audit
    monkeypatch.setattr(fieldscan, "_provably_same_field", lambda a, b: False)
    monkeypatch.setattr(fieldscan.QuinticField, "extended_fingerprint",
                        property(lambda self: self.coeffs))
    assert main(["scan", "--curve", CURVE37, "--height", "1",
                 "--buckets", "100000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal check failed:")
    assert "share a fingerprint" in err


@pytest.mark.parametrize("error, code", [
    (InternalCheckFailed("stub"), 1),
    (fieldscan.FalseMergeError("stub"), 1),
    (PreconditionViolated("stub"), 3),
    (DimensionOverflow("stub"), 3),
    (fieldscan.NotSeparable("stub"), 3),
    (RuntimeError("stub"), 3),
    (TooLarge("stub"), 3),
    (CapExceeded("stub"), 3),
    (ValueError("stub"), 3),
    (ClosureFailure("stub"), 1),
    (NonIntegral("stub"), 1),
])
def test_failure_exit_codes(error, code, capsys, monkeypatch):
    def fail(args):
        raise error
    monkeypatch.setattr(cli, "_cmd_h2", fail)
    assert main(["h2"]) == code
    prefix = "internal check failed: " if code == 1 else "error: "
    assert capsys.readouterr().err == f"{prefix}{error}\n"


# -- analyze-field ----------------------------------------------------------

def test_analyze_field_flagship_json(capsys):
    assert main(["analyze-field", "--poly", FLAGSHIP_POLY, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {
        "label", "polynomial", "coeffs", "disc", "signature",
        "fundamental_disc", "resolvent_complete", "resolvent_degenerate",
        "galois_status", "five_cycle_witness", "transposition_witness",
        "primes_scanned"}
    assert report["coeffs"] == [1, 0, 0, 0, -1, -1]
    assert report["disc"] == 2869
    assert report["signature"] == {"real": 1, "complex_pairs": 2}
    assert report["fundamental_disc"] == 2869
    assert report["resolvent_complete"] is True
    assert report["resolvent_degenerate"] is False
    assert report["galois_status"] == "Certified"
    assert report["five_cycle_witness"] is not None
    assert report["transposition_witness"] is not None


@pytest.mark.parametrize("poly, out", [
    # x (x^4 + 1) never shows a transposition, so every prime is read
    ("1,0,0,0,1,0",
     '{"coeffs":[1,0,0,0,1,0],"disc":256,"five_cycle_witness":null,'
     '"fundamental_disc":1,"galois_status":"Inconclusive","label":"x^5 + x",'
     '"polynomial":"x^5 + x","primes_scanned":199,"resolvent_complete":true,'
     '"resolvent_degenerate":true,"signature":{"complex_pairs":2,"real":1},'
     '"transposition_witness":null}\n'),
    # the integer roots stop the scan at 3, but the count covers the budget
    ("1,0,0,0,-1,0",
     '{"coeffs":[1,0,0,0,-1,0],"disc":-256,"five_cycle_witness":null,'
     '"fundamental_disc":-4,"galois_status":"Inconclusive","label":"x^5 - x",'
     '"polynomial":"x^5 - x","primes_scanned":199,"resolvent_complete":true,'
     '"resolvent_degenerate":false,"signature":{"complex_pairs":1,"real":3},'
     '"transposition_witness":3}\n'),
])
def test_analyze_field_rooted_quintic_json_is_pinned(poly, out, capsys):
    assert main(["analyze-field", "--poly", poly, "--json"]) == 0
    assert capsys.readouterr() == (out, "")


def test_analyze_field_label_flag(capsys):
    assert main(["analyze-field", "--poly", FLAGSHIP_POLY,
                 "--label", "f37", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["label"] == "f37"


def test_analyze_field_repeated_root_is_data_error(capsys):
    assert main(["analyze-field", "--poly", "1,0,0,0,0,0"]) == 3
    assert capsys.readouterr() == ("", "error: x^5 has a repeated root\n")


def test_analyze_field_non_monic_is_data_error(capsys):
    assert main(["analyze-field", "--poly", "2,0,0,0,-1,-1"]) == 3
    assert capsys.readouterr() == ("", "error: expected a monic quintic\n")


# -- selftest ---------------------------------------------------------------

def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "6/6 checks passed" in out
    assert "FAIL" not in out


SELFTEST_JSON = (
    '{"checks":['
    '{"detail":"65 symbols against residue enumeration",'
    '"name":"kronecker symbols","passed":true},'
    '{"detail":"x^5 - x - 1 and 3 trinomials match closed forms",'
    '"name":"quintic discriminants","passed":true},'
    '{"detail":"identity holds on 24^3 triples, class nontrivial",'
    '"name":"degree-4 double cover cocycle","passed":true},'
    '{"detail":"h2(S4)=2, h2(A4)=1, h1(A5)=0",'
    '"name":"cohomology dimensions","passed":true},'
    '{"detail":"4/4 checks",'
    '"name":"tensor-induced standard representation","passed":true},'
    '{"detail":"conductor-37 curve certified over x^5 - x - 1",'
    '"name":"flagship parity certificate","passed":true}],'
    '"passed":true}\n'
)


def test_selftest_json_two_runs_byte_identical(capsys):
    assert main(["selftest", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["selftest", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second == SELFTEST_JSON


def test_selftest_failure_exits_one(capsys, monkeypatch):
    fake = StandardRepChecks((True, False, True, True), 239, 240)
    monkeypatch.setattr("quintrank.icosians.standard_rep_checks",
                        lambda: fake)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  tensor-induced standard representation: 3/4 checks" in out


# -- standard-rep -----------------------------------------------------------

def test_standard_rep_text_shows_character_matches(capsys):
    assert main(["standard-rep"]) == 0
    out = capsys.readouterr().out
    assert "(240/240 matches)" in out
    assert "4/4 checks passed" in out


def test_standard_rep_json_schema(capsys):
    assert main(["standard-rep", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_pass"] is True
    char = [c for c in report["checks"] if "matched" in c]
    assert len(char) == 1
    assert char[0]["matched"] == char[0]["total"] == 240


def test_standard_rep_failure_exits_one(capsys, monkeypatch):
    fake = {"checks": [{"name": "stub", "expected": "x", "computed": "y",
                        "passed": False}], "all_pass": False}
    monkeypatch.setattr("quintrank.reps.verify_standard_rep", lambda: fake)
    assert main(["standard-rep"]) == 1


# -- h2 ---------------------------------------------------------------------

H2_JSON = (
    '{"double_cover":{"class_A5_restriction":"nontrivial",'
    '"class_S5":"nontrivial","cocycle_identity":true},'
    '"h1":{"A5":0,"S5":1},"h2":{"A4":1,"S4":2}}\n'
)


def test_h2_reports_dimensions_and_classes(capsys):
    assert main(["h2", "--json"]) == 0
    assert capsys.readouterr().out == H2_JSON


# -- scan -------------------------------------------------------------------

def test_scan_enumeration_matches_library(capsys):
    argv = ["scan", "--curve", CURVE37, "--height", "1",
            "--buckets", "3000,100000", "--json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    curve = rankgrowth.CurveData.parse(CURVE37)
    report = fieldscan.scan(curve, fieldscan.enumerate_quintics(1, 100000),
                            [3000, 100000])
    assert out == canonical(report.to_json_dict())
    payload = json.loads(out)
    assert payload["curve"] == "37a"
    b = payload["buckets"]
    assert [x["X"] for x in b] == [3000, 100000]
    assert b[0]["total"] <= b[1]["total"]
    assert all(x["odd"] <= x["admissible"] <= x["total"] for x in b)
    assert b[1]["admissible"] > 0


def test_scan_two_runs_byte_identical(capsys):
    argv = ["scan", "--curve", CURVE37, "--height", "1",
            "--buckets", "3000,100000", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_scan_ingest_reports_bad_rows_and_continues(tmp_path, capsys):
    table = tmp_path / "fields.csv"
    table.write_text("label,a5,a4,a3,a2,a1,a0\n"
                     "flagship,1,0,0,0,-1,-1\n"
                     "short,1,2\n"
                     "threereal,1,0,0,0,-4,2\n")
    assert main(["scan", "--curve", CURVE37, "--fields", str(table),
                 "--buckets", "3000,300000", "--json"]) == 0
    captured = capsys.readouterr()
    assert "row 3 skipped" in captured.err
    payload = json.loads(captured.out)
    assert payload["buckets"][-1]["total"] == 2
    assert payload["buckets"][-1]["admissible"] == 1


def test_scan_jsonl_reports_malformed_rows_and_exits_zero(tmp_path, capsys):
    table = tmp_path / "fields.jsonl"
    bad = ['[1,0,0,0,-1,-1]', '"x"', '{"coeffs":5}',
           '{"coeffs":[1,0,0,0,-1,null]}', '{"coeffs":[1,0,0,0,-1,-1.5]}',
           '{"coeffs":[true,0,0,0,-1,-1]}']
    table.write_text('{"label":"flagship","coeffs":[1,0,0,0,-1,-1]}\n'
                     + "\n".join(bad) + "\n")
    assert main(["scan", "--curve", CURVE37, "--fields", str(table),
                 "--format", "jsonl", "--buckets", "3000", "--json"]) == 0
    captured = capsys.readouterr()
    for lineno in range(2, 2 + len(bad)):
        assert f"row {lineno} skipped" in captured.err
    assert json.loads(captured.out)["buckets"][0]["total"] == 1


def test_scan_missing_table_is_data_error(capsys):
    assert main(["scan", "--curve", CURVE37, "--fields", "/no/such.csv",
                 "--buckets", "100"]) == 3
    assert capsys.readouterr() == (
        "", "error: [Errno 2] No such file or directory: '/no/such.csv'\n")


def test_scan_with_cache_is_stable(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    argv = ["scan", "--curve", CURVE37, "--height", "1",
            "--buckets", "3000,100000", "--cache", str(cache), "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert cache.exists() and cache.stat().st_size > 0
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_scan_reports_corrupt_cache_lines_on_stderr(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    argv = ["scan", "--curve", CURVE37, "--height", "1",
            "--buckets", "3000,100000", "--cache", str(cache), "--json"]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert first.err == ""
    cold = cache.read_text(encoding="utf-8")
    lines = cold.splitlines(keepends=True)
    for i in range(7):
        lines[i] = lines[i].replace('"disc":', '"disc":1', 1)
    cache.write_text("".join(lines), encoding="utf-8")
    assert main(argv) == 0
    again = capsys.readouterr()
    assert again.out == first.out
    assert again.err == (f"cache {cache}: 7 corrupt lines skipped "
                         f"(lines 1, 2, 3, 4, 5, ...)\n")
    # that load rewrote the file with one line per record, so the
    # corrupt lines are reported once and re-derived records not doubled
    assert main(argv) == 0
    third = capsys.readouterr()
    assert third == (first.out, "")
    warm = cache.read_text(encoding="utf-8")
    assert sorted(warm.splitlines()) == sorted(cold.splitlines())


def test_scan_reads_a_cache_in_the_unversioned_layout(tmp_path, capsys):
    # every line of the layout before the version key is stale: stdout is
    # that of a scan without a cache, stderr names the lines, and the
    # load leaves only lines of this version in the file
    cache = tmp_path / "cache.jsonl"
    argv = ["scan", "--curve", CURVE37, "--height", "1",
            "--buckets", "3000,100000", "--json"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--cache", str(cache)]) == 0
    assert capsys.readouterr() == plain
    current = cache.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in current]
    cache.write_text("".join(map(unversioned_cache_line, records)),
                     encoding="utf-8")
    assert main(argv + ["--cache", str(cache)]) == 0
    stale = capsys.readouterr()
    assert stale.out == plain.out and len(records) > 5
    assert stale.err == (f"cache {cache}: {len(records)} stale lines skipped "
                         f"(lines 1, 2, 3, 4, 5, ...)\n")
    after = cache.read_text(encoding="utf-8").splitlines()
    assert {json.loads(line)["version"] for line in after} \
        == {fieldscan.CACHE_VERSION}
    assert sorted(after) == sorted(current)
    assert main(argv + ["--cache", str(cache)]) == 0
    assert capsys.readouterr() == plain


def _python(code: str, **env) -> str:
    """Stdout of `code` run in a fresh interpreter on this source tree;
    env sets variables, and a value of None unsets one."""
    src = str(Path(cli.__file__).resolve().parents[1])
    full = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, value in env.items():
        if value is None:
            full.pop(name, None)
        else:
            full[name] = value
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=full, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_scan_path_imports_no_numpy():
    assert _python("import sys, quintrank.cli; "
                   "print('numpy' in sys.modules)") == "False\n"


SCAN_STACK = {"quintrank.fieldscan", "quintrank.rankgrowth",
              "quintrank.numtheory"}
OPENSSL = {"hashlib", "_hashlib"}


def _modules_after(code: str) -> set[str]:
    """The names in sys.modules once `code` has run in a fresh
    interpreter."""
    out = _python(f"import json, sys; {code}; "
                  "print(json.dumps(sorted(sys.modules)))")
    return set(json.loads(out.splitlines()[-1]))


def test_cli_import_loads_neither_the_scan_stack_nor_numpy():
    loaded = _modules_after("import quintrank.cli")
    assert "quintrank.cli" in loaded
    assert not loaded & (SCAN_STACK | OPENSSL
                         | {"numpy", "quintrank.icosians"})


@pytest.mark.parametrize("command", ["h2", "standard-rep"])
def test_algebra_commands_load_no_scan_module(command):
    loaded = _modules_after(
        f"from quintrank.cli import main; main([{command!r}, '--json'])")
    assert "quintrank.cocycles" in loaded
    assert not loaded & SCAN_STACK


@pytest.mark.parametrize("argv", [
    ["scan", "--curve", CURVE37, "--height", "1", "--buckets", "3000,100000"],
    ["certify", "--curve", CURVE37, "--poly", FLAGSHIP_POLY],
    ["analyze-field", "--poly", FLAGSHIP_POLY],
    ["selftest"],
    None,
], ids=lambda argv: argv[0] if argv else "import-fieldscan")
def test_commands_without_a_cache_leave_openssl_unloaded(argv):
    # None stands for a bare import of the scan stack
    loaded = _modules_after("import quintrank.fieldscan" if argv is None else
                            f"from quintrank.cli import main; main({argv!r})")
    assert "quintrank.fieldscan" in loaded
    assert not loaded & OPENSSL
    # the scan stack's records are tuples, not dataclasses
    assert not loaded & {"dataclasses", "inspect"}


def test_scan_with_a_cache_loads_hashlib(tmp_path):
    argv = ["scan", "--curve", CURVE37, "--height", "1",
            "--buckets", "3000,100000", "--cache", str(tmp_path / "c.jsonl")]
    loaded = _modules_after(f"from quintrank.cli import main; main({argv!r})")
    assert "hashlib" in loaded


def test_h2_prints_its_reference_output_without_numpy():
    # an import of numpy anywhere on the h2 path raises ImportError
    ref = json.loads((Path(__file__).parents[1] / "bench" / "data"
                      / "reference.json").read_text(encoding="utf-8"))
    out = _python("import sys; sys.modules['numpy'] = None; "
                  "from quintrank.cli import main; "
                  "sys.exit(main(['h2', '--json']))")
    assert out == ref["algebra"]["h2"]["stdout"]


def test_selftest_prints_its_reference_output_without_numpy():
    # the standard-rep checks of selftest are decided in Z[phi]
    ref = json.loads((Path(__file__).parents[1] / "bench" / "data"
                      / "reference.json").read_text(encoding="utf-8"))
    out = _python("import sys; sys.modules['numpy'] = None; "
                  "from quintrank.cli import main; "
                  "sys.exit(main(['selftest', '--json']))")
    assert out == ref["algebra"]["selftest"]["stdout"]


def test_selftest_loads_neither_numpy_nor_reps():
    loaded = _modules_after(
        "from quintrank.cli import main; main(['selftest', '--json'])")
    assert "quintrank.icosians" in loaded
    assert not loaded & {"numpy", "dataclasses", "inspect", "quintrank.reps"}


def test_h2_loads_neither_numpy_nor_dataclasses():
    loaded = _modules_after(
        "from quintrank.cli import main; main(['h2', '--json'])")
    assert "quintrank.cocycles" in loaded
    assert not loaded & {"numpy", "dataclasses", "inspect", "quintrank.reps",
                         "quintrank.fieldscan"}


# the threads of this process once standard-rep has imported numpy (1
# where the platform cannot list them), then OPENBLAS_NUM_THREADS as
# main left it; h2 imports no numpy, so it could not show either
STANDARD_REP_THEN_BLAS_SETTING = (
    "import os; from quintrank.cli import main; "
    "main(['standard-rep', '--json']); "
    "tasks = '/proc/self/task'; "
    "print(len(os.listdir(tasks)) if os.path.isdir(tasks) else 1, "
    "os.environ.get('OPENBLAS_NUM_THREADS'))")


def test_cli_starts_numpy_with_one_openblas_thread():
    out = _python(STANDARD_REP_THEN_BLAS_SETTING, OPENBLAS_NUM_THREADS=None)
    assert out.splitlines()[-1] == "1 None"


def test_cli_keeps_an_openblas_thread_count_the_user_set():
    out = _python(STANDARD_REP_THEN_BLAS_SETTING, OPENBLAS_NUM_THREADS="3")
    assert out.splitlines()[-1].split()[1] == "3"


@pytest.mark.parametrize("setting", [None, "3"])
@pytest.mark.parametrize("argv, code", [
    (["analyze-field", "--poly", FLAGSHIP_POLY], 0),
    (["analyze-field", "--poly", "1,0,0,0,0,0"], 3),
    (["no-such-command"], 2),
], ids=["ok", "bad-input", "usage"])
def test_main_leaves_the_environment_as_it_found_it(monkeypatch, capsys,
                                                    argv, code, setting):
    # in-process calls, as the suite makes, must not hand one BLAS
    # thread to the subprocesses of later tests
    if setting is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", setting)
    before = dict(os.environ)
    assert main(argv) == code
    assert dict(os.environ) == before


@pytest.mark.parametrize("command", ["selftest", "h2", "standard-rep"])
def test_algebra_json_does_not_depend_on_the_openblas_threads(command):
    code = ("import sys; from quintrank.cli import main; "
            f"sys.exit(main([{command!r}, '--json']))")
    assert _python(code, OPENBLAS_NUM_THREADS=None) \
        == _python(code, OPENBLAS_NUM_THREADS="2")


def test_standard_rep_leaves_numpy_ma_unimported():
    def loads_numpy_ma(code):
        out = _python(f"import sys; {code}; print('numpy.ma' in sys.modules)")
        return out.splitlines()[-1] == "True"

    if loads_numpy_ma("import numpy"):
        pytest.skip("this numpy imports numpy.ma on import")
    assert not loads_numpy_ma("from quintrank.cli import main; "
                              "main(['standard-rep', '--json'])")
