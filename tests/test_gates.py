"""The CI gates under tests/gates, run on small git repositories."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
VERSION_BUMP = ROOT / "tests" / "gates" / "cache_version_bump.py"
DIGESTS = "tests/test_fieldscan.py"
VERSION = "src/quintrank/fieldscan.py"
# no GIT_DIR or the like from a calling git process
ENV = {k: v for k, v in os.environ.items() if not k.startswith("GIT_")}


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=gate", "-c", "user.email=gate@test",
                    "-c", "commit.gpgsign=false", *args],
                   cwd=repo, env=ENV, check=True, capture_output=True)


def literal(path, name):
    """What the module at path assigns to name, read with ast."""
    return next(ast.literal_eval(node.value)
                for node in ast.parse(path.read_text(encoding="utf-8")).body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == name)


def replace_in(path, old, new):
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")


def version_bump_gate(repo, base):
    return subprocess.run([sys.executable, str(VERSION_BUMP)], cwd=repo,
                          env=dict(ENV, BASE_REF=base),
                          capture_output=True, text=True)


@pytest.fixture
def repo(tmp_path):
    """A git repository whose one commit holds this tree's record digests
    and CACHE_VERSION."""
    for rel in (DIGESTS, VERSION):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_bytes((ROOT / rel).read_bytes())
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "base")
    return tmp_path


def test_version_bump_gate_passes_an_unchanged_tree(repo):
    proc = version_bump_gate(repo, "HEAD")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in ("ALL", "PINNED", "UNVERSIONED"):
        assert f"{name}_RECORDS_SHA256" in proc.stdout


@pytest.mark.parametrize("bump", [False, True], ids=["no-bump", "bump"])
@pytest.mark.parametrize("name", ["ALL_RECORDS_SHA256", "PINNED_RECORDS_SHA256",
                                  "UNVERSIONED_RECORDS_SHA256"])
def test_version_bump_gate_wants_a_bump_for_each_repinned_digest(
        repo, name, bump):
    replace_in(repo / DIGESTS, literal(repo / DIGESTS, name), "0" * 64)
    if bump:
        version = literal(repo / VERSION, "CACHE_VERSION")
        replace_in(repo / VERSION, f"CACHE_VERSION = {version}",
                   f"CACHE_VERSION = {version + 1}")
    git(repo, "commit", "-q", "-am", "re-pin")
    proc = version_bump_gate(repo, "HEAD~1")
    assert proc.returncode == (0 if bump else 1), proc.stdout + proc.stderr
    if not bump:
        assert f"::error::{name} changed, but CACHE_VERSION did not grow" \
            in proc.stdout
