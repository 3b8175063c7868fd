"""Fail when a cache record digest was re-pinned without a CACHE_VERSION
bump.

    BASE_REF=<git revision> python tests/gates/cache_version_bump.py

Run from the root of the repository.  It reads, with ast and without
importing either module, every module-level constant of
tests/test_fieldscan.py whose name ends in _RECORDS_SHA256
(ALL_RECORDS_SHA256, PINNED_RECORDS_SHA256, UNVERSIONED_RECORDS_SHA256)
and CACHE_VERSION in src/quintrank/fieldscan.py, at the revision in
BASE_REF (FETCH_HEAD in CI; main, say, locally) and in the work tree.
It exits 1 when some digest changed and the version did not grow: the
cache's four-way CI step starts from a fresh cache, so it cannot see a
record layout that changed under an old version.
"""

import ast
import os
import subprocess
import sys

DIGESTS = "tests/test_fieldscan.py"
VERSION = "src/quintrank/fieldscan.py"


def constants(path, suffix, rev=None) -> dict:
    """The literals, by name, that the module at path assigns at module
    level to the names ending in suffix, read from the work tree or
    from git revision rev."""
    if rev is None:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = subprocess.run(["git", "show", f"{rev}:{path}"],
                              capture_output=True, check=True,
                              text=True).stdout
    found = {target.id: ast.literal_eval(node.value)
             for node in ast.parse(text).body if isinstance(node, ast.Assign)
             for target in node.targets
             if isinstance(target, ast.Name) and target.id.endswith(suffix)}
    if not found:
        sys.exit(f"{path} at {rev or 'the work tree'} assigns no *{suffix}")
    return found


def pins(rev=None) -> tuple[int, dict]:
    """CACHE_VERSION and the record digests by name, at git revision
    rev or in the work tree."""
    version = constants(VERSION, "CACHE_VERSION", rev)["CACHE_VERSION"]
    return version, constants(DIGESTS, "_RECORDS_SHA256", rev)


def main() -> int:
    base = os.environ["BASE_REF"]
    (old_version, old), (new_version, new) = pins(base), pins()
    for where, version, digests in ((base, old_version, old),
                                    ("work tree", new_version, new)):
        listed = ", ".join(f"{name} {digest[:12]}..."
                           for name, digest in sorted(digests.items()))
        print(f"{where}: {listed}, CACHE_VERSION {version}")
    changed = sorted(name for name in old.keys() | new.keys()
                     if old.get(name) != new.get(name))
    if changed and not new_version > old_version:
        print(f"::error::{', '.join(changed)} changed, but CACHE_VERSION "
              f"did not grow past {old_version}: a cache written by {base} "
              "would be served as if its records were current")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
