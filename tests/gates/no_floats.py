"""Fail when an exact algebra module touches floating point.

    python tests/gates/no_floats.py

Run from the root of the repository.  groups, cocycles, icosians and
galois decide in exact arithmetic (galois holds the S5 verdict and both
of its reducibility proofs): none of them may hold a float or complex
literal, import math or numpy, or call float.  It prints one line per
finding, path:line and what was found, and exits 1 when there is any.
"""

import ast
import pathlib
import sys

MODULES = ("groups.py", "cocycles.py", "icosians.py", "galois.py")


def findings(package: pathlib.Path) -> list[str]:
    """One line per float literal, math or numpy import and float call
    in the exact modules of the package directory."""
    found = []
    for name in MODULES:
        path = package / name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path}:{node.lineno}: float constant {node.value!r}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = ([alias.name for alias in node.names]
                           if isinstance(node, ast.Import) else [node.module or ""])
                found += [f"{path}:{node.lineno}: imports {module}"
                          for module in modules
                          if module.split(".")[0] in ("math", "numpy")]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                found.append(f"{path}:{node.lineno}: calls float")
    return found


def main() -> int:
    found = findings(pathlib.Path("src/quintrank"))
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
