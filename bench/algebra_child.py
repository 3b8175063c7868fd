"""Run one quintrank command in this interpreter, optionally traced.

    python3 bench/algebra_child.py <command> [args...]

Untraced, this is ``quintrank <command> [args...]`` run from the source
tree.  With BENCH_TRACE_OUT set, the layer wrappers are installed before
``cli.main`` runs, and the spans, counters and start-up time (from
BENCH_LAUNCH_TIME, the parent's wall clock at launch) are written to
that file when the command ends.  Stdout and the exit code are the
command's own in both cases.
"""

import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from quintrank import cli  # noqa: E402


def main() -> int:
    out = os.environ.get("BENCH_TRACE_OUT")
    if not out:
        return cli.main(sys.argv[1:])
    startup_s = time.time() - float(os.environ["BENCH_LAUNCH_TIME"])
    sys.path.insert(0, str(BENCH))
    import tracer
    tr = tracer.Tracer()
    tracer.install_layers(tr)
    try:
        with tr.span("cli.main"):
            code = cli.main(sys.argv[1:])
    finally:
        tr.restore()
    tr.dump(out, {"startup_s": startup_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
