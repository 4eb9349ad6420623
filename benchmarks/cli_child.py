"""Run one abelfrac CLI command in this interpreter.

    python3 cli_child.py SPANS -- ARGS...

SPANS is ``-`` for a plain run.  Otherwise it is a path: the command runs
with the wrappers of tracer.py installed, and the spans are saved there
together with the import time, main's wall time and the rule-cache counters.
The exit code is the command's.
"""

import sys
import time


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py SPANS -- ARGS...")
    if spans_path == "-":
        from abelfrac.cli import main as cli_main

        return cli_main(argv)

    t0 = time.perf_counter()
    import abelfrac.cli

    import_ms = (time.perf_counter() - t0) * 1e3
    import json

    import numpy as np

    import tracer

    with tracer.Tracer() as tr:
        t0 = time.perf_counter()
        code = abelfrac.cli.main(argv)
        main_ms = (time.perf_counter() - t0) * 1e3
    sys.stdout.flush()
    info = abelfrac.quadrature._jacobi_rule.cache_info()
    meta = {"command": argv[0], "import_ms": import_ms, "main_ms": main_ms,
            "jacobi_hits": info.hits, "jacobi_misses": info.misses}
    np.savez(spans_path, meta=json.dumps(meta), **tr.arrays())
    return code


if __name__ == "__main__":
    sys.exit(main())
