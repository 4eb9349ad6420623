"""Benchmark of abelfrac, end to end and layer by layer.

    python3 benchmarks/run.py --workload {grid-solve,tautochrone,cli,all}
                              --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is taken from ``src/``.
Every workload is a closed loop with one caller in one process: the next
op starts only when the previous one has returned and been checked against
its reference (see ``ops.json`` for the op kinds, references, tolerances
and why each workload is in the mix).

``--trace 0`` starts three fresh interpreters.  Each one imports abelfrac,
builds the seeded inputs and runs one warm-up pass; ``setup_s`` is the
median of their times from spawn to ready.  The last one then runs the
timed loop, which gives the other end-to-end metrics.  ``--trace 1``
starts one interpreter that runs the loop untraced for half the time and
traced for the other half, and reports the per-layer metrics.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable table comes before
it, and the full result, with the machine it ran on, is written to
``benchmarks/results/``.  The exit code is 0 when every op passed, 1 when
an op failed and 2 when the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("grid-solve", "tautochrone", "cli")
SETUP_REPEATS = 3
# a run may take this long per set-up, plus --seconds, plus this much for
# the pass that crosses --seconds; 170 s at the 20 s of BENCHMARK.json
SETUP_ALLOWANCE_S = 30.0
PASS_ALLOWANCE_S = 60.0


class BenchError(RuntimeError):
    pass


def _worker(workload, seed, seconds, trace, setup_only, deadline) -> tuple[float, dict | None]:
    """Start one worker; return (seconds from spawn to READY, its document)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0.0))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError(f"{workload} worker did not get ready (got {line.strip()!r})")
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past the run's time budget")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(out.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    threads = {k: os.environ.get(k, "unset")
               for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas,
        "blas_threads": threads,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    from metrics import END_TO_END, PER_LAYER

    deadline = time.monotonic() + SETUP_REPEATS * SETUP_ALLOWANCE_S + seconds + PASS_ALLOWANCE_S
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(_worker(workload, seed, seconds, trace, True, deadline)[0])
    setup_s, doc = _worker(workload, seed, seconds, trace, False, deadline)
    setups.append(setup_s)
    loop = doc["loop"]
    if trace:
        values = doc["per_layer"]
        table = PER_LAYER
    else:
        values = {k: loop[k] for k in END_TO_END if k in loop}
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = doc["peak_rss_mb"]
        table = END_TO_END
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": loop["failed"] == 0,
        "attempted": loop["attempted"], "failed": loop["failed"],
        "metrics": {k: {"value": values[k], "unit": table[k][0]} for k in table},
        "setup_s_samples": setups,
        "loop": loop,
        "by_kind": doc["by_kind"],
        "failures": doc["failures"],
        "import_ms": doc["import_ms"],
    }


def report(res: dict) -> None:
    print(f"== {res['workload']}  seed {res['seed']}  trace {res['trace']}")
    for name, m in res["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    loop = res["loop"]
    print(f"  op_tail_ms is the p{loop['op_tail_percentile']:.1f} latency of "
          f"{loop['samples']} ops ({loop['op_tail_samples_beyond']} beyond it)")
    print(f"  error_rate {loop['error_rate']:.6g} ({loop['failed']} of {loop['attempted']} ops failed)")
    for kind, k in res["by_kind"].items():
        dig = "-" if k["min_digits"] is None else f"{k['min_digits']:.2f}"
        print(f"    {kind:<24} n={k['count']:<5} p50 {k['p50_ms']:9.2f} ms  "
              f"max err {k['max_err']:.2e}  min digits {dig}  failed {k['failed']}")
    for f in res["failures"]:
        print(f"    FAILED {f['kind']}: err {f['err']:.3e} {f['error'] or ''}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "abelfrac" / "__init__.py").is_file():
        print(f"run.py: no abelfrac package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))

    env = environment()
    results = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            res = run_workload(workload, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 2
        res["environment"] = env
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1))
        report(res)
        results.append(res)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
