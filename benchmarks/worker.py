"""One benchmark process: set up a workload, then run it in a closed loop.

Started by run.py in a fresh interpreter with ``src`` on the path.  It
prints ``READY`` once set-up is done (import, input generation, references
and one warm-up pass), then, unless ``--setup-only``, runs the timed loop
and prints one JSON document.  With ``--trace 1`` the loop time is split:
an untraced half, then a traced half whose spans give the per-layer
metrics; every wrapper is removed again before the document is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import metrics
import tracer
import workloads

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"


def run_loop(ops, seconds: float) -> tuple[list, list]:
    """Run whole passes over ``ops``, one op at a time, until ``seconds``
    have gone by (at least one pass).  Every op is checked after it returns.
    Returns the op records and the wall time of each pass."""
    recs = []
    passes = []
    t0 = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for op in ops:
            error = None
            start = time.perf_counter()
            try:
                raw = op.run()
            except Exception:  # a failed op is counted, not fatal
                raw, error = None, traceback.format_exc(limit=-3)
            latency = time.perf_counter() - start
            ok, err, dig, extras = False, math.inf, None, {}
            if error is None:
                try:
                    ok, err, dig, extras = workloads.check(op, raw)
                except Exception:
                    error = traceback.format_exc(limit=-3)
            recs.append({"kind": op.kind, "latency_s": latency, "ok": ok, "err": err,
                         "digits": dig, "extras": extras, "error": error,
                         "points": op.points, "cells": op.cells})
        now = time.perf_counter()
        passes.append(now - t_pass)
        if now - t0 >= seconds:
            return recs, passes


def build(workload: str, seed: int, work_dir: Path, runner):
    """(ops, import_ms, abelfrac module or None)."""
    if workload == "cli":
        return workloads.cli_ops(seed, runner, work_dir), 0.0, None
    t0 = time.perf_counter()
    import abelfrac as af
    import_ms = (time.perf_counter() - t0) * 1e3
    make = workloads.grid_solve_ops if workload == "grid-solve" else workloads.tautochrone_ops
    return make(seed, af), import_ms, af


def _extras(recs, key):
    for r in recs:
        v = r["extras"].get(key)
        if v is not None:
            yield from (v if isinstance(v, list) else [v])


def _span_metrics(spans: dict, recs, npass: int) -> dict:
    """calls/self_ms per layer and per listed function, per pass of the
    traced half (which runs as many whole passes as fit its time, so totals
    would measure the time budget), and the throughputs."""
    summary = tracer.summarize(spans)
    out = {}
    layer_of = {n: n.split(".")[0] for n in summary}
    for layer in tracer.LAYERS:
        rows = [v for n, v in summary.items() if layer_of[n] == layer]
        out[f"{layer}.calls"] = sum(v["calls"] for v in rows) / npass
        out[f"{layer}.self_ms"] = sum(v["self_s"] for v in rows) * 1e3 / npass
    for name in metrics.SPAN_FUNCTIONS:
        v = summary.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = v["calls"] / npass
        out[f"{name}.self_ms"] = v["self_s"] * 1e3 / npass
    solver_s = tracer.layer_total(spans, "abel_solver")
    points = sum(r["points"] for r in recs)
    out["abel_solver.points_per_s"] = points / solver_s if solver_s > 0 else 0.0
    curve_s = summary.get("tautochrone.reconstruct_curve", {"total_s": 0.0})["total_s"]
    cells = sum(r["cells"] for r in recs)
    out["tautochrone.reconstruct_curve.cells_per_s"] = cells / curve_s if curve_s > 0 else 0.0
    for check in metrics.VERIFY_CHECKS:
        v = summary.get(f"verify.{check}", {"calls": 0, "total_s": 0.0})
        out[f"verify.{check}.ms"] = v["total_s"] / v["calls"] * 1e3 if v["calls"] else 0.0
    return out, summary


def per_layer(workload, recs_u, passes_u, recs_t, passes_t, spans, import_ms, setup_ms,
              setup_rules, child_meta):
    recs = recs_u + recs_t
    npass = len(passes_t)
    out, summary = _span_metrics(spans, recs_t, npass)
    first = list(_extras(recs, "first_node_rel_err"))
    out["abel_solver.tabulated.first_node_rel_err"] = max(first) if first else 0.0
    # every pass runs the same descents, so this is the sum over one pass
    steps = sum(_extras(recs, "steps"))
    out["tautochrone.descent.steps"] = steps / (len(passes_u) + len(passes_t))
    resid = list(_extras(recs, "max_residual"))
    out["tautochrone.descent.max_residual"] = max(resid) if resid else 0.0
    for cmd in metrics.CLI_COMMANDS:
        out[f"cli.main_ms.{cmd}"] = 0.0
    # rule-cache counters cover cold-start work: every fresh CLI process of
    # one pass, or the set-up (import to ready) of an in-process workload;
    # warm passes add hits but no misses
    if workload == "cli":
        n = len(child_meta)
        out["quadrature.jacobi_rule.misses"] = sum(m["jacobi_misses"] for m in child_meta) / npass
        out["quadrature.jacobi_rule.hits"] = sum(m["jacobi_hits"] for m in child_meta) / npass
        out["cli.import_ms"] = statistics.mean(m["import_ms"] for m in child_meta)
        out["cli.import_share"] = (sum(m["import_ms"] for m in child_meta)
                                   / sum(m["wall_ms"] for m in child_meta))
        out["cli.emit_ms"] = summary.get("cli.emit", {"total_s": 0.0})["total_s"] * 1e3 / n
        out["cli.output_bytes"] = statistics.mean(m["output_bytes"] for m in child_meta)
        for cmd in metrics.CLI_COMMANDS:
            ms = [m["main_ms"] for m in child_meta if m["command"] == cmd]
            out[f"cli.main_ms.{cmd}"] = statistics.mean(ms) if ms else 0.0
    else:
        out["quadrature.jacobi_rule.misses"] = setup_rules.misses
        out["quadrature.jacobi_rule.hits"] = setup_rules.hits
        out["cli.import_ms"] = import_ms
        out["cli.import_share"] = import_ms / setup_ms
        out["cli.emit_ms"] = 0.0
        out["cli.output_bytes"] = 0.0
    ops_u = metrics.ops_per_s(len(recs_u), passes_u)
    ops_t = metrics.ops_per_s(len(recs_t), passes_t)
    out["trace.ops_per_s_untraced"] = ops_u
    out["trace.ops_per_s_traced"] = ops_t
    out["trace.overhead"] = ops_u / ops_t - 1.0
    out["trace.spans"] = spans["name"].size / npass
    return out


def _merge_child_spans(paths) -> tuple[dict, list]:
    """Concatenate the spans files of traced CLI children; parent indices
    are shifted so each child's spans keep their own tree."""
    names: list[str] = []
    parts = {"name": [], "parent": [], "start": [], "end": [], "proc": []}
    meta = []
    offset = 0
    for proc, path in enumerate(paths):
        with np.load(path) as z:
            for n in z["names"]:
                if str(n) not in names:
                    names.append(str(n))
            ids = np.array([names.index(str(n)) for n in z["names"]], dtype=np.int32)
            parts["name"].append(ids[z["name"]])
            parent = z["parent"].copy()
            parent[parent >= 0] += offset
            parts["parent"].append(parent)
            parts["start"].append(z["start"])
            parts["end"].append(z["end"])
            parts["proc"].append(np.full(z["name"].size, proc, dtype=np.int32))
            meta.append(json.loads(str(z["meta"])))
            offset += z["name"].size
    spans = {k: np.concatenate(v) if v else np.zeros(0) for k, v in parts.items()}
    spans["name"] = spans["name"].astype(np.int32)
    spans["parent"] = spans["parent"].astype(np.int32)
    spans["names"] = np.array(names, dtype=str)
    return spans, meta


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=("grid-solve", "tautochrone", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    t_setup = time.perf_counter()
    RESULTS.mkdir(exist_ok=True)
    work_dir = RESULTS / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        runner = workloads.CliRunner(HERE.parent) if args.workload == "cli" else None
        ops, import_ms, af = build(args.workload, args.seed, work_dir, runner)
        # warm-up: one pass in process, one command for the cli
        run_loop(ops if runner is None else ops[:1], 0.0)
        setup_ms = (time.perf_counter() - t_setup) * 1e3
        setup_rules = af.quadrature._jacobi_rule.cache_info() if af else None
        print("READY", flush=True)
        if args.setup_only:
            return 0

        if not args.trace:
            recs, passes = run_loop(ops, args.seconds)
            doc = {"loop": metrics.loop_metrics(recs, passes)}
        else:
            half = args.seconds / 2.0
            recs_u, passes_u = run_loop(ops, half)
            child_meta = []
            if runner is None:
                with tracer.Tracer() as tr:
                    recs_t, passes_t = run_loop(ops, half)
                spans = tr.arrays()
            else:
                spans_dir = work_dir / "spans"
                spans_dir.mkdir()
                runner.spans_dir = spans_dir
                first = runner.calls + 1
                recs_t, passes_t = run_loop(ops, half)
                runner.spans_dir = None
                paths = [spans_dir / f"{i}.npz" for i in range(first, runner.calls + 1)]
                spans, child_meta = _merge_child_spans(paths)
                for m, res in zip(child_meta, runner.results[first - 1:]):
                    m["output_bytes"] = len(res.stdout.encode())
                    m["wall_ms"] = res.wall_s * 1e3
            leftover = tracer.leftover_wrappers()
            if leftover:
                raise RuntimeError(f"wrappers left installed: {leftover}")
            np.savez_compressed(RESULTS / f"{args.workload}-seed{args.seed}-spans.npz", **spans)
            recs = recs_u + recs_t
            doc = {
                "loop": metrics.loop_metrics(recs, passes_u + passes_t),
                "per_layer": per_layer(args.workload, recs_u, passes_u, recs_t, passes_t, spans,
                                       import_ms, setup_ms, setup_rules, child_meta),
            }
        who = resource.RUSAGE_CHILDREN if runner else resource.RUSAGE_SELF
        doc["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        doc["by_kind"] = metrics.by_kind(recs)
        doc["failures"] = [{k: r[k] for k in ("kind", "err", "error")}
                           for r in recs if not r["ok"]][:20]
        doc["import_ms"] = import_ms
        doc["worker_setup_ms"] = setup_ms
        print(json.dumps(doc), flush=True)
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
