"""Metric names, units and the statistics behind them."""

from __future__ import annotations

import math
import statistics

from tracer import LAYERS

#: name -> (unit, better) of every end-to-end metric
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "digits_p50": ("digits", "higher"),
    "digits_min": ("digits", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

SPAN_FUNCTIONS = (
    "quadrature.kernel_integral", "quadrature.singular_integral",
    "quadrature.singular_integral_tabulated", "quadrature.tabulated_derivative_kernel",
    "quadrature.smooth_integral", "quadrature.left_weighted_integral",
    "abel_solver.solve_on_grid", "abel_solver.solve_convolution", "abel_solver.solve_theorem",
    "abel_solver.solve_piecewise", "abel_solver.forward", "abel_solver.solve_series",
    "fracops.rl_integral", "fracops.caputo_derivative",
    "tautochrone.reconstruct_curve", "tautochrone.simulate_descent", "tautochrone.solve_ivp",
    "functions.call.PowerSum", "functions.call.PiecewisePowerSum",
    "functions.call.TabulatedFunction",
    "special_functions.gamma", "special_functions.log_gamma",
    "special_functions.reflection_factor",
)
CLI_COMMANDS = ("solve", "forward", "frac-int", "frac-der", "curve", "simulate", "verify")
VERIFY_CHECKS = (
    "gamma_identities", "cycloid_backends", "power_law_coefficients", "backend_agreement",
    "monomial_rule", "round_trip", "inversion_pair", "composition", "piecewise",
    "straight_line", "isochrone", "physics_round_trip",
)


def _per_layer() -> dict:
    out = {}
    for name in LAYERS + SPAN_FUNCTIONS:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_ms"] = ("ms", "lower")
    out.update({
        "abel_solver.points_per_s": ("1/s", "higher"),
        "abel_solver.tabulated.first_node_rel_err": ("ratio", "lower"),
        "tautochrone.reconstruct_curve.cells_per_s": ("1/s", "higher"),
        "tautochrone.descent.steps": ("count", "lower"),
        "tautochrone.descent.max_residual": ("ratio", "lower"),
        "quadrature.jacobi_rule.misses": ("count", "lower"),
        "quadrature.jacobi_rule.hits": ("count", "higher"),
        "cli.import_ms": ("ms", "lower"),
        "cli.emit_ms": ("ms", "lower"),
        "cli.output_bytes": ("B", "lower"),
        "cli.import_share": ("ratio", "lower"),
    })
    for cmd in CLI_COMMANDS:
        out[f"cli.main_ms.{cmd}"] = ("ms", "lower")
    for check in VERIFY_CHECKS:
        out[f"verify.{check}.ms"] = ("ms", "lower")
    out.update({
        "trace.ops_per_s_untraced": ("1/s", "higher"),
        "trace.ops_per_s_traced": ("1/s", "higher"),
        "trace.overhead": ("ratio", "lower"),
        "trace.spans": ("count", "lower"),
    })
    return out


#: name -> (unit, better) of every per-layer metric
PER_LAYER = _per_layer()


def tail(latencies) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    leaves at least ten samples above it; the maximum when there are fewer
    than eleven samples."""
    xs = sorted(latencies)
    k = len(xs) - 11
    if k < 0:
        return xs[-1], 100.0, 0
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def ops_per_s(ops: int, passes) -> float:
    """Median over passes of the pass's ops per second; every pass runs the
    same ops, so a slow spell on a shared machine moves one pass, not all."""
    per_pass = ops / len(passes)
    return statistics.median(per_pass / t for t in passes)


def loop_metrics(recs, passes) -> dict:
    """End-to-end figures of one closed-loop run (setup_s and peak_rss_mb
    are added by the caller)."""
    lat = [r["latency_s"] * 1e3 for r in recs]
    digs = [r["digits"] for r in recs if r["digits"] is not None]
    failed = sum(not r["ok"] for r in recs)
    value, pct, beyond = tail(lat)
    return {
        "ops_per_s": ops_per_s(len(recs), passes),
        "pass_s": list(passes),
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": value,
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "samples": len(recs),
        "grid_points": sum(r["points"] for r in recs),
        "curve_cells": sum(r["cells"] for r in recs),
        "digits_p50": statistics.median(digs) if digs else math.nan,
        "digits_min": min(digs) if digs else math.nan,
        "error_rate": failed / len(recs),
        "attempted": len(recs),
        "failed": failed,
    }


def by_kind(recs) -> dict:
    """Per op kind: count, median latency, worst error and fewest digits."""
    out = {}
    for kind in dict.fromkeys(r["kind"] for r in recs):
        rs = [r for r in recs if r["kind"] == kind]
        digs = [r["digits"] for r in rs if r["digits"] is not None]
        out[kind] = {
            "count": len(rs),
            "p50_ms": statistics.median(r["latency_s"] for r in rs) * 1e3,
            "max_err": max(r["err"] for r in rs),
            "min_digits": min(digs) if digs else None,
            "failed": sum(not r["ok"] for r in rs),
        }
    return out


def spread(values) -> tuple[float, float, float]:
    """(median, first quartile, third quartile) as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3
