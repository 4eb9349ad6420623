"""Self-tests of the benchmark: python3 -m pytest benchmarks -q"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import abelfrac as af  # noqa: E402

import metrics  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from worker import _span_metrics, run_loop  # noqa: E402


@pytest.fixture(scope="module")
def grid_ops():
    return wl.grid_solve_ops(5, af)


def _perturbed(op, factor):
    return wl.Op(op.kind, op.run, lambda raw: op.values(raw) * factor, op.ref, xs=op.xs)


@pytest.mark.parametrize("kind", ["solve_convolution", "tab_solve_numeric"])
def test_checker_rejects_perturbed_result(grid_ops, kind):
    op = next(o for o in grid_ops if o.kind == kind)
    raw = op.run()
    assert wl.check(op, raw)[0]
    tol = wl.OP_KINDS[kind]["tol"]
    ok, err, _, _ = wl.check(_perturbed(op, 1.0 + 3.0 * tol), raw)
    assert not ok and err > tol


def test_checker_rejects_failed_cli_commands(tmp_path):
    ops = {o.kind: o for o in wl.cli_ops(3, runner=None, work_dir=tmp_path)}
    verify = ops["cli_verify"]
    assert wl.check(verify, wl.CliResult(0, "12/12 checks passed\n", "", 1.0, "verify"))[0]
    assert not wl.check(verify, wl.CliResult(1, "11/12 checks passed\n", "", 1.0, "verify"))[0]
    with pytest.raises(RuntimeError):
        wl.check(ops["cli_curve"], wl.CliResult(3, "", "abelfrac: infeasible", 1.0, "curve"))


def test_cli_output_parsing_feeds_the_checker(tmp_path):
    ops = wl.cli_ops(3, runner=None, work_dir=tmp_path)
    op = next(o for o in ops if o.kind == "cli_solve_series")
    rows = "".join(f"{x!r},{v!r}\n" for x, v in zip(np.linspace(0, 1, 101).tolist(), op.ref.tolist()))
    good = wl.CliResult(0, "x,s\n" + rows, "", 1.0, "solve")
    assert wl.check(op, good)[0]
    off = "".join(f"{x!r},{v * (1 + 1e-6)!r}\n"
                  for x, v in zip(np.linspace(0, 1, 101).tolist(), op.ref.tolist()))
    assert not wl.check(op, wl.CliResult(0, "x,s\n" + off, "", 1.0, "solve"))[0]


def test_same_seed_gives_identical_inputs(tmp_path):
    assert wl.grid_solve_inputs(7) == wl.grid_solve_inputs(7)
    assert wl.tautochrone_inputs(7) == wl.tautochrone_inputs(7)
    assert wl.cli_inputs(7) == wl.cli_inputs(7)
    assert wl.grid_solve_inputs(7) != wl.grid_solve_inputs(8)
    assert wl.tautochrone_inputs(7) != wl.tautochrone_inputs(8)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    wl.cli_ops(7, None, a)
    wl.cli_ops(7, None, b)
    assert (a / "psi.csv").read_bytes() == (b / "psi.csv").read_bytes()


def test_no_two_exponents_half_apart():
    sets = [v for r in wl.GRID_ROUNDS for k, v in r.items() if k != "n"]
    sets += list(wl.TAUTOCHRONE_PSI) + list(wl.CLI_SETS.values())
    for exps in sets:
        assert all(abs(abs(x - y) - 0.5) > 1e-12 for x in exps for y in exps), exps


def test_references_match_the_program_exact_maps():
    terms = ((1.3, 0.0), (0.7, 1.5))
    for n in (0.25, 0.5, 0.75):
        xs = wl.GRID[1:]
        prob = af.AbelProblem(af.PowerSum(terms), af.Order(n))
        np.testing.assert_allclose(wl.evaluate(wl.series_terms(terms, n), xs),
                                   af.solve_series(prob).s(xs), rtol=1e-13)
        np.testing.assert_allclose(wl.evaluate(wl.rl_terms(terms, n), xs),
                                   af.rl_power_sum(af.PowerSum(terms), n)(xs), rtol=1e-13)
        ref = [af.caputo_derivative(af.PowerSum(terms), n, x, backend="exact") for x in xs]
        np.testing.assert_allclose(wl.evaluate(wl.caputo_terms(terms, n), xs), ref, rtol=1e-13)


def test_curve_reference_on_straight_line():
    xs = np.linspace(0.0, 1.0, 11)
    y = wl.curve_y_reference(((1.5, 1.0),), xs)
    np.testing.assert_allclose(y, xs * math.sqrt(1.5**2 - 1.0), rtol=1e-14, atol=1e-15)


def test_piecewise_reference_continues_the_first_segment():
    p1 = ((1.0, 0.0), (0.5, 1.0))
    xs = np.linspace(0.0, 0.4, 5)
    np.testing.assert_allclose(wl.piecewise_reference(p1, 0.5, (1.0, 1.0), xs),
                               wl.evaluate(wl.series_terms(p1, 0.5), xs), rtol=1e-15)


def test_self_times_on_nested_spans():
    # root [0,10] has children a [1,4] and b [3,6] (covering [1,6]) and c
    # [9,12], clipped to [9,10]; a has grandchild g [2,3]
    start = [0.0, 1.0, 2.0, 3.0, 9.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    np.testing.assert_allclose(tracer.self_times(start, end, parent), [4.0, 2.0, 1.0, 3.0, 3.0])


def test_summary_counts_recursion_once():
    spans = {
        "names": np.array(["quadrature.f", "abel_solver.g"]),
        "name": np.array([0, 0, 1], dtype=np.int32),
        "parent": np.array([-1, 0, 1], dtype=np.int32),
        "start": np.array([0.0, 1.0, 2.0]),
        "end": np.array([5.0, 4.0, 3.0]),
    }
    s = tracer.summarize(spans)
    assert s["quadrature.f"] == {"calls": 2, "self_s": pytest.approx(4.0), "total_s": 5.0}
    assert s["abel_solver.g"]["self_s"] == pytest.approx(1.0)
    assert tracer.layer_total(spans, "quadrature") == 5.0
    assert tracer.layer_total(spans, "abel_solver") == 1.0


def test_no_wrapper_left_after_traced_run(grid_ops):
    original = af.quadrature.singular_integral
    with tracer.Tracer() as tr:
        assert tracer.leftover_wrappers()
        assert af.abel_solver.singular_integral is not original
        recs, _ = run_loop(grid_ops[:1], 0.0)
    assert recs[0]["ok"]
    assert tracer.leftover_wrappers() == []
    assert af.abel_solver.singular_integral is original
    assert af.quadrature.singular_integral is original
    spans = tr.arrays()
    names = set(spans["names"][spans["name"]])
    assert {"abel_solver.solve_on_grid", "quadrature.singular_integral"} <= names


def test_layer_metrics_are_per_pass(grid_ops):
    # the traced half runs as many passes as fit its time; the layer
    # figures must not grow with that number
    per_npass = []
    for npass in (1, 2):
        recs = []
        with tracer.Tracer() as tr:
            for _ in range(npass):
                recs += run_loop(grid_ops[:2], 0.0)[0]
        per_npass.append(_span_metrics(tr.arrays(), recs, npass)[0])
    one, two = per_npass
    calls = [k for k in one if k.endswith(".calls")]
    assert one["quadrature.calls"] > 0
    assert {k: one[k] for k in calls} == {k: two[k] for k in calls}


def test_tail_leaves_ten_samples_beyond():
    value, pct, beyond = metrics.tail(range(1, 101))
    assert (value, pct, beyond) == (90, 90.0, 10)
    assert metrics.tail([3.0, 1.0]) == (3.0, 100.0, 0)


def test_benchmark_json_lists_the_emitted_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    assert e2e == metrics.END_TO_END
    assert layer == metrics.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(wl.OPS["workloads"])
