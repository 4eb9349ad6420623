"""Seeded inputs, independent references and the op lists of each workload.

An op is one public call over a full grid, one descent or one CLI command.
Each op carries the reference its output is checked against; references
are closed forms evaluated here with ``math.gamma``, so they do not depend
on the program's own special functions or series maps.  Tolerances and the
error measure of every op kind live in ``ops.json``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
OPS = json.loads((HERE / "ops.json").read_text())
OP_KINDS = OPS["op_kinds"]

GRID = np.linspace(0.0, 1.0, 1001)
# Exponent sets (and orders) are fixed per role so that every seed does the
# same work; the seed draws coefficients, the piecewise jump and the release
# heights.  No set has two exponents 1/2 apart (see "input_rules" in
# ops.json).  The a^(1/2)-led tabulated psi at n = 1/4 and 3/4 keep the
# first-node defect in view.
GRID_ROUNDS = (
    {"n": 0.25, "psi": (0.0, 1.0, 2.0), "tab_psi": (0.5, 2.0), "tab_s_psi": (1.0, 2.0),
     "pw_p1": (0.0, 1.0)},
    {"n": 0.5, "psi": (0.5, 2.0), "tab_psi": (0.0, 1.0, 2.0), "tab_s_psi": (0.0, 2.0),
     "pw_p1": (0.5, 1.5)},
    {"n": 0.75, "psi": (0.0, 1.5), "tab_psi": (0.5, 1.5), "tab_s_psi": (0.5, 1.5),
     "pw_p1": (1.0, 2.0)},
)
TAUTOCHRONE_PSI = ((0.0, 1.0, 2.0), (0.5, 1.5))
CLI_SETS = {"solve": (0.5, 2.0), "pw_p1": (0.0, 2.0), "file": (0.0, 1.0, 2.0),
            "int": (0.0, 1.5), "der": (1.0, 2.0), "curve": (0.0, 2.0), "sim": (0.0, 1.0)}
# the other commands run at the CLI's default order 1/2
CLI_ORDERS = {"solve": 0.75, "int": 0.25, "der": 0.5}
# fixed so the piecewise solves cost the same on every seed
PIECEWISE_BREAK = 0.5
DESCENTS_PER_CURVE = 20
INTERIOR = (0.1, 0.9)
DIGITS_CAP = 16.0

Terms = tuple  # ((coef, exp), ...)


# ---------------------------------------------------------------------------
# closed forms


def evaluate(terms: Terms, x) -> np.ndarray:
    """sum(c * x**e) with 0**0 = 1."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for c, e in terms:
        out = out + (c if e == 0.0 else c * x**e)
    return out


def series_terms(terms: Terms, n: float) -> Terms:
    """Arc length solving Abel's equation for psi = terms at order n."""
    g = math.gamma
    return tuple(
        (c * g(k + 1.0) / (g(1.0 - n) * g(n + k + 1.0)), n + k) for c, k in terms
    )


def rl_terms(terms: Terms, n: float) -> Terms:
    g = math.gamma
    return tuple((c * g(e + 1.0) / g(e + n + 1.0), e + n) for c, e in terms)


def caputo_terms(terms: Terms, n: float) -> Terms:
    g = math.gamma
    return tuple(
        (c * g(e + 1.0) / g(e - n + 1.0), e - n) for c, e in terms if e != 0.0
    )


def piecewise_reference(p1: Terms, b: float, jump: tuple, x) -> np.ndarray:
    """s for psi = p1 on [0, b) and p1 + c1 (a-b) + c2 (a-b)^2 beyond, n = 1/2.

    Each jump term c_k (a-b)^k adds (c_k / pi) B(k+1, 1/2) (x-b)^(k+1/2).
    """
    x = np.asarray(x, dtype=float)
    d = np.maximum(x - b, 0.0)
    out = evaluate(series_terms(p1, 0.5), x)
    for k, c in enumerate(jump, start=1):
        beta = math.gamma(k + 1.0) * math.gamma(0.5) / math.gamma(k + 1.5)
        out = out + c * beta / math.pi * d ** (k + 0.5)
    return out


def jump_terms(p1: Terms, b: float, jump: tuple) -> Terms:
    """p1 + c1 (a-b) + c2 (a-b)^2 expanded in powers of a."""
    c1, c2 = jump
    return p1 + ((c2 * b * b - c1 * b, 0.0), (c1 - 2.0 * c2 * b, 1.0), (c2, 2.0))


_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


def curve_y_reference(s_terms: Terms, xs: np.ndarray) -> np.ndarray:
    """y(x) = integral_0^x sqrt(s'^2 - 1) for s with exponents >= 1/2.

    With t = u^2 the integrand becomes 2 sqrt((u s'(u^2))^2 - u^2), a smooth
    function of u, integrated by 8-point Gauss-Legendre on every cell.
    """
    u = np.sqrt(xs)
    lo, hi = u[:-1], u[1:]
    nodes = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * _GL_X
    us = sum(c * e * nodes ** (2.0 * e - 1.0) for c, e in s_terms)
    w = 2.0 * np.sqrt(np.maximum(us * us - nodes * nodes, 0.0))
    cells = 0.5 * (hi - lo) * (w @ _GL_W)
    return np.concatenate(([0.0], np.cumsum(cells)))


# ---------------------------------------------------------------------------
# error measures


def max_error(out, ref) -> float:
    out = np.asarray(out, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if out.shape != ref.shape or not np.all(np.isfinite(out)):
        return math.inf
    scale = float(np.max(np.abs(ref)))
    diff = float(np.max(np.abs(out - ref)))
    return diff / scale if scale > 0.0 else diff


def digits(out, ref) -> float:
    """Correct digits: -log10(max|v - r| / max|r|), capped at 16."""
    err = max_error(out, ref)
    return DIGITS_CAP if err == 0.0 else min(DIGITS_CAP, -math.log10(err))


def interior_error(out, ref, xs) -> float:
    out = np.asarray(out, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if out.shape != ref.shape or not np.all(np.isfinite(out)):
        return math.inf
    lo, hi = INTERIOR
    m = (xs >= lo - 1e-12) & (xs <= hi + 1e-12)
    return float(np.max(np.abs(out[m] - ref[m]) / np.abs(ref[m])))


@dataclass
class Op:
    """One timed call.  ``run`` returns the raw result, ``values`` maps it to
    the output array compared with ``ref``; ``xs`` locates the points of an
    interior-measured op.  ``points``/``cells`` count the grid work done."""

    kind: str
    run: Callable[[], object]
    values: Callable[[object], np.ndarray]
    ref: np.ndarray
    xs: np.ndarray | None = None
    points: int = 0
    cells: int = 0
    extras: Callable[[object], dict] | None = None


def check(op: Op, raw) -> tuple[bool, float, float | None, dict]:
    """(passed, error in the op kind's measure, digits or None, extras)."""
    spec = OP_KINDS[op.kind]
    out = op.values(raw)
    extras = op.extras(raw) if op.extras else {}
    if spec["measure"] == "exit":
        err = float(out[0])
        return err == 0.0, err, None, extras
    if spec["measure"] == "interior":
        err = interior_error(out, op.ref, op.xs)
    else:
        err = max_error(out, op.ref)
    return err <= spec["tol"], err, digits(out, op.ref), extras


# ---------------------------------------------------------------------------
# seeded generation


def _coefs(rng, k: int, lo: float = 1.0, hi: float = 2.0) -> list:
    return [float(c) for c in rng.uniform(lo, hi, size=k)]


def power_sum(rng, exps) -> Terms:
    return tuple(zip(_coefs(rng, len(exps)), (float(e) for e in exps)))


def physics_psi(rng, exps) -> Terms:
    """A psi whose solved curve has s' >= 1 on (0, 1] (PHYSICS_CATALOG style)."""
    coefs = _coefs(rng, len(exps), 0.5, 1.0)
    # constant c gives s' >= c / pi; a lone a^(1/2) term c gives s' >= c / 2
    coefs[0] = float(rng.uniform(4.0, 5.0) if exps[0] == 0.0 else rng.uniform(2.2, 3.0))
    return tuple(zip(coefs, exps))


def grid_solve_inputs(seed: int) -> list[dict]:
    """One round per order: closed-form psi, tabulated psi, a power sum whose
    solution is tabulated as s, and a two-segment piecewise psi at n = 1/2."""
    rng = np.random.default_rng([seed, 1])
    return [{
        "n": r["n"],
        "psi": power_sum(rng, r["psi"]),
        "tab_psi": power_sum(rng, r["tab_psi"]),
        "tab_s_psi": power_sum(rng, r["tab_s_psi"]),
        "pw_p1": power_sum(rng, r["pw_p1"]),
        "pw_jump": tuple(_coefs(rng, 2, 0.5, 1.5)),
    } for r in GRID_ROUNDS]


def tautochrone_inputs(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 2])
    return [
        {
            "psi": physics_psi(rng, exps),
            # one height in each of 20 equal strata of [0.05, 1], so every
            # seed releases from the low, steep end as well as from the top
            "heights": [0.05 + 0.95 * (k + float(u)) / DESCENTS_PER_CURVE
                        for k, u in enumerate(rng.uniform(size=DESCENTS_PER_CURVE))],
        }
        for exps in TAUTOCHRONE_PSI
    ]


def cli_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    out = {f"{role}_n": n for role, n in CLI_ORDERS.items()}
    for role, exps in CLI_SETS.items():
        out[f"{role}_psi"] = (physics_psi(rng, exps) if role in ("curve", "sim")
                              else power_sum(rng, exps))
    out["pw_jump"] = tuple(_coefs(rng, 2, 0.5, 1.5))
    return out


# ---------------------------------------------------------------------------
# in-process workloads


def _pointwise(fn, xs):
    return lambda: np.array([fn(float(x)) for x in xs])


def _ident(v):
    return np.asarray(v, dtype=float)


def _solution_values(sol):
    return sol.s.values


def _first_node(ref, values):
    """Extras reporting the relative error at the first grid node after 0,
    where tabulated psi has its known fixed error."""
    return lambda raw: {"first_node_rel_err": abs(values(raw)[1] - ref[1]) / abs(ref[1])}


def grid_solve_ops(seed: int, af) -> list[Op]:
    """One pass of the grid-solve workload, built on the abelfrac module."""
    return [op for r in grid_solve_inputs(seed) for op in _grid_round(r, af)]


def _grid_round(r: dict, af) -> list[Op]:
    xs = GRID
    xp = GRID[1:]
    ops = []
    n = r["n"]
    psi = af.PowerSum(r["psi"])
    prob = af.AbelProblem(psi, af.Order(n))
    s_ref = evaluate(series_terms(r["psi"], n), xs)
    s_ps = af.PowerSum(series_terms(r["psi"], n))
    conv = af.SolutionBackend.CONVOLUTION_1826

    def grid(problem, backend):
        return lambda: af.solve_on_grid(problem, xs, backend=backend)

    ops.append(Op("solve_convolution", grid(prob, conv), _solution_values, s_ref, points=xs.size))
    ops.append(Op("solve_theorem", grid(prob, af.SolutionBackend.THEOREM_1823),
                  _solution_values, s_ref, points=xs.size))

    b = PIECEWISE_BREAK
    pw_terms = jump_terms(r["pw_p1"], b, r["pw_jump"])
    pw = af.PiecewisePowerSum((b,), (af.PowerSum(r["pw_p1"]), af.PowerSum(pw_terms)))
    pw_prob = af.AbelProblem(pw, af.Order(0.5))
    ops.append(Op("solve_piecewise", _pointwise(lambda x: af.solve_piecewise(pw_prob, x), xs),
                  _ident, piecewise_reference(r["pw_p1"], b, r["pw_jump"], xs),
                  points=xs.size))

    fwd_ref = evaluate(r["psi"], xs)
    fwd_ref[0] = 0.0
    ops.append(Op("forward", _pointwise(lambda a: af.forward(s_ps, n, a), xs),
                  _ident, fwd_ref, points=xs.size))
    ops.append(Op("rl_integral",
                  _pointwise(lambda x: af.rl_integral(psi, n, x, backend="quadrature"), xs),
                  _ident, evaluate(rl_terms(r["psi"], n), xs)))
    ops.append(Op("caputo_derivative",
                  _pointwise(lambda x: af.caputo_derivative(psi, n, x, backend="quadrature"), xp),
                  _ident, evaluate(caputo_terms(r["psi"], n), xp)))

    tab = af.TabulatedFunction(xs, evaluate(r["tab_psi"], xs))
    tab_prob = af.AbelProblem(tab, af.Order(n))
    tab_ref = evaluate(series_terms(r["tab_psi"], n), xs)
    first = _first_node(tab_ref, _solution_values)
    ops.append(Op("tab_solve_numeric", grid(tab_prob, af.SolutionBackend.NUMERIC_PRODUCT),
                  _solution_values, tab_ref, xs=xs, points=xs.size, extras=first))
    ops.append(Op("tab_solve_convolution", grid(tab_prob, conv),
                  _solution_values, tab_ref, xs=xs, points=xs.size, extras=first))

    s_terms = series_terms(r["tab_s_psi"], n)
    s_tab = af.TabulatedFunction(xs, evaluate(s_terms, xs))
    ops.append(Op("tab_caputo", _pointwise(lambda x: af.caputo_derivative(s_tab, n, x), xp),
                  _ident, evaluate(caputo_terms(s_terms, n), xp), xs=xp))
    return ops


def _descent_extras(res) -> dict:
    return {"steps": [res.steps], "max_residual": res.max_residual}


def _curve_values(curve):
    return np.concatenate((curve.s, curve.y))


def tautochrone_ops(seed: int, af) -> list[Op]:
    """One pass of the tautochrone workload."""
    return [op for inp in tautochrone_inputs(seed) for op in _pipeline(inp, af)]


def _pipeline(inp: dict, af) -> list[Op]:
    """solve_series, both curves, then the descents on the 1001-point curve.
    The descent_time_integral half of each descent reference is computed
    here, before any timing."""
    terms = inp["psi"]
    prob = af.AbelProblem(af.PowerSum(terms), af.Order(0.5))
    s_terms = series_terms(terms, 0.5)
    s_ps = af.PowerSum(s_terms)
    state = {}

    def series():
        state["s"] = af.solve_series(prob).s
        return state["s"](GRID)

    def curve(size):
        def run():
            state[size] = af.reconstruct_curve(state["s"], 1.0, size)
            return state[size]
        return run

    def descent(a):
        return lambda: af.simulate_descent(state[1001], a)

    ops = [Op("series", series, _ident, evaluate(s_terms, GRID))]
    for size in (1001, 10001):
        xs = np.linspace(0.0, 1.0, size)
        ref = np.concatenate((evaluate(s_terms, xs), curve_y_reference(s_terms, xs)))
        ops.append(Op(f"curve_{size}", curve(size), _curve_values, ref, cells=size - 1))
    for a in inp["heights"]:
        ref = np.array([float(evaluate(terms, a)), af.descent_time_integral(s_ps, a)])
        ops.append(Op("descent", descent(a), lambda res: np.array([res.T, res.T]), ref,
                      extras=_descent_extras))
    return ops


# ---------------------------------------------------------------------------
# cli workload


def spec(terms: Terms) -> str:
    """The CLI's power-sum grammar for terms."""
    return " + ".join(repr(c) if e == 0.0 else f"{c!r}*a^{e!r}" for c, e in terms)


def _parse_output(text: str, fmt: str) -> dict:
    """Columns of a CSV or JSON command output, by header name."""
    if fmt == "json":
        rows = json.loads(text)["rows"]
        return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return {h: data[:, i] for i, h in enumerate(header)}


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    command: str


class CliRunner:
    """Runs one CLI command in a fresh interpreter per call.  With
    ``spans_dir`` set, each child traces itself and leaves a spans file."""

    def __init__(self, root: Path, spans_dir: Path | None = None):
        self.root = root
        self.spans_dir = spans_dir
        self.calls = 0
        self.results: list[CliResult] = []

    def __call__(self, args: list) -> CliResult:
        self.calls += 1
        spans = str(self.spans_dir / f"{self.calls}.npz") if self.spans_dir else "-"
        cmd = [sys.executable, str(HERE / "cli_child.py"), spans, "--", *args]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True, timeout=120)
        res = CliResult(proc.returncode, proc.stdout, proc.stderr,
                        time.perf_counter() - t0, args[0])
        self.results.append(res)
        return res


def cli_ops(seed: int, runner: CliRunner, work_dir: Path) -> list[Op]:
    """One pass of the cli workload.  Writes the tabulated input file into
    ``work_dir``."""
    inp = cli_inputs(seed)
    ops = []

    def command(kind, args, fmt, column, ref, xs=None, points=0, cells=0, extras=None):
        args = [*args, "--format", fmt]

        def values(res: CliResult):
            if res.code != 0:
                raise RuntimeError(f"exit {res.code}: {res.stderr.strip()[-300:]}")
            cols = _parse_output(res.stdout, fmt)
            return np.concatenate([cols[c] for c in column])

        ops.append(Op(kind, lambda: runner(args), values, ref, xs=xs,
                      points=points, cells=cells, extras=extras))

    x101 = np.linspace(0.0, 1.0, 101)
    n = inp["solve_n"]
    psi = inp["solve_psi"]
    s_ref = evaluate(series_terms(psi, n), x101)
    base = ["--order", repr(n), "--grid", "1:101"]
    command("cli_solve_series", ["solve", "--func", spec(psi), *base], "csv", ["s"], s_ref)
    command("cli_solve_convolution",
            ["solve", "--func", spec(psi), "--backend", "convolution", *base],
            "json", ["s"], s_ref, points=101)

    b, p1, jump = PIECEWISE_BREAK, inp["pw_p1_psi"], inp["pw_jump"]
    pw = f"piecewise: [0,{b!r}] {spec(p1)} ; [{b!r},2] {spec(jump_terms(p1, b, jump))}"
    command("cli_solve_piecewise", ["solve", "--func", pw, "--grid", "1:101"], "csv", ["s"],
            piecewise_reference(p1, b, jump, x101), points=101)

    table = work_dir / "psi.csv"
    fpsi = inp["file_psi"]
    table.write_text("x,value\n" + "".join(
        f"{x!r},{v!r}\n" for x, v in zip(GRID.tolist(), evaluate(fpsi, GRID).tolist())))
    x21 = np.linspace(0.0, 1.0, 21)
    file_ref = evaluate(series_terms(fpsi, 0.5), x21)
    command("cli_solve_file", ["solve", "--func-file", str(table), "--grid", "1:21"], "json",
            ["s"], file_ref, xs=x21, points=21)
    ops[-1].extras = _first_node(file_ref, ops[-1].values)

    fwd_ref = evaluate(psi, x101)
    fwd_ref[0] = 0.0
    command("cli_forward", ["forward", "--func", spec(series_terms(psi, n)), *base], "csv",
            ["psi"], fwd_ref, points=101)

    ni, f = inp["int_n"], inp["int_psi"]
    command("cli_frac_int", ["frac-int", "--func", spec(f), "--order", repr(ni), "--grid", "1:101"],
            "json", ["value"], evaluate(rl_terms(f, ni), x101))

    nd, g = inp["der_n"], inp["der_psi"]
    der_ref = np.concatenate((
        [sum(c for c, e in caputo_terms(g, nd) if e == 0.0)],
        evaluate(caputo_terms(g, nd), x101[1:]),
    ))
    command("cli_frac_der", ["frac-der", "--func", spec(g), "--order", repr(nd), "--grid", "1:101"],
            "csv", ["value"], der_ref)

    x201 = np.linspace(0.0, 1.0, 201)
    cs = series_terms(inp["curve_psi"], 0.5)
    command("cli_curve", ["curve", "--func", spec(cs), "--grid", "1:201"], "json", ["s", "y"],
            np.concatenate((evaluate(cs, x201), curve_y_reference(cs, x201))), cells=200)

    x6 = np.linspace(0.0, 1.0, 6)
    sim_ref = evaluate(inp["sim_psi"], x6)
    sim_ref[0] = 0.0
    command("cli_simulate",
            ["simulate", "--func", spec(series_terms(inp["sim_psi"], 0.5)), "--grid", "1:6"],
            "csv", ["T"], sim_ref, cells=1000,
            extras=_simulate_extras)

    def verify_values(res: CliResult):
        lines = res.stdout.strip().splitlines()
        done, total = lines[-1].split()[0].split("/") if lines else ("0", "1")
        return np.array([0.0 if res.code == 0 and done == total else 1.0])

    ops.append(Op("cli_verify", lambda: runner(["verify"]), verify_values, np.array([0.0])))
    return ops


def _simulate_extras(res: CliResult) -> dict:
    cols = _parse_output(res.stdout, "csv")
    moving = cols["a"] > 0.0
    return {"steps": cols["steps"][moving].tolist(),
            "max_residual": float(np.max(cols["max_residual"][moving]))}
