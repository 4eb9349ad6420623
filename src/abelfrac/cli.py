"""Command-line front end.

Subcommands::

    solve      psi -> arc length s(x) on a grid          columns x,s
    forward    s -> psi(a) on a grid                     columns a,psi
    frac-int   order-n integral of f on a grid           columns x,value
    frac-der   order-n derivative of f on a grid         columns x,value
    curve      s -> plane curve                          columns x,s,y
    simulate   s -> simulated descent times              columns a,T,steps,max_residual
    verify     built-in analytic check suite             pass/fail table

Function specs are power sums in the variable ``a``::

    "1.0"                      constant
    "2*a^0.5 + 1*a^2"          two terms
    "piecewise: [0,1] 2.0 ; [1,2] 1.0 + 1*a^1"   segment-wise

Coefficients may be negative; exponents must be >= 0.  Tabulated input
comes from ``--func-file`` (two-column CSV with header ``x,value``; the
headers ``x,s`` and ``a,psi`` written by this tool are accepted too, so
outputs can be piped back in).

Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 numerical failure (infeasible curve, non-convergence).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .abel_solver import (
    AbelProblem,
    SolutionBackend,
    forward,
    solve_on_grid,
)
from .errors import (
    ContinuityError,
    ConvergenceError,
    DomainError,
    EvaluationError,
    FunctionParseError,
    InfeasibleCurveError,
)
from .fracops import caputo_derivative, caputo_limit_at_zero, rl_integral
from .functions import (
    Order,
    PiecewisePowerSum,
    PowerSum,
    TabulatedFunction,
)
from .quadrature import QuadratureConfig
from .tautochrone import reconstruct_curve, simulate_descent
from .verify import run_all_checks

__all__ = ["parse_function_spec", "read_tabulated_csv", "main"]


# ---------------------------------------------------------------------------
# function-spec grammar

_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_APOW_RE = re.compile(r"a\s*\^")
_WS_RE = re.compile(r"\s*")
_PIECEWISE_RE = re.compile(r"\s*piecewise\s*:")


class _Scanner:
    """Single-symbol lookahead over a spec string, tracking positions."""

    def __init__(self, text: str, pos: int = 0):
        self.text = text
        self.pos = pos

    def skip_ws(self) -> int:
        self.pos = _WS_RE.match(self.text, self.pos).end()
        return self.pos

    def at_end(self) -> bool:
        return self.skip_ws() >= len(self.text)

    def peek(self) -> str:
        p = self.skip_ws()
        return self.text[p] if p < len(self.text) else ""

    def take_symbol(self, sym: str) -> bool:
        if self.peek() == sym:
            self.pos += 1
            return True
        return False

    def expect_symbol(self, sym: str) -> None:
        if not self.take_symbol(sym):
            raise FunctionParseError(f"expected '{sym}'", self.skip_ws())

    def take_apow(self) -> bool:
        p = self.skip_ws()
        m = _APOW_RE.match(self.text, p)
        if m:
            self.pos = m.end()
            return True
        return False

    def number(self, what: str) -> float:
        p = self.skip_ws()
        if p < len(self.text) and self.text[p] == "-":
            raise FunctionParseError(f"negative {what} not allowed", p)
        m = _NUM_RE.match(self.text, p)
        if not m:
            raise FunctionParseError(f"expected a {what}", p)
        self.pos = m.end()
        return float(m.group())


def _parse_term(sc: _Scanner) -> tuple[float, float]:
    sign = -1.0 if sc.take_symbol("-") else 1.0
    if sc.take_apow():
        return (sign, sc.number("exponent"))
    coef = sign * sc.number("coefficient")
    if sc.take_symbol("*"):
        if not sc.take_apow():
            raise FunctionParseError("expected 'a^' after '*'", sc.skip_ws())
        return (coef, sc.number("exponent"))
    return (coef, 0.0)


def _parse_power_sum(sc: _Scanner) -> PowerSum:
    terms = [_parse_term(sc)]
    while sc.take_symbol("+"):
        terms.append(_parse_term(sc))
    return PowerSum(terms)


def parse_function_spec(text: str):
    """Parse the textual grammar into a PowerSum or PiecewisePowerSum.

    Raises FunctionParseError (with character position) on syntax errors
    and ContinuityError if piecewise segments disagree at a breakpoint.
    """
    m = _PIECEWISE_RE.match(text)
    if m:
        return _parse_piecewise(_Scanner(text, m.end()))
    sc = _Scanner(text)
    ps = _parse_power_sum(sc)
    if not sc.at_end():
        raise FunctionParseError("unexpected trailing input", sc.skip_ws())
    return ps


def _parse_piecewise(sc: _Scanner) -> PiecewisePowerSum:
    edges: list[float] = []
    segments: list[PowerSum] = []
    while True:
        sc.expect_symbol("[")
        lo_pos = sc.skip_ws()
        lo = sc.number("segment bound")
        sc.expect_symbol(",")
        hi_pos = sc.skip_ws()
        hi = sc.number("segment bound")
        sc.expect_symbol("]")
        if not edges:
            if lo != 0.0:
                raise FunctionParseError("first segment must start at 0", lo_pos)
        elif lo != edges[-1]:
            raise FunctionParseError(
                f"segment must start where the previous ended ({edges[-1]!r})",
                lo_pos,
            )
        if hi <= lo:
            raise FunctionParseError("segment upper bound must exceed lower", hi_pos)
        edges.append(hi)
        segments.append(_parse_power_sum(sc))
        if not sc.take_symbol(";"):
            break
    if not sc.at_end():
        raise FunctionParseError("unexpected trailing input", sc.skip_ws())
    if len(segments) == 1:
        return PiecewisePowerSum((), segments)
    return PiecewisePowerSum(tuple(edges[:-1]), segments)


# ---------------------------------------------------------------------------
# tabulated input

_ACCEPTED_HEADERS = (["x", "value"], ["x", "s"], ["a", "psi"])


def read_tabulated_csv(path: str) -> TabulatedFunction:
    """Load a two-column CSV (header ``x,value`` or a solve/forward
    output) as a tabulated function."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError(f"{path}: empty file")
        header = [h.strip().lower() for h in header]
        if header not in [list(h) for h in _ACCEPTED_HEADERS]:
            raise DomainError(
                f"{path}: expected header 'x,value' (or 'x,s'/'a,psi'), "
                f"got {','.join(header)!r}"
            )
        xs: list[float] = []
        vals: list[float] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DomainError(f"{path}:{lineno}: expected two columns")
            try:
                xs.append(float(row[0]))
                vals.append(float(row[1]))
            except ValueError:
                raise DomainError(f"{path}:{lineno}: not numeric: {row!r}")
    return TabulatedFunction(np.asarray(xs), np.asarray(vals))


# ---------------------------------------------------------------------------
# argument handling

@dataclass(frozen=True)
class _Grid:
    x_max: float
    points: int


def _parse_grid(text: str) -> _Grid:
    parts = text.split(":")
    if len(parts) != 2:
        raise DomainError(f"grid must be 'x_max:points', got {text!r}")
    try:
        x_max = float(parts[0])
        points = int(parts[1])
    except ValueError:
        raise DomainError(f"grid must be 'x_max:points', got {text!r}")
    if not (math.isfinite(x_max) and x_max > 0.0):
        raise DomainError(f"grid x_max must be > 0, got {parts[0]!r}")
    if points < 2:
        raise DomainError(f"grid needs at least 2 points, got {points!r}")
    return _Grid(x_max, points)


# the options beyond --func, --func-file, --grid, --output and --format,
# each added only to the commands that use it
_OPTIONS = {
    "order": dict(type=float, default=0.5,
                  help="fractional order n in (0,1), default 0.5"),
    "nodes": dict(type=int, help="starting quadrature node count"),
    "tol": dict(type=float, help="relative tolerance (quadrature / time stepping)"),
    "gravity": dict(type=float, default=0.5,
                    help="gravity parameter g, default 0.5"),
    "backend": dict(choices=("series", "convolution", "theorem", "numeric"),
                    help="solution route (default: picked from the input type)"),
}


def _add_command(sub, name: str, summary: str, *options: str) -> None:
    cmd = sub.add_parser(name, help=summary)
    cmd.add_argument("--func", help="function spec (power-sum grammar)")
    cmd.add_argument("--func-file", help="two-column CSV of samples")
    cmd.add_argument("--grid", default="1:101",
                     help="output grid as x_max:points, default 1:101")
    cmd.add_argument("--output", help="write to this path instead of stdout")
    cmd.add_argument("--format", choices=("csv", "json"), default="csv")
    for option in options:
        cmd.add_argument(f"--{option}", **_OPTIONS[option])


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="abelfrac",
        description="Fractional-order operators, descent-time inversion, "
                    "and tautochrone simulation.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    _add_command(sub, "solve", "recover arc length s from psi",
                 "order", "nodes", "tol", "backend")
    _add_command(sub, "forward", "descent-time function of a curve", "order", "nodes", "tol")
    _add_command(sub, "frac-int", "fractional integral on a grid", "order", "nodes", "tol")
    _add_command(sub, "frac-der", "fractional derivative on a grid", "order", "nodes", "tol")
    _add_command(sub, "curve", "reconstruct the plane curve")
    _add_command(sub, "simulate", "descent times along the sampled curve",
                 "gravity", "tol")
    sub.add_parser("verify", help="run the built-in verification suite")
    return p


def _resolve_function(args):
    if args.func is not None and args.func_file is not None:
        raise DomainError("--func and --func-file are mutually exclusive")
    if args.func is not None:
        return parse_function_spec(args.func)
    if args.func_file is not None:
        return read_tabulated_csv(args.func_file)
    raise DomainError("one of --func / --func-file is required")


def _quad_config(args) -> QuadratureConfig:
    kwargs = {}
    if args.nodes is not None:
        kwargs["node_count"] = args.nodes
    if args.tol is not None:
        kwargs["rel_tol"] = args.tol
        kwargs["abs_tol"] = min(1e-10, args.tol)
    return QuadratureConfig(**kwargs)


# ---------------------------------------------------------------------------
# commands

def _cmd_solve(args) -> tuple[list[str], list[tuple]]:
    f = _resolve_function(args)
    problem = AbelProblem(f, Order(args.order))
    grid = _parse_grid(args.grid)
    cfg = _quad_config(args)
    xs = np.linspace(0.0, grid.x_max, grid.points)
    backend = args.backend

    if backend is None:
        if isinstance(f, PowerSum):
            backend = "series"
        elif isinstance(f, PiecewisePowerSum):
            backend = "convolution"
        else:
            backend = "numeric"

    values = solve_on_grid(problem, xs, cfg, SolutionBackend(backend)).s.values
    return ["x", "s"], [(float(x), float(v)) for x, v in zip(xs, values)]


def _on_grid(args, header: list[str], operator) -> tuple[list[str], list[tuple]]:
    """Rows (x, value) from one call operator(f, n, xs, cfg) on the --grid."""
    f = _resolve_function(args)
    n = Order(args.order)
    grid = _parse_grid(args.grid)
    cfg = _quad_config(args)
    xs = np.linspace(0.0, grid.x_max, grid.points)
    values = operator(f, n, xs, cfg)
    return header, [(float(x), float(v)) for x, v in zip(xs, values)]


def _frac_der(f, n, xs, cfg):
    # the derivative is undefined at x = 0, where the grid starts; report its limit
    limit = caputo_limit_at_zero(f, n)
    if limit is None:
        raise ConvergenceError(
            "fractional derivative diverges at x = 0 for this input"
        )
    return np.concatenate(([limit], caputo_derivative(f, n, xs[1:], cfg)))


def _cmd_curve(args) -> tuple[list[str], list[tuple]]:
    f = _resolve_function(args)
    grid = _parse_grid(args.grid)
    curve = reconstruct_curve(f, grid.x_max, grid.points)
    return ["x", "s", "y"], [
        (float(x), float(s), float(y))
        for x, s, y in zip(curve.xs, curve.s, curve.y)
    ]


def _cmd_simulate(args) -> tuple[list[str], list[tuple]]:
    f = _resolve_function(args)
    grid = _parse_grid(args.grid)
    rel_tol = args.tol if args.tol is not None else 1e-9
    # sample the curve finer than the output grid, and a table at no fewer
    # points than its rows, so interpolation error does not dominate T
    fine = max(1001, 2 * (grid.points - 1) + 1,
               f.xs.size if isinstance(f, TabulatedFunction) else 0)
    curve = reconstruct_curve(f, grid.x_max, fine, args.gravity)
    rows = []
    for a in np.linspace(0.0, grid.x_max, grid.points):
        res = simulate_descent(curve, float(a), rel_tol)
        rows.append((res.a, res.T, res.steps, res.max_residual))
    return ["a", "T", "steps", "max_residual"], rows


def _cmd_verify(out) -> int:
    results = run_all_checks()
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failures += 1
        print(
            f"{r.name:<{width}}  max rel err {r.worst:.3e}  "
            f"tol {r.tol:.1e}  {status}",
            file=out,
        )
    print(
        f"{len(results) - failures}/{len(results)} checks passed",
        file=out,
    )
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# output

def _emit(args, header: list[str], rows: list[tuple]) -> None:
    if args.format == "csv":
        text = _to_csv(header, rows)
    else:
        text = _to_json(args, header, rows)
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_csv(header: list[str], rows: list[tuple]) -> str:
    out = []
    out.append(",".join(header))
    for row in rows:
        out.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(out) + "\n"


def _to_json(args, header: list[str], rows: list[tuple]) -> str:
    names = ("func", "func_file", "order", "grid", "format", "gravity", "backend",
             "nodes", "tol")
    params = {name: getattr(args, name) for name in names if hasattr(args, name)}
    doc = {
        "command": args.command,
        "params": params,
        "rows": [dict(zip(header, row)) for row in rows],
    }
    return json.dumps(doc, indent=2) + "\n"


_COMMANDS = {
    "solve": _cmd_solve,
    # the operators are looked up when a command runs, so wrapping them
    # (to profile, say) covers the CLI too
    "forward": lambda args: _on_grid(args, ["a", "psi"], forward),
    "frac-int": lambda args: _on_grid(args, ["x", "value"], rl_integral),
    "frac-der": lambda args: _on_grid(args, ["x", "value"], _frac_der),
    "curve": _cmd_curve,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.command == "verify":
        return _cmd_verify(sys.stdout)

    try:
        header, rows = _COMMANDS[args.command](args)
    except (FunctionParseError, ContinuityError, DomainError) as exc:
        print(f"abelfrac: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleCurveError, ConvergenceError, EvaluationError) as exc:
        print(f"abelfrac: {exc}", file=sys.stderr)
        return 3

    _emit(args, header, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
