"""Command-line interface: parsing, output formats, determinism, exit
codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import abelfrac
from abelfrac import (
    DomainError,
    FunctionParseError,
    PiecewisePowerSum,
    PowerSum,
    caputo_derivative,
    forward,
    rl_integral,
)
from abelfrac.cli import main, parse_function_spec, read_tabulated_csv


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


class TestFunctionParsing:
    def test_constant(self):
        f = parse_function_spec("1.0")
        assert isinstance(f, PowerSum)
        assert f.terms == ((1.0, 0.0),)

    def test_multi_term(self):
        f = parse_function_spec("2*a^0.5 + 1*a^2")
        assert f.terms == ((2.0, 0.5), (1.0, 2.0))

    def test_leading_minus_on_terms(self):
        f = parse_function_spec("-2.0 + 3*a^1")
        assert f.terms == ((-2.0, 0.0), (3.0, 1.0))

    def test_bare_power(self):
        f = parse_function_spec("a^1.5")
        assert f.terms == ((1.0, 1.5),)

    def test_whitespace_tolerated(self):
        f = parse_function_spec("  2 * a^0.5+1*a^2 ")
        assert f.terms == ((2.0, 0.5), (1.0, 2.0))

    def test_piecewise(self):
        f = parse_function_spec("piecewise: [0,1] 1.0 ; [1,2] -2.0 + 3*a^1")
        assert isinstance(f, PiecewisePowerSum)
        assert f(0.5) == 1.0
        assert f(2.0) == pytest.approx(4.0)

    def test_shifted_power_rejected(self):
        # only plain powers of a are in the grammar
        with pytest.raises(FunctionParseError) as exc:
            parse_function_spec("piecewise: [0,1] 1.0 ; [1,2] 1.0 + 3*(a-1)^1")
        assert exc.value.position is not None

    def test_negative_exponent_rejected(self):
        with pytest.raises(FunctionParseError):
            parse_function_spec("2*a^-1")

    def test_garbage_rejected(self):
        for text in ("", "2**a", "a^", "1.0 +", "piecewise: [1,2] 1.0"):
            with pytest.raises(FunctionParseError):
                parse_function_spec(text)


class TestSolveCommand:
    def test_cycloid_rows(self, capsys):
        code, out, _ = run_cli(
            ["solve", "--func", "1.0", "--order", "0.5", "--grid", "1:101"],
            capsys,
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["x", "s"]
        assert len(rows) == 101
        for x, s in rows:
            assert s == pytest.approx(2.0 / math.pi * math.sqrt(x), abs=1e-8)

    def test_backend_flag(self, capsys):
        for backend in ("series", "convolution", "theorem", "numeric"):
            code, out, _ = run_cli(
                [
                    "solve", "--func", "1.0", "--order", "0.5",
                    "--grid", "1:5", "--backend", backend,
                ],
                capsys,
            )
            assert code == 0
            _, rows = csv_rows(out)
            assert rows[2][1] == pytest.approx(
                2.0 / math.pi * math.sqrt(0.5), rel=1e-6
            )

    @pytest.mark.parametrize("n", [0.5, 0.3])
    def test_piecewise_solve(self, n, capsys):
        code, out, _ = run_cli(
            [
                "solve",
                "--func", "piecewise: [0,1] 1.0 ; [1,2] -2.0 + 3*a^1",
                "--order", str(n), "--grid", "2:5",
            ],
            capsys,
        )
        assert code == 0
        _, rows = csv_rows(out)
        # psi = 1 + 3 (a-1)_+, so
        # s = (sin n pi / pi) (x^n / n + 3 (x-1)_+^(n+1) / (n (n+1))):
        # (2 sqrt(x) + 4 max(x-1,0)^{3/2}) / pi at n = 1/2, and 3.03772 at
        # n = 0.3, x = 2
        for x, s in rows[1:]:
            ref = math.sin(n * math.pi) / math.pi * (
                x**n / n + 3.0 * max(x - 1.0, 0.0) ** (n + 1.0) / (n * (n + 1.0))
            )
            assert s == pytest.approx(ref, rel=1e-7)


class TestOperatorCommands:
    def test_frac_der_example(self, capsys):
        code, out, _ = run_cli(
            ["frac-der", "--func", "a^1", "--order", "0.5", "--grid", "1:5"],
            capsys,
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["x", "value"]
        for x, v in rows:
            assert v == pytest.approx(2.0 * math.sqrt(x / math.pi), abs=1e-10)

    def test_frac_int_value(self, capsys):
        code, out, _ = run_cli(
            ["frac-int", "--func", "1*a^1", "--order", "0.5", "--grid", "1:3"],
            capsys,
        )
        assert code == 0
        _, rows = csv_rows(out)
        # I^{1/2} x = x^{1.5}/gamma(2.5); mpmath 1/gamma(2.5)
        assert rows[2][1] == pytest.approx(0.7522527780636751, rel=1e-10)

    @pytest.mark.parametrize(
        "command, func, point",
        [
            ("forward", "2*a^1 + 1.5*a^2", forward),
            ("frac-int", "piecewise: [0,0.5] 1 + a^1 ; [0.5,2] 0.75 + 1.5*a^1", rl_integral),
            ("frac-der", "piecewise: [0,1] 1 + a^1 ; [1,2] 2*a^1",
             lambda f, n, x: caputo_derivative(f, n, x) if x > 0.0 else 0.0),
        ],
    )
    def test_grid_call_matches_points(self, command, func, point, capsys):
        # one operator call per grid; its values are the per-point ones up
        # to rounding
        code, out, _ = run_cli(
            [command, "--func", func, "--order", "0.3", "--grid", "2:41"], capsys
        )
        assert code == 0
        f = parse_function_spec(func)
        for x, v in csv_rows(out)[1]:
            assert v == pytest.approx(point(f, 0.3, x), rel=1e-13, abs=1e-300)

    def test_frac_der_divergent_at_zero_exits_3(self, capsys):
        code, _, err = run_cli(
            ["frac-der", "--func", "a^0.25", "--order", "0.5", "--grid", "1:3"],
            capsys,
        )
        assert code == 3
        assert "diverges" in err


class TestCurveAndSimulate:
    def test_curve_straight_line(self, capsys):
        code, out, _ = run_cli(
            ["curve", "--func", "2*a^1", "--grid", "1:5"], capsys
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["x", "s", "y"]
        for x, s, y in rows:
            assert s == pytest.approx(2.0 * x, abs=1e-12)
            assert y == pytest.approx(math.sqrt(3.0) * x, rel=1e-12, abs=1e-12)

    def test_simulate_straight_line(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--func", "2*a^1", "--grid", "1:5"], capsys
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["a", "T", "steps", "max_residual"]
        assert rows[0] == [0.0, 0.0, 0.0, 0.0]
        for a, T, steps, _res in rows[1:]:
            assert T == pytest.approx(4.0 * math.sqrt(a), rel=1e-6)
            assert steps > 0

    def test_simulate_infeasible_exits_3(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--func", "0.5*a^1", "--grid", "1:3"], capsys
        )
        assert code == 3
        assert err.strip()

    def test_gravity_flag(self, capsys):
        _, out_half, _ = run_cli(
            ["simulate", "--func", "2*a^1", "--grid", "1:3"], capsys
        )
        _, out_2, _ = run_cli(
            ["simulate", "--func", "2*a^1", "--grid", "1:3", "--gravity", "2.0"],
            capsys,
        )
        _, rows_half = csv_rows(out_half)
        _, rows_2 = csv_rows(out_2)
        assert rows_2[2][1] == pytest.approx(rows_half[2][1] / 2.0, rel=1e-10)


class TestSolveOutputPipesIn:
    """solve writes s as an 'x,s' table, and curve and simulate read it
    back as the polygon through its rows."""

    @staticmethod
    def _solve(psi, rows, tmp_path, capsys):
        path = tmp_path / "s.csv"
        code, _, _ = run_cli(
            ["solve", "--func", psi, "--grid", f"1:{rows}", "--output", str(path)], capsys
        )
        assert code == 0
        return str(path)

    @pytest.mark.parametrize("rows", [101, 1001])
    @pytest.mark.parametrize(
        "psi, code", [("4 + 1*a^1", 0), ("4 + 0.5*a^2", 0), ("2", 3), ("2*a^1 + 1*a^2", 3)]
    )
    def test_exit_codes(self, psi, code, rows, tmp_path, capsys):
        path = self._solve(psi, rows, tmp_path, capsys)
        for command in ("curve", "simulate"):
            got, _, err = run_cli(
                [command, "--func-file", path, "--grid", f"1:{rows}"], capsys
            )
            assert got == code, err

    @pytest.mark.parametrize("rows, tol", [(1001, 1e-5), (10001, 2e-7)])
    def test_simulated_times_read_psi(self, rows, tol, tmp_path, capsys):
        # the curve keeps every row of the table (steps counts its cells);
        # resampled to 1001 points, a 10001-row table reads T only to 2.7e-6
        path = self._solve("4 + 1*a^1", rows, tmp_path, capsys)
        code, out, _ = run_cli(["simulate", "--func-file", path, "--grid", "1:5"], capsys)
        assert code == 0
        _, table = csv_rows(out)
        for a, T, steps, _res in table[1:]:
            assert abs(T - (4.0 + a)) <= tol * (4.0 + a)
            assert steps == round(a * (rows - 1))


class TestInputFiles:
    @pytest.mark.parametrize("header", ["x,value", "x,s", "a,psi"])
    def test_accepted_headers(self, header, tmp_path, capsys):
        xs = np.linspace(0.0, 1.0, 101)
        body = "\n".join(f"{float(x)!r},{float(2.0 * x)!r}" for x in xs)
        path = tmp_path / "table.csv"
        path.write_text(f"{header}\n{body}\n")
        code, out, _ = run_cli(
            [
                "forward", "--func-file", str(path),
                "--order", "0.5", "--grid", "1:5",
            ],
            capsys,
        )
        assert code == 0
        _, rows = csv_rows(out)
        # forward of s = 2x at n = 1/2 is 4 sqrt(a)
        for a, v in rows[1:]:
            assert v == pytest.approx(4.0 * math.sqrt(a), rel=1e-3)

    def test_read_tabulated_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("u,v\n0.0,0.0\n1.0,1.0\n")
        with pytest.raises(DomainError):
            read_tabulated_csv(str(path))

    def test_func_and_func_file_exclusive(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("x,s\n0.0,0.0\n1.0,2.0\n")
        code, _, err = run_cli(
            [
                "forward", "--func", "a^1", "--func-file", str(path),
                "--grid", "1:3",
            ],
            capsys,
        )
        assert code == 2
        assert err.strip()


class TestOutputContracts:
    def test_output_file_and_determinism(self, tmp_path, capsys):
        args = ["solve", "--func", "2.0 + 1*a^1", "--order", "0.5",
                "--grid", "1:101"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--output", str(p1)], capsys)[0] == 0
        assert run_cli(args + ["--output", str(p2)], capsys)[0] == 0
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2
        assert b1.endswith(b"\n")

    def test_json_matches_csv_numerics(self, capsys):
        base = ["solve", "--func", "1.0", "--order", "0.5", "--grid", "1:11"]
        _, out_csv, _ = run_cli(base, capsys)
        _, out_json, _ = run_cli(base + ["--format", "json"], capsys)
        _, rows = csv_rows(out_csv)
        doc = json.loads(out_json)
        assert doc["command"] == "solve"
        assert [[r["x"], r["s"]] for r in doc["rows"]] == rows

    @pytest.mark.parametrize(
        "command, keys",
        [
            (["solve", "--func", "1.0"],
             ["func", "func_file", "order", "grid", "format", "backend", "nodes", "tol"]),
            (["forward", "--func", "2*a^1"],
             ["func", "func_file", "order", "grid", "format", "nodes", "tol"]),
            (["curve", "--func", "2*a^1"], ["func", "func_file", "grid", "format"]),
            (["simulate", "--func", "2*a^1"],
             ["func", "func_file", "grid", "format", "gravity", "tol"]),
        ],
    )
    def test_json_params_are_the_options_the_command_takes(self, command, keys, capsys):
        code, out, _ = run_cli(command + ["--grid", "1:3", "--format", "json"], capsys)
        assert code == 0
        assert list(json.loads(out)["params"]) == keys

    def test_csv_values_round_trip_exactly(self, capsys):
        # shortest-repr floats: parsing the text reproduces the doubles
        _, out, _ = run_cli(
            ["solve", "--func", "1.0", "--order", "0.5", "--grid", "1:5"],
            capsys,
        )
        _, rows = csv_rows(out)
        for x, s in rows:
            assert s == 2.0 / math.pi * math.sqrt(x) or abs(
                s - 2.0 / math.pi * math.sqrt(x)
            ) < 1e-15


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "--func", "1.0", "--order", "1.0", "--grid", "1:5"],
            ["solve", "--func", "1.0", "--order", "0.0", "--grid", "1:5"],
            ["solve", "--func", "1.0", "--order", "abc", "--grid", "1:5"],
            ["solve", "--func", "1.0", "--grid", "1:1"],
            ["solve", "--func", "1.0", "--grid", "0:5"],
            ["solve", "--func", "1.0", "--grid", "nope"],
            ["solve", "--func", "2*a^-1", "--grid", "1:5"],
            ["solve", "--grid", "1:5"],
            ["nonsense"],
            # a first rule past MAX_NODES, and tolerances that are not finite
            ["forward", "--func", "2*a^0.5", "--nodes", "4097"],
            ["forward", "--func", "2*a^0.5", "--tol", "inf"],
            ["solve", "--func", "piecewise: [0,1] 1.0 + a^0.5 ; [1,3] 0.5 + 1.5*a^0.5",
             "--backend", "convolution", "--nodes", "2", "--tol", "inf"],
            # options a command does not use are not accepted
            ["curve", "--func", "2*a^1", "--order", "0.3"],
            ["curve", "--func", "2*a^1", "--nodes", "2"],
            ["curve", "--func", "2*a^1", "--tol", "1e-3"],
            ["curve", "--func", "2*a^1", "--gravity", "9"],
            ["simulate", "--func", "2*a^1", "--order", "0.3"],
            ["simulate", "--func", "2*a^1", "--nodes", "2"],
        ],
    )
    def test_exit_2(self, args, capsys):
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert err.strip()

    def test_grammar_boundary_case(self, capsys):
        code, _, err = run_cli(
            [
                "solve",
                "--func", "piecewise: [0,1] 1.0 ; [1,2] 1.0 + 3*(a-1)^1",
                "--order", "0.5", "--grid", "2:5",
            ],
            capsys,
        )
        assert code == 2
        assert "position" in err


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert "12/12 checks passed" in out
        assert "FAIL" not in out


class TestEntryPoints:
    @pytest.mark.parametrize("module", ["abelfrac", "abelfrac.cli"])
    def test_python_dash_m_runs_verify(self, module):
        src = str(Path(abelfrac.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-m", module, "verify"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.rstrip().endswith("12/12 checks passed")
