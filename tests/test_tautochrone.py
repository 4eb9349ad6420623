"""Curve reconstruction and gravity-descent simulation.

The descent simulator integrates dsigma / sqrt(2g (a - x(sigma))) along
the sampled curve and never sees the closed-form descent-time integral
of s', so agreement between the two is a genuine cross-check of both.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import abelfrac
from abelfrac import (
    AbelProblem,
    DomainError,
    EvaluationError,
    InfeasibleCurveError,
    PowerSum,
    descent_time_integral,
    reconstruct_curve,
    simulate_descent,
    solve_series,
)
from abelfrac.tautochrone import (
    CurveSamples,
    _cubic_from_right,
    _feasibility_scan,
    _horizontal_increments,
    _lattice,
    _pchip_slopes,
    _s_at,
    _segment_slope_terms,
)

# cycloid data: psi = 2 -> s = k sqrt(x) with k = 4/pi, rolling radius
# r = k^2/8 = 2/pi^2, feasible out to x = 2r
K_CYCLOID = 4.0 / math.pi
R_CYCLOID = 2.0 / math.pi**2


class TestCurveSamplesValidation:
    def test_infeasible_slope_reported_with_location(self):
        with pytest.raises(InfeasibleCurveError) as exc:
            reconstruct_curve(PowerSum.monomial(0.5, 1.0), 1.0, 51)
        assert exc.value.slope == pytest.approx(0.5, rel=1e-6)
        assert 0.0 <= exc.value.x <= 1.0

    def test_unit_slope_accepted(self):
        # s = x is the degenerate flat curve: y stays identically 0
        curve = reconstruct_curve(PowerSum.monomial(1.0, 1.0), 1.0, 51)
        assert np.max(np.abs(curve.y)) == 0.0

    def test_chord_consistency_enforced(self):
        curve = reconstruct_curve(PowerSum.monomial(2.0, 1.0), 1.0, 51)
        bad_y = curve.y + 5.0 * np.linspace(0.0, 1.0, curve.xs.size) ** 2
        with pytest.raises(DomainError):
            CurveSamples(curve.xs, curve.s, bad_y)

    def test_gravity_must_be_positive(self):
        curve = reconstruct_curve(PowerSum.monomial(2.0, 1.0), 1.0, 11)
        with pytest.raises(DomainError):
            CurveSamples(curve.xs, curve.s, curve.y, g=0.0)


class TestEntryChecks:
    """reconstruct_curve and simulate_descent check their arguments as the
    operators do: a wrong type or a value out of range is a DomainError."""

    S = PowerSum.monomial(2.0, 1.0)

    @pytest.mark.parametrize("points", [2.5, 3.7, "5", None, 1, np.array([5])])
    def test_grid_points_is_an_int_of_at_least_two(self, points):
        with pytest.raises(DomainError, match="grid points"):
            reconstruct_curve(self.S, 1.0, points)

    def test_numpy_int_grid_points(self):
        assert reconstruct_curve(self.S, 1.0, np.int64(11)).xs.size == 11

    @pytest.mark.parametrize(
        "x_max", [np.array([1.0]), np.array([0.5, 1.0]), math.inf, math.nan, 0.0, -1.0]
    )
    def test_x_max_is_a_finite_float_above_zero(self, x_max):
        with pytest.raises(DomainError, match="x_max"):
            reconstruct_curve(self.S, x_max, 5)

    @pytest.mark.parametrize(
        "a", [np.array([0.5]), np.array([0.2, 0.5]), -0.5, math.nan, math.inf]
    )
    def test_release_height_is_a_finite_float_at_least_zero(self, a):
        curve = reconstruct_curve(self.S, 1.0, 11)
        with pytest.raises(DomainError, match="release height"):
            simulate_descent(curve, a)


class TestReconstruction:
    def test_straight_line_constant_slope(self):
        # s = 2x forces y' = sqrt(3) everywhere
        curve = reconstruct_curve(PowerSum.monomial(2.0, 1.0), 1.0, 201)
        ratios = curve.y[1:] / curve.xs[1:]
        assert np.max(np.abs(ratios - math.sqrt(3.0))) < 1e-8

    def test_cycloid_matches_parametric_form(self):
        # x = r(1-cos t), y = r(t + sin t) traces the same curve as
        # integrating sqrt(s'^2 - 1) for s = k sqrt(x)
        curve = reconstruct_curve(
            PowerSum.monomial(K_CYCLOID, 0.5), 0.4, 1001
        )
        theta = np.arccos(1.0 - curve.xs[1:] / R_CYCLOID)
        y_param = R_CYCLOID * (theta + np.sin(theta))
        assert np.max(np.abs(curve.y[1:] - y_param)) < 1e-10

    def test_tabulated_arc_length_input(self):
        from abelfrac import TabulatedFunction

        xs = np.linspace(0.0, 1.0, 2001)
        s_tab = TabulatedFunction(xs, 2.0 * xs)
        curve = reconstruct_curve(s_tab, 1.0, 201)
        ratios = curve.y[1:] / curve.xs[1:]
        assert np.max(np.abs(ratios - math.sqrt(3.0))) < 1e-6

    def test_opposite_unbounded_slope_terms_give_finite_curve(self):
        # psi = 2 - a^(1/4) gives s' = k1 x^(-1/2) - k2 x^(-1/4): inf - inf
        # at 0, where the x^(-1/2) term decides that s' -> +inf
        s = solve_series(AbelProblem(PowerSum(((2.0, 0.0), (-1.0, 0.25))), 0.5)).s
        curve = reconstruct_curve(s, 1e-6, 101)
        assert np.all(np.isfinite(curve.y))
        assert np.all(np.diff(curve.y) > 0.0)

    def test_negative_unbounded_slope_is_infeasible_at_zero(self):
        spans = [(0.0, math.inf, ((-1.0, -0.5), (2.0, -0.25)))]
        with pytest.raises(InfeasibleCurveError) as err:
            _feasibility_scan(spans, np.linspace(0.0, 1.0, 3))
        assert err.value.x == 0.0

    def test_nan_slope_sample_raises(self):
        # both terms overflow past t = 0, to inf - inf
        spans = [(0.0, math.inf, ((1e308, -0.5), (-1e308, -0.25)))]
        with pytest.raises(EvaluationError) as err:
            _feasibility_scan(spans, np.linspace(0.0, 1e-10, 3))
        assert err.value.t == 1.25e-11


class TestFirstCellLattice:
    """The cell at 0 of an s' unbounded there is integrated in u = t**(1/m),
    m the smallest lattice 1/m (m <= 8) holding every exponent of s'."""

    @pytest.mark.parametrize("terms, m", [
        (((1.0, -0.5), (1.0, 0.5)), 2),
        (((1.0, -2.0 / 3.0), (1.0, 1.0 / 3.0)), 3),
        (((1.0, -0.5), (-1.0, -0.25)), 4),
        (((1.0, -0.5), (1.0, -1.0 / 6.0)), 6),
        (((1.0, -0.875), (1.0, 0.25)), 8),
        (((1.0, -0.5), (1.0, 0.1)), None),
        (((1.0, -0.3),), None),
    ])
    def test_lattice(self, terms, m):
        assert _lattice(terms) == m

    @pytest.mark.parametrize("x_max", [1e-4, 1e-2, 0.1])
    @pytest.mark.parametrize("points", [2, 3, 11, 101])
    def test_quarter_lattice_first_cell_matches_mpmath(self, x_max, points):
        # psi = 2 - a^(1/4) at n = 1/2: s' = k1 x^(-1/2) - k2 x^(-1/4), whose
        # first cell stalled at 4096 nodes under the weighted end rule
        mpmath = pytest.importorskip("mpmath")
        s = solve_series(AbelProblem(PowerSum(((2.0, 0.0), (-1.0, 0.25))), 0.5)).s
        xs = np.linspace(0.0, x_max, points)
        y = np.cumsum(_horizontal_increments(_segment_slope_terms(s), xs))
        slope = s.derivative_terms()
        with mpmath.workdps(30):
            def w(t):
                return mpmath.sqrt(
                    sum(mpmath.mpf(c) * t ** mpmath.mpf(e) for c, e in slope) ** 2 - 1
                )

            cells = [mpmath.quad(w, [a, b]) for a, b in zip(xs[:-1], xs[1:])]
            ref = np.array([float(v) for v in np.cumsum(cells)])
        assert np.max(np.abs(y - ref) / ref) <= 1e-10
        if points > 2 or x_max < 0.1:
            # one cell of [0, 0.1] is too curved for CurveSamples' chord check
            np.testing.assert_array_equal(reconstruct_curve(s, x_max, points).y[1:], y)


class TestDescent:
    def test_straight_line_times(self):
        # s = Cx: time from height a is 2 C sqrt(a) / sqrt(2g)
        curve = reconstruct_curve(PowerSum.monomial(2.0, 1.0), 1.0, 1001)
        for a in (0.04, 0.2, 0.6, 1.0):
            res = simulate_descent(curve, a)
            assert res.T == pytest.approx(4.0 * math.sqrt(a), rel=1e-4)
            assert res.steps > 0

    def test_times_shrink_monotonically_to_zero(self):
        curve = reconstruct_curve(PowerSum.monomial(2.0, 1.0), 1.0, 1001)
        heights = [0.8, 0.4, 0.2, 0.1, 0.05]
        times = [simulate_descent(curve, a).T for a in heights]
        assert all(t1 > t2 for t1, t2 in zip(times, times[1:]))
        assert simulate_descent(curve, 0.0).T == 0.0

    def test_zero_height_result_is_empty(self):
        curve = reconstruct_curve(PowerSum.monomial(2.0, 1.0), 1.0, 101)
        res = simulate_descent(curve, 0.0)
        assert (res.a, res.T, res.steps, res.max_residual) == (0.0, 0.0, 0, 0.0)

    def test_cycloid_is_isochronous(self):
        curve = reconstruct_curve(
            PowerSum.monomial(K_CYCLOID, 0.5), 0.4, 2001
        )
        # T = psi(a)/sqrt(2g) = (k pi/2)/1 = 2 for every release height
        times = [simulate_descent(curve, f * 0.4).T for f in (0.2, 0.5, 0.9)]
        for t in times:
            assert t == pytest.approx(2.0, rel=1e-4)
        spread = (max(times) - min(times)) / min(times)
        assert spread < 1e-4

    def test_residual_diagnostic_is_small(self):
        curve = reconstruct_curve(PowerSum.monomial(K_CYCLOID, 0.5), 0.4, 2001)
        res = simulate_descent(curve, 0.2)
        assert 0.0 <= res.max_residual < 1e-3

    def test_gravity_scaling_is_exact(self):
        # T scales as 1/sqrt(g); the simulation integrates in normalised
        # time, so the ratio must hold to rounding, not just to
        # quadrature tolerance
        s = PowerSum.monomial(2.0, 1.0)
        slow = simulate_descent(reconstruct_curve(s, 1.0, 501, g=0.5), 0.6)
        fast = simulate_descent(reconstruct_curve(s, 1.0, 501, g=2.0), 0.6)
        assert fast.T == pytest.approx(slow.T / 2.0, rel=1e-10)


class TestTimeIntegralConsistency:
    @pytest.mark.parametrize(
        "s",
        [
            PowerSum.monomial(1.5, 0.8),
            PowerSum.monomial(2.0, 1.0),
            PowerSum([(1.0, 1.0), (0.5, 1.2)]),
        ],
    )
    def test_ode_matches_quadrature(self, s):
        curve = reconstruct_curve(s, 1.0, 1501)
        for a in (0.3, 0.7):
            t_ode = simulate_descent(curve, a).T
            t_int = descent_time_integral(s, a)
            assert t_ode == pytest.approx(t_int, rel=5e-4)

    def test_integral_equals_forward_image(self):
        # closed form for s = 2 sqrt(x): psi = pi, T = pi/sqrt(2g)
        got = descent_time_integral(PowerSum.monomial(2.0, 0.5), 0.3, g=0.5)
        assert got == pytest.approx(math.pi, rel=1e-9)


class TestLazyImports:
    # no runtime code needs scipy: the rules are built in numpy, and only
    # the unused tautochrone.solve_ivp wrapper would load scipy.integrate
    @staticmethod
    def run(code: str) -> str:
        src = str(Path(abelfrac.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        return out.stdout

    @classmethod
    def loaded_after(cls, code: str) -> str:
        code += (
            "\nimport sys\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        return cls.run(code).strip().splitlines()[-1]

    def test_import_leaves_scipy_integrate_and_interpolate_unloaded(self):
        assert self.loaded_after("import abelfrac, abelfrac.cli") == "[]"

    def test_descent_leaves_scipy_integrate_and_interpolate_unloaded(self):
        code = (
            "from abelfrac import PowerSum, reconstruct_curve, simulate_descent\n"
            "curve = reconstruct_curve(PowerSum.monomial(2.0, 1.0), 1.0, 101)\n"
            "assert simulate_descent(curve, 0.5).T > 0.0"
        )
        assert self.loaded_after(code) == "[]"

    def test_cli_simulate_leaves_scipy_integrate_and_interpolate_unloaded(self):
        code = (
            "from abelfrac.cli import main\n"
            "assert main(['simulate', '--func', '2*a^1', '--grid', '1:5']) == 0"
        )
        assert self.loaded_after(code) == "[]"

    def test_every_cli_command_leaves_scipy_unloaded(self):
        # one process runs the commands in turn and reports the scipy
        # modules loaded after each, and whether numpy.ma is (np.unique
        # imports it, about 18 ms of a CLI process)
        commands = [
            ["solve", "--func", "1.0 + a^0.5", "--grid", "1:11"],
            ["solve", "--func", "2.0 + 1*a^1", "--order", "0.25",
             "--backend", "theorem", "--grid", "1:3"],
            ["solve", "--func", "piecewise: [0,1] 1.0 ; [1,2] -2.0 + 3*a^1",
             "--grid", "2:5"],
            ["forward", "--func", "a^0.5", "--grid", "1:3"],
            ["frac-int", "--func", "1*a^1", "--order", "0.5", "--grid", "1:3"],
            ["frac-der", "--func", "a^1", "--order", "0.5", "--grid", "1:5"],
            ["curve", "--func", "2*a^1", "--grid", "1:5"],
            ["simulate", "--func", "2*a^1", "--grid", "1:5"],
            ["verify"],
        ]
        code = (
            "import contextlib, io, sys\n"
            "from abelfrac.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        status = main(argv)\n"
            "    loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "    print(argv[0], status, loaded, 'numpy.ma' in sys.modules)\n"
        )
        lines = self.run(code).strip().splitlines()
        assert lines == [f"{argv[0]} 0 [] False" for argv in commands]

    def test_runs_with_scipy_unimportable(self):
        # sys.modules['scipy'] = None makes every scipy import raise
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "from abelfrac import (AbelProblem, PowerSum, reconstruct_curve,\n"
            "    simulate_descent, solve_on_grid)\n"
            "from abelfrac.cli import main\n"
            "prob = AbelProblem(PowerSum(((1.0, 0.0), (1.0, 0.5))), 0.5)\n"
            "assert np.all(np.isfinite(solve_on_grid(prob, np.linspace(0.0, 1.0, 5)).s.values))\n"
            "curve = reconstruct_curve(PowerSum.monomial(2.0, 1.0), 1.0, 101)\n"
            "assert simulate_descent(curve, 0.5).T > 0.0\n"
            "sys.exit(main(['verify']))\n"
        )
        self.run(code)


def _s_at_whole_table(curve, a):
    # the reference: s(a) on the cubic with the slopes of the whole table
    xs, s = curve.xs, curve.s
    k = int(np.searchsorted(xs, a)) - 1
    d = _pchip_slopes(xs, s)
    c2, c3 = _cubic_from_right(xs[k : k + 2], s[k : k + 2], d[k : k + 2])
    u = xs[k + 1] - a
    return float(s[k + 1] - u * (d[k + 1] - u * (c2[0] + u * c3[0])))


class TestReleasePointArc:
    """_s_at takes the slopes of the cell holding a from a window of at
    most four nodes; they are local, so s(a) is bit for bit the value the
    whole table's slopes give."""

    @pytest.mark.parametrize("points", [2, 3, 4, 5, 1001])
    def test_window_matches_whole_table_in_every_cell(self, points):
        s = PowerSum(((2.0, 0.5), (1.5, 1.0), (0.3, 2.0)))
        curve = reconstruct_curve(s, 1.0, points)
        xs = curve.xs
        for a in np.concatenate((0.5 * (xs[:-1] + xs[1:]), xs[1:])):
            assert _s_at(curve, a) == _s_at_whole_table(curve, a)
