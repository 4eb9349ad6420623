"""The curve of a tabulated arc length is the polygon through its samples.

A TabulatedFunction is its linear interpolant everywhere in the package,
so reconstruct_curve takes each data cell as a straight segment rising dx
and running dy = sqrt(ds^2 - dx^2), with no finite-difference slopes.
The polygon is checked cell by cell, against the closed-form curve of the
tabulated s, and through simulate_descent against the psi it came from.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelfrac import (
    AbelProblem,
    DomainError,
    InfeasibleCurveError,
    PowerSum,
    TabulatedFunction,
    reconstruct_curve,
    simulate_descent,
    solve_series,
)
from abelfrac.quadrature import graded_mesh
from abelfrac.tautochrone import CurveSamples, _reconstruct_tabulated

# psi = 4 + a at n = 1/2: s = (8/pi) sqrt(x) + (4/(3 pi)) x^(3/2) grows as
# sqrt(x) at the bottom, where finite-difference slopes broke the curve
PSI = PowerSum(((4.0, 0.0), (1.0, 1.0)))
S_PSI = solve_series(AbelProblem(PSI, 0.5)).s


def _table(s, xs) -> TabulatedFunction:
    return TabulatedFunction(xs, s(xs))


def _assert_chords(curve: CurveSamples):
    dx, ds, dy = np.diff(curve.xs), np.diff(curve.s), np.diff(curve.y)
    assert np.all(np.abs(ds**2 - dx**2 - dy**2) <= 1e-12 * ds**2)


class TestPolygon:
    @pytest.mark.parametrize("points", [101, 1001])
    def test_y_is_the_running_sum_of_the_segments(self, points):
        tab = _table(S_PSI, np.linspace(0.0, 1.0, points))
        curve = reconstruct_curve(tab, 1.0, points)
        assert np.array_equal(curve.xs, tab.xs)
        dx, ds = np.diff(tab.xs), np.diff(tab.values)
        running = np.concatenate(([0.0], np.cumsum(np.sqrt(ds**2 - dx**2))))
        np.testing.assert_allclose(curve.y, running, rtol=1e-13, atol=0.0)
        _assert_chords(curve)

    def test_two_rows_give_a_straight_line(self):
        curve = reconstruct_curve(TabulatedFunction([0.0, 1.0], [0.0, 2.0]), 1.0, 11)
        np.testing.assert_allclose(curve.y, math.sqrt(3.0) * curve.xs, rtol=1e-15, atol=0.0)

    def test_secant_below_one_raises_at_its_cell_midpoint(self):
        tab = TabulatedFunction([0.0, 0.1, 0.2, 0.3], [0.0, 0.2, 0.25, 0.45])
        # output cells halve the data cells; the error names the data cell
        with pytest.raises(InfeasibleCurveError) as err:
            reconstruct_curve(tab, 0.3, 7)
        assert err.value.x == pytest.approx(0.15, rel=1e-15)
        assert err.value.slope == pytest.approx(0.5, rel=1e-12)

    def test_cells_past_the_grid_are_not_read(self):
        # psi = 2 gives the cycloid, feasible only up to 4/pi^2 = 0.405
        s = solve_series(AbelProblem(PowerSum.constant(2.0), 0.5)).s
        tab = _table(s, np.linspace(0.0, 1.0, 1001))
        with pytest.raises(InfeasibleCurveError) as err:
            reconstruct_curve(tab, 1.0, 101)
        assert err.value.x == pytest.approx(4.0 / math.pi**2, abs=1e-3)
        # a grid ending between nodes reads the cell holding its end
        curve = reconstruct_curve(tab, 0.3005, 61)
        ref = reconstruct_curve(s, 0.3005, 61)
        assert np.max(np.abs(curve.y - ref.y)) <= 1e-4 * ref.y[-1]


class TestAgainstClosedForm:
    @pytest.mark.parametrize("points, tol", [(101, 5e-5), (1001, 2e-6)])
    def test_curve(self, points, tol):
        tab = _table(S_PSI, np.linspace(0.0, 1.0, points))
        y = reconstruct_curve(tab, 1.0, points).y
        ref = reconstruct_curve(S_PSI, 1.0, points).y
        assert np.max(np.abs(y - ref)) <= tol * np.max(np.abs(ref))

    @pytest.mark.parametrize("points, tol", [(101, 1e-3), (1001, 1e-5)])
    def test_descent_times_read_psi(self, points, tol):
        curve = reconstruct_curve(_table(S_PSI, np.linspace(0.0, 1.0, points)), 1.0, points)
        for a in (0.25, 0.5, 0.75, 1.0):
            T = simulate_descent(curve, a).T
            assert abs(T - PSI(a)) <= tol * PSI(a)


# psi exponents {0, 1/2, 1, 3/2} map to s exponents {1/2, 1, 3/2, 2} at
# n = 1/2; a psi coefficient c >= 2 at a^(1/2) gives s the term (c/2) x, and
# nonnegative others keep s' >= 1, so every secant is >= 1 too
feasible_psi = st.tuples(
    st.floats(2.0, 4.0),
    st.lists(
        st.tuples(st.sampled_from((0.0, 1.0, 1.5)), st.floats(0.0, 2.0)),
        max_size=3,
        unique_by=lambda t: t[0],
    ),
).map(lambda a: PowerSum([(a[0], 0.5)] + [(c, e) for e, c in a[1]]))


@settings(max_examples=40, deadline=None)
@given(
    psi=feasible_psi,
    x_max=st.floats(0.1, 2.0),
    rows=st.integers(2, 501),
    grading=st.sampled_from((1.0, 2.0, 3.0)),
    points=st.integers(2, 501),
)
def test_feasible_tables_give_polygons(psi, x_max, rows, grading, points):
    s = solve_series(AbelProblem(psi, 0.5)).s
    tab = _table(s, graded_mesh(x_max, rows, exponent=grading))
    reconstruct_curve(tab, x_max, points)
    _assert_chords(_reconstruct_tabulated(tab, tab.xs, 0.5))


class TestMessagesReadPlainFloats:
    def test_chord_cell(self):
        xs = np.array([0.0, 0.01, 0.02])
        y = np.array([0.0, math.sqrt(3.0) * 0.01, math.sqrt(3.0) * 0.01])
        with pytest.raises(DomainError, match=r"cell \[0\.01, 0\.02\]") as err:
            CurveSamples(xs, 2.0 * xs, y)
        assert "np.float64(" not in str(err.value)

    def test_tabulated_range(self):
        tab = TabulatedFunction([0.0, 0.01], [0.0, 0.02])
        with pytest.raises(DomainError, match=r"x_max 0\.5 exceeds tabulated range 0\.01") as err:
            reconstruct_curve(tab, 0.5, 3)
        assert "np.float64(" not in str(err.value)

    def test_grid_start(self):
        with pytest.raises(DomainError, match=r"xs\[0\] = 0\.01$") as err:
            TabulatedFunction(np.array([0.01, 1.0]), np.array([0.0, 1.0]))
        assert "np.float64(" not in str(err.value)
