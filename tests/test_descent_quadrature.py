"""Descent times by quadrature on the sampled curve.

simulate_descent reads the arc as the monotone cubic through the samples
and integrates T = integral_0^L dsigma / sqrt(2g (a - x(sigma))) cell by
cell.  The references here are independent of that code: the node slopes
against scipy's PchipInterpolator, and T against scipy.integrate.quad of
the same integral in sigma on scipy's interpolants (the release cell with
QUADPACK's algebraic end weight instead of the substitution
sigma = L - r**2).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelfrac import (
    AbelProblem,
    PowerSum,
    descent_time_integral,
    reconstruct_curve,
    simulate_descent,
    solve_series,
)
from abelfrac.tautochrone import _pchip_slopes

interpolate = pytest.importorskip("scipy.interpolate")
integrate = pytest.importorskip("scipy.integrate")


def scipy_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # each piece's linear coefficient is the slope at its left node; the
    # last node is the first of the mirrored data, whose slope flips sign
    left = interpolate.PchipInterpolator(x, y).c[2]
    last = interpolate.PchipInterpolator(-x[::-1], y[::-1]).c[2][0]
    return np.append(left, -last)


def assert_slopes_match(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    np.testing.assert_allclose(_pchip_slopes(x, y), scipy_slopes(x, y), rtol=1e-15, atol=0.0)


class TestPchipSlopes:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_increasing_data(self, seed):
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.uniform(0.01, 1.0, 200))
        y = np.cumsum(rng.uniform(0.0, 2.0, 200))
        assert_slopes_match(x, y)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_data_with_secant_sign_changes(self, seed):
        rng = np.random.default_rng([seed, 1])
        x = np.cumsum(rng.uniform(0.01, 1.0, 200))
        assert_slopes_match(x, rng.normal(size=200))

    def test_flat_spots(self):
        x = np.linspace(0.0, 1.0, 12)
        y = np.array([0.0, 1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 2.0, 2.0, 5.0, 5.0, 5.0])
        assert_slopes_match(x, y)

    @pytest.mark.parametrize(
        "x, y",
        [
            ([0.0, 1.0], [2.0, 5.0]),
            ([0.0, 0.3], [1.0, 1.0]),
            ([0.0, 1.0, 1.5], [0.0, 1.0, 4.0]),
            ([0.0, 1.0, 3.0], [0.0, 2.0, 1.0]),
            ([0.0, 0.1, 1.0], [0.0, 1.0, 1.0]),
        ],
    )
    def test_two_and_three_nodes(self, x, y):
        assert_slopes_match(x, y)


def quad_time(curve, a: float) -> float:
    """T on scipy's monotone cubics, by QUADPACK, cell by cell.

    On cell k, with v = s_k+1 - sigma the distance to its right node and
    c the cell's power-form coefficients from scipy,
    a - x(sigma) = (a - x_k+1) + v P(v) exactly, so nothing cancels near
    the release point; the release cell, where a - x_k+1 = 0, hands
    v**(-1/2) to QUADPACK's algebraic weight.
    """
    s_of_x = interpolate.PchipInterpolator(curve.xs, curve.s)
    inside = curve.xs < a - 1e-12 * curve.x_max
    x_nodes = np.append(curve.xs[inside], a)
    s_nodes = np.append(curve.s[inside], float(s_of_x(a)))
    coef = interpolate.PchipInterpolator(s_nodes, x_nodes).c
    last = s_nodes.size - 2
    total = 0.0
    for k in range(last + 1):
        c3, c2, c1 = coef[0, k], coef[1, k], coef[2, k]
        h = s_nodes[k + 1] - s_nodes[k]
        drop = a - x_nodes[k + 1]

        def P(v, h=h, c1=c1, c2=c2, c3=c3):
            t = h - v
            return c1 + c2 * (h + t) + c3 * (h * h + h * t + t * t)

        if k < last:
            total += integrate.quad(
                lambda v: (drop + v * P(v)) ** -0.5, 0.0, h,
                epsabs=0.0, epsrel=1e-13, limit=200,
            )[0]
        else:
            total += integrate.quad(
                lambda v: P(v) ** -0.5, 0.0, h, weight="alg", wvar=(-0.5, 0.0),
                epsabs=0.0, epsrel=1e-13,
            )[0]
    return total / math.sqrt(2.0 * curve.g)


CURVES = {
    "series": lambda: reconstruct_curve(
        solve_series(AbelProblem(PowerSum(((3.0, 0.0), (2.0, 0.5), (1.0, 1.0))), 0.5)).s,
        1.0, 41,
    ),
    "cycloid": lambda: reconstruct_curve(PowerSum.monomial(4.0 / math.pi, 0.5), 0.4, 31),
}


class TestAgainstQuadpack:
    @pytest.mark.parametrize("name", sorted(CURVES))
    @pytest.mark.parametrize(
        "where",
        ["on_node", "just_above_node", "just_below_node", "past_node", "top", "first_cell"],
    )
    def test_time_matches_quad(self, name, where):
        curve = CURVES[name]()
        node = float(curve.xs[17])
        # within 1e-12 x_max of a node the node is dropped; 1e-9 x_max past
        # it, the release cell is that short
        a = {
            "on_node": node,
            "just_above_node": node + 5e-13 * curve.x_max,
            "just_below_node": node - 5e-13 * curve.x_max,
            "past_node": node + 1e-9 * curve.x_max,
            "top": curve.x_max,
            "first_cell": 0.4 * float(curve.xs[1]),
        }[where]
        res = simulate_descent(curve, a)
        assert res.T == pytest.approx(quad_time(curve, a), rel=1e-9)
        # one cell per sample below a (less 1e-12 x_max), plus the one ending at a
        assert res.steps == int(np.count_nonzero(curve.xs < a - 1e-12 * curve.x_max))

    def test_tight_tolerance_agrees_with_default(self):
        curve = CURVES["series"]()
        for a in (0.05, 0.33, 0.71, 1.0):
            tight = simulate_descent(curve, a, rel_tol=1e-12).T
            assert simulate_descent(curve, a).T == pytest.approx(tight, rel=1e-9)

    def test_residual_is_cubic_against_linear_at_midpoints(self):
        curve = CURVES["series"]()
        a = 0.6
        res = simulate_descent(curve, a)
        s_of_x = interpolate.PchipInterpolator(curve.xs, curve.s)
        inside = curve.xs < a - 1e-12
        x_nodes = np.append(curve.xs[inside], a)
        s_nodes = np.append(curve.s[inside], float(s_of_x(a)))
        mids = 0.5 * (s_nodes[1:] + s_nodes[:-1])
        gap = interpolate.PchipInterpolator(s_nodes, x_nodes)(mids) - np.interp(mids, s_nodes, x_nodes)
        assert res.max_residual == pytest.approx(float(np.max(np.abs(gap))) / a, rel=1e-6)


# PHYSICS_CATALOG-style psi: a constant >= 4 (s' >= 4/pi) or a half power
# >= 2.2 (s' >= 1.1) keeps the curve feasible on (0, 1]; nonnegative
# extra terms only steepen it
physics_psi = st.tuples(
    st.one_of(
        st.tuples(st.floats(4.0, 6.0), st.just(0.0)),
        st.tuples(st.floats(2.2, 4.0), st.just(0.5)),
    ),
    st.lists(
        st.tuples(st.floats(0.0, 2.0), st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0))),
        max_size=2,
    ),
).map(lambda t: PowerSum([t[0]] + t[1]))


class TestPhysicsSweep:
    @settings(max_examples=30, deadline=None)
    @given(psi=physics_psi, a=st.floats(0.05, 1.0))
    def test_time_matches_descent_integral(self, psi, a):
        s = solve_series(AbelProblem(psi, 0.5)).s
        curve = reconstruct_curve(s, 1.0, 1001)
        res = simulate_descent(curve, a)
        assert res.steps > 0
        assert res.T == pytest.approx(descent_time_integral(s, a), rel=5e-4)
