"""Batched curve reconstruction against the per-cell route it replaces.

reconstruct_curve integrates sqrt(s'^2 - 1) over every cell of a span in
one array call of smooth_integral.  The reference here is the per-cell
route: each cell clipped to each span and integrated on its own by the
scalar smooth_integral, the pieces summed in span order, then a
cumulative sum.  When s' is unbounded at 0 the cell there takes the
substitution t = u**2 if every exponent of s' is a multiple of 1/2, and
left_weighted_integral otherwise.  Every value must agree, including where
the node cap makes a cell raise.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abelfrac import (
    AbelProblem,
    ConvergenceError,
    DomainError,
    PiecewisePowerSum,
    PowerSum,
    QuadratureConfig,
    reconstruct_curve,
    smooth_integral,
    solve_series,
)
from abelfrac import tautochrone
from abelfrac.quadrature import left_weighted_integral

RTOL = 1e-13
# cells stop at different doublings from a 2-node start
LOOSE_CFG = QuadratureConfig(node_count=2, abs_tol=1e-9, rel_tol=1e-9)
CONFIGS = [tautochrone._CELL_CFG, LOOSE_CFG]


def _w(terms):
    def w(t):
        v = sum(c * np.power(t, e) for c, e in terms)
        return np.sqrt(np.maximum(v * v - 1.0, 0.0))

    return w


def per_cell_y(s, xs: np.ndarray, cfg: QuadratureConfig) -> np.ndarray:
    spans = tautochrone._segment_slope_terms(s)
    y = [0.0]
    for lo, hi in zip(xs[:-1].tolist(), xs[1:].tolist()):
        total = 0.0
        for seg_lo, seg_hi, terms in spans:
            a, b = max(lo, seg_lo), min(hi, seg_hi)
            if b <= a:
                continue
            w = _w(terms)
            le = min((e for _, e in terms), default=0.0)
            if a == 0.0 and le < 0.0:
                if all((2.0 * e).is_integer() for _, e in terms):
                    total += smooth_integral(lambda u: w(u * u) * 2.0 * u, 0.0, math.sqrt(b), cfg)
                else:
                    total += left_weighted_integral(
                        lambda t: w(t) * t ** (-le), b, le, cfg
                    )
            else:
                total += smooth_integral(w, a, b, cfg)
        y.append(y[-1] + total)
    return np.array(y)


def batched_y(s, x_max: float, points: int, cfg: QuadratureConfig) -> np.ndarray:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tautochrone, "_CELL_CFG", cfg)
        return reconstruct_curve(s, x_max, points).y


def assert_close(y, ref):
    assert y.shape == ref.shape
    assert np.all(np.abs(y - ref) <= RTOL * np.abs(ref))


# psi exponents {0, 1/2, 1, 3/2} map to s exponents {1/2, 1, 3/2, 2} at
# n = 1/2; a psi coefficient c at a^(1/2) gives s the term (c/2) x, so
# c >= 2 and nonnegative others keep s' >= 1 (feasible) everywhere
feasible_psi = st.tuples(
    st.floats(2.0, 4.0),
    st.lists(
        st.tuples(st.sampled_from((0.0, 1.0, 1.5)), st.floats(0.0, 2.0)),
        max_size=3,
        unique_by=lambda t: t[0],
    ),
).map(lambda a: PowerSum([(a[0], 0.5)] + [(c, e) for e, c in a[1]]))


class TestEquivalence:
    @pytest.mark.parametrize("cfg", CONFIGS, ids=["cell_cfg", "loose"])
    @settings(max_examples=25, deadline=None)
    @given(
        psi=feasible_psi,
        x_max=st.floats(0.1, 2.0),
        points=st.integers(2, 2001),
    )
    # s' once held the term 0.5 * 5e-324 = 0 times t**(-1/2): 0 * inf at 0
    @example(psi=PowerSum(((5e-324, 0.0), (2.0, 0.5))), x_max=1.0, points=2)
    def test_series_map_matches_per_cell(self, cfg, psi, x_max, points):
        s = solve_series(AbelProblem(psi, 0.5)).s
        xs = np.linspace(0.0, x_max, points)
        assert_close(batched_y(s, x_max, points, cfg), per_cell_y(s, xs, cfg))

    def test_mixed_half_powers_converge_at_zero(self):
        # s = 2 sqrt(x) + 1.5 x: s' = x**(-1/2) + 1.5 mixes t**(-1/2) and
        # t**0, which stalled the weighted end rule at the node cap on a
        # wide first cell.  Reference: mpmath.quad at 30 digits of
        # integral_0^x sqrt((t**(-1/2) + 1.5)**2 - 1) dt, x = 0.1, ..., 1
        ref = [
            0.7745820768427022, 1.1741798806303405, 1.5106340836737775,
            1.8140366700556936, 2.096134321190505, 2.3629895309710687,
            2.618223317389967, 2.8642063673092646, 3.1025925377531265,
            3.334590779813093,
        ]
        y = reconstruct_curve(PowerSum(((2.0, 0.5), (1.5, 1.0))), 1.0, 11).y
        np.testing.assert_allclose(y[1:], ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["cell_cfg", "loose"])
    def test_cycloid_matches_per_cell(self, cfg):
        # s = k sqrt(x): the first cell takes the weighted end rule
        s = PowerSum.monomial(4.0 / math.pi, 0.5)
        xs = np.linspace(0.0, 0.4, 1001)
        assert_close(batched_y(s, 0.4, 1001, cfg), per_cell_y(s, xs, cfg))

    def test_loose_config_stops_cells_at_different_doublings(self):
        # the scalar doubling needs more nodes near the x**(-1/2) end than
        # far from it, so one array call holds cells of several rule sizes
        s = solve_series(AbelProblem(PowerSum([(1.0, 0.0), (2.0, 0.5)]), 0.5)).s
        w = _w(s.derivative_terms())
        xs = np.linspace(0.0, 1.0, 201)
        sizes = set()
        for a, b in zip(xs[1:-1], xs[2:]):
            counted = []

            def g(t):
                counted.append(t.size)
                return w(t)

            smooth_integral(g, a, b, LOOSE_CFG)
            sizes.add(max(counted))
        assert len(sizes) > 1


class TestArraySmoothIntegral:
    def test_values_equal_scalar_calls(self):
        a = np.array([0.0, 0.5, 1.0, 3.0])
        b = np.array([0.1, 2.0, 1.0, 2.0])
        out = smooth_integral(np.exp, a, b, LOOSE_CFG)
        ref = [smooth_integral(np.exp, float(p), float(q), LOOSE_CFG) for p, q in zip(a, b)]
        assert out[2] == out[3] == 0.0  # empty and reversed intervals
        assert_close(out, np.array(ref))

    def test_scalar_limit_broadcasts(self):
        b = np.array([0.5, 1.0, 2.0])
        out = smooth_integral(np.cos, 0.0, b)
        assert np.allclose(out, np.sin(b), rtol=1e-14, atol=0.0)

    def test_two_dimensional_limits_rejected(self):
        with pytest.raises(DomainError):
            smooth_integral(np.cos, 0.0, np.ones((2, 2)))


def _two_slope_arc(b: float) -> PiecewisePowerSum:
    # s = 2x below b and 2b + 3(x - b) above: y' = sqrt(3), then sqrt(8)
    return PiecewisePowerSum(
        [b], [PowerSum.monomial(2.0, 1.0), PowerSum([(-b, 0.0), (3.0, 1.0)])]
    )


class TestPiecewiseArcLength:
    @pytest.mark.parametrize("on_node", [False, True], ids=["inside_cell", "on_node"])
    def test_two_slopes_match_closed_form(self, on_node):
        xs = np.linspace(0.0, 1.0, 11)
        b = float(xs[4]) if on_node else 0.35
        s = _two_slope_arc(b)
        y = reconstruct_curve(s, 1.0, 11).y
        exact = math.sqrt(3.0) * np.minimum(xs, b) + math.sqrt(8.0) * np.maximum(xs - b, 0.0)
        assert np.allclose(y, exact, rtol=1e-12, atol=1e-12)
        assert_close(y, per_cell_y(s, xs, tautochrone._CELL_CFG))


class TestStallParity:
    # s' = 1 + (x - 1/2)^2, so sqrt(s'^2 - 1) = |u| sqrt(2 + u^2) with
    # u = x - 1/2: a kink at 1/2 that Gauss-Legendre cannot resolve
    S = PowerSum([(1.25, 1.0), (-0.5, 2.0), (1.0 / 3.0, 3.0)])

    def test_cell_holding_the_kink_raises(self):
        xs = np.array([0.0, 1.0])
        with pytest.raises(ConvergenceError):
            per_cell_y(self.S, xs, tautochrone._CELL_CFG)
        with pytest.raises(ConvergenceError):
            reconstruct_curve(self.S, 1.0, 2)

    def test_kink_on_a_node_converges(self):
        y = reconstruct_curve(self.S, 1.0, 101).y
        xs = np.linspace(0.0, 1.0, 101)
        assert_close(y, per_cell_y(self.S, xs, tautochrone._CELL_CFG))

        def F(u):
            return (2.0 + u * u) ** 1.5 / 3.0

        u = xs - 0.5
        exact = np.where(u <= 0.0, F(0.5) - F(u), F(0.5) + F(u) - 2.0 * F(0.0))
        assert np.allclose(y, exact, rtol=1e-12, atol=1e-12)
