"""simulate_descent against the per-node cell search it replaced.

The descent integrates every cell of the arc in one array quadrature, and
each row of nodes reads its own cell's cubic.  The reference here is the
earlier integrand: every node finds its cell by a search of sigma = L - r**2
among the cell edges, then the same cubic is evaluated, all through
smooth_integral.  The reference also takes s(a) and every slope from the
whole table, so it reads nothing of the arc data a curve keeps after its
first descent.  Both must give the same T, steps and max_residual to the
last bit, on a curve that has run every other height and on a fresh copy.
"""

import math

import numpy as np
import pytest

from abelfrac import (
    AbelProblem,
    PowerSum,
    QuadratureConfig,
    reconstruct_curve,
    simulate_descent,
    smooth_integral,
    solve_series,
)
from abelfrac.tautochrone import _TINY, CurveSamples, _cubic_from_right, _pchip_slopes


def whole_table_s(curve, a: float) -> float:
    """s(a) on the monotone cubic s(x) with the slopes of the whole table."""
    xs, s = curve.xs, curve.s
    k = int(np.searchsorted(xs, a)) - 1
    d = _pchip_slopes(xs, s)
    c2, c3 = _cubic_from_right(xs[k : k + 2], s[k : k + 2], d[k : k + 2])
    u = xs[k + 1] - a
    return float(s[k + 1] - u * (d[k + 1] - u * (c2[0] + u * c3[0])))


def searched_descent(curve, a: float, rel_tol: float = 1e-9):
    """(T, steps, max_residual) with the cell of every node searched."""
    a = min(a, curve.x_max)
    cfg = QuadratureConfig(node_count=8, abs_tol=_TINY, rel_tol=rel_tol)
    inside = curve.xs < a - 1e-12 * curve.x_max
    x_nodes = np.append(curve.xs[inside], a)
    s_nodes = np.append(curve.s[inside], whole_table_s(curve, a))
    L = float(s_nodes[-1])
    d = _pchip_slopes(s_nodes, x_nodes)
    c2, c3 = _cubic_from_right(s_nodes, x_nodes, d)
    drop = a - x_nodes[1:]
    rho = L - s_nodes[1:]
    neg_rho = -rho

    def integrand(r):
        k = np.minimum(np.searchsorted(neg_rho, -r * r), rho.size - 1)
        u = r * r - rho[k]
        return 2.0 * r / np.sqrt(drop[k] + u * (d[k + 1] - u * (c2[k] + u * c3[k])))

    tau = smooth_integral(integrand, np.sqrt(rho), np.sqrt(L - s_nodes[:-1]), cfg)
    h = np.diff(s_nodes)
    max_residual = float(np.max(h * np.abs(np.diff(d))) / (8.0 * a))
    return float(np.sum(tau)) / math.sqrt(2.0 * curve.g), int(h.size), max_residual


# (arc length, x_max)
ARCS = {
    # s' bounded: psi = 4 + a at n = 1/2
    "series": (solve_series(AbelProblem(PowerSum(((4.0, 0.0), (1.0, 1.0))), 0.5)).s, 1.0),
    # s' ~ x**(-1/2): the cycloid, low enough that one cell passes the
    # chord check
    "cycloid": (PowerSum.monomial(4.0 / math.pi, 0.5), 0.2),
}


def heights(xs: np.ndarray) -> list:
    """On nodes, 2e-12 above them and 1e-13 of themselves below, at x_max
    and 1e-13 of it above, just above 0, and 20 random points."""
    x_max = float(xs[-1])
    nodes = [float(x) for x in xs[1:: max(1, (xs.size - 1) // 4)]]
    rng = np.random.default_rng(xs.size)
    return (
        nodes
        + [x + 2e-12 for x in nodes if x < x_max]
        + [x * (1.0 - 1e-13) for x in nodes]
        + [x_max, x_max * (1.0 + 1e-13), 3e-12 * x_max, 1e-9 * x_max, 0.3 * float(xs[1])]
        + rng.uniform(0.0, x_max, 20).tolist()
    )


@pytest.mark.parametrize("arc", sorted(ARCS))
@pytest.mark.parametrize("points", [2, 3, 4, 5, 11, 1001])
@pytest.mark.parametrize("rel_tol", [1e-9, 1e-12])
def test_descent_matches_searched_cells_exactly(arc, points, rel_tol):
    curve = reconstruct_curve(*ARCS[arc], points)
    hs = heights(curve.xs)
    for a in hs:
        simulate_descent(curve, a, rel_tol=rel_tol)
    # every height again, on the curve that has run them all and on a copy
    # that has run none
    for a in hs:
        want = searched_descent(curve, a, rel_tol)
        fresh = CurveSamples(curve.xs, curve.s, curve.y, curve.g)
        for c in (curve, fresh):
            res = simulate_descent(c, a, rel_tol=rel_tol)
            assert (res.T, res.steps, res.max_residual) == want


def test_zero_width_release_cell_matches_searched_cells():
    # a kink of slope 1e6 below a node of slope 1: just above that node,
    # s(a) rounds to s at the node, so the release cell has zero width.
    # Its secant is inf and its residual NaN, as the array arithmetic of
    # the whole clipped table gives them
    y1 = math.sqrt(1e12 - 1.0)
    curve = CurveSamples([0.0, 1.0, 2.0], [0.0, 1e6, 1e6 + 1.0], [0.0, y1, y1])
    for a in (1.0 + 4e-12, 1.0 + 1e-11):
        with np.errstate(divide="ignore", invalid="ignore"):
            res = simulate_descent(curve, a)
            T, steps, max_residual = searched_descent(curve, a)
        assert (res.T, res.steps) == (T, steps) and math.isfinite(T)
        assert math.isnan(res.max_residual) and math.isnan(max_residual)
