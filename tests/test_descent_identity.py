"""simulate_descent against the per-node cell search it replaced.

The descent integrates every cell of the arc in one array quadrature, and
each row of nodes reads its own cell's cubic.  The reference here is the
earlier integrand: every node finds its cell by a search of sigma = L - r**2
among the cell edges, then the same cubic is evaluated, all through
smooth_integral.  Both must give the same T, steps and max_residual to the
last bit.
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
from abelfrac.tautochrone import _TINY, _cubic_from_right, _pchip_slopes, _s_at


def searched_descent(curve, a: float, rel_tol: float = 1e-9):
    """(T, steps, max_residual) with the cell of every node searched."""
    a = min(a, curve.x_max)
    cfg = QuadratureConfig(node_count=8, abs_tol=_TINY, rel_tol=rel_tol)
    inside = curve.xs < a - 1e-12 * curve.x_max
    x_nodes = np.append(curve.xs[inside], a)
    s_nodes = np.append(curve.s[inside], _s_at(curve, a))
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
    """On nodes, 2e-12 above them, at x_max, and just above 0."""
    x_max = float(xs[-1])
    nodes = [float(x) for x in xs[1:: max(1, (xs.size - 1) // 4)]]
    return (
        nodes
        + [x + 2e-12 for x in nodes if x < x_max]
        + [x_max, 3e-12 * x_max, 1e-9 * x_max, 0.3 * float(xs[1])]
    )


@pytest.mark.parametrize("arc", sorted(ARCS))
@pytest.mark.parametrize("points", [2, 3, 1001])
@pytest.mark.parametrize("rel_tol", [1e-9, 1e-12])
def test_descent_matches_searched_cells_exactly(arc, points, rel_tol):
    curve = reconstruct_curve(*ARCS[arc], points)
    for a in heights(curve.xs):
        res = simulate_descent(curve, a, rel_tol=rel_tol)
        assert (res.T, res.steps, res.max_residual) == searched_descent(curve, a, rel_tol)
