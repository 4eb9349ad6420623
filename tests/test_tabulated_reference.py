"""Product integration of tabulated input against a closed form.

A table with nodes t_0 = 0 < t_1 < ... and values v_k is taken as the
piecewise linear interpolant, which is

    f(t) = v_0 + s_0 t + sum_k (s_k - s_(k-1)) (t - t_k)_+ ,

s_k the slope of cell [t_k, t_(k+1)].  Each term has an elementary kernel
integral, so

    K[f](x) = v_0 x**p / p + s_0 x**(p+1) / (p (p+1))
              + sum_(t_k < x) (s_k - s_(k-1)) (x - t_k)**(p+1) / (p (p+1)),

evaluated here in mpmath at 40 digits.  It shares no code with the cell
sums it checks: the dense cell sum, the node integrals of a uniform table
and float calls, at nodes and off them, on uniform and graded noisy tables.
"""

import numpy as np
import pytest

from abelfrac import TabulatedFunction
from abelfrac import quadrature
from abelfrac.quadrature import graded_mesh, singular_integral_tabulated

mp = pytest.importorskip("mpmath")

ORDERS = (0.25, 0.5, 0.75)
TABLES = {
    "uniform": np.linspace(0.0, 1.7, 201),
    "graded": graded_mesh(1.7, 201, exponent=2.0),
}


def _table(t, seed=0):
    rng = np.random.default_rng(seed)
    return TabulatedFunction(t, 1.0 + np.sqrt(t) + 0.1 * rng.random(t.size))


def _closed_form(f, xs, p):
    with mp.workdps(40):
        t = [mp.mpf(float(a)) for a in f.xs]
        v = [mp.mpf(float(a)) for a in f.values]
        s = [(v[k + 1] - v[k]) / (t[k + 1] - t[k]) for k in range(len(t) - 1)]
        p = mp.mpf(p)
        q = p * (p + 1)
        out = []
        for x in xs:
            x = mp.mpf(float(x))
            total = v[0] * x**p / p + s[0] * x ** (p + 1) / q
            for k in range(1, len(s)):
                if t[k] >= x:
                    break
                total += (s[k] - s[k - 1]) * (x - t[k]) ** (p + 1) / q
            out.append(float(total))
    return np.array(out)


def _rel(got, want):
    return float(np.max(np.abs(np.asarray(got) - want) / np.abs(want)))


@pytest.fixture(autouse=True)
def empty_cache():
    quadrature._table_nodes.cache_clear()
    yield
    quadrature._table_nodes.cache_clear()


@pytest.mark.parametrize("p", ORDERS)
@pytest.mark.parametrize("kind", list(TABLES))
def test_cell_sums_equal_the_closed_form(kind, p):
    f = _table(TABLES[kind], seed=len(kind))
    nodes = f.xs[1:]
    mids = 0.5 * (f.xs[:-1] + f.xs[1:])
    points = np.concatenate((nodes[::3], mids[::3], [float(f.xs[-1])]))
    want = _closed_form(f, points, p)
    assert _rel(quadrature._tabulated_dense(f, points, p), want) <= 1e-13
    floats = [singular_integral_tabulated(f, float(x), p) for x in points]
    assert _rel(floats, want) <= 1e-13
    if kind == "uniform":
        want_nodes = _closed_form(f, nodes, p)
        assert _rel(quadrature._table_nodes(f, p)[0][1:], want_nodes) <= 1e-13
    else:
        assert quadrature._table_nodes(f, p) is None
