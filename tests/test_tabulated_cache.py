"""The node-integral cache of uniform tables.

On a uniform table the product-integration integral J = K[f] at every
node comes from one lag-only (Toeplitz) convolution, kept per (table,
order) by ``quadrature._node_integrals``.  A grid (a float is the
one-point grid) whose points are all nodes of a uniform table, and the
derivative kernel's differences at a node, read it; everything else takes
the dense cell sum ``quadrature._tabulated_dense``, which is the reference
here.
"""

import math

import numpy as np
import pytest

from abelfrac import DomainError, TabulatedFunction, caputo_derivative
from abelfrac import quadrature
from abelfrac.quadrature import singular_integral_tabulated, tabulated_derivative_kernel

ORDERS = (0.25, 0.5, 0.75)


def _table(t, seed=0):
    rng = np.random.default_rng(seed)
    return TabulatedFunction(t, 1.0 + np.sqrt(t) + 0.1 * rng.random(t.size))


def _uniform(size=201, x_max=1.7, seed=0):
    return _table(np.linspace(0.0, x_max, size), seed)


def _rel(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.abs(want)))


@pytest.fixture(autouse=True)
def empty_cache():
    quadrature._node_integrals.cache_clear()
    yield
    quadrature._node_integrals.cache_clear()


def _cell_sum(f, x, p):
    """K[f](x) for one float x from the dense cell sum."""
    return float(quadrature._tabulated_dense(f, np.array([x]), p)[0])


def _forbid(monkeypatch, name):
    def fail(*args):
        raise AssertionError(f"{name} must not run here")

    monkeypatch.setattr(quadrature, name, fail)


def _forbid_toeplitz(monkeypatch):
    # the node integrals are not built
    _forbid(monkeypatch, "_tabulated_toeplitz")


class TestOnNodeValues:
    @pytest.mark.parametrize("p", ORDERS)
    def test_scalar_equals_grid_and_cell_sum(self, p):
        f = _uniform(seed=1)
        grid = singular_integral_tabulated(f, f.xs, p)
        scalar = [singular_integral_tabulated(f, float(x), p) for x in f.xs]
        assert np.array_equal(scalar, grid)
        cells = quadrature._tabulated_dense(f, f.xs[1:], p)
        assert _rel(scalar[1:], cells) <= 1e-13
        assert scalar[0] == 0.0

    def test_point_within_a_few_ulps_of_a_node_reads_it(self):
        f = _uniform()
        x = float(f.xs[57])
        near = np.nextafter(np.nextafter(x, 2.0), 2.0)
        assert singular_integral_tabulated(f, near, 0.5) == singular_integral_tabulated(
            f, x, 0.5
        )

    def test_grid_result_is_a_copy(self):
        f = _uniform()
        grid = singular_integral_tabulated(f, f.xs, 0.5)
        grid[:] = -1.0
        assert singular_integral_tabulated(f, float(f.xs[3]), 0.5) > 0.0

    @pytest.mark.parametrize("n", ORDERS)
    def test_derivative_matches_uncached_route(self, n, monkeypatch):
        # increasing data keeps K[f'] away from 0; on noisy data it crosses
        # 0, where a relative bound measures cancellation, not the cache
        t = np.linspace(0.0, 1.7, 201)
        f = TabulatedFunction(t, 1.0 + np.sqrt(t) + t**1.5)
        xs = [float(x) for x in f.xs[1:]]
        got = [tabulated_derivative_kernel(f, x, 1.0 - n) for x in xs]
        caputo = [caputo_derivative(f, n, x) for x in xs]
        monkeypatch.setattr(quadrature, "_node_integrals", lambda f, p: None)
        want = [tabulated_derivative_kernel(f, x, 1.0 - n) for x in xs]
        want_caputo = [caputo_derivative(f, n, x) for x in xs]
        assert _rel(got, want) <= 1e-11
        assert _rel(caputo, want_caputo) <= 1e-11

    @pytest.mark.parametrize("p", ORDERS)
    def test_derivative_on_node_differences_the_node_integrals(self, p):
        f = _uniform(seed=2)
        K = [singular_integral_tabulated(f, float(x), p) for x in f.xs]
        last = f.xs.size - 1
        f0 = float(f.values[0])
        for k in (1, 2, last // 2, last):
            x = float(f.xs[k])
            # the step is the width of the cell ending at x
            h = x - float(f.xs[k - 1])
            if k == last:
                slope = (3.0 * K[k] - 4.0 * K[k - 1] + K[k - 2]) / (2.0 * h)
            else:
                slope = (K[k + 1] - K[k - 1]) / (2.0 * h)
            assert tabulated_derivative_kernel(f, x, p) == slope - f0 * x ** (p - 1.0)

    def test_derivative_near_node_steps_over_the_searched_cell(self):
        # a point a few ulps off node k reads node k's neighbours, with the
        # step of the cell np.searchsorted puts it in: k's own, or k + 1's
        # (np.linspace cells differ in their last bits at about half the
        # nodes of this table, so the two steps are not the same number)
        f = _uniform(size=1001, x_max=1.7, seed=4)
        K = [singular_integral_tabulated(f, float(x), 0.5) for x in f.xs]
        f0 = float(f.values[0])
        widths = np.diff(f.xs)
        assert np.any(widths[2:-1] != widths[1:-2])
        # nodes 1 and 999 are left out: there x -+ h can leave [0, 1.7],
        # and a one-sided difference is taken
        for k in range(2, f.xs.size - 2):
            node = float(f.xs[k])
            up = np.nextafter(node, 2.0)
            down = np.nextafter(node, 0.0)
            for x in (node, up, np.nextafter(up, 2.0), down, np.nextafter(down, 0.0)):
                x = float(x)
                j = int(np.searchsorted(f.xs, x))
                h = float(f.xs[j]) - float(f.xs[j - 1])
                slope = (K[k + 1] - K[k - 1]) / (2.0 * h)
                assert tabulated_derivative_kernel(f, x, 0.5) == slope - f0 * x ** (0.5 - 1.0)


class TestBypass:
    def test_off_node_points_leave_the_cache_alone(self):
        f = _uniform(size=1001, x_max=1.0)
        xs = np.random.default_rng(3).uniform(0.01, 0.99, 20)
        for x in xs:
            singular_integral_tabulated(f, float(x), 0.5)
            tabulated_derivative_kernel(f, float(x), 0.5)
        info = quadrature._node_integrals.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_off_node_value_is_the_cell_sum(self):
        f = _uniform()
        x = 0.5 * float(f.xs[10] + f.xs[11])
        assert singular_integral_tabulated(f, x, 0.5) == _cell_sum(f, x, 0.5)

    def test_perturbed_table_takes_the_cell_route(self, monkeypatch):
        t = np.linspace(0.0, 1.0, 201)
        t[1:-1] += 1e-9 * np.random.default_rng(4).uniform(-1.0, 1.0, t.size - 2)
        f = _table(t)
        _forbid_toeplitz(monkeypatch)
        for x in t[1::20]:
            x = float(x)
            got = singular_integral_tabulated(f, x, 0.5)
            assert got == _cell_sum(f, x, 0.5)
            tabulated_derivative_kernel(f, x, 0.5)
        assert quadrature._node_integrals(f, 0.5) is None


class TestGridRouting:
    @pytest.mark.parametrize("p", ORDERS)
    def test_every_50th_node_reads_the_own_grid_values(self, p, monkeypatch):
        f = _uniform(size=1001, x_max=1.0, seed=6)
        own = singular_integral_tabulated(f, f.xs, p)
        _forbid(monkeypatch, "_tabulated_dense")
        assert np.array_equal(singular_integral_tabulated(f, f.xs[::50], p), own[::50])
        # np.linspace's 21 points are within a few ulps of those nodes
        x21 = np.linspace(0.0, 1.0, 21)
        assert np.array_equal(singular_integral_tabulated(f, x21, p), own[::50])

    def test_one_point_off_the_nodes_takes_the_dense_sum(self, monkeypatch):
        f = _uniform(size=1001, x_max=1.0, seed=7)
        xs = f.xs[::50].copy()
        xs[7] = 0.5 * float(f.xs[350] + f.xs[351])
        _forbid_toeplitz(monkeypatch)
        got = singular_integral_tabulated(f, xs, 0.5)
        assert np.array_equal(got, quadrature._tabulated_dense(f, xs, 0.5))
        info = quadrature._node_integrals.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_empty_grid_builds_nothing(self, monkeypatch):
        _forbid_toeplitz(monkeypatch)
        got = singular_integral_tabulated(_uniform(), np.array([]), 0.5)
        assert got.shape == (0,)

    def test_points_past_x_max_by_rounding_read_the_last_node(self):
        f = _uniform(size=101, x_max=1.7)
        own = singular_integral_tabulated(f, f.xs, 0.5)
        past = 1.7 * (1.0 + 1e-13)
        assert singular_integral_tabulated(f, past, 0.5) == own[-1]
        with pytest.raises(DomainError):
            singular_integral_tabulated(f, np.array([0.5, 1.7 * (1.0 + 1e-11)]), 0.5)
        with pytest.raises(DomainError):
            singular_integral_tabulated(f, -1e-300, 0.5)


class TestCacheKey:
    def test_equal_samples_do_not_share_an_entry(self):
        t = np.linspace(0.0, 1.0, 101)
        f, g = TabulatedFunction(t, np.sqrt(t)), TabulatedFunction(t, np.sqrt(t))
        singular_integral_tabulated(f, 0.5, 0.5)
        singular_integral_tabulated(g, 0.5, 0.5)
        info = quadrature._node_integrals.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        assert quadrature._node_integrals(f, 0.5) is not quadrature._node_integrals(
            g, 0.5
        )

    def test_orders_do_not_share_an_entry(self):
        f = _uniform()
        x = float(f.xs[100])
        a = singular_integral_tabulated(f, x, 0.25)
        b = singular_integral_tabulated(f, x, 0.75)
        assert quadrature._node_integrals.cache_info().misses == 2
        assert a == pytest.approx(_cell_sum(f, x, 0.25), rel=1e-13)
        assert b == pytest.approx(_cell_sum(f, x, 0.75), rel=1e-13)

    def test_on_node_differences_are_lookups(self, monkeypatch):
        # an on-node difference does not sum the cells
        _forbid(monkeypatch, "_tabulated_dense")
        # uniform to 3 ulps but not np.linspace's rounding: the float points
        # x +- step then drift off the nodes, the node indices do not
        t = np.linspace(0.0, 1.7, 1001)
        sign = np.random.default_rng(5).choice([-1.0, 1.0], t.size - 2)
        t[1:-1] *= 1.0 + 3.0 * np.finfo(float).eps * sign
        f = _table(t)
        for x in f.xs[1:]:
            tabulated_derivative_kernel(f, float(x), 0.5)
        info = quadrature._node_integrals.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_never_grows_past_maxsize(self):
        maxsize = quadrature._node_integrals.cache_parameters()["maxsize"]
        for seed in range(maxsize + 3):
            f = _uniform(size=11, seed=seed)
            singular_integral_tabulated(f, float(f.xs[5]), 0.5)
            assert quadrature._node_integrals.cache_info().currsize <= maxsize
        assert quadrature._node_integrals.cache_info().currsize == maxsize

    def test_cached_nodes_are_read_only(self):
        f = _uniform()
        nodes = quadrature._node_integrals(f, 0.5)
        with pytest.raises(ValueError):
            nodes[0] = 1.0


class TestNarrowTable:
    """No full step fits on either side of x: the difference steps over
    the longer side and stays in [0, x_max]."""

    def test_two_node_table(self):
        f = TabulatedFunction([0.0, 1.0], [0.0, 1.0])

        def J(a):
            return singular_integral_tabulated(f, a, 0.5)

        # f(t) = t: J(a) = a**1.5 / 0.75
        assert tabulated_derivative_kernel(f, 0.3, 0.5) == pytest.approx(
            (J(1.0) - J(0.3)) / 0.7, rel=1e-14
        )
        assert tabulated_derivative_kernel(f, 0.5, 0.5) == pytest.approx(
            J(1.0) - J(0.0), rel=1e-14
        )
        assert tabulated_derivative_kernel(f, 0.7, 0.5) == pytest.approx(
            J(0.7) / 0.7, rel=1e-14
        )
        assert caputo_derivative(f, 0.5, 0.5) == pytest.approx(
            (J(1.0) - J(0.0)) / math.gamma(0.5), rel=1e-14
        )

    def test_wide_first_cell(self):
        f = TabulatedFunction([0.0, 1.0, 1.5], [1.0, 2.0, 2.5])
        got = tabulated_derivative_kernel(f, 0.8, 0.5)
        want = (
            singular_integral_tabulated(f, 0.8, 0.5)
            - singular_integral_tabulated(f, 0.0, 0.5)
        ) / 0.8 - 0.8**-0.5
        assert got == pytest.approx(want, rel=1e-14)
