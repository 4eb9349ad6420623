"""The node cache of uniform tables.

On a uniform table the product-integration integral J = K[f] at every
node comes from one lag-only (Toeplitz) convolution, and the derivative
kernel K[f'] at every node is the three-point rule on the node integrals
of K[f - f(0)]; ``quadrature._table_nodes`` keeps the pair per (table,
order).  A float at a node reads it with one lookup and one index, and
the node points of a grid read it through one mask.  The other points of
a grid take the dense cell sum ``quadrature._tabulated_dense`` (K[f]),
which is the reference here, or the rule (K[f']) in one array call, a
float off the nodes being its one-point grid.  x = 0 gives 0 before the
cache is read.
"""

import math

import numpy as np
import pytest

from abelfrac import (
    AbelProblem,
    DomainError,
    Order,
    TabulatedFunction,
    caputo_derivative,
    derivative_kernel,
    forward,
    rl_integral,
    solve_convolution,
)
from abelfrac import quadrature
from abelfrac.quadrature import (
    graded_mesh,
    singular_integral_tabulated,
    tabulated_derivative_kernel,
)

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
    quadrature._table_nodes.cache_clear()
    yield
    quadrature._table_nodes.cache_clear()


def _cache_info():
    info = quadrature._table_nodes.cache_info()
    return info.hits, info.misses, info.currsize


def _cell_sum(f, x, p):
    """K[f](x) for one float x from the dense cell sum."""
    return float(quadrature._tabulated_dense(f, np.array([x]), p)[0])


def _forbid(monkeypatch, name):
    def fail(*args):
        raise AssertionError(f"{name} must not run here")

    monkeypatch.setattr(quadrature, name, fail)


def _counted(monkeypatch, name):
    """Record the arguments of every call of quadrature.<name>."""
    calls = []
    real = getattr(quadrature, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(quadrature, name, counted)
    return calls


def _forbid_toeplitz(monkeypatch):
    # the node integrals are not built
    _forbid(monkeypatch, "_tabulated_toeplitz")


def _rule(f, x, p, c, h):
    """The slope at x of the quadratic through G = K[f - f(0)] at c - h,
    c and c + h."""
    y = np.array([c - h, c, c + h])
    gm, g0, gp = singular_integral_tabulated(f, y, p) - float(f.values[0]) * y**p / p
    u = (x - c) / h
    return (0.5 * (gp - gm) + u * (gp - 2.0 * g0 + gm)) / h


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
        monkeypatch.setattr(quadrature, "_table_nodes", lambda f, p: None)
        want = [tabulated_derivative_kernel(f, x, 1.0 - n) for x in xs]
        want_caputo = [caputo_derivative(f, n, x) for x in xs]
        assert _rel(got, want) <= 1e-11
        assert _rel(caputo, want_caputo) <= 1e-11

    @pytest.mark.parametrize("p", ORDERS)
    def test_derivative_on_node_is_the_three_point_rule_on_the_node_integrals(self, p):
        f = _uniform(seed=2)
        nodes = quadrature._table_nodes(f, p)[0]
        G = nodes - float(f.values[0]) * f.xs**p / p
        h = f.x_max / (f.xs.size - 1)
        last = f.xs.size - 1
        for k in (1, 2, last // 2, last - 1):
            x = float(f.xs[k])
            assert tabulated_derivative_kernel(f, x, p) == (G[k + 1] - G[k - 1]) / (2.0 * h)
        # the last node: the quadratic through the last three nodes
        want = (3.0 * G[last] - 4.0 * G[last - 1] + G[last - 2]) / (2.0 * h)
        got = tabulated_derivative_kernel(f, float(f.xs[last]), p)
        assert got == pytest.approx(want, rel=1e-12)

    def test_points_a_few_ulps_off_a_node_read_the_cache(self, monkeypatch):
        f = _uniform(size=1001, x_max=1.7, seed=4)
        on_node = [tabulated_derivative_kernel(f, float(x), 0.5) for x in f.xs[1:]]
        # no cell sum runs: every value below is read from the cache
        _forbid(monkeypatch, "_tabulated_dense")
        for k in range(1, f.xs.size):
            node = float(f.xs[k])
            up = np.nextafter(node, 2.0)
            down = np.nextafter(node, 0.0)
            for x in (up, np.nextafter(up, 2.0), down, np.nextafter(down, 0.0)):
                assert tabulated_derivative_kernel(f, float(x), 0.5) == on_node[k - 1]
        assert _cache_info()[1:] == (1, 1)


#: every public float read of a table at order n, as read(f, x, n)
NODE_READS = {
    "caputo_derivative": lambda f, x, n: caputo_derivative(f, n, x),
    "forward": lambda f, x, n: forward(f, n, x),
    "derivative_kernel": lambda f, x, n: derivative_kernel(f, x, 1.0 - n),
    "rl_integral": lambda f, x, n: rl_integral(f, n, x),
    "solve_convolution": lambda f, x, n: solve_convolution(AbelProblem(f, Order(n)), x),
    "singular_integral_tabulated": lambda f, x, n: singular_integral_tabulated(f, x, n),
}


class TestNodeReads:
    """A float at a node, and a grid of nodes, is one cache lookup and one
    index: no cell sum, no three-point rule, no one-point array."""

    @pytest.mark.parametrize("name", sorted(NODE_READS))
    @pytest.mark.parametrize("n", ORDERS)
    def test_float_node_reads_are_lookups_equal_to_one_array_call(self, name, n, monkeypatch):
        f = _uniform(size=1001, x_max=1.7, seed=8)
        read = NODE_READS[name]
        grid = read(f, f.xs[1:], n)  # builds the entry
        for route in ("_tabulated_dense", "_tabulated_slope", "_tabulated_toeplitz",
                      "_node_indices"):
            _forbid(monkeypatch, route)
        floats = [read(f, float(x), n) for x in f.xs[1:]]
        assert all(type(v) is float for v in floats)
        assert np.array_equal(floats, grid)

    @pytest.mark.parametrize("p", ORDERS)
    def test_node_grid_is_one_lookup_equal_to_the_float_calls(self, p, monkeypatch):
        # x = 0 gives 0, as a float 0 does; a point 2 ulps past x_max is
        # the last node; the grid need not be sorted
        f = _uniform(size=1001, x_max=1.7, seed=9)
        past = np.nextafter(np.nextafter(f.x_max, 2.0), 2.0)
        grid = np.concatenate((f.xs, [past], f.xs[::-7]))
        _forbid(monkeypatch, "_tabulated_slope")
        floats = [derivative_kernel(f, float(x), p) for x in grid]
        lookups = _counted(monkeypatch, "_table_nodes")
        got = derivative_kernel(f, grid, p)
        assert np.array_equal(got, floats)
        assert got[0] == 0.0 and got[f.xs.size] == got[f.xs.size - 1]
        assert len(lookups) == 1

    def test_off_node_points_take_one_call_of_the_rule(self, monkeypatch):
        # the node points read the cache; the off-node points, and only
        # they, take one array call of the rule and one cell sum
        f = _uniform(size=1001, x_max=1.7, seed=10)
        grid = f.xs[::50].copy()
        off = [3, 7, 12]
        grid[off] = 0.5 * (f.xs[[150, 350, 600]] + f.xs[[151, 351, 601]])
        floats = [derivative_kernel(f, float(x), 0.5) for x in grid]
        lookups = _counted(monkeypatch, "_table_nodes")
        slopes = _counted(monkeypatch, "_tabulated_slope")
        cells = _counted(monkeypatch, "_tabulated_dense")
        got = derivative_kernel(f, grid, 0.5)
        assert np.array_equal(got, floats)
        assert len(lookups) == 1
        assert len(slopes) == 1 and np.array_equal(slopes[0][1], grid[off])
        assert len(cells) == 1 and cells[0][1].size == 3 * len(off)

    def test_node_grid_on_a_narrow_table_takes_the_rule(self, monkeypatch):
        # two rows hold no derivative cache: every point x > 0 takes the
        # rule, in one array call
        f = TabulatedFunction([0.0, 1.0], [0.0, 1.0])
        grid = np.array([0.0, 1.0, 0.5, 1.0])
        floats = [derivative_kernel(f, float(x), 0.5) for x in grid]
        slopes = _counted(monkeypatch, "_tabulated_slope")
        assert np.array_equal(derivative_kernel(f, grid, 0.5), floats)
        assert len(slopes) == 1 and np.array_equal(slopes[0][1], grid[1:])
        assert quadrature._table_nodes(f, 0.5)[1] is None


class TestBypass:
    def test_off_node_points_leave_the_cache_alone(self):
        f = _uniform(size=1001, x_max=1.0)
        xs = np.random.default_rng(3).uniform(0.01, 0.99, 20)
        for x in xs:
            singular_integral_tabulated(f, float(x), 0.5)
            tabulated_derivative_kernel(f, float(x), 0.5)
        assert _cache_info() == (0, 0, 0)

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
        assert quadrature._table_nodes(f, 0.5) is None


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
        # the node points read the cache; the off-node point, and only it,
        # takes one call of the dense sum
        f = _uniform(size=1001, x_max=1.0, seed=7)
        xs = f.xs[::50].copy()
        xs[7] = 0.5 * float(f.xs[350] + f.xs[351])
        floats = [singular_integral_tabulated(f, float(x), 0.5) for x in xs]
        lookups = _counted(monkeypatch, "_table_nodes")
        cells = _counted(monkeypatch, "_tabulated_dense")
        got = singular_integral_tabulated(f, xs, 0.5)
        assert np.array_equal(got, floats)
        assert len(lookups) == 1
        assert len(cells) == 1 and np.array_equal(cells[0][1], xs[[7]])

    def test_empty_grid_builds_nothing(self, monkeypatch):
        _forbid_toeplitz(monkeypatch)
        got = singular_integral_tabulated(_uniform(), np.array([]), 0.5)
        assert got.shape == (0,)

    @pytest.mark.parametrize("name", [
        "singular_integral_tabulated", "rl_integral", "solve_convolution",
    ])
    def test_zero_builds_nothing(self, name, monkeypatch):
        # node 0's value is 0: a float 0, or a grid of zeros, reads no cache
        f = _uniform(size=1001)
        read = NODE_READS[name]
        _forbid_toeplitz(monkeypatch)
        got = read(f, 0.0, 0.5)
        assert type(got) is float and got == 0.0
        assert np.array_equal(read(f, np.zeros(3), 0.5), np.zeros(3))
        assert _cache_info() == (0, 0, 0)

    def test_points_past_x_max_by_rounding_read_the_last_node(self):
        f = _uniform(size=101, x_max=1.7)
        own = singular_integral_tabulated(f, f.xs, 0.5)
        past = 1.7 * (1.0 + 1e-13)
        assert singular_integral_tabulated(f, past, 0.5) == own[-1]
        # K[f'] too, at a node of a uniform table and by the rule on a
        # graded one, float and grid alike
        for g in (f, _table(graded_mesh(1.7, 101, exponent=2.0))):
            last = derivative_kernel(g, 1.7, 0.5)
            pasts = [1.7 * (1.0 + 1e-13), 1.7 * (1.0 + 5e-13)]
            assert [derivative_kernel(g, x, 0.5) for x in pasts] == [last, last]
            assert np.array_equal(derivative_kernel(g, np.array(pasts), 0.5), [last, last])
        with pytest.raises(DomainError):
            singular_integral_tabulated(f, np.array([0.5, 1.7 * (1.0 + 1e-11)]), 0.5)
        with pytest.raises(DomainError):
            singular_integral_tabulated(f, -1e-300, 0.5)


#: the two kernels that read the node cache, as fill(f, x, p)
FILLS = {
    "integral": singular_integral_tabulated,
    "derivative": tabulated_derivative_kernel,
}


class TestCacheKey:
    @pytest.mark.parametrize("kernel", FILLS)
    def test_equal_samples_do_not_share_an_entry(self, kernel):
        cache = quadrature._table_nodes
        t = np.linspace(0.0, 1.0, 101)
        f, g = TabulatedFunction(t, np.sqrt(t)), TabulatedFunction(t, np.sqrt(t))
        FILLS[kernel](f, 0.5, 0.5)
        FILLS[kernel](g, 0.5, 0.5)
        assert _cache_info()[1:] == (2, 2)
        assert cache(f, 0.5) is not cache(g, 0.5)

    def test_orders_do_not_share_an_entry(self):
        f = _uniform()
        x = float(f.xs[100])
        a = singular_integral_tabulated(f, x, 0.25)
        b = singular_integral_tabulated(f, x, 0.75)
        assert _cache_info()[1] == 2
        assert a == pytest.approx(_cell_sum(f, x, 0.25), rel=1e-13)
        assert b == pytest.approx(_cell_sum(f, x, 0.75), rel=1e-13)
        # K[f'] at the same orders reads the same two entries
        tabulated_derivative_kernel(f, x, 0.25)
        tabulated_derivative_kernel(f, x, 0.75)
        assert _cache_info() == (2, 2, 2)

    def test_on_node_differences_are_lookups(self, monkeypatch):
        # an on-node derivative does not sum the cells
        _forbid(monkeypatch, "_tabulated_dense")
        # uniform to 3 ulps but not np.linspace's rounding: the table still
        # counts as uniform and its nodes as nodes
        t = np.linspace(0.0, 1.7, 1001)
        sign = np.random.default_rng(5).choice([-1.0, 1.0], t.size - 2)
        t[1:-1] *= 1.0 + 3.0 * np.finfo(float).eps * sign
        f = _table(t)
        for x in f.xs[1:]:
            tabulated_derivative_kernel(f, float(x), 0.5)
        assert _cache_info()[1:] == (1, 1)

    @pytest.mark.parametrize("kernel", FILLS)
    def test_never_grows_past_maxsize(self, kernel):
        cache = quadrature._table_nodes
        maxsize = cache.cache_parameters()["maxsize"]
        for seed in range(maxsize + 3):
            f = _uniform(size=11, seed=seed)
            FILLS[kernel](f, float(f.xs[5]), 0.5)
            assert cache.cache_info().currsize <= maxsize
        assert cache.cache_info().currsize == maxsize

    @pytest.mark.parametrize("half", [0, 1])
    def test_cached_nodes_are_read_only(self, half):
        f = _uniform()
        nodes = quadrature._table_nodes(f, 0.5)[half]
        with pytest.raises(ValueError):
            nodes[0] = 1.0


class TestNarrowTable:
    """Tables too short for a full step on both sides of every point: the
    step is at most x_max / 2 and the three points stay in [0, x_max]."""

    @pytest.mark.parametrize("x", [0.3, 0.5, 0.7, 1.0])
    def test_two_node_table(self, x):
        # h = 1/2 and c = 1/2 for every x: G at 0, 1/2 and 1
        f = TabulatedFunction([0.0, 1.0], [0.0, 1.0])
        got = tabulated_derivative_kernel(f, x, 0.5)
        assert got == pytest.approx(_rule(f, x, 0.5, 0.5, 0.5), rel=1e-14)
        # G is K[f - f(0)], so a shifted table gives the same values
        shifted = TabulatedFunction([0.0, 1.0], [2.0, 3.0])
        assert tabulated_derivative_kernel(shifted, x, 0.5) == pytest.approx(got, rel=1e-14)
        assert caputo_derivative(f, 0.5, x) == pytest.approx(got / math.gamma(0.5), rel=1e-14)

    @pytest.mark.parametrize("x, c, h", [
        # the first cell moves x one step in, then clips it to [h, x_max - h]
        (0.2, 0.5, 0.5), (0.5, 0.5, 0.5), (0.75, 0.5, 0.5), (1.0, 0.5, 0.5),
    ])
    def test_three_node_table(self, x, c, h):
        # a uniform table: its nodes read the derivative cache
        f = TabulatedFunction([0.0, 0.5, 1.0], [1.0, 1.2, 1.9])
        got = tabulated_derivative_kernel(f, x, 0.5)
        assert got == pytest.approx(_rule(f, x, 0.5, c, h), rel=1e-13)

    @pytest.mark.parametrize("x, c, h", [
        # the first cell is 1 wide: h = x_max / 2 and c = x_max / 2
        (0.1, 0.75, 0.75), (0.8, 0.75, 0.75),
        # the last cell: h = 1/2 and c = x - h, at most x_max - h = 1
        (1.2, 0.7, 0.5), (1.5, 1.0, 0.5),
    ])
    def test_wide_first_cell(self, x, c, h):
        f = TabulatedFunction([0.0, 1.0, 1.5], [1.0, 2.0, 2.5])
        got = tabulated_derivative_kernel(f, x, 0.5)
        assert got == pytest.approx(_rule(f, x, 0.5, c, h), rel=1e-14)
