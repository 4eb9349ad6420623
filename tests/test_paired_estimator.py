"""The Gauss-Jacobi estimator at float limits is its one-point grid.

Each value must match the sequential doubling written out below, to a
few ulps and with the same outcome: rules of n0, 2 n0, 4 n0, ... nodes
(capped at MAX_NODES), each sampled in its own call, stopping at the
first pair of estimates that agree to tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelfrac import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    Order,
    PowerSum,
    QuadratureConfig,
)
from abelfrac.quadrature import (
    MAX_NODES,
    _jacobi_integral,
    _jacobi_rule,
    check_order,
    left_weighted_integral,
    singular_integral,
    smooth_integral,
)


class Recorder:
    """g with a log of the node arrays it was called on."""

    def __init__(self, g):
        self.g = g
        self.calls = []

    def __call__(self, t):
        self.calls.append(np.array(t, copy=True))
        return self.g(t)

    def nodes(self):
        return np.sort(np.concatenate(self.calls))


def sequential(g, a, b, p, le, cfg):
    """The doubling with every rule sampled separately."""
    half = 0.5 * (b - a)
    scale = half ** (p + le)

    def estimate(n):
        xi, w = _jacobi_rule(n, p - 1.0, le)
        t = a + half * (1.0 + xi)
        y = np.asarray(g(t), dtype=float)
        bad = ~np.isfinite(y)
        if bad.any():
            raise EvaluationError("non-finite", float(t[bad][0]))
        return scale * float(np.dot(w, y))

    n = cfg.node_count
    val = estimate(n)
    while n < MAX_NODES:
        n = min(2 * n, MAX_NODES)
        prev, val = val, estimate(n)
        err = abs(val - prev)
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(val))
        if err <= tol:
            break
        if n >= MAX_NODES and err > 100.0 * tol:
            raise ConvergenceError("stalled")
    return val


def within_ulps(got, want, ulps=4):
    return abs(got - want) <= ulps * np.spacing(abs(want))


def outcome(fn):
    try:
        return fn()
    except (ConvergenceError, EvaluationError) as exc:
        return type(exc)


@st.composite
def power_sums(draw):
    k = draw(st.integers(1, 3))
    exps = draw(st.lists(st.floats(0.0, 3.0), min_size=k, max_size=k))
    coefs = draw(st.lists(st.floats(0.1, 2.0), min_size=k, max_size=k))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=k, max_size=k))
    return PowerSum(zip((s * c for s, c in zip(signs, coefs)), exps))


class TestFloatLimits:
    @settings(max_examples=60, deadline=None)
    @given(
        f=power_sums(),
        p=st.floats(0.02, 0.98),
        le=st.floats(-0.98, 2.0),
        a=st.sampled_from([0.0, 0.25]),
        width=st.floats(0.01, 4.0),
        n0=st.sampled_from([2, 3, 5, 8, 16, 64]),
        rel_tol=st.sampled_from([1e-5, 1e-7]),
    )
    def test_equals_sequential_doubling(self, f, p, le, a, width, n0, rel_tol):
        cfg = QuadratureConfig(node_count=n0, abs_tol=1e-12, rel_tol=rel_tol)
        b = a + width
        g = Recorder(f)
        ref = Recorder(f)
        got = outcome(lambda: _jacobi_integral(g, a, b, p, le, cfg))
        want = outcome(lambda: sequential(ref, a, b, p, le, cfg))
        if isinstance(want, float):
            assert isinstance(got, float)
            assert within_ulps(got, want)
        else:
            assert got is want
        # the same nodes, in as many calls
        assert len(g.calls) == len(ref.calls)
        assert np.array_equal(g.nodes(), ref.nodes())

    def test_each_rule_sampled_in_its_own_call(self):
        g = Recorder(np.cos)
        cfg = QuadratureConfig(node_count=2)
        _jacobi_integral(g, 0.0, 1.0, 0.5, 0.0, cfg)
        sizes = [c.size for c in g.calls]
        assert len(sizes) >= 2
        assert sizes == [2 * 2**k for k in range(len(sizes))]
        assert all(c.ndim == 1 for c in g.calls)

    @pytest.mark.parametrize("kind", ["smooth", "left_weighted", "singular"])
    def test_float_limit_is_the_one_point_grid(self, kind):
        call = {
            "smooth": lambda b: smooth_integral(np.exp, 0.25, b),
            "left_weighted": lambda b: left_weighted_integral(np.cos, b, 0.3),
            "singular": lambda b: singular_integral(np.cos, b, 0.4),
        }[kind]
        got = call(1.7)
        grid = call(np.array([1.7]))
        assert isinstance(got, float)
        assert grid.shape == (1,)
        assert np.float64(got).tobytes() == grid[0].tobytes()

    def test_node_count_at_cap_takes_one_estimate(self):
        g = Recorder(np.cos)
        cfg = QuadratureConfig(node_count=MAX_NODES)
        got = _jacobi_integral(g, 0.0, 1.0, 0.5, 0.0, cfg)
        assert [c.size for c in g.calls] == [MAX_NODES]
        assert within_ulps(got, sequential(np.cos, 0.0, 1.0, 0.5, 0.0, cfg))

    def test_node_count_3000_doubles_to_the_cap(self):
        g = Recorder(np.cos)
        cfg = QuadratureConfig(node_count=3000)
        got = _jacobi_integral(g, 0.0, 1.0, 0.5, 0.0, cfg)
        assert [c.size for c in g.calls] == [3000, MAX_NODES]
        assert within_ulps(got, sequential(np.cos, 0.0, 1.0, 0.5, 0.0, cfg))
        assert got == pytest.approx(
            # integral_0^1 cos(t) (1 - t)^(-1/2) dt, by its series
            sum((-1) ** k * math.gamma(2 * k + 1) * math.gamma(0.5)
                / (math.factorial(2 * k) * math.gamma(2 * k + 1.5)) for k in range(20)),
            rel=1e-12,
        )

    def test_non_finite_at_second_rule_node_names_it(self):
        xi, _ = _jacobi_rule(16, -0.5, 0.0)
        bad = 0.0 + 0.5 * (1.0 + xi[5])
        assert bad not in 0.5 * (1.0 + _jacobi_rule(8, -0.5, 0.0)[0])

        def g(t):
            return np.where(t == bad, np.nan, np.cos(t))

        cfg = QuadratureConfig(node_count=8)
        with pytest.raises(EvaluationError) as exc:
            _jacobi_integral(g, 0.0, 1.0, 0.5, 0.0, cfg)
        assert exc.value.t == bad

    def test_scalar_only_callable(self):
        def g(t):
            return math.cos(float(t))

        cfg = QuadratureConfig(node_count=8)
        assert within_ulps(
            _jacobi_integral(g, 0.0, 1.0, 0.5, 0.0, cfg),
            sequential(np.cos, 0.0, 1.0, 0.5, 0.0, cfg),
        )


class TestOrderLike:
    def test_float_in_range_passes_through(self):
        assert check_order(0.25) == 0.25
        assert check_order(Order(0.75)) == 0.75
        assert check_order(np.float64(0.5)) == 0.5

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, math.nan, math.inf, 1, "x"])
    def test_out_of_range_raises(self, bad):
        with pytest.raises((DomainError, ValueError)):
            check_order(bad)
