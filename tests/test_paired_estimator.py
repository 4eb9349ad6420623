"""The scalar Gauss-Jacobi estimator samples its first two rules in one call.

Each value must equal, bit for bit, the sequential doubling it replaces:
rules of n0, 2 n0, 4 n0, ... nodes (capped at MAX_NODES), each sampled on
its own, stopping at the first pair of estimates that agree to tolerance.
The reference below is that loop, written out here.
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
    _order_like,
    _paired_rule,
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


class TestPairedStart:
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
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        else:
            assert got is want
        # the same nodes, with one call fewer
        assert len(g.calls) == len(ref.calls) - 1
        assert np.array_equal(g.nodes(), ref.nodes())

    def test_first_call_holds_both_rules(self):
        g = Recorder(np.cos)
        cfg = QuadratureConfig(node_count=2)
        _jacobi_integral(g, 0.0, 1.0, 0.5, 0.0, cfg)
        assert g.calls[0].size == 2 + 4
        later = [c.size for c in g.calls[1:]]
        assert later and later == [8 * 2**k for k in range(len(later))]

    def test_paired_rule_is_read_only_concatenation(self):
        t, w, w2 = _paired_rule(8, -0.5, 0.0)
        xi, w_ = _jacobi_rule(8, -0.5, 0.0)
        xi2, w2_ = _jacobi_rule(16, -0.5, 0.0)
        assert np.array_equal(t, np.concatenate((1.0 + xi, 1.0 + xi2)))
        assert w is w_ and w2 is w2_
        assert not t.flags.writeable

    def test_node_count_at_cap_takes_one_estimate(self):
        g = Recorder(np.cos)
        cfg = QuadratureConfig(node_count=MAX_NODES)
        got = _jacobi_integral(g, 0.0, 1.0, 0.5, 0.0, cfg)
        assert [c.size for c in g.calls] == [MAX_NODES]
        assert got == sequential(np.cos, 0.0, 1.0, 0.5, 0.0, cfg)
        assert _paired_rule(MAX_NODES, -0.5, 0.0)[2] is None

    def test_node_count_3000_pairs_with_the_cap(self):
        g = Recorder(np.cos)
        cfg = QuadratureConfig(node_count=3000)
        got = _jacobi_integral(g, 0.0, 1.0, 0.5, 0.0, cfg)
        assert [c.size for c in g.calls] == [3000 + MAX_NODES]
        assert got == sequential(np.cos, 0.0, 1.0, 0.5, 0.0, cfg)
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
        assert _jacobi_integral(g, 0.0, 1.0, 0.5, 0.0, cfg) == sequential(
            np.cos, 0.0, 1.0, 0.5, 0.0, cfg
        )


class TestOrderLike:
    def test_float_in_range_passes_through(self):
        assert _order_like(0.25) == 0.25
        assert _order_like(Order(0.75)) == 0.75
        assert _order_like(np.float64(0.5)) == 0.5

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, math.nan, math.inf, 1, "x"])
    def test_out_of_range_raises(self, bad):
        with pytest.raises((DomainError, ValueError)):
            _order_like(bad)
