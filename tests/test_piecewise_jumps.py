"""Piecewise kernel integrals as the first segment plus a jump at each
breakpoint.

K[f](x) = integral_0^x f(t) (x - t)**(p - 1) dt for f given segment by
segment is the first segment's power sum on all of [0, x] plus, at each
breakpoint lo below x, the jump (next segment minus this one) on [lo, x].
A polynomial jump, Taylor-shifted to t - lo, takes its estimates from rule
moments; a jump with a fractional power is sampled on [lo, x].  A point
whose parts cancel is summed span by span instead.

The reference is the closed form: a term c t**e over [lo, hi] gives
c x**(e + p) B(lo/x, hi/x; e + 1, p), the incomplete Beta integral, here
from mpmath at 40 digits.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelfrac import (
    DEFAULT_CONFIG,
    AbelProblem,
    Order,
    PiecewisePowerSum,
    PowerSum,
    SolutionBackend,
    caputo_derivative,
    derivative_kernel,
    kernel_integral,
    reflection_factor,
    solve_convolution,
    solve_on_grid,
)
from abelfrac import quadrature
from abelfrac.quadrature import (
    MAX_NODES,
    _SHIFT_DEGREE,
    _cancels,
    _jump,
    _kernel_parts,
    _route,
    _rows_integral,
)

mp = pytest.importorskip("mpmath")

EXPONENTS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 6.0, 10.0)
# A first segment whose exponents do not differ by integers (1 + a^(1/2),
# say) leaves t^(1/2) beside the weight, so its rule converges only
# algebraically: it can miss the tolerance or stall at the node cap, in
# the span route as on [0, x].  That is a defect of the rules at 0 (their
# weight takes only the leading power), not of the jumps, so the tests
# that check values draw the first segment from one lattice (the later
# segments from all of EXPONENTS).  A derivative loses its constants, so
# there {0, 1/2, 3/2} is one lattice.
INTEGER_LATTICE = (0.0, 1.0, 2.0, 3.0, 6.0, 10.0)
KERNEL_FIRST = st.sampled_from(((0.5, 1.5), INTEGER_LATTICE))
DERIVATIVE_FIRST = st.sampled_from(((0.0, 0.5, 1.5), INTEGER_LATTICE))
CONV = SolutionBackend.CONVOLUTION_1826

COEFS = st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(0.1, 3.0)).map(
    lambda sc: sc[0] * sc[1]
)


def _segment(draw, exponents):
    exps = draw(st.lists(st.sampled_from(exponents), min_size=1, max_size=3, unique=True))
    return [(draw(COEFS), e) for e in exps]


@st.composite
def piecewise_sums(draw, first):
    """2-3 continuous segments with mixed signs, the first with exponents
    from ``first``: each later segment's constant is set so that it meets
    the one before at its breakpoint."""
    gaps = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=2))
    bps = list(itertools.accumulate(gaps))
    segs = [PowerSum(_segment(draw, first))]
    for b in bps:
        terms = [(c, e) for c, e in _segment(draw, EXPONENTS) if e != 0.0]
        rest = sum(c * b**e for c, e in terms)
        segs.append(PowerSum(terms + [(segs[-1](b) - rest, 0.0)]))
    return PiecewisePowerSum(bps, segs)


def closed_form(f: PiecewisePowerSum, x: float, p: float, derivative=False) -> float:
    """K[f](x), or K[f'](x), summed span by span from the incomplete Beta
    integral at 40 digits."""
    with mp.workdps(40):
        X, P = mp.mpf(x), mp.mpf(p)
        edges = [0.0] + [b for b in f.breakpoints if b < x] + [x]
        total = mp.mpf(0)
        for seg, lo, hi in zip(f.segments, edges, edges[1:]):
            for c, e in seg.terms:
                c, e = mp.mpf(c), mp.mpf(e)
                if derivative:
                    if e == 0:
                        continue
                    c, e = c * e, e - 1
                total += c * X ** (e + P) * mp.betainc(e + 1, P, lo / X, hi / X)
        return float(total)


def tolerance(value: float, cfg=DEFAULT_CONFIG) -> float:
    return max(cfg.abs_tol, cfg.rel_tol * abs(value))


def last_break(f: PiecewisePowerSum) -> float:
    return f.breakpoints[-1]


class TestAgainstClosedForm:
    @settings(max_examples=60, deadline=None)
    @given(
        f=KERNEL_FIRST.flatmap(piecewise_sums),
        n=st.floats(0.02, 0.98),
        u=st.floats(0.01, 3.0),
    )
    def test_kernel_integral(self, f, n, u):
        x = u * last_break(f)
        ref = closed_form(f, x, n)
        assert abs(kernel_integral(f, x, n) - ref) <= tolerance(ref)

    @settings(max_examples=60, deadline=None)
    @given(
        f=DERIVATIVE_FIRST.flatmap(piecewise_sums),
        n=st.floats(0.02, 0.98),
        u=st.floats(0.01, 3.0),
    )
    def test_caputo_derivative(self, f, n, u):
        x = u * last_break(f)
        ref = closed_form(f, x, 1.0 - n, derivative=True)
        got = caputo_derivative(f, n, x, backend="quadrature") * math.gamma(1.0 - n)
        assert abs(got - ref) <= tolerance(ref)


class TestJump:
    def test_taylor_shift(self):
        # t**2 + 3 - 1 = (s + 1/2)**2 + 2 at s = t - 1/2
        jump = _jump(((1.0, 0.0),), ((3.0, 0.0), (1.0, 2.0)), 0.5)
        assert jump == (True, ((2.25, 0.0), (1.0, 1.0), (1.0, 2.0)))

    def test_equal_segments_have_no_jump(self):
        terms = ((1.5, 0.5), (2.0, 1.0))
        assert _jump(terms, terms, 0.7) == (True, ())

    @pytest.mark.parametrize("terms, lo", [
        (((1.0, 0.5), (2.0, 1.0)), 0.7),  # a fractional power
        (((1.0, _SHIFT_DEGREE + 1.0),), 0.7),  # above the shifted degrees
        (((1.0, 2.0),), 1e200),  # lo**2 overflows
    ])
    def test_sampled_jumps_keep_their_terms_in_t(self, terms, lo):
        assert _jump((), terms, lo) == (False, terms)

    def test_sampled_high_degree_jump_meets_the_closed_form(self):
        b, x, n = 0.8, 1.3, 0.4
        f = PiecewisePowerSum(
            [b], [PowerSum.constant(1.0), PowerSum([(1.0 - b**40, 0.0), (1.0, 40.0)])]
        )
        ref = closed_form(f, x, n)
        assert abs(kernel_integral(f, x, n) - ref) <= tolerance(ref)


class TestHighPowers:
    # a**400 on [0, 1), then 1: at x = 10 the first part alone would be
    # near 10**400; the spans, and so the value, are of order 1
    F = PiecewisePowerSum([1.0], [PowerSum.monomial(1.0, 400.0), PowerSum.constant(1.0)])

    @pytest.mark.parametrize("x", [0.9, 2.0, 10.0])
    def test_kernel_integral(self, x):
        ref = closed_form(self.F, x, 0.5)
        assert abs(kernel_integral(self.F, x, 0.5) - ref) <= tolerance(ref)

    def test_grid_equals_scalar_calls(self):
        prob = AbelProblem(self.F, Order(0.5))
        xs = np.linspace(0.0, 10.0, 11)
        grid = solve_on_grid(prob, xs, backend=CONV).s.values
        scalar = [0.0] + [solve_convolution(prob, x) for x in xs[1:]]
        assert np.max(np.abs(grid - scalar) / np.maximum(np.abs(scalar), 1e-300)) <= 1e-13


class TestCancellingParts:
    # t**10 then the constant b**10: the two parts are near 4.6e5 and
    # cancel to 3.9e-5, so their own tolerances cannot give their sum's
    F = PiecewisePowerSum(
        [0.287], [PowerSum.monomial(1.0, 10.0), PowerSum.constant(0.287**10)]
    )
    X, N = 3.0, 0.107

    def parts(self):
        route = _route(self.F, 0.0, False, self.N, DEFAULT_CONFIG, MAX_NODES)
        return _kernel_parts(route, 1, self.X, self.N, DEFAULT_CONFIG, _rows_integral)

    def test_guard_catches_the_cancellation(self):
        parts = self.parts()
        ref = closed_form(self.F, self.X, self.N)
        assert _cancels(parts, sum(parts), DEFAULT_CONFIG)
        # summed as they stand, the parts miss the tolerance
        assert abs(sum(parts) - ref) > tolerance(ref)
        assert abs(kernel_integral(self.F, self.X, self.N) - ref) <= tolerance(ref)

    def test_guarded_grid_points_take_the_span_route(self, monkeypatch):
        calls = []
        span = quadrature._span_kernel
        monkeypatch.setattr(
            quadrature, "_span_kernel", lambda *a: calls.append(a[1]) or span(*a)
        )
        prob = AbelProblem(self.F, Order(self.N))
        xs = np.linspace(0.0, self.X, 31)
        grid = solve_on_grid(prob, xs).s.values
        guarded = np.isin(xs, calls)
        assert guarded[-1] and np.all(xs[guarded] > 0.287)
        scalar = np.array([0.0] + [solve_convolution(prob, x) for x in xs[1:]])
        # a guarded point's grid value is its scalar span route, bit for bit
        assert np.array_equal(grid[guarded], scalar[guarded])
        assert np.max(np.abs(grid[1:] - scalar[1:]) / scalar[1:]) <= 1e-13

    @pytest.mark.parametrize("p", [0.107, 0.5, 0.893])
    def test_derivative_takes_the_span_route(self, p, monkeypatch):
        # F' is 10 t**9, then 0: the parts of K[F'] cancel as those of K[F]
        # do, and the spans give integral_0^0.287 10 t**9 (3 - t)**(p - 1) dt
        calls = []
        span = quadrature._span_kernel
        monkeypatch.setattr(
            quadrature, "_span_kernel", lambda *a: calls.append(a[1]) or span(*a)
        )
        ref = closed_form(self.F, self.X, p, derivative=True)
        got = derivative_kernel(self.F, self.X, p)
        assert calls == [self.X]
        assert abs(got - ref) <= tolerance(ref)


def outcome(fn, *args, **kwargs):
    """The value of fn(*args), or the type of the exception it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # compared, not swallowed
        return type(exc)


class TestDegenerateSplit:
    """The same power sum on both sides of a breakpoint has no jump: every
    route returns the unsplit power sum's bits."""

    @settings(max_examples=30, deadline=None)
    @given(
        terms=st.lists(
            st.tuples(COEFS, st.sampled_from(EXPONENTS)), min_size=1, max_size=3
        ),
        n=st.floats(0.02, 0.98),
        b=st.floats(0.1, 2.0),
        u=st.floats(0.01, 3.0),
    )
    def test_scalar(self, terms, n, b, u):
        ps = PowerSum(terms)
        split = PiecewisePowerSum([b], [ps, ps])
        x = u * b
        for fn, kw in (
            (kernel_integral, {}),
            (caputo_derivative, {"backend": "quadrature"}),
        ):
            assert outcome(fn, split, n, x, **kw) == outcome(fn, ps, n, x, **kw)
        whole, parts = AbelProblem(ps, Order(n)), AbelProblem(split, Order(n))
        assert outcome(solve_convolution, parts, x) == outcome(solve_convolution, whole, x)

    @pytest.mark.parametrize("n", [0.3, 0.5, 0.9])
    def test_grid(self, n):
        ps = PowerSum([(2.0, 0.0), (0.5, 0.5), (1.0, 2.0)])
        split = PiecewisePowerSum([1.0], [ps, ps])
        xs = np.linspace(0.0, 2.0, 41)
        whole = solve_on_grid(AbelProblem(ps, Order(n)), xs, backend=CONV)
        parts = solve_on_grid(AbelProblem(split, Order(n)), xs, backend=CONV)
        assert np.array_equal(whole.s.values, parts.s.values)


class TestGridForm:
    """solve_on_grid takes every part over the whole grid in one call; each
    value is the scalar route's for that point to 1e-13 relative.

    Unguarded parts may cancel down to the floor abs_tol / rel_tol of the
    kernel integral, and the array and scalar moment sums round apart by
    an ulp or two of the parts, so near a zero of s the comparison is
    relative to that floor (times sin(n pi) / pi) instead."""

    @settings(max_examples=30, deadline=None)
    @given(
        f=KERNEL_FIRST.flatmap(piecewise_sums),
        n=st.floats(0.02, 0.98),
        u=st.floats(0.5, 3.0),
    )
    def test_grid_equals_scalar_calls(self, f, n, u):
        prob = AbelProblem(f, Order(n))
        xs = np.linspace(0.0, u * last_break(f), 41)
        grid = solve_on_grid(prob, xs, backend=CONV).s.values
        scalar = np.array([0.0] + [solve_convolution(prob, x) for x in xs[1:]])
        floor = reflection_factor(n) * DEFAULT_CONFIG.abs_tol / DEFAULT_CONFIG.rel_tol
        scale = np.maximum(np.abs(scalar), floor)
        assert np.max(np.abs(grid - scalar) / scale) <= 1e-13

    def test_zero_first_segment(self):
        # psi = (a - 1)_+ : s = B(2, 1/2) (x - 1)**(3/2) / pi, and 0 up to 1
        f = PiecewisePowerSum([1.0], [PowerSum.zero(), PowerSum([(-1.0, 0.0), (1.0, 1.0)])])
        xs = np.linspace(0.0, 2.0, 9)
        grid = solve_on_grid(AbelProblem(f, Order(0.5)), xs, backend=CONV).s.values
        want = (4.0 / 3.0) / math.pi * np.maximum(xs - 1.0, 0.0) ** 1.5
        np.testing.assert_allclose(grid, want, rtol=1e-13, atol=0.0)
