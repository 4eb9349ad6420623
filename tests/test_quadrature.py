"""Singular-kernel quadrature against independently computed references.

Expected values come from scipy.integrate.quad with weight="alg" or from
mpmath.quad at 30 digits, computed offline and pasted as literals.
"""

import dataclasses
import math

import numpy as np
import pytest

from abelfrac import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    PiecewisePowerSum,
    PowerSum,
    QuadratureConfig,
    TabulatedFunction,
    kernel_integral,
    singular_integral,
)
from abelfrac.quadrature import (
    MAX_NODES,
    derivative_kernel,
    graded_mesh,
    indexed_smooth_integral,
    left_weighted_integral,
    singular_integral_tabulated,
    smooth_integral,
    tabulated_derivative_kernel,
)


class TestConfig:
    def test_defaults_valid(self):
        cfg = QuadratureConfig()
        assert cfg.node_count >= 2
        assert cfg.abs_tol > 0 and cfg.rel_tol > 0

    def test_rejects_bad_node_count(self):
        with pytest.raises(DomainError):
            QuadratureConfig(node_count=1)
        with pytest.raises(DomainError):
            QuadratureConfig(node_count=64.0)  # must be an int
        with pytest.raises(DomainError):
            QuadratureConfig(node_count=MAX_NODES + 1)
        with pytest.raises(DomainError):
            QuadratureConfig(node_count=5000)
        assert QuadratureConfig(node_count=MAX_NODES).node_count == MAX_NODES

    def test_rejects_bad_tolerances(self):
        with pytest.raises(DomainError):
            QuadratureConfig(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureConfig(rel_tol=-1e-9)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                QuadratureConfig(abs_tol=bad)
            with pytest.raises(DomainError):
                QuadratureConfig(rel_tol=bad)

    @pytest.mark.parametrize("bad", ["1e-9", None, [1e-9], 1e-9j])
    def test_rejects_tolerances_that_are_not_numbers(self, bad):
        # refused as a DomainError, not a TypeError from the range check
        for field in ("abs_tol", "rel_tol"):
            with pytest.raises(DomainError, match="tolerances must be positive and finite"):
                QuadratureConfig(**{field: bad})

    def test_equal_configs_hash_equal(self):
        # the hash is taken once, at construction: equal, distinct configs
        # (an int tolerance equals its float) still share one hash, and
        # dataclasses.replace builds a config with its own
        cfg = QuadratureConfig(node_count=32, abs_tol=1, rel_tol=1e-8)
        same = QuadratureConfig(32, 1.0, 1e-8)
        assert cfg == same and cfg is not same and hash(cfg) == hash(same)
        assert repr(cfg) == "QuadratureConfig(node_count=32, abs_tol=1, rel_tol=1e-08)"
        other = dataclasses.replace(cfg, node_count=64)
        assert other != cfg and hash(other) == hash(QuadratureConfig(64, 1.0, 1e-8))


class TestSingularIntegral:
    def test_constant_integrand_closed_form(self):
        # integral_0^x (x-t)**(p-1) dt = x**p / p
        for p in (0.25, 0.5, 0.75):
            for x in (0.5, 1.0, 2.0):
                assert singular_integral(lambda t: 1.0 + 0.0 * t, x, p) == (
                    pytest.approx(x**p / p, rel=1e-12)
                )

    def test_polynomial_reference(self):
        # mpmath: beta(3, 0.3) * 1.7**2.3
        got = singular_integral(lambda t: t * t, 1.7, 0.3)
        assert got == pytest.approx(7.555619378255622, rel=1e-11)

    def test_smooth_transcendental_reference(self):
        # mpmath.quad of exp(t)/sqrt(1-t) on [0, 1]
        got = singular_integral(lambda t: np.exp(t), 1.0, 0.5)
        assert got == pytest.approx(4.06015693855741, rel=1e-12)

    def test_peaked_integrand_forces_refinement(self):
        # mpmath.quad of 1/((1+50 t^2) sqrt(1-t)) on [0, 1]
        got = singular_integral(lambda t: 1.0 / (1.0 + 50.0 * t * t), 1.0, 0.5)
        assert got == pytest.approx(0.24366537713375494, rel=1e-9)

    def test_left_exponent_weight(self):
        # scipy quad, weight="alg", wvar=(-0.4, -0.4): cos(t) t^-0.4 (0.9-t)^-0.4
        got = singular_integral(
            lambda t: np.cos(t), 0.9, 0.6, left_exponent=-0.4
        )
        assert got == pytest.approx(2.032707383733918, rel=1e-12)

    def test_zero_upper_limit(self):
        assert singular_integral(lambda t: 1.0, 0.0, 0.5) == 0.0

    def test_negative_upper_limit_rejected(self):
        with pytest.raises(DomainError):
            singular_integral(lambda t: 1.0, -1.0, 0.5)

    def test_scalar_only_callables_accepted(self):
        got = singular_integral(lambda t: math.exp(t), 1.0, 0.5)
        assert got == pytest.approx(4.06015693855741, rel=1e-12)

    def test_nonfinite_integrand_reported(self):
        def bad(t):
            return np.where(np.asarray(t) > 0.5, np.nan, 1.0)

        with pytest.raises(EvaluationError):
            singular_integral(bad, 1.0, 0.5)

    def test_hopeless_tolerance_raises_convergence_error(self):
        cfg = QuadratureConfig(node_count=2, abs_tol=1e-300, rel_tol=1e-16)
        with pytest.raises(ConvergenceError) as exc:
            singular_integral(lambda t: np.sin(1e9 * t), 1.0, 0.5, cfg)
        assert str(MAX_NODES) in str(exc.value)


class TestSmoothAndWeighted:
    def test_smooth_integral_exp(self):
        got = smooth_integral(lambda t: np.exp(t), 0.0, 1.0)
        assert got == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_smooth_integral_empty_interval(self):
        assert smooth_integral(lambda t: np.exp(t), 1.0, 1.0) == 0.0

    def test_left_weighted_reference(self):
        # scipy quad, weight="alg", wvar=(-0.3, 0): cos(t) t^-0.3 on [0, 2]
        got = left_weighted_integral(lambda t: np.cos(t), 2.0, -0.3)
        assert got == pytest.approx(1.3274019427802723, rel=1e-12)


def _beta(a: float, b: float) -> float:
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


def _one(t):
    return np.ones_like(t)


def _power(x, q: float) -> np.ndarray:
    # x**q, and 0 on the empty interval x = 0 whatever the sign of q
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out[x > 0.0] = x[x > 0.0] ** q
    return out


# each public wrapper with g = 1 against its closed form, as
# (call, reference) of the limits; the references take arrays
CLOSED_FORMS = {
    "singular": (
        lambda x, p, le: singular_integral(_one, x, p, left_exponent=le),
        lambda x, p, le: _beta(le + 1.0, p) * _power(x, p + le),
    ),
    "left_weighted": (
        lambda b, p, le: left_weighted_integral(_one, b, le),
        lambda b, p, le: _power(b, le + 1.0) / (le + 1.0),
    ),
    "smooth_from_0.4": (
        lambda b, p, le: smooth_integral(_one, 0.4, b),
        lambda b, p, le: np.maximum(np.asarray(b) - 0.4, 0.0),
    ),
    "smooth_to_2.5": (
        lambda a, p, le: smooth_integral(_one, a, 2.5),
        lambda a, p, le: np.maximum(2.5 - np.asarray(a), 0.0),
    ),
}


class TestOneEstimator:
    """singular_integral, smooth_integral and left_weighted_integral are
    one Gauss-Jacobi estimator with different weights and limits."""

    @pytest.mark.parametrize("form", sorted(CLOSED_FORMS))
    @pytest.mark.parametrize("p, le", [(0.25, -0.5), (0.5, 0.0), (0.75, 1.5)])
    def test_constant_integrand_closed_form_scalar_and_array(self, form, p, le):
        call, ref = CLOSED_FORMS[form]
        limits = np.array([0.0, 0.3, 0.4, 1.0, 2.5])
        got = call(limits, p, le)
        assert isinstance(got, np.ndarray) and got.shape == limits.shape
        np.testing.assert_allclose(got, ref(limits, p, le), rtol=1e-13, atol=1e-15)
        for x, want in zip(limits, ref(limits, p, le)):
            one = call(float(x), p, le)
            assert isinstance(one, float)
            assert one == pytest.approx(want, rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("limit", [0.0, 0.5, np.array([0.0, 0.5])])
    def test_bad_left_exponent_rejected_at_every_limit(self, limit):
        # an empty interval does not skip the check
        with pytest.raises(DomainError):
            singular_integral(_one, limit, 0.5, left_exponent=-1.5)
        with pytest.raises(DomainError):
            left_weighted_integral(_one, limit, -1.5)

    @pytest.mark.parametrize("form", sorted(CLOSED_FORMS))
    @pytest.mark.parametrize(
        "bad",
        [math.nan, np.array([0.5, math.nan]), math.inf, -math.inf, np.array([0.5, math.inf])],
        ids=["float", "array", "inf", "-inf", "inf-array"],
    )
    def test_nan_limit_is_domain_error(self, form, bad):
        # every comparison with nan is false, so it would pass a range check
        # and leave an empty interval (0) behind; an infinite interval has
        # no nodes either (smooth_integral(g, 0, inf) gave nan)
        with pytest.raises(DomainError):
            CLOSED_FORMS[form][0](bad, 0.5, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, np.array([0.5, math.nan])],
                             ids=["float", "array"])
    def test_nan_limit_of_tabulated_input_is_domain_error(self, bad):
        f = TabulatedFunction(np.linspace(0.0, 1.0, 11), np.linspace(1.0, 2.0, 11))
        for call in (singular_integral_tabulated, kernel_integral):
            with pytest.raises(DomainError):
                call(f, bad, 0.5)
        with pytest.raises(DomainError):
            tabulated_derivative_kernel(f, math.nan, 0.5)

    def test_indexed_integrand_reads_its_intervals(self):
        # g(t, k) gets the column of interval positions of its rows; the
        # empty interval (position 1) is never sampled
        a = np.array([0.0, 1.0, 1.0, 2.0])
        b = np.array([1.0, 1.0, 3.0, 2.5])
        coef = np.array([2.0, np.nan, -1.0, 4.0])
        seen = set()

        def g(t, k):
            assert k.shape == (t.shape[0], 1)
            seen.update(k.ravel().tolist())
            return coef[k] * t

        got = indexed_smooth_integral(g, a, b, QuadratureConfig(node_count=4))
        want = np.where(b > a, coef * 0.5 * (b * b - a * a), 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-14)
        assert seen == {0, 2, 3}

    def test_indexed_integrand_errors_are_not_retried_point_by_point(self):
        a, b = np.array([0.0, 1.0]), np.array([1.0, 2.0])
        cfg = QuadratureConfig(node_count=4)

        def broken(t, k):
            raise ValueError("broadcast")

        with pytest.raises(ValueError, match="broadcast"):
            indexed_smooth_integral(broken, a, b, cfg)
        with pytest.raises(ValueError, match="shape"):
            indexed_smooth_integral(lambda t, k: k * 1.0, a, b, cfg)


class TestGradedMesh:
    def test_endpoints_and_monotone(self):
        m = graded_mesh(2.0, 9, p=0.5)
        assert m[0] == 0.0
        assert m[-1] == 2.0
        assert np.all(np.diff(m) > 0)

    def test_clusters_toward_origin(self):
        m = graded_mesh(1.0, 11, exponent=3.0)
        d = np.diff(m)
        assert d[0] < d[-1] / 100.0

    def test_validation(self):
        with pytest.raises(DomainError):
            graded_mesh(1.0, 1)
        with pytest.raises(DomainError):
            graded_mesh(-1.0, 5)
        with pytest.raises(DomainError):
            graded_mesh(1.0, 5, exponent=0.5)

    @pytest.mark.parametrize(
        "x_max, points, exponent, p",
        [
            (math.nan, 5, None, None),
            (math.inf, 5, None, None),
            (np.array([1.0, 2.0]), 5, None, None),
            (1.0, 2.5, None, None),
            (1.0, 5, math.nan, None),
            (1.0, 5, math.inf, None),
            (1.0, 5, None, 1.5),
        ],
        ids=["x_max-nan", "x_max-inf", "x_max-array", "points-2.5", "exponent-nan",
             "exponent-inf", "p-1.5"],
    )
    def test_bad_input_is_domain_error(self, x_max, points, exponent, p):
        # no nan mesh, no mesh that fails to increase, no bare TypeError
        with pytest.raises(DomainError):
            graded_mesh(x_max, points, exponent, p=p)


class TestTabulatedProductIntegration:
    def test_exact_for_piecewise_linear(self):
        # f = 2 + 3t is its own interpolant; closed form is 8 at x=1, p=1/2
        xs = np.array([0.0, 0.2, 0.45, 0.8, 1.0])
        f = TabulatedFunction(xs, 2.0 + 3.0 * xs)
        assert singular_integral_tabulated(f, 1.0, 0.5) == pytest.approx(
            8.0, rel=1e-13
        )

    def test_partial_upper_limit(self):
        xs = np.linspace(0.0, 1.0, 6)
        f = TabulatedFunction(xs, 2.0 + 3.0 * xs)
        # 2 * 2 sqrt(x) + 3 * (4/3) x^{3/2} at x = 0.5
        x = 0.5
        expected = 4.0 * math.sqrt(x) + 4.0 * x**1.5
        assert singular_integral_tabulated(f, x, 0.5) == pytest.approx(
            expected, rel=1e-13
        )

    def test_zero_upper_limit(self):
        f = TabulatedFunction([0.0, 1.0], [0.0, 1.0])
        assert singular_integral_tabulated(f, 0.0, 0.5) == 0.0

    def test_out_of_range_rejected(self):
        f = TabulatedFunction([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(DomainError):
            singular_integral_tabulated(f, 1.5, 0.5)


class TestTabulatedDerivativeKernel:
    def test_linear_data_with_offset(self):
        # f = 1 + 2t: integral_0^x 2 (x-t)^{-1/2} dt = 4 sqrt(x); the
        # nonzero f(0) must drop out exactly as it does for the true
        # derivative
        xs = np.linspace(0.0, 1.0, 101)
        f = TabulatedFunction(xs, 1.0 + 2.0 * xs)
        for x in (0.3, 0.7, 1.0):
            got = tabulated_derivative_kernel(f, x, 0.5)
            assert got == pytest.approx(4.0 * math.sqrt(x), rel=1e-4)

    def test_sqrt_data_recovers_constant(self):
        # f = sqrt(t): integral_0^a f'(t)(a-t)^{-1/2} dt = pi/2 for every a,
        # even though f' blows up at 0 and finite differences of the samples
        # cannot see that
        xs = np.linspace(0.0, 1.0, 1001)
        f = TabulatedFunction(xs, np.sqrt(xs))
        for a in (0.3, 0.6, 0.9):
            got = tabulated_derivative_kernel(f, a, 0.5)
            assert got == pytest.approx(math.pi / 2.0, rel=2e-4)

    def test_endpoint_uses_one_sided_stencil(self):
        xs = np.linspace(0.0, 1.0, 1001)
        f = TabulatedFunction(xs, np.sqrt(xs))
        got = tabulated_derivative_kernel(f, 1.0, 0.5)
        assert got == pytest.approx(math.pi / 2.0, rel=2e-4)

    def test_zero_upper_limit_rejected(self):
        f = TabulatedFunction([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(DomainError):
            tabulated_derivative_kernel(f, 0.0, 0.5)

    def test_p_one_is_the_dispatch_value(self):
        # p = 1 (1 - n for n below 2**-54): K[f'](x) = f(x) - f(0), exact on
        # the interpolant, as derivative_kernel gives it
        xs = np.linspace(0.0, 1.0, 101)
        f = TabulatedFunction(xs, 1.0 + 2.0 * np.sqrt(xs))
        for x in (0.123, float(xs[37]), 0.5, 1.0):
            got = tabulated_derivative_kernel(f, x, 1.0)
            assert got == derivative_kernel(f, x, 1.0) == f(x) - f(0.0)

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("c0, c, e", [(1.0, 2.0, 1.0), (1.0, 1.0, 1.5), (2.0, 1.0, 0.75)])
    def test_nonzero_value_at_zero(self, c0, c, e, p):
        # f = c0 + c t**e: K[f'](x) = c e B(e, p) x**(e + p - 1), whatever
        # c0; the rule differentiates K[f - f(0)], so c0 leaves no trace
        # at the first nodes
        xs = np.linspace(0.0, 1.0, 1001)
        f = TabulatedFunction(xs, c0 + c * xs**e)
        got = np.array([tabulated_derivative_kernel(f, float(x), p) for x in xs[1:]])
        rel = np.abs(got / (c * e * _beta(e, p) * xs[1:] ** (e + p - 1.0)) - 1.0)
        assert rel[0] <= 0.15
        assert rel[1] <= 3e-2
        assert np.max(rel[9:]) <= 2e-3
        assert rel[-1] <= 5e-7


class TestKernelIntegralDispatch:
    def test_power_sum(self):
        f = PowerSum([(2.0, 0.0), (3.0, 1.0)])
        assert kernel_integral(f, 1.0, 0.5) == pytest.approx(8.0, rel=1e-12)

    def test_piecewise(self):
        # 1 on [0,1], 1+3(a-1) beyond; closed form of the kernel integral
        # at x=2, p=1/2 is 2 sqrt(2) + 4
        f = PiecewisePowerSum(
            [1.0],
            [PowerSum.constant(1.0), PowerSum([(-2.0, 0.0), (3.0, 1.0)])],
        )
        got = kernel_integral(f, 2.0, 0.5)
        assert got == pytest.approx(2.0 * math.sqrt(2.0) + 4.0, rel=1e-9)

    def test_tabulated(self):
        xs = np.linspace(0.0, 1.0, 5)
        f = TabulatedFunction(xs, 2.0 + 3.0 * xs)
        assert kernel_integral(f, 1.0, 0.5) == pytest.approx(8.0, rel=1e-13)

    def test_bare_callable(self):
        got = kernel_integral(lambda t: np.exp(t), 1.0, 0.5)
        assert got == pytest.approx(4.06015693855741, rel=1e-12)

    def test_unsupported_type_rejected(self):
        with pytest.raises(DomainError):
            kernel_integral(object(), 1.0, 0.5)

    def test_zero_upper_limit(self):
        assert kernel_integral(PowerSum.constant(1.0), 0.0, 0.5) == 0.0

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("x", [0.6, 0.9, 1.7])
    def test_piecewise_fractional_first_span_beta_closed_form(self, p, x):
        # psi = p1 on [0, b), p1 + c1 (a-b) + c2 (a-b)^2 beyond, with p1
        # led by a^(1/2): t^e gives B(e+1, p) x^(e+p) and each jump term
        # c_k (a-b)^k gives c_k B(k+1, p) (x-b)^(k+p)
        b, (c1, c2) = 0.5, (0.9, 1.2)
        p1 = ((1.3, 0.5), (0.7, 1.5))
        after = p1 + ((c2 * b * b - c1 * b, 0.0), (c1 - 2.0 * c2 * b, 1.0), (c2, 2.0))
        f = PiecewisePowerSum([b], [PowerSum(p1), PowerSum(after)])

        def beta(u, v):
            return math.gamma(u) * math.gamma(v) / math.gamma(u + v)

        want = sum(c * beta(e + 1.0, p) * x ** (e + p) for c, e in p1) + sum(
            c * beta(k + 1.0, p) * (x - b) ** (k + p) for k, c in ((1, c1), (2, c2))
        )
        assert kernel_integral(f, x, p) == pytest.approx(want, rel=1e-13)

    def test_fractional_power_sum_uses_weighted_left_end(self):
        # f = t^0.5: closed form beta(1.5, 0.5) x
        f = PowerSum.monomial(1.0, 0.5)
        got = kernel_integral(f, 1.0, 0.5)
        assert got == pytest.approx(math.pi / 2.0, rel=1e-12)
