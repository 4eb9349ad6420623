"""Function representations: power sums, piecewise splines of powers,
and tabulated samples."""

import math

import numpy as np
import pytest

from abelfrac import (
    ContinuityError,
    DomainError,
    Order,
    PiecewisePowerSum,
    PowerSum,
    TabulatedFunction,
)
from abelfrac.functions import as_order


class TestOrder:
    def test_valid_range(self):
        assert float(Order(0.5)) == 0.5
        assert float(as_order(0.25)) == 0.25

    def test_endpoints_rejected(self):
        for bad in (0.0, 1.0, -0.1, 2.0, float("nan")):
            with pytest.raises(DomainError):
                Order(bad)

    def test_as_order_passthrough(self):
        n = Order(0.3)
        assert as_order(n) is n


class TestPowerSum:
    def test_terms_canonical_order(self):
        p = PowerSum([(1.0, 2.0), (3.0, 0.5), (2.0, 1.0)])
        assert p.terms == ((3.0, 0.5), (2.0, 1.0), (1.0, 2.0))

    def test_duplicate_exponents_merge(self):
        p = PowerSum([(1.0, 1.0), (2.5, 1.0)])
        assert p.terms == ((3.5, 1.0),)

    def test_zero_coefficients_dropped(self):
        p = PowerSum([(0.0, 2.0), (1.0, 1.0), (-1.0, 1.0)])
        assert p.terms == ()
        assert p(3.0) == 0.0

    def test_constant_term_at_origin(self):
        # a**0 == 1 even at a = 0
        p = PowerSum([(2.0, 0.0), (1.0, 0.5)])
        assert p(0.0) == 2.0

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            PowerSum([(1.0, -0.5)])

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            PowerSum([(float("inf"), 1.0)])

    def test_evaluation_scalar_and_array(self):
        p = PowerSum([(2.0, 0.0), (1.0, 1.0), (0.5, 2.0)])
        assert p(2.0) == pytest.approx(2.0 + 2.0 + 2.0)
        xs = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(p(xs), [2.0, 3.5, 6.0])

    def test_arithmetic(self):
        p = PowerSum.monomial(1.0, 1.0)
        q = PowerSum.constant(2.0)
        s = p + q
        assert s(3.0) == 5.0
        assert (3.0 * p)(2.0) == 6.0
        assert (p * 0.5)(2.0) == 1.0

    def test_classmethod_constructors(self):
        assert PowerSum.zero().terms == ()
        assert PowerSum.constant(4.0).terms == ((4.0, 0.0),)
        assert PowerSum.monomial(3.0, 0.5).terms == ((3.0, 0.5),)

    def test_min_exponent(self):
        assert PowerSum([(1.0, 0.5), (1.0, 2.0)]).min_exponent == 0.5
        assert PowerSum.zero().min_exponent == math.inf

    def test_derivative_terms_drop_constants(self):
        p = PowerSum([(2.0, 0.0), (3.0, 1.0), (1.0, 2.5)])
        assert p.derivative_terms() == ((3.0, 0.0), (2.5, 1.5))

    def test_derivative_terms_fractional_singularity(self):
        # d/dx of sqrt(x) has exponent -1/2; kept as a raw term list
        p = PowerSum.monomial(2.0, 0.5)
        assert p.derivative_terms() == ((1.0, -0.5),)

    def test_antiderivative_vanishes_at_zero(self):
        p = PowerSum([(2.0, 0.0), (1.0, 1.0)])
        ad = p.antiderivative()
        assert ad(0.0) == 0.0
        assert ad(2.0) == pytest.approx(2.0 * 2.0 + 0.5 * 4.0)

    def test_immutable(self):
        p = PowerSum.constant(1.0)
        with pytest.raises(AttributeError):
            p.terms = ()

    def test_pieces_is_one_span_like_a_piecewise_sum(self):
        p = PowerSum([(2.0, 0.0), (1.0, 0.5)])
        assert list(p.pieces(1.5)) == [(0.0, 1.5, p)]
        assert list(p.pieces(math.inf)) == [(0.0, math.inf, p)]
        assert list(p.pieces(0.0)) == []


class TestPiecewisePowerSum:
    def _two_segment(self):
        # 1 on [0,1], then 1 + 3*(a-1) written out as -2 + 3a
        return PiecewisePowerSum(
            [1.0],
            [PowerSum.constant(1.0), PowerSum([(-2.0, 0.0), (3.0, 1.0)])],
        )

    def test_segment_lookup_right_continuous(self):
        f = self._two_segment()
        assert f.segment_index(0.5) == 0
        assert f.segment_index(1.0) == 1
        assert f.segment_index(1.5) == 1

    def test_evaluation(self):
        f = self._two_segment()
        assert f(0.5) == 1.0
        assert f(1.0) == 1.0
        assert f(2.0) == pytest.approx(4.0)
        np.testing.assert_allclose(f(np.array([0.0, 1.0, 2.0])), [1.0, 1.0, 4.0])

    def test_discontinuity_rejected(self):
        with pytest.raises(ContinuityError) as exc:
            PiecewisePowerSum(
                [1.0], [PowerSum.constant(1.0), PowerSum.constant(2.0)]
            )
        assert exc.value.index == 0
        assert exc.value.mismatch == pytest.approx(1.0)

    def test_breakpoints_must_increase(self):
        segs = [PowerSum.constant(1.0)] * 3
        with pytest.raises(DomainError):
            PiecewisePowerSum([2.0, 1.0], segs)
        with pytest.raises(DomainError):
            PiecewisePowerSum([-1.0], segs[:2])

    def test_segment_count_must_match(self):
        with pytest.raises(DomainError):
            PiecewisePowerSum([1.0], [PowerSum.constant(1.0)])

    def test_pieces_clip_at_upper(self):
        f = self._two_segment()
        spans = list(f.pieces(1.5))
        assert [(lo, hi) for lo, hi, _ in spans] == [(0.0, 1.0), (1.0, 1.5)]
        spans = list(f.pieces(0.5))
        assert [(lo, hi) for lo, hi, _ in spans] == [(0.0, 0.5)]


class TestTabulatedFunction:
    def test_requires_origin_start(self):
        with pytest.raises(DomainError):
            TabulatedFunction([0.5, 1.0], [1.0, 2.0])

    def test_requires_increasing_grid(self):
        with pytest.raises(DomainError):
            TabulatedFunction([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])

    def test_requires_two_samples(self):
        with pytest.raises(DomainError):
            TabulatedFunction([0.0], [1.0])

    def test_linear_interpolation(self):
        f = TabulatedFunction([0.0, 1.0, 2.0], [0.0, 2.0, 3.0])
        assert f(0.5) == pytest.approx(1.0)
        assert f(1.5) == pytest.approx(2.5)
        assert f.x_max == 2.0
        np.testing.assert_allclose(f(np.array([0.0, 2.0])), [0.0, 3.0])

    def test_domain_enforced(self):
        f = TabulatedFunction([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(DomainError):
            f(1.5)
        with pytest.raises(DomainError):
            f(-0.5)
        # tiny float noise just past the end is tolerated
        assert f(1.0 + 1e-15) == pytest.approx(1.0)

    def test_domain_error_names_the_point_outside(self):
        # 1 + 1e-14 lies inside the tolerated band; 3.0 is the offender
        f = TabulatedFunction([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(DomainError) as exc:
            f([1.0 + 1e-14, 3.0])
        assert str(exc.value) == (
            "evaluation point 3.0 outside tabulated range [0, 1.0]"
        )

    def test_arrays_read_only(self):
        f = TabulatedFunction([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            f.values[0] = 5.0

    def test_derivative_exact_on_quadratics(self):
        # the stencils are second order, so quadratics differentiate exactly
        xs = np.array([0.0, 0.3, 0.7, 1.0, 1.6])  # non-uniform on purpose
        f = TabulatedFunction(xs, 2.0 + 3.0 * xs - 1.5 * xs**2)
        np.testing.assert_allclose(
            f.derivative_values(), 3.0 - 3.0 * xs, rtol=1e-12, atol=1e-12
        )

    def test_derivative_needs_three_samples(self):
        f = TabulatedFunction([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(DomainError):
            f.derivative_values()

    def test_derivative_returns_tabulated(self):
        xs = np.linspace(0.0, 1.0, 11)
        f = TabulatedFunction(xs, xs**2)
        d = f.derivative()
        assert isinstance(d, TabulatedFunction)
        np.testing.assert_allclose(d(xs), 2.0 * xs, atol=1e-12)
