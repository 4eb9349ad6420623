"""Inverse-problem backends: series map, convolution form, scaled-kernel
theorem form, piecewise form, and the product-integration grid solver.

Reference numbers are closed forms evaluated with mpmath at 30 digits:
for psi = c a^mu the solution is c * sin(n pi)/pi * B(mu+1, n) * x^(mu+n),
and the two-segment case reduces to (2 sqrt(x) + 4 (x-1)^{3/2}) / pi.
A polynomial jump c (a-b)^k at a breakpoint b adds
c * sin(n pi)/pi * B(k+1, n) * (x-b)^(k+n) beyond b.
"""

import itertools
import math

import numpy as np
import pytest

from abelfrac import (
    AbelProblem,
    ArcLengthSolution,
    DomainError,
    Order,
    PiecewisePowerSum,
    PowerSum,
    SolutionBackend,
    TabulatedFunction,
    forward,
    solve_convolution,
    solve_on_grid,
    solve_piecewise,
    solve_series,
    solve_theorem,
)

TWO_SEGMENT = PiecewisePowerSum(
    [1.0],
    [PowerSum.constant(1.0), PowerSum([(-2.0, 0.0), (3.0, 1.0)])],
)


def two_segment_closed_form(x: float) -> float:
    if x <= 1.0:
        return 2.0 * math.sqrt(x) / math.pi
    return (2.0 * math.sqrt(x) + 4.0 * (x - 1.0) ** 1.5) / math.pi


# psi = first on [0, JUMP_AT) and first + sum c (a - JUMP_AT)^k beyond;
# each first segment has its exponents on one lattice
FIRST_SEGMENTS = [
    PowerSum([(1.0, 0.0), (0.5, 1.0)]),
    PowerSum([(2.0, 0.5), (1.0, 1.5)]),
    PowerSum([(1.0, 0.0), (0.3, 2.0), (0.2, 3.0)]),
]
JUMPS = [((0.7, 1),), ((0.4, 1), (-0.9, 2), (0.25, 3))]
JUMP_AT = 0.6


def _beta(a: float, b: float) -> float:
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


def jump_psi(first: PowerSum, jump) -> PiecewisePowerSum:
    expanded = [
        (c * math.comb(k, j) * (-JUMP_AT) ** (k - j), j)
        for c, k in jump
        for j in range(k + 1)
    ]
    return PiecewisePowerSum([JUMP_AT], [first, PowerSum(first.terms + tuple(expanded))])


def jump_closed_form(first: PowerSum, jump, n: float, x: float) -> float:
    total = sum(c * _beta(e + 1.0, n) * x ** (e + n) for c, e in first.terms)
    if x > JUMP_AT:
        total += sum(
            c * _beta(k + 1.0, n) * (x - JUMP_AT) ** (k + n) for c, k in jump
        )
    return math.sin(n * math.pi) / math.pi * total


class TestProblemTypes:
    def test_backend_enum_values(self):
        assert [b.value for b in SolutionBackend] == [
            "series",
            "convolution",
            "theorem",
            "numeric",
        ]

    def test_problem_defaults_to_half_order(self):
        prob = AbelProblem(PowerSum.constant(1.0))
        assert float(prob.n) == 0.5

    def test_solution_must_vanish_at_origin(self):
        with pytest.raises(DomainError):
            ArcLengthSolution(PowerSum.constant(1.0), SolutionBackend.SERIES_1823)


class TestForward:
    def test_sqrt_curve_gives_constant(self):
        # s = 2 sqrt(x) has constant forward image pi at n = 1/2
        s = PowerSum.monomial(2.0, 0.5)
        for a in (0.3, 0.8, 2.0):
            assert forward(s, 0.5, a) == pytest.approx(math.pi, rel=1e-10)

    def test_linear_curve(self):
        # s = x maps to 2 sqrt(a)
        s = PowerSum.monomial(1.0, 1.0)
        for a in (0.25, 1.0, 4.0):
            assert forward(s, 0.5, a) == pytest.approx(
                2.0 * math.sqrt(a), rel=1e-10
            )

    def test_zero_release_height(self):
        assert forward(PowerSum.monomial(1.0, 1.0), 0.5, 0.0) == 0.0


class TestSeriesBackend:
    def test_constant_input(self):
        # psi = 2 -> s = (4/pi) sqrt(x); mpmath 4/pi
        sol = solve_series(AbelProblem(PowerSum.constant(2.0), Order(0.5)))
        assert sol.backend is SolutionBackend.SERIES_1823
        assert sol.s.terms == (
            pytest.approx((1.2732395447351628, 0.5), rel=1e-12),
        )

    @pytest.mark.parametrize(
        "mu, expected_coef",
        [
            # mpmath: 1.8/sqrt(pi) * gamma(mu+1)/gamma(mu+1.5)
            (0.0, 1.1459155902616465),
            (0.5, 0.9),
            (1.0, 0.7639437268410976),
            (2.0, 0.6111549814728781),
        ],
    )
    def test_power_law_coefficients(self, mu, expected_coef):
        prob = AbelProblem(PowerSum.monomial(1.8, mu), Order(0.5))
        sol = solve_series(prob)
        ((coef, exponent),) = sol.s.terms
        assert exponent == pytest.approx(mu + 0.5, abs=1e-14)
        assert coef == pytest.approx(expected_coef, rel=1e-10)

    def test_requires_power_sum(self):
        with pytest.raises(DomainError):
            solve_series(AbelProblem(TWO_SEGMENT, Order(0.5)))


class TestQuadratureBackends:
    def test_convolution_reference(self):
        # psi = a, n = 1/3 at x = 1: sin(pi/3)/pi * B(2, 1/3)
        prob = AbelProblem(PowerSum.monomial(1.0, 1.0), Order(1.0 / 3.0))
        got = solve_convolution(prob, 1.0)
        assert got == pytest.approx(0.620245007349516, rel=1e-8)

    def test_theorem_reference(self):
        # psi = a^{3/2}, n = 1/4 at x = 2: sin(pi/4)/pi * B(5/2,1/4) * 2^{7/4}
        prob = AbelProblem(PowerSum.monomial(1.0, 1.5), Order(0.25))
        got = solve_theorem(prob, 2.0)
        assert got == pytest.approx(2.26867240797956, rel=1e-8)

    def test_three_backends_agree(self):
        prob = AbelProblem(PowerSum([(2.0, 0.0), (1.0, 1.0)]), Order(0.5))
        exact = solve_series(prob).s(0.7)
        assert solve_convolution(prob, 0.7) == pytest.approx(exact, rel=1e-8)
        assert solve_theorem(prob, 0.7) == pytest.approx(exact, rel=1e-8)

    def test_zero_point(self):
        prob = AbelProblem(PowerSum.constant(1.0), Order(0.5))
        assert solve_convolution(prob, 0.0) == 0.0
        assert solve_theorem(prob, 0.0) == 0.0

    def test_convolution_handles_piecewise(self):
        prob = AbelProblem(TWO_SEGMENT, Order(0.5))
        for x in (0.5, 1.5, 2.0):
            assert solve_convolution(prob, x) == pytest.approx(
                two_segment_closed_form(x), rel=1e-8
            )


class TestPiecewiseBackend:
    @pytest.mark.parametrize("x", [0.5, 1.0, 1.5, 2.0])
    def test_two_segment_reference(self, x):
        prob = AbelProblem(TWO_SEGMENT, Order(0.5))
        got = solve_piecewise(prob, x)
        assert got == pytest.approx(two_segment_closed_form(x), rel=1e-7)

    def test_degenerate_segments_match_series(self):
        # both segments identical: must agree with the single-segment series
        pw = PiecewisePowerSum([1.0], [PowerSum.constant(2.0)] * 2)
        prob = AbelProblem(pw, Order(0.5))
        series = solve_series(AbelProblem(PowerSum.constant(2.0), Order(0.5)))
        for x in (0.5, 1.5):
            assert solve_piecewise(prob, x) == pytest.approx(
                series.s(x), rel=1e-10
            )

    @pytest.mark.parametrize("n", [0.1, 0.3, 0.7, 0.9])
    def test_polynomial_jump_reference_at_any_order(self, n):
        xs = np.array([0.3, 0.6, 0.9, 1.5, 2.5])
        for first, jump in itertools.product(FIRST_SEGMENTS, JUMPS):
            prob = AbelProblem(jump_psi(first, jump), Order(n))
            ref = np.array([jump_closed_form(first, jump, n, x) for x in xs])
            for got in (solve_piecewise(prob, xs), [solve_piecewise(prob, x) for x in xs]):
                assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12

    def test_plain_power_sum_accepted(self):
        prob = AbelProblem(PowerSum.constant(2.0), Order(0.5))
        series = solve_series(prob)
        assert solve_piecewise(prob, 0.7) == pytest.approx(
            series.s(0.7), rel=1e-10
        )


class TestGridSolver:
    def test_both_grid_backends_match_series(self):
        prob = AbelProblem(PowerSum([(2.0, 0.0), (1.0, 1.0)]), Order(0.5))
        exact = solve_series(prob).s
        xs = np.linspace(0.0, 1.0, 301)
        for backend in (
            SolutionBackend.NUMERIC_PRODUCT,
            SolutionBackend.CONVOLUTION_1826,
        ):
            sol = solve_on_grid(prob, xs, backend=backend)
            assert isinstance(sol.s, TabulatedFunction)
            assert sol.backend is backend
            assert sol.s(0.0) == 0.0
            got = sol.s(xs[1:])
            ref = exact(xs[1:])
            assert np.max(np.abs(got - ref) / ref) < 1e-10

    def test_tabulated_input(self):
        # psi supplied as samples, solved by product integration
        grid = np.linspace(0.0, 1.0, 2001)
        psi_tab = TabulatedFunction(grid, 2.0 + grid)
        prob = AbelProblem(psi_tab, Order(0.5))
        xs = np.linspace(0.0, 1.0, 101)
        sol = solve_on_grid(prob, xs, backend=SolutionBackend.NUMERIC_PRODUCT)
        exact = solve_series(
            AbelProblem(PowerSum([(2.0, 0.0), (1.0, 1.0)]), Order(0.5))
        ).s
        got = sol.s(xs[1:])
        ref = exact(xs[1:])
        assert np.max(np.abs(got - ref) / ref) < 1e-4

    def test_theorem_on_tabulated_psi_is_the_convolution(self):
        # tabulated psi goes through product integration on its own grid
        # whatever the backend, so the two routes give the same bits
        grid = np.linspace(0.0, 1.0, 1001)
        prob = AbelProblem(TabulatedFunction(grid, 2.0 + np.sqrt(grid)), Order(0.5))
        xs = np.linspace(0.0, 1.0, 101)
        theorem = solve_on_grid(prob, xs, backend=SolutionBackend.THEOREM_1823)
        conv = solve_on_grid(prob, xs, backend=SolutionBackend.CONVOLUTION_1826)
        assert np.array_equal(theorem.s.values, conv.s.values)
        assert solve_theorem(prob, 0.5371) == solve_convolution(prob, 0.5371)

    def test_forward_round_trip(self):
        # forward of the gridded solution reproduces psi away from 0
        prob = AbelProblem(PowerSum([(2.0, 0.0), (1.0, 1.0)]), Order(0.5))
        xs = np.linspace(0.0, 1.0, 1001)
        sol = solve_on_grid(prob, xs)
        for a in (0.2, 0.5, 0.9):
            assert forward(sol.s, 0.5, a) == pytest.approx(2.0 + a, rel=1e-4)
