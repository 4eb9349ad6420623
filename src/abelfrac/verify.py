"""Built-in analytic verification suite (the ``verify`` CLI command).

Each check pits one part of the pipeline against an independent route:
exact coefficient maps against quadrature backends, operators against
their closed-form images, and the time-domain simulator against the
kernel integral.  Results carry the worst relative error observed and the
tolerance it was held to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .abel_solver import (
    AbelProblem,
    SolutionBackend,
    forward,
    solve_on_grid,
    solve_piecewise,
    solve_series,
)
from .fracops import caputo_derivative, composition_check, monomial_frac_derivative
from .functions import Order, PiecewisePowerSum, PowerSum
from .special_functions import gamma
from .tautochrone import descent_time_integral, reconstruct_curve, simulate_descent

__all__ = [
    "CheckResult",
    "POWER_CATALOG",
    "PHYSICS_CATALOG",
    "run_all_checks",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tol


#: power-sum time functions for solver identity checks (psi >= 0)
POWER_CATALOG: tuple[tuple[str, PowerSum], ...] = (
    ("constant", PowerSum.constant(2.0)),
    ("sqrt", PowerSum.monomial(3.0, 0.5)),
    ("linear", PowerSum.monomial(1.0, 1.0)),
    ("quadratic", PowerSum.monomial(0.5, 2.0)),
    ("affine", PowerSum(((2.0, 0.0), (1.0, 1.0)))),
    ("frac-mix", PowerSum(((1.0, 0.5), (0.25, 1.5)))),
)

#: time functions whose solved curves are physically realizable on [0, 1]
#: (slope >= 1 everywhere), for simulator round trips
PHYSICS_CATALOG: tuple[tuple[str, PowerSum], ...] = (
    ("constant", PowerSum.constant(4.0)),
    ("sqrt", PowerSum.monomial(3.0, 0.5)),
    ("affine", PowerSum(((4.0, 0.0), (1.0, 1.0)))),
    ("quadratic-mix", PowerSum(((4.0, 0.0), (0.5, 2.0)))),
    ("three-term", PowerSum(((3.0, 0.0), (2.0, 0.5), (1.0, 1.0)))),
)


def _rel(err: float, ref: float) -> float:
    return abs(err) / max(abs(ref), 1e-300)


def _quadrature_error(prob: AbelProblem, xs: np.ndarray, ref: np.ndarray) -> float:
    """Worst relative error against ref over xs[1:] of one convolution grid
    solve on xs (which starts at 0); the theorem backend is the same route,
    bit for bit, so it is not solved again."""
    got = solve_on_grid(prob, xs, backend=SolutionBackend.CONVOLUTION_1826).s.values
    return float(np.max(np.abs(got[1:] - ref[1:]) / np.abs(ref[1:])))


def check_gamma_identities() -> CheckResult:
    """Gamma(z+1) = z Gamma(z) and Gamma(n) Gamma(1-n) = pi / sin(n pi)."""
    worst = 0.0
    for z in np.arange(0.1, 10.01, 0.1):
        worst = max(worst, _rel(gamma(z + 1.0) - z * gamma(z), gamma(z + 1.0)))
    for n in np.arange(0.05, 0.96, 0.05):
        lhs = gamma(n) * gamma(1.0 - n)
        rhs = math.pi / math.sin(math.pi * n)
        worst = max(worst, _rel(lhs - rhs, rhs))
    return CheckResult("gamma identities", worst, 1e-12)


def check_cycloid_backends() -> CheckResult:
    """psi = c at n = 1/2 must give s = (2c/pi) sqrt(x) by the series map
    and by the convolution quadrature."""
    c = 2.0
    prob = AbelProblem(PowerSum.constant(c), Order(0.5))
    sol = solve_series(prob)
    worst = 0.0
    xs = np.linspace(0.0, 1.0, 101)
    expect = (2.0 * c / math.pi) * np.sqrt(xs)
    worst = max(worst, float(np.max(np.abs(sol.s(xs) - expect))))
    worst = max(worst, _quadrature_error(prob, xs, expect))
    return CheckResult("cycloid, series + convolution", worst, 1e-8)


def check_power_law_coefficients() -> CheckResult:
    """Solved coefficient for psi = c a**mu at n = 1/2 equals
    (c/sqrt(pi)) Gamma(mu+1)/Gamma(mu+3/2)."""
    c = 1.75
    worst = 0.0
    for mu in (0.0, 0.5, 1.0, 2.0):
        sol = solve_series(AbelProblem(PowerSum.monomial(c, mu), Order(0.5)))
        (coef, exp), = sol.s.terms
        ref = (c / math.sqrt(math.pi)) * gamma(mu + 1.0) / gamma(mu + 1.5)
        worst = max(worst, _rel(coef - ref, ref), abs(exp - (mu + 0.5)))
    return CheckResult("power-law coefficient map", worst, 1e-10)


def check_backend_agreement() -> CheckResult:
    """Numeric backends against the exact series map on the catalog."""
    worst = 0.0
    xs = np.array([0.0, 0.3, 1.0])
    for n in (0.25, 0.5, 0.75):
        for _name, psi in POWER_CATALOG:
            prob = AbelProblem(psi, Order(n))
            ref = solve_series(prob).s(xs)
            worst = max(worst, _quadrature_error(prob, xs, ref))
    return CheckResult("backend agreement", worst, 1e-7)


def check_monomial_rule() -> CheckResult:
    """Quadrature fractional derivative against
    Gamma(m+1)/Gamma(m-n+1) x**(m-n)."""
    worst = 0.0
    for m in (0.5, 1.0, 2.0, 3.5):
        for n in (0.25, 0.5, 0.75):
            coef, exp = monomial_frac_derivative(m, n)
            for x in (0.5, 1.5):
                ref = coef * x**exp
                got = caputo_derivative(
                    PowerSum.monomial(1.0, m), n, x, backend="quadrature"
                )
                worst = max(worst, _rel(got - ref, ref))
    return CheckResult("monomial derivative rule", worst, 1e-8)


def check_round_trip() -> CheckResult:
    """forward(solve_series(psi)) must reproduce psi."""
    worst = 0.0
    for n in (0.25, 0.5, 0.75):
        for _name, psi in POWER_CATALOG:
            sol = solve_series(AbelProblem(psi, Order(n)))
            for a in (0.5, 1.0, 2.0):
                ref = float(psi(a))
                worst = max(worst, _rel(forward(sol.s, n, a) - ref, ref))
    return CheckResult("round trip forward after solve", worst, 1e-7)


def check_inversion_pair() -> CheckResult:
    """sqrt(pi) * order-1/2 derivative of solved s equals psi."""
    worst = 0.0
    for _name, psi in POWER_CATALOG:
        sol = solve_series(AbelProblem(psi, Order(0.5)))
        for x in (0.4, 1.0, 1.7):
            ref = float(psi(x))
            got = math.sqrt(math.pi) * caputo_derivative(
                sol.s, 0.5, x, backend="quadrature"
            )
            worst = max(worst, _rel(got - ref, ref))
    return CheckResult("half-order inversion pair", worst, 1e-6)


def check_composition() -> CheckResult:
    """The nested double-integral identity on monomials."""
    worst = 0.0
    for exp in (1.0, 1.5, 2.0):
        f = PowerSum.monomial(1.0, exp)
        for n in (0.25, 1.0 / 3.0, 0.5, 0.75):
            lhs, rhs = composition_check(f, n, 1.3)
            worst = max(worst, _rel(rhs - lhs, lhs))
    return CheckResult("nested composition identity", worst, 1e-6)


def check_piecewise() -> CheckResult:
    """Degenerate split equals the unsplit solution; a genuine two-segment
    input matches the fully discrete product backend."""
    base = PowerSum(((1.5, 0.0), (0.5, 1.0)))
    single = AbelProblem(base, Order(0.5))
    split = AbelProblem(
        PiecewisePowerSum((0.6,), (base, base)), Order(0.5)
    )
    worst = 0.0
    for x in (0.3, 0.8, 1.0):
        ref = solve_piecewise(single, x)
        worst = max(worst, _rel(solve_piecewise(split, x) - ref, ref))

    two = AbelProblem(
        PiecewisePowerSum(
            (0.5,),
            (PowerSum.constant(2.0), PowerSum(((1.0, 0.0), (2.0, 1.0)))),
        ),
        Order(0.5),
    )
    xs = np.linspace(0.0, 1.0, 65)
    product = solve_on_grid(two, xs, backend=SolutionBackend.NUMERIC_PRODUCT)
    for x in (0.25, 0.75, 1.0):
        ref = solve_piecewise(two, x)
        worst = max(worst, _rel(float(product.s(x)) - ref, ref))
    return CheckResult("piecewise split", worst, 1e-5)


def check_straight_line() -> CheckResult:
    """s = Cx reconstructs to the straight line y = x sqrt(C**2 - 1)."""
    C = 1.5
    curve = reconstruct_curve(PowerSum.monomial(C, 1.0), 1.0, 101)
    ratio = curve.y[1:] / curve.xs[1:]
    ref = math.sqrt(C * C - 1.0)
    worst = float(np.max(np.abs(ratio - ref)) / ref)
    return CheckResult("straight-line reconstruction", worst, 1e-8)


def check_isochrone() -> CheckResult:
    """Descent times off the solved constant-psi curve are equal across
    release heights and match psi."""
    c = 4.0
    sol = solve_series(AbelProblem(PowerSum.constant(c), Order(0.5)))
    curve = reconstruct_curve(sol.s, 1.0, 1001)
    times = [simulate_descent(curve, a).T for a in (0.2, 0.5, 0.9)]
    spread = (max(times) - min(times)) / max(times)
    worst = max(spread, max(_rel(t - c, c) for t in times))
    return CheckResult("isochrone simulation", worst, 5e-4)


def check_physics_round_trip() -> CheckResult:
    """Simulated descent time equals psi(a) for solved catalog curves."""
    worst = 0.0
    for _name, psi in PHYSICS_CATALOG[:3]:
        sol = solve_series(AbelProblem(psi, Order(0.5)))
        curve = reconstruct_curve(sol.s, 1.0, 1001)
        for frac in (0.25, 0.5, 0.75):
            a = frac * 1.0
            ref = float(psi(a))
            res = simulate_descent(curve, a)
            worst = max(worst, _rel(res.T - ref, ref))
            ti = descent_time_integral(sol.s, a)
            worst = max(worst, _rel(res.T - ti, ti))
    return CheckResult("physics round trip", worst, 5e-4)


_ALL_CHECKS = (
    check_gamma_identities,
    check_cycloid_backends,
    check_power_law_coefficients,
    check_backend_agreement,
    check_monomial_rule,
    check_round_trip,
    check_inversion_pair,
    check_composition,
    check_piecewise,
    check_straight_line,
    check_isochrone,
    check_physics_round_trip,
)


def run_all_checks() -> list[CheckResult]:
    return [check() for check in _ALL_CHECKS]
