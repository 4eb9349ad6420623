"""Abel's integral equation, both directions.

The equation relates a descent-time function psi to the arc length s of
the curve producing it:

    psi(a) = integral_0^a s'(z) * (a - z)**(-n) dz,        0 < n < 1.

``forward`` evaluates that integral for known s: it is the derivative
kernel K[s'] at p = 1 - n, ``quadrature.derivative_kernel``.  Two
independent routes recover s from psi:

* ``solve_series``     -- exact coefficient map on power sums,
* ``solve_convolution``-- Gauss-Jacobi quadrature of the closed form
                          s = (sin n pi / pi) integral_0^x psi(a) (x-a)**(n-1) da.

``solve_theorem`` (Abel's 1823 scaling form) is the convolution route by
another name, ``solve_piecewise`` is that route for segment-wise psi at
any order, and ``solve_on_grid`` runs a backend over a whole grid in one
vectorised pass and wraps it as a tabulated arc length.  ``forward`` and
the three pointwise solvers take a float or a whole 1-d grid.  The
quadrature sees psi's algebraic structure only through its leading
power at 0, which goes into the Jacobi weight; checking it against the
exact series map is the point of having two routes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .functions import (
    FunctionSpec,
    Order,
    PiecewisePowerSum,
    PowerSum,
    TabulatedFunction,
    as_order,
)
from .fracops import rl_power_sum
from .quadrature import (
    DEFAULT_CONFIG,
    DIFFERENTIABLE,
    QuadratureConfig,
    check_operator,
    derivative_route,
    graded_mesh,
    singular_integral,
)
from .special_functions import gamma

__all__ = [
    "SolutionBackend",
    "AbelProblem",
    "ArcLengthSolution",
    "forward",
    "solve_series",
    "solve_convolution",
    "solve_theorem",
    "solve_piecewise",
    "solve_on_grid",
]


class SolutionBackend(enum.Enum):
    SERIES_1823 = "series"
    CONVOLUTION_1826 = "convolution"
    THEOREM_1823 = "theorem"
    NUMERIC_PRODUCT = "numeric"


@dataclass(frozen=True)
class AbelProblem:
    """The data of one inversion problem: the time function psi and the
    kernel order n (1/2 for the tautochrone)."""

    psi: FunctionSpec
    n: Order = field(default_factory=lambda: Order(0.5))

    def __post_init__(self):
        object.__setattr__(self, "n", as_order(self.n))
        if not isinstance(
            self.psi, (PowerSum, PiecewisePowerSum, TabulatedFunction)
        ):
            raise DomainError(
                f"psi must be a function spec, got {type(self.psi).__name__}"
            )
        if not math.isfinite(float(self.psi(0.0))):
            raise DomainError("psi must be finite at 0")


@dataclass(frozen=True)
class ArcLengthSolution:
    """Arc length s(x) recovered from an AbelProblem, tagged with the
    backend that produced it.  s(0) = 0 always."""

    s: FunctionSpec
    backend: SolutionBackend

    def __post_init__(self):
        s0 = float(self.s(0.0))
        if abs(s0) > 1e-12:
            raise DomainError(f"arc length must vanish at 0, got s(0) = {s0!r}")

    def __call__(self, x):
        return self.s(x)


def forward(
    s,
    n,
    a,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
):
    """psi(a) = integral_0^a s'(z) (a-z)**(-n) dz for known arc length s,
    Gamma(1-n) times its order-n derivative: :func:`derivative_kernel` at
    p = 1 - n.  a is a float (giving a float) or a 1-d array of release
    heights >= 0 (giving an array of its shape); a = 0 gives 0."""
    if not (
        type(n) is float and 0.0 < n < 1.0 and type(a) is float and 0.0 < a < math.inf
        and type(s) in DIFFERENTIABLE
    ):
        n, a, _ = check_operator(s, n, a, True, True)
    return derivative_route(s, a, 1.0 - n, cfg)


def solve_series(problem: AbelProblem) -> ArcLengthSolution:
    """Exact inversion of a power-sum psi.

    Each term beta * a**k maps to
    beta * Gamma(k+1) / (Gamma(1-n) Gamma(n+k+1)) * x**(n+k).
    """
    if not isinstance(problem.psi, PowerSum):
        raise DomainError("series backend requires a PowerSum psi")
    n = float(problem.n)
    g1 = gamma(1.0 - n)
    terms = tuple((c / g1, e) for c, e in rl_power_sum(problem.psi, n).terms)
    return ArcLengthSolution(PowerSum(terms), SolutionBackend.SERIES_1823)


def solve_convolution(
    problem: AbelProblem,
    x,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
):
    """s(x) by the convolution closed form
    (sin n pi / pi) * integral_0^x psi(a) (x-a)**(n-1) da.

    psi is treated as a black box evaluated at quadrature nodes (product
    integration on its own grid when tabulated); only its leading power
    at 0 is used as a weight hint.  x is a float (giving a float) or a
    1-d array of points >= 0 (giving an array of its shape, in one pass);
    a 2-d x, a negative point or nan is a DomainError.
    """
    return _solve_points(problem.psi, problem.n, x, cfg)


def solve_theorem(
    problem: AbelProblem,
    x,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
):
    """s(x) by the scaling closed form
    (sin n pi / pi) * x**n * integral_0^1 psi(x t) (1-t)**(n-1) dt.

    That is the convolution form after a = x t, and the Gauss-Jacobi rule
    of [0, 1] scaled to [0, x] is the rule of [0, x], so this returns
    :func:`solve_convolution`'s value, bit for bit, for every psi, at a
    float or a 1-d array x.
    """
    return _solve_points(problem.psi, problem.n, x, cfg)


def _solve_points(psi, order: Order, x, cfg: QuadratureConfig):
    """s at x >= 0 (a float, or every point of a 1-d grid in one pass) by
    the convolution form, K[psi] taken by the route of psi's type;
    :func:`singular_integral` checks x."""
    n = order.n
    # reflection_factor without its order check: an Order is already in (0, 1)
    return math.sin(math.pi * n) / math.pi * singular_integral(psi, x, n, cfg)


def _sampled(psi, x_max: float, points: int) -> TabulatedFunction:
    """psi sampled on a fine graded mesh, dense enough that the O(h^2)
    interpolation error of the product rule stays below the numeric-backend
    tolerances."""
    mesh = graded_mesh(x_max, max(8 * (points - 1) + 1, 2049))
    return TabulatedFunction(mesh, psi(mesh))


def solve_piecewise(
    problem: AbelProblem,
    x,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
):
    """s(x) for segment-wise psi: :func:`solve_convolution`, whose kernel
    integral is then the first segment's on [0, x] plus, at each
    breakpoint b_i below x, that of the jump psi_i - psi_(i-1) on
    [b_i, x].  Any order n; x is a float or a 1-d array."""
    return _solve_points(problem.psi, problem.n, x, cfg)


def solve_on_grid(
    problem: AbelProblem,
    xs,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    backend: SolutionBackend = SolutionBackend.CONVOLUTION_1826,
) -> ArcLengthSolution:
    """Solve on a whole grid (which must start at 0) in one vectorised
    pass and wrap the result as a tabulated arc length.

    The numeric backend treats psi as tabulated data (sampled onto a fine
    graded mesh if given in closed form) and convolves it by product
    integration; the others give every point the value of their pointwise
    routine.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or xs[0] != 0.0 or np.any(np.diff(xs) <= 0):
        raise DomainError("grid must be 1-d, start at 0, strictly increasing")
    if not isinstance(backend, SolutionBackend):
        raise DomainError(f"unknown backend {backend!r}")
    psi = problem.psi
    if backend is SolutionBackend.NUMERIC_PRODUCT and not isinstance(psi, TabulatedFunction):
        psi = _sampled(psi, float(xs[-1]), xs.size)
    if backend is SolutionBackend.SERIES_1823:
        values = solve_series(problem).s(xs)
    else:
        values = _solve_points(psi, problem.n, xs, cfg)
    return ArcLengthSolution(TabulatedFunction(xs, values), backend)
