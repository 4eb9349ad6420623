"""Fractional-order calculus and descent-time inversion toolkit.

The pipeline, end to end: a descent-time function psi determines, through
a weakly singular integral equation, the arc length s(x) of the curve
that realizes it; the curve can be rebuilt in the plane and the times
re-verified by direct mechanical simulation.  Along the way the package
provides the order-n fractional integral and derivative (0 < n < 1), the
gamma/beta special functions they need, and quadrature for kernels with
endpoint singularities.
"""

from .abel_solver import (
    AbelProblem,
    ArcLengthSolution,
    SolutionBackend,
    forward,
    solve_convolution,
    solve_on_grid,
    solve_piecewise,
    solve_series,
    solve_theorem,
)
from .errors import (
    ContinuityError,
    ConvergenceError,
    DomainError,
    EvaluationError,
    FunctionParseError,
    InfeasibleCurveError,
)
from .fracops import (
    caputo_derivative,
    caputo_limit_at_zero,
    caputo_power_sum,
    composition_check,
    monomial_frac_derivative,
    rl_integral,
    rl_power_sum,
)
from .functions import (
    FunctionSpec,
    Order,
    PiecewisePowerSum,
    PowerSum,
    TabulatedFunction,
)
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    derivative_kernel,
    graded_mesh,
    kernel_integral,
    singular_integral,
    singular_integral_tabulated,
    smooth_integral,
)
from .special_functions import beta, gamma, log_gamma, reflection_factor
from .tautochrone import (
    CurveSamples,
    DescentResult,
    descent_time_integral,
    reconstruct_curve,
    simulate_descent,
)

__version__ = "0.1.0"

__all__ = [
    "AbelProblem",
    "ArcLengthSolution",
    "SolutionBackend",
    "forward",
    "solve_convolution",
    "solve_on_grid",
    "solve_piecewise",
    "solve_series",
    "solve_theorem",
    "ContinuityError",
    "ConvergenceError",
    "DomainError",
    "EvaluationError",
    "FunctionParseError",
    "InfeasibleCurveError",
    "caputo_derivative",
    "caputo_limit_at_zero",
    "caputo_power_sum",
    "composition_check",
    "monomial_frac_derivative",
    "rl_integral",
    "rl_power_sum",
    "FunctionSpec",
    "Order",
    "PiecewisePowerSum",
    "PowerSum",
    "TabulatedFunction",
    "DEFAULT_CONFIG",
    "QuadratureConfig",
    "derivative_kernel",
    "graded_mesh",
    "kernel_integral",
    "singular_integral",
    "singular_integral_tabulated",
    "smooth_integral",
    "beta",
    "gamma",
    "log_gamma",
    "reflection_factor",
    "CurveSamples",
    "DescentResult",
    "descent_time_integral",
    "reconstruct_curve",
    "simulate_descent",
    "__version__",
]
