"""Fractional integral and derivative of order n in (0, 1).

Conventions (lower limit 0 throughout):

* fractional integral
  ``I^n f(x) = (1/Gamma(n)) * integral_0^x f(t) (x-t)**(n-1) dt``
* fractional derivative (differentiate-first form)
  ``D^n f(x) = (1/Gamma(1-n)) * integral_0^x f'(t) (x-t)**(-n) dt``

On power sums both operators act exactly, one monomial at a time:
x**m maps to Gamma(m+1)/Gamma(m+n+1) x**(m+n) under I^n and, for m > 0,
to Gamma(m+1)/Gamma(m-n+1) x**(m-n) under D^n (constants differentiate to
zero).  Everything else is quadrature, at a float x or a 1-d array of
points in one call: the integral is K[f] at p = n
(``quadrature.kernel_route``) and the derivative K[f'] at p = 1 - n
(``quadrature.derivative_route``), each over its Gamma.  D^n I^n f = f
for continuous f with f(0) = 0; ``composition_check`` probes that
identity numerically with both operators evaluated by quadrature, no
symbolic shortcuts.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .functions import PiecewisePowerSum, PowerSum, TabulatedFunction, eval_terms
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    check_integrand,
    check_operator,
    check_order,
    check_point,
    derivative_route,
    kernel_route,
    table_route,
)
from .special_functions import log_gamma, reflection_factor

__all__ = [
    "rl_integral",
    "rl_power_sum",
    "caputo_derivative",
    "caputo_power_sum",
    "caputo_limit_at_zero",
    "monomial_frac_derivative",
    "composition_check",
]


def _gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) for a, b > 0, safe for large arguments."""
    return math.exp(log_gamma(a) - log_gamma(b))


def monomial_frac_derivative(m: float, n) -> tuple[float, float]:
    """(coef, exp) of D^n applied to x**m, m >= 0.

    m = 0 gives the zero function; m > 0 gives
    Gamma(m+1)/Gamma(m-n+1) * x**(m-n).
    """
    n = check_order(n)
    m = float(m)
    if not (math.isfinite(m) and m >= 0.0):
        raise DomainError(f"monomial exponent must be >= 0, got {m!r}")
    if m == 0.0:
        return (0.0, 0.0)
    return (_gamma_ratio(m + 1.0, m - n + 1.0), m - n)


def rl_power_sum(f: PowerSum, n) -> PowerSum:
    """Exact image of a power sum under the order-n integral."""
    return _rl_power_sum(f, check_order(n))


def _rl_power_sum(f: PowerSum, n: float) -> PowerSum:
    return PowerSum(
        tuple((c * _gamma_ratio(e + 1.0, e + n + 1.0), e + n) for c, e in f.terms)
    )


def caputo_power_sum(f: PowerSum, n) -> PowerSum:
    """Exact image of a power sum under the order-n derivative.

    Only defined when every non-constant exponent satisfies e >= n, so
    the image exponents stay >= 0; otherwise the image is not a power sum
    (evaluate pointwise via :func:`caputo_derivative` instead).
    """
    n = check_order(n)
    for _, e in f.terms:
        if e != 0.0 and e < n:
            raise DomainError(
                f"derivative of x**{e} has negative exponent {e - n}; "
                "not representable as a power sum"
            )
    return PowerSum(_caputo_image_terms(f, n))


def _caputo_image_terms(f: PowerSum, n: float):
    """Raw (coef, exp) pairs of D^n f; exponents may be negative."""
    out = []
    for c, e in f.terms:
        if e == 0.0:
            continue
        out.append((c * _gamma_ratio(e + 1.0, e - n + 1.0), e - n))
    return tuple(out)


def rl_integral(
    f,
    n,
    x,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    backend: str = "auto",
):
    """Fractional integral I^n f at x >= 0: a float (giving a float) or a
    1-d array of points (giving an array of its shape in one call).

    backend: 'exact' (power sums only, closed form), 'quadrature', or
    'auto' (exact when available, else quadrature).
    """
    n, x, exact = check_operator(f, n, x, True, False, backend)
    if exact:
        return _rl_power_sum(f, n)(x)
    return kernel_route(f, x, n, 0.0, cfg) / math.gamma(n)


def caputo_derivative(
    f,
    n,
    x,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    backend: str = "auto",
):
    """Fractional derivative D^n f at x > 0: a float (giving a float) or a
    1-d array of points (giving an array of its shape in one call).

    Same backend choices as :func:`rl_integral`; the exact path evaluates
    the monomial rule term by term and tolerates image exponents in
    (-1, 0), where the derivative diverges as x -> 0 but is finite for
    x > 0.  A table at a float x > 0 skips the checks once its one test
    passes and goes straight to quadrature's table route, where a node of
    a uniform table is one cache lookup and one index.
    """
    if (
        type(f) is TabulatedFunction and backend in ("auto", "quadrature")
        and type(n) is float and 0.0 < n < 1.0 and type(x) is float and 0.0 < x < math.inf
    ):
        p = 1.0 - n
        return table_route(f, x, p, True) / math.gamma(p)
    n, x, exact = check_operator(f, n, x, False, True, backend)
    if exact:
        return eval_terms(_caputo_image_terms(f, n), x)
    return derivative_route(f, x, 1.0 - n, cfg) / math.gamma(1.0 - n)


def caputo_limit_at_zero(f, n) -> float | None:
    """The x -> 0+ limit of the order-n derivative, or None if it
    diverges (leading exponent of f below n).

    Useful for grids that include the origin, where the pointwise
    operator itself is undefined.
    """
    nn, f = check_order(n), check_integrand(f, True)
    if isinstance(f, PiecewisePowerSum):
        f = f.segments[0]
    if isinstance(f, TabulatedFunction):
        # interpolants have bounded slope, so the kernel integral shrinks
        # like x**(1-n)
        return 0.0
    total = 0.0
    for c, e in _caputo_image_terms(f, nn):
        if c == 0.0:
            continue
        if e < 0.0:
            return None
        if e == 0.0:
            total += c
    return total


def composition_check(
    f,
    n,
    x: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> tuple[float, float]:
    """Both sides of the nested mutual-inversion identity at x.

    Returns ``(lhs, rhs)`` with lhs = f(x) and

        rhs = (sin n pi / pi) * integral_0^x (x-a)**(n-1) F(a) da,
        F(a) = integral_0^a f'(z) (a-z)**(-n) dz.

    The inner derivative-kernel integral is a fresh quadrature at every
    outer node; nothing cancels symbolically.  Up to the Gamma
    normalisations, rhs is the order-n integral of the order-n derivative
    of f, so the two sides agree exactly when f is continuous with
    f(0) = 0 (which is required, as is a differentiable representation).
    """
    nn, x = check_order(n), check_point(x)
    check_integrand(f, True)
    f0 = float(f(0.0))
    if abs(f0) > 1e-12 * max(1.0, abs(float(f(x)))):
        raise DomainError(f"composition identity needs f(0) = 0, got {f0!r}")

    lhs = float(f(x))

    def inner(a):  # a fresh quadrature at every outer node, all in one call
        return derivative_route(f, a, 1.0 - nn, cfg)

    if isinstance(f, PowerSum) and f.terms:
        # inner(a) behaves like a**(min_exp - n) near 0; hand that factor
        # to the quadrature weight
        le = f.min_exponent - nn
        rhs = reflection_factor(nn) * kernel_route(
            lambda a: inner(a) * a ** (-le), x, nn, le, cfg
        )
    else:
        rhs = reflection_factor(nn) * kernel_route(inner, x, nn, 0.0, cfg)
    return lhs, rhs
