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
(``quadrature.kernel_integral``) and the derivative K[f'] at p = 1 - n
(``quadrature.derivative_kernel``), each over its Gamma.  D^n I^n f = f
for continuous f with f(0) = 0; ``composition_check`` probes that
identity numerically with both operators evaluated by quadrature, no
symbolic shortcuts.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .functions import (
    PiecewisePowerSum,
    PowerSum,
    TabulatedFunction,
    _eval_terms,
    as_order,
)
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    _limits,
    _order_like,
    derivative_kernel,
    kernel_integral,
    singular_integral,
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
    n = float(as_order(n))
    m = float(m)
    if not (math.isfinite(m) and m >= 0.0):
        raise DomainError(f"monomial exponent must be >= 0, got {m!r}")
    if m == 0.0:
        return (0.0, 0.0)
    return (_gamma_ratio(m + 1.0, m - n + 1.0), m - n)


def rl_power_sum(f: PowerSum, n) -> PowerSum:
    """Exact image of a power sum under the order-n integral."""
    n = float(as_order(n))
    return PowerSum(
        tuple((c * _gamma_ratio(e + 1.0, e + n + 1.0), e + n) for c, e in f.terms)
    )


def caputo_power_sum(f: PowerSum, n) -> PowerSum:
    """Exact image of a power sum under the order-n derivative.

    Only defined when every non-constant exponent satisfies e >= n, so
    the image exponents stay >= 0; otherwise the image is not a power sum
    (evaluate pointwise via :func:`caputo_derivative` instead).
    """
    n = float(as_order(n))
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


def _operator_args(f, n, x, backend: str, at_zero: bool):
    """(n, x, exact), the checks of an operator's public entry: the order
    n as a float in (0, 1), x as a float or a 1-d float array of finite
    points >= 0 (> 0 unless ``at_zero``), and whether the exact backend
    (power sums) runs.  Loops over points call the operators one float at
    a time, so a finite float x > 0 takes the shortest path (and the flag
    is positional: cheaper)."""
    if not (type(n) is float and 0.0 < n < 1.0):
        n = _order_like(n)
    if not (type(x) is float and 0.0 < x < math.inf):
        x = _points(x, at_zero)
    if backend == "auto":
        return n, x, isinstance(f, PowerSum)
    if backend not in ("exact", "quadrature"):
        raise DomainError(f"unknown backend {backend!r}")
    if backend == "exact" and not isinstance(f, PowerSum):
        raise DomainError("exact backend requires a PowerSum input")
    return n, x, backend == "exact"


def _points(x, at_zero: bool):
    """x as a float or a 1-d float array of finite points (``_limits``)
    >= 0 (> 0 unless ``at_zero``), else a DomainError."""
    x = _limits(x, "x must be a scalar or a 1-d array")
    low = x if isinstance(x, float) else float(np.min(x, initial=math.inf))
    if not (low > 0.0 or (at_zero and low == 0.0)):
        raise DomainError(f"x must be {'>=' if at_zero else '>'} 0, got {low!r}")
    return x


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
    nn, x, exact = _operator_args(f, n, x, backend, True)  # x = 0 allowed
    if exact:
        return rl_power_sum(f, nn)(x)
    return kernel_integral(f, x, nn, cfg) / math.gamma(nn)


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
    x > 0.
    """
    nn, x, exact = _operator_args(f, n, x, backend, False)  # x > 0
    if exact:
        return _eval_terms(_caputo_image_terms(f, nn), x)
    return derivative_kernel(f, x, 1.0 - nn, cfg) / math.gamma(1.0 - nn)


def caputo_limit_at_zero(f, n) -> float | None:
    """The x -> 0+ limit of the order-n derivative, or None if it
    diverges (leading exponent of f below n).

    Useful for grids that include the origin, where the pointwise
    operator itself is undefined.
    """
    nn = float(as_order(n))
    if isinstance(f, PiecewisePowerSum):
        f = f.segments[0]
    if isinstance(f, TabulatedFunction):
        # interpolants have bounded slope, so the kernel integral shrinks
        # like x**(1-n)
        return 0.0
    if isinstance(f, PowerSum):
        total = 0.0
        for c, e in _caputo_image_terms(f, nn):
            if c == 0.0:
                continue
            if e < 0.0:
                return None
            if e == 0.0:
                total += c
        return total
    raise DomainError(f"unsupported input type {type(f).__name__}")


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
    nn = float(as_order(n))
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"x must be > 0, got {x!r}")
    f0 = float(f(0.0))
    if abs(f0) > 1e-12 * max(1.0, abs(float(f(x)))):
        raise DomainError(f"composition identity needs f(0) = 0, got {f0!r}")

    lhs = float(f(x))

    def inner(a):  # a fresh quadrature at every outer node, all in one call
        return derivative_kernel(f, a, 1.0 - nn, cfg)

    if isinstance(f, PowerSum) and f.terms:
        # inner(a) behaves like a**(min_exp - n) near 0; hand that factor
        # to the quadrature weight
        le = f.min_exponent - nn
        rhs = reflection_factor(nn) * singular_integral(
            lambda a: inner(a) * a ** (-le), x, nn, cfg, left_exponent=le
        )
    else:
        rhs = reflection_factor(nn) * singular_integral(inner, x, nn, cfg)
    return lhs, rhs
