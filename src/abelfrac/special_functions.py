"""Gamma (``math.gamma``/``math.lgamma`` behind the package's domain
checks), beta in log space, and the reflection factor sin(n*pi)/pi that
converts between the forward and inverse Abel kernels.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["gamma", "log_gamma", "beta", "reflection_factor"]


def gamma(z: float) -> float:
    """Gamma function for real z excluding the poles 0, -1, -2, ...;
    where it overflows (z > 171.62, or |z| < 5.6e-309) it is a signed inf."""
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"gamma: non-finite argument {z!r}")
    if z <= 0.0 and z == math.floor(z):
        raise DomainError(f"gamma: pole at non-positive integer {z!r}")
    try:
        return math.gamma(z)
    except OverflowError:
        return math.copysign(math.inf, z)


def log_gamma(z: float) -> float:
    """log Gamma(z) for z > 0 (``math.lgamma``; +inf past about 2.5e305)."""
    z = float(z)
    if not (math.isfinite(z) and z > 0.0):
        raise DomainError(f"log_gamma: argument must be finite and > 0, got {z!r}")
    try:
        return math.lgamma(z)
    except OverflowError:
        return math.inf


def beta(a: float, b: float) -> float:
    """Euler beta B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b), a, b > 0.

    Evaluated in log space: B shows up here as the exact value of the
    singular moment integral of t^(a-1) (x-t)^(b-1), where a can be a
    large polynomial degree and direct Gamma ratios would overflow.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and a > 0.0):
        raise DomainError(f"beta: first argument must be > 0, got {a!r}")
    if not (math.isfinite(b) and b > 0.0):
        raise DomainError(f"beta: second argument must be > 0, got {b!r}")
    return math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))


def reflection_factor(n: float) -> float:
    """sin(n*pi)/pi for 0 < n < 1.

    Equals 1/(Gamma(n) Gamma(1-n)); it is the constant that makes the
    forward kernel (a-x)^(-n) and the inverse kernel (x-a)^(n-1) mutually
    inverse.
    """
    n = float(n)
    if not (0.0 < n < 1.0):
        raise DomainError(f"reflection_factor: order must lie in (0, 1), got {n!r}")
    return math.sin(math.pi * n) / math.pi
