"""Function representations the operators act on.

Three interchangeable forms, all callable on scalars or arrays:

* :class:`PowerSum` -- finite sums ``sum(c_k * x**e_k)`` with real
  exponents ``e_k >= 0``; closed under the fractional operators, so these
  get exact symbolic treatment.
* :class:`PiecewisePowerSum` -- a PowerSum per interval between
  breakpoints, continuous at the joins (derivative jumps allowed).
* :class:`TabulatedFunction` -- samples on a grid starting at 0, evaluated
  by linear interpolation; the numeric fallback for data-driven inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .errors import ContinuityError, DomainError

__all__ = [
    "Order",
    "PowerSum",
    "PiecewisePowerSum",
    "TabulatedFunction",
    "FunctionSpec",
    "as_order",
]

#: relative tolerance for value agreement at piecewise breakpoints
CONTINUITY_RTOL = 1e-10


@dataclass(frozen=True)
class Order:
    """A fractional order n with 0 < n < 1 (endpoints excluded)."""

    n: float

    def __post_init__(self):
        n = float(self.n)
        if not (math.isfinite(n) and 0.0 < n < 1.0):
            raise DomainError(f"order must satisfy 0 < n < 1, got {self.n!r}")
        object.__setattr__(self, "n", n)

    def __float__(self) -> float:
        return self.n


def as_order(n: "Order | float") -> Order:
    return n if isinstance(n, Order) else Order(float(n))


def eval_terms(terms, x):
    """Evaluate sum(c * x**e) for raw (coef, exp) pairs.

    Exponent 0 contributes the coefficient everywhere (0**0 == 1 here, the
    usual power-series convention).  Works for scalars and arrays: a scalar
    gives a float, anything else an array of its shape, and no terms give
    zeros.  The value is that of 0.0 + t_1 + t_2 + ... summed left to
    right, though the sum starts from the first term.  Raw pairs may
    carry negative exponents (derivatives of fractional terms), in which
    case x == 0 yields inf.

    Quadrature calls this once per estimate on a float64 node array, so
    that case skips the conversions, and the error state is entered only
    when some exponent is negative.
    """
    fast = type(x) is np.ndarray and x.dtype == np.float64 and x.ndim > 0
    xs = x if fast else np.asarray(x, dtype=float)
    if not terms:
        out = np.zeros_like(xs)
    elif any(exp < 0.0 for _, exp in terms):
        with np.errstate(divide="ignore"):
            out = _sum_terms(terms, xs)
    else:
        out = _sum_terms(terms, xs)
    if fast:
        return out
    return float(out) if np.isscalar(x) else np.asarray(out)


def _sum_terms(terms, xs):
    (coef, exp), rest = terms[0], terms[1:]
    # 0.0 + t_1 is t_1 but for its sign of zero: -0.0 becomes 0.0
    if exp == 0.0:
        out = np.full(xs.shape, 0.0 + coef)
    else:
        out = coef * np.power(xs, exp)
        out += 0.0
    for coef, exp in rest:
        out += coef if exp == 0.0 else coef * np.power(xs, exp)
    return out


@dataclass(frozen=True, init=False)
class PowerSum:
    """Finite power sum ``sum(coef_k * x**exp_k)`` with exponents >= 0.

    Terms are canonicalized on construction: sorted by ascending exponent,
    exact-duplicate exponents merged, zero coefficients dropped.  The empty
    sum is the zero function.
    """

    terms: tuple[tuple[float, float], ...]

    def __init__(self, terms: Iterable[tuple[float, float]]):
        merged: dict[float, float] = {}
        for item in terms:
            try:
                coef, exp = item
            except (TypeError, ValueError):
                raise DomainError(f"terms must be (coef, exp) pairs, got {item!r}")
            coef = float(coef)
            exp = float(exp)
            if not (math.isfinite(exp) and exp >= 0.0):
                raise DomainError(f"exponent must be finite and >= 0, got {exp!r}")
            merged[exp] = merged.get(exp, 0.0) + coef
        canon = tuple(
            (coef, exp) for exp, coef in sorted(merged.items()) if coef != 0.0
        )
        # after merging: finite coefficients of one exponent can sum to inf
        for coef, _ in canon:
            if not math.isfinite(coef):
                raise DomainError(f"non-finite coefficient {coef!r}")
        object.__setattr__(self, "terms", canon)
        # quadrature's route cache hashes f at every call: hash once
        object.__setattr__(self, "_hash", hash(canon))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def zero(cls) -> "PowerSum":
        return cls(())

    @classmethod
    def constant(cls, c: float) -> "PowerSum":
        return cls(((c, 0.0),))

    @classmethod
    def monomial(cls, coef: float, exp: float) -> "PowerSum":
        return cls(((coef, exp),))

    def __call__(self, x):
        return eval_terms(self.terms, x)

    def __add__(self, other: "PowerSum") -> "PowerSum":
        if not isinstance(other, PowerSum):
            return NotImplemented
        return PowerSum(self.terms + other.terms)

    def __mul__(self, scale: float) -> "PowerSum":
        if not isinstance(scale, (int, float)):
            return NotImplemented
        return PowerSum(tuple((c * scale, e) for c, e in self.terms))

    __rmul__ = __mul__

    @property
    def min_exponent(self) -> float:
        """Smallest exponent present; +inf for the zero sum."""
        return self.terms[0][1] if self.terms else math.inf

    def derivative_terms(self) -> tuple[tuple[float, float], ...]:
        """Raw (coef, exp) pairs of the derivative.

        Constants vanish, and so does a term whose coefficient c * e
        underflows to 0 (it would give 0 * inf at 0 for e < 1); fractional
        exponents below 1 produce negative derivative exponents, so the
        result is *not* a PowerSum.  Evaluate with ``eval_terms``.
        """
        return tuple((c * e, e - 1.0) for c, e in self.terms if c * e != 0.0)

    def antiderivative(self) -> "PowerSum":
        """Term-by-term antiderivative vanishing at 0."""
        return PowerSum(tuple((c / (e + 1.0), e + 1.0) for c, e in self.terms))

    def pieces(self, upper: float):
        """Yield the one span (0, upper, self) when upper > 0, as
        :meth:`PiecewisePowerSum.pieces` does for its segments."""
        if upper > 0.0:
            yield 0.0, upper, self


@dataclass(frozen=True, init=False)
class PiecewisePowerSum:
    """Power sums on consecutive intervals split at interior breakpoints.

    ``segments[i]`` applies on ``[breakpoints[i-1], breakpoints[i])`` with
    the conventions breakpoints[-1] -> 0 and breakpoints[len] -> +inf.
    Values must agree at each breakpoint to CONTINUITY_RTOL (relative to
    max(1, |value|)); slopes may jump.
    """

    breakpoints: tuple[float, ...]
    segments: tuple[PowerSum, ...]

    def __init__(
        self,
        breakpoints: Iterable[float],
        segments: Iterable[PowerSum],
    ):
        bps = tuple(float(b) for b in breakpoints)
        segs = tuple(segments)
        if len(segs) != len(bps) + 1:
            raise DomainError(
                f"need len(breakpoints)+1 segments, got {len(segs)} "
                f"for {len(bps)} breakpoints"
            )
        if not all(isinstance(s, PowerSum) for s in segs):
            raise DomainError("segments must be PowerSum instances")
        for b in bps:
            if not (math.isfinite(b) and b > 0.0):
                raise DomainError(f"breakpoints must be finite and > 0, got {b!r}")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise DomainError(f"breakpoints must be strictly increasing: {bps!r}")
        for i, b in enumerate(bps):
            left = segs[i](b)
            right = segs[i + 1](b)
            gap = abs(left - right)
            if gap > CONTINUITY_RTOL * max(1.0, abs(left)):
                raise ContinuityError(i, gap)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "_hash", hash((bps, segs)))

    def __hash__(self) -> int:
        return self._hash

    def segment_index(self, x: float) -> int:
        # right-continuous: x exactly on a breakpoint belongs to the
        # segment starting there
        return int(np.searchsorted(self.breakpoints, x, side="right"))

    def __call__(self, x):
        if np.isscalar(x):
            return self.segments[self.segment_index(float(x))](float(x))
        xs = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breakpoints, xs, side="right")
        out = np.empty_like(xs)
        for i, seg in enumerate(self.segments):
            mask = idx == i
            if mask.any():
                out[mask] = seg(xs[mask])
        return out

    def pieces(self, upper: float):
        """Yield (lo, hi, segment) covering [0, upper], skipping empty spans."""
        edges = [0.0] + [b for b in self.breakpoints if b < upper] + [upper]
        for i in range(len(edges) - 1):
            lo, hi = edges[i], edges[i + 1]
            if hi > lo:
                yield lo, hi, self.segments[i]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, init=False, eq=False)
class TabulatedFunction:
    """Samples (xs, values) with xs[0] == 0, strictly increasing.

    Calls interpolate linearly; evaluation outside [0, xs[-1]] is a
    DomainError rather than a silent clamp.  ``x_max`` is xs[-1] as a
    float, ``step`` is x_max / (size - 1), the node spacing of a
    uniform table, and ``slopes`` is diff(values) / diff(xs), the slope
    of each cell; all are read-only like the samples.
    """

    xs: np.ndarray
    values: np.ndarray

    def __init__(self, xs, values):
        xs = _readonly(xs)
        values = _readonly(values)
        if xs.ndim != 1 or values.ndim != 1 or xs.size != values.size:
            raise DomainError("xs and values must be 1-d arrays of equal length")
        if xs.size < 2:
            raise DomainError("need at least two samples")
        if xs[0] != 0.0:
            raise DomainError(f"grid must start at 0, got xs[0] = {float(xs[0])!r}")
        dx = np.diff(xs)
        if not np.all(dx > 0.0):
            raise DomainError("grid must be strictly increasing")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(values))):
            raise DomainError("samples must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "x_max", float(xs[-1]))
        object.__setattr__(self, "step", self.x_max / (xs.size - 1))
        object.__setattr__(self, "slopes", _readonly(np.diff(values) / dx))

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        outside = (xs < 0.0) | (xs > self.xs[-1] * (1.0 + 1e-12) + 1e-300)
        if outside.any():
            bad = float(xs[outside].flat[0])
            raise DomainError(
                f"evaluation point {bad!r} outside tabulated range "
                f"[0, {self.x_max!r}]"
            )
        out = np.interp(xs, self.xs, self.values)
        return float(out) if np.isscalar(x) else out


FunctionSpec = Union[PowerSum, PiecewisePowerSum, TabulatedFunction]
