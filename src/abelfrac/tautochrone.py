"""Mechanics layer: from arc length to a plane curve, and back to time.

Coordinates: x is height above the curve's lowest point A (the bead's
destination), y is horizontal displacement from A.  A curve is described
by its arc length s(x) measured from A; since ds^2 = dx^2 + dy^2,

    y(x) = integral_0^x sqrt(s'(u)**2 - 1) du,

which requires s'(u) >= 1 everywhere (arc length cannot grow slower than
height).  A bead released at height a slides with speed
v = sqrt(2 g (a - x)); the default g = 1/2 makes v = sqrt(a - x), so
descent times equal the bare kernel integral of s'.

``simulate_descent`` is deliberately independent of the integral
machinery: it integrates the equation of motion in time along the sampled
curve, so agreement with ``descent_time_integral`` is a genuine
cross-check of the whole pipeline rather than an identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .abel_solver import forward
from .errors import ConvergenceError, DomainError, InfeasibleCurveError
from .functions import (
    FunctionSpec,
    PiecewisePowerSum,
    PowerSum,
    TabulatedFunction,
    _eval_terms,
)
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    left_weighted_integral,
    smooth_integral,
)

__all__ = [
    "CurveSamples",
    "DescentResult",
    "reconstruct_curve",
    "descent_time_integral",
    "simulate_descent",
]

#: slack on the s' >= 1 feasibility bound (admits exact vertical drop)
FEASIBILITY_SLACK = 1e-9
#: per-cell tolerance on |ds^2 - dx^2 - dy^2| relative to ds^2
CHORD_RTOL = 0.05

# per-cell quadrature for curve reconstruction: integrands are smooth on
# a cell, so small rules converge immediately; tolerances much tighter
# than the default because thousands of cells accumulate
_CELL_CFG = QuadratureConfig(node_count=16, abs_tol=1e-14, rel_tol=1e-11)


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on first use: scipy.integrate
    and scipy.interpolate take about 0.4 s to import and only the descent
    needs them."""
    from scipy.integrate import solve_ivp as _solve_ivp

    return _solve_ivp(*args, **kwargs)


def _readonly(a) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, init=False, eq=False)
class CurveSamples:
    """A sampled plane curve: heights xs, arc length s, horizontal y.

    Invariants checked at construction: grids start at 0, s and y vanish
    there, per-cell arc growth dominates height growth (feasibility), and
    the discrete Pythagorean relation |ds^2 - dx^2 - dy^2| <= 0.05 ds^2
    holds cell by cell.
    """

    xs: np.ndarray
    s: np.ndarray
    y: np.ndarray
    g: float

    def __init__(self, xs, s, y, g: float = 0.5):
        xs = _readonly(xs)
        s = _readonly(s)
        y = _readonly(y)
        g = float(g)
        if not (xs.ndim == s.ndim == y.ndim == 1 and xs.size == s.size == y.size):
            raise DomainError("xs, s, y must be 1-d arrays of equal length")
        if xs.size < 2:
            raise DomainError("need at least two samples")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(s)) and np.all(np.isfinite(y))):
            raise DomainError("curve samples must be finite")
        if xs[0] != 0.0 or not np.all(np.diff(xs) > 0.0):
            raise DomainError("heights must start at 0 and increase strictly")
        scale = max(1.0, float(abs(s[-1])))
        if abs(s[0]) > 1e-12 * scale or abs(y[0]) > 1e-12 * scale:
            raise DomainError("arc length and horizontal coordinate must vanish at 0")
        if not (math.isfinite(g) and g > 0.0):
            raise DomainError(f"gravity must be finite and > 0, got {g!r}")
        dx = np.diff(xs)
        ds = np.diff(s)
        dy = np.diff(y)
        ratio = ds / dx
        bad = ratio < 1.0 - FEASIBILITY_SLACK
        if bad.any():
            i = int(np.argmax(bad))
            raise InfeasibleCurveError(
                float(0.5 * (xs[i] + xs[i + 1])), float(ratio[i])
            )
        residual = np.abs(ds**2 - dx**2 - dy**2)
        off = residual > CHORD_RTOL * ds**2
        if off.any():
            i = int(np.argmax(off))
            raise DomainError(
                f"cell [{xs[i]!r}, {xs[i+1]!r}] violates ds^2 = dx^2 + dy^2 "
                f"(residual {residual[i]:.3e} vs ds^2 {ds[i]**2:.3e})"
            )
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "g", g)

    @property
    def x_max(self) -> float:
        return float(self.xs[-1])


@dataclass(frozen=True)
class DescentResult:
    """Outcome of one simulated descent.

    a: release height; T: arrival time at the bottom; steps: accepted
    integrator steps (the analytic start-up step included); max_residual:
    worst disagreement, relative to a, between monotone-cubic and linear
    readings of the sampled arc along the trajectory -- an indicator of
    how much the curve's sampling resolution could move the answer.
    """

    a: float
    T: float
    steps: int
    max_residual: float

    def __post_init__(self):
        if self.a < 0.0 or not math.isfinite(self.a):
            raise DomainError(f"release height must be >= 0, got {self.a!r}")
        if self.a == 0.0:
            if self.T != 0.0:
                raise DomainError("zero release height must give zero time")
        elif not (math.isfinite(self.T) and self.T > 0.0):
            raise DomainError(f"descent time must be > 0, got {self.T!r}")


def _segment_slope_terms(s: FunctionSpec):
    """(lo, hi, derivative terms) spans covering the domain, hi = inf on
    the last span."""
    if isinstance(s, PowerSum):
        return [(0.0, math.inf, s.derivative_terms())]
    if isinstance(s, PiecewisePowerSum):
        edges = (0.0,) + s.breakpoints + (math.inf,)
        return [
            (edges[i], edges[i + 1], seg.derivative_terms())
            for i, seg in enumerate(s.segments)
        ]
    raise DomainError(f"unsupported arc-length type {type(s).__name__}")


def _slope_samples(spans, ts: np.ndarray) -> np.ndarray:
    out = np.empty_like(ts)
    for lo, hi, terms in spans:
        mask = (ts >= lo) & (ts < hi) if hi != math.inf else ts >= lo
        if mask.any():
            out[mask] = _eval_terms(terms, ts[mask]) if terms else 0.0
    return out


def _feasibility_scan(spans, xs: np.ndarray) -> None:
    """Sample s' on a refinement of the output grid (plus breakpoints)
    and reject slopes below 1."""
    probes = [xs]
    for k in range(1, 4):
        probes.append(xs[:-1] + np.diff(xs) * (k / 4.0))
    for lo, _hi, _terms in spans:
        if 0.0 < lo < xs[-1]:
            probes.append(np.array([lo]))
    ts = np.unique(np.concatenate(probes))
    with np.errstate(divide="ignore"):
        slopes = _slope_samples(spans, ts)
    bad = slopes < 1.0 - FEASIBILITY_SLACK
    if bad.any():
        i = int(np.argmax(bad))
        raise InfeasibleCurveError(float(ts[i]), float(slopes[i]))


def _arc_slope(terms):
    """t -> sqrt(s'(t)^2 - 1) for one span's derivative terms."""

    def w(t):
        v = _eval_terms(terms, t)
        return np.sqrt(np.maximum(v * v - 1.0, 0.0))

    return w


def _horizontal_increments(spans, xs: np.ndarray) -> np.ndarray:
    """integral of sqrt(s'(t)^2 - 1) over every cell [xs[i], xs[i+1]].

    Cells are clipped to each span and each span's pieces go through one
    array call of smooth_integral, each cell doubling to its own
    tolerance.  When s' blows up at 0 the cell starting there gets a
    weighted end rule instead.  A cell's pieces are summed in span order.
    """
    lo, hi = xs[:-1], xs[1:]
    dy = np.zeros(lo.size)
    for seg_lo, seg_hi, terms in spans:
        a = np.maximum(lo, seg_lo)
        b = np.minimum(hi, seg_hi)
        cells = np.flatnonzero(b > a)
        if cells.size == 0:
            continue
        w = _arc_slope(terms)
        le = min((e for _, e in terms), default=0.0)
        if a[cells[0]] == 0.0 and le < 0.0:
            # s' ~ t**le (unbounded): w inherits the power; hand it to the
            # Jacobi weight and integrate the bounded remainder
            first, cells = cells[0], cells[1:]
            dy[first] += left_weighted_integral(
                lambda t: w(t) * t ** (-le), b[first], le, _CELL_CFG
            )
        dy[cells] += smooth_integral(w, a[cells], b[cells], _CELL_CFG)
    return dy


def reconstruct_curve(
    s: FunctionSpec,
    x_max: float,
    grid_points: int,
    g: float = 0.5,
) -> CurveSamples:
    """Build the curve realizing arc length s(x) on a uniform grid.

    y is the running sum of the cell integrals of sqrt(s'**2 - 1), all
    cells of a span evaluated in one vectorised pass; the start
    singularity of s' (e.g. the x**(-1/2) of s = k sqrt(x)) is
    integrable and handled by a weighted end rule.  Raises
    InfeasibleCurveError where s' < 1 - 1e-9.
    """
    x_max = float(x_max)
    if not (math.isfinite(x_max) and x_max > 0.0):
        raise DomainError(f"x_max must be finite and > 0, got {x_max!r}")
    if grid_points < 2:
        raise DomainError(f"need at least 2 grid points, got {grid_points!r}")
    s0 = float(s(0.0))
    if abs(s0) > 1e-12:
        raise DomainError(f"arc length must vanish at 0, got s(0) = {s0!r}")

    xs = np.linspace(0.0, x_max, int(grid_points))

    if isinstance(s, TabulatedFunction):
        return _reconstruct_tabulated(s, xs, g)

    spans = _segment_slope_terms(s)
    _feasibility_scan(spans, xs)
    y = np.concatenate(([0.0], np.cumsum(_horizontal_increments(spans, xs))))
    return CurveSamples(xs, s(xs), y, g)


def _reconstruct_tabulated(s: TabulatedFunction, xs: np.ndarray, g: float) -> CurveSamples:
    # data-limited path: slopes from finite differences at the data
    # nodes, y by trapezoid on the data grid, then both resampled
    if xs[-1] > s.x_max * (1.0 + 1e-12):
        raise DomainError(
            f"x_max {xs[-1]!r} exceeds tabulated range {s.x_max!r}"
        )
    slopes = s.derivative_values()
    bad = slopes < 1.0 - FEASIBILITY_SLACK
    if bad.any():
        i = int(np.argmax(bad))
        raise InfeasibleCurveError(float(s.xs[i]), float(slopes[i]))
    w = np.sqrt(np.maximum(slopes**2 - 1.0, 0.0))
    y_data = np.concatenate(
        ([0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(s.xs)))
    )
    return CurveSamples(
        xs, s(xs), np.interp(xs, s.xs, y_data), g
    )


def descent_time_integral(
    s: FunctionSpec,
    a: float,
    g: float = 0.5,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """T(a) = (1/sqrt(2g)) integral_0^a s'(x) (a-x)**(-1/2) dx.

    With the default g = 1/2 this is exactly the order-1/2 forward kernel
    integral of s.
    """
    if not (math.isfinite(g) and g > 0.0):
        raise DomainError(f"gravity must be finite and > 0, got {g!r}")
    return forward(s, 0.5, a, cfg) / math.sqrt(2.0 * g)


def simulate_descent(
    curve: CurveSamples,
    a: float,
    rel_tol: float = 1e-9,
) -> DescentResult:
    """Integrate the bead's equation of motion along the sampled curve.

    State is the arc distance travelled from release.  Time is integrated
    in gravity-free units (speed sqrt(a - x)) and the result divided by
    sqrt(2g) once at the end, so rescaling g rescales T exactly.  The
    v = 0 release singularity is crossed with the closed-form solution on
    a locally straight arc; adaptive stepping with an arrival event does
    the rest.
    """
    a = float(a)
    if not (math.isfinite(a) and a >= 0.0):
        raise DomainError(f"release height must be >= 0, got {a!r}")
    if a > curve.x_max * (1.0 + 1e-12):
        raise DomainError(
            f"release height {a!r} outside sampled range [0, {curve.x_max!r}]"
        )
    if a == 0.0:
        return DescentResult(0.0, 0.0, 0, 0.0)
    a = min(a, curve.x_max)

    from scipy.interpolate import PchipInterpolator

    s_of_x = PchipInterpolator(curve.xs, curve.s)
    # drop samples within float noise of a: a near-duplicate end node would
    # give the arc interpolant a degenerate final cell
    inside = curve.xs < a - 1e-12 * curve.x_max
    x_nodes = np.append(curve.xs[inside], a)
    s_nodes = np.append(curve.s[inside], float(s_of_x(a)))
    L = float(s_nodes[-1])
    if x_nodes.size < 2:
        raise DomainError("release height too close to 0 for the sampled grid")
    x_of_s = PchipInterpolator(s_nodes, x_nodes)

    # analytic start: with x ~ a - rho/s'(a), v = sqrt(rho/s'(a)) and
    # rho(tau) = tau^2 / (4 s'(a))
    slope_a = float(s_of_x.derivative()(a))
    rho0 = 1e-4 * L
    tau0 = 2.0 * math.sqrt(rho0 * slope_a)

    def rhs(_tau, state):
        sigma = min(max(L - state[0], 0.0), L)
        return [math.sqrt(max(a - float(x_of_s(sigma)), 0.0))]

    def arrived(_tau, state):
        return state[0] - L

    arrived.terminal = True
    arrived.direction = 1.0

    tau_budget = tau0 + 101.0 * math.sqrt(max(slope_a, 1.0) * L) + 1.0
    sol = solve_ivp(
        rhs,
        (0.0, tau_budget),
        [rho0],
        method="RK45",
        rtol=float(rel_tol),
        atol=1e-12 * L,
        events=arrived,
    )
    if sol.status == -1:
        raise ConvergenceError(f"descent integration failed: {sol.message}")
    if not sol.t_events[0].size:
        raise ConvergenceError(
            "bead failed to reach the bottom within the time budget"
        )
    tau_event = float(sol.t_events[0][0])

    # discretization indicator along the visited states
    rhos = np.clip(np.append(sol.y[0], L), 0.0, L)
    sigmas = L - rhos
    x_cubic = np.asarray(x_of_s(sigmas))
    x_linear = np.interp(sigmas, s_nodes, x_nodes)
    max_residual = float(np.max(np.abs(x_cubic - x_linear)) / a)

    T = (tau0 + tau_event) / math.sqrt(2.0 * curve.g)
    return DescentResult(a, T, int(sol.t.size), max_residual)
