"""Mechanics layer: from arc length to a plane curve, and back to time.

Coordinates: x is height above the curve's lowest point A (the bead's
destination), y is horizontal displacement from A.  A curve is described
by its arc length s(x) measured from A; since ds^2 = dx^2 + dy^2,

    y(x) = integral_0^x sqrt(s'(u)**2 - 1) du,

which requires s'(u) >= 1 everywhere (arc length cannot grow slower than
height).  A bead released at height a slides with speed
v = sqrt(2 g (a - x)); the default g = 1/2 makes v = sqrt(a - x), so
descent times equal the bare kernel integral of s'.

``simulate_descent`` is deliberately independent of
``descent_time_integral``: it times the bead along the sampled curve, by
quadrature of the separated equation of motion
T = integral_0^L dsigma / sqrt(2g (a - x(sigma))) on the monotone cubic
through the samples, never touching the analytic s' or the kernel
integral, so agreement between the two is a genuine cross-check of the
whole pipeline rather than an identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .abel_solver import forward
from .errors import DomainError, EvaluationError, InfeasibleCurveError
from .functions import (
    FunctionSpec,
    PiecewisePowerSum,
    PowerSum,
    TabulatedFunction,
    eval_terms,
)
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    check_count,
    check_point,
    indexed_smooth_integral,
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

# the descent's cell integrals are positive, so its relative tolerance
# alone decides when a cell has converged
_TINY = float(np.finfo(float).tiny)


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on first use.  Nothing in the
    package calls it; benchmarks/tracer.py wraps it by name."""
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
                f"cell [{float(xs[i])!r}, {float(xs[i+1])!r}] violates "
                f"ds^2 = dx^2 + dy^2 (residual {residual[i]:.3e} vs ds^2 {ds[i]**2:.3e})"
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

    a: release height; T: arrival time at the bottom; steps: curve cells
    crossed on the way down; max_residual: worst disagreement, relative
    to a, between the monotone-cubic and linear readings of x(sigma) at
    the midpoints of those cells -- an indicator of how much the curve's
    sampling resolution could move the answer.
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
    if not isinstance(s, (PowerSum, PiecewisePowerSum)):
        raise DomainError(f"unsupported arc-length type {type(s).__name__}")
    return [(lo, hi, seg.derivative_terms()) for lo, hi, seg in s.pieces(math.inf)]


def _slope_samples(spans, ts: np.ndarray) -> np.ndarray:
    out = np.empty_like(ts)
    for lo, hi, terms in spans:
        mask = (ts >= lo) & (ts < hi) if hi != math.inf else ts >= lo
        if mask.any():
            out[mask] = eval_terms(terms, ts[mask]) if terms else 0.0
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
    # np.unique would do, but its first call imports numpy.ma
    ts = np.sort(np.concatenate(probes))
    ts = ts[np.concatenate(([True], ts[1:] != ts[:-1]))]
    # s' may be +inf at 0, and inf - inf there when two unbounded terms
    # differ in sign: the most negative power decides that limit.  A NaN
    # anywhere else (terms overflowing in opposite signs) is reported.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        slopes = _slope_samples(spans, ts)
    if ts[0] == 0.0 and np.isnan(slopes[0]):
        terms = spans[0][2]
        le = min(e for _, e in terms)
        lead = sum(c for c, e in terms if e == le)
        if le < 0.0 and lead != 0.0:
            slopes[0] = math.copysign(math.inf, lead)
    nan = np.isnan(slopes)
    if nan.any():
        t = float(ts[nan][0])
        raise EvaluationError(f"arc-length slope s' is NaN at t = {t!r}", t)
    bad = slopes < 1.0 - FEASIBILITY_SLACK
    if bad.any():
        i = int(np.argmax(bad))
        raise InfeasibleCurveError(float(ts[i]), float(slopes[i]))


def _arc_slope(terms):
    """t -> sqrt(s'(t)^2 - 1) for one span's derivative terms."""

    def w(t):
        v = eval_terms(terms, t)
        return np.sqrt(np.maximum(v * v - 1.0, 0.0))

    return w


def _lattice(terms, cap: int = 8) -> int | None:
    """The smallest m <= cap (m >= 2) with every exponent a multiple of
    1/m, or None."""
    for m in range(2, cap + 1):
        if all(abs(m * e - round(m * e)) <= 1e-12 for _, e in terms):
            return m
    return None


def _horizontal_increments(spans, xs: np.ndarray) -> np.ndarray:
    """integral of sqrt(s'(t)^2 - 1) over every cell [xs[i], xs[i+1]].

    Cells are clipped to each span and each span's pieces go through one
    array call of smooth_integral, each cell doubling to its own
    tolerance.  When s' blows up at 0 the cell starting there is
    integrated on its own: in u = t**(1/m) when every exponent of s' is a
    multiple of 1/m for some m <= 8 (the smallest such m), by a weighted
    end rule otherwise.  A cell's pieces are summed in span order.
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
            first, cells = cells[0], cells[1:]
            m = _lattice(terms)
            if m is not None:
                # s' in powers of t**(1/m): w(u**m) m u**(m-1) is smooth in u
                root = math.sqrt(b[first]) if m == 2 else b[first] ** (1.0 / m)
                dy[first] += smooth_integral(
                    lambda u: w(u**m) * m * u ** (m - 1), 0.0, root, _CELL_CFG
                )
            else:
                # s' ~ t**le (unbounded): w inherits the power; hand it to
                # the Jacobi weight and integrate the bounded remainder
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
    integrable and handled on the first cell alone.  A tabulated s is
    its linear interpolant, so its curve is the polygon through the
    samples, with no finite differences.  Raises InfeasibleCurveError
    where s' (a tabulated s: a secant) < 1 - 1e-9.
    """
    x_max = check_point(x_max, "x_max")
    grid_points = check_count(grid_points, "grid points")
    s0 = float(s(0.0))
    if abs(s0) > 1e-12:
        raise DomainError(f"arc length must vanish at 0, got s(0) = {s0!r}")

    xs = np.linspace(0.0, x_max, grid_points)

    if isinstance(s, TabulatedFunction):
        return _reconstruct_tabulated(s, xs, g)

    spans = _segment_slope_terms(s)
    _feasibility_scan(spans, xs)
    y = np.concatenate(([0.0], np.cumsum(_horizontal_increments(spans, xs))))
    return CurveSamples(xs, s(xs), y, g)


def _reconstruct_tabulated(s: TabulatedFunction, xs: np.ndarray, g: float) -> CurveSamples:
    """The polygon through the samples, read at xs: each data cell up to
    xs[-1] is a straight segment running dy = sqrt(ds^2 - dx^2)."""
    if xs[-1] > s.x_max * (1.0 + 1e-12):
        raise DomainError(
            f"x_max {float(xs[-1])!r} exceeds tabulated range {s.x_max!r}"
        )
    n = int(np.searchsorted(s.xs, xs[-1])) + 1  # through the first node >= xs[-1]
    x_data = s.xs[:n]
    dx, ds = np.diff(x_data), np.diff(s.values[:n])
    secant = s.slopes[: n - 1]
    bad = secant < 1.0 - FEASIBILITY_SLACK
    if bad.any():
        i = int(np.argmax(bad))
        raise InfeasibleCurveError(float(0.5 * (x_data[i] + x_data[i + 1])), float(secant[i]))
    y_data = np.concatenate(([0.0], np.cumsum(np.sqrt(np.maximum(ds**2 - dx**2, 0.0)))))
    return CurveSamples(xs, s(xs), np.interp(xs, x_data, y_data), g)


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


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    # one-sided three-point slope, kept from overshooting the end cell
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Node slopes of the monotone cubic through (x, y), as scipy's
    PchipInterpolator takes them (Fritsch & Carlson, SIAM J. Numer. Anal.
    17, 1980): a weighted harmonic mean of the neighbouring secants inside,
    0 where a secant vanishes or changes sign, a shape-preserving one-sided
    rule at the ends, and the secant itself for two nodes."""
    h = np.diff(x)
    m = np.diff(y) / h
    if m.size == 1:
        return np.array([m[0], m[0]])
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    mono = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0) & (m[:-1] != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        inner = np.where(mono, 1.0 / whmean, 0.0)
    return np.concatenate((
        [_pchip_end_slope(h[0], h[1], m[0], m[1])],
        inner,
        [_pchip_end_slope(h[-1], h[-2], m[-1], m[-2])],
    ))


def simulate_descent(
    curve: CurveSamples,
    a: float,
    rel_tol: float = 1e-9,
) -> DescentResult:
    """Time the bead's slide from height a along the sampled curve.

    The arc is read as the monotone cubic x(sigma) through the samples
    (clipped at a, with s(a) from the monotone cubic s(x)), and the time
    is T = integral_0^L dsigma / sqrt(2g (a - x(sigma))), L = s(a): the
    equation of motion with its variables separated.  Substituting
    sigma = L - r**2 makes the integrand 2r / sqrt(a - x) smooth on every
    cell, the release point included; all cells go through one array
    Gauss-Legendre call, each doubling its rule until it meets rel_tol, and
    every row of nodes reads its own cell's cubic, so no node searches for
    its cell.
    T is integrated in gravity-free units (speed sqrt(a - x)) and divided
    by sqrt(2g) once at the end, so rescaling g rescales T exactly.
    """
    a = check_point(a, "release height", at_zero=True)
    if a > curve.x_max * (1.0 + 1e-12):
        raise DomainError(
            f"release height {a!r} outside sampled range [0, {curve.x_max!r}]"
        )
    if a == 0.0:
        return DescentResult(0.0, 0.0, 0, 0.0)
    a = min(a, curve.x_max)
    cfg = QuadratureConfig(node_count=8, abs_tol=_TINY, rel_tol=rel_tol)

    # drop samples within float noise of a: a near-duplicate end node would
    # give the arc interpolant a degenerate final cell
    inside = curve.xs < a - 1e-12 * curve.x_max
    x_nodes = np.append(curve.xs[inside], a)
    if x_nodes.size < 2:
        raise DomainError("release height too close to 0 for the sampled grid")
    s_nodes = np.append(curve.s[inside], _s_at(curve, a))
    L = float(s_nodes[-1])

    # cell k is sigma in [s_k, s_k+1], i.e. r in [sqrt(rho_k), sqrt(L - s_k)]
    # with rho_k = L - s_k+1; on it a - x = drop_k + u (d_k+1 - u (c2 + u c3))
    # in u = s_k+1 - sigma = r**2 - rho_k, so on the last cell
    # (drop = rho = 0) it is r**2 times a positive factor and never a
    # difference of nearly equal numbers
    d = _pchip_slopes(s_nodes, x_nodes)
    c2, c3 = _cubic_from_right(s_nodes, x_nodes, d)
    drop = a - x_nodes[1:]
    rho = L - s_nodes[1:]

    def integrand(r, k):
        # each row of r holds one cell's nodes; k is the column of cells
        u = r * r - rho[k]
        return 2.0 * r / np.sqrt(drop[k] + u * (d[k + 1] - u * (c2[k] + u * c3[k])))

    tau = indexed_smooth_integral(integrand, np.sqrt(rho), np.sqrt(L - s_nodes[:-1]), cfg)
    # cubic against linear arc at each cell's midpoint: h |d_k - d_k+1| / 8
    h = np.diff(s_nodes)
    max_residual = float(np.max(h * np.abs(np.diff(d))) / (8.0 * a))
    T = float(np.sum(tau)) / math.sqrt(2.0 * curve.g)
    return DescentResult(a, T, int(h.size), max_residual)


def _cubic_from_right(x: np.ndarray, y: np.ndarray, d: np.ndarray):
    """Per-cell (c2, c3) of the cubic through nodes (x, y) with slopes d,
    in the distance u = x_k+1 - t to the cell's right end:
    y(t) = y_k+1 - u (d_k+1 - u (c2 + u c3))."""
    h = np.diff(x)
    secant = np.diff(y) / h
    return (2.0 * d[1:] + d[:-1] - 3.0 * secant) / h, (2.0 * secant - d[:-1] - d[1:]) / h**2


def _s_at(curve: CurveSamples, a: float) -> float:
    """s(a) on the monotone cubic through the curve's (xs, s) samples,
    0 < a <= x_max."""
    xs, s = curve.xs, curve.s
    k = int(np.searchsorted(xs, a)) - 1
    # the slopes at nodes k and k+1 read only their neighbours (the end
    # rule, two nodes inward, at a table end), so the window of nodes
    # k-1 .. k+2 gives the whole table's values
    lo = max(k - 1, 0)
    d = _pchip_slopes(xs[lo : k + 3], s[lo : k + 3])[k - lo : k - lo + 2]
    c2, c3 = _cubic_from_right(xs[k : k + 2], s[k : k + 2], d)
    u = xs[k + 1] - a
    return float(s[k + 1] - u * (d[1] - u * (c2[0] + u * c3[0])))
