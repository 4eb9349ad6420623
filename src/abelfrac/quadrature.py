"""Quadrature for weakly singular kernel integrals.

Everything here evaluates integrals of the form

    K[f](x) = integral_0^x f(t) * (x - t)**(p - 1) dt,    0 < p < 1,

whose kernel blows up (integrably) at t = x.  One Gauss-Jacobi estimator,
``_jacobi_integral``, evaluates

    integral_a^b g(t) * (b - t)**(p - 1) * (t - a)**le dt

with the weight (1 - xi)**(p - 1) (1 + xi)**le absorbing both end powers,
so smooth g converges spectrally and the rule is exact for polynomial g up
to the rule degree.  ``singular_integral`` is its case a = 0,
``left_weighted_integral`` the case p = 1, and ``smooth_integral`` the
Gauss-Legendre case p = 1, le = 0.  Node counts double from
``node_count`` until two successive estimates agree to tolerance, capped
at MAX_NODES; an estimate that is not finite raises ConvergenceError.

``kernel_route`` picks the route of each representation of f, for
``singular_integral``, the solvers and ``rl_integral`` alike, and
``derivative_route`` that of K[f'] (f' in place of f) for
``derivative_kernel``, ``caputo_derivative`` and ``forward``.  A power sum
on [0, x] is not sampled: the nodes are x * u_i with u = (1 + xi)/2, so
the n-node estimate of sum(c t**d) is exactly
(x/2)**(p + le) * sum(c x**d M_n(d)) with the rule moments
M_n(d) = sum_i w_i u_i**d, doubled as the sampled route doubles.  A
piecewise power sum is its first segment on all of [0, x] plus, at each
breakpoint lo below x, the jump to the next segment on [lo, x]; a
polynomial jump, Taylor-shifted to t - lo, is a power sum on [0, x - lo]
and comes from the moments too.  There only a jump with a fractional
power is sampled (on [lo, x], where it is smooth), and a point whose
parts cancel is summed span by span instead.  One function,
``_power_kernel``, does all of this for a float and for an array of
limits.  Only x**d and the scale depend on x, so two bounded caches
hold the rest: the moments of a whole sum per (n, alpha, le, exponents)
(``_moments``), and per (f, le, derivative, p, config, MAX_NODES) the
route of f (``_route``): its segments' terms, the first less its leading
power, and the jumps at its breakpoints, with the rows
(c, d, M_n(d), M_2n(d)) of the first two rules of the first segment and
of every polynomial jump, and p + le.  A call then makes one cache
lookup, the span-by-span sum included.  A float takes both first
estimates of each part in one pass over its rows, a few multiply-adds
each, left to right, and doubles on from them in the same function
(``_rows_integral``); an array takes each part in numpy passes over the
grid (``_power_sum_integral``).
Tabulated f is taken piecewise linear on its own grid and the kernel
moments of every cell are integrated in closed form (product
integration), which is exact for the interpolant; each point's cell sum
is its own, whatever grid it is in.  One function, ``table_route``, takes
K[f] and K[f'] of a table alike: on a uniform table the pair of both at
every node is cached per (table, p) (``_table_nodes``), a float at a
node reads it with one lookup and one index, the node points of a grid
read it through one mask, and a grid's other points take the cell sum
(K[f]) or the three-point rule (K[f']) in one call, a float off the
nodes being its one-point grid.  Other callables and the mechanics layer
are sampled.

Every route also takes 1-d arrays of limits and evaluates the whole grid
in one vectorised pass; the sampled and tabulated routes take a float as
a one-point grid.  Gauss-Jacobi is affine-invariant, so the nodes of
every interval are a + (b - a)(1 + xi)/2 and one matrix product gives the
integral over all of them; each point still stops doubling at its own
tolerance.  Each public entry of this module, fracops and abel_solver
checks its arguments once, with the ``check_*`` functions below, and the
routes behind it check nothing.  Every limit, a float or in an array,
must be a finite number: nan and +-inf are a DomainError.

The rules are built here, in numpy; no scipy is imported.  Node k is
x = cos(theta_k), and each half of [-1, 1] is found from its own end (the
half at -1 through P_n^(a,b)(-x) = (-1)^n P_n^(b,a)(x)), so 1 -/+ x =
2 sin^2(theta/2) keeps its relative digits near either end.  From
Gatteschi's asymptotic angles, Halley steps on the three-term recurrence
converge in 3-4 vectorised passes; the recurrence is carried as
P_k = r_k P_k-1 + D_k with r_k = P_k(1) / P_k-1(1), so D_k -> 0 at the end
and nothing cancels there.  The weights are 1 / (dP_n/dtheta)^2, i.e.
1 / ((1 - x^2) P_n'(x)^2) (Golub & Welsch, Math. Comp. 23, 1969),
renormalised to the exact total 2^(a+b+1) B(a+1, b+1).  For exponents
above about 11 the asymptotic angles can miss a root; the eigenvalues of
the Jacobi matrix then give the start (Hale & Townsend, SIAM J. Sci.
Comput. 35, 2013, survey both routes).  Legendre is a = b = 0.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, EvaluationError
from .functions import (
    PiecewisePowerSum,
    PowerSum,
    TabulatedFunction,
    as_order,
    eval_terms,
)

__all__ = [
    "QuadratureConfig",
    "DEFAULT_CONFIG",
    "MAX_NODES",
    "singular_integral",
    "derivative_kernel",
    "singular_integral_tabulated",
    "tabulated_derivative_kernel",
    "smooth_integral",
    "left_weighted_integral",
    "graded_mesh",
    "kernel_integral",
]

#: hard cap on nodes per rule during adaptive doubling
MAX_NODES = 4096

#: elements per row block of the grid routines (128 KiB of float64), which
#: keeps their live temporaries near 1 MiB whatever the grid size
_BLOCK = 1 << 14

#: cells per pairwise partial sum of a row of _tabulated_dense
_CHUNK = 256

#: highest degree of a polynomial jump that is Taylor-shifted to its
#: breakpoint; a jump of higher degree is sampled
_SHIFT_DEGREE = 32

#: ln(1e150), the largest log of x**e at which piecewise input is summed
#: as first segment plus jumps (see _overflows)
_LOG_PART_MAX = 345.0

#: relative distance (4 ulps) within which a point counts as node k * h of
#: a uniform table; np.linspace grids meet it at every node
_NODE_RTOL = 4.0 * 2.0**-52


@dataclass(frozen=True)
class QuadratureConfig:
    """Tuning knobs for the adaptive singular quadrature.

    node_count
        starting rule size, at most MAX_NODES; doubled until convergence.
    abs_tol, rel_tol
        doubling stops when successive estimates differ by at most
        ``max(abs_tol, rel_tol * |I|)``.
    """

    node_count: int = 64
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9

    def __post_init__(self):
        n = self.node_count
        if not (isinstance(n, int) and 2 <= n <= MAX_NODES):
            raise DomainError(
                f"node_count must be an int in [2, {MAX_NODES}], got {n!r}"
            )
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise DomainError("tolerances must be positive and finite")
        # the route cache of float calls hashes cfg at every call: hash once
        object.__setattr__(self, "_hash", hash((n, self.abs_tol, self.rel_tol)))

    def __hash__(self) -> int:
        return self._hash


DEFAULT_CONFIG = QuadratureConfig()


@lru_cache(maxsize=256)
def _jacobi_rule(n: int, alpha: float, beta: float):
    """n-point Gauss-Jacobi rule for the weight (1-x)**alpha (1+x)**beta
    on [-1, 1]: nodes ascending, both arrays read-only."""
    return _frozen(*_gauss_jacobi(n, float(alpha), float(beta)))


@lru_cache(maxsize=1024)
def _moments(n: int, alpha: float, beta: float, exps: tuple) -> tuple:
    """The rule moments of a whole power sum: _rule_moment(n, alpha, beta,
    d) for every exponent d in exps, in order."""
    return tuple(_rule_moment(n, alpha, beta, d) for d in exps)


def _rule_moment(n: int, alpha: float, beta: float, e: float) -> float:
    """sum_i w_i u_i**e over the n-node rule of (alpha, beta), its nodes
    mapped to u = (1 + xi)/2 in (0, 1); for e >= 0 at most the total
    weight.  Uncached: :func:`_moments` holds its values."""
    xi, w = _jacobi_rule(n, alpha, beta)
    return float(np.dot(w, (0.5 * (1.0 + xi)) ** e))


def _frozen(x: np.ndarray, w: np.ndarray):
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss_jacobi(n: int, alpha: float, beta: float):
    a1, b1 = 1.0 + alpha, 1.0 + beta
    rho = n + 0.5 * (a1 + b1 - 1.0)
    right = _start_angles(n, rho, alpha, beta)
    m = int(np.count_nonzero(right <= 0.5 * math.pi))
    # a pass that goes astray makes nan or inf, which _halley answers with
    # None, so numpy's warnings would only precede the ConvergenceError
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rule = _halley(n, a1, b1, right[:m], _start_angles(n - m, rho, beta, alpha))
        if rule is None:
            # Golub & Welsch: the nodes are the eigenvalues of the Jacobi matrix,
            # kept off +-1 (angle 0 or nan), where alpha or beta near -1 puts one
            edge = np.nextafter(1.0, 0.0)
            x0 = np.clip(np.linalg.eigvalsh(_jacobi_matrix(n, alpha, beta)), -edge, edge)
            rule = _halley(
                n, a1, b1, np.arccos(x0[x0 >= 0.0][::-1]), np.arccos(-x0[x0 < 0.0])
            )
    if rule is None:
        raise ConvergenceError(
            f"Gauss-Jacobi rule ({n}, {alpha!r}, {beta!r}) did not converge"
        )
    x, w = rule
    log_mu0 = (
        (a1 + b1 - 1.0) * math.log(2.0)
        + math.lgamma(a1) + math.lgamma(b1) - math.lgamma(a1 + b1)
    )
    return x, w * (math.exp(log_mu0) / w.sum())


def _start_angles(count: int, rho: float, alpha: float, beta: float) -> np.ndarray:
    # Gatteschi & Pittaluga: theta_k of P_n^(alpha,beta), rho = n + (alpha+beta+1)/2
    phi = (np.arange(1, count + 1) - 0.25 + 0.5 * alpha) * (math.pi / rho)
    half = np.tan(0.5 * phi)
    return phi + ((0.25 - alpha * alpha) / half - (0.25 - beta * beta) * half) / (
        4.0 * rho * rho
    )


def _jacobi_matrix(n: int, alpha: float, beta: float) -> np.ndarray:
    k = np.arange(1.0, n)
    ab = alpha + beta
    s = 2.0 * np.arange(n) + ab
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (ab + 2.0)
    diag[1:] = (beta * beta - alpha * alpha) / (s[1:] * (s[1:] + 2.0))
    s = s[1:]
    # (k + ab) / (s - 1) is 1 at k = 1, also where both vanish (ab = -1)
    ratio = np.concatenate(([1.0], (k[1:] + ab) / (s[1:] - 1.0)))
    off = np.sqrt(4.0 * k * (k + alpha) * (k + beta) * ratio / (s * s * (s + 1.0)))
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _halley(n: int, a1: float, b1: float, right: np.ndarray, left: np.ndarray):
    """Polish the angles of the nodes in (0, 1] (right, theta_k) and in
    [-1, 0) (left, angles of -x) to the roots of P_n^(a1-1, b1-1); returns
    (x, w) with w = 1 / (dP_n/dtheta)^2 up to one common factor, or None if
    the passes do not settle on n distinct roots.

    Row 0 of each array runs the recurrence of (alpha, beta) in
    u = 1 - cos(theta), row 1 that of (beta, alpha); the shorter half is
    padded with copies of its last angle.  Each row carries
    Q_k = P_k / P_k(1) = Q_k-1 + E_k with E_k -> 0 as u -> 0, so the
    values near each end keep their relative digits.  Every factor is
    written as an integer plus a1 = alpha + 1 or b1 = beta + 1, which
    holds its digits as alpha or beta nears -1.
    """
    m = right.size
    h = max(m, n - m)
    theta = np.empty((2, h))
    for row, half in enumerate((right, left)):
        theta[row, : half.size] = half
        theta[row, half.size :] = half[-1] if half.size else 0.25 * math.pi
    s = a1 + b1
    own = np.array([[a1], [b1]])
    other = own[::-1]
    k = np.arange(2.0, n + 1.0)
    c = 2.0 * (k - 1.0) + s
    # 1 / r_k = P_k-1(1) / P_k(1)
    shrink = k / (k - 1.0 + own)
    a = ((2.0 * k - 3.0 + s) * c / (2.0 * k * (k - 2.0 + s)) * shrink).T[:, :, None]
    g = (
        (k - 1.0) * (k - 2.0 + other) * c
        / (k * (k - 2.0 + s) * (2.0 * (k - 2.0) + s)) * shrink
    ).T[:, :, None]
    cn = 2.0 * (n - 1.0) + s
    lead = 2.0 * (n - 1.0 + other)
    tilt = own - other
    lam = n * (n - 1.0 + s)
    e1 = 0.5 * s / own
    t = np.empty_like(theta)
    for _ in range(12):
        sh = np.sin(0.5 * theta)
        u = 2.0 * sh * sh
        e = -e1 * u
        q = 1.0 + e
        for ak, gk in zip(a, g):
            e *= gk
            np.multiply(u, ak, out=t)
            t *= q
            e -= t
            q += e
        sin = np.sin(theta)
        # dQ/dtheta from the derivative identity; E_n = Q_n - Q_n-1
        dq = -n * (cn * u * q - lead * e) / (cn * sin)
        # the second derivative from the Jacobi equation in theta
        d2q = -dq * ((s - 1.0) * (1.0 - u) + tilt) / sin - lam * q
        step = q * dq / (dq * dq - 0.5 * q * d2q)
        theta -= step
        done = max(
            np.max(np.abs(step[0, :m] / theta[0, :m]), initial=0.0),
            np.max(np.abs(step[1, : n - m] / theta[1, : n - m]), initial=0.0),
        )
        if done <= 1e-14:
            break
    else:
        return None
    x = np.concatenate((-np.cos(theta[1, : n - m]), np.cos(theta[0, :m][::-1])))
    rho = n + 0.5 * (s - 1.0)
    if not (np.all(np.isfinite(x)) and np.all(np.diff(x) > 1e-8 / rho**2)):
        return None
    # w = 1 / (P_n(1) dQ/dtheta)^2, in logs: P_n(1) = binom(n + own - 1, n)
    # differs between the rows and can be huge
    log_p1 = np.log((np.arange(n) + own) / np.arange(1.0, n + 1.0)).sum(
        axis=1, keepdims=True
    )
    log_w = -2.0 * (np.log(np.abs(dq)) + log_p1)
    log_w = np.concatenate((log_w[1, : n - m], log_w[0, :m][::-1]))
    return x, np.exp(log_w - log_w.max())


def _sample(g: Callable, t: np.ndarray, *cells) -> np.ndarray:
    """Evaluate g at the nodes, tolerating scalar-only callables, and
    insist every sample is finite.  Without ``cells`` g gets the nodes as
    one flat 1-d array, as an integrand that is itself a kernel integral
    over 1-d limits needs.  ``cells``, when given, is the column of interval
    indices of t's rows, passed on as g(t, cells); such an integrand must
    take arrays, so its errors are not retried point by point."""
    if cells:
        out = np.asarray(g(t, *cells), dtype=float)
        if out.shape != t.shape:
            raise ValueError(f"indexed integrand gave shape {out.shape}, not {t.shape}")
    else:
        flat = t.ravel()
        try:
            out = np.asarray(g(flat), dtype=float)
        except (TypeError, ValueError):
            out = None
        if out is None or out.shape != flat.shape:
            out = np.array([float(g(ti)) for ti in flat])
        out = out.reshape(t.shape)
    if not np.isfinite(out).all():
        bad = float(t[~np.isfinite(out)][0])
        raise EvaluationError(
            f"integrand returned a non-finite value at t = {bad!r}", bad
        )
    return out


def _stalled(n: int, err: float, tol: float) -> ConvergenceError:
    return ConvergenceError(
        f"quadrature stalled at {n} nodes "
        f"(last change {err:.3e}, tolerance {tol:.3e})"
    )


def _finite(val: np.ndarray, n: int) -> np.ndarray:
    """val, the n-node estimates, if all are finite; else ConvergenceError,
    as doubling cannot mend an integral or scale that overflows a float."""
    if not np.isfinite(val).all():
        raise ConvergenceError(
            f"quadrature estimate at {n} nodes is not finite "
            "(the integral or its scale overflows a float)"
        )
    return val


def _doubling_grid(
    estimate: Callable[[int, np.ndarray], np.ndarray],
    size: int,
    cfg: QuadratureConfig,
) -> np.ndarray:
    """Double the rule from n = node_count at ``size`` points at once;
    estimate(n, idx) returns the n-node estimates at the points idx.  A
    point leaves the pass at the first doubling that meets its own
    tolerance max(abs_tol, rel_tol * |value|); only unconverged points are
    estimated again.  At the MAX_NODES cap a mild shortfall returns the
    last estimate, and disagreement two orders beyond tolerance raises
    ConvergenceError for the first stalled point in grid order.  An
    estimate that is not finite raises ConvergenceError at once
    (:func:`_finite`).  :func:`_power_sum_integral` runs it on a grid of
    a power sum's points, and :func:`_rows_integral` runs the same loop
    for one float point, its first two rules from one pass over the rows.
    """
    n = cfg.node_count
    idx = np.arange(size)
    out = np.empty(size)
    val = _finite(estimate(n, idx), n)
    while n < MAX_NODES:
        n = min(2 * n, MAX_NODES)
        prev, val = val, _finite(estimate(n, idx), n)
        err = np.abs(val - prev)
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(val))
        if n >= MAX_NODES:
            stalled = np.flatnonzero(err > 100.0 * tol)
            if stalled.size:
                k = stalled[0]
                raise _stalled(n, float(err[k]), float(tol[k]))
            break
        done = err <= tol
        out[idx[done]] = val[done]
        idx, val = idx[~done], val[~done]
        if idx.size == 0:
            return out
    out[idx] = val
    return out


# The checks of the public entries: each returns its argument as a float,
# or a 1-d float array, in range, or raises DomainError.  An entry that
# loops over points call one float at a time tests all its float
# arguments at once and calls these only if that test fails.

#: the representations that carry their derivative, for a fast test of
#: type(f); check_integrand admits their subclasses too
DIFFERENTIABLE = frozenset((PowerSum, PiecewisePowerSum, TabulatedFunction))


def check_order(n) -> float:
    """The order n of an operator or solver, as a float in (0, 1)."""
    if type(n) is float and 0.0 < n < 1.0:
        return n
    return float(as_order(n))


def check_exponent(p, closed: bool = False) -> float:
    """A kernel exponent p as a float in (0, 1), or (0, 1] if ``closed``."""
    q = float(p)
    if not (0.0 < q < 1.0 or closed and q == 1.0):
        bound = "<=" if closed else "<"
        raise DomainError(f"kernel exponent must satisfy 0 < p {bound} 1, got {p!r}")
    return q


def check_limits(x, name: str = "limit"):
    """x as a float or a 1-d float array of finite numbers: nan, which
    passes every range check, and +-inf are a DomainError."""
    if isinstance(x, float) or not np.ndim(x):
        x = float(x)
        if not math.isfinite(x):
            raise DomainError(f"{name} must be finite, got {x!r}")
        return x
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DomainError(f"{name} must be a float or a 1-d array, got {x.ndim}-d")
    finite = np.isfinite(x)
    if not finite.all():
        raise DomainError(f"{name} must be finite, got {float(x[~finite][0])!r}")
    return x


def check_points(x, name: str = "x", *, at_zero: bool = True):
    """x as :func:`check_limits` gives it, every point >= 0, or > 0
    unless ``at_zero``."""
    if type(x) is float and 0.0 < x < math.inf:
        return x
    x = check_limits(x, name)
    low = x if isinstance(x, float) else float(np.min(x, initial=math.inf))
    if not (low > 0.0 or at_zero and low == 0.0):
        raise DomainError(f"{name} must be {'>=' if at_zero else '>'} 0, got {low!r}")
    return x


def check_point(x, name: str = "x", *, at_zero: bool = False) -> float:
    """x as a float > 0, or >= 0 if ``at_zero``, for the entries that take
    no array."""
    x = check_points(x, name, at_zero=at_zero)
    if not isinstance(x, float):
        raise DomainError(f"{name} must be a float, got an array of shape {x.shape}")
    return x


def check_count(n, name: str) -> int:
    """A count of points, as an int >= 2."""
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise DomainError(f"need an int of at least 2 {name}, got {n!r}")
    return int(n)


def check_left_exponent(le) -> float:
    """A left_exponent as a finite float > -1."""
    e = float(le)
    if not -1.0 < e < math.inf:
        raise DomainError(f"left_exponent must be > -1, got {le!r}")
    return e


def check_integrand(f, derivative: bool = False):
    """f, callable, or with ``derivative`` a representation that carries
    its derivative."""
    if derivative and not isinstance(f, tuple(DIFFERENTIABLE)):
        raise DomainError(
            "derivative requires a power-sum, piecewise, or tabulated input "
            f"(got {type(f).__name__}); bare callables carry no derivative"
        )
    if not callable(f):
        raise DomainError(f"unsupported integrand type {type(f).__name__}")
    return f


def check_operator(f, n, x, at_zero: bool, derivative: bool, backend: str = "quadrature"):
    """(n, x, exact), the check of rl_integral and caputo_derivative, and
    of forward when its own test fails: the order n, the points x (x = 0
    only ``at_zero``), the backend ('auto', 'exact' or 'quadrature'; only
    a PowerSum has the exact one) and, for quadrature, the integrand
    (:func:`check_integrand`)."""
    if not (type(n) is float and 0.0 < n < 1.0 and type(x) is float and 0.0 < x < math.inf):
        n, x = check_order(n), check_points(x, at_zero=at_zero)
    if backend == "auto":
        exact = isinstance(f, PowerSum)
    elif backend == "quadrature":
        exact = False
    elif backend == "exact":
        if not isinstance(f, PowerSum):
            raise DomainError("exact backend requires a PowerSum input")
        exact = True
    else:
        raise DomainError(f"unknown backend {backend!r}")
    if not (exact or (type(f) in DIFFERENTIABLE if derivative else callable(f))):
        check_integrand(f, derivative)
    return n, x, exact


def _jacobi_integral(
    g: Callable, a, b, p: float, le: float, cfg: QuadratureConfig, indexed: bool = False
):
    """integral_a^b g(t) * (b - t)**(p - 1) * (t - a)**le dt by Gauss-Jacobi
    with doubling; empty or reversed intervals give 0.

    The weight (1 - xi)**(p - 1) (1 + xi)**le on [-1, 1] absorbs both end
    powers: the nodes of [a, b] are a + (b - a)(1 + xi)/2 and the scale is
    ((b - a)/2)**(p + le).  Array limits (1-d, or one of them a float) give
    an array from one matrix product per rule and row block, each point
    doubling to its own tolerance; float limits are the one-point case and
    give a float.  With ``indexed`` g is called as g(t, k): every row of t
    holds the nodes of one interval, and k, a (rows, 1) column, holds the
    intervals' positions in the broadcast limits, so per-interval data can
    be read without searching for the interval of each node.
    """
    if isinstance(a, float) and isinstance(b, float):
        return float(_jacobi_integral(g, np.array([a]), b, p, le, cfg, indexed)[0])
    a, b = np.broadcast_arrays(a, b)
    out = np.zeros(b.shape)
    pos = np.flatnonzero(b > a)
    if pos.size == 0:
        return out
    lo = a[pos]
    half = 0.5 * (b[pos] - lo)
    scale = half ** (p + le)

    def estimate(n: int, idx: np.ndarray) -> np.ndarray:
        xi, w = _jacobi_rule(n, p - 1.0, le)
        sums = np.empty(idx.size)
        rows = max(1, _BLOCK // n)
        for r in range(0, idx.size, rows):
            blk = idx[r : r + rows, None]
            t = lo[blk] + half[blk] * (1.0 + xi)
            y = _sample(g, t, pos[blk]) if indexed else _sample(g, t)
            sums[r : r + rows] = y @ w
        return scale[idx] * sums

    out[pos] = _doubling_grid(estimate, pos.size, cfg)
    return out


def _sampled_terms(terms, x, p: float, le: float, cfg: QuadratureConfig):
    return _jacobi_integral(lambda t: eval_terms(terms, t), 0.0, x, p, le, cfg)


class _Part(NamedTuple):
    """All but x of the moment estimates of one power sum
    sum(c t**d) t**le at order p: its raw (c, d) pairs (every d >= 0),
    their exponents d and the power le of t that the weight carries; the
    rows (c, d, M_n(d), M_m(d)) of its terms at the first two rules,
    n = node_count and m = min(2n, MAX_NODES), or n at the cap; and the
    exponent p + le of the scale (x/2)**(p + le)."""

    terms: tuple
    exps: tuple
    le: float
    rows: tuple
    p: float
    expo: float
    m: int


def _part(terms, le: float, p: float, cfg: QuadratureConfig, cap: int) -> _Part:
    """The _Part of sum(c t**d) t**le under the node cap ``cap``."""
    exps = tuple(d for _, d in terms)
    n = cfg.node_count
    m = min(2 * n, max(cap, n))
    alpha = p - 1.0
    rows = tuple(
        (c, d, mn, mm)
        for (c, d), mn, mm in zip(
            terms, _moments(n, alpha, le, exps), _moments(m, alpha, le, exps)
        )
    )
    return _Part(terms, exps, le, rows, p, p + le, m)


def _rows_integral(part: _Part, x: float, cfg: QuadratureConfig) -> float:
    """A part's integral at a float x > 0: one pass over its rows gives
    both first estimates and sum |c| x**d, then _doubling_grid's loop runs
    from that first pair, where most points stop.  Where some c x**d, that
    sum, the scale or an estimate is not finite the nodes are sampled
    instead, whose estimate raises ConvergenceError if it is not finite
    either, as a one-point array's does.  Every estimate adds its terms
    left to right, so a float call's bits are the same on every Python
    version."""
    first = second = size = 0.0
    try:
        for c, d, mn, mm in part.rows:
            h = c * x**d
            size += abs(h)
            first += h * mn
            second += h * mm
        scale = (0.5 * x) ** part.expo
    except ArithmeticError:  # an overflow, or 0.0 ** -e
        size = math.inf
    if math.isfinite(size):
        n, prev, value = part.m, scale * first, scale * second
        while math.isfinite(prev):
            err = abs(value - prev)
            tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
            if err <= tol:
                break
            if n >= MAX_NODES:
                if err > 100.0 * tol:
                    raise _stalled(n, err, tol)
                break
            n = min(2 * n, MAX_NODES)
            total = 0.0
            for (c, d), mom in zip(
                part.terms, _moments(n, part.p - 1.0, part.le, part.exps)
            ):
                total += c * x**d * mom
            prev, value = value, scale * total
        else:
            value = prev  # not finite: sampled
        if math.isfinite(value):
            return value
    return _sampled_terms(part.terms, x, part.p, part.le, cfg)


def _power_sum_integral(part: _Part, x: np.ndarray, cfg: QuadratureConfig):
    """integral_0^x sum(c * t**d) * t**le * (x - t)**(p - 1) dt for the
    terms, le and p of a _Part at a 1-d array of points x >= 0:
    _jacobi_integral's estimates on [0, x] without sampling.

    The nodes of [0, x] are x * u_i, u = (1 + xi)/2, so the n-node
    estimate is exactly (x/2)**(p + le) * sum(c * x**d * M_n(d)) with the
    rule moments M_n(d) = sum_i w_i u_i**d, cached per sum
    (:func:`_moments`).  Same rules, doubling, tolerances and cap, and an
    estimate that is not finite raises ConvergenceError.  Where some
    |c| x**d is not finite the nodes are sampled instead, so an integrand
    that overflows at a node raises EvaluationError as the sampled route
    does.  It is the grid's part evaluator in :func:`_power_kernel`; a
    float x takes :func:`_rows_integral`.
    """
    terms, exps, le, p = part.terms, part.exps, part.le, part.p
    alpha = p - 1.0
    out = np.zeros(x.shape)
    pos = np.flatnonzero(x > 0.0)
    if pos.size == 0:
        return out
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.array([c for c, _ in terms]) * x[pos, None] ** np.array(exps)
    if not np.isfinite(np.abs(h).sum(axis=1)).all():
        return _sampled_terms(terms, x, p, le, cfg)
    scale = (0.5 * x[pos]) ** part.expo

    def estimates(n: int, idx: np.ndarray) -> np.ndarray:
        return scale[idx] * (h[idx] @ np.array(_moments(n, alpha, le, exps)))

    with np.errstate(over="ignore", invalid="ignore"):
        out[pos] = _doubling_grid(estimates, pos.size, cfg)
    return out


def singular_integral(
    g: Callable,
    x,
    p,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    left_exponent: float = 0.0,
):
    """integral_0^x g(t) * t**left_exponent * (x - t)**(p - 1) dt for a
    callable g, by the route of its representation (:func:`kernel_route`).

    ``left_exponent`` (> -1) factors a known algebraic behaviour of the
    integrand at t = 0 into the weight, so the remaining g should be
    smooth.  A PowerSum factors its own leading power in too and takes
    rule moments.  With the default 0, a PiecewisePowerSum is first
    segment plus jumps.  Both take a float x and an array alike, by
    their cached route (:func:`_power_kernel`).  A TabulatedFunction goes
    through product integration (:func:`singular_integral_tabulated`)
    and takes no left weight (DomainError).  Anything else is sampled at
    the nodes.

    x is a float, or a 1-d array of upper limits evaluated in one pass
    with each value the one a scalar call gives, up to rounding.
    """
    le = left_exponent
    if not (
        type(p) is float and 0.0 < p < 1.0 and type(x) is float and 0.0 < x < math.inf
        and type(le) is float and le == 0.0 and callable(g)
    ):
        p, x, le = check_exponent(p), check_points(x), check_left_exponent(le)
        if le != 0.0 and isinstance(g, TabulatedFunction):
            raise DomainError("a left weight is not supported for tabulated input")
        check_integrand(g)
    return kernel_route(g, x, p, le, cfg)


def kernel_route(g: Callable, x, p: float, le: float, cfg: QuadratureConfig):
    """:func:`singular_integral` with its arguments checked: the one place
    that picks the route of g's representation."""
    if isinstance(g, PowerSum) or le == 0.0 and isinstance(g, PiecewisePowerSum):
        return _power_kernel(g, x, p, le, False, cfg)
    if isinstance(g, TabulatedFunction):
        return table_route(g, x, p, False)
    return _jacobi_integral(g, 0.0, x, p, le, cfg)


def derivative_kernel(f, x, p, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """K[f'](x) = integral_0^x f'(t) (x - t)**(p - 1) dt at a float x or a
    1-d array of points >= 0, by the route of f's representation (for
    power sums :func:`_power_kernel`; for a table :func:`table_route`,
    which reads a uniform table's node cache at its nodes and takes the
    three-point rule at a grid's other points in one call, a float off
    the nodes being the one-point grid); x = 0 gives 0 and a bare
    callable, having no derivative, is a DomainError.  p = 1 is allowed:
    1 - n rounds to it for orders n up to 2**-54, and a table then gives
    f(x) - f(0)."""
    if not (
        type(p) is float and 0.0 < p < 1.0 and type(x) is float and 0.0 < x < math.inf
        and type(f) in DIFFERENTIABLE
    ):
        p, x, f = check_exponent(p, True), check_points(x), check_integrand(f, True)
    return derivative_route(f, x, p, cfg)


def derivative_route(f, x, p: float, cfg: QuadratureConfig):
    """:func:`derivative_kernel` with its arguments checked: the one place
    that picks the route of f's representation; a table takes
    :func:`table_route`."""
    if isinstance(f, TabulatedFunction):
        return table_route(f, x, p, True)
    return _power_kernel(f, x, p, 0.0, True, cfg)


def smooth_integral(
    g: Callable,
    a,
    b,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
):
    """Gauss-Legendre with doubling, for integrands that are regular on
    [a, b].

    a and b may also be 1-d arrays of limits (one broadcast against the
    other): every interval is then evaluated in one pass and an array
    returned, each value the one a scalar call gives; empty or reversed
    intervals give 0.
    """
    return _jacobi_integral(g, check_limits(a), check_limits(b), 1.0, 0.0, cfg)


def indexed_smooth_integral(g: Callable, a, b, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """smooth_integral over 1-d arrays of limits for an integrand g(t, k)
    that reads per-interval data: every row of t holds one interval's
    nodes and k, a (rows, 1) column, holds those intervals' positions in
    the broadcast limits."""
    return _jacobi_integral(g, check_limits(a), check_limits(b), 1.0, 0.0, cfg, indexed=True)


def left_weighted_integral(
    g: Callable,
    b,
    left_exponent: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
):
    """integral_0^b g(t) * t**left_exponent dt, the algebraic endpoint
    factor absorbed into a Gauss-Jacobi weight (no singularity at b).
    b may also be a 1-d array of upper limits; b <= 0 gives 0."""
    le = check_left_exponent(left_exponent)
    return _jacobi_integral(g, 0.0, check_limits(b), 1.0, le, cfg)


def graded_mesh(
    x_max: float,
    points: int,
    exponent: float | None = None,
    *,
    p: float | None = None,
) -> np.ndarray:
    """Mesh on [0, x_max] clustered at 0: x_i = x_max * (i/(points-1))**q.

    With ``exponent=None`` the clustering strength defaults to 2/p for
    kernel exponent p (if given), else 2.  x_max is a finite float > 0,
    points an int >= 2 and the exponent finite and >= 1.
    """
    x_max, points = check_point(x_max, "x_max"), check_count(points, "mesh points")
    if exponent is None:
        exponent = 2.0 / check_exponent(p) if p is not None else 2.0
    if not 1.0 <= exponent < math.inf:
        raise DomainError(f"mesh exponent must be finite and >= 1, got {exponent!r}")
    u = np.linspace(0.0, 1.0, points)
    return x_max * u**exponent


def _cell_moments(B: np.ndarray, A: np.ndarray, p: float):
    """Kernel moments of cells [a, b] below an upper limit x, given
    B = x - a and A = x - b: the integrals of (x-t)**(p-1) and of
    (t - a) * (x-t)**(p-1) over the cell.  A = B = 0 gives zero moments.

    Both come from B**q - A**q at q = p and q = p + 1, taken as
    -B**q * expm1(q * log(A/B)) so that cells far below x (A close to B)
    keep their digits; the logs are shared by the two exponents.
    """
    zero = A <= 0.0
    nz = ~zero
    Bz, Bn = B[zero], B[nz]
    log_ratio = np.log(A[nz]) - np.log(Bn)
    d0, d1 = np.empty_like(B), np.empty_like(B)
    for d, q in ((d0, p), (d1, p + 1.0)):
        d[zero] = Bz**q
        d[nz] = -(Bn**q) * np.expm1(q * log_ratio)
    return d0 / p, (B * d0) / p - d1 / (p + 1.0)


def singular_integral_tabulated(f: TabulatedFunction, x, p):
    """Product integration of the kernel integral for tabulated f.

    f is treated as piecewise linear between its own samples; each cell's
    kernel moments are integrated in closed form, so the only error is the
    linear interpolation of f itself.

    x is a float or a 1-d array of upper limits in [0, x_max], taken by
    :func:`table_route`: points past x_max by rounding alone are x_max,
    x = 0 gives 0 before any cache is read, and points at the nodes of a
    uniform table read the table's node integrals, one Toeplitz
    convolution cached per (table, order) (:func:`_table_nodes`).  The
    other points of a grid get the cell weights in one call, in dense row
    blocks that span only the cells below each row's x
    (:func:`_tabulated_dense`), and a float off the nodes is the one-point
    grid.  Each row is summed on its own, so every grid gives its float
    calls' values, bit for bit.
    """
    return table_route(f, check_points(x), check_exponent(p), False)


def table_route(f: TabulatedFunction, x, p: float, derivative: bool):
    """K[f] of a table, or K[f'] if ``derivative``, at a float x or a 1-d
    array of points >= 0, p checked: the table branch of
    :func:`kernel_route` and :func:`derivative_route`, which
    caputo_derivative also calls directly.  p = 1 (K[f'] only) gives
    f(x) - f(0), x = 0 gives 0, and a point past x_max by rounding alone
    (at most 1e-12 relative) is x_max.  Points within _NODE_RTOL of a
    node of a uniform table read :func:`_table_nodes`: a float with one
    round and one index, a grid through :func:`_node_indices`' mask.  The
    other points of a grid take the rule in one call
    (:func:`_tabulated_dense` for K[f], :func:`_tabulated_slope` for
    K[f']), and a float off the nodes is its one-point grid, so each
    value is its float call's, bit for bit."""
    if p == 1.0:
        return f(x) - f.values.item(0)
    if isinstance(x, float):
        if x == 0.0:
            return 0.0
        if x > f.x_max:
            if x > f.x_max * (1.0 + 1e-12):
                raise _outside(f, x)
            x = f.x_max
        h = f.step
        k = round(x / h)
        if abs(x - k * h) <= _NODE_RTOL * x:
            nodes = _table_nodes(f, p)
            if nodes is not None and (nodes := nodes[derivative]) is not None:
                return nodes.item(k)
        return float((_tabulated_slope if derivative else _tabulated_dense)(f, np.array([x]), p)[0])
    bad = x[x > f.x_max * (1.0 + 1e-12)]
    if bad.size:
        raise _outside(f, float(bad[0]))
    x = np.minimum(x, f.x_max)
    k, node = _node_indices(f, x)
    rule = x > 0.0
    node &= rule
    nodes = _table_nodes(f, p) if node.any() else None
    if nodes is not None and (nodes := nodes[derivative]) is not None:
        out = np.where(node, nodes[k], 0.0)
        rule &= ~node
    else:
        out = np.zeros(x.shape)
    if rule.any():
        out[rule] = (_tabulated_slope if derivative else _tabulated_dense)(f, x[rule], p)
    return out


def _outside(f: TabulatedFunction, x: float) -> DomainError:
    return DomainError(f"x = {x!r} outside tabulated range [0, {f.x_max!r}]")


def _node_indices(f: TabulatedFunction, x: np.ndarray):
    """k = rint(x / h), h = f.step, and the mask of the points x within a
    few ulps of k * h (_NODE_RTOL; np.linspace grids meet it at every
    node).  x is in [0, x_max], so k < f.xs.size."""
    h = f.step
    k = np.rint(x / h)
    return k.astype(np.intp), np.abs(x - k * h) <= _NODE_RTOL * x


# Hold the pair (K[f], K[f']) at every node of the last few (table, order)
# pairs as read-only arrays, K[f'] being None below 3 rows; non-uniform
# tables map to None.  The key is the table's identity (TabulatedFunction
# compares by identity) and its samples are read-only, so an entry cannot
# go stale, and the cache's own reference keeps the id from being reused
# while it lives.
@lru_cache(maxsize=8)
def _table_nodes(f: TabulatedFunction, p: float):
    k, node = _node_indices(f, f.xs)
    if not node.all() or np.any(np.diff(k) != 1):  # two samples at one node
        return None
    nodes = _tabulated_toeplitz(f, p)
    nodes.setflags(write=False)
    if f.xs.size < 3:
        return nodes, None
    g = nodes - float(f.values[0]) * f.xs**p / p
    slopes = np.gradient(g, f.step, edge_order=2)
    slopes.setflags(write=False)
    return nodes, slopes


def _tabulated_toeplitz(f: TabulatedFunction, p: float) -> np.ndarray:
    # cell k seen from node i > k spans lags (i-k-1)h .. (i-k)h; lag 0
    # (the cells at and above node i) gets zero moments
    t, v = f.xs, f.values
    lag = np.arange(t.size) * f.step
    m0, m1 = _cell_moments(lag, np.concatenate(([0.0], lag[:-1])), p)
    return (np.convolve(v[:-1], m0) + np.convolve(f.slopes, m1))[: t.size]


def _tabulated_dense(f: TabulatedFunction, xs, p: float) -> np.ndarray:
    t, v, slope = f.xs, f.values, f.slopes
    out = np.zeros(xs.shape)
    pos = np.flatnonzero(xs > 0.0)
    if pos.size == 0:
        return out
    x = xs[pos]
    # the last cell of each row ends at x itself: [t[j-1], x], f(x) interpolated
    j = np.searchsorted(t, x, side="left")
    a = t[j - 1]
    fa = v[j - 1]
    B = x - a
    last0, last1 = _cell_moments(B, np.zeros_like(B), p)
    sums = fa * last0 + (np.interp(x, t, v) - fa) / B * last1
    # whole table cells [t[k], t[k+1]] with t[k+1] < x.  A row sums its
    # cell terms pairwise in chunks of `width` cells, then the chunks in
    # order: the zero cells above x that its block adds change no bit, so
    # a row's value does not depend on the rows beside it
    order = np.argsort(x, kind="stable")
    rows = max(1, _BLOCK // t.size)
    width = min(_CHUNK, t.size - 1)
    for r in range(0, order.size, rows):
        blk = order[r : r + rows]
        cells = int(j[blk].max()) - 1
        if cells <= 0:
            continue
        xb = x[blk, None]
        A = xb - t[1 : cells + 1]
        full = A > 0.0
        A = np.where(full, A, 0.0)
        Bm = np.where(full, xb - t[:cells], 0.0)
        m0, m1 = _cell_moments(Bm, A, p)
        terms = np.zeros((blk.size, -(-cells // width) * width))
        np.multiply(m0, v[:cells], out=terms[:, :cells])
        m1 *= slope[:cells]
        terms[:, :cells] += m1
        chunks = terms.reshape(blk.size, -1, width).sum(axis=2)
        sums[blk] += np.add.accumulate(chunks, axis=1)[:, -1]
    out[pos] = sums
    return out


def tabulated_derivative_kernel(f: TabulatedFunction, x: float, p) -> float:
    """Kernel integral of the *derivative* of tabulated f:
    integral_0^x f'(t) (x-t)**(p-1) dt.

    Finite differencing the sampled values and then integrating loses the
    derivative mass near a steep left end (slopes of sqrt-like data are not
    representable on a uniform grid), so instead this differentiates the
    values-form integral of f - f(0) in x:

        K[f'](x) = d/dx G(x),    G = K[f - f(0)] = K[f] - f(0) x**p / p.

    K[f] comes from product integration (exact for the interpolant) and is
    smooth in x.  The value is the slope at x of the quadratic through G
    at c - h, c, c + h: h is the width of the cell holding x (at most
    x_max / 2), and c is x, moved one step inward where x -+ h would leave
    [0, x_max], then clipped to [h, x_max - h]; a point past x_max by
    rounding alone is x_max.  At the nodes of a uniform table that is
    np.gradient's rule, cached beside K[f] (:func:`_table_nodes`), so a
    node read is one lookup and one index.  p = 1 gives f(x) - f(0).
    :func:`derivative_kernel` gives the same, at a float or a grid, by the
    one table route of K[f] and K[f'] (:func:`table_route`): a grid's
    points off the nodes take the rule in one product integration of
    their three points each, and a float is the one-point grid, bit for
    bit.
    """
    f, x, p = check_integrand(f, True), check_point(x), check_exponent(p, True)
    return derivative_route(f, x, p, DEFAULT_CONFIG)


def _tabulated_slope(f: TabulatedFunction, x: np.ndarray, p: float) -> np.ndarray:
    """The three-point rule of :func:`tabulated_derivative_kernel` at every
    point of a 1-d array x in (0, x_max], p in (0, 1): the
    3 * x.size points of G in one :func:`_tabulated_dense` call, never the
    node cache."""
    xs, x_max = f.xs, f.x_max
    j = np.clip(np.searchsorted(xs, x), 1, xs.size - 1)
    h = np.minimum(xs[j] - xs[j - 1], 0.5 * x_max)
    # past x_max by rounding alone, x + h is left to the clip
    c = np.where(x < h, x + h, np.where(x + h > x_max * (1.0 + 1e-12), x - h, x))
    c = np.minimum(np.maximum(c, h), x_max - h)
    y = np.minimum(np.concatenate((c - h, c, c + h)), x_max)
    g = (_tabulated_dense(f, y, p) - float(f.values[0]) * y**p / p).reshape(3, -1)
    u = (x - c) / h
    return (0.5 * (g[2] - g[0]) + u * (g[2] - 2.0 * g[1] + g[0])) / h


def _leading_exponent(le: float, cfg: QuadratureConfig) -> float:
    """le, the smallest exponent of some terms, to be factored into the
    weight; a negative one within 2**-53 / rel_tol of -1 is a DomainError:
    a derivative's e - 1 keeps too few digits of 1 + le."""
    if le < 0.0 and 1.0 + le < 2.0**-53 / cfg.rel_tol:
        raise DomainError(
            f"leading exponent {le!r} is too close to -1 for rel_tol "
            f"{cfg.rel_tol!r}; use caputo_derivative's exact backend"
        )
    return le


def _jump(prev, terms, lo: float):
    """The jump terms - prev at breakpoint lo (raw (coef, exp) pairs merged
    by exponent, zeros dropped) as (polynomial, jump).

    When every exponent is an integer in [0, _SHIFT_DEGREE] the jump is
    returned Taylor-shifted to s = t - lo,
    q_j = sum_k c_k C(k, j) lo**(k - j), with polynomial True; otherwise
    (or if a q_j overflows) the merged terms in t, with polynomial False.
    """
    merged: dict[float, float] = {}
    for c, e in terms:
        merged[e] = merged.get(e, 0.0) + c
    for c, e in prev:
        merged[e] = merged.get(e, 0.0) - c
    jump = tuple((c, e) for e, c in sorted(merged.items()) if c != 0.0)
    if not all(0.0 <= e <= _SHIFT_DEGREE and e.is_integer() for _, e in jump):
        return False, jump
    q = [0.0] * (int(jump[-1][1]) + 1 if jump else 0)
    try:
        for c, e in jump:
            k = int(e)
            for j in range(k + 1):
                q[j] += c * math.comb(k, j) * lo ** (k - j)
    except OverflowError:
        return False, jump
    if not all(map(math.isfinite, q)):
        return False, jump
    return True, tuple((qj, float(j)) for j, qj in enumerate(q) if qj != 0.0)


class _Piecewise(NamedTuple):
    """The route of K[f] at order p for a PowerSum or PiecewisePowerSum f:
    all of it but x.

    first is the _Part of the first segment, its leading power in the
    weight; los holds the breakpoints and segs the raw terms of each
    segment (of f' with ``derivative``); jumps[k] = (lo, polynomial,
    jump) is the jump at los[k]: the _Part of its terms in s = t - lo when
    polynomial, its terms in t when not, None when the segments agree;
    tops[k] is the largest exponent of segments 0 .. k, or 0 if that is
    larger."""

    first: _Part
    los: tuple
    segs: tuple
    jumps: tuple
    tops: tuple


@lru_cache(maxsize=512)
def _route(
    f, le: float, derivative: bool, p: float, cfg: QuadratureConfig, cap: int
) -> _Piecewise:
    """The x-free data of integral_0^x f(t) t**le (x - t)**(p - 1) dt (of
    f' with ``derivative``) for a PowerSum or PiecewisePowerSum f, built
    once per (f, le, derivative, p, cfg, MAX_NODES) and read by every call,
    a float or a grid: every segment's terms, the jumps at the
    breakpoints (:func:`_jump`), and the first segment, shifted by its
    leading power, and every polynomial jump as its :func:`_part`.  A
    derivative whose leading exponent is too close to -1 raises
    DomainError here, and as a cache keeps no exception, at every call."""
    if isinstance(f, PiecewisePowerSum):
        segments, los = f.segments, f.breakpoints
    else:
        segments, los = (f,), ()
    segs = tuple(seg.derivative_terms() if derivative else seg.terms for seg in segments)
    first = segs[0]
    lead = min((e for _, e in first), default=0.0)
    if derivative and first:
        _leading_exponent(le + lead, cfg)
    first = _part(tuple((c, e - lead) for c, e in first), le + lead, p, cfg, cap)
    jumps = []
    for lo, prev, terms in zip(los, segs, segs[1:]):
        polynomial, jump = _jump(prev, terms, lo)
        if polynomial:
            jump = _part(jump, 0.0, p, cfg, cap) if jump else None
        jumps.append((lo, polynomial, jump))
    return _Piecewise(
        first,
        los,
        segs,
        tuple(jumps),
        tuple(accumulate((max((e for _, e in t), default=0.0) for t in segs), max)),
    )


def _kernel_parts(
    route: _Piecewise, k: int, x, p: float, cfg: QuadratureConfig, integral: Callable
) -> list:
    """The parts of K whose sum is K(x) when only the route's first k
    breakpoints lie below x (below the largest point of a 1-d array x):
    the first segment over all of [0, x], then the jump at each of those
    breakpoints lo over [lo, x] (0 where x <= lo).  ``integral`` takes
    the first segment and each polynomial jump from its _Part, from rule
    moments; a jump with a fractional power is sampled."""
    parts = [integral(route.first, x, cfg)]
    for lo, polynomial, jump in route.jumps[:k]:
        if jump is None:
            continue
        if polynomial:
            # from the rule moments of [0, x - lo]: nothing is sampled
            parts.append(integral(jump, x - lo, cfg))
        else:
            parts.append(_jacobi_integral(
                lambda u: eval_terms(jump, lo + u), 0.0, x - lo, p, 0.0, cfg
            ))
    return parts


def _cancels(parts, total, cfg: QuadratureConfig):
    """Where the parts cancel too far for their own tolerances to meet
    that of their sum: sum |parts| > 2 max(abs_tol / rel_tol, |sum|)."""
    mag = sum(map(abs, parts))
    return (mag > 2.0 * cfg.abs_tol / cfg.rel_tol) & (mag > 2.0 * abs(total))


def _overflows(top: float, x: float) -> bool:
    """Whether x**top passes exp(_LOG_PART_MAX) = 1e150 for the largest
    exponent top of the spans: a part on [0, x] or [lo, x] could then
    overflow before the jumps cancel it (a high power on a short first
    segment)."""
    return x > 1.0 and math.log(x) * top > _LOG_PART_MAX


def _power_kernel(f, x, p: float, le: float, derivative: bool, cfg: QuadratureConfig):
    """K[f](x) (with weight t**le), or K[f'](x) with ``derivative``, for
    a PowerSum or PiecewisePowerSum f at a float x >= 0 or a 1-d array of
    them: one lookup of the cached :func:`_route`, then each part over
    [0, x] or [lo, x] (:func:`_kernel_parts`).

    f is its first segment on all of [0, x] plus, at each breakpoint lo
    below x, the jump to the next segment on [lo, x], so every part ends
    at x.  A float takes each moment part in one pass over its rows
    (:func:`_rows_integral`), an array in numpy passes over the grid
    (:func:`_power_sum_integral`); the values agree up to rounding.  A
    point past a breakpoint whose parts could overflow (:func:`_overflows`,
    tested before any part is taken) or cancel (:func:`_cancels`) is
    summed span by span instead, from the same route
    (:func:`_span_kernel`); a grid whose
    largest point could overflow is taken point by point.  x = 0, or a
    grid of zeros, gives 0 and builds no route."""
    point = isinstance(x, float)
    if point:
        if x <= 0.0:
            return 0.0
        top, integral = x, _rows_integral
    else:
        top = float(x.max(initial=0.0))
        if top <= 0.0:
            return np.zeros(x.shape)
        integral = _power_sum_integral
    route = _route(f, le, derivative, p, cfg, MAX_NODES)
    k = bisect_left(route.los, top)
    if not k:
        return integral(route.first, x, cfg)
    if _overflows(route.tops[k], top):
        if point:
            return _span_kernel(route, x, p, cfg)
        out = np.empty(x.shape)
        for i, a in enumerate(x.tolist()):
            out[i] = _power_kernel(f, a, p, le, derivative, cfg)
        return out
    parts = _kernel_parts(route, k, x, p, cfg, integral)
    total = sum(parts[1:], parts[0])
    if len(parts) == 1:
        return total
    guarded = _cancels(parts, total, cfg)
    if point:
        return _span_kernel(route, x, p, cfg) if guarded else total
    for i in np.flatnonzero(guarded):
        a = float(x[i])
        total[i] = _span_kernel(route, a, p, cfg)
    return total


def _interior_span(
    terms, lo: float, hi: float, x: float, p: float, cfg: QuadratureConfig
) -> float:
    # A = (x-t)**p turns the kernel factor into dA/p exactly; the leftover
    # integrand stays mild in A even when x - hi is tiny
    a_hi = (x - hi) ** p
    a_lo = (x - lo) ** p
    inv_p = 1.0 / p
    return _jacobi_integral(
        lambda A: eval_terms(terms, x - A**inv_p) / p, a_hi, a_lo, 1.0, 0.0, cfg
    )


def _span_kernel(route: _Piecewise, x: float, p: float, cfg: QuadratureConfig) -> float:
    """K(x) over the two or more spans of a route of left exponent 0 that
    cover [0, x], each span integrated on its own: the route of points
    whose jump parts cancel or could overflow.

    The first span ends below x.  Led by a fractional power t**le it
    takes the weight t**le (route.first) on its half at 0 and the
    substitution A = (x - t)**p on the other half; otherwise the
    substitution covers it, as it does every interior span.  The last
    span carries the kernel singularity at t = x and is sampled on [lo, x].
    """
    edges = (0.0,) + route.los[: bisect_left(route.los, x)] + (x,)
    first = route.first
    total = 0.0
    for lo, hi, terms in zip(edges, edges[1:], route.segs):
        if not terms:
            continue
        if hi >= x:
            # the span carrying the kernel singularity at t = x
            total += _jacobi_integral(
                lambda u: eval_terms(terms, lo + u), 0.0, x - lo, p, 0.0, cfg
            )
        elif lo == 0.0 and not first.le.is_integer():
            # interior first span led by a fractional power of t: give
            # each end its matching weighted rule
            mid = 0.5 * hi
            total += _jacobi_integral(
                lambda t: eval_terms(first.terms, t) * (x - t) ** (p - 1.0),
                0.0, mid, 1.0, first.le, cfg,
            )
            total += _interior_span(terms, mid, hi, x, p, cfg)
        else:
            total += _interior_span(terms, lo, hi, x, p, cfg)
    return total


def kernel_integral(f, x, p, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Numerical K[f](x) = integral_0^x f(t) (x-t)**(p-1) dt for any
    supported representation of f (or a bare callable) at a float x or
    a 1-d array of them: :func:`singular_integral` with no left weight,
    which picks the route of f's representation.
    """
    return singular_integral(f, x, p, cfg)
