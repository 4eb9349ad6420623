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
at MAX_NODES.  A scalar call samples g at the nodes of its first two
rules in one pass, since most points stop at the second estimate and the
operators call it point by point.

For tabulated data there is a product-integration path: f is taken
piecewise linear on its own grid and the kernel moments of every cell are
integrated in closed form, which is exact for piecewise-linear f and
avoids sampling f anywhere but its own nodes.

Both paths also take 1-d arrays of limits and evaluate the whole grid in
one vectorised pass.  Gauss-Jacobi is affine-invariant, so the nodes of
every interval are a + (b - a)(1 + xi)/2 and one matrix product gives the
integral over all of them; each point still stops doubling at its own
tolerance.

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
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, EvaluationError
from .functions import (
    PiecewisePowerSum,
    PowerSum,
    TabulatedFunction,
    _eval_terms,
    as_order,
)

__all__ = [
    "QuadratureConfig",
    "DEFAULT_CONFIG",
    "MAX_NODES",
    "singular_integral",
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

#: relative distance (4 ulps) within which a point counts as node k * h of
#: a uniform table; np.linspace grids meet it at every node
_NODE_RTOL = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureConfig:
    """Tuning knobs for the adaptive singular quadrature.

    node_count
        starting rule size; doubled until convergence.
    abs_tol, rel_tol
        doubling stops when successive estimates differ by at most
        ``max(abs_tol, rel_tol * |I|)``.
    """

    node_count: int = 64
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (isinstance(self.node_count, int) and self.node_count >= 2):
            raise DomainError(
                f"node_count must be an int >= 2, got {self.node_count!r}"
            )
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("tolerances must be positive")


DEFAULT_CONFIG = QuadratureConfig()


@lru_cache(maxsize=256)
def _jacobi_rule(n: int, alpha: float, beta: float):
    """n-point Gauss-Jacobi rule for the weight (1-x)**alpha (1+x)**beta
    on [-1, 1]: nodes ascending, both arrays read-only."""
    return _frozen(*_gauss_jacobi(n, float(alpha), float(beta)))


@lru_cache(maxsize=256)
def _paired_rule(n: int, alpha: float, beta: float):
    """The first two rules of a doubling from n nodes, to be sampled in one
    call: (t, w, w2) with t = 1 + xi of the n-node rule followed by that of
    the min(2n, MAX_NODES)-node rule (read-only), and the two weight
    arrays.  At n >= MAX_NODES there is no second rule: t holds the one
    rule and w2 is None."""
    xi, w = _jacobi_rule(n, alpha, beta)
    if n >= MAX_NODES:
        t, w2 = 1.0 + xi, None
    else:
        xi2, w2 = _jacobi_rule(min(2 * n, MAX_NODES), alpha, beta)
        t = np.concatenate((1.0 + xi, 1.0 + xi2))
    t.setflags(write=False)
    return t, w, w2


def _frozen(x: np.ndarray, w: np.ndarray):
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss_jacobi(n: int, alpha: float, beta: float):
    a1, b1 = 1.0 + alpha, 1.0 + beta
    rho = n + 0.5 * (a1 + b1 - 1.0)
    right = _start_angles(n, rho, alpha, beta)
    m = int(np.count_nonzero(right <= 0.5 * math.pi))
    rule = _halley(n, a1, b1, right[:m], _start_angles(n - m, rho, beta, alpha))
    if rule is None:
        # Golub & Welsch: the nodes are the eigenvalues of the Jacobi matrix
        x0 = np.linalg.eigvalsh(_jacobi_matrix(n, alpha, beta))
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


def _sample(g: Callable, t: np.ndarray) -> np.ndarray:
    """Evaluate g at the nodes, tolerating scalar-only callables, and
    insist every sample is finite."""
    try:
        out = np.asarray(g(t), dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or out.shape != t.shape:
        out = np.array([float(g(ti)) for ti in t.ravel()]).reshape(t.shape)
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


def _doubling(
    first: float,
    second: float | None,
    estimate: Callable[[int], float],
    cfg: QuadratureConfig,
) -> float:
    """Double the rule from n = node_count until two successive estimates
    agree to tolerance.  ``first`` and ``second`` are the estimates at n
    and min(2n, MAX_NODES) (``second`` is None when n >= MAX_NODES, and
    ``first`` is then the result); estimate(n) gives the later ones.  At
    the MAX_NODES cap a mild shortfall returns the last estimate;
    disagreement two orders beyond tolerance raises ConvergenceError."""
    if second is None:
        return first
    prev, val = first, second
    n = min(2 * cfg.node_count, MAX_NODES)
    while True:
        err = abs(val - prev)
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(val))
        if err <= tol:
            return val
        if n >= MAX_NODES:
            if err > 100.0 * tol:
                raise _stalled(n, err, tol)
            return val
        n = min(2 * n, MAX_NODES)
        prev, val = val, estimate(n)


def _doubling_grid(
    estimate: Callable[[int, np.ndarray], np.ndarray],
    abs_tol: np.ndarray,
    cfg: QuadratureConfig,
) -> np.ndarray:
    """:func:`_doubling` applied to every point of a grid at once.

    estimate(n, idx) returns the n-node estimates at the points idx.  A
    point leaves the pass at the first doubling that meets its own
    tolerance max(abs_tol[i], rel_tol * |value|), so each value is the one
    the scalar rule returns for that point alone; only unconverged points
    are estimated again.  The cap rule is the scalar one, and a stall is
    reported for the first stalled point in grid order.
    """
    n = cfg.node_count
    idx = np.arange(abs_tol.size)
    out = np.empty(abs_tol.size)
    val = estimate(n, idx)
    while n < MAX_NODES:
        n = min(2 * n, MAX_NODES)
        prev, val = val, estimate(n, idx)
        err = np.abs(val - prev)
        tol = np.maximum(abs_tol[idx], cfg.rel_tol * np.abs(val))
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


def _order_like(p) -> float:
    # a float already in (0, 1) needs no Order built to say so
    if type(p) is float and 0.0 < p < 1.0:
        return p
    return float(as_order(p))


def _limits(x, error: str = "limits must be scalars or 1-d arrays"):
    """x as a float, or as a 1-d float array."""
    if isinstance(x, float) or not np.ndim(x):
        return float(x)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DomainError(error)
    return x


def _left_exponent(left_exponent) -> float:
    le = float(left_exponent)
    if not (math.isfinite(le) and le > -1.0):
        raise DomainError(f"left_exponent must be > -1, got {left_exponent!r}")
    return le


def _jacobi_integral(
    g: Callable, a, b, p: float, le: float, cfg: QuadratureConfig, abs_tol=None
):
    """integral_a^b g(t) * (b - t)**(p - 1) * (t - a)**le dt by Gauss-Jacobi
    with doubling; empty or reversed intervals give 0.

    The weight (1 - xi)**(p - 1) (1 + xi)**le on [-1, 1] absorbs both end
    powers: the nodes of [a, b] are a + (b - a)(1 + xi)/2 and the scale is
    ((b - a)/2)**(p + le).  Float limits give a float.  Array limits (1-d,
    or one of them a float) give an array from one matrix product per rule
    and row block, each point doubling to its own tolerance; ``abs_tol``
    (a scalar, or one per point) replaces ``cfg.abs_tol``.
    """
    if isinstance(a, float) and isinstance(b, float):
        # its own path: the operators call this point by point, where a
        # one-point array call costs about five times as much, and the
        # first two rules are sampled in one call of g
        if b <= a:
            return 0.0
        half = 0.5 * (b - a)
        scale = half ** (p + le)
        if abs_tol is not None:
            cfg = replace(cfg, abs_tol=float(abs_tol))
        n = cfg.node_count
        t, w, w2 = _paired_rule(n, p - 1.0, le)
        y = _sample(g, a + half * t)
        first = scale * float(np.dot(w, y[:n]))
        second = None if w2 is None else scale * float(np.dot(w2, y[n:]))

        def estimate(n: int) -> float:
            xi, w = _jacobi_rule(n, p - 1.0, le)
            return scale * float(np.dot(w, _sample(g, a + half * (1.0 + xi))))

        return _doubling(first, second, estimate, cfg)

    a, b = np.broadcast_arrays(a, b)
    out = np.zeros(b.shape)
    pos = np.flatnonzero(b > a)
    if pos.size == 0:
        return out
    lo = a[pos]
    half = 0.5 * (b[pos] - lo)
    scale = half ** (p + le)
    tol = np.broadcast_to(cfg.abs_tol if abs_tol is None else abs_tol, b.shape)

    def estimate(n: int, idx: np.ndarray) -> np.ndarray:
        xi, w = _jacobi_rule(n, p - 1.0, le)
        sums = np.empty(idx.size)
        rows = max(1, _BLOCK // n)
        for r in range(0, idx.size, rows):
            blk = idx[r : r + rows, None]
            sums[r : r + rows] = _sample(g, lo[blk] + half[blk] * (1.0 + xi)) @ w
        return scale[idx] * sums

    out[pos] = _doubling_grid(estimate, tol[pos], cfg)
    return out


def singular_integral(
    g: Callable,
    x,
    p,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    left_exponent: float = 0.0,
    abs_tol=None,
):
    """integral_0^x g(t) * t**left_exponent * (x - t)**(p - 1) dt.

    ``left_exponent`` (> -1) lets callers factor a known algebraic
    behaviour of the integrand at t = 0 into the weight; the remaining g
    should then be smooth for spectral convergence.  With the default 0
    this is the plain kernel integral of g.

    x may also be a 1-d array of upper limits: the whole grid is then
    evaluated in one pass and an array returned, each value the one a
    scalar call gives.  ``abs_tol`` (a scalar, or one per point) replaces
    ``cfg.abs_tol``.
    """
    p = _order_like(p)
    le = _left_exponent(left_exponent)
    x = _limits(x, "upper limits must be a scalar or a 1-d array")
    low = x if isinstance(x, float) else np.min(x, initial=0.0)
    if low < 0.0:
        raise DomainError(f"upper limit must be >= 0, got {float(low)!r}")
    return _jacobi_integral(g, 0.0, x, p, le, cfg, abs_tol)


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
    return _jacobi_integral(g, _limits(a), _limits(b), 1.0, 0.0, cfg)


def left_weighted_integral(
    g: Callable,
    b,
    left_exponent: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
):
    """integral_0^b g(t) * t**left_exponent dt, the algebraic endpoint
    factor absorbed into a Gauss-Jacobi weight (no singularity at b).
    b may also be a 1-d array of upper limits; b <= 0 gives 0."""
    le = _left_exponent(left_exponent)
    return _jacobi_integral(g, 0.0, _limits(b), 1.0, le, cfg)


def graded_mesh(
    x_max: float,
    points: int,
    exponent: float | None = None,
    *,
    p: float | None = None,
) -> np.ndarray:
    """Mesh on [0, x_max] clustered at 0: x_i = x_max * (i/(points-1))**q.

    With ``exponent=None`` the clustering strength defaults to 2/p for
    kernel exponent p (if given), else 2.
    """
    if points < 2:
        raise DomainError(f"need at least 2 mesh points, got {points!r}")
    if x_max <= 0.0:
        raise DomainError(f"x_max must be > 0, got {x_max!r}")
    if exponent is None:
        exponent = 2.0 / _order_like(p) if p is not None else 2.0
    if exponent < 1.0:
        raise DomainError(f"mesh exponent must be >= 1, got {exponent!r}")
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

    x may also be a 1-d array of upper limits; the cell weights are then
    built once for the grid.  When x is the table's own uniform grid they
    depend only on the lag between output point and cell, so the
    lower-triangular Toeplitz product is one convolution per moment.  Any
    other grid gets the same weights in dense row blocks that span only
    the cells below each row's x.  That convolution gives the integral at
    every node of a uniform table; it is cached per (table, order), and
    scalar calls at a node read it too.
    """
    p = _order_like(p)
    if not isinstance(x, float) and np.ndim(x):
        return _tabulated_grid(f, x, p)
    x = float(x)
    if x < 0.0 or x > f.x_max * (1.0 + 1e-12):
        raise DomainError(f"x = {x!r} outside tabulated range [0, {f.x_max!r}]")
    if x == 0.0:
        return 0.0
    x = min(x, f.x_max)
    k = _node_index(f, x)
    nodes = None if k is None else _node_integrals(f, p)
    if nodes is not None:
        return float(nodes[k])
    return _tabulated_point(f, x, p)


def _tabulated_point(f: TabulatedFunction, x: float, p: float) -> float:
    """K[f](x) for one 0 < x <= x_max, summed cell by cell."""
    inside = f.xs < x
    nodes = np.append(f.xs[inside], x)
    vals = np.append(f.values[inside], f(x))
    if nodes.size < 2:
        return 0.0
    a = nodes[:-1]
    b = nodes[1:]
    fa = vals[:-1]
    slope = (vals[1:] - fa) / (b - a)
    m0, m1 = _cell_moments(x - a, np.maximum(x - b, 0.0), p)
    return float(np.dot(fa, m0) + np.dot(slope, m1))


def _tabulated_grid(f: TabulatedFunction, xs, p: float) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise DomainError("upper limits must be a scalar or a 1-d array")
    bad = (xs < 0.0) | (xs > f.x_max * (1.0 + 1e-12))
    if bad.any():
        raise DomainError(
            f"x = {float(xs[bad][0])!r} outside tabulated range [0, {f.x_max!r}]"
        )
    if np.array_equal(xs, f.xs):
        nodes = _node_integrals(f, p)
        if nodes is not None:
            return nodes.copy()
    return _tabulated_dense(f, np.minimum(xs, f.x_max), p)


def _is_uniform(t: np.ndarray) -> bool:
    """Nodes equal to k * h up to a few ulps of each node (np.linspace
    grids qualify), so lag-only weights match the per-node ones."""
    k = np.arange(t.size)
    h = t[-1] / (t.size - 1)
    return bool(np.all(np.abs(t - k * h) <= _NODE_RTOL * t))


def _node_index(f: TabulatedFunction, x: float) -> int | None:
    """k when x is node k * h, h = x_max / (size - 1), to within
    _NODE_RTOL: the nodes :func:`_node_integrals` holds when the table is
    uniform."""
    h = f.x_max / (f.xs.size - 1)
    k = round(x / h)
    if k < f.xs.size and abs(x - k * h) <= _NODE_RTOL * x:
        return k
    return None


# Holds K[f] at every node of the last few (table, order) pairs, one
# read-only array of table size each; non-uniform tables map to None.  The
# key is the table's identity (TabulatedFunction compares by identity) and
# its samples are read-only, so an entry cannot go stale, and the cache's
# own reference keeps the id from being reused while the entry lives.
@lru_cache(maxsize=8)
def _node_integrals(f: TabulatedFunction, p: float) -> np.ndarray | None:
    if not _is_uniform(f.xs):
        return None
    nodes = _tabulated_toeplitz(f.xs, f.values, p)
    nodes.setflags(write=False)
    return nodes


def _tabulated_toeplitz(t, v, p: float) -> np.ndarray:
    # cell k seen from node i > k spans lags (i-k-1)h .. (i-k)h; lag 0
    # (the cells at and above node i) gets zero moments
    lag = np.arange(t.size) * (t[-1] / (t.size - 1))
    m0, m1 = _cell_moments(lag, np.concatenate(([0.0], lag[:-1])), p)
    slope = np.diff(v) / np.diff(t)
    return (np.convolve(v[:-1], m0) + np.convolve(slope, m1))[: t.size]


def _tabulated_dense(f: TabulatedFunction, xs, p: float) -> np.ndarray:
    t, v = f.xs, f.values
    slope = np.diff(v) / np.diff(t)
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
    sums = fa * last0 + (f(x) - fa) / B * last1
    # whole table cells [t[k], t[k+1]] with t[k+1] < x
    order = np.argsort(x, kind="stable")
    rows = max(1, _BLOCK // t.size)
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
        sums[blk] += m0 @ v[:cells] + m1 @ slope[:cells]
    out[pos] = sums
    return out


def tabulated_derivative_kernel(f: TabulatedFunction, x: float, p) -> float:
    """Kernel integral of the *derivative* of tabulated f:
    integral_0^x f'(t) (x-t)**(p-1) dt.

    Finite differencing the sampled values and then integrating loses the
    derivative mass near a steep left end (slopes of sqrt-like data are not
    representable on a uniform grid), so instead this differentiates the
    values-form integral in x:

        d/dx K[f](x) = K[f'](x) + f(0) * x**(p-1)

    K[f] comes from product integration (exact for the interpolant) and is
    smooth in x, so a second-order difference with a grid-sized step keeps
    the overall error at the level of the interpolation of f itself.
    When x is a node of a uniform table the differences take K[f] at the
    neighbouring nodes, which the table's cached node integrals hold.
    """
    p = _order_like(p)
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"upper limit must be > 0, got {x!r}")
    xs = f.xs
    j = min(max(int(np.searchsorted(xs, min(x, f.x_max))), 1), xs.size - 1)
    step = xs[j] - xs[j - 1]
    if x - step < 0.0 and x + step > f.x_max:
        # the cell holding x is wider than the room on either side of x:
        # step over the longer side so the one-sided differences below
        # stay in [0, x_max]
        step = max(x, f.x_max - x)
    k = _node_index(f, x)
    nodes = None if k is None else _node_integrals(f, p)

    def J(m: int) -> float:
        """K[f] at x + m * step; on a uniform table's node, the cached
        value at the node m places away."""
        if nodes is not None:
            return float(nodes[k + m])
        return singular_integral_tabulated(f, x + m * step, p)

    if x - step >= 0.0 and x + step <= f.x_max:
        slope = (J(1) - J(-1)) / (2.0 * step)
    elif x + step > f.x_max:
        if x - 2.0 * step >= 0.0:
            slope = (3.0 * J(0) - 4.0 * J(-1) + J(-2)) / (2.0 * step)
        else:
            slope = (J(0) - J(-1)) / step
    else:
        if x + 2.0 * step <= f.x_max:
            slope = (-3.0 * J(0) + 4.0 * J(1) - J(2)) / (2.0 * step)
        else:
            slope = (J(1) - J(0)) / step
    return float(slope) - float(f.values[0]) * x ** (p - 1.0)


def _interior_span(
    terms, lo: float, hi: float, x: float, p: float, cfg: QuadratureConfig
) -> float:
    # A = (x-t)**p turns the kernel factor into dA/p exactly; the leftover
    # integrand stays mild in A even when x - hi is tiny
    a_hi = (x - hi) ** p
    a_lo = (x - lo) ** p
    inv_p = 1.0 / p
    return smooth_integral(
        lambda A: _eval_terms(terms, x - A**inv_p) / p, a_hi, a_lo, cfg
    )


def _piecewise_kernel(pieces, x: float, p: float, cfg: QuadratureConfig) -> float:
    """Kernel integral of a function given as raw (coef, exp) term lists
    on consecutive spans (lo, hi, terms) covering [0, x].

    The first span's terms may carry exponents in (-1, 0) (derivatives of
    fractional powers); those are factored into the quadrature weight.
    """
    total = 0.0
    for lo, hi, terms in pieces:
        if not terms:
            continue
        le = min(e for _, e in terms) if lo == 0.0 else 0.0
        shifted = tuple((c, e - le) for c, e in terms)
        if hi >= x:
            # the span carrying the kernel singularity at t = x
            total += singular_integral(
                lambda u: _eval_terms(shifted, lo + u), x - lo, p, cfg, left_exponent=le
            )
        elif le < 0.0:
            # interior first span with a genuine singularity at t = 0:
            # give each end its matching weighted rule
            mid = 0.5 * hi
            total += left_weighted_integral(
                lambda t: _eval_terms(shifted, t) * (x - t) ** (p - 1.0),
                mid, le, cfg,
            )
            total += _interior_span(terms, mid, hi, x, p, cfg)
        else:
            total += _interior_span(terms, lo, hi, x, p, cfg)
    return total


def kernel_integral(
    f,
    x: float,
    p,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Numerical K[f](x) = integral_0^x f(t) (x-t)**(p-1) dt for any
    supported representation of f (or a bare callable).

    Power sums factor their leading t**e behaviour into the Jacobi
    weight, piecewise inputs are split at their breakpoints, and tabulated
    data goes through product integration.
    """
    p = _order_like(p)
    x = float(x)
    if x < 0.0:
        raise DomainError(f"upper limit must be >= 0, got {x!r}")
    if x == 0.0:
        return 0.0

    if isinstance(f, (PowerSum, PiecewisePowerSum)):
        return _piecewise_kernel(
            ((lo, hi, seg.terms) for lo, hi, seg in f.pieces(x)), x, p, cfg
        )

    if isinstance(f, TabulatedFunction):
        return singular_integral_tabulated(f, x, p)

    if callable(f):
        return singular_integral(f, x, p, cfg)

    raise DomainError(f"unsupported integrand type {type(f).__name__}")
