"""Gauss-Jacobi and Gauss-Legendre rules built in numpy.

Exact references come from mpmath at 40 digits: the moments of the
Jacobi weight are Beta values, and the cos series of the singular kernel
integral is a sum of Beta values.  scipy's roots_jacobi serves only as a
node oracle here; nothing at run time imports scipy.
"""

import functools
import math
import warnings

import numpy as np
import pytest

from abelfrac import ConvergenceError, PowerSum, QuadratureConfig, singular_integral
from abelfrac.quadrature import MAX_NODES, _jacobi_rule

mpmath = pytest.importorskip("mpmath")
special = pytest.importorskip("scipy.special")

mpmath.mp.dps = 40

SIZES = (2, 3, 8, 64, 1024, MAX_NODES)

# (alpha, beta) over (-1, 2]^2, beta up to 4 (power sums with leading
# exponent 4 give it), and both ends down to -0.98
PAIRS = (
    (-0.9, -0.5),
    (-0.9, 0.0),
    (-0.75, 0.0),
    (-0.75, 1.5),
    (-0.5, -0.5),
    (0.0, 0.0),
    (0.5, 2.0),
    (2.0, 2.0),
    (-0.98, 0.02),
    (0.02, -0.98),
    (-0.5, 4.0),
    (1.0, 3.0),
)

# the pairs of the cos-series check; only these are compared with scipy at
# MAX_NODES, where one scipy rule takes about a second
SERIES_CASES = ((0.1, -0.5), (0.1, 0.0), (0.25, 0.0))
LARGE_PAIRS = {(p - 1.0, le) for p, le in SERIES_CASES}


@functools.lru_cache(maxsize=None)
def scipy_rule(n, alpha, beta):
    return special.roots_jacobi(n, alpha, beta)


def jacobi_moment(alpha, beta, m, end):
    """Exact integral of (1 -/+ x)**m against (1-x)**alpha (1+x)**beta."""
    a, b = mpmath.mpf(alpha) + 1, mpmath.mpf(beta) + 1
    if end == "right":
        a += m
    else:
        b += m
    return mpmath.mpf(2) ** (a + b - 1) * mpmath.beta(a, b)


def cases():
    for alpha, beta in PAIRS:
        for n in SIZES:
            if n < MAX_NODES or (alpha, beta) in LARGE_PAIRS:
                yield n, alpha, beta


@pytest.mark.parametrize("n, alpha, beta", list(cases()))
def test_nodes_increase_inside_and_match_scipy(n, alpha, beta):
    x, _ = _jacobi_rule(n, alpha, beta)
    assert x.shape == (n,)
    assert np.all(np.diff(x) > 0.0)
    assert -1.0 < x[0] and x[-1] < 1.0
    np.testing.assert_allclose(x, scipy_rule(n, alpha, beta)[0], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("alpha, beta", PAIRS)
@pytest.mark.parametrize("n", SIZES)
def test_weights_give_exact_moments(n, alpha, beta):
    x, w = _jacobi_rule(n, alpha, beta)
    assert np.all(w > 0.0)
    # the worst reading is about 3e-14, at 4096 nodes with an exponent
    # near -1; scipy's rules miss by up to 1e-6 there
    tol = 1e-12
    mu0 = float(jacobi_moment(alpha, beta, 0, "left"))
    assert math.fsum(w) == pytest.approx(mu0, rel=tol)
    for m in range(4):
        if m >= 2 * n:
            break
        for end, factor in (("left", 1.0 + x), ("right", 1.0 - x)):
            got = math.fsum(w * factor**m)
            exact = float(jacobi_moment(alpha, beta, m, end))
            assert got == pytest.approx(exact, rel=tol), (m, end)


def cos_series(p, le):
    """integral_0^1 cos(t) t**le (1-t)**(p-1) dt as its Beta series."""
    p, le = mpmath.mpf(p), mpmath.mpf(le)
    return mpmath.nsum(
        lambda k: (-1) ** k / mpmath.factorial(2 * k) * mpmath.beta(le + 2 * k + 1, p),
        [0, mpmath.inf],
    )


@pytest.mark.parametrize("p, le", SERIES_CASES)
def test_cos_series_beats_scipy_at_the_node_cap(p, le):
    exact = cos_series(p, le)

    def error(x, w):
        value = 0.5 ** (p + le) * math.fsum(w * np.cos(0.5 * (1.0 + x)))
        return abs(float(mpmath.mpf(value) / exact - 1))

    ours = error(*_jacobi_rule(MAX_NODES, p - 1.0, le))
    theirs = error(*scipy_rule(MAX_NODES, p - 1.0, le))
    assert ours < 1e-12
    assert 100.0 * ours <= theirs


@pytest.mark.parametrize("beta", [12.0, 20.0, 40.0])
@pytest.mark.parametrize("n", [2, 8, 64, 300])
def test_large_exponents_past_the_asymptotic_start(n, beta):
    # the asymptotic starting angles miss here; the Jacobi matrix supplies them
    for alpha in (-0.5, 0.0):
        x, w = _jacobi_rule(n, alpha, beta)
        assert np.all(np.diff(x) > 0.0)
        np.testing.assert_allclose(x, scipy_rule(n, alpha, beta)[0], rtol=0.0, atol=1e-15)
        for m in range(min(4, 2 * n)):
            exact = float(jacobi_moment(alpha, beta, m, "left"))
            assert math.fsum(w * (1.0 + x) ** m) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("beta", [-1.0 + 2.0**-52, -1.0 + 1e-12])
def test_exponent_at_the_minus_one_edge_builds_without_warnings(beta):
    # the eigenvalue start puts the node next to -1 on or past -1 itself;
    # it is kept inside, so no angle is nan or 0 (and no RuntimeWarning,
    # an error here, is raised on the way)
    x, w = _jacobi_rule(128, -0.5, beta)
    assert np.all(np.diff(x) > 0.0) and x[0] >= -1.0 and x[-1] < 1.0
    assert np.all(np.isfinite(w))


def test_a_rule_that_does_not_converge_raises_convergence_error_alone():
    # t**300 puts beta = 300 into the weight; at 1024 nodes both starts
    # give Halley passes that go astray through nan, which the builder
    # answers with ConvergenceError, and no RuntimeWarning comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConvergenceError, match=r"rule \(1024, -0.75, 300.0\)"):
            singular_integral(
                PowerSum([(1.0, 300.0)]), 0.5, 0.25, QuadratureConfig(node_count=1024)
            )


@pytest.mark.parametrize("n", [2, 3, 8, 64, 1024])
def test_legendre_nodes_match_numpy_and_weights_integrate_exactly(n):
    # numpy's leggauss weights drift (1e-9 at 1024 nodes), so the weights
    # are checked on x**2m, whose integral is 2 / (2m + 1)
    x, w = _jacobi_rule(n, 0.0, 0.0)
    np.testing.assert_allclose(x, np.polynomial.legendre.leggauss(n)[0], rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(w, w[::-1], rtol=1e-14, atol=0.0)
    for m in range(min(4, n)):
        assert math.fsum(w * x ** (2 * m)) == pytest.approx(2.0 / (2 * m + 1), rel=1e-14)


def test_rules_are_read_only():
    for x, w in (_jacobi_rule(8, -0.5, 0.25), _jacobi_rule(8, 0.0, 0.0)):
        assert not x.flags.writeable
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
