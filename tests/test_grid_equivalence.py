"""The one-pass grid routines against the per-point routines they batch.

solve_on_grid evaluates a whole grid in one vectorised pass; every value
must equal what the scalar route returns for that point alone, including
where the node cap makes it return or raise.  The references are the float
calls of the public routines (singular_integral, singular_integral_tabulated),
each point on its own.  The kernel integrals, derivative_kernel, the
operators and forward take a 1-d x too, and are held to the same rule.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelfrac import (
    DEFAULT_CONFIG,
    AbelProblem,
    ConvergenceError,
    DomainError,
    Order,
    PiecewisePowerSum,
    PowerSum,
    QuadratureConfig,
    SolutionBackend,
    TabulatedFunction,
    caputo_derivative,
    composition_check,
    derivative_kernel,
    descent_time_integral,
    forward,
    kernel_integral,
    reflection_factor,
    rl_integral,
    singular_integral,
    solve_convolution,
    solve_on_grid,
    solve_piecewise,
    solve_theorem,
)
from abelfrac import quadrature
from abelfrac.quadrature import graded_mesh, singular_integral_tabulated

CONV = SolutionBackend.CONVOLUTION_1826
THEOREM = SolutionBackend.THEOREM_1823
RTOL = 1e-13

# exponents from {0, 1/2, 1, 3/2, 2} with no two 1/2 apart (such pairs
# stall the doubling at the node cap)
EXPONENT_SETS = [
    s
    for k in (1, 2, 3)
    for s in itertools.combinations((0.0, 0.5, 1.0, 1.5, 2.0), k)
    if all(abs(b - a) != 0.5 for a, b in itertools.combinations(s, 2))
]


def scalar_route(prob: AbelProblem, x: float, cfg=DEFAULT_CONFIG) -> float:
    """s(x) through the per-point rule: the leading power of psi factored
    into the Jacobi weight on [0, x].  Both quadrature backends take it."""
    n = float(prob.n)
    le = prob.psi.min_exponent
    g = PowerSum((c, e - le) for c, e in prob.psi.terms)
    return reflection_factor(n) * singular_integral(g, x, n, cfg, left_exponent=le)


def assert_close(got, ref):
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    np.testing.assert_array_equal(got == 0.0, ref == 0.0)
    nz = ref != 0.0
    assert np.max(np.abs(got[nz] - ref[nz]) / np.abs(ref[nz]), initial=0.0) <= RTOL


@st.composite
def power_sums(draw):
    exps = draw(st.sampled_from(EXPONENT_SETS))
    coefs = draw(
        st.lists(st.floats(0.1, 3.0), min_size=len(exps), max_size=len(exps))
    )
    return PowerSum(zip(coefs, exps))


# node_count=2 makes the points of one grid converge at different
# doublings, and abs_tol=1e-4 decides where many of them stop
CONFIGS = [DEFAULT_CONFIG, QuadratureConfig(node_count=2, abs_tol=1e-4)]


class TestClosedFormGrid:
    @pytest.mark.parametrize("backend", [CONV, THEOREM])
    @pytest.mark.parametrize("cfg", CONFIGS)
    @settings(max_examples=40, deadline=None)
    @given(psi=power_sums(), n=st.floats(0.05, 0.95), x_max=st.floats(0.2, 3.0))
    def test_grid_equals_scalar_route(self, backend, cfg, psi, n, x_max):
        prob = AbelProblem(psi, Order(n))
        xs = np.linspace(0.0, x_max, 33)
        got = solve_on_grid(prob, xs, cfg, backend).s.values
        ref = [0.0] + [scalar_route(prob, x, cfg) for x in xs[1:]]
        assert_close(got, ref)
        point = solve_convolution if backend is CONV else solve_theorem
        assert_close(got, [point(prob, x, cfg) for x in xs])


class TestTheoremIsConvolution:
    """Abel's scaling form is the convolution form after a = x t, and the
    Gauss-Jacobi rule of [0, 1] scaled to [0, x] is the rule of [0, x]:
    the two backends give the same bits, also where a loose abs_tol lets
    points stop early."""

    @pytest.mark.parametrize("cfg", CONFIGS)
    @settings(max_examples=40, deadline=None)
    @given(psi=power_sums(), n=st.floats(0.05, 0.95), x_max=st.floats(0.2, 3.0))
    def test_same_values_on_grids_and_points(self, cfg, psi, n, x_max):
        prob = AbelProblem(psi, Order(n))
        xs = np.linspace(0.0, x_max, 33)
        theorem = solve_on_grid(prob, xs, cfg, THEOREM).s.values
        assert np.array_equal(theorem, solve_on_grid(prob, xs, cfg, CONV).s.values)
        points = [solve_theorem(prob, x, cfg) for x in xs]
        assert np.array_equal(points, [solve_convolution(prob, x, cfg) for x in xs])


class TestNodeCapParity:
    @pytest.mark.parametrize("backend", [CONV, THEOREM])
    def test_returns_or_raises_where_scalar_does(self, backend, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_NODES", 128)
        prob = AbelProblem(PowerSum([(1.0, 0.0), (1.0, 0.5)]), Order(0.5))
        xs = np.linspace(0.0, 4.0, 41)
        ref = [0.0]
        for x in xs[1:]:
            try:
                ref.append(scalar_route(prob, x))
            except ConvergenceError:
                break
        # both outcomes occur on this grid: mild shortfalls return, then
        # the scalar route raises from some point on
        first_raise = len(ref)
        assert 2 < first_raise < xs.size
        sol = solve_on_grid(prob, xs[:first_raise], backend=backend)
        assert_close(sol.s.values, ref)
        with pytest.raises(ConvergenceError, match="128 nodes"):
            solve_on_grid(prob, xs[: first_raise + 1], backend=backend)
        for x in xs[first_raise:]:
            with pytest.raises(ConvergenceError):
                scalar_route(prob, x)


def _table(t, values_seed):
    rng = np.random.default_rng(values_seed)
    return TabulatedFunction(t, 1.0 + np.sqrt(t) + 0.1 * rng.random(t.size))


def _per_point(f, xs, p):
    return [singular_integral_tabulated(f, float(x), p) for x in xs]


def _forbid(monkeypatch, name):
    def fail(*args):
        raise AssertionError(f"{name} must not run on this grid")

    monkeypatch.setattr(quadrature, name, fail)


class TestTabulatedGrid:
    @settings(max_examples=15, deadline=None)
    @given(p=st.floats(0.05, 0.95), x_max=st.floats(0.2, 5.0), seed=st.integers(0, 99))
    def test_uniform_on_node_grid_is_one_convolution(self, p, x_max, seed):
        f = _table(np.linspace(0.0, x_max, 201), seed)
        with pytest.MonkeyPatch.context() as mp:
            _forbid(mp, "_tabulated_dense")
            got = singular_integral_tabulated(f, f.xs, p)
        assert_close(got, _per_point(f, f.xs, p))

    @settings(max_examples=15, deadline=None)
    @given(p=st.floats(0.05, 0.95), seed=st.integers(0, 99))
    def test_perturbed_grid_takes_dense_path(self, p, seed):
        t = np.linspace(0.0, 1.0, 201)
        t[1:-1] += 1e-9 * np.random.default_rng(seed).uniform(-1.0, 1.0, t.size - 2)
        f = _table(t, seed)
        with pytest.MonkeyPatch.context() as mp:
            _forbid(mp, "_tabulated_toeplitz")
            got = singular_integral_tabulated(f, f.xs, p)
        assert_close(got, _per_point(f, f.xs, p))

    @settings(max_examples=15, deadline=None)
    @given(p=st.floats(0.05, 0.95), q=st.floats(1.0, 4.0), seed=st.integers(0, 99))
    def test_graded_mesh(self, p, q, seed):
        f = _table(graded_mesh(2.0, 201, exponent=q), seed)
        got = singular_integral_tabulated(f, f.xs, p)
        assert_close(got, _per_point(f, f.xs, p))

    @settings(max_examples=15, deadline=None)
    @given(p=st.floats(0.05, 0.95), seed=st.integers(0, 99))
    def test_outputs_off_the_table_nodes(self, p, seed):
        f = _table(np.linspace(0.0, 1.0, 1001), seed)
        rng = np.random.default_rng(seed)
        xs = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 20))))
        got = singular_integral_tabulated(f, xs, p)
        assert_close(got, _per_point(f, xs, p))

    @settings(max_examples=30, deadline=None)
    @given(
        p=st.floats(0.05, 0.95),
        x=st.floats(0.0, 1.0),
        size=st.sampled_from([11, 201, 1001]),
        perturbed=st.booleans(),
        points=st.integers(0, 600),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dense_row_is_independent_of_its_grid(self, p, x, size, perturbed, points, seed):
        # each row sums its own cells in fixed chunks, so a point's bits do
        # not depend on the points that share its row block
        rng = np.random.default_rng(seed)
        t = np.linspace(0.0, 1.0, size)
        if perturbed:
            t[1:-1] += 1e-9 * rng.uniform(-1.0, 1.0, size - 2)
        f = _table(t, seed % 100)
        others = np.concatenate((rng.uniform(0.0, 1.0, points), rng.choice(t, points // 4)))
        grid = np.insert(rng.permutation(others), rng.integers(0, others.size + 1), x)
        where = int(np.flatnonzero(grid == x)[0])
        own = quadrature._tabulated_dense(f, np.array([x]), p)[0]
        assert quadrature._tabulated_dense(f, grid, p)[where] == own

    def test_grid_solvers_route_tabulated_psi_through_it(self):
        f = _table(np.linspace(0.0, 1.0, 101), 0)
        prob = AbelProblem(f, Order(0.3))
        rf = reflection_factor(0.3)
        for backend in (CONV, SolutionBackend.NUMERIC_PRODUCT):
            got = solve_on_grid(prob, f.xs, backend=backend).s.values
            assert_close(got, [rf * v for v in _per_point(f, f.xs, 0.3)])


# ---------------------------------------------------------------------------
# kernel integrals, operators, forward and the pointwise solvers on 1-d x

N = 0.3

INPUTS = {
    "power_sum": PowerSum([(1.3, 0.0), (0.7, 1.0), (0.4, 2.5)]),
    "fractional": PowerSum([(2.0, 0.5), (1.5, 1.5)]),
    # continuous at the breakpoint; the second jump has a fractional power,
    # which is sampled on [0.5, x]
    "piecewise": PiecewisePowerSum(
        (0.4,), (PowerSum([(1.0, 0.0), (1.0, 1.0)]), PowerSum([(0.6, 0.0), (2.0, 1.0)]))
    ),
    "piecewise_fractional": PiecewisePowerSum(
        (0.5,),
        (PowerSum([(1.0, 0.0), (1.0, 1.0)]), PowerSum([(1.5 - 0.5**1.5, 0.0), (1.0, 1.5)])),
    ),
    "tabulated": _table(np.linspace(0.0, 1.0, 201), 3),
    "callable": np.exp,
}
POWER_SUMS = ("power_sum", "fractional")
# a power sum whose derivative leads with t**(1e-12 - 1), too close to
# t**-1 for the quadrature, and a two-segment sum led by it
NEAR_MINUS_ONE = PowerSum([(1.0, 1e-12), (1.0, 1.0)])
AT_ZERO = {
    **{name: INPUTS[name] for name in ("power_sum", "piecewise", "piecewise_fractional")},
    "near_minus_one": NEAR_MINUS_ONE,
    "near_minus_one_piecewise": PiecewisePowerSum(
        [0.5], [NEAR_MINUS_ONE, PowerSum(NEAR_MINUS_ONE.terms + ((-0.5, 0.0), (1.0, 1.0)))]
    ),
}
DIFFERENTIABLE = tuple(k for k in INPUTS if k != "callable")

# name -> (call(f, x), the inputs it takes, whether x = 0 is allowed)
OPERATORS = {
    "kernel_integral": (lambda f, x: kernel_integral(f, x, N), tuple(INPUTS), True),
    "singular_integral": (lambda f, x: singular_integral(f, x, N), tuple(INPUTS), True),
    "rl_exact": (lambda f, x: rl_integral(f, N, x, backend="exact"), POWER_SUMS, True),
    "rl_quadrature": (
        lambda f, x: rl_integral(f, N, x, backend="quadrature"), tuple(INPUTS), True
    ),
    "caputo_exact": (
        lambda f, x: caputo_derivative(f, N, x, backend="exact"), POWER_SUMS, False
    ),
    "caputo_quadrature": (
        lambda f, x: caputo_derivative(f, N, x, backend="quadrature"), DIFFERENTIABLE, False
    ),
    "derivative_kernel": (
        lambda f, x: derivative_kernel(f, x, 1.0 - N), DIFFERENTIABLE, True
    ),
    "forward": (lambda f, x: forward(f, N, x), DIFFERENTIABLE, True),
    # the pointwise solvers, psi being any function spec
    "solve_convolution": (
        lambda f, x: solve_convolution(AbelProblem(f, Order(N)), x), DIFFERENTIABLE, True
    ),
    "solve_theorem": (
        lambda f, x: solve_theorem(AbelProblem(f, Order(N)), x), DIFFERENTIABLE, True
    ),
    "solve_piecewise": (
        lambda f, x: solve_piecewise(AbelProblem(f, Order(0.5)), x), DIFFERENTIABLE, True
    ),
}
# the K[f] entries that take a table
TABULATED_KERNELS = (
    "kernel_integral", "singular_integral", "rl_quadrature",
    "solve_convolution", "solve_theorem", "solve_piecewise",
)
CASES = [
    pytest.param(op, name, id=f"{op}-{name}")
    for op, (_, names, _) in OPERATORS.items()
    for name in names
]


def _exact(op: str, name: str) -> bool:
    """Array calls that must give the scalar calls' bits: the closed
    forms, and every operator on a table, K[f] and K[f'] alike (a node
    point reads the node cache point by point, as a float at a node does,
    and a float off the nodes is the one-point grid of the cell sum or
    the rule), on grids that mix nodes with other points too."""
    return op.endswith("_exact") or name == "tabulated"


def _points(zero: bool) -> np.ndarray:
    # table nodes (the 201-node table's node integrals) and points between
    # them, across the breakpoints; the 1-d x starts at 0 where allowed
    rng = np.random.default_rng(7)
    xs = np.concatenate((np.linspace(0.0, 1.0, 21), rng.uniform(0.0, 1.0, 20)))
    return xs if zero else xs[1:]


class TestOperatorsOnArrays:
    @pytest.mark.parametrize("op, name", CASES)
    def test_array_equals_scalar_calls(self, op, name):
        call, _, zero = OPERATORS[op]
        f = INPUTS[name]
        xs = _points(zero)
        got = call(f, xs)
        ref = [call(f, float(x)) for x in xs]
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        assert all(type(v) is float for v in ref)
        if _exact(op, name):
            assert np.array_equal(got, ref)
        else:
            assert_close(got, ref)

    @pytest.mark.parametrize("op", TABULATED_KERNELS)
    @pytest.mark.parametrize("table", ["uniform", "graded"])
    def test_tabulated_kernel_off_the_nodes_is_bit_for_bit(self, op, table):
        # no node read on either side: a float off the nodes is the
        # one-point grid of the cell sum, whose rows do not depend on
        # their block
        call = OPERATORS[op][0]
        xs = np.random.default_rng(11).uniform(0.0, 1.0, 300)
        if table == "uniform":
            f = INPUTS["tabulated"]
            xs = np.concatenate(([0.0], xs))
        else:
            f = _table(graded_mesh(1.0, 201, exponent=2.0), 5)
            xs = np.concatenate((f.xs, xs))
        got = call(f, xs)
        assert np.array_equal(got, [call(f, float(x)) for x in xs])

    @pytest.mark.parametrize("op, name", CASES)
    def test_empty_array_gives_empty_array(self, op, name):
        got = OPERATORS[op][0](INPUTS[name], np.array([]))
        assert isinstance(got, np.ndarray) and got.shape == (0,)

    @pytest.mark.parametrize("op, name", CASES)
    def test_2d_or_negative_x_is_domain_error(self, op, name):
        call = OPERATORS[op][0]
        f = INPUTS[name]
        with pytest.raises(DomainError):
            call(f, np.full((2, 3), 0.5))
        with pytest.raises(DomainError):
            call(f, np.array([0.5, -0.25]))
        with pytest.raises(DomainError):
            call(f, -0.25)
        # every comparison with nan is false: a range check must still see it
        for bad in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(DomainError):
                call(f, bad)

    @pytest.mark.parametrize("op", ["caputo_exact", "caputo_quadrature"])
    def test_derivative_at_zero_is_domain_error(self, op):
        with pytest.raises(DomainError):
            OPERATORS[op][0](INPUTS["power_sum"], np.array([0.5, 0.0]))

    @pytest.mark.parametrize("name", DIFFERENTIABLE)
    def test_nan_point_solve_is_domain_error(self, name):
        # the one-point solvers and the descent time, which take a float
        prob = AbelProblem(INPUTS[name], Order(0.5))
        for call in (solve_convolution, solve_theorem):
            with pytest.raises(DomainError):
                call(prob, math.nan)
        with pytest.raises(DomainError):
            descent_time_integral(INPUTS[name], math.nan)

    @pytest.mark.parametrize("op", ["forward", "derivative_kernel"])
    @pytest.mark.parametrize("name", DIFFERENTIABLE)
    def test_kernel_is_zero_at_zero(self, op, name):
        call = OPERATORS[op][0]
        got = call(INPUTS[name], np.array([0.0, 0.5, 0.0]))
        assert got[0] == 0.0 and got[2] == 0.0 and got[1] != 0.0
        got = call(INPUTS[name], 0.0)
        assert type(got) is float and got == 0.0


class TestDerivativeKernel:
    """derivative_kernel is the one dispatch of K[f']: forward is its call
    at p = 1 - n, and only f with a derivative are taken."""

    def test_tabulated_kernel_still_refuses_zero(self):
        with pytest.raises(DomainError):
            quadrature.tabulated_derivative_kernel(INPUTS["tabulated"], 0.0, 1.0 - N)

    @pytest.mark.parametrize("name", DIFFERENTIABLE)
    def test_forward_is_the_kernel_at_one_minus_n(self, name):
        f = INPUTS[name]
        xs = _points(True)
        assert np.array_equal(forward(f, N, xs), derivative_kernel(f, xs, 1.0 - N))
        for x in xs:
            assert forward(f, N, float(x)) == derivative_kernel(f, float(x), 1.0 - N)

    def test_order_that_rounds_p_to_one(self):
        # 1 - n is 1.0 for n below 2**-54; there K[f'](x) = f(x) - f(0)
        f = INPUTS["piecewise"]
        assert forward(f, 1e-17, 0.5) == pytest.approx(f(0.5) - f(0.0), rel=1e-12)
        assert derivative_kernel(f, 0.5, 1) == forward(f, 1e-17, 0.5)

    def test_order_that_rounds_p_to_one_on_a_table(self):
        # the same on the interpolant, exactly, for a float and for a 1-d x
        t = np.linspace(0.0, 1.0, 101)
        f = TabulatedFunction(t, 2.0 * np.sqrt(t))
        for a in (0.5, float(t[37]), 1.0, 0.0):
            assert forward(f, 1e-17, a) == f(a) - f(0.0)
        xs = np.concatenate((t, [0.123, 0.987]))
        assert np.array_equal(forward(f, 1e-17, xs), f(xs) - f(0.0))
        assert np.array_equal(derivative_kernel(f, xs, 1.0), f(xs) - f(0.0))

    @pytest.mark.parametrize("x", [0.5, 0.0, np.array([0.0, 0.5])], ids=["float", "zero", "grid"])
    def test_bare_callable_is_domain_error(self, x):
        with pytest.raises(DomainError, match="carry no derivative"):
            derivative_kernel(INPUTS["callable"], x, 1.0 - N)


class TestOneDispatch:
    """singular_integral picks the route of each representation, so it
    equals kernel_integral on every input; with a left weight, piecewise
    input is sampled like any callable and tabulated input is refused."""

    @pytest.mark.parametrize("name", list(INPUTS))
    def test_singular_integral_is_kernel_integral(self, name):
        f = INPUTS[name]
        xs = _points(True)
        assert np.array_equal(singular_integral(f, xs, N), kernel_integral(f, xs, N))
        for x in xs:
            assert singular_integral(f, float(x), N) == kernel_integral(f, float(x), N)

    @pytest.mark.parametrize("f", [INPUTS["piecewise"]], ids=["piecewise"])
    def test_left_weight_samples_the_input(self, f):
        got = singular_integral(f, 0.8, N, left_exponent=0.25)
        sampled = singular_integral(lambda t: f(t), 0.8, N, left_exponent=0.25)
        assert got == sampled

    @pytest.mark.parametrize("x", [0.8, np.array([0.2, 0.8])], ids=["float", "grid"])
    def test_left_weight_on_tabulated_input_is_a_domain_error(self, x):
        # product integration takes no left weight, and sampling the
        # interpolant under one stalls at its kinks
        f = TabulatedFunction([0.0, 1.0], [1.0, 3.0])
        with pytest.raises(DomainError, match="left weight"):
            singular_integral(f, x, N, left_exponent=0.25)

    @pytest.mark.parametrize("derivative", [False, True])
    @pytest.mark.parametrize("name", list(AT_ZERO))
    def test_piecewise_kernel_at_zero(self, name, derivative):
        # x = 0 gives 0, and an array of zeros zeros, for a float and an
        # array alike: also where the derivative's leading exponent is
        # too close to -1, which any point x > 0 refuses
        f = AT_ZERO[name]
        if derivative:
            calls = (lambda x: derivative_kernel(f, x, 1.0 - N), lambda x: forward(f, N, x))
        else:
            calls = (lambda x: singular_integral(f, x, N),)
        for call in calls:
            got = call(0.0)
            assert type(got) is float and got == 0.0
            assert np.array_equal(call(np.zeros(2)), np.zeros(2))
            if derivative and name.startswith("near_minus_one"):
                for x in (0.5, np.array([0.0, 0.5])):
                    with pytest.raises(DomainError, match="exact backend"):
                        call(x)


# ---------------------------------------------------------------------------
# every float entry on bad input: each check runs once, at the entry


# name -> (call(f, n, x), the inputs it takes, whether x = 0 is allowed);
# n is the kernel exponent p for the kernels (derivative_kernel,
# tabulated_derivative_kernel and singular_integral)
FLOAT_ENTRIES = {
    "rl_exact": (lambda f, n, x: rl_integral(f, n, x, backend="exact"), POWER_SUMS, True),
    "rl_quadrature": (
        lambda f, n, x: rl_integral(f, n, x, backend="quadrature"), DIFFERENTIABLE, True
    ),
    "caputo_exact": (
        lambda f, n, x: caputo_derivative(f, n, x, backend="exact"), POWER_SUMS, False
    ),
    "caputo_quadrature": (
        lambda f, n, x: caputo_derivative(f, n, x, backend="quadrature"), DIFFERENTIABLE, False
    ),
    "forward": (lambda f, n, x: forward(f, n, x), DIFFERENTIABLE, True),
    "derivative_kernel": (lambda f, p, x: derivative_kernel(f, x, p), DIFFERENTIABLE, True),
    "singular_integral": (lambda f, p, x: singular_integral(f, x, p), DIFFERENTIABLE, True),
    "solve_convolution": (
        lambda f, n, x: solve_convolution(AbelProblem(f, n), x), DIFFERENTIABLE, True
    ),
    "solve_theorem": (
        lambda f, n, x: solve_theorem(AbelProblem(f, n), x), DIFFERENTIABLE, True
    ),
    "solve_piecewise": (
        lambda f, n, x: solve_piecewise(AbelProblem(f, n), x), DIFFERENTIABLE, True
    ),
    "tabulated_derivative_kernel": (
        lambda f, p, x: quadrature.tabulated_derivative_kernel(f, x, p), ("tabulated",), False
    ),
    # f(0) = 0, so only a bad order or point can make the call fail
    "composition_check": (lambda f, n, x: composition_check(f, n, x), ("fractional",), False),
}
# the entries that take a float x and no array
FLOAT_ONLY = ("tabulated_derivative_kernel", "composition_check")
# the entries that take p = 1, the kernel of an order that rounds 1 - n to 1
P_ONE = ("derivative_kernel", "tabulated_derivative_kernel")


def _bad_float_calls():
    for entry, (_, names, zero) in FLOAT_ENTRIES.items():
        for name in names:
            cases = [
                ("nan", N, math.nan),
                ("negative", N, -0.25),
                ("inf", N, math.inf),
                ("minus-inf", N, -math.inf),
                ("inf-in-array", N, np.array([0.5, math.inf])),
            ]
            if not zero:
                cases.append(("zero", N, 0.0))
            if entry in FLOAT_ONLY:
                cases += [("array", N, np.array([0.5, 0.6])), ("one-point-array", N, np.array([0.5]))]
            orders = (0.0, math.nan) if entry in P_ONE else (0.0, 1.0, math.nan)
            cases += [(f"order-{n}", n, 0.5) for n in orders]
            for bad, n, x in cases:
                yield pytest.param(entry, name, n, x, id=f"{entry}-{name}-{bad}")


class TestFloatEntriesOnBadInput:
    """A float call checks its order and point once, at its public entry:
    each bad order or point is still a DomainError.  So is x = +-inf, as a
    float or inside an array, on every input: not a value read at
    scale = inf**0 = 1, an EvaluationError from the samples, or a bare
    OverflowError from a table's node index.  An entry that takes no
    array gives a DomainError for one, not numpy's TypeError from
    float(x)."""

    @pytest.mark.parametrize("entry, name, n, x", list(_bad_float_calls()))
    def test_is_domain_error(self, entry, name, n, x):
        with pytest.raises(DomainError):
            FLOAT_ENTRIES[entry][0](INPUTS[name], n, x)


def _message_cases():
    f, t = INPUTS["power_sum"], INPUTS["tabulated"]
    kernel_p = r"kernel exponent must satisfy 0 < p < 1, got 1\.5"
    order_n = r"order must satisfy 0 < n < 1, got 1\.5"
    cases = {
        # a kernel names its exponent p, which derivative_kernel takes up to 1
        "singular_integral-p": (lambda: singular_integral(f, 0.5, 1.5), kernel_p),
        "kernel_integral-p": (lambda: kernel_integral(f, 0.5, 1.5), kernel_p),
        "singular_integral_tabulated-p": (lambda: singular_integral_tabulated(t, 0.5, 1.5), kernel_p),
        "derivative_kernel-p": (
            lambda: derivative_kernel(f, 0.5, 1.5), r"kernel exponent must satisfy 0 < p <= 1"
        ),
        "tabulated_derivative_kernel-p": (
            lambda: quadrature.tabulated_derivative_kernel(t, 0.5, 1.5), r"0 < p <= 1, got 1\.5"
        ),
        # an operator, forward and composition_check name the order n
        "rl_integral-n": (lambda: rl_integral(f, 1.5, 0.5), order_n),
        "caputo_derivative-n": (lambda: caputo_derivative(f, 1.5, 0.5), order_n),
        "forward-n": (lambda: forward(f, 1.5, 0.5), order_n),
        "composition_check-n": (lambda: composition_check(f, 1.5, 0.5), order_n),
        # the points
        "negative": (lambda: singular_integral(f, -0.5, N), r"x must be >= 0, got -0\.5"),
        "zero": (lambda: caputo_derivative(f, N, 0.0), r"x must be > 0, got 0\.0"),
        "nan": (lambda: rl_integral(f, N, np.array([0.5, math.nan])), "x must be finite, got nan"),
        "2-d": (lambda: forward(f, N, np.ones((2, 2))), "x must be a float or a 1-d array, got 2-d"),
        "array": (
            lambda: quadrature.tabulated_derivative_kernel(t, np.array([0.5, 0.6]), N),
            r"x must be a float, got an array of shape \(2,\)",
        ),
        "left_exponent": (
            lambda: singular_integral(f, 0.5, N, left_exponent=-1.0), "left_exponent must be > -1"
        ),
        # the integrand
        "non-callable": (lambda: singular_integral(3.0, 0.5, N), "unsupported integrand type float"),
        "non-callable-grid": (
            lambda: singular_integral(3.0, np.array([0.0, 0.5]), N), "unsupported integrand type"
        ),
        "non-callable-rl": (
            lambda: rl_integral(3.0, N, 0.5, backend="quadrature"), "unsupported integrand type"
        ),
        "callable-derivative": (lambda: forward(np.exp, N, 0.5), "carry no derivative"),
    }
    return [pytest.param(call, match, id=name) for name, (call, match) in cases.items()]


class TestCheckMessages:
    """Each check names the argument the caller passed: a kernel's exponent
    p, or the order n of an operator, of forward and of composition_check;
    a non-callable integrand is a DomainError at singular_integral too."""

    @pytest.mark.parametrize("call, match", _message_cases())
    def test_message(self, call, match):
        with pytest.raises(DomainError, match=match):
            call()
