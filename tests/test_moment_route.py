"""Power-sum kernel integrals on [0, x] from cached rule moments.

The n-node Gauss-Jacobi estimate of sum(c t**d) over [0, x] has its nodes
at x * u_i, u = (1 + xi)/2, so it equals (x/2)**(p + le) *
sum(c x**d M_n(d)) with M_n(d) = sum_i w_i u_i**d: no node is sampled.
The sampled route (a callable integrand, which is evaluated at the nodes)
is the reference: every estimate, every converged value and every
exception of the moment route must match it.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abelfrac import (
    AbelProblem,
    ConvergenceError,
    DomainError,
    EvaluationError,
    Order,
    PiecewisePowerSum,
    PowerSum,
    QuadratureConfig,
    SolutionBackend,
    caputo_derivative,
    forward,
    kernel_integral,
    rl_integral,
    solve_convolution,
    solve_on_grid,
    solve_piecewise,
    solve_series,
    solve_theorem,
)
from abelfrac import quadrature
from abelfrac.functions import eval_terms
from abelfrac.quadrature import (
    DEFAULT_CONFIG,
    MAX_NODES,
    _jacobi_rule,
    _part,
    _power_sum_integral,
    _rows_integral,
    _rule_moment,
    derivative_kernel,
    singular_integral,
)
from abelfrac.special_functions import gamma, reflection_factor

RULE_SIZES = (2, 3, 8, 64, 128, 1024, 4096)
# a few weights, so the large rules are built once
ORDERS = (0.03, 0.25, 0.5, 0.8, 0.97)
LEFT = (-0.75, -0.25, 0.0, 0.5, 1.5)
# leading exponents of the operator inputs; their derivatives' leading
# powers stay clear of the t**-1 edge of the Jacobi weight
BASES = st.one_of(st.just(0.0), st.floats(0.01, 2.0))


def signed_terms(max_exp=7.0):
    term = st.tuples(
        st.floats(-3.0, 3.0).filter(lambda c: abs(c) > 1e-3),
        st.floats(0.0, max_exp),
    )
    return st.lists(term, min_size=1, max_size=4).map(tuple)


def sampled(terms, x, p, le, cfg=DEFAULT_CONFIG):
    """The same integral through the sampling estimator: a callable."""
    return singular_integral(lambda t: eval_terms(terms, t), x, p, cfg, left_exponent=le)


def moment_part(terms, le, p, cfg=DEFAULT_CONFIG):
    """The _Part of sum(c t**d) t**le at order p, at cfg and the node cap
    read at call time, as a call's route holds it."""
    return _part(terms, le, p, cfg, quadrature.MAX_NODES)


def moment_float(terms, le, x, p, cfg=DEFAULT_CONFIG):
    """A float x > 0 on the moment route of sum(c t**d) t**le, as a float
    call takes it: one pass over the rows of its _Part."""
    return _rows_integral(moment_part(terms, le, p, cfg), x, cfg)


def moment_scale(terms, x, p, le, n):
    """(x/2)**(p + le) * sum |c x**d M_n(d)|: the size of the rounding."""
    return (0.5 * x) ** (p + le) * sum(
        abs(c * x**d * _rule_moment(n, p - 1.0, le, d)) for c, d in terms
    )


def outcome(fn):
    try:
        return fn()
    except (ConvergenceError, DomainError, EvaluationError) as exc:
        return type(exc)


class TestEstimates:
    @settings(max_examples=80, deadline=None)
    @given(
        terms=signed_terms(),
        x=st.floats(1e-3, 10.0),
        p=st.sampled_from(ORDERS),
        le=st.sampled_from(LEFT),
        n=st.sampled_from(RULE_SIZES),
    )
    def test_moment_estimate_is_the_sampled_estimate(self, terms, x, p, le, n):
        xi, w = _jacobi_rule(n, p - 1.0, le)
        half = 0.5 * x
        got = half ** (p + le) * sum(
            c * x**d * _rule_moment(n, p - 1.0, le, d) for c, d in terms
        )
        ref = half ** (p + le) * float(np.dot(w, eval_terms(terms, half * (1.0 + xi))))
        assert abs(got - ref) <= 1e-13 * moment_scale(terms, x, p, le, n)

    @settings(max_examples=60, deadline=None)
    @given(
        terms=signed_terms(),
        x=st.floats(1e-3, 10.0),
        p=st.sampled_from(ORDERS),
        le=st.sampled_from(LEFT),
        n=st.sampled_from(RULE_SIZES),
    )
    def test_estimator_returns_the_same_rule_estimate(self, terms, x, p, le, n):
        # an abs_tol no difference can exceed stops either route at its
        # second rule (its only one at MAX_NODES), for a scalar and a grid
        cfg = QuadratureConfig(node_count=n, abs_tol=1e300)
        m = min(2 * n, MAX_NODES)
        bound = 1e-13 * moment_scale(terms, x, p, le, m)
        got = moment_float(terms, le, x, p, cfg)
        assert abs(got - sampled(terms, x, p, le, cfg)) <= bound
        xs = np.array([0.0, x])
        grid = _power_sum_integral(moment_part(terms, le, p, cfg), xs, cfg)
        assert grid[0] == 0.0
        assert abs(grid[1] - got) <= bound


def test_power_sums_are_not_sampled(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(quadrature, "_jacobi_integral", refuse)
    f = PowerSum(((1.5, 0.0), (0.5, 2.0)))
    xs = np.linspace(0.0, 2.0, 5)
    ref = rl_integral(f, 0.3, 2.0, backend="exact") * gamma(0.3)
    assert kernel_integral(f, 2.0, 0.3) == pytest.approx(ref, rel=1e-12)
    assert singular_integral(f, 2.0, 0.3) == pytest.approx(ref, rel=1e-12)
    assert singular_integral(f, xs, 0.3)[-1] == pytest.approx(ref, rel=1e-12)
    for backend in (SolutionBackend.CONVOLUTION_1826, SolutionBackend.THEOREM_1823):
        solve_on_grid(AbelProblem(f, Order(0.3)), xs, backend=backend)
    caputo_derivative(f, 0.3, 2.0, backend="quadrature")
    forward(f, 0.3, 2.0)
    # a callable is sampled, whatever it computes
    with pytest.raises(AssertionError, match="sampled"):
        singular_integral(lambda t: f(t), 2.0, 0.3)


class TestOperators:
    """Power sums whose exponents above the leading one step by integers
    converge at the first doubling on both routes; mixed lattices are
    the stall cases below."""

    @staticmethod
    def lattice_sum(base, coefs):
        return PowerSum((c, base + k) for k, c in enumerate(coefs))

    @staticmethod
    def assert_within_tol(got, ref, cfg=DEFAULT_CONFIG):
        assert abs(got - ref) <= max(cfg.abs_tol, cfg.rel_tol * abs(ref))

    @settings(max_examples=60, deadline=None)
    @given(
        base=BASES,
        coefs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
        n=st.floats(0.02, 0.98),
        x=st.floats(1e-3, 5.0),
    )
    def test_rl_integral_and_caputo_derivative(self, base, coefs, n, x):
        f = self.lattice_sum(base, coefs)
        if not f.terms:
            return
        le = f.min_exponent
        shifted = tuple((c, e - le) for c, e in f.terms)
        ref = sampled(shifted, x, n, le)
        self.assert_within_tol(kernel_integral(f, x, n), ref)
        got = rl_integral(f, n, x, backend="quadrature")
        self.assert_within_tol(got * gamma(n), ref)
        self.assert_within_tol(got, rl_integral(f, n, x, backend="exact"))

        slope = f.derivative_terms()
        if not slope:
            return
        le = min(e for _, e in slope)
        ref = sampled(tuple((c, e - le) for c, e in slope), x, 1.0 - n, le)
        self.assert_within_tol(derivative_kernel(f, x, 1.0 - n, DEFAULT_CONFIG), ref)
        got = caputo_derivative(f, n, x, backend="quadrature")
        self.assert_within_tol(got * gamma(1.0 - n), ref)
        self.assert_within_tol(got, caputo_derivative(f, n, x, backend="exact"))

    @settings(max_examples=40, deadline=None)
    @given(
        base=BASES,
        coefs=st.lists(st.floats(0.1, 2.0), min_size=1, max_size=3),
        n=st.floats(0.02, 0.98),
        a=st.floats(1e-3, 5.0),
    )
    def test_forward_returns_psi(self, base, coefs, n, a):
        psi = self.lattice_sum(base, coefs)
        s = solve_series(AbelProblem(psi, Order(n))).s
        slope = s.derivative_terms()
        le = min(e for _, e in slope)
        ref = sampled(tuple((c, e - le) for c, e in slope), a, 1.0 - n, le)
        # forward is the kernel integral of s' itself
        got = forward(s, n, a)
        self.assert_within_tol(got, ref)
        assert abs(got - psi(a)) <= 1e-8 * max(1.0, abs(psi(a)))

    @pytest.mark.parametrize("backend", [SolutionBackend.CONVOLUTION_1826,
                                         SolutionBackend.THEOREM_1823])
    @settings(max_examples=30, deadline=None)
    @given(
        base=BASES,
        coefs=st.lists(st.floats(0.1, 2.0), min_size=1, max_size=3),
        n=st.floats(0.02, 0.98),
        x_max=st.floats(0.05, 5.0),
    )
    def test_solvers_scalar_and_grid(self, backend, base, coefs, n, x_max):
        psi = self.lattice_sum(base, coefs)
        prob = AbelProblem(psi, Order(n))
        xs = np.linspace(0.0, x_max, 9)
        le = psi.min_exponent
        shifted = tuple((c, e - le) for c, e in psi.terms)
        ref = reflection_factor(n) * sampled(shifted, xs, n, le)
        exact = solve_series(prob).s(xs)
        grid = solve_on_grid(prob, xs, backend=backend).s.values
        point = solve_convolution if backend is SolutionBackend.CONVOLUTION_1826 else solve_theorem
        for k, x in enumerate(xs):
            self.assert_within_tol(grid[k], ref[k])
            self.assert_within_tol(point(prob, float(x)), ref[k])
            assert abs(grid[k] - exact[k]) <= 1e-8 * max(1.0, abs(exact[k]))


class TestOutcomes:
    """Where the sampled route raises, so does the moment route.  The
    overflow cases run with numpy's overflow warning off, as outside a
    test run: the error they check is the EvaluationError that follows."""

    HALF_LATTICE = PowerSum(((1.0, 0.0), (1.0, 0.5)))

    @pytest.mark.parametrize("cap", [MAX_NODES, 128])
    def test_half_lattice_forward_still_stalls(self, cap, monkeypatch):
        # psi = 1 + a^(1/2) at n = 1/4: s' carries t**(1/2) beyond its
        # leading power, so the rules converge only algebraically
        monkeypatch.setattr(quadrature, "MAX_NODES", cap)
        s = solve_series(AbelProblem(self.HALF_LATTICE, Order(0.25))).s
        slope = s.derivative_terms()
        le = min(e for _, e in slope)
        shifted = tuple((c, e - le) for c, e in slope)
        assert outcome(lambda: sampled(shifted, 0.7, 0.75, le)) is ConvergenceError
        with pytest.raises(ConvergenceError, match=f"{cap} nodes"):
            forward(s, 0.25, 0.7)

    @pytest.mark.parametrize("x", [8.0, 20.0])
    @np.errstate(over="ignore")
    def test_overflowing_power_sum_raises_at_the_same_node(self, x):
        # t**400 overflows beyond t = 5.9
        f = PowerSum(((1.0, 0.0), (1.0, 400.0)))
        with pytest.raises(EvaluationError) as ref:
            sampled(f.terms, x, 0.5, 0.0)
        with pytest.raises(EvaluationError) as got:
            kernel_integral(f, x, 0.5)
        assert got.value.t == ref.value.t
        xs = np.linspace(0.0, x, 5)
        with pytest.raises(EvaluationError) as ref:
            sampled(f.terms, xs, 0.5, 0.0)
        with pytest.raises(EvaluationError) as grid:
            solve_on_grid(AbelProblem(f, Order(0.5)), xs)
        assert grid.value.t == ref.value.t

    @np.errstate(over="ignore")
    def test_sum_of_terms_overflowing_raises(self):
        # each |c| x**d is finite, their sum is not: the sampled sum
        # overflows at every node above t = 0.92
        terms = ((1e308, 1.0), (1e308, 2.0))
        with pytest.raises(EvaluationError) as ref:
            sampled(terms, 1.2, 0.5, 0.0)
        with pytest.raises(EvaluationError) as got:
            moment_float(terms, 0.0, 1.2, 0.5)
        assert got.value.t == ref.value.t

    @np.errstate(over="ignore", invalid="ignore")
    def test_overflowing_estimate_takes_the_sampled_route(self, monkeypatch):
        # the samples are finite but their weighted sum is not: the sampled
        # route raises at its first estimate, a float takes that route, and
        # a grid raises the same at its own first estimate
        monkeypatch.setattr(quadrature, "MAX_NODES", 128)
        terms = ((1e308, 0.0),)
        ref = raised(lambda: sampled(terms, 2.0, 0.5, 0.0))
        assert ref[0] is ConvergenceError and "at 64 nodes is not finite" in ref[1]
        assert raised(lambda: moment_float(terms, 0.0, 2.0, 0.5)) == ref
        assert raised(lambda: _power_sum_integral(
            moment_part(terms, 0.0, 0.5), np.array([0.0, 2.0]), DEFAULT_CONFIG
        )) == ref

    @pytest.mark.parametrize(
        "call, x",
        [
            # t**300 at x = 100 and t**40 at x = 1e9: the leading power goes
            # into the weight, whose scale (x/2)**(e + 1/2) overflows a float
            (lambda x: singular_integral(PowerSum(((1.0, 300.0),)), x, 0.5), 100.0),
            (
                lambda x: rl_integral(PowerSum(((1.0, 300.0),)), 0.5, x, backend="quadrature"),
                100.0,
            ),
            (lambda x: singular_integral(PowerSum(((1.0, 40.0),)), x, 0.5), 1e9),
            # x/2 rounds to 0.0, and the scale 0.0**-0.85 is a float
            # ZeroDivisionError, an array inf
            (
                lambda x: caputo_derivative(
                    PowerSum(((1.0, 0.1),)), 0.95, x, backend="quadrature"
                ),
                5e-324,
            ),
        ],
        ids=["t300", "t300-rl", "t40", "subnormal-x"],
    )
    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def test_non_finite_scale_raises_at_the_first_rule(self, call, x):
        # a float call takes the sampled route, a one-point grid the moment
        # route; both raise at the first rule, not after doubling to the
        # cap (where t**40 at 1e9 once took 44 s and returned inf)
        grid = raised(lambda: call(np.array([x])))
        assert grid == (
            ConvergenceError,
            f"quadrature estimate at {DEFAULT_CONFIG.node_count} nodes is not "
            "finite (the integral or its scale overflows a float)",
        )
        assert raised(lambda: call(x)) == grid

    @pytest.mark.parametrize("e", [2.220446049250313e-16, 1e-12, 1e-9])
    def test_derivative_exponent_near_minus_one_is_a_domain_error(self, e):
        # t**(e - 1) holds 1 + le = e to about 2**-53 / e relative: fewer
        # digits than rel_tol asks for, so the quadrature refuses it
        f = PowerSum(((1.0, e),))
        with pytest.raises(DomainError, match="exact backend"):
            caputo_derivative(f, 0.5, 1.0, backend="quadrature")

    @pytest.mark.parametrize("pair", ["power_sum", "piecewise"])
    def test_leading_exponent_error_is_raised_at_every_call(self, pair):
        # the check runs where a call's route is built, a float's or an
        # array's, and a cache keeps no exception: a second call raises
        # again
        g = PowerSum(((1.0, 1e-12), (1.0, 1.0)))
        if pair == "piecewise":
            g = PiecewisePowerSum([0.5], [g, PowerSum(g.terms + ((-0.5, 0.0), (1.0, 1.0)))])
        before = quadrature._route.cache_info().currsize
        for x in (1.0, 1.0, np.array([0.25, 1.0])):
            with pytest.raises(DomainError, match="exact backend"):
                caputo_derivative(g, 0.5, x, backend="quadrature")
            with pytest.raises(DomainError, match="exact backend"):
                forward(g, 0.5, x)
        assert quadrature._route.cache_info().currsize == before
        # x = 0 gives 0 before any route is built
        assert forward(g, 0.5, 0.0) == 0.0

    @pytest.mark.parametrize("e", [1e-6, 1e-5])
    def test_derivative_exponent_clear_of_minus_one_meets_the_exact_backend(self, e):
        f = PowerSum(((1.0, e),))
        got = caputo_derivative(f, 0.5, 1.0, backend="quadrature")
        assert abs(got - caputo_derivative(f, 0.5, 1.0, backend="exact")) <= 1e-9

    def test_left_exponent_of_minus_one_is_a_domain_error(self):
        # x**1e-17 differentiates to t**-1 in floating point: no Jacobi weight
        f = PowerSum(((1.0, 1e-17),))
        assert outcome(lambda: sampled(((1e-17, 0.0),), 1.0, 0.5, -1.0)) is DomainError
        assert outcome(lambda: caputo_derivative(f, 0.5, 1.0, backend="quadrature")) is DomainError


def per_term_estimate(terms, x, p, le):
    """The n-node moment estimate summed term by term, left to right, one
    _rule_moment each: the float route's formula before the moments were
    cached.  An explicit loop, not sum(), which compensates its rounding
    on Python 3.12 and later."""
    def estimate(n):
        total = 0.0
        for c, d in terms:
            total += c * x**d * _rule_moment(n, p - 1, le, d)
        return (x / 2) ** (p + le) * total

    return estimate


def doubling(estimate, cfg):
    """Sequential doubling of the rule from n = node_count until two
    successive estimate(n) agree to tolerance, the cap read from the module
    at call time: the reference loop of the float route.  At the cap a
    mild shortfall returns the last estimate and disagreement two orders
    beyond tolerance raises ConvergenceError; a non-finite estimate is
    returned as it is."""
    cap = quadrature.MAX_NODES
    n = cfg.node_count
    val = estimate(n)
    while n < cap and math.isfinite(val):
        n = min(2 * n, cap)
        prev, val = val, estimate(n)
        err = abs(val - prev)
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(val))
        if err <= tol:
            break
        if n >= cap and err > 100.0 * tol:
            raise ConvergenceError(
                f"quadrature stalled at {n} nodes "
                f"(last change {err:.3e}, tolerance {tol:.3e})"
            )
    return val


def float_route(terms, x, p, le, cfg):
    """The float route by its definition: the sampled route where some
    c x**d, sum |c x**d| or the doubled estimate is not finite, else the
    sequential doubling of the per-term estimate."""
    size = 0.0
    try:
        for c, d in terms:
            size += abs(c * x**d)
    except OverflowError:
        return sampled(terms, x, p, le, cfg)
    if not math.isfinite(size):
        return sampled(terms, x, p, le, cfg)
    value = doubling(per_term_estimate(terms, x, p, le), cfg)
    return value if math.isfinite(value) else sampled(terms, x, p, le, cfg)


def raised(fn):
    """(type, message) of the exception fn raises, or its value."""
    try:
        return fn()
    except (ConvergenceError, DomainError, EvaluationError) as exc:
        return type(exc), str(exc)


class TestFloatPath:
    """A float limit reads its moments from the per-sum cache and its
    shifted terms from the route of the call; the values are those of the
    per-term formula, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        terms=signed_terms(),
        x=st.floats(1e-3, 10.0),
        p=st.sampled_from(ORDERS),
        le=st.sampled_from(LEFT),
    )
    # psi = c1 a^(1/2) + c2 a^2 differentiates to a sum whose part 1 +
    # t**(3/2) at le = -1/2 converges only algebraically: at x = 0.7 the
    # first pair meets the tolerance, at x = 2 the loop doubles once more
    @example(terms=((1.0, 0.0), (1.0, 1.5)), x=0.7, p=0.5, le=-0.5)
    @example(terms=((1.0, 0.0), (1.0, 1.5)), x=2.0, p=0.5, le=-0.5)
    def test_float_path_is_the_per_term_formula(self, terms, x, p, le):
        ref = raised(lambda: doubling(per_term_estimate(terms, x, p, le), DEFAULT_CONFIG))
        got = raised(lambda: moment_float(terms, le, x, p))
        assert got == ref

    @settings(max_examples=60, deadline=None)
    @given(
        terms=signed_terms(),
        x=st.floats(1e-3, 10.0),
        p=st.sampled_from(ORDERS),
        le=st.sampled_from(LEFT),
    )
    def test_power_sum_plan_factors_out_the_leading_power(self, terms, x, p, le):
        # singular_integral puts the sum's leading power d into the weight
        f = PowerSum(terms)
        d = f.min_exponent if f.terms else 0.0
        shifted = tuple((c, e - d) for c, e in f.terms)
        ref = raised(lambda: doubling(
            per_term_estimate(shifted, x, p, le + d), DEFAULT_CONFIG
        ))
        assert raised(lambda: singular_integral(f, x, p, left_exponent=le)) == ref

    @settings(max_examples=60, deadline=None)
    @given(
        # exponents up to 400 need 256 nodes and more, and overflow beyond
        # x = 5.9; the last sum overflows in sum |c x**d| near x = 1, while
        # its estimates need not
        terms=st.one_of(
            signed_terms(), signed_terms(400.0), st.just(((1e308, 5.0), (1e308, 6.0)))
        ),
        x=st.floats(1e-3, 10.0),
        p=st.sampled_from((0.25, 0.8)),
        le=st.sampled_from((0.0, 0.5)),
        n=st.sampled_from((2, 64, 2048, 4096)),
    )
    # a stall at the cap, x**400 overflowing, sum |c x**d| overflowing with
    # finite estimates, and a degree-300 term that 2048 nodes integrate
    @example(((1.0, 0.0), (1.0, 0.5)), 0.7, 0.25, 0.0, 2)
    @example(((1.0, 0.0), (1.0, 400.0)), 8.0, 0.8, 0.0, 64)
    @example(((1e308, 5.0), (1e308, 6.0)), 1.0, 0.8, 0.0, 64)
    @example(((1.0, 0.0), (-0.5, 300.0)), 1.5, 0.25, 0.5, 2048)
    @np.errstate(over="ignore", invalid="ignore")
    def test_one_pass_is_the_doubling_loop(self, terms, x, p, le, n):
        # the first two estimates come from one pass over the cached rows:
        # with the cap at n there is one rule, at 2n the pass holds both;
        # the same sum under both caps reads no row of the other
        for cap in (n, 2 * n, n):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(quadrature, "MAX_NODES", cap)
                cfg = QuadratureConfig(node_count=n)
                ref = raised(lambda: float_route(terms, x, p, le, cfg))
                assert raised(lambda: moment_float(terms, le, x, p, cfg)) == ref

    @pytest.mark.parametrize("x", [2.0, 8.0])
    @np.errstate(over="ignore")
    def test_overflowing_term_raises_through_the_sampled_route(self, x, monkeypatch):
        # c x**d overflows: the float route hands the sum to the sampled
        # route, which raises at its first overflowing node
        calls = []
        sampled_terms = quadrature._sampled_terms
        monkeypatch.setattr(
            quadrature, "_sampled_terms", lambda *a: calls.append(a[1]) or sampled_terms(*a)
        )
        terms = ((1.0, 0.0), (1.0, math.ceil(800.0 / math.log(x))))
        with pytest.raises(OverflowError):
            x ** terms[1][1]
        with pytest.raises(EvaluationError) as ref:
            sampled(terms, x, 0.5, 0.0)
        with pytest.raises(EvaluationError) as got:
            moment_float(terms, 0.0, x, 0.5)
        assert got.value.t == ref.value.t
        assert calls == [x]

    def test_cap_patched_after_a_warm_call(self, monkeypatch):
        # a float call's route is cached per node cap, read at call time:
        # a cap changed after a warm call holds from the next call on
        f = PowerSum(((1.0, 0.0), (-0.5, 300.0)))

        def ref():
            estimate = per_term_estimate(f.terms, 1.5, 0.25, 0.0)
            return raised(lambda: doubling(estimate, DEFAULT_CONFIG))

        warm = singular_integral(f, 1.5, 0.25)
        assert warm == ref()
        got = {}
        for cap in (128, 64, MAX_NODES):
            monkeypatch.setattr(quadrature, "MAX_NODES", cap)
            got[cap] = raised(lambda: singular_integral(f, 1.5, 0.25))
            assert got[cap] == ref()
        # at the 64-node cap the first rule is the only one
        assert got[MAX_NODES] == warm and got[64] != warm

    def test_capped_sum_still_raises(self, monkeypatch):
        # s' of the solution of psi = 1 + a^(1/2) at n = 1/4 (see
        # TestOutcomes): the doubling reaches the cap and stalls there
        monkeypatch.setattr(quadrature, "MAX_NODES", 128)
        s = solve_series(AbelProblem(TestOutcomes.HALF_LATTICE, Order(0.25))).s
        slope = s.derivative_terms()
        le = min(e for _, e in slope)
        shifted = tuple((c, e - le) for c, e in slope)
        ref = raised(lambda: doubling(per_term_estimate(shifted, 0.7, 0.75, le), DEFAULT_CONFIG))
        assert ref[0] is ConvergenceError and "128 nodes" in ref[1]
        assert raised(lambda: moment_float(shifted, le, 0.7, 0.75)) == ref

    @settings(max_examples=40, deadline=None)
    @given(
        base=BASES,
        coefs=st.lists(st.floats(0.1, 2.0), min_size=1, max_size=3),
        jump=st.lists(st.floats(0.1, 2.0), min_size=1, max_size=3),
        n=st.floats(0.02, 0.98),
        x=st.floats(1e-3, 5.0),
    )
    def test_public_float_entries_are_the_per_term_formula(self, base, coefs, jump, n, x):
        # each operator and solver, called at a float, returns the per-term
        # formula of its kernel integral over its Gamma or sin(n pi) / pi
        f = TestOperators.lattice_sum(base, coefs)

        def kernel(terms, y, p):
            lead = min(e for _, e in terms)
            shifted = tuple((c, e - lead) for c, e in terms)
            return doubling(per_term_estimate(shifted, y, p, lead), DEFAULT_CONFIG)

        assert rl_integral(f, n, x, backend="quadrature") == kernel(f.terms, x, n) / gamma(n)
        slope = f.derivative_terms()
        if slope:
            got = caputo_derivative(f, n, x, backend="quadrature")
            assert got == kernel(slope, x, 1.0 - n) / gamma(1.0 - n)
        s = solve_series(AbelProblem(f, Order(n))).s
        assert forward(s, n, x) == kernel(s.derivative_terms(), x, 1.0 - n)
        # a jump sum c_k (t - b)**(k + 1) of positive coefficients at b:
        # the parts add up with no cancellation, the jump's part taken in
        # s = t - b
        b = 0.5
        expanded = tuple(
            (c * math.comb(k, j) * (-b) ** (k - j), float(j))
            for k, c in enumerate(jump, 1) for j in range(k + 1)
        )
        pw = PiecewisePowerSum([b], [f, PowerSum(f.terms + expanded)])
        total = kernel(f.terms, x, n)
        if x > b:
            route = quadrature._route(pw, 0.0, False, n, DEFAULT_CONFIG, MAX_NODES)
            (_, polynomial, shifted), = route.jumps
            assert polynomial
            total += doubling(per_term_estimate(shifted.terms, x - b, n, 0.0), DEFAULT_CONFIG)
        got = solve_piecewise(AbelProblem(pw, Order(n)), x)
        assert got == math.sin(math.pi * n) / math.pi * total

    @settings(max_examples=60, deadline=None)
    @given(
        base=BASES,
        coefs=st.lists(st.floats(0.1, 2.0), min_size=1, max_size=4),
        p=st.floats(0.02, 0.98),
        x=st.floats(1e-3, 5.0),
        jump=st.lists(st.floats(0.1, 2.0), max_size=3),
        kind=st.sampled_from(("polynomial", "fractional")),
        b=st.floats(0.05, 4.0),
    )
    # a polynomial jump, taken from rule moments, and a fractional one,
    # sampled on [b, x]
    @example(0.0, [1.0, 0.5], 0.3, 2.0, [0.5, 1.0], "polynomial", 1.0)
    @example(0.5, [1.0, 0.5], 0.7, 2.0, [0.75], "fractional", 1.0)
    def test_float_call_is_the_one_point_grid(self, base, coefs, p, x, jump, kind, b):
        # with a jump, f is a two-segment sum: the lattice sum, then past b
        # that sum plus c_k (t - b)**k or c_k (t**(k - 1/2) - b**(k - 1/2)),
        # k = 1, 2, ...  The coefficients are positive, so the parts add
        # up with no cancellation
        f = TestOperators.lattice_sum(base, coefs)
        if kind == "polynomial":
            added = tuple(
                (c * math.comb(k, j) * (-b) ** (k - j), float(j))
                for k, c in enumerate(jump, 1) for j in range(k + 1)
            )
        else:
            added = tuple(
                term for k, c in enumerate(jump, 1)
                for term in ((c, k - 0.5), (-c * b ** (k - 0.5), 0.0))
            )
        if jump:
            f = PiecewisePowerSum([b], [f, PowerSum(f.terms + added)])
        one = np.array([x])
        for route in (
            lambda y: singular_integral(f, y, p),
            lambda y: derivative_kernel(f, y, p, DEFAULT_CONFIG),
        ):
            got, grid = route(x), route(one)
            assert isinstance(got, float) and grid.shape == (1,)
            assert abs(got - grid[0]) <= 1e-13 * abs(got)


MOMENT_CACHES = ("_moments", "_route")


class TestMomentCaches:
    @pytest.fixture(autouse=True)
    def empty_caches(self):
        for name in MOMENT_CACHES:
            getattr(quadrature, name).cache_clear()
        yield
        for name in MOMENT_CACHES:
            getattr(quadrature, name).cache_clear()

    @staticmethod
    def fill(name, k):
        if name == "_moments":
            quadrature._moments(8, -0.5, 0.0, (float(k),))
        else:
            f = PowerSum.monomial(1.0, float(k))
            quadrature._route(f, 0.0, False, 0.5, DEFAULT_CONFIG, MAX_NODES)

    @pytest.mark.parametrize("name", MOMENT_CACHES)
    def test_never_grows_past_maxsize(self, name):
        cache = getattr(quadrature, name)
        maxsize = cache.cache_parameters()["maxsize"]
        for k in range(maxsize + 3):
            self.fill(name, k)
            assert cache.cache_info().currsize <= maxsize
        assert cache.cache_info().currsize == maxsize

    @pytest.mark.parametrize("pair", ["power_sum", "piecewise"])
    def test_equal_functions_share_one_plan(self, pair):
        # equal but distinct instances hash equal, so the second finds the
        # first's route
        def build():
            if pair == "power_sum":
                return PowerSum(((1.5, 0.0), (0.5, 1.0)))
            return PiecewisePowerSum([0.5], [
                PowerSum(((1.0, 0.0), (2.0, 1.0))),
                PowerSum(((1.25, 0.0), (1.0, 1.0), (1.0, 2.0))),
            ])

        f, g = build(), build()
        assert f is not g and f == g
        assert singular_integral(f, 0.7, 0.3) == singular_integral(g, 0.7, 0.3)
        info = quadrature._route.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_warm_float_calls_build_nothing(self):
        # a second pass of float and grid calls on the same functions
        # misses no cache, and a power sum's moment route looks no rule up
        # at all; a grid call at the same (f, p) as a float call takes its
        # route
        psi = PowerSum(((1.5, 0.0), (0.5, 1.0), (0.25, 2.0)))
        s = solve_series(AbelProblem(psi, Order(0.3))).s
        pw = PiecewisePowerSum([0.5], [
            PowerSum(((1.0, 0.0), (2.0, 1.0))),
            PowerSum(((1.25, 0.0), (1.0, 1.0), (1.0, 2.0))),
        ])
        pw_prob = AbelProblem(pw, Order(0.5))
        grid = np.linspace(0.05, 1.0, 20)
        xs = [float(x) for x in grid]

        def power_sums(points):
            for x in points:
                rl_integral(psi, 0.3, x, backend="quadrature")
                caputo_derivative(psi, 0.3, x, backend="quadrature")
                forward(s, 0.3, x)
                solve_convolution(AbelProblem(psi, Order(0.3)), x)

        def piecewise(points):
            for x in points:
                solve_piecewise(pw_prob, x)

        caches = [_jacobi_rule] + [getattr(quadrature, name) for name in MOMENT_CACHES]
        power_sums(xs)
        piecewise(xs)
        # rl_integral and solve_convolution share psi's route at n = 0.3
        routes = quadrature._route.cache_info()
        assert routes.currsize == 4
        power_sums([grid])
        piecewise([grid])
        info = quadrature._route.cache_info()
        assert (info.misses, info.currsize) == (routes.misses, 4)
        before = [c.cache_info() for c in caches]
        power_sums(xs + [grid])
        assert _jacobi_rule.cache_info().hits == before[0].hits
        piecewise(xs + [grid])
        assert [c.cache_info().misses for c in caches] == [i.misses for i in before]
        assert quadrature._route.cache_info().currsize == 4
