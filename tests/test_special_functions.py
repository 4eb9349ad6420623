"""Gamma / beta / reflection-factor checks against external references.

Reference values were computed once with mpmath at 30 significant digits
and pasted in as literals, so these tests never call the code under test
to produce its own expected output.
"""

import math

import pytest

from abelfrac import DomainError, beta, gamma, log_gamma, reflection_factor


# (z, mpmath.gamma(z))
GAMMA_TABLE = [
    (0.1, 9.51350769866873),
    (0.5, 1.772453850905516),
    (1.0, 1.0),
    (1.5, 0.886226925452758),
    (2.0, 1.0),
    (4.7, 15.431411600047436),
    (7.5, 1871.2543057977884),
    (-0.5, -3.544907701811032),
    (-2.5, -0.9453087204829419),
    (0.001, 999.4237724845955),
    (170.0, 4.269068009004705e304),
    (171.5, 9.4833675668247993e307),  # just below overflow
]


@pytest.mark.parametrize("z, expected", GAMMA_TABLE)
def test_gamma_reference_values(z, expected):
    assert gamma(z) == pytest.approx(expected, rel=1e-13)


def test_gamma_integers_are_factorials():
    fact = 1.0
    for k in range(1, 12):
        assert gamma(float(k)) == pytest.approx(fact, rel=1e-13)
        fact *= k


def test_gamma_recurrence():
    for z in (0.3, 0.5, 1.7, 2.4, 9.9, 41.2):
        assert gamma(z + 1.0) == pytest.approx(z * gamma(z), rel=1e-12)


def test_gamma_poles_raise():
    for z in (0.0, -1.0, -2.0, -7.0):
        with pytest.raises(DomainError):
            gamma(z)


def test_gamma_rejects_nonfinite():
    with pytest.raises(DomainError):
        gamma(float("nan"))
    with pytest.raises(DomainError):
        gamma(float("inf"))


def test_overflow_gives_signed_infinity():
    assert gamma(172.0) == math.inf
    assert gamma(1e-310) == math.inf
    assert gamma(-1e-310) == -math.inf
    assert log_gamma(1e306) == math.inf


def test_log_gamma_subnormal_argument():
    # mpmath.loggamma(1e-310), about -log(1e-310)
    assert log_gamma(1e-310) == pytest.approx(713.80137882815417, rel=1e-14)


def test_log_gamma_large_arguments():
    # mpmath.loggamma
    assert log_gamma(300.5) == pytest.approx(1412.0535420412662, rel=1e-14)
    assert log_gamma(12345.678) == pytest.approx(103959.91990554606, rel=1e-14)


def test_log_gamma_matches_log_of_gamma():
    for z in (0.25, 1.0, 3.3, 20.0):
        assert log_gamma(z) == pytest.approx(math.log(gamma(z)), abs=1e-12)


def test_beta_reference_values():
    # mpmath.beta
    assert beta(2.5, 3.7) == pytest.approx(0.032727368606257835, rel=1e-13)
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)
    # large arguments go through log space without under/overflow
    assert beta(40.0, 55.5) == pytest.approx(3.291783370143988e-29, rel=1e-12)


def test_beta_symmetry_and_identity():
    for a, b in [(0.5, 1.5), (2.0, 3.0), (0.3, 0.7)]:
        assert beta(a, b) == pytest.approx(beta(b, a), rel=1e-14)
        assert beta(a, b) == pytest.approx(
            gamma(a) * gamma(b) / gamma(a + b), rel=1e-12
        )


def test_beta_requires_positive_arguments():
    with pytest.raises(DomainError):
        beta(-1.0, 2.0)
    with pytest.raises(DomainError):
        beta(1.0, 0.0)


def test_reflection_factor_against_sine():
    for n in (0.1, 0.25, 1.0 / 3.0, 0.5, 0.75, 0.9):
        assert reflection_factor(n) == pytest.approx(
            math.sin(n * math.pi) / math.pi, rel=1e-14
        )


def test_reflection_factor_is_reciprocal_gamma_product():
    for n in (0.2, 0.5, 0.65):
        assert reflection_factor(n) * gamma(n) * gamma(1.0 - n) == pytest.approx(
            1.0, rel=1e-12
        )


def test_reflection_factor_order_bounds():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            reflection_factor(bad)
