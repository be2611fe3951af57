"""Tests for the log-gamma/digamma/polygamma core."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammapower.specfun import (
    DomainError,
    EULER_GAMMA,
    check_polygamma_bounds,
    digamma,
    log_gamma,
    polygamma,
    psi2_theta,
)

import oracles

PI = math.pi


class TestFrozenValues:
    """Special values from the literature plus frozen oracle outputs."""

    def test_log_gamma_at_1_and_2(self):
        assert abs(log_gamma(1.0)) < 1e-11
        assert abs(log_gamma(2.0)) < 1e-11

    def test_log_gamma_6_5(self):
        # frozen from the recurrence-down/high-shift product oracle
        assert log_gamma(6.5) == pytest.approx(5.6625620598571415285, abs=1e-13)

    def test_digamma_at_1(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)

    def test_digamma_at_2(self):
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)

    def test_digamma_10_25(self):
        # frozen from the direct-series oracle with tail correction
        assert digamma(10.25) == pytest.approx(2.2777047906867239693, abs=1e-13)

    def test_polygamma_1_at_2(self):
        assert polygamma(1, 2.0) == pytest.approx(PI**2 / 6.0 - 1.0, abs=1e-12)

    def test_polygamma_1_at_1(self):
        assert polygamma(1, 1.0) == pytest.approx(PI**2 / 6.0, abs=1e-12)

    def test_polygamma_2_at_3(self):
        # frozen from the direct-series oracle
        assert polygamma(2, 3.0) == pytest.approx(-0.1541138063191885708, rel=1e-13)

    def test_polygamma_small_argument(self):
        # series-fallback region, frozen oracle value
        assert polygamma(6, 0.5) == pytest.approx(-92203.457923803023286, rel=1e-12)


class TestAgainstOracles:
    def test_log_gamma_grid(self):
        for x in np.geomspace(0.01, 50.0, 60):
            want = oracles.log_gamma_product(float(x))
            assert log_gamma(float(x)) == pytest.approx(want, abs=1e-12, rel=1e-12)

    def test_digamma_grid(self):
        for x in np.geomspace(0.01, 50.0, 40):
            want = oracles.digamma_series(float(x))
            assert digamma(float(x)) == pytest.approx(want, abs=1e-12, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_polygamma_grid(self, n):
        for x in np.geomspace(0.02, 50.0, 25):
            want = oracles.polygamma_series(n, float(x))
            assert polygamma(n, float(x)) == pytest.approx(want, rel=1e-12)


class TestInvariants:
    def test_log_gamma_recurrence(self):
        # log Gamma(x+1) - log Gamma(x) = log x
        for x in np.geomspace(0.01, 50.0, 100):
            x = float(x)
            assert log_gamma(x + 1.0) - log_gamma(x) == pytest.approx(
                math.log(x), abs=1e-11
            )

    def test_digamma_recurrence(self):
        for x in np.geomspace(0.05, 30.0, 50):
            x = float(x)
            assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, rel=1e-12)

    def test_digamma_is_log_gamma_derivative(self):
        for x in np.geomspace(0.1, 30.0, 30):
            x = float(x)
            fd = oracles.central_diff(log_gamma, x, 1, h=x * oracles._EPS ** (1 / 3))
            assert digamma(x) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_polygamma_derivative_chain(self, n):
        lower = digamma if n == 1 else (lambda t, n=n: polygamma(n - 1, t))
        for x in np.geomspace(0.2, 20.0, 20):
            x = float(x)
            fd = oracles.central_diff(lower, x, 1, h=x * oracles._EPS ** (1 / 3))
            assert polygamma(n, x) == pytest.approx(fd, rel=1e-5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_polygamma_sign(self, n):
        # sign is (-1)^(n+1)
        for x in (0.03, 0.7, 5.0, 80.0):
            v = polygamma(n, x)
            assert (v > 0.0) == (n % 2 == 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_polygamma_bounds(self, n):
        for x in np.geomspace(0.05, 100.0, 200):
            assert check_polygamma_bounds(n, float(x))

    def test_psi2_theta_in_unit_interval(self):
        for x in np.geomspace(0.05, 100.0, 200):
            theta = psi2_theta(float(x))
            assert 0.0 < theta < 1.0


class TestDomainAndConfig:
    @pytest.mark.parametrize("fn", [log_gamma, digamma])
    def test_nonpositive_rejected(self, fn):
        with pytest.raises(DomainError):
            fn(0.0)
        with pytest.raises(DomainError):
            fn(-1.5)

    def test_polygamma_order_rejected(self):
        with pytest.raises(DomainError):
            polygamma(0, 1.0)

    def test_polygamma_argument_rejected(self):
        with pytest.raises(DomainError):
            polygamma(1, -2.0)

    @pytest.mark.parametrize("fn, args, error", [
        (log_gamma, (math.nan,), DomainError),
        (log_gamma, (math.inf,), DomainError),
        (digamma, (math.nan,), DomainError),
        (digamma, (math.inf,), DomainError),
        (polygamma, (1, math.nan), DomainError),
        (polygamma, (1, math.inf), DomainError),
        (log_gamma, (1.7e308,), OverflowError),
        (digamma, (5e-324,), OverflowError),
        (polygamma, (63, 1e-4), OverflowError),
    ], ids=["log_gamma(nan)", "log_gamma(inf)", "digamma(nan)", "digamma(inf)",
            "polygamma(1,nan)", "polygamma(1,inf)", "log_gamma(1.7e308)", "digamma(5e-324)",
            "polygamma(63,1e-4)"])
    def test_nonfinite_or_overflow_raises(self, fn, args, error):
        with pytest.raises(error):
            fn(*args)


def test_polygamma_matches_mpmath_to_high_order():
    # every order the delta_n Taylor tail uses, including points in (12, 13]
    xs = [1e-3, 1e-2, 0.1, 1.0, 1.5, 2.5, 10.0, 12.05, 12.4, 12.75, 13.0, 100.0, 1e3]
    bad = []
    with mpmath.workdps(40):
        for n in range(1, 64):
            for x in xs:
                want = mpmath.psi(n, x)
                err = float(abs((mpmath.mpf(polygamma(n, x)) - want) / want))
                if err > 1e-14:
                    bad.append((n, x, err))
    assert not bad


@given(st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=60, deadline=None)
def test_digamma_monotone_hypothesis(x):
    # psi is strictly increasing on (0, inf)
    assert digamma(x + 0.5) > digamma(x)


@given(st.floats(min_value=0.05, max_value=50.0), st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_polygamma_recurrence_hypothesis(x, n):
    # psi^(n)(x+1) = psi^(n)(x) + (-1)^n n! / x^(n+1)
    step = math.factorial(n) / x ** (n + 1)
    if n % 2 == 1:
        step = -step
    got = polygamma(n, x + 1.0)
    want = polygamma(n, x) + step
    # the recurrence cancels two large terms near small x; scale the
    # tolerance by the magnitude that cancels
    scale = max(1.0, abs(polygamma(n, x)))
    assert abs(got - want) <= 1e-12 * scale
