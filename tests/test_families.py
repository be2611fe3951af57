"""Tests for the combination families and auxiliary h-functions."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammapower.families import (
    Params,
    Sign,
    delta_n,
    f_family,
    g_family,
    g1,
    g2,
    g3,
    h1,
    h2,
    h3,
    h4,
    h21,
    h31,
    h41,
    h41_prime,
    log_g1,
    log_g1_deriv,
    log_g2,
    log_g3,
    x_logderiv_g3,
)
from gammapower import families
from gammapower.families import _lcm_margins
from gammapower.certify import SamplePlan
from gammapower.specfun import DomainError, EULER_GAMMA, digamma, log_gamma, polygamma

import oracles

PI = math.pi


class TestFamilyValues:
    def test_f_minus_at_1(self):
        # Gamma(2) = 1 so f_{1,0,-1}(1) = 1
        assert f_family(Params(a=1.0, sign=Sign.MINUS), 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_f_plus_sqrt(self):
        # Gamma(3)^(1/2)/2 = sqrt(2)/2
        v = f_family(Params(a=1.0, c=1.0), 2.0)
        assert v == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-12)

    def test_g_trivial(self):
        assert g_family(Params(a=1.0, c=1.0), 1.0) == pytest.approx(0.5, rel=1e-12)
        assert g_family(Params(a=2.0, c=0.0), 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_g_matches_direct_composition(self):
        p = Params(a=2.0, c=PI**2 / 6.0 - 1.0)
        x = 0.5
        want = math.exp(log_gamma(x + p.a) / x - p.c * math.log(x + p.a))
        assert g_family(p, x) == pytest.approx(want, rel=1e-12)

    def test_g1_continuation_values(self):
        assert g1(1.0, 0.0) == pytest.approx(math.exp(EULER_GAMMA), rel=1e-12)
        assert g1(2.0, 0.0) == pytest.approx(math.exp(EULER_GAMMA - 1.0), rel=1e-12)

    def test_g1_diverges_for_intermediate_a(self):
        # g1(0+) = +inf for 1 < a < 2: log g1 blows up near 0
        assert log_g1(1.5, 1e-12) > 500.0

    def test_projections_match_families(self):
        for a, c, x in ((1.5, 0.7, 2.0), (3.0, -1.0, 0.4), (0.75, 2.0, 9.0)):
            assert g1(a, x) == pytest.approx(
                f_family(Params(a=a, sign=Sign.MINUS), x), rel=1e-12
            )
            assert g2(a, c, x) == pytest.approx(f_family(Params(a=a, c=c), x), rel=1e-12)
            assert g3(a, c, x) == pytest.approx(g_family(Params(a=a, c=c), x), rel=1e-12)


class TestDomainErrors:
    def test_family_domain(self):
        with pytest.raises(DomainError):
            f_family(Params(a=1.0), -1.0)
        with pytest.raises(DomainError):
            f_family(Params(a=1.0), 0.0)
        with pytest.raises(DomainError):
            f_family(Params(a=1.0, c=1.0), -0.5)  # real power of negative x

    def test_g1_zero_requires_special_a(self):
        with pytest.raises(DomainError):
            g1(1.5, 0.0)

    def test_g2_g3_positive_only(self):
        for fn in (lambda: g2(1.0, 0.0, -1.0), lambda: g3(1.0, 0.0, 0.0),
                   lambda: g2(-1.0, 0.0, 1.0)):
            with pytest.raises(DomainError):
                fn()

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            g2(1.0, 500.0, 1e-3)

    def test_delta_n_order(self):
        with pytest.raises(DomainError):
            delta_n(1.0, 0, 0.5)

    @pytest.mark.parametrize("fn", [lambda: g1(1.5, 5e-324),
                                    lambda: f_family(Params(1.5, 1e308), 5e-324)],
                             ids=["g1 exponent +inf", "f exponent nan"])
    def test_nonfinite_exponent_is_overflow(self, fn):
        with pytest.raises(OverflowError):
            fn()


@pytest.mark.parametrize("a", [1.0, 2.0])
@pytest.mark.parametrize("x", [s * m for m in (1e-14, 1e-9, 3e-6, 9.9e-5, 2e-4, 1e-3, 1e-2)
                               for s in (1, -1)])
def test_log_g1_taylor_window_matches_mpmath(a, x):
    # near x = 0 at a in {1, 2} log g1 is its power series around the removable
    # point; the direct quotient was up to ~1e-11 off just past |x| = 1e-4
    with mpmath.workdps(40):
        want = -mpmath.loggamma(mpmath.mpf(x) + a) / mpmath.mpf(x)
        tol = 1e-15 if abs(x) < 1e-4 else 1e-14
        assert float(abs((log_g1(a, x) - want) / want)) <= tol


# Every public function as f(a, x): for an ndarray x it gives the ndarray of
# its float values.  delta_n and log_g1_deriv enter at each order 1..6 and at
# the high orders 30, 120 and 170.
_ORDERS = (1, 2, 3, 4, 5, 6, 30, 120, 170)
_ARRAY_FNS = {
    "f": lambda a, x: f_family(Params(a, 1.2, Sign.MINUS), x),
    "g": lambda a, x: g_family(Params(a, -0.8), x),
    "g1": g1, "g2": lambda a, x: g2(a, 0.4, x), "g3": lambda a, x: g3(a, -0.6, x),
    "h1": h1, "h2": h2, "h3": h3, "h4": h4, "log_g1": log_g1,
    "h21": h21, "h31": h31, "h41": h41, "h41_prime": h41_prime,
    "x_logderiv_g3": lambda a, x: x_logderiv_g3(a, 0.7, x),
    "log_g2": lambda a, x: log_g2(a, -1.3, x), "log_g3": lambda a, x: log_g3(a, 2.1, x),
    **{f"delta_n.{n}": (lambda a, x, n=n: delta_n(a, n, x)) for n in _ORDERS},
    **{f"log_g1_deriv.{n}": (lambda a, x, n=n: log_g1_deriv(a, n, x)) for n in _ORDERS},
}
# Domains reaching below 0: at every a, and at a in {1, 2} only (x = 0 included).
_NEGATIVE_X = {"h1"} | {f"delta_n.{n}" for n in _ORDERS}
_NEGATIVE_X_AT_1_2 = {"log_g1", "g1"} | {f"log_g1_deriv.{n}" for n in _ORDERS}
# h31, h41 and h41_prime cancel: near t = 0 and at large t their terms exceed
# the value up to ~1e3-fold.  specfun's array and float sums differ by up to
# an ulp (numpy's vectorised pow against libm's, on ~5% of arguments), so for
# these three the 1e-14 is relative to the largest term.  So do delta_n and
# log_g1_deriv at high orders on the direct side: there delta_n tends to
# 0 (a in {1, 2}) or converges slowly (large x) while its terms stay O(1)
# or grow with x, and psi's array and float values differ by an ulp on
# ~0.1% of arguments (numpy's log against libm's).
_TERMS = {
    "h31": lambda a, t: [(t - a) ** 3 * polygamma(2, t), (t - a) ** 2 * polygamma(1, t),
                         2.0 * (t - a) * digamma(t), 2.0 * log_gamma(t)],
    "h41": lambda a, t: [t * (t - a) ** 2 * polygamma(1, t), (t * t - a * a) * digamma(t),
                         (t + a) * log_gamma(t)],
    "h41_prime": lambda a, t: [t * (t - a) ** 2 * polygamma(2, t),
                               2.0 * (t - a) ** 2 * polygamma(1, t), (t - a) * digamma(t),
                               log_gamma(t)],
}


def _delta_terms(n, deriv):
    """The largest terms of delta_n's direct form while |x| < x + a.

    They are -log Gamma(x+a), x psi(x+a) and the power sums S_k <= S_2 =
    x^2 psi'(x+a)/2; for log_g1_deriv each is scaled by n!/|x|^(n+1).  The
    tail rows sum no such terms: there a float and an array agree to rounding.
    """
    def terms(a, x):
        if families._tail_rows(a, x):
            return [0.0]
        y = x + a
        t = [log_gamma(y), x * digamma(y), x * x * polygamma(1, y) / 2.0]
        if not deriv:
            return t
        factor = mpmath.factorial(n) / abs(mpmath.mpf(x)) ** (n + 1) if x else 0
        return [float(factor * v) for v in t]
    return terms


_TERMS.update({f"{name}.{n}": _delta_terms(n, name == "log_g1_deriv")
               for name in ("delta_n", "log_g1_deriv") for n in _ORDERS if n > 6})


@pytest.mark.parametrize("name", _ARRAY_FNS)
@given(a=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.7]),
       xs=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=30),
       negative=st.booleans())
@settings(max_examples=40, deadline=None)
def test_array_path_matches_scalar_path(name, a, xs, negative):
    fn = _ARRAY_FNS[name]
    if "." in name and name in _TERMS:  # orders 30..170: up to ~1 ms a float call
        xs = xs[:8]
    if negative and (name in _NEGATIVE_X or name in _NEGATIVE_X_AT_1_2 and a in (1.0, 2.0)):
        xs = [x * a / 1e3 - a * 0.999 for x in xs]  # onto (-a, 0.001 a]
    try:
        want = np.array([fn(a, x) for x in xs])
    except OverflowError:  # a float overflows: so does the array
        with pytest.raises(OverflowError):
            fn(a, np.array(xs))
        return
    got = fn(a, np.array(xs))
    assert got.shape == want.shape
    scale = np.maximum(1.0, np.abs(want))
    if name in _TERMS:
        scale = np.maximum(scale, [max(map(abs, _TERMS[name](a, x))) for x in xs])
    assert (np.abs(got - want) <= 1e-14 * scale).all()


# a = 1.5: x = 0 is outside every domain but h1's and delta_n's, and -1.5 = -a
# is at the edge
_BAD_X = [math.nan, math.inf, -math.inf, 0.0, -1.5]


@pytest.mark.parametrize("name, bad", [
    pytest.param(name, bad, id=f"{bad}-{name}") for bad in _BAD_X for name in _ARRAY_FNS
    if not (bad == 0.0 and name in _NEGATIVE_X)])
def test_array_path_domain_error(name, bad):
    with pytest.raises(DomainError):
        _ARRAY_FNS[name](1.5, np.array([0.5, 2.0, bad, 3.0]))


# Any float, weighted towards the edges: nan, +-inf, huge, tiny and subnormal.
_EDGE_FLOAT = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e300, -1e300, 1.5, 1e-300, 5e-324, 0.0, 1.0, 2.0]))


@pytest.mark.parametrize("name", _ARRAY_FNS)
@given(a=_EDGE_FLOAT, x=_EDGE_FLOAT)
@settings(max_examples=60, deadline=None)
def test_total_on_any_float(name, a, x):
    # a float x gives a finite float and an array of x an array of finite
    # values, or each raises DomainError (a non-finite a or x, or x outside the
    # domain: the two alike) or OverflowError (no finite value)
    fn = _ARRAY_FNS[name]
    outcomes = []
    for arg in (x, np.array([x, x])):
        try:
            v = fn(a, arg)
        except (DomainError, OverflowError) as exc:
            outcomes.append(type(exc))
        else:
            assert type(v) is type(arg) and np.isfinite(v).all()
            outcomes.append(None)
    assert (outcomes[0] is DomainError) == (outcomes[1] is DomainError)
    if not (math.isfinite(a) and math.isfinite(x)):
        assert outcomes == [DomainError, DomainError]


class TestAuxiliaryValues:
    def test_h1_zero(self):
        assert h1(1.0, 0.0) == pytest.approx(0.0, abs=1e-13)

    def test_h1_at_one(self):
        # -psi(2) + log Gamma(2) = gamma - 1
        assert h1(1.0, 1.0) == pytest.approx(EULER_GAMMA - 1.0, rel=1e-12)

    def test_h2_limits(self):
        assert h2(1.0, 1e6) == pytest.approx(1.0, abs=1e-5)
        assert abs(h2(1.0, 1e-6)) < 1e-4

    def test_h3_limits(self):
        assert abs(h3(2.0, 1e-4)) < 1e-3
        assert h3(2.0, 1e6) == pytest.approx(1.0, abs=1e-4)

    def test_h4_limits(self):
        assert h4(2.0, 1e-4) == pytest.approx(PI**2 / 6.0 - 1.0, abs=1e-3)
        assert h4(3.0, 1e6) == pytest.approx(1.0, abs=1e-4)

    def test_h2_is_minus_h1_over_x(self):
        for x in np.geomspace(0.05, 40.0, 30):
            x = float(x)
            assert h2(1.5, x) == pytest.approx(-h1(1.5, x) / x, rel=1e-11, abs=1e-13)

    def test_h21_limit_and_signs(self):
        assert h21(1.0, 1.0 + 1e-9) == pytest.approx(0.0, abs=1e-7)
        assert h21(1.5, 1.5) == pytest.approx(log_gamma(1.5), rel=1e-10)
        assert h21(1.5, 1.5) < 0.0
        assert h21(1.5, 10.0) > 0.0

    def test_h31_h41_limits(self):
        assert h31(2.0, 2.0 + 1e-9) == pytest.approx(0.0, abs=1e-7)
        assert h41(2.0, 2.0 + 1e-9) == pytest.approx(0.0, abs=1e-7)
        assert h41_prime(1.5, 1.5) == pytest.approx(log_gamma(1.5), rel=1e-10)
        assert h41_prime(1.5, 1.5) < 0.0

    def test_delta_values(self):
        assert delta_n(1.0, 3, 1e-9) == pytest.approx(0.0, abs=1e-9)
        # lim delta_n = -log Gamma(a) > 0 for a = 1.5
        assert delta_n(1.5, 2, 1e-9) == pytest.approx(-log_gamma(1.5), abs=1e-7)
        assert delta_n(1.5, 2, 1e-9) > 0.0
        # -log Gamma(2) + psi(2) = 1 - gamma
        assert delta_n(1.0, 1, 1.0) == pytest.approx(1.0 - EULER_GAMMA, rel=1e-12)

    def test_log_g1_deriv_at_zero(self):
        from gammapower.specfun import polygamma

        assert log_g1_deriv(1.0, 1, 0.0) == pytest.approx(-polygamma(1, 1.0) / 2.0, rel=1e-12)
        assert log_g1_deriv(2.0, 2, 0.0) == pytest.approx(-polygamma(2, 2.0) / 3.0, rel=1e-12)
        with pytest.raises(DomainError):
            log_g1_deriv(1.5, 1, 0.0)

    def test_x_logderiv_g3_reduces_to_h2(self):
        assert x_logderiv_g3(2.0, 0.0, 5.0) == pytest.approx(h2(2.0, 5.0), rel=1e-13)

    def test_x_logderiv_g3_limits(self):
        # -> 1 - c as x -> inf
        assert x_logderiv_g3(2.0, 1.0, 1e6) == pytest.approx(0.0, abs=1e-4)
        assert abs(x_logderiv_g3(1.0, 0.5, 1e-6)) < 1e-4


class TestIdentityChain:
    """Closed forms vs finite differences of the log-family values."""

    GRID = [float(x) for x in np.geomspace(0.1, 20.0, 100)]

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_h1_identity(self, a):
        # x^2 (log g1)' = h1
        for x in self.GRID:
            fd = oracles.central_diff(lambda t: log_g1(a, t), x, 1)
            assert x * x * fd == pytest.approx(h1(a, x), rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("a,c", [(1.5, 0.0), (2.0, 1.0), (0.75, -1.0)])
    def test_h2_identity(self, a, c):
        # x (log g2)' = h2 - c
        for x in self.GRID:
            fd = oracles.central_diff(lambda t: log_g2(a, c, t), x, 1)
            assert x * fd == pytest.approx(h2(a, x) - c, rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("a,c", [(2.0, 0.0), (3.0, 1.0)])
    def test_h3_identity(self, a, c):
        # x^2 (log g2)'' = c - h3
        for x in self.GRID:
            fd = oracles.central_diff(lambda t: log_g2(a, c, t), x, 2)
            assert x * x * fd == pytest.approx(c - h3(a, x), rel=1e-5, abs=1e-6)

    @pytest.mark.parametrize("a,c", [(1.5, 0.0), (2.0, -0.5)])
    def test_h4_identity(self, a, c):
        # (x+a) (log g3)' = h4 - c
        for x in self.GRID:
            fd = oracles.central_diff(lambda t: log_g3(a, c, t), x, 1)
            assert (x + a) * fd == pytest.approx(h4(a, x) - c, rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_log_g1_deriv_vs_fd(self, n):
        tol = 1e-5 if n <= 2 else 1e-3
        for a in (1.0, 1.5, 2.0):
            # high-order differences lose accuracy where the derivatives
            # blow up near 0, so the grid starts at 0.5
            for x in np.geomspace(0.5, 10.0, 25):
                x = float(x)
                fd = oracles.central_diff(lambda t: log_g1(a, t), x, n)
                assert log_g1_deriv(a, n, x) == pytest.approx(fd, rel=tol, abs=tol)

    def test_delta_reduction(self):
        # (log g1)^(n) = (-1)^n n! delta_n / x^(n+1)
        for n in (1, 2, 3):
            for x in (0.5, 1.3, 7.0):
                lhs = log_g1_deriv(1.5, n, x)
                rhs = (-1.0) ** n * math.factorial(n) * delta_n(1.5, n, x) / x ** (n + 1)
                assert lhs == pytest.approx(rhs, rel=1e-13)


@given(
    st.one_of(
        st.floats(min_value=0.5, max_value=1.0),
        st.floats(min_value=2.0, max_value=4.0),
    ),
    st.floats(min_value=0.05, max_value=20.0),
)
@settings(max_examples=60, deadline=None)
def test_h2_below_one_hypothesis(a, x):
    # Lemma range: h2 < 1 on (0, inf) for a in [1/2, 1] or a >= 2
    # (for 1 < a < 2 the function exceeds 1 near 0 since log Gamma(a) < 0)
    assert h2(a, x) < 1.0


@given(st.floats(min_value=0.05, max_value=10.0))
@settings(max_examples=40, deadline=None)
def test_g1_positive_hypothesis(x):
    assert g1(1.5, x) > 0.0


@pytest.mark.parametrize("a", [1.0, 1.5])
@pytest.mark.parametrize("x", [0.1, 0.3])
def test_delta_n_high_order_matches_mpmath(a, x):
    # delta_n = -log Gamma(a) + sum_{k>n} x^k zeta(k, x+a)/k (DLMF 5.15.2), with
    # mpmath's Hurwitz zeta; every order up to MAX_ORDER is finite
    with mpmath.workdps(30):
        am, xm = mpmath.mpf(a), mpmath.mpf(x)
        terms = {k: xm**k * mpmath.zeta(k, xm + am) / k for k in range(61, 220)}
        bad = []
        for n in range(60, 171):
            want = -mpmath.loggamma(am) + mpmath.fsum(t for k, t in terms.items() if k > n)
            err = float(abs((delta_n(a, n, x) - want) / want))
            if err > 1e-14:
                bad.append((n, err))
    assert not bad


@pytest.mark.parametrize("a, n, x", [(0.5, 170, 0.3), (1.5, 170, -0.75), (0.1, 170, 0.3),
                                     (0.1, 120, -0.05)])
def test_delta_n_finite_where_psi_overflows(a, n, x):
    # psi^(n-1)(x+a) exceeds the double range at these points, but each term
    # ((-x)^k/k!) psi^(k-1)(x+a) = x^k zeta(k, x+a)/k of delta_n is O(1)
    with mpmath.workdps(30):
        am, xm = mpmath.mpf(a), mpmath.mpf(x)
        want = (-mpmath.loggamma(xm + am) + xm * mpmath.digamma(xm + am)
                - mpmath.fsum(xm**k * mpmath.zeta(k, xm + am) / k for k in range(2, n + 1)))
    for got in (delta_n(a, n, x), delta_n(a, n, np.array([x]))[0]):
        assert float(abs((got - want) / want)) <= 1e-14


def test_log_g1_deriv_finite_where_x_power_is_not():
    # x^3 exceeds the double range at x = 5.7e102, the value 2 delta_2/x^3 does not
    x = 5.7e102
    with mpmath.workdps(30):
        xm = mpmath.mpf(x)
        want = 2 * (-mpmath.loggamma(xm) + xm * mpmath.digamma(xm)
                    - xm * xm * mpmath.psi(1, xm) / 2) / xm**3
    for got in (log_g1_deriv(0.0, 2, x), log_g1_deriv(0.0, 2, np.array([x]))[0]):
        assert float(abs((got - want) / want)) <= 1e-12


def test_delta_path_calls_no_polygamma(monkeypatch):
    # delta_n, log_g1_deriv and the LCM margins sum powers of x/(x+a+j), and
    # at the removable point x = 0 powers of 1/(a+j): no psi of order >= 1
    calls = []

    def counted(n, x):
        calls.append(n)
        return polygamma(n, x)

    monkeypatch.setattr(families, "polygamma", counted)
    xs = [-0.5, 0.0, 0.05, 0.3, 2.5, 40.0]
    for a in (1.0, 1.5, 2.0):
        for n in (1, 6, 30, 170):
            for fn in (delta_n, log_g1_deriv):
                for x in [*xs, np.array(xs)]:
                    try:
                        fn(a, n, x)
                    except (OverflowError, DomainError):
                        pass
        _lcm_margins(a, np.array([x for x in xs if x or a != 1.5]), 6)
    assert calls == []


@pytest.mark.parametrize("a, n, x", [(1.0, 1, 1e-300), (2.0, 6, 1e-50), (2.0, 30, 1e-12),
                                     (1.0, 170, 0.01), (2.0, 170, -0.01)])
def test_log_g1_deriv_where_delta_n_underflows(a, n, x):
    # at a in {1, 2}, delta_n = sum_{k>n} x^k zeta(k, x+a)/k leaves the double
    # range as x -> 0 while n! delta_n/x^(n+1) tends to n! zeta(n+1, a)/(n+1);
    # the tail's error grows by about an ulp per order
    with mpmath.workdps(30):
        am, xm = mpmath.mpf(a), mpmath.mpf(x)
        want = (-1) ** n * mpmath.factorial(n) * mpmath.fsum(
            xm ** (k - n - 1) * mpmath.zeta(k, xm + am) / k for k in range(n + 1, n + 200))
    for got in (log_g1_deriv(a, n, x), log_g1_deriv(a, n, np.array([x]))[0]):
        assert float(abs((got - want) / want)) <= max(1e-14, n * 2.0**-53)


# Both sides of the tail/direct switch at a in {1, 2}: x/(x+a) up to 0.82
_SWITCH_GRID = [(a, float(x)) for a in (1.0, 2.0) for x in np.linspace(-0.45 * a, 30.0, 75)]


def _log_g1_derivs_mpmath(a, x, orders=6):
    """(log g1)^(n)(x), n = 1..orders, from the direct form at 40 digits."""
    with mpmath.workdps(40):
        am, xm = mpmath.mpf(a), mpmath.mpf(x)
        psi = [mpmath.psi(k, xm + am) for k in range(orders)]
        d, term, out = -mpmath.loggamma(xm + am), mpmath.mpf(1), []
        for n in range(1, orders + 1):
            term *= -xm / n
            d -= term * psi[n - 1]
            out.append((-1) ** n * mpmath.factorial(n) * d / xm ** (n + 1))
        return out


def test_log_g1_deriv_across_the_switch_matches_mpmath():
    bad = []
    for a in (1.0, 2.0):
        xs = np.array([x for b, x in _SWITCH_GRID if b == a])
        margins = _lcm_margins(a, xs, 6)
        for i, x in enumerate(xs.tolist()):
            for n, want in enumerate(_log_g1_derivs_mpmath(a, x), start=1):
                for got in (log_g1_deriv(a, n, x), (-1) ** n * margins[i, n - 1]):
                    err = float(abs((got - want) / want))
                    if err > 2e-13:
                        bad.append((a, n, x, err))
    assert not bad


# The catalog's LCM rows: (a, interval); intervals reaching below 0 add x = 0.
_LCM_ROWS = [(1.0, (1e-2, 30.0)), (1.5, (1e-2, 30.0)), (2.0, (1e-2, 30.0)),
             (1.0, (-0.99, 30.0)), (2.0, (-1.99, 30.0)), (0.5, (1e-2, 30.0)),
             (2.5, (1e-2, 30.0))]


@pytest.mark.parametrize("a, interval", _LCM_ROWS)
def test_lcm_margins_match_scalar_log_g1_deriv(a, interval):
    x = SamplePlan(interval=interval, grid_points=96, random_points=32).points()
    if interval[0] < 0.0:
        x = np.append(x, 0.0)
    got = _lcm_margins(a, x, 6)
    assert got.shape == (x.size, 6)
    want = np.array([[(-1) ** n * log_g1_deriv(a, n, p) for n in range(1, 7)] for p in x.tolist()])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("a, x, order", [
    (1.5, [0.5, -1.5], 6), (1.5, [0.5, math.nan], 6), (1.5, [0.5, 0.0], 6),
    (1.0, [0.5], 0), (1.0, [0.5], 171),
], ids=["x<=-a", "nan", "x=0 at a=1.5", "order 0", "order 171"])
def test_lcm_margins_domain_error(a, x, order):
    with pytest.raises(DomainError):
        _lcm_margins(a, np.array(x), order)
