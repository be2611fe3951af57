"""Tests for the combination families and auxiliary h-functions."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
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
from gammapower import families, specfun
from gammapower.families import _margin_orders
from gammapower.certify import SamplePlan
from gammapower.specfun import DomainError, EULER_GAMMA, digamma, log_gamma, polygamma

import oracles

PI = math.pi


def _lcm_margins(a, x, n):
    """n! delta_k(x)/x^(k+1), k = 1..n, in the last axis, as certify_lcm stacks them."""
    return np.stack(_margin_orders(a, x, n, "LCM margins"), axis=-1)


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

    def test_projections_match_families_where_the_log_is_minus_inf(self):
        # log g2 = log Gamma(a + x)/x is -inf at x = 1e-310 for 1 < a < 2, and
        # log g1 at a = 3: each projection, like its family, is 0 there
        x = np.array([1e-310, 0.5])
        for a in (1.25, 1.5):
            assert g2(a, 0.0, x).tolist() == f_family(Params(a), x).tolist()
            assert g3(a, 0.0, x).tolist() == g_family(Params(a), x).tolist()
        assert g1(3.0, x).tolist() == f_family(Params(3.0, sign=Sign.MINUS), x).tolist()
        assert g1(3.0, 1e-310) == g2(1.5, 0.0, 1e-310) == g3(1.5, 0.0, 1e-310) == 0.0


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


def _mp_L(a, x):
    return mpmath.loggamma(x + a) / x


# Each function built on L = log Gamma(x+a)/x as name -> (its value at (a, x),
# mpmath's, whether its domain stops at x = 0).  The c of log_g2, log_g3 and g
# keeps their two terms from cancelling on 0 < x <= 0.8 at a in {1, 2}.
_L_BASED = {
    "log_g1": (log_g1, lambda a, x: -_mp_L(a, x), False),
    "h1": (h1, lambda a, x: -x * mpmath.digamma(x + a) + mpmath.loggamma(x + a), False),
    "h2": (h2, lambda a, x: mpmath.digamma(x + a) - _mp_L(a, x), True),
    "h3": (h3, lambda a, x: (-x * mpmath.psi(1, x + a) + 2 * mpmath.digamma(x + a)
                             - 2 * _mp_L(a, x)), True),
    "h4": (h4, lambda a, x: (x + a) * (mpmath.digamma(x + a) - _mp_L(a, x)) / x, True),
    "log_g2": (lambda a, x: log_g2(a, a - 1.5, x),
               lambda a, x: _mp_L(a, x) - (a - 1.5) * mpmath.log(x), True),
    "log_g3": (lambda a, x: log_g3(a, 1.5 - a, x),
               lambda a, x: _mp_L(a, x) - (1.5 - a) * mpmath.log(x + a), True),
    "f": (lambda a, x: f_family(Params(a), x), lambda a, x: mpmath.exp(_mp_L(a, x)), False),
    "g": (lambda a, x: g_family(Params(a, -0.8, Sign.MINUS), x),
          lambda a, x: mpmath.exp(-_mp_L(a, x) - 0.8 * mpmath.log(x + a)), False),
}


@pytest.mark.parametrize("a", [1.0, 2.0])
@pytest.mark.parametrize("x", [s * m for m in (1e-14, 1e-9, 3e-6, 9.9e-5, 2e-4, 1e-3, 1e-2,
                                               0.1, 0.25, 0.3, 0.5, 0.8) for s in (1, -1)])
def test_log_g1_taylor_window_matches_mpmath(a, x):
    # near x = 0 at a in {1, 2} every L-based function, log_g1 among them, takes
    # L's power series: the direct forms cancel there (h3 was 9.4e20 relative
    # off at x = 1e-12).  Past |x| = 0.25 each keeps its direct form.
    for name, (fn, exact, positive) in _L_BASED.items():
        if positive and x < 0.0:
            continue
        with mpmath.workdps(80):  # h3's terms cancel ~1e28-fold at x = 1e-14
            want = exact(a, mpmath.mpf(x))
        tol = 1e-15 if abs(x) <= 0.25 else 2.3e-13 if name == "h3" else 1.4e-14
        for got in (fn(a, x), fn(a, np.array([x]))[0]):
            assert float(abs((got - want) / want)) <= tol, name


_WINDOW_X = [*np.linspace(-0.25, 0.25, 4001).tolist(),
             0.0, -0.0, 0.25, -0.25, 1e-300, -1e-300, 5e-324]


@pytest.mark.parametrize("a", [1.0, 2.0])
@pytest.mark.parametrize("name", ["h1", "h2", "h3", "h4", "log_g1"])
def test_window_float_and_array_agree_bit_for_bit(name, a):
    # in the window both paths run the same Horner steps on the same doubles, so
    # any faster array form must keep them equal; log_g2 and log_g3 are left out,
    # as their c log term takes np.log on an ndarray and math.log on a float
    fn = {"h1": h1, "h2": h2, "h3": h3, "h4": h4, "log_g1": log_g1}[name]
    xs = [x for x in _WINDOW_X if x > 0.0 or name in ("h1", "log_g1")]
    want = np.array([fn(a, x) for x in xs])
    got = fn(a, np.array(xs))
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_l_based_values_at_tiny_x():
    # h2 = x psi'(a)/2 + ... and h4 = psi'(a)/2 + ... there, where the direct
    # forms divide a rounded 0 by x or x^2
    assert h2(1.0, 1e-300) == pytest.approx(PI**2 / 12.0 * 1e-300, rel=1e-15)
    for x in (1e-300, 1e-160):
        assert h4(1.0, x) == h4(1.0, np.array([x]))[0] == pytest.approx(PI**2 / 12.0, rel=1e-15)


@pytest.mark.parametrize("a", [1.0, 2.0])
def test_window_row_runs_no_direct_form_on_an_empty_rest(monkeypatch, a):
    # a row that lies wholly in the window takes the series alone: the window
    # re-enters L and h1-h4 through these module names for the entries outside
    # it, so none of them may see an empty array
    seen = []

    def recording(fn):
        return lambda *args: seen.append(np.size(args[-1])) or fn(*args)

    for name in ("_lg_over", "h1", "h2", "h3", "h4"):
        monkeypatch.setattr(families, name, recording(getattr(families, name)))
    readers = {
        "_lg_over": lambda x: families._lg_over(a, x),
        "f": lambda x: families.f_family(Params(a), x),
        "g": lambda x: families.g_family(Params(a, -0.8, Sign.MINUS), x),
        "log_g1": lambda x: families.log_g1(a, x), "g1": lambda x: families.g1(a, x),
        "h1": lambda x: families.h1(a, x),
        "log_g2": lambda x: families.log_g2(a, 0.4, x), "g2": lambda x: families.g2(a, 0.4, x),
        "log_g3": lambda x: families.log_g3(a, -0.6, x), "g3": lambda x: families.g3(a, -0.6, x),
        "f c>0": lambda x: families.f_family(Params(a, 1.2), x),
        "h2": lambda x: families.h2(a, x), "h3": lambda x: families.h3(a, x),
        "h4": lambda x: families.h4(a, x),
        "x_logderiv_g3": lambda x: families.x_logderiv_g3(a, 0.7, x),
    }
    both_sides = np.linspace(-0.2, 0.2, 9)
    for name, fn in readers.items():
        fn(np.linspace(0.01, 0.2, 12))
        if name in ("_lg_over", "f", "g", "log_g1", "g1", "h1"):  # defined left of 0
            fn(both_sides if name not in ("f", "g") else both_sides[both_sides != 0.0])
    assert seen and 0 not in seen


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
# h21, h31, h41 and h41_prime cancel: near t = 0 and at large t their terms
# exceed the value up to ~2e3-fold.  specfun's array and float sums differ by
# up to an ulp (numpy's vectorised pow against libm's, on ~5% of arguments),
# so for these the 1e-14 is relative to the largest term.  So do delta_n and
# log_g1_deriv on the direct side, at every order: there delta_n tends to
# 0 (a in {1, 2}) or converges slowly (large x) while its terms stay O(1)
# or grow with x, and psi's array and float values differ by an ulp on
# ~0.1% of arguments (numpy's log against libm's).
_TERMS = {
    "h21": lambda a, t: [(t - a) ** 2 * polygamma(1, t), (t - a) * digamma(t), log_gamma(t)],
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
               for name in ("delta_n", "log_g1_deriv") for n in _ORDERS})

# Where the two paths once split by more than 1e-14 of the value alone:
# h21 at a = 0.5, t = 327.77 by 5.0e-13 relative, and log_g1_deriv at order
# 6, a = 2, x = -0.92478626544277 (from 536.6 on the negative side) by 1.07e-14.
_SPLIT_POINTS = [("h21", 0.5, 327.7728265418133),
                 ("log_g1_deriv.6", 2.0, 536.6068672786173 * 2.0 / 1e3 - 2.0 * 0.999)]
# At a in {1, 2} h4's direct form split by up to 4.9e-13 at these x, which
# L's series now gives on both paths.
_H4_SPLIT = [0.0010545, 0.0013765000000000001, 0.0017725, 0.0020835000000000003, 0.002831]


@pytest.mark.parametrize("name", _ARRAY_FNS)
@given(a=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.7]),
       xs=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=30),
       negative=st.booleans())
@example(a=0.5, xs=[327.7728265418133], negative=False)
@example(a=2.0, xs=[536.6068672786173], negative=True)
@example(a=1.0, xs=_H4_SPLIT, negative=False)
@example(a=2.0, xs=_H4_SPLIT, negative=False)
@example(a=1.0, xs=[1e-160], negative=False)
@example(a=2.0, xs=[1e-160], negative=False)
@settings(max_examples=40, deadline=None)
def test_array_path_matches_scalar_path(name, a, xs, negative):
    fn = _ARRAY_FNS[name]
    if name.split(".")[-1] in ("30", "120", "170"):  # up to ~1 ms a float call
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


@pytest.mark.parametrize("a", [1.0, 1.5, 2.0])
def test_delta_blocks_match_scalar_path(a):
    # _deltas takes each side of an ndarray in blocks of 4096 rows: 4500 tail
    # rows and 4500 direct rows, on both sides of 0, fill two blocks a side,
    # and every 11th entry and those next to a block edge match the float path
    rho = 0.7 if a in (1.0, 2.0) else 0.2
    lo, hi = -rho * a / (1.0 + rho), rho * a / (1.0 - rho)  # the tail rows' ends
    x = np.concatenate([np.linspace(0.98 * lo, 0.98 * hi, 4500),
                        np.linspace(-0.99 * a, 1.02 * lo, 1500), np.linspace(1.02 * hi, 30.0, 3000)])
    tail = families._tail_rows(a, x)
    assert tail[:4500].all() and not tail[4500:].any()
    checked = sorted({*range(0, x.size, 11), 4095, 4096, 4500 + 4095, 4500 + 4096})
    for n in (1, 6):
        for fn in (delta_n, log_g1_deriv):
            got = fn(a, n, x)[checked]
            want = np.array([fn(a, n, v) for v in x[checked].tolist()])
            assert (np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want))).all(), (fn, n)


@pytest.mark.parametrize("name, a, x", _SPLIT_POINTS)
def test_split_points_match_mpmath(name, a, x):
    # both paths within 1e-14 of the largest term of mpmath's value
    with mpmath.workdps(40):
        if name == "h21":
            t, u = mpmath.mpf(x), mpmath.mpf(x) - a
            want = u * u * mpmath.psi(1, t) - u * mpmath.digamma(t) + mpmath.loggamma(t)
        else:
            want = _log_g1_derivs_mpmath(a, x)[5]
    scale = max(1.0, abs(float(want)), *map(abs, _TERMS[name](a, x)))
    fn = _ARRAY_FNS[name]
    for got in (fn(a, x), fn(a, np.array([x]))[0]):
        assert float(abs(got - want)) <= 1e-14 * scale


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


def _as_float_call(fn, a, x):
    """fn(a, x) with its type and value as hex digits, or the type and text it raised."""
    try:
        v = fn(a, x)
    except (DomainError, OverflowError) as e:
        return type(e), str(e)
    return type(v), v.hex()


@pytest.mark.parametrize("x", [np.float32(0.3), np.float64(0.7), np.int64(3), 2, True,
                               np.float64(1e-320), np.float32(-0.5), np.float64(-np.inf)],
                         ids=repr)
@pytest.mark.parametrize("a", [1.0, 1.5])
@pytest.mark.parametrize("name", _ARRAY_FNS)
def test_numpy_scalar_is_the_float_call(name, a, x):
    # a number that is neither a float nor an ndarray is computed as float(x):
    # in double precision, as a float, or raising the float call's error
    fn = _ARRAY_FNS[name]
    assert _as_float_call(fn, a, x) == _as_float_call(fn, a, float(x))


@pytest.mark.parametrize("a", [1.0, 1.5])
@pytest.mark.parametrize("name", _ARRAY_FNS)
def test_zero_dimensional_array_gives_zero_dimensional_array(name, a):
    # a 0-d x takes the array path, as a one-entry array does
    fn = _ARRAY_FNS[name]
    try:
        want = fn(a, np.array([0.7]))[0].item().hex()
    except OverflowError as e:
        want = str(e)
    try:
        got = fn(a, np.array(0.7))
    except OverflowError as e:
        assert str(e) == want
    else:
        assert type(got) is np.ndarray and got.shape == ()
        assert got.item().hex() == want


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

    @pytest.mark.parametrize("a", [0.25, 1.0, 1.5, 2.0, 7.0])
    @pytest.mark.parametrize("n", [1, 6, 30, 170])
    def test_float_zero_matches_mpmath_and_array_path(self, a, n):
        # a float 0 takes delta_n(0) = -log Gamma(a); at a in {1, 2},
        # (log g1)^(n)(0) = -psi^(n)(a)/(n+1) sums every order to n on both paths
        with mpmath.workdps(40):
            want = -mpmath.loggamma(a)
            # log_gamma is math.lgamma, within 1e-14 (2e-15 at these a)
            got = delta_n(a, n, 0.0)
            assert abs(got - want) <= 2e-15 * abs(want)
            assert math.copysign(1.0, got) == (-1.0 if want < 0 else 1.0)  # 0, not -0
            assert delta_n(a, n, -0.0) == delta_n(a, n, np.array([0.0]))[0] == got
            if a in (1.0, 2.0):
                want = -mpmath.polygamma(n, a) / (n + 1)
                assert abs(log_g1_deriv(a, n, 0.0) - want) <= 8e-16 * abs(want)
                assert abs(log_g1_deriv(a, n, np.array([0.0]))[0] - want) <= 8e-16 * abs(want)

    def test_float_zero_keeps_the_domain_errors(self):
        with pytest.raises(DomainError, match="1 <= n <= 170, got 171"):
            log_g1_deriv(1.0, 171, 0.0)
        with pytest.raises(DomainError, match="less 0"):
            log_g1_deriv(0.5, 3, 0.0)
        with pytest.raises(DomainError):
            delta_n(-1.0, 3, 0.0)

    def test_overflow_keeps_the_sign(self):
        # past the double range a float gives the sign an ndarray gives
        for fn in (lambda x: log_g1_deriv(0.5, 170, x), lambda x: log_g1_deriv(0.5, 169, x)):
            with pytest.raises(OverflowError) as point:
                fn(2e-3)
            with pytest.raises(OverflowError) as array:
                fn(np.array([2e-3]))
            assert str(point.value) == str(array.value)
        assert str(point.value).endswith(": inf")  # (-1)^169 times a margin below 0
        assert _margin_orders(0.5, 2e-3, 170, "m")[-2:] == [-math.inf, -math.inf]

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


@pytest.mark.parametrize("size", [1, 2, 200, 7680])
@pytest.mark.parametrize("top", [2, 7, 31, 171])
def test_far_parts_keep_the_vander_block(top, size):
    # the power rows come from np.vander's running products in its F-ordered
    # layout: a C-ordered copy of the same values changes the product's last
    # bits (at top = 2 on a 2-vCPU x86 machine with numpy 2.4)
    z = np.linspace(specfun._edge(top), 400.0, size)
    want = np.reshape(families._far_table(top), (-1, 12)) @ oracles.far_powers_vander(z)
    assert families._far_parts(top, z).tobytes() == want.tobytes()


def test_delta_path_calls_no_polygamma(monkeypatch):
    # delta_n, log_g1_deriv and the LCM margins sum powers of x/(x+a+j), and
    # at the removable point x = 0 powers of 1/(a+j): no psi of order >= 1,
    # whether through polygamma or _psi_orders, in families or in specfun
    calls = []
    psi_orders = specfun._psi_orders
    for module in (families, specfun):
        monkeypatch.setattr(module, "polygamma", lambda n, x: calls.append(n) or polygamma(n, x))
        monkeypatch.setattr(module, "_psi_orders",
                            lambda t, top: calls.append(("_psi_orders", top)) or psi_orders(t, top))
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


def test_h_functions_take_one_psi_pass_on_a_float(monkeypatch):
    # from t = 1e-4 on, a float h3, h21, h31, h41 or h41' reads psi, psi' and
    # psi'' from one specfun pass, and an ndarray from one ladder of them
    calls = []
    monkeypatch.setattr(specfun, "digamma", lambda t: calls.append(0) or digamma(t))
    monkeypatch.setattr(specfun, "polygamma", lambda n, t: calls.append(n) or polygamma(n, t))
    for a in (-3.0, 0.5, 1.5, 2.0):
        for t in (1e-4, 0.37, 2.5, 8.0, 1e3, 1e100):
            for fn in (h21, h31, h41, h41_prime):
                fn(a, t)
            h3(1e-4, t)  # at x + a = t + 1e-4
    assert calls == []
    for fn in (h3, h21, h31, h41, h41_prime):
        fn(1.5, np.array([1e-5, 0.5, 3.0, 1e3]))
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


def _tail_edge(a, x):
    """The float nearest x, towards 0, on a tail row of delta_n."""
    while not families._tail_rows(a, x):
        x = math.nextafter(x, 0.0)
    return x


# Tail rows: both edges |x| = 0.7(x+a) at a in {1, 2}, negative x and x = 0,
# and both edges |x| = 0.2(x+a) at other a
_TAIL_X = {a: [_tail_edge(a, 7.0 * a / 3.0), _tail_edge(a, -0.7 * a / 1.7), -0.3 * a, 0.0]
           for a in (1.0, 2.0)}
_TAIL_X.update({a: [_tail_edge(a, a / 4.0), _tail_edge(a, -a / 6.0)] for a in (0.5, 1.5, 2.5)})


def _tail_mpmath(a, n, x):
    """(delta_n(x), (log g1)^(n)(x)) from sum_{k>n} x^(k-n-1) zeta(k, x+a)/k at 30 digits."""
    with mpmath.workdps(30):
        am, xm = mpmath.mpf(a), mpmath.mpf(x)
        s, k = mpmath.mpf(0), n + 1
        while True:
            t = xm ** (k - n - 1) * mpmath.zeta(k, xm + am) / k
            s += t
            if abs(t) <= 1e-25 * abs(s):
                break
            k += 1
        delta = -mpmath.loggamma(am) + xm ** (n + 1) * s
        # at a in {1, 2} log Gamma(a) = 0, so n! delta_n/x^(n+1) = n! s, x = 0 included
        scaled = s if a in (1.0, 2.0) else delta / xm ** (n + 1)
        return delta, (-1) ** n * mpmath.factorial(n) * scaled


@pytest.mark.parametrize("n", [1, 6, 30, 100, 170])
@pytest.mark.parametrize("a", sorted(_TAIL_X))
def test_tail_rows_match_mpmath(a, n):
    # delta_n and log_g1_deriv on tail rows, where the tail sums h_n per ratio:
    # within 3e-14 of mpmath (the error grows by about an ulp per order), and
    # the float and the array path within 1e-15 of each other
    xs = _TAIL_X[a]
    assert all(families._tail_rows(a, x) for x in xs)
    wants = [_tail_mpmath(a, n, x) for x in xs]
    for i, fn in enumerate((delta_n, log_g1_deriv)):
        want = [w[i] for w in wants]
        if any(abs(w) > 1e300 for w in want):  # past the double range
            with pytest.raises(OverflowError):
                fn(a, n, np.array(xs))
            continue
        got, got_array = [fn(a, n, x) for x in xs], fn(a, n, np.array(xs))
        for x, w, g, g_array in zip(xs, want, got, got_array):
            assert abs(g - g_array) <= 1e-15 * abs(g), (fn.__name__, x)
            assert float(abs(g - w)) <= 3e-14 * float(abs(w)), (fn.__name__, x)


# --- family rows in specfun's column table ------------------------------------

# Every _total-decorated public function, and _lg_over, as f(a, c, x); c is read
# where the function takes one.
_COLUMN_FNS = {
    "f_family": lambda a, c, x: f_family(Params(a, c, Sign.MINUS), x),
    "g_family": lambda a, c, x: g_family(Params(a, c), x),
    "g1": lambda a, c, x: g1(a, x), "log_g1": lambda a, c, x: log_g1(a, x),
    "g2": g2, "g3": g3, "log_g2": log_g2, "log_g3": log_g3, "x_logderiv_g3": x_logderiv_g3,
    **{fn.__name__: (lambda a, c, x, fn=fn: fn(a, x))
       for fn in (h1, h2, h3, h4, h21, h31, h41, h41_prime)},
    "delta_n": lambda a, c, x: delta_n(a, 3, x),
    "log_g1_deriv": lambda a, c, x: log_g1_deriv(a, 3, x),
    "_lg_over": lambda a, c, x: families._lg_over(a, x),
}
# x in the window of a in {1, 2} and out of it, in three shapes.
_COLUMN_X = {"1-d": np.array([0.05, 0.2, 0.7, 3.0, 12.0]), "0-d": np.array(0.7),
             "2-d": np.array([[0.1, 0.6, 2.5], [0.25, 1.0, 30.0]])}
# a and c = -0.0 share the key of 0.0 and follow it, so they read its rows.
_COLUMN_ARGS = [(a, c) for a in (1.0, 2.0, 1.5, 0.0, -0.0) for c in (0.6, 0.0, -0.0)]


def _row_outcome(call):
    """call()'s type, dtype, shape and bytes, or the type and text it raised."""
    try:
        v = call()
    except (DomainError, OverflowError) as e:
        return type(e), str(e)
    return type(v), v.dtype, v.shape, v.tobytes()


def test_column_fns_cover_every_total_function():
    totals = {name for name in families.__all__ if hasattr(getattr(families, name), "__wrapped__")}
    assert totals == set(_COLUMN_FNS) - {"_lg_over"}


@pytest.mark.parametrize("shape", _COLUMN_X)
@pytest.mark.parametrize("name", _COLUMN_FNS)
def test_open_table_gives_the_computed_row(table, name, shape):
    # with the table open a family row is the value the closed table computes,
    # bit for bit and in x's shape, at a and c = +-0.0 too; a second pass over
    # the rows that have a value computes nothing
    fn, x = _COLUMN_FNS[name], _COLUMN_X[shape]
    calls = [lambda a=a, c=c: fn(a, c, x) for a, c in _COLUMN_ARGS]
    specfun._TABLE_OPEN.set(False)
    want = [_row_outcome(call) for call in calls]
    specfun._TABLE_OPEN.set(True)
    assert [_row_outcome(call) for call in calls] == want
    valued = [call for call, w in zip(calls, want) if len(w) == 4]
    misses = table.cache_info().misses
    assert valued and [_row_outcome(call) for call in valued] == [w for w in want if len(w) == 4]
    assert table.cache_info().misses == misses


@pytest.mark.parametrize("call", [
    lambda: h2(1.5, np.array([0.5, -1.0])),
    lambda: g2(1.0, 500.0, np.array([1.0, 1e-3])),
    lambda: h2(1.0, np.array([1.0, 1.7e308])),
    lambda: x_logderiv_g3(1.5, 0.7, np.array([[2.0], [1.7e308]])),
], ids=["domain", "not-finite", "per-entry", "nested-per-entry"])
def test_a_row_error_is_raised_again_and_not_stored(table, call):
    # the error of a family row, the per-entry re-run that names a failing
    # entry included, is raised again with the same text and never stored: each
    # run misses the row again, and its inner columns are stored once
    seen, misses = [], []
    for _ in range(3):
        with pytest.raises((DomainError, OverflowError)) as raised:
            call()
        info = table.cache_info()
        seen.append((raised.type, str(raised.value), info.currsize))
        misses.append(info.misses)
    assert seen == seen[:1] * 3
    assert misses[1] - misses[0] == misses[2] - misses[1] > 0


@pytest.mark.parametrize("cid", ["lemma.ranges", "cmp"])
def test_a_warm_claim_calls_no_family_body(monkeypatch, cid):
    # every family row of these claims is a column: a second run reads them all
    # and enters no family body (each checks its domain with _require, and L
    # is computed by _lg_row)
    from gammapower.certify import run_claims

    specfun._table.cache_clear()
    calls = []
    for name in ("_require", "_lg_row"):
        monkeypatch.setattr(families, name, lambda *args, _f=getattr(families, name), _n=name,
                            **kw: calls.append(_n) or _f(*args, **kw))
    first = [r.to_json() for r in run_claims(cid)]
    assert calls
    calls.clear()
    assert [r.to_json() for r in run_claims(cid)] == first
    assert calls == []
