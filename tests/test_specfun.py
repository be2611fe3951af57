"""Tests for the log-gamma/digamma/polygamma core."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammapower import specfun
from gammapower.families import delta_n, log_g1_deriv
from gammapower.specfun import (
    DomainError,
    EULER_GAMMA,
    MAX_ORDER,
    check_polygamma_bounds,
    digamma,
    log_gamma,
    polygamma,
    psi2_theta,
)
from gammapower.specfun import _edge, _psi_orders

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

    def test_psi2_theta_matches_mpmath(self):
        # theta = 6x^6 (psi''(x) + 1/x^2 + 1/x^3 + 1/(2x^4)); mpmath needs about
        # 6 log10(x) extra digits for that cancellation
        def want(x):
            with mpmath.workdps(60 + 7 * max(0, math.ceil(math.log10(x)))):
                x = mpmath.mpf(x)
                return 6 * x**6 * (mpmath.psi(2, x) + 1 / x**2 + 1 / x**3 + 1 / (2 * x**4))

        below_12 = math.nextafter(12.0, 0.0)
        for x in [*np.geomspace(1e-3, 1e12, 400).tolist(), below_12, 12.0, 100.0, 319.0, 595.0]:
            theta, w = psi2_theta(x), want(x)
            assert 0.0 <= theta <= 1.0
            assert float(abs((theta - w) / w)) <= (3e-11 if x < 12.0 else 1e-13), x
        assert psi2_theta(1e-60) == pytest.approx(3e-120, rel=1e-15)
        assert psi2_theta(1e-110) == pytest.approx(3e-220, rel=1e-15)  # psi''(1e-110) overflows
        assert psi2_theta(5e-324) == 0.0
        assert psi2_theta(1e10) == psi2_theta(1e60) == psi2_theta(1.7976931348623157e308) == 1.0

    @pytest.mark.parametrize("n, x", [(5, 1e70), (170, 1e3)])
    def test_polygamma_bounds_where_x_power_overflows(self, n, x):
        # x^n leaves the double range; psi^(n)(x) and both bounds underflow to 0
        assert check_polygamma_bounds(n, x)

    @pytest.mark.parametrize("wrong", [lambda v: 0.0, lambda v: 2.0 * v], ids=["zero", "twice"])
    def test_polygamma_bounds_reject_a_wrong_small_value(self, monkeypatch, wrong):
        # psi^(6)(1e3) is ~1.2e-16: a tolerance absolute below 1 would accept both
        true = specfun.polygamma
        monkeypatch.setattr(specfun, "polygamma", lambda n, x: wrong(true(n, x)))
        assert not check_polygamma_bounds(6, 1e3)


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


@pytest.mark.parametrize("n", [MAX_ORDER + 1, 10**6])
@pytest.mark.parametrize("fn", [
    lambda n: polygamma(n, 2.0),
    lambda n: polygamma(n, 50.0),
    lambda n: delta_n(1.5, n, 0.1),
    lambda n: log_g1_deriv(1.5, n, 0.1),
], ids=["polygamma(n,2)", "polygamma(n,50)", "delta_n(1.5,n,0.1)", "log_g1_deriv(1.5,n,0.1)"])
def test_order_beyond_max_is_domain_error(fn, n):
    # MAX_ORDER = 170 is the largest n whose n! is a finite double
    assert MAX_ORDER == 170 and math.isfinite(math.factorial(MAX_ORDER))
    with pytest.raises(DomainError, match="170"):
        fn(n)


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


class TestArrayPath:
    """An ndarray x takes the array path; a float keeps the scalar loop."""

    GRID = np.geomspace(1e-3, 1e3, 200)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_matches_scalar_and_mpmath(self, n):
        fn = digamma if n == 0 else (lambda x: polygamma(n, x))
        got = fn(self.GRID)
        assert isinstance(got, np.ndarray) and got.shape == self.GRID.shape
        scalar = np.array([fn(x) for x in self.GRID.tolist()])
        # psi crosses 0 at 1.46..., so its error is measured against max(1, |psi|)
        scale = np.maximum(np.abs(scalar), 1.0) if n == 0 else np.abs(scalar)
        assert np.max(np.abs(got - scalar) / scale) <= 1e-15
        with mpmath.workdps(40):
            want = [mpmath.psi(n, x) for x in self.GRID.tolist()]
        errs = [float(abs(mpmath.mpf(g) - w) / max(abs(w), 1 if n == 0 else 0))
                for g, w in zip(got.tolist(), want)]
        assert max(errs) <= 1e-14

    def test_shape_and_log_gamma(self):
        x = self.GRID.reshape(20, 10)
        assert digamma(x).shape == polygamma(3, x).shape == log_gamma(x).shape == (20, 10)
        assert log_gamma(x).ravel().tolist() == [math.lgamma(v) for v in x.ravel().tolist()]
        assert type(digamma(2.0)) is float and type(polygamma(2, 2.0)) is float

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.5])
    @pytest.mark.parametrize("fn", [log_gamma, digamma, lambda x: polygamma(3, x)],
                             ids=["log_gamma", "digamma", "polygamma"])
    def test_domain_error(self, fn, bad):
        with pytest.raises(DomainError):
            fn(np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize("fn, x", [
        (log_gamma, 1.7e308), (digamma, 5e-324), (lambda x: polygamma(63, x), 1e-4),
    ], ids=["log_gamma(1.7e308)", "digamma(5e-324)", "polygamma(63,1e-4)"])
    def test_overflow_error(self, fn, x):
        # the array names the same call as the float path
        with pytest.raises(OverflowError) as array:
            fn(np.array([1.0, x]))
        with pytest.raises(OverflowError) as point:
            fn(x)
        assert str(array.value) == str(point.value)
        assert str(point.value).endswith(f"({x}) exceeds the double range")


def _outcome(fn, *args):
    """fn(*args) with each float as its hex digits, or the type and text of what it raised."""
    try:
        return tuple(v.hex() for v in fn(*args))
    except (DomainError, OverflowError) as e:
        return type(e), str(e)


def _check_psi_orders(x):
    for top in (1, 2):
        got = _outcome(_psi_orders, x, top)
        want = _outcome(lambda t: [digamma(t), *(polygamma(n, t) for n in range(1, top + 1))], x)
        assert got == want, (x, top)


_EDGES = [_edge(s) for s in (1, 2, 3)]


@pytest.mark.parametrize("x", [
    1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0),  # the shared pass starts at 1e-4
    1e-8, 1e-17,  # where the early stop of psi' (and, at 1e-17, psi) fires
    # where it fires and changes the last bit of psi'', psi' and psi
    2.3009346370054643e-05, 4.31770070580783e-08, 9.754560322487888e-17,
    *_EDGES, *(math.nextafter(e, 0.0) for e in _EDGES),
    *(e - 6.0 for e in _EDGES), *(math.nextafter(e - 6.0, 0.0) for e in _EDGES),
    5e-324, 1e-300, 1e300, math.nan, math.inf,
])
def test_psi_orders_at_the_switch_and_edges(x):
    # one shifted pass for psi, psi' and psi'' is bit for bit the per-order calls
    _check_psi_orders(x)


@given(st.floats(min_value=5e-324, max_value=1e300))
@settings(max_examples=500, deadline=None)
def test_psi_orders_match_per_order_calls_hypothesis(x):
    _check_psi_orders(x)


def _rows_outcome(fn, *args):
    """fn(*args), a sequence of arrays, as each entry's hex digits row by row, or what it raised."""
    try:
        return [[v.hex() for v in np.ravel(row).tolist()] + [np.shape(row)] for row in fn(*args)]
    except (DomainError, OverflowError) as e:
        return type(e), str(e)


_BELOW_EDGES = [math.nextafter(e, 0.0) for e in _EDGES]


@pytest.mark.parametrize("x", [
    [], [0.5], [5e-324], [1e300], [_EDGES[1]], [_BELOW_EDGES[2]],  # no entry, one entry
    [1e-4, 0.37, 2.5, *_EDGES, *_BELOW_EDGES, 20.0, 1e300],  # some need no step
    [*(e - 6.0 for e in _EDGES), *(math.nextafter(e - 6.0, 0.0) for e in _EDGES)],
    [[0.5, 30.0], [_EDGES[0], 1e-3]],  # a 2-d row
    [3.0, 1e-300], [3.0, 5e-324],  # psi' overflows first, then psi
    [0.5, -1.0], [math.nan, 2.0],  # domain
], ids=repr)
def test_array_psi_orders_match_per_order_calls(x):
    # one ladder gives every order, bit for bit the per-order array calls and
    # with their errors, raised in their order
    x = np.array(x)
    for top in (1, 2):
        want = _rows_outcome(lambda t: [digamma(t), *(polygamma(n, t) for n in range(1, top + 1))], x)
        assert _rows_outcome(_psi_orders, x, top) == want, top


def test_array_psi_orders_on_dense_rows_and_the_open_table(table):
    # an open table gives the computed block once, and reads it back
    rng = np.random.default_rng(31)
    x = np.exp(rng.uniform(math.log(1e-4), math.log(50.0), 7680))
    specfun._TABLE_OPEN.set(False)
    want = _rows_outcome(lambda t: [digamma(t), polygamma(1, t), polygamma(2, t)], x)
    specfun._TABLE_OPEN.set(True)
    assert _rows_outcome(_psi_orders, x, 2) == want
    misses = table.cache_info().misses
    assert _rows_outcome(_psi_orders, x, 2) == want
    assert table.cache_info().misses == misses


_KERNEL_ROWS = {size: np.exp(np.random.default_rng(size).uniform(math.log(1e-3), math.log(200.0), size))
                for size in (1, 2, 200, 7680)}


@pytest.mark.parametrize("size", _KERNEL_ROWS)
@pytest.mark.parametrize("s", [1, 2, 3, 7, 171])
def test_euler_maclaurin_ladder_matches_the_masked_loop(s, size):
    # the ladder keeps the masked loop's terms, their order and each final y,
    # alone and stacked under a higher order
    x = _KERNEL_ROWS[size].copy()
    x[::3] += _edge(s) - 6.0  # entries at and past the edge too
    direct, y = oracles.euler_maclaurin_masked(s, x, _edge(s))
    with np.errstate(over="ignore"):
        want = (direct + y**-s * specfun._remainder(s, y)).tobytes(), y.tobytes()
        for orders in ((s,), (s, s + 1), (1, s, 172) if s > 1 else (s, 172)):
            totals, ys = specfun._euler_maclaurin_array(orders, x)
            i = orders.index(s)
            assert (totals[i].tobytes(), ys[i].tobytes()) == want, orders


# Every public function of specfun as f(x), at orders 1 and 4 where it takes one.
_PUBLIC = {
    "log_gamma": log_gamma, "digamma": digamma,
    "polygamma.1": lambda x: polygamma(1, x), "polygamma.4": lambda x: polygamma(4, x),
    "check_polygamma_bounds.2": lambda x: check_polygamma_bounds(2, x),
    "psi2_theta": psi2_theta,
}


def _as_float_call(fn, x):
    """fn(x) with its type and a float as its hex digits, or the type and text it raised."""
    try:
        v = fn(x)
    except (DomainError, OverflowError) as e:
        return type(e), str(e)
    return type(v), v.hex() if type(v) is float else v


@pytest.mark.parametrize("x", [np.float32(0.3), np.float64(0.7), np.int64(3), 2, True,
                               np.float64(1e-320), np.float32(-1.5), np.float64(np.inf)],
                         ids=repr)
@pytest.mark.parametrize("name", _PUBLIC)
def test_numpy_scalar_is_the_float_call(name, x):
    # a number that is neither a float nor an ndarray is computed as float(x):
    # in double precision, as a float, or raising the float call's error
    fn = _PUBLIC[name]
    assert _as_float_call(fn, x) == _as_float_call(fn, float(x))


@pytest.mark.parametrize("name", ["log_gamma", "digamma", "polygamma.1", "polygamma.4"])
def test_zero_dimensional_array_gives_zero_dimensional_array(name):
    fn = _PUBLIC[name]
    got = fn(np.array(0.7))
    assert type(got) is np.ndarray and got.shape == ()
    assert got.item() == fn(np.array([0.7]))[0]


class TestColumnTable:
    """While the table is open an array result is read from it, as computed."""

    X = np.geomspace(1e-2, 50.0, 12)

    def test_returns_a_fresh_writeable_copy(self, table):
        first = digamma(self.X)
        assert first.flags.writeable
        first[:] = 0.0
        again = digamma(self.X)
        assert table.cache_info()[:2] == (1, 1)  # hits, misses
        assert not np.shares_memory(first, again)
        specfun._TABLE_OPEN.set(False)
        assert again.tolist() == digamma(self.X).tolist() != [0.0] * 12

    def test_same_bytes_do_not_collide(self, table):
        # one set of bytes under another shape, function, order, and (for the
        # window series of families) another a or derivative order
        from gammapower.families import h2, h3, log_g2
        window = np.linspace(0.01, 0.2, 12)
        calls = [lambda: log_gamma(self.X), lambda: digamma(self.X),
                 lambda: polygamma(1, self.X), lambda: polygamma(2, self.X),
                 lambda: digamma(self.X.reshape(3, 4)), lambda: digamma(self.X.reshape(4, 3).T),
                 lambda: log_gamma(np.array(self.X[0])),
                 lambda: log_g2(1.0, 0.0, window), lambda: log_g2(2.0, 0.0, window),
                 lambda: h2(1.0, window), lambda: h3(1.0, window)]
        specfun._TABLE_OPEN.set(False)
        want = [call() for call in calls]
        specfun._TABLE_OPEN.set(True)
        misses = []
        for _ in range(2):
            got = [call() for call in calls]
            assert [(v.shape, v.tolist()) for v in got] == [(v.shape, v.tolist()) for v in want]
            misses.append(table.cache_info().misses)
        assert misses[0] == misses[1]

    def test_margin_blocks_do_not_collide(self, table):
        # families' LCM margin blocks are columns too, keyed by (a, max_order):
        # on one set of bytes each block, a log_g1_deriv row and digamma are
        # their own entries.  The log_g1_deriv row reads its order-3 block,
        # one more entry, on its miss only.  Every x is a tail row at a = 1
        # and 1.5, so no call reads a nested column of x + a.
        from gammapower.families import _margin_orders
        x = np.linspace(0.01, 0.3, 12)
        calls = [*[lambda a=a, n=n: _margin_orders(a, x, n, "LCM margins")
                   for a in (1.0, 1.5) for n in (6, 7)],
                 lambda: log_g1_deriv(1.0, 3, x), lambda: digamma(x)]
        specfun._TABLE_OPEN.set(False)
        want = [call() for call in calls]
        specfun._TABLE_OPEN.set(True)
        for hits in (0, len(calls)):
            got = [call() for call in calls]
            assert [(v.shape, v.tolist()) for v in got] == [(v.shape, v.tolist()) for v in want]
            info = table.cache_info()
            assert (info.hits, info.misses, info.currsize) == (hits, len(calls) + 1, len(calls) + 1)

    @pytest.mark.parametrize("fn, x", [
        (digamma, [1.0, -1.0]), (log_gamma, [1.0, math.nan]), (lambda x: polygamma(3, x), [0.0]),
        (digamma, [1.0, 5e-324]), (log_gamma, [1.0, 1.7e308]), (lambda x: polygamma(63, x), [1e-4]),
    ], ids=["digamma-domain", "log_gamma-domain", "polygamma-domain",
            "digamma-overflow", "log_gamma-overflow", "polygamma-overflow"])
    def test_an_error_is_raised_again_and_not_stored(self, table, fn, x):
        texts = []
        for _ in range(3):
            with pytest.raises((DomainError, OverflowError)) as raised:
                fn(np.array(x))
            texts.append((raised.type, str(raised.value)))
        assert texts == texts[:1] * 3
        assert table.cache_info().currsize == 0

    def test_holds_at_most_its_bound(self, table):
        for k in range(specfun._TABLE_SIZE + 5):
            log_gamma(np.array([1.0 + k]))
        info = table.cache_info()
        assert info.misses == specfun._TABLE_SIZE + 5
        assert info.currsize == info.maxsize == specfun._TABLE_SIZE
