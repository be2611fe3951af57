"""The gamma/power combination families and their auxiliary functions.

The two families are

    f(x) = ((Gamma(x+a))^(1/x) / x^c)^(+-1)
    g(x) = ((Gamma(x+a))^(1/x) / (x+a)^c)^(+-1)

together with the three projections studied in depth:

    g1(x) = 1 / (Gamma(x+a))^(1/x)          (f with c = 0, exponent -1)
    g2(x) = (Gamma(x+a))^(1/x) / x^c        (f with exponent +1)
    g3(x) = (Gamma(x+a))^(1/x) / (x+a)^c    (g with exponent +1)

The auxiliary functions h1..h4 reduce the logarithmic derivatives of the
projections to closed form:

    (log g1)'(x)  = h1(x) / x^2
    (log g1)^(n)  = (-1)^n n! delta_n(x) / x^{n+1}
    x (log g2)'   = h2(x) - c
    (log g2)''    = (c - h3(x)) / x^2
    (log g3)'     = (h4(x) - c) / (x + a)
    x (log g3)'   = h2(x) + a c/(x+a) - c

h21, h31, h41 and h41' are the shifted-argument numerators whose sign
changes locate the critical points solved in :mod:`gammapower.critical`.

All evaluations go through log space.  Derivative and series orders n run
over 1..MAX_ORDER.  Every public function takes a float x, giving a float,
or an ndarray of x, giving an ndarray of its shape, from one body: only the
private helpers test whether x is an ndarray.

Every public function is total: a non-finite a or x, or an x outside the
domain, raises DomainError, and a value that is not finite OverflowError.
An array raises if any entry would.

delta_n is summed as powers of x/(x+a+j): its k-th term, k >= 2, is
S_k = x^k zeta(k, x+a)/k = sum_{j>=0} (x/(x+a+j))^k / k (DLMF 5.15.2), and
near x = 0 it takes the tail form delta_n = -log Gamma(a) + sum_{k>n} S_k.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate

import numpy as np

from .specfun import MAX_ORDER, DomainError, digamma, log_gamma, polygamma, EULER_GAMMA
from .specfun import _UNIT_ROUNDOFF, _edge, _remainder

__all__ = [
    "Sign",
    "Params",
    "f_family",
    "g_family",
    "g1",
    "g2",
    "g3",
    "log_g1",
    "log_g2",
    "log_g3",
    "h1",
    "h2",
    "h3",
    "h4",
    "h21",
    "h31",
    "h41",
    "h41_prime",
    "delta_n",
    "log_g1_deriv",
    "x_logderiv_g3",
]

# log_g1 at a in {1, 2} takes its power series where |x| <= _SERIES_RADIUS:
# the direct quotient log Gamma(x+a)/x cancels there since log Gamma(a) = 0.
# Against mpmath (40 digits) the series of _SERIES_TERMS terms is within 2e-16
# on |x| <= 0.25, and the direct form within 1.2e-14 on 0.2 <= |x| <= 0.8.
_SERIES_RADIUS = 0.25
_SERIES_TERMS = 30


class Sign(Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class Params:
    """Parameter pair (a, c) plus the exponent sign of a combination family."""

    a: float
    c: float = 0.0
    sign: Sign = Sign.PLUS


def _total(fn):
    """fn(..., x), where a value that is not finite raises OverflowError.

    An ndarray x is computed under np.errstate, so that an overflow reaches
    this check and not stderr; a float division by an underflowed 0 is inf.
    """
    @functools.wraps(fn)
    def total(*args):
        x = args[-1]
        if type(x) is float or not isinstance(x, np.ndarray):
            try:
                v = fn(*args)
            except ZeroDivisionError:
                v = math.inf
            if -math.inf < v < math.inf:
                return float(v)
        else:
            with np.errstate(all="ignore"):
                v = fn(*args)
            bad = ~np.isfinite(v)
            if not bad.any():
                return v
            x, v = x[bad][0], v[bad][0]
        raise OverflowError(f"{fn.__name__} is not finite at x={x!r}: {v}")
    return total


def _require(name: str, a: float, x, lo: float, zero: bool = True,
             a_lo: float = -math.inf) -> None:
    """DomainError unless a lies in (a_lo, inf) and x in (lo, inf), less 0 unless `zero`.

    x is a float or an ndarray, every entry of which must lie there; nan
    lies nowhere.  The message is formatted only when it raises.
    """
    if not a_lo < a < math.inf:
        raise DomainError(f"{name} requires a in ({a_lo}, inf), got a={a}")
    if type(x) is float or not isinstance(x, np.ndarray):
        if lo < x < math.inf and (zero or x != 0.0):
            return
    else:
        bad = ~((x > lo) & (x < math.inf) & (zero | (x != 0.0)))
        if not bad.any():
            return
        x = x[bad][0]
    raise DomainError(f"{name} requires x in ({lo}, inf){'' if zero else ' less 0'}, got x={x}")


def _exp(v):
    """exp of a float or an ndarray; a value that overflows, +inf or nan raises OverflowError."""
    if type(v) is float or not isinstance(v, np.ndarray):
        if v < math.inf:
            try:
                return math.exp(v)
            except OverflowError:
                pass
    else:
        with np.errstate(all="ignore"):
            e = np.exp(v)
        bad = ~np.isfinite(e)
        if not bad.any():
            return e
        v = v[bad][0]
    raise OverflowError(f"family value overflows: exp({v})")


def _log(x):
    """log of a float or an ndarray."""
    return math.log(x) if type(x) is float or not isinstance(x, np.ndarray) else np.log(x)


def _split(x, inner, f_in, f_out):
    """f_in(x) where `inner` holds and f_out(x) elsewhere, as a float or an ndarray.

    `inner` is a bool for a float x and a bool array for an ndarray x; each
    function sees only its own entries, and one with none is not called.
    """
    if type(x) is float or not isinstance(x, np.ndarray):
        return float(f_in(x) if inner else f_out(x))
    v = np.empty(x.shape)
    for rows, f in ((inner, f_in), (~inner, f_out)):
        if rows.any():
            v[rows] = f(x[rows])
    return v


@_total
def f_family(p: Params, x):
    """((Gamma(x+a))^(1/x) / x^c)^(+-1); x > 0 when c != 0 (real power of x)."""
    _require("f", p.a, x, -p.a if p.c == 0.0 else max(-p.a, 0.0), zero=False)
    v = log_gamma(x + p.a) / x - p.c * _log(x) if p.c != 0.0 else log_gamma(x + p.a) / x
    return _exp(-v if p.sign is Sign.MINUS else v)


@_total
def g_family(p: Params, x):
    """((Gamma(x+a))^(1/x) / (x+a)^c)^(+-1)."""
    _require("g", p.a, x, -p.a, zero=False)
    v = log_gamma(x + p.a) / x - p.c * _log(x + p.a)
    return _exp(-v if p.sign is Sign.MINUS else v)


@functools.cache
def _log_g1_series(a: float) -> tuple[float, ...]:
    """Coefficients b_j of log g1 = sum_j b_j x^j at a in {1, 2}, highest j first.

    b_0 = -psi(a) and b_j = -(-1)^(j+1) zeta(j+1, a)/(j+1) = -psi^(j)(a)/(j+1)!,
    from log Gamma(x+a) = psi(a) x + sum_{k>=2} psi^(k-1)(a) x^k/k! and
    log Gamma(a) = 0.
    """
    b = [EULER_GAMMA - (a - 1.0)] + [-polygamma(j, a) / math.factorial(j + 1)
                                     for j in range(1, _SERIES_TERMS)]
    return tuple(reversed(b))


def _log_g1_near_zero(a: float, x):
    """log g1 from its power series around 0 at a in {1, 2}; x a float or an ndarray."""
    v = 0.0
    for b in _log_g1_series(a):
        v = v * x + b
    return v


@_total
def log_g1(a: float, x):
    """log of g1(x) = 1/(Gamma(x+a))^(1/x), with the removable point at 0.

    For a <= 0 the domain is (-a, inf); for a > 0 it is (-a, inf) minus 0,
    except that x = 0 is admitted for a in {1, 2} via the continuation
    g1(0) = e^gamma (a = 1) or e^(gamma-1) (a = 2).  There, |x| <= 0.25
    takes the power series of :func:`_log_g1_series`.
    """
    special = a in (1.0, 2.0)
    _require("log_g1", a, x, -a, zero=special)
    if not special:
        return -log_gamma(x + a) / x
    return _split(x, abs(x) <= _SERIES_RADIUS, lambda t: _log_g1_near_zero(a, t),
                  lambda t: -log_gamma(t + a) / t)


def g1(a: float, x):
    """g1(x) = 1/(Gamma(x+a))^(1/x); see :func:`log_g1` for the domain."""
    return _exp(log_g1(a, x))


@_total
def log_g2(a: float, c: float, x):
    """log g2(x) on (0, inf)."""
    _require("g2", a, x, 0.0, a_lo=0.0)
    return log_gamma(x + a) / x - c * _log(x)


def g2(a: float, c: float, x):
    """g2(x) = (Gamma(x+a))^(1/x) / x^c on (0, inf)."""
    return _exp(log_g2(a, c, x))


@_total
def log_g3(a: float, c: float, x):
    """log g3(x) on (0, inf)."""
    _require("g3", a, x, 0.0, a_lo=0.0)
    return log_gamma(x + a) / x - c * _log(x + a)


def g3(a: float, c: float, x):
    """g3(x) = (Gamma(x+a))^(1/x) / (x+a)^c on (0, inf)."""
    return _exp(log_g3(a, c, x))


@_total
def h1(a: float, x):
    """-x psi(x+a) + log Gamma(x+a); equals x^2 (log g1)'(x)."""
    _require("h1", a, x, -a)
    return -x * digamma(x + a) + log_gamma(x + a)


@_total
def h2(a: float, x):
    """(x psi(x+a) - log Gamma(x+a)) / x; equals x (log g2)' + c."""
    _require("h2", a, x, 0.0, a_lo=0.0)
    return digamma(x + a) - log_gamma(x + a) / x


@_total
def h3(a: float, x):
    """(-x^2 psi'(x+a) + 2x psi(x+a) - 2 log Gamma(x+a)) / x.

    Satisfies (log g2)'' = (c - h3(x)) / x^2.
    """
    _require("h3", a, x, 0.0, a_lo=0.0)
    return -x * polygamma(1, x + a) + 2.0 * digamma(x + a) - 2.0 * log_gamma(x + a) / x


@_total
def h4(a: float, x):
    """(x(x+a) psi(x+a) - (x+a) log Gamma(x+a)) / x^2.

    Satisfies (log g3)' = (h4(x) - c) / (x + a).
    """
    _require("h4", a, x, 0.0, a_lo=0.0)
    return (x + a) * (x * digamma(x + a) - log_gamma(x + a)) / (x * x)


@_total
def h21(a: float, t):
    """(t-a)^2 psi'(t) - (t-a) psi(t) + log Gamma(t); numerator of h2~'."""
    _require("h21", a, t, 0.0)
    u = t - a
    return u * u * polygamma(1, t) - u * digamma(t) + log_gamma(t)


@_total
def h31(a: float, t):
    """-(t-a)^3 psi''(t) + (t-a)^2 psi'(t) - 2(t-a) psi(t) + 2 log Gamma(t)."""
    _require("h31", a, t, 0.0)
    u = t - a
    return (
        -(u**3) * polygamma(2, t)
        + u * u * polygamma(1, t)
        - 2.0 * u * digamma(t)
        + 2.0 * log_gamma(t)
    )


@_total
def h41(a: float, t):
    """t(t-a)^2 psi'(t) - (t^2-a^2) psi(t) + (t+a) log Gamma(t)."""
    _require("h41", a, t, 0.0)
    u = t - a
    return t * u * u * polygamma(1, t) - (t * t - a * a) * digamma(t) + (t + a) * log_gamma(t)


@_total
def h41_prime(a: float, t):
    """t(t-a)^2 psi''(t) + 2(t-a)^2 psi'(t) - (t-a) psi(t) + log Gamma(t)."""
    _require("h41_prime", a, t, 0.0)
    u = t - a
    return (
        t * u * u * polygamma(2, t)
        + 2.0 * u * u * polygamma(1, t)
        - u * digamma(t)
        + log_gamma(t)
    )


def _tail_rows(a: float, x):
    """Where delta_n takes the tail form: |x| / (x+a) <= rho, for x > -a.

    rho is 0.2, and 0.7 at a in {1, 2}, where delta_n(0) = 0 and the direct
    form cancels: 0.7 keeps log_g1_deriv (n <= 6) within 4e-14 of mpmath on
    (-0.45a, 30), against 2e-11 at 0.2 (measured).  x is a float or an ndarray.
    """
    rho = 0.7 if a in (1.0, 2.0) else 0.2
    return abs(x) <= rho * (x + a)


def _delta_side(a: float, n: int, x, tail: bool, scaled: bool = False) -> list:
    """[delta_1(x), ..., delta_n(x)] for x (a float or a 1-d ndarray) on one side.

    Direct rows: delta_1 = -log Gamma(x+a) + x psi(x+a), delta_k = delta_(k-1)
    - S_k; tail rows: delta_n = -log Gamma(a) + sum_{k>n} S_k, delta_(k-1) =
    delta_k + S_k (module docstring).  S_k adds the ratios j < J in order of j,
    then (x/z)^k (z/(k-1) + _remainder(k, z)) at z = x+a+J past _edge(n+1)
    and, on tail rows, 4|x|: past order n+1 that bracket's error grows like
    k^21 z^-21 while (x/z)^k falls 4x per order (checked against mpmath to
    n = 170).  A row drops it once below rounding of its sum; tail orders are
    added until each term is, at most ~110.  `scaled` tail rows (a in {1, 2},
    so log Gamma(a) = 0) give delta_k / x^(k+1), in range where delta_k
    underflows: 1 for x in the ratios' numerators, order k > n weighted by
    x^(k-n-1), delta_(k-1) = x delta_k + S_k/x^k; at x = 0, zeta(k+1, a)/(k+1).
    """
    edge, reach = _edge(n + 1), 4.0 * abs(x) if tail else 0.0
    u, p = (1.0, x) if scaled else (x, 1.0)
    if not isinstance(x, np.ndarray):  # a float: lists beat numpy's per-call cost
        shift = math.ceil(max(reach - a - x, edge - a - x, 0.0))
        r = [u / (x + (a + j)) for j in range(shift)]
        power, add, top = (lambda v: list(map(operator.mul, v, r))), sum, float
    else:
        shift = np.ceil(np.maximum(np.maximum(reach - a - x, edge - a - x), 0.0))
        j = np.arange(max(math.ceil(shift.max()), 1))[:, None]
        r = np.where(j < shift, u / (x + (a + j)), 0.0)
        power, add, top = (lambda v: v * r), (lambda v: v.sum(axis=0)), np.ndarray.max
    z = x + (a + shift)
    q = u / z
    near, far, live, sums, total, w = r, q, True, [], 0.0, 1.0
    for k in range(2, n + 256 if tail else n + 1):
        near = power(near)
        s = add(near)
        if far is not None:
            far = far * q
            beyond = far * (z / (k - 1) + _remainder(k, z)) * live
            s = s + beyond
            live = live & (abs(beyond * w) > _UNIT_ROUNDOFF * abs(s if k <= n else total))
            if not top(live):
                far = None
        s = s / k
        if k <= n:
            sums.append(s)
            continue
        total = total + w * s
        if top(abs(w * s) - _UNIT_ROUNDOFF * abs(total)) <= 0.0:
            break
        w = w * p
    if tail:
        return list(accumulate([total - log_gamma(a), *sums[::-1]], lambda d, t: p * d + t))[::-1]
    return list(accumulate([-log_gamma(x + a) + x * digamma(x + a), *sums], operator.sub))


def _deltas(a: float, n: int, x, scaled: bool = False):
    """delta_1(x)..delta_n(x) (/ x^(k+1) on `scaled` tail rows) by :func:`_delta_side`.

    A list for a float; for an ndarray, shape (n,) + x.shape, in blocks of 4096
    rows.  The caller checks the domain and runs an ndarray under np.errstate.
    """
    tail = _tail_rows(a, x)
    if not isinstance(x, np.ndarray):
        return _delta_side(a, n, x, tail, scaled and tail)
    flat, out = x.ravel(), np.empty((n, x.size))
    for side, rows in ((True, np.flatnonzero(tail)), (False, np.flatnonzero(~tail))):
        for i in (rows[k:k + 4096] for k in range(0, rows.size, 4096)):
            out[:, i] = np.reshape(_delta_side(a, n, flat[i], side, scaled and side), (n, -1))
    return out.reshape((n,) + x.shape)


@_total
def delta_n(a: float, n: int, x):
    """-log Gamma(x+a) - sum_{k=1..n} ((-1)^k x^k / k!) psi^(k-1)(x+a).

    Summed as powers of x/(x+a+j) by :func:`_delta_side`.  Near 0 the direct
    form cancels (delta_n = O(x^{n+1}), its terms O(1)); where :func:`_tail_rows`
    holds the tail form is finite to n = MAX_ORDER, its error growing by about
    an ulp per order (up to 3e-14 at n = 170).  Elsewhere the error is ~1e-16 of
    the largest term: at a in {1, 2} delta_n -> 0 as n grows, so high orders
    lose all relative accuracy (delta_n(2, 60, 5.0) is 1.4e-5 off mpmath).
    """
    if not 1 <= n <= MAX_ORDER:
        raise DomainError(f"delta_n requires 1 <= n <= {MAX_ORDER}, got {n}")
    _require("delta_n", a, x, -a)
    return _deltas(a, n, x)[-1]


@_total
def log_g1_deriv(a: float, n: int, x):
    """n-th derivative of log g1 at x, (-1)^n times order n of :func:`_lcm_margins`.

    That is (-1)^n n! delta_n(x) / x^{n+1}, and at the removable point x = 0
    (a in {1, 2} only) -psi^(n)(a)/(n+1).
    """
    return (-1.0) ** n * _lcm_margins(a, x, n, "log_g1_deriv")[..., -1]


def _lcm_margins(a: float, x, max_order: int, name: str = "LCM margins") -> np.ndarray:
    """(-1)^n (log g1)^(n)(x) = n! delta_n(x)/x^(n+1), n = 1..max_order, in the last axis.

    One :func:`_deltas` pass, with x = m 2^e (1 <= |m| < 2), times the running
    product of k/m (below n!), 1/m and an exact 2^(-(n+1) e): finite wherever
    the value is.  At a in {1, 2} tail rows, x = 0 among them, come scaled
    and take n! alone; x = 0 gives n! zeta(n+1, a)/(n+1) = -(-1)^n
    psi^(n)(a)/(n+1).  Past the double range an ndarray raises OverflowError
    naming `name`; a float gives inf or raises it.
    """
    if not 1 <= max_order <= MAX_ORDER:
        raise DomainError(f"{name} requires 1 <= n <= {MAX_ORDER}, got {max_order}")
    _require(name, a, x, -a, zero=a in (1.0, 2.0))
    lib = np if isinstance(x, np.ndarray) else math
    frac, exp2 = lib.frexp(x)
    m, shift, scaled = 2.0 * frac, 1 - exp2, a in (1.0, 2.0)
    keep = 1 - (scaled & _tail_rows(a, x))  # scaled rows come as delta_n / x^(n+1)
    m, shift = m**keep, shift * keep  # m = 1 and no shift there
    scale, margins = 1.0, []
    with np.errstate(all="ignore") if lib is np else contextlib.nullcontext():
        for k, d in enumerate(_deltas(a, max_order, x, scaled), 1):
            scale = scale * (k / m)
            margins.append(lib.ldexp(scale / m * d, (k + 1) * shift))
    margins = np.stack(margins, axis=-1) if lib is np else np.array(margins)
    if lib is np and not np.isfinite(margins).all():
        raise OverflowError(f"{name}: a value exceeds the double range")
    return margins


@_total
def x_logderiv_g3(a: float, c: float, x):
    """x g3'(x)/g3(x) = h2(x) + a c/(x+a) - c.

    Tends to 0 as x -> 0+ and to 1 - c as x -> inf; h2 checks the domain.
    """
    return h2(a, x) + a * c / (x + a) - c
