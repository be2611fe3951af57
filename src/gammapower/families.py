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
These and h3 take psi, psi' and psi'' from one shifted pass of specfun
(:func:`specfun._psi_orders`), at a float and at a row alike, bit for bit
the per-order calls.  g1, g2, g3 and x_logderiv_g3 run the body of log_g1,
log_g2, log_g3 and h2 under their own check, so a row is checked once.

All evaluations go through log space.  Derivative and series orders n run
over 1..MAX_ORDER.  Every public function takes a float x, giving a float,
or an ndarray of x, giving an ndarray of its shape (0-d included), from one
body; any other x, a NumPy scalar or an int, is taken as float(x).  Only
:func:`_total` flattens x and restores its shape: each helper gets a float or
a flat float64 row, and certify hands _lg_over and _margin_orders 1-d samples.
A row of every public function, of _lg_over, of the near-zero series and of
the LCM margins is a column of specfun's table (:func:`specfun._column`),
keyed by the function, its scalar arguments and the row's bytes: while
certify._check has the table open, a row seen before is read back.

Every public function is total: a non-finite a or x, or an x outside the
domain, raises DomainError, and a value that is not finite OverflowError.
An array raises if any entry would.

delta_n is summed as powers of x/(x+a+j): its k-th term, k >= 2, is
S_k = x^k zeta(k, x+a)/k = sum_{j>=0} (x/(x+a+j))^k / k (DLMF 5.15.2), and
near x = 0 it takes the tail form delta_n = -log Gamma(a) + sum_{k>n} S_k.
That tail is summed per ratio r = x/(x+a+j), as r^(n+1) h_n(r) with
h_n(r) = sum_{m>=0} r^m/(n+1+m) = B(r; n+1, 0)/r^(n+1) (DLMF 8.17).

f, g, log_g1..log_g3 and h1..h4 are built on L(x) = log Gamma(x+a)/x, which
cancels near x = 0 at a in {1, 2} (log Gamma(a) = 0): in one window there,
|x| <= 0.25, each takes its value from L's power series alone (DLMF 5.7.3).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, repeat

from .specfun import MAX_ORDER, DomainError, digamma, log_gamma, polygamma, EULER_GAMMA, np
from .specfun import _UNIT_ROUNDOFF, _column, _corrections, _edge, _psi_orders

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

# The window of :func:`_near_zero`, a in {1, 2} and |x| <= _SERIES_RADIUS, where every
# L-based function takes L's series to _SERIES_TERMS terms.  Against mpmath these are
# within 4e-16 relative there (h3 the worst), and the direct forms within 1.9e-13 (h3)
# and 1.3e-14 (the rest) on 0.25 < |x| <= 0.8.
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

    Any x but an ndarray is taken as float(x).  An ndarray is computed as a
    flat float64 row under np.errstate, so that an overflow reaches this check
    and not stderr; that row, checked, is a column of specfun's table keyed by
    fn and the other arguments (an a or c of -0.0 shares the key of 0.0, and
    no value here differs between them).  For a float x, a division by an
    underflowed 0 or a math overflow is inf.  Either way the error names the
    first entry of x that fails as the float path does.
    """
    @functools.wraps(fn)
    def total(*args):
        x = args[-1]
        if type(x) is not float:
            if isinstance(x, np.ndarray):
                return total_array(args[:-1], x)
            x = float(x)
            args = (*args[:-1], x)
        try:
            v = fn(*args)
        except (ZeroDivisionError, OverflowError):
            v = math.inf
        if -math.inf < v < math.inf:
            return float(v)
        raise _not_finite(fn, x, v)

    def total_array(head, x):
        flat = np.asarray(x, dtype=float).ravel()
        return _column(row, *head, flat).reshape(x.shape)

    def row(*args):
        *head, flat = args
        try:
            with np.errstate(all="ignore"):
                v = fn(*head, flat)
        except (ZeroDivisionError, OverflowError):
            # the array call cannot say which entry raised; the float path can
            for xi in flat.tolist():
                total(*head, xi)
            raise
        bad = ~np.isfinite(v)
        if bad.any():
            raise _not_finite(fn, float(flat[bad][0]), float(v[bad][0]))
        return v
    return total


def _not_finite(fn, x: float, v: float) -> OverflowError:
    return OverflowError(f"{fn.__name__} is not finite at x={x!r}: {v}")


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
    """exp of a float or an ndarray."""
    return math.exp(v) if type(v) is float or not isinstance(v, np.ndarray) else np.exp(v)


def _log(x):
    """log of a float or an ndarray."""
    return math.log(x) if type(x) is float or not isinstance(x, np.ndarray) else np.log(x)


@functools.cache
def _series(a: float, k: int) -> tuple[float, ...]:
    """Coefficients of L^(k) = sum_{j>=k} j!/(j-k)! b_j x^(j-k) at a in {1, 2}, highest first:
    L = sum_j b_j x^j, b_0 = psi(a), b_j = psi^(j)(a)/(j+1)! (DLMF 5.7.3; log Gamma(a) = 0)."""
    b = [-(EULER_GAMMA - (a - 1.0))] + [polygamma(j, a) / math.factorial(j + 1)
                                        for j in range(1, _SERIES_TERMS)]
    return tuple(math.perm(j, k) * b[j] for j in range(_SERIES_TERMS - 1, k - 1, -1))


def _near_zero(k: int, value, fn, a: float, x):
    """A reader of L at a in {1, 2} (the caller checked a and x) from L's series, or None.

    value(t, d) gives the reader from t, the x in the window |x| <= _SERIES_RADIUS, and
    d = L^(k)(t); None means no x lies there.  Other row entries, if any, take fn(a, .)."""
    rows = abs(x) <= _SERIES_RADIUS
    if type(x) is float or not isinstance(x, np.ndarray):
        return value(x, _horner(a, k, x)) if rows else None
    if not rows.any():
        return None
    v, t = np.empty(x.shape), x[rows]
    v[rows] = value(t, _column(_horner, a, k, t))
    if not rows.all():
        v[~rows] = fn(a, x[~rows])
    return v


def _horner(a: float, k: int, t):
    """L^(k)(t) at a in {1, 2} from the :func:`_series` coefficients; t a float or an ndarray."""
    d = 0.0
    for c in _series(a, k):
        d = d * t + c
    return d


def _lg_over(a: float, x):
    """L(x) = log Gamma(x+a)/x for a float or a row; the caller checks the domain.

    A row is a column of specfun's table, as a public function's is."""
    if type(x) is float or not isinstance(x, np.ndarray):
        return _lg_row(a, x)
    return _column(_lg_row, a, x)


def _lg_row(a: float, x):
    """:func:`_lg_over` at a float or a row, computed."""
    v = _near_zero(0, lambda t, d: d, _lg_row, a, x) if a in (1.0, 2.0) else None
    return log_gamma(x + a) / x if v is None else v


@_total
def f_family(p: Params, x):
    """((Gamma(x+a))^(1/x) / x^c)^(+-1); x > 0 when c != 0 (real power of x)."""
    _require("f", p.a, x, -p.a if p.c == 0.0 else max(-p.a, 0.0), zero=False)
    v = _lg_over(p.a, x) - p.c * _log(x) if p.c != 0.0 else _lg_over(p.a, x)
    return _exp(-v if p.sign is Sign.MINUS else v)


@_total
def g_family(p: Params, x):
    """((Gamma(x+a))^(1/x) / (x+a)^c)^(+-1)."""
    _require("g", p.a, x, -p.a, zero=False)
    v = _lg_over(p.a, x) - p.c * _log(x + p.a)
    return _exp(-v if p.sign is Sign.MINUS else v)


@_total
def log_g1(a: float, x):
    """log of g1(x) = 1/(Gamma(x+a))^(1/x), with the removable point at 0.

    For a <= 0 the domain is (-a, inf); for a > 0 it is (-a, inf) minus 0,
    except that x = 0 is admitted for a in {1, 2} via the continuation
    g1(0) = e^gamma (a = 1) or e^(gamma-1) (a = 2).
    """
    _require("log_g1", a, x, -a, zero=a in (1.0, 2.0))
    return -_lg_over(a, x)


# The bodies that g1, g2, g3 and x_logderiv_g3 build on: the composed function's
# own check covers the row, so they skip a second _total pass.
_log_g1 = log_g1.__wrapped__


@_total
def g1(a: float, x):
    """g1(x) = 1/(Gamma(x+a))^(1/x); see :func:`log_g1` for the domain."""
    return _exp(_log_g1(a, x))


@_total
def log_g2(a: float, c: float, x):
    """log g2(x) on (0, inf)."""
    _require("g2", a, x, 0.0, a_lo=0.0)
    return _lg_over(a, x) - c * _log(x)


_log_g2 = log_g2.__wrapped__


@_total
def g2(a: float, c: float, x):
    """g2(x) = (Gamma(x+a))^(1/x) / x^c on (0, inf)."""
    return _exp(_log_g2(a, c, x))


@_total
def log_g3(a: float, c: float, x):
    """log g3(x) on (0, inf)."""
    _require("g3", a, x, 0.0, a_lo=0.0)
    return _lg_over(a, x) - c * _log(x + a)


_log_g3 = log_g3.__wrapped__


@_total
def g3(a: float, c: float, x):
    """g3(x) = (Gamma(x+a))^(1/x) / (x+a)^c on (0, inf)."""
    return _exp(_log_g3(a, c, x))


@_total
def h1(a: float, x):
    """-x psi(x+a) + log Gamma(x+a); equals x^2 (log g1)'(x)."""
    _require("h1", a, x, -a)
    # 0.0 - keeps h1(0) = 0 unsigned
    v = _near_zero(1, lambda t, d: 0.0 - t * (t * d), h1, a, x) if a in (1.0, 2.0) else None
    return -x * digamma(x + a) + log_gamma(x + a) if v is None else v


@_total
def h2(a: float, x):
    """(x psi(x+a) - log Gamma(x+a)) / x; equals x (log g2)' + c."""
    _require("h2", a, x, 0.0, a_lo=0.0)
    v = _near_zero(1, lambda t, d: t * d, h2, a, x) if a in (1.0, 2.0) else None
    return digamma(x + a) - log_gamma(x + a) / x if v is None else v


_h2 = h2.__wrapped__


@_total
def h3(a: float, x):
    """(-x^2 psi'(x+a) + 2x psi(x+a) - 2 log Gamma(x+a)) / x.

    Satisfies (log g2)'' = (c - h3(x)) / x^2.
    """
    _require("h3", a, x, 0.0, a_lo=0.0)
    if a in (1.0, 2.0) and (v := _near_zero(2, lambda t, d: -t * (t * d), h3, a, x)) is not None:
        return v
    t = x + a
    psi, psi1 = _psi_orders(t, 1)
    return -x * psi1 + 2.0 * psi - 2.0 * log_gamma(t) / x


@_total
def h4(a: float, x):
    """(x(x+a) psi(x+a) - (x+a) log Gamma(x+a)) / x^2.

    Satisfies (log g3)' = (h4(x) - c) / (x + a).
    """
    _require("h4", a, x, 0.0, a_lo=0.0)
    v = _near_zero(1, lambda t, d: (t + a) * d, h4, a, x) if a in (1.0, 2.0) else None
    return (x + a) * (x * digamma(x + a) - log_gamma(x + a)) / (x * x) if v is None else v


@_total
def h21(a: float, t):
    """(t-a)^2 psi'(t) - (t-a) psi(t) + log Gamma(t); numerator of h2~'."""
    _require("h21", a, t, 0.0)
    u = t - a
    psi, psi1 = _psi_orders(t, 1)
    return u * u * psi1 - u * psi + log_gamma(t)


@_total
def h31(a: float, t):
    """-(t-a)^3 psi''(t) + (t-a)^2 psi'(t) - 2(t-a) psi(t) + 2 log Gamma(t)."""
    _require("h31", a, t, 0.0)
    u = t - a
    psi, psi1, psi2 = _psi_orders(t, 2)
    return -(u**3) * psi2 + u * u * psi1 - 2.0 * u * psi + 2.0 * log_gamma(t)


@_total
def h41(a: float, t):
    """t(t-a)^2 psi'(t) - (t^2-a^2) psi(t) + (t+a) log Gamma(t)."""
    _require("h41", a, t, 0.0)
    u = t - a
    psi, psi1 = _psi_orders(t, 1)
    return t * u * u * psi1 - (t * t - a * a) * psi + (t + a) * log_gamma(t)


@_total
def h41_prime(a: float, t):
    """t(t-a)^2 psi''(t) + 2(t-a)^2 psi'(t) - (t-a) psi(t) + log Gamma(t)."""
    _require("h41_prime", a, t, 0.0)
    u = t - a
    psi, psi1, psi2 = _psi_orders(t, 2)
    return t * u * u * psi2 + 2.0 * u * u * psi1 - u * psi + log_gamma(t)


def _tail_rows(a: float, x):
    """Where delta_n takes the tail form: |x| / (x+a) <= rho, for x > -a.

    rho is 0.2, and 0.7 at a in {1, 2}, where delta_n(0) = 0 and the direct
    form cancels: 0.7 keeps log_g1_deriv (n <= 6) within 4e-14 of mpmath on
    (-0.45a, 30), against 2e-11 at 0.2 (measured).  rho also bounds the
    ratios x/(x+a+j) whose h_n :func:`_tail_sum` sums, so Horner needs at
    most ~107 terms.  x is a float or an ndarray.
    """
    rho = 0.7 if a in (1.0, 2.0) else 0.2
    return abs(x) <= rho * (x + a)


def _terms(rho: float) -> int:
    """Terms m < M of sum_m rho^m c_m (c_m > 0 falling) to rounding, for 0 <= rho < 1.

    The rest is at most rho^M c_M / (1 - rho) <= u c_0: rho^M <= u (1 - rho).
    """
    return max(1, math.ceil(math.log(_UNIT_ROUNDOFF * (1.0 - rho)) / math.log(rho))) if rho else 1


@functools.lru_cache(maxsize=512)
def _far_table(top: int) -> tuple[tuple[float, ...], ...]:
    """Per order k = 2 .. top, the coefficients of z/((k-1)k) + specfun._remainder(k, z)/k.

    Each row holds those of z, 1, 1/z, 1/z^3, ..., 1/z^19.
    """
    return tuple((1.0 / ((k - 1) * k), 0.5 / k, *(c / k for c in reversed(_corrections(k))))
                 for k in range(2, top + 1))


def _far_parts(top: int, z) -> list:
    """[z^k zeta(k, z)/k, k = 2 .. top] by one :func:`_far_table` product; z a float or ndarray."""
    inv = 1.0 / z
    if type(z) is float or not isinstance(z, np.ndarray):
        powers = [z, 1.0, *accumulate(repeat(inv * inv, 9), operator.mul, initial=inv)]
        return [sum(map(operator.mul, row, powers)) for row in _far_table(top)]
    # v^k / z for v = 1/z^2 from v's running products, as np.vander takes them, in
    # an F-ordered block: the product's last bits depend on that layout
    powers = np.empty((12, z.size), order="F")
    powers[0], powers[1], powers[2] = z, 1.0, inv
    v = power = inv * inv
    for row in powers[3:]:
        np.multiply(power, inv, out=row)
        power = power * v
    return _far_matrix(top) @ powers


@functools.lru_cache(maxsize=512)
def _far_matrix(top: int) -> np.ndarray:
    """:func:`_far_table` as a read-only (top - 1, 12) array."""
    matrix = np.reshape(_far_table(top), (-1, 12))
    matrix.flags.writeable = False
    return matrix


def _tail_sum(n: int, r, rn, p, q, far):
    """sum_{k>n} p^(k-n-1) s_k with s_k = sum_{j>=0} r_j^k / k, on tail rows.

    r_j = u/(x+a+j) and p are those of :func:`_delta_side`, so s_k is S_k, or
    S_k/x^k on scaled rows, and p r_j = x/(x+a+j).  The ratios j < J (r, with
    rn = r^(n+1)) give sum_j r_j^(n+1) h_n(p r_j), h_n(rho) = sum_{m>=0}
    rho^m/(n+1+m), by Horner to :func:`_terms` of |p r_j| <= 0.7: per ratio
    for a float, at the block's largest for an ndarray.  The ratios from z =
    x+a+J on give q^(n+1) sum_{i<K} g^i far_i, far_i the :func:`_far_parts`
    entry of order n+1+i, by Horner in g = p q = x/z, |g| <= 1/4 by the 4|x|
    reach.  The remainder's error grows like k^21 z^-21 past order n+1 while
    g^i falls at least 4x per order (checked against mpmath to n = 170).
    """
    first, g, beyond = 1.0 / (n + 1), p * q, 0.0
    for part in reversed(far):
        beyond = beyond * g + part
    if type(g) is float or not isinstance(g, np.ndarray):
        near = 0.0
        for rj, t in zip(r, rn):
            rho, h = p * rj, 0.0
            for k in range(n + _terms(abs(rho)), n + 1, -1):
                h = (h + 1.0 / k) * rho
            near += t * (h + first)
        return near + q ** (n + 1) * beyond
    rho = p * r
    h = np.zeros(rho.shape)
    for k in range(n + _terms(float(np.abs(rho).max())), n + 1, -1):
        h += 1.0 / k
        h *= rho
    return (rn * (h + first)).sum(axis=0) + q ** (n + 1) * beyond


def _delta_side(a: float, n: int, x, tail: bool, scaled: bool = False) -> list:
    """[delta_1(x), ..., delta_n(x)] for x (a float or a row) on one side.

    Direct rows: delta_1 = -log Gamma(x+a) + x psi(x+a), delta_k = delta_(k-1)
    - S_k; tail rows: delta_n = -log Gamma(a) + sum_{k>n} S_k, delta_(k-1) =
    delta_k + S_k (module docstring).  S_k adds the ratios j < J in order of
    j, then x^k zeta(k, z)/k, (x/z)^k times the :func:`_far_parts` entry, at
    z = x+a+J past _edge(n+1) and, on tail rows, 4|x|.  One product gives
    those far parts for the orders 2..n and, on tail rows, the K orders past
    n that :func:`_tail_sum` adds to its one h_n per ratio.  `scaled` tail rows (a in
    {1, 2}, so log Gamma(a) = 0) give delta_k / x^(k+1), in range where
    delta_k underflows: 1 for x in the ratios' numerators, order k > n
    weighted by x^(k-n-1), delta_(k-1) = x delta_k + S_k/x^k; at x = 0,
    zeta(k+1, a)/(k+1).
    """
    edge, reach = _edge(n + 1), 4.0 * abs(x) if tail else 0.0
    u, p = (1.0, x) if scaled else (x, 1.0)
    if type(x) is float or not isinstance(x, np.ndarray):  # lists beat numpy's per-call cost
        shift = math.ceil(max(reach - a - x, edge - a - x, 0.0))
        r = [u / (x + (a + j)) for j in range(shift)]
        power, add, largest = (lambda v: list(map(operator.mul, v, r))), sum, float
    else:
        shift = np.ceil(np.maximum(np.maximum(reach - a - x, edge - a - x), 0.0))
        j = np.arange(max(math.ceil(shift.max()), 1))[:, None]
        r = np.where(j < shift, u / (x + (a + j)), 0.0)
        power, add, largest = (lambda v: v * r), (lambda v: v.sum(axis=0)), np.ndarray.max
    z = x + (a + shift)
    q = u / z
    far = _far_parts(n + (_terms(largest(abs(p * q))) if tail else 0), z)
    near, qk, sums = r, q, []
    for k, part in zip(range(2, n + 1), far):
        near = power(near)
        qk = qk * q
        sums.append(add(near) / k + qk * part)
    if not tail:
        return list(accumulate([-log_gamma(x + a) + x * digamma(x + a), *sums], operator.sub))
    total = _tail_sum(n, r, power(near), p, q, far[n - 1:]) - log_gamma(a)
    return list(accumulate([total, *sums[::-1]], lambda d, t: p * d + t))[::-1]


def _deltas(a: float, n: int, x, scaled: bool = False):
    """delta_1(x)..delta_n(x) (/ x^(k+1) on `scaled` tail rows) by :func:`_delta_side`.

    A list for a float; for a row, shape (n, x.size), in blocks of 4096 entries.
    The caller checks the domain, runs a row under np.errstate and checks that
    its values are finite.
    """
    tail = _tail_rows(a, x)
    if type(x) is float or not isinstance(x, np.ndarray):
        return _delta_side(a, n, x, tail, scaled and tail)
    out = np.empty((n, x.size))
    for side, rows in ((True, np.flatnonzero(tail)), (False, np.flatnonzero(~tail))):
        for i in (rows[k:k + 4096] for k in range(0, rows.size, 4096)):
            out[:, i] = _delta_side(a, n, x[i], side, scaled and side)
    return out


@_total
def delta_n(a: float, n: int, x):
    """-log Gamma(x+a) - sum_{k=1..n} ((-1)^k x^k / k!) psi^(k-1)(x+a).

    Summed as powers of x/(x+a+j) by :func:`_delta_side`.  Near 0 the direct
    form cancels (delta_n = O(x^{n+1}), its terms O(1)); where :func:`_tail_rows`
    holds the tail form sums h_n once per ratio and every order past n of the
    far ratios in one product (:func:`_tail_sum`).  It is finite to n =
    MAX_ORDER, its error growing by about an ulp per order (up to 3e-14 at n =
    170).  Elsewhere the error is ~1e-16 of the largest term: at a in {1, 2}
    delta_n -> 0 as n grows, so the relative error grows from the first orders
    on.  Against mpmath at a = 2, x = 5 it is 2e-13 at n = 10, 4e-10 at n = 30
    and 1e-5 at n = 60; at a = 1, x = 2.5, 7e-11 at n = 30.
    """
    if not 1 <= n <= MAX_ORDER:
        raise DomainError(f"delta_n requires 1 <= n <= {MAX_ORDER}, got {n}")
    _require("delta_n", a, x, -a)
    return _deltas(a, n, x)[-1]


@_total
def log_g1_deriv(a: float, n: int, x):
    """n-th derivative of log g1 at x, (-1)^n times order n of :func:`_margin_orders`.

    That is (-1)^n n! delta_n(x) / x^{n+1}, and at the removable point x = 0
    (a in {1, 2} only) -psi^(n)(a)/(n+1).
    """
    return (-1.0) ** n * _margin_orders(a, x, n, "log_g1_deriv")[-1]


def _signed_ldexp(v: float, e: int) -> float:
    """math.ldexp(v, e), or inf with the sign of v where that exceeds the double range."""
    try:
        return math.ldexp(v, e)
    except OverflowError:
        return math.copysign(math.inf, v)


def _margin_orders(a: float, x, max_order: int, name: str):
    """[n! delta_n(x)/x^(n+1) for n = 1..max_order], a list at a float x.

    These are the LCM margins (-1)^n (log g1)^(n) that certify_lcm checks.
    A row x gives them as one (max_order, x.size) block, a column of
    specfun's table keyed by (a, max_order) and the row's bytes: while
    certify._check has the table open, a row seen before gives a copy of
    its block, and :func:`_margins` runs only on a miss.
    """
    if not 1 <= max_order <= MAX_ORDER:
        raise DomainError(f"{name} requires 1 <= n <= {MAX_ORDER}, got {max_order}")
    _require(name, a, x, -a, zero=a in (1.0, 2.0))
    if type(x) is float or not isinstance(x, np.ndarray):
        return _margins(a, max_order, x)
    return _column(_margins, a, max_order, x)


def _margins(a: float, max_order: int, x):
    """:func:`_margin_orders` at a checked float or row x.

    One :func:`_deltas` pass, with x = m 2^e (1 <= |m| < 2), times the running
    product of k/m (below n!), 1/m and an exact 2^(-(n+1) e): finite wherever
    the value is.  Each order overwrites its delta in place.  At a in {1, 2}
    tail rows, x = 0 among them, come scaled and take n! alone; x = 0 gives
    n! zeta(n+1, a)/(n+1) = -(-1)^n psi^(n)(a)/(n+1).  Past the double range
    a value is inf with its sign (or nan): the caller runs a row under
    np.errstate and checks that its values are finite.
    """
    lib = math if type(x) is float or not isinstance(x, np.ndarray) else np
    ldexp = _signed_ldexp if lib is math else np.ldexp
    frac, exp2 = lib.frexp(x)
    m, shift, scaled = 2.0 * frac, 1 - exp2, a in (1.0, 2.0)
    keep = 1 - (scaled & _tail_rows(a, x))  # scaled rows come as delta_n / x^(n+1)
    m, shift = m**keep, shift * keep  # m = 1 and no shift there
    scale, margins = 1.0, _deltas(a, max_order, x, scaled)
    for k, d in enumerate(margins, 1):
        scale = scale * (k / m)
        margins[k - 1] = ldexp(scale / m * d, (k + 1) * shift)
    return margins


@_total
def x_logderiv_g3(a: float, c: float, x):
    """x g3'(x)/g3(x) = h2(x) + a c/(x+a) - c.

    Tends to 0 as x -> 0+ and to 1 - c as x -> inf; h2 checks the domain.
    """
    return _h2(a, x) + a * c / (x + a) - c
