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

All evaluations go through log space; overflow of the final exp raises
OverflowError rather than saturating, and so does an exponent that is +inf
or nan.  Derivative and series orders n run over 1..MAX_ORDER.

Array in, array out: log_g1, log_g2, log_g3, h2, h3, h4, x_logderiv_g3 and
log_g1_deriv also take an ndarray of x and return an ndarray of its shape,
from array calls into specfun; an array with any entry outside the domain
raises DomainError.  A float keeps the scalar path: the dispatch tests
`type(x) is float` first, as specfun does.

delta_n near x = 0 is summed in its factorial-free tail form

    delta_n(x) = -log Gamma(a) + sum_{k>n} sum_{j>=0} (x/(x+a+j))^k / k,

which follows from psi^(k-1)(y) = (-1)^k (k-1)! zeta(k, y) (DLMF 5.15.2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

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


def _exp_checked(v: float) -> float:
    """exp(v); an exponent that overflows, +inf or nan raises OverflowError."""
    if v < math.inf:
        try:
            return math.exp(v)
        except OverflowError:
            pass
    raise OverflowError(f"family value overflows: exp({v})")


def _check_family_domain(a: float, x: float) -> None:
    if x <= -a:
        raise DomainError(f"x must exceed -a = {-a}, got {x}")
    if x == 0.0:
        raise DomainError("x = 0 is outside the family domain")


def f_family(p: Params, x: float) -> float:
    """((Gamma(x+a))^(1/x) / x^c)^(+-1)."""
    _check_family_domain(p.a, x)
    if p.c != 0.0 and x < 0.0:
        raise DomainError("x must be positive when c != 0 (real power of x)")
    v = log_gamma(x + p.a) / x - p.c * math.log(x) if p.c != 0.0 else log_gamma(x + p.a) / x
    if p.sign is Sign.MINUS:
        v = -v
    return _exp_checked(v)


def g_family(p: Params, x: float) -> float:
    """((Gamma(x+a))^(1/x) / (x+a)^c)^(+-1)."""
    _check_family_domain(p.a, x)
    v = log_gamma(x + p.a) / x - p.c * math.log(x + p.a)
    if p.sign is Sign.MINUS:
        v = -v
    return _exp_checked(v)


def _require_above(x: np.ndarray, lo: float, what: str) -> None:
    """DomainError naming the first entry of x that is not above lo (nan included)."""
    bad = x[~(x > lo)]
    if bad.size:
        raise DomainError(f"{what}, got {bad[0]}")


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


def log_g1(a: float, x):
    """log of g1(x) = 1/(Gamma(x+a))^(1/x), with the removable point at 0.

    For a <= 0 the domain is (-a, inf); for a > 0 it is (-a, inf) minus 0,
    except that x = 0 is admitted for a in {1, 2} via the continuation
    g1(0) = e^gamma (a = 1) or e^(gamma-1) (a = 2).  There, |x| <= 0.25
    takes the power series of :func:`_log_g1_series`.
    """
    special = a in (1.0, 2.0)
    if type(x) is not float and isinstance(x, np.ndarray):
        _require_above(x, -a, f"x must exceed -a = {-a}")
        near = abs(x) <= _SERIES_RADIUS if special else x == 0.0
        v = np.empty(x.shape)
        if near.any():
            if not special:
                raise DomainError("g1(0) is only defined for a = 1 or a = 2")
            v[near] = _log_g1_near_zero(a, x[near])
        v[~near] = -log_gamma(x[~near] + a) / x[~near]
        return v
    if special and abs(x) <= _SERIES_RADIUS:
        return _log_g1_near_zero(a, x)
    if x <= -a:
        raise DomainError(f"x must exceed -a = {-a}, got {x}")
    if x == 0.0:
        raise DomainError("g1(0) is only defined for a = 1 or a = 2")
    return -log_gamma(x + a) / x


def g1(a: float, x: float) -> float:
    """g1(x) = 1/(Gamma(x+a))^(1/x); see :func:`log_g1` for the domain."""
    return _exp_checked(log_g1(a, x))


def _check_positive_pair(a: float, x, name: str) -> None:
    if a <= 0.0:
        raise DomainError(f"{name} requires a > 0, got a={a}")
    if type(x) is not float and isinstance(x, np.ndarray):
        _require_above(x, 0.0, f"{name} requires x > 0")
    elif x <= 0.0:
        raise DomainError(f"{name} requires x > 0, got x={x}")


def log_g2(a: float, c: float, x):
    """log g2(x) on (0, inf)."""
    _check_positive_pair(a, x, "g2")
    return log_gamma(x + a) / x - c * (math.log(x) if type(x) is float else np.log(x))


def g2(a: float, c: float, x: float) -> float:
    """g2(x) = (Gamma(x+a))^(1/x) / x^c on (0, inf)."""
    return _exp_checked(log_g2(a, c, x))


def log_g3(a: float, c: float, x):
    """log g3(x) on (0, inf)."""
    _check_positive_pair(a, x, "g3")
    return log_gamma(x + a) / x - c * (math.log(x + a) if type(x) is float else np.log(x + a))


def g3(a: float, c: float, x: float) -> float:
    """g3(x) = (Gamma(x+a))^(1/x) / (x+a)^c on (0, inf)."""
    return _exp_checked(log_g3(a, c, x))


def h1(a: float, x: float) -> float:
    """-x psi(x+a) + log Gamma(x+a); equals x^2 (log g1)'(x)."""
    if x <= -a:
        raise DomainError(f"x must exceed -a = {-a}, got {x}")
    return -x * digamma(x + a) + log_gamma(x + a)


def h2(a: float, x):
    """(x psi(x+a) - log Gamma(x+a)) / x; equals x (log g2)' + c."""
    _check_positive_pair(a, x, "h2")
    return digamma(x + a) - log_gamma(x + a) / x


def h3(a: float, x):
    """(-x^2 psi'(x+a) + 2x psi(x+a) - 2 log Gamma(x+a)) / x.

    Satisfies (log g2)'' = (c - h3(x)) / x^2.
    """
    _check_positive_pair(a, x, "h3")
    return -x * polygamma(1, x + a) + 2.0 * digamma(x + a) - 2.0 * log_gamma(x + a) / x


def h4(a: float, x):
    """(x(x+a) psi(x+a) - (x+a) log Gamma(x+a)) / x^2.

    Satisfies (log g3)' = (h4(x) - c) / (x + a).
    """
    _check_positive_pair(a, x, "h4")
    return (x + a) * (x * digamma(x + a) - log_gamma(x + a)) / (x * x)


def h21(a: float, t: float) -> float:
    """(t-a)^2 psi'(t) - (t-a) psi(t) + log Gamma(t); numerator of h2~'."""
    if t <= 0.0:
        raise DomainError(f"h21 requires t > 0, got {t}")
    u = t - a
    return u * u * polygamma(1, t) - u * digamma(t) + log_gamma(t)


def h31(a: float, t: float) -> float:
    """-(t-a)^3 psi''(t) + (t-a)^2 psi'(t) - 2(t-a) psi(t) + 2 log Gamma(t)."""
    if t <= 0.0:
        raise DomainError(f"h31 requires t > 0, got {t}")
    u = t - a
    return (
        -(u**3) * polygamma(2, t)
        + u * u * polygamma(1, t)
        - 2.0 * u * digamma(t)
        + 2.0 * log_gamma(t)
    )


def h41(a: float, t: float) -> float:
    """t(t-a)^2 psi'(t) - (t^2-a^2) psi(t) + (t+a) log Gamma(t)."""
    if t <= 0.0:
        raise DomainError(f"h41 requires t > 0, got {t}")
    u = t - a
    return t * u * u * polygamma(1, t) - (t * t - a * a) * digamma(t) + (t + a) * log_gamma(t)


def h41_prime(a: float, t: float) -> float:
    """t(t-a)^2 psi''(t) + 2(t-a)^2 psi'(t) - (t-a) psi(t) + log Gamma(t)."""
    if t <= 0.0:
        raise DomainError(f"h41_prime requires t > 0, got {t}")
    u = t - a
    return (
        t * u * u * polygamma(2, t)
        + 2.0 * u * u * polygamma(1, t)
        - u * digamma(t)
        + log_gamma(t)
    )


def _tail_rows(a: float, x):
    """Where delta_n takes the tail form: x != 0 and |x| / (x+a) <= rho, for x > -a.

    rho is 0.2, and 0.7 at a in {1, 2}, where delta_n(0) = -log Gamma(a) = 0
    and the direct form cancels to O(x^(n+1)) from O(1) terms.  0.7 was
    measured: it keeps log_g1_deriv (n <= 6) within 4e-14 of mpmath on
    (-0.45a, 30), against 2e-11 at 0.2.  An infinite x takes the direct
    form.  x is a float or an ndarray.
    """
    rho = 0.7 if a in (1.0, 2.0) else 0.2
    return (x != 0.0) & (abs(x) / (x + a) <= rho)


def _delta_tail(a: float, n: int, x):
    """delta_n(x) = -log Gamma(a) + sum_{k>n} sum_{j>=0} (x/(x+a+j))^k / k.

    Each tail term ((-x)^k/k!) psi^(k-1)(x+a) equals x^k zeta(k, x+a)/k, the
    sum over j of r_j^k/k with r_j = x/(x+a+j), so no factorial appears and
    nothing underflows before the sum does.  The ratios j < J are summed
    directly; the rest are (x/z)^k (z/(k-1) + _remainder(k, z)) at
    z = x+a+J, where z is past both the order-(n+1) edge and 4|x|.  Past
    order n+1, z may fall short of _edge(k); the bracket's error there grows
    like k^21 z^-21 while (x/z)^k falls by 4x per order, so it stays below
    rounding of the sum (checked against mpmath up to n = 170).  Once that
    part is below rounding of the sum it is dropped.  Orders are added until
    every term is below rounding relative to its sum; with |r_0| <= 0.7 (see
    :func:`_tail_rows`) that takes at most ~110 of them.  Each temporary
    holds J values per row.  x is a float, or an ndarray of tail rows.
    """
    xs = np.asarray(x, dtype=float)
    shift = math.ceil(max(_edge(n + 1), 4.0 * float(np.max(np.abs(xs)))) - a - float(np.min(xs)))
    shift = max(shift, 0)
    r = xs[..., None] / (xs[..., None] + (a + np.arange(shift)))
    z = x + (a + shift)
    near, q = r**n, x / z
    far, total = q**n, 0.0 * z
    for k in range(n + 1, n + 256):
        near *= r
        term = near.sum(axis=-1)
        if far is not None:
            far = far * q
            beyond = far * (z / (k - 1) + _remainder(k, z))
            term = term + beyond
        term = term / k
        total += term
        if (abs(term) <= _UNIT_ROUNDOFF * abs(total)).all():
            break
        if far is not None and (abs(beyond) <= _UNIT_ROUNDOFF * abs(total)).all():
            far = None
    return total - (0.0 if a in (1.0, 2.0) else log_gamma(a))


def delta_n(a: float, n: int, x: float) -> float:
    """-log Gamma(x+a) - sum_{k=1..n} ((-1)^k x^k / k!) psi^(k-1)(x+a).

    The direct form cancels catastrophically as x -> 0 (delta_n = O(x^{n+1})
    while the individual terms are O(1)), so where :func:`_tail_rows` holds
    (|x| <= 0.2 (x+a), or 0.7 (x+a) at a in {1, 2}) the factorial-free tail
    form of :func:`_delta_tail` is used instead.  It starts at the leading
    order, converges geometrically and is finite for every n up to
    MAX_ORDER; its relative error grows by about an ulp per order (1.4e-14
    against mpmath at n = 170).
    """
    if not 1 <= n <= MAX_ORDER:
        raise DomainError(f"delta_n requires 1 <= n <= {MAX_ORDER}, got {n}")
    if x <= -a:
        raise DomainError(f"x must exceed -a = {-a}, got {x}")
    if _tail_rows(a, x):
        return float(_delta_tail(a, n, x))
    s = -log_gamma(x + a)
    term = 1.0
    for k in range(1, n + 1):
        term *= -x / k
        pk = digamma(x + a) if k == 1 else polygamma(k - 1, x + a)
        s -= term * pk
    return s


def log_g1_deriv(a: float, n: int, x):
    """n-th derivative of log g1 at x.

    For x != 0 this is the closed form (-1)^n n! delta_n(x) / x^{n+1}; at the
    removable point x = 0 (only a = 1 or a = 2) it is -psi^(n)(a)/(n+1).  An
    ndarray x takes order n of :func:`_lcm_margins`.
    """
    if not 1 <= n <= MAX_ORDER:
        raise DomainError(f"log_g1_deriv requires 1 <= n <= {MAX_ORDER}, got {n}")
    if type(x) is not float and isinstance(x, np.ndarray):
        return (-1.0) ** n * _lcm_margins(a, x.ravel(), n)[:, n - 1].reshape(x.shape)
    if x == 0.0:
        if a not in (1.0, 2.0):
            raise DomainError("derivatives at x = 0 require a = 1 or a = 2")
        return -polygamma(n, a) / (n + 1)
    if x <= -a:
        raise DomainError(f"x must exceed -a = {-a}, got {x}")
    sign = -1.0 if n % 2 == 1 else 1.0
    return sign * math.factorial(n) * delta_n(a, n, x) / x ** (n + 1)


def _lcm_margins(a: float, x: np.ndarray, max_order: int) -> np.ndarray:
    """(-1)^n (log g1)^(n)(x) = n! delta_n(x) / x^(n+1), shape (len(x), max_order).

    Column n-1 holds order n, the values (-1)^n log_g1_deriv(a, n, x) gives
    point by point, from one pass: psi^(k-1)(x+a) for k = 1..N are N array
    calls, the direct rows build delta_1..delta_N as one running sum, and the
    tail rows (:func:`_tail_rows`) sum the tail once at order N and step down
    with delta_(k-1) = delta_k + t_k psi^(k-1)(x+a), t_k = (-x)^k/k!.  A row
    x = 0 (a in {1, 2} only) takes -(-1)^n psi^(n)(a)/(n+1).
    """
    if not 1 <= max_order <= MAX_ORDER:
        raise DomainError(f"LCM orders must lie in 1..{MAX_ORDER}, got {max_order}")
    x = np.asarray(x, dtype=float)
    _require_above(x, -a, f"x must exceed -a = {-a}")
    zero = x == 0.0
    if zero.any() and a not in (1.0, 2.0):
        raise DomainError("derivatives at x = 0 require a = 1 or a = 2")
    y = x + a
    psi = [digamma(y)] + [polygamma(k, y) for k in range(1, max_order)]
    t = np.empty((max_order, x.size))  # t[k-1] = (-x)^k / k!
    d, term = -log_gamma(y), np.ones_like(x)
    delta = np.empty((x.size, max_order))
    for k in range(1, max_order + 1):
        term = term * (-x / k)
        t[k - 1] = term
        d = d - term * psi[k - 1]
        delta[:, k - 1] = d
    tail = _tail_rows(a, x)
    if tail.any():
        d = _delta_tail(a, max_order, x[tail])
        for k in range(max_order, 1, -1):
            delta[tail, k - 1] = d
            d = d + t[k - 1, tail] * psi[k - 1][tail]
        delta[tail, 0] = d
    n = np.arange(1, max_order + 1)
    factorial = np.cumprod(n, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        margins = factorial * delta / x[:, None] ** (n + 1)
    if zero.any():
        margins[zero] = [(-1) ** k * -polygamma(k, a) / (k + 1) for k in n]
    if not np.isfinite(margins).all():
        raise OverflowError("an LCM margin exceeds the double range")
    return margins


def x_logderiv_g3(a: float, c: float, x):
    """x g3'(x)/g3(x) = h2(x) + a c/(x+a) - c.

    Tends to 0 as x -> 0+ and to 1 - c as x -> inf.
    """
    _check_positive_pair(a, x, "x_logderiv_g3")
    return h2(a, x) + a * c / (x + a) - c
