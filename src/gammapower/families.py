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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .specfun import MAX_ORDER, DomainError, digamma, log_gamma, polygamma, EULER_GAMMA

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

# Width of the Taylor window around x = 0 used by log_g1 for a in {1, 2};
# the direct quotient log Gamma(x+a)/x cancels there since log Gamma(a) = 0.
_TAYLOR_WINDOW = 1e-4


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


def log_g1(a: float, x: float) -> float:
    """log of g1(x) = 1/(Gamma(x+a))^(1/x), with the removable point at 0.

    For a <= 0 the domain is (-a, inf); for a > 0 it is (-a, inf) minus 0,
    except that x = 0 is admitted for a in {1, 2} via the continuation
    g1(0) = e^gamma (a = 1) or e^(gamma-1) (a = 2).
    """
    if a > 0.0 and abs(x) < _TAYLOR_WINDOW and a in (1.0, 2.0):
        # Taylor form around the removable point; the direct quotient
        # cancels since log Gamma(a) = 0.
        v = EULER_GAMMA if a == 1.0 else EULER_GAMMA - 1.0
        if x != 0.0:
            term = 1.0
            for n in range(1, 5):
                term *= x / n
                v += log_g1_deriv(a, n, 0.0) * term
        return v
    if x <= -a:
        raise DomainError(f"x must exceed -a = {-a}, got {x}")
    if x == 0.0:
        raise DomainError("g1(0) is only defined for a = 1 or a = 2")
    return -log_gamma(x + a) / x


def g1(a: float, x: float) -> float:
    """g1(x) = 1/(Gamma(x+a))^(1/x); see :func:`log_g1` for the domain."""
    return _exp_checked(log_g1(a, x))


def log_g2(a: float, c: float, x: float) -> float:
    if a <= 0.0:
        raise DomainError(f"g2 requires a > 0, got a={a}")
    if x <= 0.0:
        raise DomainError(f"g2 requires x > 0, got {x}")
    return log_gamma(x + a) / x - c * math.log(x)


def g2(a: float, c: float, x: float) -> float:
    """g2(x) = (Gamma(x+a))^(1/x) / x^c on (0, inf)."""
    return _exp_checked(log_g2(a, c, x))


def log_g3(a: float, c: float, x: float) -> float:
    if a <= 0.0:
        raise DomainError(f"g3 requires a > 0, got a={a}")
    if x <= 0.0:
        raise DomainError(f"g3 requires x > 0, got {x}")
    return log_gamma(x + a) / x - c * math.log(x + a)


def g3(a: float, c: float, x: float) -> float:
    """g3(x) = (Gamma(x+a))^(1/x) / (x+a)^c on (0, inf)."""
    return _exp_checked(log_g3(a, c, x))


def h1(a: float, x: float) -> float:
    """-x psi(x+a) + log Gamma(x+a); equals x^2 (log g1)'(x)."""
    if x <= -a:
        raise DomainError(f"x must exceed -a = {-a}, got {x}")
    return -x * digamma(x + a) + log_gamma(x + a)


def _check_positive_pair(a: float, x: float, name: str) -> None:
    if a <= 0.0:
        raise DomainError(f"{name} requires a > 0, got a={a}")
    if x <= 0.0:
        raise DomainError(f"{name} requires x > 0, got x={x}")


def h2(a: float, x: float) -> float:
    """(x psi(x+a) - log Gamma(x+a)) / x; equals x (log g2)' + c."""
    _check_positive_pair(a, x, "h2")
    return digamma(x + a) - log_gamma(x + a) / x


def h3(a: float, x: float) -> float:
    """(-x^2 psi'(x+a) + 2x psi(x+a) - 2 log Gamma(x+a)) / x.

    Satisfies (log g2)'' = (c - h3(x)) / x^2.
    """
    _check_positive_pair(a, x, "h3")
    return -x * polygamma(1, x + a) + 2.0 * digamma(x + a) - 2.0 * log_gamma(x + a) / x


def h4(a: float, x: float) -> float:
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


def delta_n(a: float, n: int, x: float) -> float:
    """-log Gamma(x+a) - sum_{k=1..n} ((-1)^k x^k / k!) psi^(k-1)(x+a).

    The direct form cancels catastrophically as x -> 0 (delta_n = O(x^{n+1})
    while the individual terms are O(1)), so for small |x| relative to x+a
    the Taylor-tail form is used instead:

        delta_n(x) = -log Gamma(a) + sum_{k>n} ((-1)^k x^k / k!) psi^(k-1)(x+a),

    which starts at the leading order and converges geometrically.
    """
    if not 1 <= n <= MAX_ORDER:
        raise DomainError(f"delta_n requires 1 <= n <= {MAX_ORDER}, got {n}")
    if x <= -a:
        raise DomainError(f"x must exceed -a = {-a}, got {x}")
    if x != 0.0 and abs(x) <= 0.2 * (x + a) and a > 0.0:
        s = 0.0 if a in (1.0, 2.0) else -log_gamma(a)
        term = (-x) ** n / math.factorial(n)
        lead = 0.0
        for k in range(n + 1, n + 60):
            term *= -x / k
            t = term * polygamma(k - 1, x + a)
            s += t
            if lead == 0.0:
                lead = abs(t)
            elif abs(t) < 1e-17 * lead:
                break
        return s
    s = -log_gamma(x + a)
    term = 1.0
    for k in range(1, n + 1):
        term *= -x / k
        pk = digamma(x + a) if k == 1 else polygamma(k - 1, x + a)
        s -= term * pk
    return s


def log_g1_deriv(a: float, n: int, x: float) -> float:
    """n-th derivative of log g1 at x.

    For x != 0 this is the closed form (-1)^n n! delta_n(x) / x^{n+1}; at the
    removable point x = 0 (only a = 1 or a = 2) it is -psi^(n)(a)/(n+1).
    """
    if not 1 <= n <= MAX_ORDER:
        raise DomainError(f"log_g1_deriv requires 1 <= n <= {MAX_ORDER}, got {n}")
    if x == 0.0:
        if a not in (1.0, 2.0):
            raise DomainError("derivatives at x = 0 require a = 1 or a = 2")
        return -polygamma(n, a) / (n + 1)
    if x <= -a:
        raise DomainError(f"x must exceed -a = {-a}, got {x}")
    sign = -1.0 if n % 2 == 1 else 1.0
    return sign * math.factorial(n) * delta_n(a, n, x) / x ** (n + 1)


def x_logderiv_g3(a: float, c: float, x: float) -> float:
    """x g3'(x)/g3(x) = h2(x) + a c/(x+a) - c.

    Tends to 0 as x -> 0+ and to 1 - c as x -> inf.
    """
    _check_positive_pair(a, x, "x_logderiv_g3")
    return h2(a, x) + a * c / (x + a) - c
