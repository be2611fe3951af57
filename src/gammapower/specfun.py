"""Log-gamma, digamma and polygamma evaluation in double precision.

log Gamma is the standard library's `math.lgamma`.  psi and psi^(n) share
one Euler-Maclaurin sum of the Hurwitz series

    zeta(s, x) = sum_{j>=0} (x+j)^(-s),    psi^(n)(x) = (-1)^(n+1) n! zeta(n+1, x).

It adds terms directly until y = x + m reaches an edge that grows with s
(or the terms fall below rounding), then adds the integral from y, half the
term at y and the Bernoulli corrections at y.  psi is the same sum at s = 1,
with log y in place of the divergent integral.

Every public function returns a finite value or raises: DomainError for an
argument outside (0, inf), nan and inf included, and OverflowError when the
value exceeds the double range.  Everything here is a pure function of its
inputs, so concurrent use is safe.
"""

from __future__ import annotations

import functools
import math

__all__ = [
    "DomainError",
    "EULER_GAMMA",
    "PI",
    "ZETA3",
    "log_gamma",
    "digamma",
    "polygamma",
    "check_polygamma_bounds",
    "psi2_theta",
]


class DomainError(ValueError):
    """Argument outside the real domain supported by this library."""


# Euler-Mascheroni constant, pi, and zeta(3) (only the c0 bracket needs zeta(3)).
EULER_GAMMA = 0.5772156649015328606
PI = math.pi
ZETA3 = 1.2020569031595942854

# Bernoulli numbers B_2, B_4, ..., B_20 for the Euler-Maclaurin corrections.
_BERNOULLI = (
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
    -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0, 43867.0 / 798.0, -174611.0 / 330.0,
)

_UNIT_ROUNDOFF = 2.0**-53


def _require_positive(x: float) -> None:
    if not 0.0 < x < math.inf:
        raise DomainError(f"argument must be positive and finite, got {x}")


@functools.lru_cache(maxsize=128)
def _corrections(s: int) -> tuple[float, ...]:
    """B_2k (s)_(2k-1) / (2k)! for each B_2k of the table, highest k first."""
    out, c = [], 0.5 * s
    for k, b in enumerate(_BERNOULLI, start=1):
        out.append(b * c)
        c *= (s + 2 * k - 1) * (s + 2 * k) / ((2 * k + 1) * (2 * k + 2))
    return tuple(reversed(out))


def _euler_maclaurin(s: int, x: float) -> tuple[float, float]:
    """sum_{j>=0} (x+j)^(-s) less its integral from y, and that y = x + m.

    The terms below y are added directly; the rest is y^(-s)/2 plus
    sum_k B_2k (s)_(2k-1)/(2k)! y^(-s-2k+1).  `x ** -s` raises OverflowError
    when a term exceeds the double range.
    """
    edge = 6.0 + 0.8 * s  # from here on the ten corrections are exact to rounding
    total = 0.0
    while x < edge:
        term = x**-s
        total += term
        x += 1.0
        if term <= _UNIT_ROUNDOFF * total:
            break
    inv2 = 1.0 / (x * x)
    corr = 0.0
    for c in _corrections(s):
        corr = corr * inv2 + c
    return total + x**-s * (0.5 + corr / x), x


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    _require_positive(x)
    return math.lgamma(x)


def digamma(x: float) -> float:
    """psi(x) for x > 0."""
    _require_positive(x)
    total, y = _euler_maclaurin(1, x)
    return math.log(y) - total


def polygamma(n: int, x: float) -> float:
    """psi^(n)(x) for n >= 1, x > 0.  Sign is (-1)^(n+1)."""
    if n < 1:
        raise DomainError(f"polygamma order must be >= 1, got {n}")
    _require_positive(x)
    total, y = _euler_maclaurin(n + 1, x)
    value = math.factorial(n) * (total + y**-n / n)
    if value == math.inf:
        raise OverflowError(f"psi^({n})({x}) exceeds the double range")
    return value if n % 2 == 1 else -value


def check_polygamma_bounds(n: int, x: float) -> bool:
    """Sandwich bounds on |psi^(n)(x)|.

    (n-1)!/x^n + n!/(2x^{n+1}) <= (-1)^{n+1} psi^(n)(x)
                               <= (n-1)!/x^n + n!/x^{n+1}
    """
    value = polygamma(n, x)
    if n % 2 == 0:
        value = -value
    base = math.factorial(n - 1) / x**n
    step = math.factorial(n) / x ** (n + 1)
    tol = 1e-15 * max(1.0, abs(value))
    return base + 0.5 * step <= value + tol and value <= base + step + tol


def psi2_theta(x: float) -> float:
    """Solve psi''(x) = -1/x^2 - 1/x^3 - 1/(2x^4) + theta/(6x^6) for theta.

    The returned theta lies in (0, 1) for every x > 0.
    """
    _require_positive(x)
    psi2 = polygamma(2, x)
    return 6.0 * x**6 * (psi2 + 1.0 / x**2 + 1.0 / x**3 + 0.5 / x**4)
