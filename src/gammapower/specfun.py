"""Log-gamma, digamma and polygamma evaluation in double precision.

Strategy: recurrence-shift the argument up past a threshold, then apply the
Stirling-type asymptotic expansion.  For very small arguments the polygamma
functions fall back on their defining series with an Euler-Maclaurin tail
correction, which avoids stacking a dozen recurrence steps on top of a
dominant 1/x^{n+1} term.

Everything here is a pure function of its inputs, so concurrent use is
safe.
"""

from __future__ import annotations

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


# Euler-Mascheroni constant, pi, and zeta(3) (zeta(3) is only needed for the
# c0 bracket constants).
EULER_GAMMA = 0.5772156649015328606
PI = math.pi
ZETA3 = 1.2020569031595942854


# Argument size above which the asymptotic expansions are trusted; below it
# the recurrence shifts the argument up.
_SHIFT_THRESHOLD = 12.0

# Truncation tolerance and term cap of the direct-series fallback.
_SERIES_TOL = 1e-15
_MAX_TERMS = 400

# Small-argument cutoff below which polygamma uses the direct series.
_SERIES_CUTOFF = 0.05

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# Stirling coefficients for log Gamma: sum c_k / x^{2k-1}.
_LOG_GAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
)

# psi(x) ~ log x - 1/(2x) - sum d_k / x^{2k}.
_DIGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)

# Bernoulli numbers B_2, B_4, ..., B_12 for the polygamma expansion.
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0, -691.0 / 2730.0)


def _require_positive(x: float) -> None:
    if not x > 0.0:
        raise DomainError(f"argument must be positive, got {x}")


def _log_gamma_asymptotic(x: float) -> float:
    s = (x - 0.5) * math.log(x) - x + _HALF_LOG_TWO_PI
    inv2 = 1.0 / (x * x)
    p = 1.0 / x
    for c in _LOG_GAMMA_COEFFS:
        s += c * p
        p *= inv2
    return s


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    _require_positive(x)
    shift = 0.0
    while x < _SHIFT_THRESHOLD:
        shift += math.log(x)
        x += 1.0
    return _log_gamma_asymptotic(x) - shift


def _digamma_asymptotic(x: float) -> float:
    s = math.log(x) - 0.5 / x
    inv2 = 1.0 / (x * x)
    p = inv2
    for d in _DIGAMMA_COEFFS:
        s -= d * p
        p *= inv2
    return s


def digamma(x: float) -> float:
    """psi(x) for x > 0."""
    _require_positive(x)
    shift = 0.0
    while x < _SHIFT_THRESHOLD:
        shift += 1.0 / x
        x += 1.0
    return _digamma_asymptotic(x) - shift


def _polygamma_asymptotic(n: int, x: float) -> float:
    # Term-wise differentiation of the psi expansion:
    # |psi^(n)(x)| ~ (n-1)!/x^n + n!/(2 x^{n+1})
    #               + sum_k B_{2k} (2k+n-1)!/(2k)! x^{-(2k+n)}
    fac = math.factorial(n - 1)
    s = fac / x**n + fac * n / (2.0 * x ** (n + 1))
    for k, b in enumerate(_BERNOULLI, start=1):
        coeff = b * math.factorial(2 * k + n - 1) / math.factorial(2 * k)
        s += coeff / x ** (2 * k + n)
    return s if n % 2 == 1 else -s


def _polygamma_series(n: int, x: float) -> float:
    # Direct series sum_{k>=0} (x+k)^{-(n+1)} with an Euler-Maclaurin tail.
    s = 0.0
    k = 0
    while k < _MAX_TERMS:
        term = (x + k) ** -(n + 1)
        s += term
        k += 1
        if term < _SERIES_TOL * s and k > 8:
            break
    edge = x + k
    # integral tail + half-term + first Euler-Maclaurin correction
    s += edge**-n / n + 0.5 * edge ** -(n + 1) + (n + 1) / 12.0 * edge ** -(n + 2)
    s *= math.factorial(n)
    return s if n % 2 == 1 else -s


def polygamma(n: int, x: float) -> float:
    """psi^(n)(x) for n >= 1, x > 0.  Sign is (-1)^(n+1)."""
    if n < 1:
        raise DomainError(f"polygamma order must be >= 1, got {n}")
    _require_positive(x)
    # For n >= 8 the direct series converges in a handful of terms and beats
    # the truncated Bernoulli expansion; below the cutoff it avoids stacking
    # recurrence steps onto a dominant 1/x^{n+1} term.
    if x < _SERIES_CUTOFF or n >= 8:
        return _polygamma_series(n, x)
    shift = 0.0
    while x < _SHIFT_THRESHOLD:
        shift += x ** -(n + 1)
        x += 1.0
    # psi^(n)(x) = psi^(n)(x+m) - (-1)^n n! sum_k (x+k)^{-(n+1)}
    shift *= math.factorial(n)
    if n % 2 == 1:
        shift = -shift
    return _polygamma_asymptotic(n, x) - shift


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
    tol = _SERIES_TOL * max(1.0, abs(value))
    return base + 0.5 * step <= value + tol and value <= base + step + tol


def psi2_theta(x: float) -> float:
    """Solve psi''(x) = -1/x^2 - 1/x^3 - 1/(2x^4) + theta/(6x^6) for theta.

    The returned theta lies in (0, 1) for every x > 0.
    """
    _require_positive(x)
    psi2 = polygamma(2, x)
    return 6.0 * x**6 * (psi2 + 1.0 / x**2 + 1.0 / x**3 + 0.5 / x**4)
