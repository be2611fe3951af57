"""Log-gamma, digamma and polygamma evaluation in double precision.

log Gamma is the standard library's `math.lgamma`.  psi and psi^(n) share
one Euler-Maclaurin sum of the Hurwitz series

    zeta(s, x) = sum_{j>=0} (x+j)^(-s),    psi^(n)(x) = (-1)^(n+1) n! zeta(n+1, x).

It adds terms directly until y = x + m reaches an edge that grows with s
(or the terms fall below rounding), then adds the integral from y, half the
term at y and the Bernoulli corrections at y.  psi is the same sum at s = 1,
with log y in place of the divergent integral.

Array in, array out: each public function also takes an ndarray of x and
returns an ndarray of its shape.  The array path adds the direct terms of
every entry at once, each entry stepping up to the same edge (without the
scalar loop's early stop), then applies the same corrections; it agrees with
the scalar path to rounding.  A float keeps the scalar loop and its cost:
the dispatch tests `type(x) is float` first, which is cheaper than the
isinstance check it skips.

Every public function returns a finite value or raises: DomainError for an
argument outside (0, inf), nan and inf included, or an order outside
1..MAX_ORDER, and OverflowError when the value exceeds the double range.
An array raises if any entry would.  Everything here is a pure function of
its inputs, so concurrent use is safe.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "DomainError",
    "EULER_GAMMA",
    "PI",
    "ZETA3",
    "MAX_ORDER",
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

# Highest derivative order: 170! is the largest factorial that is a finite double.
MAX_ORDER = 170

# Bernoulli numbers B_2, B_4, ..., B_20 for the Euler-Maclaurin corrections.
_BERNOULLI = (
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
    -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0, 43867.0 / 798.0, -174611.0 / 330.0,
)

_UNIT_ROUNDOFF = 2.0**-53


def _require_positive(x: float) -> None:
    if not 0.0 < x < math.inf:
        raise DomainError(f"argument must be positive and finite, got {x}")


def _positive_array(x: np.ndarray) -> np.ndarray:
    """x as a float array; DomainError unless every entry lies in (0, inf)."""
    x = np.asarray(x, dtype=float)
    bad = x[~((x > 0.0) & (x < math.inf))]
    if bad.size:
        raise DomainError(f"argument must be positive and finite, got {bad[0]}")
    return x


# Orders s up to MAX_ORDER + 1 for polygamma, and beyond for the delta_n tail.
@functools.lru_cache(maxsize=512)
def _corrections(s: int) -> tuple[float, ...]:
    """B_2k (s)_(2k-1) / (2k)! for each B_2k of the table, highest k first."""
    out, c = [], 0.5 * s
    for k, b in enumerate(_BERNOULLI, start=1):
        out.append(b * c)
        c *= (s + 2 * k - 1) * (s + 2 * k) / ((2 * k + 1) * (2 * k + 2))
    return tuple(reversed(out))


def _edge(s: int) -> float:
    """From here on the ten corrections of the order-s sum are exact to rounding."""
    return 6.0 + 0.8 * s


def _remainder(s: int, y):
    """y^s times sum_{j>=0} (y+j)^(-s) less its integral from y, for y >= _edge(s).

    That is 1/2 + sum_k B_2k (s)_(2k-1)/(2k)! y^(1-2k); y is a float or an
    ndarray.
    """
    inv2 = 1.0 / (y * y)
    corr = 0.0
    for c in _corrections(s):
        corr = corr * inv2 + c
    return 0.5 + corr / y


def _euler_maclaurin(s: int, x: float) -> tuple[float, float]:
    """sum_{j>=0} (x+j)^(-s) less its integral from y, and that y = x + m.

    The terms below y are added directly; the rest is y^(-s) times
    :func:`_remainder`.  `x ** -s` raises OverflowError when a term exceeds
    the double range.  This scalar loop writes out _edge and _remainder in
    place: the two calls would add ~10% to a scalar digamma.
    """
    edge = 6.0 + 0.8 * s
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


def _euler_maclaurin_array(s: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_euler_maclaurin` at every entry of an array x in (0, inf).

    Each pass adds the term of every entry still below the edge, so the
    loop runs ceil(edge - min x) times.
    """
    edge = _edge(s)
    total, y = np.zeros(x.shape), x.copy()
    with np.errstate(over="ignore"):
        while (low := y < edge).any():
            total[low] += y[low] ** -s
            y[low] += 1.0
        if not np.isfinite(total).all():
            raise OverflowError(f"a term of the order-{s} sum exceeds the double range")
        return total + y**-s * _remainder(s, y), y


def log_gamma(x: float | np.ndarray) -> float | np.ndarray:
    """log Gamma(x) for x > 0."""
    if type(x) is not float and isinstance(x, np.ndarray):
        x = _positive_array(x)
        return np.fromiter(map(math.lgamma, x.ravel().tolist()), float, x.size).reshape(x.shape)
    _require_positive(x)
    return math.lgamma(x)


def digamma(x: float | np.ndarray) -> float | np.ndarray:
    """psi(x) for x > 0."""
    if type(x) is not float and isinstance(x, np.ndarray):
        total, y = _euler_maclaurin_array(1, _positive_array(x))
        return np.log(y) - total
    _require_positive(x)
    total, y = _euler_maclaurin(1, x)
    return math.log(y) - total


def polygamma(n: int, x: float | np.ndarray) -> float | np.ndarray:
    """psi^(n)(x) for 1 <= n <= MAX_ORDER, x > 0.  Sign is (-1)^(n+1)."""
    if not 1 <= n <= MAX_ORDER:
        raise DomainError(f"polygamma order must be in 1..{MAX_ORDER}, got {n}")
    if type(x) is not float and isinstance(x, np.ndarray):
        total, y = _euler_maclaurin_array(n + 1, _positive_array(x))
        with np.errstate(over="ignore"):
            value = math.factorial(n) * (total + y**-n / n)
        overflow = (value == math.inf).any()
    else:
        _require_positive(x)
        total, y = _euler_maclaurin(n + 1, x)
        value = math.factorial(n) * (total + y**-n / n)
        overflow = value == math.inf
    if overflow:
        # |psi^(n)| decreases in x, so the smallest x overflows first
        raise OverflowError(f"psi^({n})({np.min(x)}) exceeds the double range")
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
