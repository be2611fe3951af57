"""Independent oracles for the test suite.

Everything here deliberately avoids the code paths under test: the series
oracles sum the defining series directly with Euler-Maclaurin tail
corrections, and the finite-difference oracles approximate derivatives from
function values alone.  Tests compare library output against these.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

EULER_GAMMA = 0.5772156649015328606

_EPS = math.ulp(1.0)


def digamma_series(x: float, terms: int = 100_000) -> float:
    """psi(x) = -gamma + sum_{k>=0} (1/(k+1) - 1/(k+x)), tail-corrected.

    The tail past K is integral + half-term + first Euler-Maclaurin term of
    f(t) = 1/(t+1) - 1/(t+x).
    """
    s = -EULER_GAMMA
    s += math.fsum(1.0 / (k + 1.0) - 1.0 / (k + x) for k in range(terms))
    K = float(terms)
    s += math.log((K + x) / (K + 1.0))
    s += 0.5 * (1.0 / (K + 1.0) - 1.0 / (K + x))
    s += (-1.0 / (K + 1.0) ** 2 + 1.0 / (K + x) ** 2) / 12.0
    return s


def polygamma_series(n: int, x: float, terms: int = 100_000) -> float:
    """psi^(n)(x) = (-1)^(n+1) n! sum_{k>=0} (x+k)^-(n+1), tail-corrected."""
    s = math.fsum((x + k) ** -(n + 1) for k in range(terms))
    edge = x + terms
    s += edge**-n / n + 0.5 * edge ** -(n + 1) + (n + 1) / 12.0 * edge ** -(n + 2)
    s *= math.factorial(n)
    return s if n % 2 == 1 else -s


def log_gamma_product(x: float, shift: int = 40, terms: int = 50) -> float:
    """log Gamma via recurrence down from a high-argument Stirling series.

    Independent of the library's path: shifts by a fixed 40 steps and uses a
    longer Stirling tail (terms coefficients from the Bernoulli numbers).
    """
    # Bernoulli numbers B_2..B_{2*terms} by the recurrence on B_m.
    bern = _bernoulli_even(terms)
    z = x + shift
    s = (z - 0.5) * math.log(z) - z + 0.5 * math.log(2.0 * math.pi)
    for k in range(1, terms + 1):
        term = bern[k] / (2.0 * k * (2.0 * k - 1.0) * z ** (2 * k - 1))
        if abs(term) < 1e-18 * abs(s):
            break
        s += term
    s -= math.fsum(math.log(x + j) for j in range(shift))
    return s


def _bernoulli_even(count: int) -> dict[int, float]:
    """B_2, B_4, ..., B_{2 count} as {k: B_2k} via the standard recurrence."""
    from fractions import Fraction

    m = 2 * count + 1
    b = [Fraction(0)] * m
    b[0] = Fraction(1)
    for j in range(1, m):
        acc = Fraction(0)
        for i in range(j):
            acc += Fraction(math.comb(j + 1, i)) * b[i]
        b[j] = -acc / (j + 1)
    return {k: float(b[2 * k]) for k in range(1, count + 1)}


# Step exponents balancing truncation against rounding for the stencils
# below (orders 1-2 are fourth-order accurate, 3-4 second-order).
_STEP_EXPONENT = {1: 1.0 / 3.0, 2: 1.0 / 6.0, 3: 1.0 / 5.0, 4: 1.0 / 7.0}


def fd_step(x: float, order: int) -> float:
    """Balanced step for an order-th derivative central difference."""
    return max(abs(x), 1.0) * _EPS ** _STEP_EXPONENT[order]


def central_diff(f: Callable[[float], float], x: float, order: int = 1,
                 h: float | None = None) -> float:
    """Central finite-difference derivative of f at x, orders 1..4.

    Orders 1 and 2 use fourth-order stencils, orders 3 and 4 second-order
    ones; the default step balances truncation against rounding.
    """
    if h is None:
        h = fd_step(x, order)
    if order == 1:
        return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)
    if order == 2:
        return (
            -f(x - 2 * h) + 16 * f(x - h) - 30 * f(x) + 16 * f(x + h) - f(x + 2 * h)
        ) / (12 * h * h)
    if order == 3:
        return (-f(x - 2 * h) + 2 * f(x - h) - 2 * f(x + h) + f(x + 2 * h)) / (2 * h**3)
    if order == 4:
        return (
            f(x - 2 * h) - 4 * f(x - h) + 6 * f(x) - 4 * f(x + h) + f(x + 2 * h)
        ) / h**4
    raise ValueError(f"unsupported derivative order {order}")


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


def euler_maclaurin_masked(s: int, x: np.ndarray, edge: float) -> tuple[np.ndarray, np.ndarray]:
    """sum of (x+j)^(-s) over x+j below edge, and each entry's first x+j at or past it.

    The masked pass specfun's array Euler-Maclaurin sum took before its
    ladder: each pass adds the term of every entry still below the edge.
    """
    total, y = np.zeros(x.shape), x.copy()
    with np.errstate(over="ignore"):
        while (low := y < edge).any():
            total[low] += y[low] ** -s
            y[low] += 1.0
    return total, y


def far_powers_vander(z: np.ndarray) -> np.ndarray:
    """Rows z, 1, 1/z, 1/z^3, ..., 1/z^19 of an array z, as np.vander and np.vstack lay them out."""
    inv = 1.0 / z
    return np.vstack([z, np.ones_like(z), np.vander(inv * inv, 10, True).T * inv])
