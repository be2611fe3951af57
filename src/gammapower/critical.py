"""Critical points of the combination families by bracketed root finding.

Each critical point is the root of a transcendental equation:

    x0, x1, x2 :  x psi(x+a) = log Gamma(x+a)                     (roots of h1)
    x3         :  x^2 psi'(x+a) + log Gamma(x+a) = x psi(x+a)     (root of h21)
    x4         :  x^2(x+a) psi'(x+a) + (x+2a) log Gamma(x+a)
                    = x(x+2a) psi(x+a)                            (root of h41)
    t4~        :  t(t-a)^2 psi''(t) + 2(t-a)^2 psi'(t) + log Gamma(t)
                    = (t-a) psi(t)                                (root of h41')

Brackets come from a geometric expansion off the left endpoint (first probe
offset 1e-6, growth factor 2, capped at 1e6); the roots are then refined by
bisection with a safeguarded secant step.  All solves are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .specfun import digamma, polygamma
from .families import h1, h2, h4, h21, h41, h41_prime

__all__ = [
    "PreconditionError",
    "BracketError",
    "CriticalKind",
    "CriticalPoint",
    "A_STAR",
    "find_x0",
    "find_x1_x2",
    "find_x3",
    "find_x4",
    "find_t4_tilde",
    "threshold_g2_increasing",
    "threshold_g3_increasing",
]

# Lower endpoint of the a-range where h4 has an interior minimum.
A_STAR = (3.0 + math.sqrt(159.0)) / 12.0

_RESIDUAL_TOL = 1e-10
_FIRST_OFFSET = 1e-6
_GROWTH = 2.0
_OFFSET_CAP = 1e6
_MAX_ITER = 200


class PreconditionError(ValueError):
    """Parameter a outside the range where the critical point exists."""


class BracketError(RuntimeError):
    """No sign change up to the last probe `probe`; f kept the sign `sign` (+-1.0)."""

    def __init__(self, lo: float, probe: float, value: float):
        self.probe, self.sign = probe, math.copysign(1.0, value)
        super().__init__(f"no sign change of target function on ({lo}, {probe}]: "
                         f"it kept sign {self.sign:+.0f} up to the last probe t={probe!r}")


class CriticalKind(Enum):
    X0 = "x0"
    X1 = "x1"
    X2 = "x2"
    X3 = "x3"
    X4 = "x4"
    T4TILDE = "t4tilde"


@dataclass(frozen=True)
class CriticalPoint:
    kind: CriticalKind
    a: float
    value: float
    residual: float
    bracket: tuple[float, float]


def _bisect_secant(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of f in [lo, hi], where f(lo) and f(hi) have opposite signs.

    Bisection with a secant proposal accepted only when it falls inside the
    current bracket; derivative-free and deterministic.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(lo, hi, fhi)
    for it in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        # secant proposal on odd iterations only; unconditional bisection on
        # even ones keeps the bracket shrinking when the secant stagnates
        if it % 2 == 1 and fhi != flo:
            sec = hi - fhi * (hi - lo) / (fhi - flo)
            if lo < sec < hi:
                mid = sec
        fmid = f(mid)
        if fmid == 0.0 or hi - lo <= 4.0 * math.ulp(mid):
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return 0.5 * (lo + hi)


def _expand_bracket(f: Callable[[float], float], left: float) -> tuple[float, float]:
    """First sign-change bracket of f on probes left + 1e-6 * 2^k."""
    offset = _FIRST_OFFSET
    x_prev = left + offset
    f_prev = f(x_prev)
    if f_prev == 0.0:
        return (x_prev, x_prev)
    while offset <= _OFFSET_CAP:
        offset *= _GROWTH
        x = left + offset
        fx = f(x)
        if fx == 0.0 or (fx > 0.0) != (f_prev > 0.0):
            return (x_prev, x)
        x_prev, f_prev = x, fx
    raise BracketError(left, x_prev, f_prev)


def _solve(kind: CriticalKind, a: float, f: Callable[[float], float],
           psi_term: Callable[[float], float], left: float, shift: float,
           bracket: tuple[float, float] | None = None) -> CriticalPoint:
    """Root t of f, reported with its bracket as t - shift.

    The bracket is `bracket`, or else the first sign change of f off `left`.
    The residual is |f(t)| / max(1, |psi_term(t)|), the equation's psi term
    setting its scale; above 1e-10 the solve has not converged.
    """
    tb = bracket or _expand_bracket(f, left)
    t = _bisect_secant(f, *tb)
    residual = abs(f(t)) / max(1.0, abs(psi_term(t)))
    if residual > _RESIDUAL_TOL:
        raise ArithmeticError(f"{kind.value} residual {residual:.3e} exceeds {_RESIDUAL_TOL}")
    return CriticalPoint(kind, a, t - shift, residual, (tb[0] - shift, tb[1] - shift))


def find_x0(a: float) -> CriticalPoint:
    """Unique root of h1 on (-a, inf) for a <= 0 (h1 strictly decreasing)."""
    if a > 0.0:
        raise PreconditionError(f"x0 requires a <= 0, got a={a}")
    return _solve(CriticalKind.X0, a, lambda x: h1(a, x), lambda x: x * digamma(x + a), -a, 0.0)


def find_x1_x2(a: float) -> tuple[CriticalPoint, CriticalPoint]:
    """The two roots x1 < 0 < x2 of h1, for 0 < a < 1 or a > 2.

    h1 tends to -inf at both ends of the domain and h1(0) = log Gamma(a) > 0
    for these a; for a in [1, 2] h1 is negative throughout and no roots exist.
    """
    if not (0.0 < a < 1.0 or a > 2.0):
        raise PreconditionError(f"x1/x2 require 0 < a < 1 or a > 2 (h1 has no roots for "
                                f"a in [1, 2]), got a={a}")
    f, term = lambda x: h1(a, x), lambda x: x * digamma(x + a)
    # h1(-a+) = -inf while h1(0) = log Gamma(a) > 0: (-a, 0) brackets x1; h1(0) > 0
    # and h1 -> -inf at infinity: x2 lies right of 0.
    return (_solve(CriticalKind.X1, a, f, term, 0.0, 0.0, (-a + _FIRST_OFFSET * min(1.0, a), 0.0)),
            _solve(CriticalKind.X2, a, f, term, 0.0, 0.0))


def find_x3(a: float) -> CriticalPoint:
    """Root of h21(x+a) on (0, inf) for 1 < a < 2; h2 is minimal there."""
    if not (1.0 < a < 2.0):
        raise PreconditionError(f"x3 requires 1 < a < 2, got a={a}")
    return _solve(CriticalKind.X3, a, lambda t: h21(a, t), lambda t: (t - a) * digamma(t), a, a)


def find_x4(a: float) -> CriticalPoint:
    """Root of h41(x+a) on (0, inf) for (3+sqrt(159))/12 <= a < 2."""
    if not (A_STAR <= a < 2.0):
        raise PreconditionError(f"x4 requires (3+sqrt(159))/12 <= a < 2, got a={a}")
    return _solve(CriticalKind.X4, a, lambda t: h41(a, t), lambda t: (t * t - a * a) * digamma(t),
                  a, a)


def find_t4_tilde(a: float) -> CriticalPoint:
    """Root of h41' on (a, inf); lies below t4 = x4 + a."""
    if not (A_STAR <= a < 2.0):
        raise PreconditionError(f"t4~ requires (3+sqrt(159))/12 <= a < 2, got a={a}")
    return _solve(CriticalKind.T4TILDE, a, lambda t: h41_prime(a, t),
                  lambda t: (t - a) * digamma(t), a, 0.0)


def threshold_g2_increasing(a: float) -> float:
    """h2(x3), the largest c for which g2 is increasing when 1 < a < 2.

    At the root x3 the defining equation forces the two closed forms
    (x3 psi(x3+a) - log Gamma(x3+a))/x3 and x3 psi'(x3+a) to agree; both are
    computed and cross-checked to 1e-9.
    """
    point = find_x3(a)
    x3 = point.value
    direct = h2(a, x3)
    via_root = x3 * polygamma(1, x3 + a)
    if abs(direct - via_root) > 1e-9 * max(1.0, abs(direct)):
        raise ArithmeticError(
            f"h2(x3) forms disagree: {direct!r} vs {via_root!r} at a={a}"
        )
    return via_root


def threshold_g3_increasing(a: float) -> float:
    """h4(x4) for (3+sqrt(159))/12 <= a < 2; exactly pi^2/6 - 1 at a = 2."""
    if a == 2.0:
        return math.pi**2 / 6.0 - 1.0
    if not (A_STAR <= a < 2.0):
        raise PreconditionError(
            f"g3 threshold requires (3+sqrt(159))/12 <= a <= 2, got a={a}"
        )
    point = find_x4(a)
    return h4(a, point.value)
