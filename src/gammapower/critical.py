"""Critical points of the combination families by bracketed root finding.

Each critical point is the root of a transcendental equation:

    x0, x1, x2 :  x psi(x+a) = log Gamma(x+a)                     (roots of h1)
    x3         :  x^2 psi'(x+a) + log Gamma(x+a) = x psi(x+a)     (root of h21)
    x4         :  x^2(x+a) psi'(x+a) + (x+2a) log Gamma(x+a)
                    = x(x+2a) psi(x+a)                            (root of h41)
    t4~        :  t(t-a)^2 psi''(t) + 2(t-a)^2 psi'(t) + log Gamma(t)
                    = (t-a) psi(t)                                (root of h41')

Brackets lie on a fixed ladder of probes off the left endpoint, rung k at
offset 1e-6 * 2^k for k = 0..40 (the top rung is the first offset past 1e6).
x2 ~ a log a passes rung 40 for a > 84,679, so where rung 40 keeps the bottom
rung's sign, x2's ladder goes on to the first rung past 2 a log a.
By the paper's theorems each h has exactly one sign change right of the left
endpoint: h1 decreases for a <= 0 and has exactly one root right of 0, h2 has
one minimum at x3 and h4 one at x4, and h41' (the derivative of h41) changes
sign once, at t4~.  So bisection over the rung index finds the first sign
change that walking up the ladder rung by rung would find, in about 7 probes
instead of up to 41.  The roots are then refined by Brent's method
(inverse quadratic and secant interpolation safeguarded by bisection) from the
f-values the bracket search already has.  Each point reports its refinement
iterations and its evaluations of f.  All solves are deterministic.
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
_TOP_RUNG = 40  # 1e-6 * 2^40 ~ 1.1e6, the first rung offset past 1e6
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
    iterations: int
    f_evals: int


def _brent(f: Callable[[float], float], lo: float, hi: float, flo: float,
           fhi: float) -> tuple[float, float, int, float]:
    """Root t of f in [lo, hi] from f(lo) = flo and f(hi) = fhi of opposite signs.

    Brent's zeroin: inverse quadratic or secant interpolation, falling back to
    bisection whenever the step leaves the bracket or shrinks it too slowly.
    Stops when f(t) == 0 or the bracket is within 4 ulp of t, after at most
    _MAX_ITER iterations of one f-evaluation each.  Returns (t, f(t), iterations,
    slope), slope = |f'| near t as the secant across the last bracket over 4 ulp
    wide: across the final one the rounding of f can swamp its slope.
    """
    if flo == 0.0:
        return lo, flo, 0, 0.0
    if fhi == 0.0:
        return hi, fhi, 0, 0.0
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(lo, hi, fhi)
    slope = abs(fhi - flo) / abs(hi - lo)
    # b is the best estimate, c the other end of the bracket, a the previous b;
    # e is the step before last, which an interpolated step must halve
    a, fa, b, fb, c, fc = lo, flo, hi, fhi, lo, flo
    d = e = b - a
    for it in range(_MAX_ITER):
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        tol = 2.0 * math.ulp(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            return b, fb, it, slope
        slope = abs(fc - fb) / abs(c - b)
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = (p, -q) if p > 0.0 else (-p, q)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        if fb == 0.0:
            return b, fb, it + 1, slope
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    return b, fb, _MAX_ITER, slope


def _first_rung(left: float, offset: float = _FIRST_OFFSET) -> tuple[int, float]:
    """(k, left + offset * 2^k) at the lowest k < 40 that lies right of `left`, else k = 40.

    k = 0 unless left is so large that left + offset rounds onto it.
    """
    k = next((k for k in range(_TOP_RUNG) if left + math.ldexp(offset, k) > left), _TOP_RUNG)
    return k, left + math.ldexp(offset, k)


def _expand_bracket(f: Callable[[float], float], left: float,
                    top: int = _TOP_RUNG) -> tuple[float, float, float, float, int]:
    """First sign-change bracket (lo, hi) of f on the rungs left + 1e-6 * 2^k.

    The ladder starts at :func:`_first_rung` and ends at k = 40, or, where f
    keeps its sign there, at k = `top`.
    f has one sign change on (left, inf), by the theorems behind each critical
    point, so "f(rung k) is zero or lacks the bottom rung's sign" is false, then
    true, up the ladder: bisection over k finds the same adjacent rungs as
    walking up one rung at a time.  Returns (lo, hi, f(lo), f(hi), probes taken); a
    zero at the bottom rung is returned as (x, x, 0, 0, 1).
    """
    def rung(k: int) -> float:
        return left + math.ldexp(_FIRST_OFFSET, k)

    k_lo, x_lo = _first_rung(left)
    f_lo = f(x_lo)
    if f_lo == 0.0:
        return x_lo, x_lo, f_lo, f_lo, 1
    k_hi, x_hi = _TOP_RUNG, rung(_TOP_RUNG)
    f_hi, probes = f(x_hi), 2
    if f_hi != 0.0 and (f_hi > 0.0) == (f_lo > 0.0) and top > _TOP_RUNG:
        k_lo, x_lo, f_lo = k_hi, x_hi, f_hi  # the sign change lies past rung 40
        k_hi, x_hi = top, rung(top)
        f_hi, probes = f(x_hi), 3
    if f_hi != 0.0 and (f_hi > 0.0) == (f_lo > 0.0):
        raise BracketError(left, x_hi, f_hi)
    while k_hi - k_lo > 1:
        k = (k_lo + k_hi) // 2
        x = rung(k)
        fx = f(x)
        probes += 1
        if fx != 0.0 and (fx > 0.0) == (f_lo > 0.0):
            k_lo, x_lo, f_lo = k, x, fx
        else:
            k_hi, x_hi, f_hi = k, x, fx
    return x_lo, x_hi, f_lo, f_hi, probes


def _solve(kind: CriticalKind, a: float, f: Callable[[float], float],
           psi_term: Callable[[float], float], left: float, shift: float,
           bracket: tuple[float, float] | None = None, top: int = _TOP_RUNG) -> CriticalPoint:
    """Root t of f, reported with its bracket as t - shift.

    The bracket is `bracket`, or else the first sign change of f off `left` on
    the ladder up to rung `top`.
    The residual is |f(t)| / max(1, |psi_term(t)|), the equation's psi term
    setting its scale.  The solve has not converged when the residual exceeds
    1e-10 and |f(t)| also exceeds 4 ulp(t) |f'|, the most a root inside
    Brent's final 4-ulp bracket can leave where f is steep; :func:`_brent`
    reports f'.  `f_evals` counts every evaluation of f, bracket ends and
    probes included.
    """
    if bracket is None:
        lo, hi, flo, fhi, evals = _expand_bracket(f, left, top)
    else:
        (lo, hi), evals = bracket, 2
        flo, fhi = f(lo), f(hi)
    t, ft, iterations, slope = _brent(f, lo, hi, flo, fhi)
    residual = abs(ft) / max(1.0, abs(psi_term(t)))
    if residual > _RESIDUAL_TOL and abs(ft) > 4.0 * math.ulp(t) * slope:
        raise ArithmeticError(f"{kind.value} residual {residual:.3e} exceeds {_RESIDUAL_TOL}")
    return CriticalPoint(kind, a, t - shift, residual, (lo - shift, hi - shift), iterations,
                         evals + iterations)


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
    # h1(-a+) = -inf while h1(0) = log Gamma(a) > 0: (-a, 0) brackets x1, from its
    # first rung right of -a; h1(0) > 0 and h1 -> -inf at infinity: x2 lies right
    # of 0, below 2 a log a once that passes rung 40 (x2 / (a log a) -> 1 from
    # above, at most ~1.15 there).
    lo = _first_rung(-a, _FIRST_OFFSET * min(1.0, a))[1]
    x1 = _solve(CriticalKind.X1, a, f, term, 0.0, 0.0, (lo, 0.0))
    top = max(_TOP_RUNG,
              math.ceil(math.log2(a) + math.log2(2.0 * math.log(max(a, 2.0)) / _FIRST_OFFSET)))
    return x1, _solve(CriticalKind.X2, a, f, term, 0.0, 0.0, top=top)


def find_x3(a: float) -> CriticalPoint:
    """Root of h21(x+a) on (0, inf) for 1 < a < 2; h2 is minimal there.

    Known defect: near the range ends x3 ~ 0.84 sqrt(a-1) and ~ 1.15 sqrt(2-a),
    and though the residual stays ~2e-16 the error against mpmath grows as a
    nears 1: 4e-13, 3e-11, 6e-9 and 6e-7 at a-1 = 1e-4, 1e-6, 1e-8 and 1e-10.
    Once x3 < 1e-6, the ladder's bottom rung, it raises BracketError: for
    a-1 <~ 1.4e-12 or 2-a <~ 7.6e-13 (t4~ likewise for 2-a <~ 3.8e-13).
    """
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
