"""mpmath oracle for the benchmark's accuracy checks.

Each function's definition is written as its additive terms: their sum is
the exact value (at `DPS` digits), and the sum of their magnitudes is the
scale an error is measured against.  Dividing an error by that scale
measures what a double-precision evaluation can achieve even where the terms
cancel, as the repository's tests do.  The exponential families (f, g, g1..g3) are compared
in the log domain, where their relative error lives.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 50

# A scaled error above this is a wrong answer, not rounding: double precision
# with the cancellation the scale already accounts for stays near 1e-14.
WRONG_ANSWER_TOL = 1e-10

_LOG_DOMAIN = {"f", "g", "g1", "g2", "g3"}
# Functions that cross zero at O(1) arguments: their error is measured
# against max(1, scale), as tests/oracles.rel_err does.
_FLOOR_ONE = {"gamma_log", "psi", "h1", "h2", "h3", "h4", "h21", "h31", "h41", "xlogderiv_g3"}


def _terms(fn: str, a, c, n: int | None, sign: str, x) -> list:
    """Additive terms of fn's definition; their sum is the (log-)value."""
    lg = mp.loggamma
    psi = mp.psi
    if fn == "gamma_log":
        return [lg(x)]
    if fn == "psi":
        return [psi(0, x)]
    if fn == "polygamma":
        return [psi(n, x)]
    if fn in ("f", "g", "g2", "g3"):
        base = x if fn in ("f", "g2") else x + a
        terms = [lg(x + a) / x]
        if c != 0:
            terms.append(-c * mp.log(base))
        if sign == "minus":
            terms = [-t for t in terms]
        return terms
    if fn == "g1":
        return [-lg(x + a) / x]
    if fn == "h1":
        return [-x * psi(0, x + a), lg(x + a)]
    if fn == "h2":
        return [psi(0, x + a), -lg(x + a) / x]
    if fn == "h3":
        t = x + a
        return [-x * psi(1, t), 2 * psi(0, t), -2 * lg(t) / x]
    if fn == "h4":
        t = x + a
        return [t * psi(0, t) / x, -t * lg(t) / (x * x)]
    if fn in ("h21", "h31", "h41"):
        t, u = x, x - a
        if fn == "h21":
            return [u * u * psi(1, t), -u * psi(0, t), lg(t)]
        if fn == "h31":
            return [-(u**3) * psi(2, t), u * u * psi(1, t), -2 * u * psi(0, t), 2 * lg(t)]
        return [t * u * u * psi(1, t), -(t * t - a * a) * psi(0, t), (t + a) * lg(t)]
    if fn in ("delta_n", "log_g1_deriv"):
        t = x + a
        terms = [-lg(t)]
        term = mp.mpf(1)
        for k in range(1, n + 1):
            term *= -x / k
            terms.append(-term * psi(k - 1, t))
        if fn == "log_g1_deriv":
            factor = (-1) ** n * mp.factorial(n) / x ** (n + 1)
            terms = [factor * v for v in terms]
        return terms
    if fn == "xlogderiv_g3":
        return [psi(0, x + a), -lg(x + a) / x, a * c / (x + a), -c]
    raise KeyError(f"no oracle for {fn!r}")


def scaled_error(fn: str, got: float, a: float, c: float, n: int | None, sign: str,
                 x: float) -> float:
    """Error of `got` against mpmath, divided by the scale of fn's terms."""
    if not math.isfinite(got) or (fn in _LOG_DOMAIN and got <= 0.0):
        return math.inf
    with mp.workdps(DPS):
        terms = _terms(fn, mp.mpf(a), mp.mpf(c), n, sign, mp.mpf(x))
        want = mp.fsum(terms)
        scale = mp.fsum(abs(t) for t in terms)
        if fn in _LOG_DOMAIN:
            return float(abs(mp.log(got) - want) / max(1, scale))
        if fn in _FLOOR_ONE:
            scale = max(1, scale)
        return float(abs(mp.mpf(got) - want) / scale)


def specfun_error(name: str, order: int, x: float, got: float) -> float:
    """Relative error of one specfun value: log_gamma, digamma or polygamma(order)."""
    with mp.workdps(DPS):
        xm = mp.mpf(x)
        if name == "log_gamma":
            want = mp.loggamma(xm)
            return float(abs(got - want) / max(1, abs(want)))
        if name == "digamma":
            want = mp.psi(0, xm)
            return float(abs(got - want) / max(1, abs(want)))
        want = mp.psi(order, xm)
        return float(abs(got - want) / abs(want))


def _sum(fn: str, a, x):
    return mp.fsum(_terms(fn, a, 0, None, "plus", x))


def _h41_prime(a, t):
    u = t - a
    return (t * u * u * mp.psi(2, t) + 2 * u * u * mp.psi(1, t) - u * mp.psi(0, t)
            + mp.loggamma(t))


def solve_reference(kind: str, a: float, start: dict[str, float]) -> float:
    """Exact value of one solved quantity (x0, x1, x2, x3, x4, t4tilde or a
    threshold), found by mpmath from a starting point.

    `start` holds the program's answers, used only to start the secant
    iteration; mpmath then converges on the true root of the defining
    equation, so a wrong root shows as a large difference.  Thresholds start
    from the x3 or x4 answer.
    """
    with mp.workdps(DPS):
        am = mp.mpf(a)
        root = lambda f, s: mp.findroot(f, mp.mpf(s))
        if kind in ("x0", "x1", "x2"):
            return float(root(lambda x: _sum("h1", am, x), start[kind]))
        if kind in ("x3", "threshold-g2"):
            t = root(lambda t: _sum("h21", am, t), start["x3"] + a)
            return float(t - am if kind == "x3" else (t - am) * mp.psi(1, t))
        if kind in ("x4", "threshold-g3"):
            t = root(lambda t: _sum("h41", am, t), start["x4"] + a)
            return float(t - am if kind == "x4" else _sum("h4", am, t - am))
        if kind == "t4tilde":
            return float(root(lambda t: _h41_prime(am, t), start["t4tilde"]))
    raise KeyError(f"no oracle for solve kind {kind!r}")
