"""Log-gamma, digamma and polygamma evaluation in double precision.

log Gamma is the standard library's `math.lgamma`.  psi and psi^(n) share
one Euler-Maclaurin sum of the Hurwitz series

    zeta(s, x) = sum_{j>=0} (x+j)^(-s),    psi^(n)(x) = (-1)^(n+1) n! zeta(n+1, x).

It adds terms directly until y = x + m reaches an edge that grows with s
(or the terms fall below rounding), then adds the integral from y, half the
term at y and the Bernoulli corrections at y.  psi is the same sum at s = 1,
with log y in place of the divergent integral.  At a float t >= 1e-4,
psi, psi' and psi'' of one t come from one shifted pass over t, t+1, ...
(the private _psi_orders that families' h-functions use): each order adds
its terms below its own edge and its own corrections at its own y, so the
three values are bit for bit those of the separate calls.

Array in, array out: log_gamma, digamma and polygamma also take an ndarray
of x and return a new ndarray of its shape, 0-d included.  The array path
adds the direct terms of every entry at once, each entry stepping up to the
same edge (without the scalar loop's early stop), then applies the same
corrections; it agrees with the scalar path to rounding.  A float keeps the
scalar loop and its cost: the dispatch tests `type(x) is float` first, which
is cheaper than the isinstance check it skips.  Any other x, a NumPy scalar
or an int, is taken as float(x), so it is computed in double precision and
gives a float.

While certify evaluates a claim, the array results come from the column
table: a memo of the last _TABLE_SIZE results of the three array paths and
of families' rows (every public function's, L = log Gamma(x+a)/x, the
near-zero series and the LCM margin blocks of every order at every point),
keyed by the function, its scalar arguments and the bytes of x.  The claims
of the catalog read the same functions on the same sample arrays again and
again, and a process that runs a claim again reads its rows back without
entering a family body.  The table is bounded, thread-safe
(one functools.lru_cache) and opened only by certify._check, for the
duration of one claim in that thread; each caller gets its own copy of a
value, bit for bit the one computed.  Everywhere else the array paths
compute every call.

numpy is imported on first use, through the module-level `np` that
families, certify and cli share: a float path never touches it, so scalar
work runs in a process that never loads numpy.

Every public function returns a finite value or raises: DomainError for an
argument outside (0, inf), nan and inf included, or an order outside
1..MAX_ORDER, and OverflowError when the value exceeds the double range.
An array raises if any entry would.  The overflow text names the function
and an x past the range, as in "psi^(3)(1e-300) exceeds the double range",
for the float and array paths alike.  Everything here is a pure function of
its inputs, so concurrent use is safe.
"""

from __future__ import annotations

import contextvars
import functools
import math

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


class _Numpy:
    """numpy, imported on the first attribute lookup.

    `import numpy` holds the import lock, so a thread that arrives while
    another is loading numpy waits for the whole module; each attribute is
    then cached here, so later lookups are plain reads.
    """

    def __getattr__(self, name: str):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()


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


def _overflow(name: str, x: float) -> OverflowError:
    """The error for a value of name(x) past the double range."""
    return OverflowError(f"{name}({float(x)}) exceeds the double range")


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


_EDGE1, _EDGE2, _EDGE3 = _edge(1), _edge(2), _edge(3)


def _psi_orders(t, top: int) -> tuple:
    """(psi(t), psi'(t)) for top = 1, or (psi, psi', psi'') for top = 2, in one pass.

    Bit for bit digamma(t), polygamma(1, t) and polygamma(2, t): y runs t,
    t+1, ... as in :func:`_euler_maclaurin`, each order s = 1, 2, 3 adding
    its terms only below its own edge and then its own corrections at its
    own y.  From t = 1e-4 on no order's early stop fires and no term
    overflows, so the pass drops those tests; below that, or for anything
    but a finite float (an ndarray among them), it calls digamma and
    polygamma, in order.
    """
    if not (type(t) is float and 1e-4 <= t < math.inf):
        return (digamma(t), *(polygamma(n, t) for n in range(1, top + 1)))
    y, s1, s2, s3 = t, 0.0, 0.0, 0.0
    while y < _EDGE1:
        s1 += y**-1
        s2 += y**-2
        if top == 2:
            s3 += y**-3
        y += 1.0
    y1 = y
    if y < _EDGE2:
        s2 += y**-2
        if top == 2:
            s3 += y**-3
        y += 1.0
    psi = math.log(y1) - (s1 + y1**-1 * _remainder(1, y1))
    psi1 = s2 + y**-2 * _remainder(2, y) + y**-1  # polygamma's 1! (total + y^-1 / 1)
    if top == 1:
        return psi, psi1
    if y < _EDGE3:
        s3 += y**-3
        y += 1.0
    return psi, psi1, -2.0 * (s3 + y**-3 * _remainder(3, y) + y**-2 / 2)


def _euler_maclaurin_array(s: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_euler_maclaurin` at every entry of an array x in (0, inf).

    Each pass adds the term of every entry still below the edge, so the
    loop runs ceil(edge - min x) times.  Where a term exceeds the double
    range the sum is inf.
    """
    edge = _edge(s)
    total, y = np.zeros(x.shape), x.copy()
    with np.errstate(over="ignore"):
        while (low := y < edge).any():
            total[low] += y[low] ** -s
            y[low] += 1.0
        return total + y**-s * _remainder(s, y), y


# The column table (module docstring), read and filled only while _TABLE_OPEN is
# true in the running context: certify._check alone sets it.  One run_claims("all")
# makes 186 calls on 140 distinct columns (a second run makes 76, all hits), and a
# perfbench catalog round (four seeds) fills 184 entries.  The bound counts entries,
# not bytes: an order-170 LCM margin block on 768 points is about 1 MB, so the table
# holds about 256 MB at most.
_TABLE_OPEN = contextvars.ContextVar("_TABLE_OPEN", default=False)
_TABLE_SIZE = 256


@functools.lru_cache(maxsize=_TABLE_SIZE)
def _table(fn, args: tuple, data: bytes) -> np.ndarray:
    """fn(*args, x) at the flat x whose float64 bytes are data; an error is not stored."""
    return fn(*args, np.frombuffer(data))


def _column(fn, *args) -> np.ndarray:
    """fn(*args[:-1], x.ravel()), its last axis reshaped to x = args[-1]: a fresh ndarray.

    x is a validated float64 ndarray and fn maps a flat x to an array whose
    last axis runs over it: the flat array of its values, or a block of rows
    of them.  While the column table is open the value comes from it.
    """
    x = args[-1]
    if _TABLE_OPEN.get():
        v = _table(fn, args[:-1], x.tobytes()).copy()
    else:
        v = fn(*args[:-1], x.ravel())
    return v.reshape(v.shape[:-1] + x.shape)


def _log_gamma_array(x: np.ndarray) -> np.ndarray:
    try:
        return np.fromiter(map(math.lgamma, x.tolist()), float, x.size)
    except OverflowError:
        # only large x overflow, and log Gamma increases there
        raise _overflow("log Gamma", np.max(x)) from None


def log_gamma(x: float | np.ndarray) -> float | np.ndarray:
    """log Gamma(x) for x > 0."""
    if type(x) is not float:
        if isinstance(x, np.ndarray):
            return _column(_log_gamma_array, _positive_array(x))
        x = float(x)
    _require_positive(x)
    try:
        return math.lgamma(x)
    except OverflowError:
        raise _overflow("log Gamma", x) from None


def _digamma_array(x: np.ndarray) -> np.ndarray:
    total, y = _euler_maclaurin_array(1, x)
    if (total == math.inf).any():
        raise _overflow("psi", np.min(x))  # the sum decreases in x
    return np.log(y) - total


def digamma(x: float | np.ndarray) -> float | np.ndarray:
    """psi(x) for x > 0."""
    if type(x) is not float:
        if isinstance(x, np.ndarray):
            return _column(_digamma_array, _positive_array(x))
        x = float(x)
    _require_positive(x)
    try:
        total, y = _euler_maclaurin(1, x)
    except OverflowError:
        raise _overflow("psi", x) from None
    return math.log(y) - total


def _polygamma_array(n: int, x: np.ndarray) -> np.ndarray:
    total, y = _euler_maclaurin_array(n + 1, x)
    with np.errstate(over="ignore"):
        value = math.factorial(n) * (total + y**-n / n)
    if (value == math.inf).any():
        # |psi^(n)| decreases in x, so the smallest x overflows first
        raise _overflow(f"psi^({n})", np.min(x))
    return value if n % 2 == 1 else -value


def polygamma(n: int, x: float | np.ndarray) -> float | np.ndarray:
    """psi^(n)(x) for 1 <= n <= MAX_ORDER, x > 0.  Sign is (-1)^(n+1)."""
    if not 1 <= n <= MAX_ORDER:
        raise DomainError(f"polygamma order must be in 1..{MAX_ORDER}, got {n}")
    if type(x) is not float:
        if isinstance(x, np.ndarray):
            return _column(_polygamma_array, n, _positive_array(x))
        x = float(x)
    _require_positive(x)
    try:
        total, y = _euler_maclaurin(n + 1, x)
    except OverflowError:
        raise _overflow(f"psi^({n})", x) from None
    value = math.factorial(n) * (total + y**-n / n)
    if value == math.inf:
        raise _overflow(f"psi^({n})", x)
    return value if n % 2 == 1 else -value


def check_polygamma_bounds(n: int, x: float) -> bool:
    """Sandwich bounds on |psi^(n)(x)|.

    (n-1)!/x^n + n!/(2x^{n+1}) <= (-1)^{n+1} psi^(n)(x)
                               <= (n-1)!/x^n + n!/x^{n+1}

    The bounds take reciprocal powers x^(-n), which underflow to 0 at large
    x where x^n would overflow; where x^(-n-1) overflows, so does psi^(n).
    """
    x = float(x)
    value = polygamma(n, x)
    if n % 2 == 0:
        value = -value
    base = math.factorial(n - 1) * x**-n
    step = math.factorial(n) * x ** -(n + 1)
    tol = 1e-15 * abs(value)
    return base + 0.5 * step <= value + tol and value <= base + step + tol


# theta = 1 - 6 sum_{k>=3} B_2k (2k+1) x^(4-2k) from x = 12 on, highest k first.
_THETA_SERIES = tuple(b * (2 * k + 1) for k, b in enumerate(_BERNOULLI, 1) if k >= 3)[::-1]


def psi2_theta(x: float) -> float:
    """Solve psi''(x) = -1/x^2 - 1/x^3 - 1/(2x^4) + theta/(6x^6) for theta.

    theta lies in (0, 1) for every x > 0; in doubles it rounds to 1.0 past
    x ~ 1e8 and to 0.0 below x ~ 1e-162, so the returned value lies in
    [0, 1].  From x = 12 on it is the asymptotic series above, truncated at
    B_20; below, 6x^2 (x^4 psi''(x) + x^2 + x + 1/2) with x^4 psi''(x) =
    x^4 psi''(x+1) - 2x, so that no term overflows.  Against mpmath it is
    within 3e-11, the error peaking just below 12, where that sum cancels,
    and within 3e-14 from 12 on.
    """
    x = float(x)
    _require_positive(x)
    if x >= 12.0:
        inv2, v = 1.0 / (x * x), 0.0
        for c in _THETA_SERIES:
            v = v * inv2 + c
        return 1.0 - 6.0 * v * inv2
    x4_psi2 = x**4 * polygamma(2, x + 1.0) - 2.0 * x
    return 6.0 * x * x * (x4_psi2 + x * x + x + 0.5)
