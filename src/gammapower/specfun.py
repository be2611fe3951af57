"""Log-gamma, digamma and polygamma evaluation in double precision.

log Gamma is the standard library's `math.lgamma`.  psi and psi^(n) share
one Euler-Maclaurin sum of the Hurwitz series

    zeta(s, x) = sum_{j>=0} (x+j)^(-s),    psi^(n)(x) = (-1)^(n+1) n! zeta(n+1, x).

It adds terms directly until y = x + m reaches an edge that grows with s
(or the terms fall below rounding), then adds the integral from y, half the
term at y and the Bernoulli corrections at y.  psi is the same sum at s = 1,
with log y in place of the divergent integral.  psi, psi' and psi'' of one
t come from one shifted pass over t, t+1, ... (the private _psi_orders that
families' h-functions use): each order adds its terms below its own edge
and its own corrections at its own y, so the three values are bit for bit
those of the separate calls, at a float t >= 1e-4 and at an ndarray alike.

Array in, array out: log_gamma, digamma and polygamma also take an ndarray
of x and return a new ndarray of its shape, 0-d included.  The array path
builds the rungs x, x+1, ... of every entry at once, as one ladder up to
the rung where the smallest entry passes the edge; each entry adds its
terms below the edge (without the scalar loop's early stop) and its
corrections at its first rung past it, so it agrees with the scalar path
to rounding.  A float keeps the scalar loop and its cost: the dispatch
tests `type(x) is float` first, which is cheaper than the isinstance check
it skips.  Any other x, a NumPy scalar or an int, is taken as float(x), so
it is computed in double precision and gives a float.

While certify evaluates a claim, the array results come from the column
table: a memo of the last _TABLE_SIZE results of the three array paths, of
_psi_orders' blocks and of families' rows (every public function's, L = log Gamma(x+a)/x, the
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


def _remainder(s, y):
    """y^s times sum_{j>=0} (y+j)^(-s) less its integral from y, for y >= _edge(s).

    That is 1/2 + sum_k B_2k (s)_(2k-1)/(2k)! y^(1-2k); y is a float or an
    ndarray.  s may also be a tuple of orders, y then stacking one row per
    order: each entry sees the operations of its own order's call.
    """
    inv2 = 1.0 / (y * y)
    corr = 0.0
    for c in _corrections(s) if type(s) is int else _correction_columns(s):
        corr = corr * inv2 + c
    return 0.5 + corr / y


@functools.lru_cache(maxsize=64)
def _edge_column(orders: tuple[int, ...]) -> np.ndarray:
    """The :func:`_edge` of each order, as a read-only (len(orders), 1, 1) array."""
    column = np.array([_edge(s) for s in orders])[:, None, None]
    column.flags.writeable = False
    return column


@functools.lru_cache(maxsize=64)
def _correction_columns(orders: tuple[int, ...]) -> np.ndarray:
    """Step k of :func:`_corrections` for every order, as a (len(orders), 1) column."""
    columns = np.array([_corrections(s) for s in orders]).T[..., None]
    columns.flags.writeable = False
    return columns


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
    own y.  An ndarray t takes one :func:`_psi_rows` ladder, a block that
    is one column of the table, and gets rows of its shape.  From a float
    t = 1e-4 on no order's early stop fires and no term overflows, so the
    pass drops those tests; below that, or for any other t, it calls
    digamma and polygamma, in order.
    """
    if type(t) is not float and isinstance(t, np.ndarray):
        block = _column(_psi_rows, tuple(range(top + 1)), _positive_array(t))
        return tuple(block[n, ...] for n in range(top + 1))
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


def _euler_maclaurin_array(orders: tuple[int, ...], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_euler_maclaurin` of each order s in `orders` (ascending) at a flat x in (0, inf).

    Gives (totals, ys), one row per order: :func:`_ladder` adds every
    order's direct terms, and the remainders of all orders run as one Horner
    pass over the stacked ys.  Where a term exceeds the double range the sum
    is inf; the caller ignores overflow.
    """
    totals, ys = _ladder(orders, x)
    # one order keeps _remainder's float coefficients, which broadcast faster
    rems = _remainder(orders[0] if len(orders) == 1 else orders, ys)
    for total, y, rem, s in zip(totals, ys, rems, orders):
        total += y**-s * rem
    return totals, ys


# Entries per ladder block: past a few thousand, fresh pages for a block's arrays cost
# more than its arithmetic.  In a fresh process a 7,680-entry psi row took 1.8x the
# masked loop's time in one block, and 0.8-0.9x in blocks of 2,048.
_LADDER_WIDTH = 2048


def _ladder(orders: tuple[int, ...], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The direct terms of each order at a flat x in (0, inf), and each y, one row per order.

    One ladder y_0 = x, y_k = y_(k-1) + 1.0, to the rung where the smallest
    entry passes the top order's edge, serves every order: order s adds
    y_k^(-s) where y_k lies below its own edge, row after row as the scalar
    loop adds them (without its early stop), and its y is the first rung at
    or past that edge.  A longer x climbs in blocks of _LADDER_WIDTH entries.
    The caller ignores overflow.
    """
    if x.size > _LADDER_WIDTH:
        blocks = [_ladder(orders, x[i:i + _LADDER_WIDTH]) for i in range(0, x.size, _LADDER_WIDTH)]
        return tuple(np.concatenate(rows, axis=1) for rows in zip(*blocks))
    top, y, steps = _edge(orders[-1]), float(x.min(initial=math.inf)), 0
    while y < top:  # the smallest entry climbs the most rungs
        y, steps = y + 1.0, steps + 1
    totals, ys = np.zeros((len(orders), x.size)), x[None].repeat(len(orders), 0)
    if not steps:
        return totals, ys
    rungs = np.empty((steps + 1, x.size))
    rungs[0] = x
    for k in range(steps):
        np.add(rungs[k], 1.0, out=rungs[k + 1])
    below = rungs[:steps] < _edge_column(orders)
    powers = [rungs[:steps] ** -s for s in orders]
    terms = np.array(powers) if len(powers) > 1 else powers[0][None]  # one order: no copy
    terms *= below  # a rung past the edge adds +0.0: its term is finite
    for k in range(steps):
        totals += terms[:, k]
        np.copyto(ys, rungs[k + 1], where=below[:, k])
    return totals, ys


def _psi_rows(orders: tuple[int, ...], x: np.ndarray) -> np.ndarray:
    """psi^(n)(x) for each n of `orders` (ascending; psi itself at n = 0), one row each.

    x is flat and in (0, inf).  One :func:`_euler_maclaurin_array` pass
    serves every order, and the rows are checked in order: the first to
    overflow raises, naming the smallest x, since |psi^(n)| and the psi sum
    decrease in x.
    """
    with np.errstate(over="ignore"):
        totals, ys = _euler_maclaurin_array(tuple(n + 1 for n in orders), x)
        for n, total, y in zip(orders, totals, ys):
            if n == 0:
                if total.max(initial=0.0) == math.inf:
                    raise _overflow("psi", np.min(x))
                np.subtract(np.log(y), total, out=total)
                continue
            total += y**-n / n
            total *= math.factorial(n)
            if total.max(initial=0.0) == math.inf:
                raise _overflow(f"psi^({n})", np.min(x))
            if n % 2 == 0:
                np.negative(total, out=total)
    return totals


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
    return _psi_rows((0,), x)[0]


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
    return _psi_rows((n,), x)[0]


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
