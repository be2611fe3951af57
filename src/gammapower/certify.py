"""Dense-sampling certification of the theorem clauses and inequalities.

A certification run samples a function (or pairs of points) over a
:class:`SamplePlan`, checks the claimed relation with an explicit tolerance,
and produces a :class:`ClaimReport`.  Certification is numerical evidence,
not proof: "strictly" claims are accepted at margin >= -tol and flagged
strict when the minimum observed margin exceeds 10*tol.

Every check reduces to arrays of margins (>= 0 where the relation holds) at
sample locations, and one core, `_check`, folds them into a report and its
verdict; it alone computes them with numpy's floating-point errors off.  The
public checks are certify_monotone, _lcm, _logconvex, _inequality and
_range, and the `segments` and `expect_violation` combinators.  Samples are
built once per process per definition, and while `_check` runs, specfun's
column table keeps the last 256 arrays computed: log Gamma, psi, psi^(n),
the family functions and L = log Gamma(x+a)/x, the near-zero series and
the LCM margin blocks.  A process that certifies many claims reuses both
across rows and calls, and a claim it runs again enters no family body; a
one-shot process builds each sample once, and reuses a column only within
its one run (no LCM sample repeats there, so it computes every margin).
The module also houses the parameter-region taxonomy D1..D11 and the
catalog of named claims driven by the command line (`verify --claim ...`).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Sequence

from .specfun import EULER_GAMMA, MAX_ORDER, PI, ZETA3, _TABLE_OPEN, np
from . import families as fam
from . import critical

__all__ = [
    "Region", "RegionError", "classify", "SamplePlan", "Verdict", "Witness", "ClaimReport",
    "C0_BRACKET", "certify_monotone", "certify_lcm", "certify_logconvex",
    "certify_inequality", "certify_range",
    "segments", "expect_violation", "claim_ids", "run_claims",
]

# psi'(2) = pi^2/6 - 1, g3's monotonicity threshold at a = 2 (region D11).
_PSI1_2 = critical.threshold_g3_increasing(2.0)

# Published bracket of the log-convexity cutoff c0, printed as 0.77797 / 0.79837.
C0_BRACKET = (75.0 * (28.0 * ZETA3 + PI**3) / 64.0 - 75.0,
              18.0 * (3.0 - EULER_GAMMA - math.log(PI) - PI**2 / 8.0))


class RegionError(ValueError):
    """Parameters outside the region a corollary requires."""


# Region name -> membership test of (a, c): the paper's regions D1..D11, then
# the strip that ineq1 and ineq2 require.
_REGIONS: dict[str, Callable[[float, float], bool]] = {
    "D1": lambda a, c: 0.5 <= a <= 1.0,
    "D2": lambda a, c: a >= 2.0,
    "D3": lambda a, c: 1.0 < a < 2.0 and c >= 0.0,
    "D4": lambda a, c: 1.0 < a < 2.0 and c <= 0.0,
    "D5": lambda a, c: 0.5 <= a <= 1.0 and c >= 1.0,
    "D6": lambda a, c: a >= 2.0 and c >= 1.0,
    "D7": lambda a, c: a == 1.0 and c <= 0.0,
    "D8": lambda a, c: a == 2.0 and c <= 0.0,
    "D9": lambda a, c: 0.5 <= a <= 1.0 and c <= 0.0,
    "D10": lambda a, c: a >= 2.0 and c <= 0.0,
    "D11": lambda a, c: a == 2.0 and c <= _PSI1_2,
    "1 <= a <= 2": lambda a, c: 1.0 <= a <= 2.0,
}

Region = Enum("Region", [(name, name) for name in _REGIONS if name.startswith("D")])

# Inequality id -> (chain q0 <= q1 <= ... of _QUANTITIES names in the direct
# orientation, (orientation, regions whose union it needs) rules tried in
# order).  The reversed orientation reverses the chain.
_INEQUALITIES: dict[str, tuple[tuple[str, ...], tuple[tuple[str, tuple[str, ...]], ...]]] = {
    "ineq1": (("r", "0"), (("direct", ("1 <= a <= 2",)),)),
    "ineq2": (("0", "m"), (("direct", ("1 <= a <= 2",)),)),
    "ineq3": (("h2(y) log(x/y)", "r", "h2(x) log(x/y)"), (("direct", ("D1", "D2")),)),
    "ineq4": (("c log(x/y)", "r"), (("direct", ("D5", "D6")), ("reversed", ("D7", "D8")))),
    "ineq5": (("m", "c log(A/G)"), (("direct", ("D6",)), ("reversed", ("D8",)))),
    "ineq6": (("c log((x+a)/(y+a))", "r"), (("direct", ("D6",)), ("reversed", ("D11",)))),
    "ineq7": (("g3 lower bound", "r", "g3 upper bound"), (("direct", ("D9", "D10")),)),
}


def classify(a: float, c: float) -> set[Region]:
    """All regions D1..D11 containing (a, c); regions overlap."""
    return {r for r in Region if _REGIONS[r.value](a, c)}


def _orientation(id_: str, a: float, c: float) -> tuple[str, str]:
    """(orientation, region description) of inequality id_ at (a, c)."""
    rules = _INEQUALITIES[id_][1]
    doc = " / ".join(" u ".join(names) + (f" ({o})" if len(rules) > 1 else "")
                     for o, names in rules)
    for orient, names in rules:
        if any(_REGIONS[n](a, c) for n in names):
            return orient, doc
    raise RegionError(f"(a={a}, c={c}) is outside the region required by {id_} ({doc})")


class Verdict(Enum):
    CERTIFIED = "certified"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SamplePlan:
    """Interval, sampling density, and tolerances for one certification run.

    Positive intervals are sampled on a log grid, intervals reaching into
    negative x linearly.  `margin` is the exclusion radius around x = 0 and
    around known critical points where derivatives legitimately vanish.
    Samples are built once per process per (interval, grid_points, random_points, seed).
    """

    interval: tuple[float, float] = (1e-2, 50.0)
    grid_points: int = 512
    random_points: int = 256
    seed: int = 20240817
    tol: float = 1e-9
    margin: float = 1e-3

    def __post_init__(self):
        lo, hi = self.interval
        problems = [text for ok, text in (
            (-math.inf < lo < hi < math.inf, f"interval {self.interval} is empty or not finite"),
            (0.0 < self.tol < math.inf, f"tol {self.tol} is not positive and finite"),
            (self.seed >= 0, f"seed {self.seed} is negative"),
            (self.grid_points >= 1, f"grid_points {self.grid_points} is below 1"),
            (self.random_points >= 0, f"random_points {self.random_points} is negative"),
            (math.isfinite(self.margin), f"margin {self.margin} is not finite")) if not ok]
        if problems:
            raise ValueError("bad sample plan: " + "; ".join(problems))

    def _samples(self, kind: str) -> tuple[np.ndarray, ...]:
        return _build_samples(kind, *self.interval, self.grid_points, self.random_points,
                              self.seed, repr(self.interval))

    def points(self, excluded: Sequence[float] = ()) -> np.ndarray:
        """Sorted sample points, margin-excluded around `excluded` centers."""
        pts = self._samples("points")[0]
        keep = np.abs(pts) > self.margin
        for center in excluded:
            keep &= np.abs(pts - center) > self.margin
        return pts[keep]

    def pairs(self) -> np.ndarray:
        """(N, 2) array: each grid pair x <= y once (diagonal included), then random ones.

        The grid axis has n = ceil(sqrt(grid_points)) log-spaced points, so
        there are n (n + 1) / 2 grid pairs; each random pair is sorted to
        x <= y.  The array is read-only: every call returns the same one.
        """
        return self._samples("pairs")[0]

    def to_dict(self) -> dict:
        return {"interval": list(self.interval), "grid_points": self.grid_points,
                "random_points": self.random_points, "seed": self.seed, "tol": self.tol,
                "margin": self.margin}


@functools.lru_cache(maxsize=32)  # the whole catalog at one seed uses 20 sample definitions
def _build_samples(kind: str, lo: float, hi: float, grid_points: int, random_points: int,
                   seed: int, _spelling: str) -> tuple[np.ndarray, ...]:
    """Read-only (sorted points,) for kind "points"; for "pairs", the sorted pairs,
    their distinct abscissae t and the (2, N) index of x, y in t.  _spelling is
    repr(interval), in the key because == takes -0.0 for 0.0 and the samples do not."""
    rng = np.random.default_rng(seed)
    if kind == "points":
        if lo > 0.0:
            grid = np.geomspace(lo, hi, grid_points)
            rand = np.exp(rng.uniform(math.log(lo), math.log(hi), random_points))
        else:
            grid = np.linspace(lo, hi, grid_points)
            rand = rng.uniform(lo, hi, random_points)
        built = (np.sort(np.concatenate([grid, rand])),)
    else:
        lo = max(lo, 1e-12)
        axis = np.geomspace(lo, hi, math.isqrt(grid_points - 1) + 1)
        raw = np.exp(rng.uniform(math.log(lo), math.log(hi), (random_points, 2)))
        pairs = np.concatenate([axis[np.stack(np.triu_indices(axis.size), axis=1)],
                                np.sort(raw, axis=1)])
        t, at = np.unique(pairs.T, return_inverse=True)
        built = (pairs, t, at.reshape(2, -1))
    for a in built:
        a.flags.writeable = False
    return built


DEFAULT_PLAN = SamplePlan()


@dataclass(frozen=True)
class Witness:
    """One observed violation (or diagnostic) at a sample point."""

    where: tuple[float, ...]
    observed: float
    required: str

    def to_dict(self) -> dict:
        return {"where": list(self.where), "observed": self.observed, "required": self.required}


# Witnesses kept per report, the first in sample order; n_witnesses counts all.
_MAX_WITNESSES = 20


@dataclass
class ClaimReport:
    claim_id: str
    params: fam.Params
    plan: SamplePlan
    verdict: Verdict
    witnesses: list[Witness] = field(default_factory=list)
    min_margin: float = math.inf
    strict: bool | None = None
    note: str = ""
    n_witnesses: int = 0

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "params": {"a": None if math.isnan(self.params.a) else self.params.a,
                       "c": self.params.c, "sign": self.params.sign.value},
            "plan": self.plan.to_dict(),
            "verdict": self.verdict.value,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "n_witnesses": self.n_witnesses,
            "min_margin": None if math.isinf(self.min_margin) else self.min_margin,
            "strict": self.strict,
            "note": self.note,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)


def _label(v: float) -> str:
    """v as a claim id writes it: format g where that reads back as v, repr otherwise."""
    short = f"{v:g}"
    return short if float(short) == v else repr(v)


# (where, margins, required): an (N, k) array of sample locations, N rows of
# margins, and the relation each margin column checks (one string for all).
Block = tuple["np.ndarray", object, "str | Sequence[str]"]


def _check(claim_id: str, params: fam.Params, plan: SamplePlan,
           blocks: Callable[[], list[Block]], note: str = "") -> ClaimReport:
    """The certification core: evaluate `blocks()` and fold it into a report.

    `blocks()` runs with numpy's floating-point errors off and with specfun's
    column table open, so a sample array that recurs across claims takes its
    special-function values from there.  A margin below -tol is a violation
    witness; all are counted, and the first _MAX_WITNESSES, block by block in
    row-major order, are listed.  An evaluation error, a run that checks no
    margin, or a non-finite margin (an overflow, say) makes the report
    inconclusive.
    """
    report = ClaimReport(claim_id, params, plan, Verdict.INCONCLUSIVE, note=note)
    built = []
    table = _TABLE_OPEN.set(True)
    try:
        with np.errstate(all="ignore"):
            for where, margins, required in blocks():
                m = np.asarray(margins, dtype=float)
                built.append((np.asarray(where, dtype=float),
                              m.reshape(len(where), -1 if m.size else 0), required))
    except (ValueError, ArithmeticError) as exc:
        report.note = f"evaluation error: {exc}"
        return report
    finally:
        _TABLE_OPEN.reset(table)
    flat = np.concatenate([m.ravel() for _, m, _ in built] or [np.empty(0)])
    if not flat.size or not np.isfinite(flat).all():
        bad = np.count_nonzero(~np.isfinite(flat))
        report.note = f"{bad} non-finite margins" if bad else "no margin was checked"
        return report
    report.min_margin = float(flat.min())
    for where, m, required in built:
        rows, cols = np.nonzero(m < -plan.tol)
        room = _MAX_WITNESSES - len(report.witnesses)
        for i, j in zip(rows[:room], cols[:room]):
            label = required if isinstance(required, str) else required[j]
            report.witnesses.append(Witness(tuple(where[i].tolist()), float(m[i, j]), label))
        report.n_witnesses += rows.size
    report.verdict = Verdict.VIOLATED if report.n_witnesses else Verdict.CERTIFIED
    report.strict = report.verdict is Verdict.CERTIFIED and report.min_margin > 10.0 * plan.tol
    return report


_DIRECTION_SIGN = {"increasing": 1.0, "decreasing": -1.0}


def _require_directions(directions: Sequence[str]) -> None:
    """ValueError naming the first direction that is not increasing or decreasing."""
    if unknown := [d for d in directions if d not in _DIRECTION_SIGN]:
        raise ValueError(f"unknown direction {unknown[0]!r}")


ArrayFn = Callable[["np.ndarray"], "np.ndarray"]


def _monotone(fn: ArrayFn, plan: SamplePlan, direction: str,
              excluded: Sequence[float] = ()) -> Block:
    """Consecutive sample pairs and the signed differences of fn across them."""
    x = plan.points(excluded)
    diff = np.diff(np.asarray(fn(x), dtype=float))
    return np.column_stack([x[:-1], x[1:]]), _DIRECTION_SIGN[direction] * diff, direction


def certify_monotone(fn: ArrayFn, plan: SamplePlan, direction: str, claim_id: str = "monotone",
                     params: fam.Params = fam.Params(a=math.nan)) -> ClaimReport:
    """Certify fn increasing/decreasing on the plan's sorted sample points.

    fn maps the ndarray of sample points to the ndarray of its values.
    """
    _require_directions([direction])
    return _check(claim_id, params, plan, lambda: [_monotone(fn, plan, direction)])


def segments(claim_id: str, params: fam.Params, plan: SamplePlan, fn: ArrayFn,
             pieces: Sequence[tuple[tuple[float, float], str]], excluded: Sequence[float] = (),
             note: str | None = None) -> ClaimReport:
    """Certify fn monotone on each ((lo, hi), direction) piece, as one report.

    fn maps an ndarray of points to the ndarray of its values, and is called
    once per piece.  Each piece is sampled on its own interval with an equal
    share of the plan's grid (at least 16) and random points; a piece
    narrower than four margins is skipped.  The note defaults to the number
    of pieces checked.  An unknown direction raises ValueError.
    """
    _require_directions([d for _, d in pieces])
    k = len(pieces)
    kept = [(replace(plan, interval=iv, grid_points=max(plan.grid_points // k, 16),
                     random_points=plan.random_points // k), direction)
            for iv, direction in pieces if iv[1] - iv[0] >= 4.0 * plan.margin]
    return _check(claim_id, params, plan, lambda: [_monotone(fn, p, d, excluded) for p, d in kept],
                  f"{len(kept)} monotone segments" if note is None else note)


def certify_lcm(a: float, max_order: int, plan: SamplePlan,
                claim_id: str | None = None) -> ClaimReport:
    """Certify (-1)^n (log g1)^(n) > 0 for n = 1..max_order on the plan.

    For a in {1, 2}, x = 0 is appended to the samples when lo < 0 < hi, using
    the closed-form derivative values there; an interval that only ends at 0,
    (0, 30) or (-0.5, 0), appends nothing.  Every order at every point comes
    from one array pass, a column of specfun's table; witnesses are listed
    by point, then order, with where = (x, n).
    """
    if not 1 <= max_order <= MAX_ORDER:
        raise ValueError(f"max_order must lie in 1..{MAX_ORDER}, got {max_order}")
    lo, hi = plan.interval

    def blocks() -> list[Block]:
        x = plan.points()
        if a in (1.0, 2.0) and lo < 0.0 < hi:
            x = np.append(x, 0.0)
        orders = np.arange(1.0, max_order + 1)
        where = np.column_stack([np.repeat(x, max_order), np.tile(orders, x.size)])
        margins = fam._margin_orders(a, x, max_order, "LCM margins").T
        return [(where, margins, "(-1)^n (log g1)^(n) > 0")]

    return _check(claim_id or f"lcm.a={_label(a)}", fam.Params(a=a), plan, blocks)


def certify_logconvex(a: float, c: float, plan: SamplePlan, sense: str,
                      claim_id: str | None = None) -> ClaimReport:
    """Certify the sign of (log g2)'' = (c - h3(x))/x^2 on the plan."""
    if sense not in ("convex", "concave"):
        raise ValueError(f"unknown sense {sense!r}")
    flip = 1.0 if sense == "convex" else -1.0

    def blocks() -> list[Block]:
        x = plan.points()
        return [(x[:, None], flip * (c - fam.h3(a, x)) / (x * x), f"(log g2)'' sign for {sense}")]

    return _check(claim_id or f"logconvex.{sense}", fam.Params(a=a, c=c), plan, blocks)


# --- corollary inequalities and comparisons ---------------------------------

# Name -> f(a, c, x, y, lg, h2): the log-domain quantities at pairs 0 < x < y
# that the corollary inequalities and the comparison remarks order, where lg
# and h2 hold log Gamma(t+a)/t and h2(a, t) in row 0 at x and row 1 at y.  r is
# the log of (Gamma(x+a))^(1/x) / (Gamma(y+a))^(1/y), m that of
# Gamma(A+a)^(1/A) over the geometric mean of the two family values, with
# A = (x+y)/2 and G = sqrt(xy).  Every quantity vanishes at x = y.
_QUANTITIES: dict[str, Callable[..., np.ndarray]] = {
    "r": lambda a, c, x, y, lg, h2: lg[0] - lg[1],
    "m": lambda a, c, x, y, lg, h2: fam._lg_over(a, 0.5 * (x + y)) - 0.5 * (lg[0] + lg[1]),
    "0": lambda a, c, x, y, lg, h2: 0.0 * x,
    "c log(x/y)": lambda a, c, x, y, lg, h2: c * np.log(x / y),
    "c log(A/G)": lambda a, c, x, y, lg, h2: c * np.log(0.5 * (x + y) / np.sqrt(x * y)),
    "c log((x+a)/(y+a))": lambda a, c, x, y, lg, h2: c * np.log((x + a) / (y + a)),
    "h2(y) log(x/y)": lambda a, c, x, y, lg, h2: h2[1] * np.log(x / y),
    "h2(x) log(x/y)": lambda a, c, x, y, lg, h2: h2[0] * np.log(x / y),
    "g3 lower bound": lambda a, c, x, y, lg, h2: ((h2[1] - c * y / (y + a)) * np.log(x / y)
                                                  + c * np.log((x + a) / (y + a))),
    "g3 upper bound": lambda a, c, x, y, lg, h2: ((h2[0] - c * x / (x + a)) * np.log(x / y)
                                                  + c * np.log((x + a) / (y + a))),
}


def _chain(names: Sequence[str], a: float, c: float, t: np.ndarray,
           at: np.ndarray) -> list[np.ndarray]:
    """Each named quantity of a chain at the pairs x = t[at[0]], y = t[at[1]].

    log Gamma(t+a)/t is evaluated once at the distinct abscissae t, and
    h2(a, t) once when the chain has a closed-form bound (named h2... or g3...).
    """
    lg = fam._lg_over(a, t)[at]
    h2 = fam.h2(a, t)[at] if any(q.startswith(("h2", "g3")) for q in names) else None
    x, y = t[at]
    return [_QUANTITIES[q](a, c, x, y, lg, h2) for q in names]


# Diagonal pairs whose chain spreads by more than this (as a ratio) break equality.
_EQUALITY_TOL = 1e-10

def _chains(plan: SamplePlan, chains: Sequence[tuple[Sequence[str], float, float]]) -> list[Block]:
    """Blocks checking q0 <= q1 <= ... for each (names, a, c) chain.

    The pairs are the plan's, each once with x <= y.  The margins are the
    differences of consecutive quantities on the pairs farther apart than
    tol; the diagonal pairs are checked for equality, which every chain is at
    x = y, and their witnesses follow the others.
    """
    p, t, at = plan._samples("pairs")
    apart, diag = p[:, 1] - p[:, 0] > plan.tol, p[:, 0] == p[:, 1]
    out: list[Block] = []
    for names, a, c in chains:
        steps = np.diff(np.column_stack(_chain(names, a, c, t, at)), axis=1)
        gap = np.abs(np.expm1(np.abs(steps[diag]).max(axis=1)))
        broken = gap > _EQUALITY_TOL
        out += [(p[apart], steps[apart], [f"{lo} <= {hi}" for lo, hi in zip(names, names[1:])]),
                (p[diag][broken], -gap[broken], "equality at x = y")]
    return out


def certify_inequality(id_: str, params: fam.Params, plan: SamplePlan,
                       claim_id: str | None = None) -> ClaimReport:
    """Certify one corollary inequality over grid x grid plus random pairs.

    The inequality is its chain in the orientation its region gives (the
    reversed orientation reverses the chain), checked as in :func:`_chains`.
    """
    if id_ not in _INEQUALITIES:
        raise ValueError(f"unknown inequality id {id_!r}")
    a, c = params.a, params.c
    orient, doc = _orientation(id_, a, c)
    names = _INEQUALITIES[id_][0][::-1 if orient == "reversed" else 1]
    return _check(claim_id or f"{id_}.{orient}", params, plan,
                  lambda: _chains(plan, [(names, a, c)]), f"region {doc}, orientation {orient}")


# Comparison id -> (note, chains checked in turn); the report shows the first (a, c).
_COMPARISONS: dict[str, tuple[str, tuple[tuple[tuple[str, ...], float, float], ...]]] = {
    "cmp1": ("midpoint ratio >= 1 >= ((x+y)/(2 sqrt(xy)))^c on D8",
             ((("c log(A/G)", "0", "m"), 2.0, -1.0),)),
    "cmp2": ("two-sided closed-form bounds sharper than the power bounds",
             tuple([(("r", "h2(x) log(x/y)", "0", "c log(x/y)"), a, -1.0) for a in (1.0, 2.0)]
                   + [(("c log(x/y)", "h2(y) log(x/y)", "r"), a, 1.5) for a in (0.75, 3.0)])),
    "cmp3": ("g3 closed-form upper bound sharper than ((x+a)/(y+a))^c on D8",
             ((("r", "g3 upper bound", "c log((x+a)/(y+a))"), 2.0, -0.5),)),
}


def _comparison(plan: SamplePlan, claim_id: str) -> ClaimReport:
    note, chains = _COMPARISONS[claim_id]
    return _check(claim_id, fam.Params(*chains[0][1:]), plan, lambda: _chains(plan, chains), note)


def _constants(plan: SamplePlan, claim_id: str) -> ClaimReport:
    """The published c0 bracket constants: their printed prefixes, and lower < upper."""
    lower, upper = C0_BRACKET
    return _check(claim_id, fam.Params(a=math.nan), plan, lambda: [
        ([[lower]], [1.0 if math.floor(lower * 1e5) == 77797 else -1.0], "prefix 0.77797"),
        ([[upper]], [1.0 if math.floor(upper * 1e5) == 79837 else -1.0], "prefix 0.79837"),
        ([[lower, upper]], [upper - lower], "lower < upper"),
    ], f"lower={lower!r} upper={upper!r}")


def certify_range(fn: ArrayFn, plan: SamplePlan, lower: float = -math.inf,
                  upper: float = math.inf, claim_id: str = "range",
                  params: fam.Params = fam.Params(a=math.nan)) -> ClaimReport:
    """Certify fn(x) in the open interval (lower, upper) on the plan.

    fn maps the ndarray of sample points to the ndarray of its values.
    """
    finite = [not math.isinf(lower), not math.isinf(upper)]
    labels = [s for s, f in zip((f"value > {lower}", f"value < {upper}"), finite) if f]

    def blocks() -> list[Block]:
        x = plan.points()
        v = np.asarray(fn(x), dtype=float)
        return [(x[:, None], np.column_stack([v - lower, upper - v])[:, finite], labels)]

    return _check(claim_id, params, plan, blocks)


def expect_violation(inner: ClaimReport, claim_id: str) -> ClaimReport:
    """Only-if wrapper: certified when the inner check found a witness.

    When the sweep finds no witness the result is inconclusive, never
    "violated": absence of a counterexample is not evidence either way.
    """
    verdict = Verdict.CERTIFIED if inner.verdict is Verdict.VIOLATED else Verdict.INCONCLUSIVE
    return replace(inner, claim_id=claim_id, verdict=verdict, strict=None,
                   note=f"expects a violation of inner claim {inner.claim_id!r}")


# --- claim catalog ----------------------------------------------------------

def _thm1_mono(plan: SamplePlan, claim_id: str, a: float) -> ClaimReport:
    """Theorem 1(1) monotonicity sign pattern of g1, per solved critical points."""
    hi, m = plan.interval[1], plan.margin
    excl: list[float] = []
    if a <= 0:
        lo = -a + max(0.01, abs(a) * 1e-3)
        excl = [critical.find_x0(a).value]
        pieces = [((lo, excl[0]), "increasing"), ((excl[0], hi), "decreasing")]
    elif 0 < a < 1 or a > 2:
        excl = [p.value for p in critical.find_x1_x2(a)]
        x1, x2 = excl
        pieces = [((-a + 0.01, x1), "decreasing"), ((x1, 0.0), "increasing"),
                  ((0.0, x2), "increasing"), ((x2, hi), "decreasing")]
    else:
        pieces = [((-a + 0.01, 0.0), "decreasing"), ((0.0, hi), "decreasing")]
    return segments(claim_id, fam.Params(a=a), plan, lambda x: fam.log_g1(a, x),
                    [((s + m, e - m), d) for (s, e), d in pieces], excl)


@functools.cache
def _g3_below_threshold() -> float:
    """c = 0.01 below the g3 increasing threshold at a = 1.5, solved once."""
    return critical.threshold_g3_increasing(1.5) - 0.01


def _claims() -> list[tuple[str, str, Callable[..., ClaimReport], dict]]:
    """The catalog: (base id, claim-id template, check, default params) rows.

    A row runs as check(plan=..., claim_id=template.format(**params),
    **params), each float param written by :func:`_label`, with the plan's
    interval set to params["interval"] (default DEFAULT_PLAN's), which is not
    passed on.  The rows are built per run, so each check is the function the
    module holds at that time.
    """
    def onlyif(check):
        return lambda plan, claim_id, **p: expect_violation(check(plan=plan, **p), claim_id)

    def mono(log_g):
        return lambda plan, claim_id="monotone", *, a, c, direction: certify_monotone(
            lambda x: log_g(a, c, x), plan, direction, claim_id=claim_id, params=fam.Params(a, c))

    def ineq(id_):
        return lambda plan, claim_id, a, c=0.0: certify_inequality(
            id_, fam.Params(a, c), plan, claim_id)

    def h_range(h):
        return lambda plan, claim_id, a, lower, upper: certify_range(
            lambda x: h(a, x), plan, lower, upper, claim_id, fam.Params(a=a))

    def split_at_x3(plan, claim_id, a, c):
        """g2 geometrically concave on (0, x3) and convex on (x3, inf)."""
        x3, (lo, hi), m = critical.find_x3(a).value, plan.interval, plan.margin
        return segments(claim_id, fam.Params(a, c), plan, lambda x: fam.h2(a, x) - c,
                        [((lo, x3 - m), "decreasing"), ((x3 + m, hi), "increasing")],
                        note=f"split at x3={x3!r}")

    lcm, g2, g3 = dict(max_order=6, interval=(1e-2, 30.0)), mono(fam.log_g2), mono(fam.log_g3)
    # geometric convexity: x f'(x)/f(x) increasing, x (log g2)' = h2 - c for g2
    geo2, geo3 = mono(lambda a, c, x: fam.h2(a, x) - c), mono(fam.x_logderiv_g3)
    inc, dec = "increasing", "decreasing"
    return [
        ("constants", "constants.c0-bracket", _constants, {}),
        *[("thm1.1.mono", "thm1.1.mono.a={a}", _thm1_mono, dict(a=a))
          for a in (-1.0, 0.5, 1.5, 3.0)],
        *[("thm1.2.lcm", "thm1.2.lcm.a={a}", certify_lcm, dict(lcm, a=a))
          for a in (1.0, 1.5, 2.0)],
        *[("thm1.2.lcm", "thm1.2.lcm.full.a={a}", certify_lcm, dict(lcm, a=a, interval=iv))
          for a, iv in ((1.0, (-0.99, 30.0)), (2.0, (-1.99, 30.0)))],
        *[("thm1.2.lcm.onlyif", "thm1.2.lcm.onlyif.a={a}", onlyif(certify_lcm), dict(lcm, a=a))
          for a in (0.5, 2.5)],
        *[("thm2.1.mono", "thm2.1.{direction:.3}.a={a}.c={c}", g2, dict(a=a, c=c, direction=d))
          for a, c, d in ((0.75, 1.0, dec), (3.0, 1.0, dec), (2.0, 1.0, dec),
                          (1.0, 0.0, inc), (2.0, 0.0, inc), (1.5, 0.0, inc))],
        # h2(2, x) only crosses 0.9 near x ~ 100, so the sweep must reach
        # well past the default interval to find its witness
        ("thm2.1.onlyif", "thm2.1.onlyif.a={a}.c={c}", onlyif(g2),
         dict(a=2.0, c=0.9, direction=dec, interval=(1e-2, 1e3))),
        *[("thm2.2.logconvex", "thm2.2.{sense}.a={a}.c={c}", certify_logconvex,
           dict(a=a, c=c, sense=s))
          for a, c, s in ((3.0, 1.0, "convex"), (2.0, 1.0, "convex"), (2.0, 0.0, "concave"))],
        ("thm2.2.onlyif", "thm2.2.onlyif.a={a}.c={c}", onlyif(certify_logconvex),
         dict(a=2.0, c=0.5, sense="convex")),
        *[("thm2.3.geoconvex", "thm2.3.geoconvex.a={a}.c={c}", geo2,
           dict(a=a, c=c, direction=inc)) for a, c in ((0.75, -3.0), (3.0, 1.0))],
        ("thm2.3.geoconvex", "thm2.3.piecewise.a={a}.c={c}", split_at_x3, dict(a=1.5, c=0.0)),
        ("thm3.1.mono", "thm3.1.dec.a={a}.c={c}", g3, dict(a=3.0, c=1.0, direction=dec)),
        ("thm3.1.mono", "thm3.1.inc.a={a}.c=thr", g3, dict(a=2.0, c=_PSI1_2, direction=inc)),
        ("thm3.1.mono", "thm3.1.inc.a={a}.c=thr-0.01", g3,
         dict(a=1.5, c=_g3_below_threshold(), direction=inc)),
        *[("thm3.2.geoconvex", "thm3.2.geoconvex.a={a}.c={c}", geo3,
           dict(a=a, c=-1.0, direction=inc)) for a in (0.75, 3.0)],
        *[(template.split(".")[0], template, ineq(template.split(".")[0]), params)
          for template, params in (
              ("ineq1.a={a}", dict(a=1.5)), ("ineq2.a={a}", dict(a=1.0)),
              ("ineq3.a={a}", dict(a=0.75)), ("ineq3.a={a}", dict(a=3.0)),
              ("ineq4.a={a}.c={c}", dict(a=0.75, c=1.5)),
              ("ineq4.rev.a={a}.c={c}", dict(a=2.0, c=-1.0)),
              ("ineq5.a={a}.c={c}", dict(a=2.0, c=1.0)),
              ("ineq5.rev.a={a}.c={c}", dict(a=2.0, c=-1.0)),
              ("ineq6.a={a}.c={c}", dict(a=3.0, c=2.0)),
              ("ineq6.rev.a={a}.c={c}", dict(a=2.0, c=0.0)),
              ("ineq7.a={a}.c={c}", dict(a=0.75, c=-1.0)),
              ("ineq7.a={a}.c={c}", dict(a=3.0, c=-1.0)))],
        *[("cmp", cid, _comparison, {}) for cid in _COMPARISONS],
        *[("lemma.ranges", f"lemma.{name}.range.a={{a}}", h_range(h),
           dict(a=a, lower=lower, upper=1.0))
          for name, h, a, lower in (("h2", fam.h2, 0.75, -math.inf), ("h2", fam.h2, 3.0, -math.inf),
                                    ("h2", fam.h2, 1.0, 0.0), ("h2", fam.h2, 2.0, 0.0),
                                    ("h3", fam.h3, 2.0, 0.0), ("h4", fam.h4, 2.0, _PSI1_2))],
    ]


def claim_ids() -> list[str]:
    """Base identifiers accepted by run_claims."""
    return sorted({row[0] for row in _claims()})


def run_claims(which: str = "all", plan: SamplePlan = DEFAULT_PLAN, a: float | None = None,
               c: float | None = None) -> list[ClaimReport]:
    """Run the claim catalog; reports are sorted by claim_id.

    `which` is a base identifier (see :func:`claim_ids`) or "all".  An `a`
    and/or `c` override runs only the first row of that base id, at the
    given parameters; an override that row does not take, a non-finite
    override, or any override with "all", raises ValueError.  Each row's
    interval comes from the catalog, so `plan.interval` is not used.
    """
    rows = [row for row in _claims() if which in ("all", row[0])]
    if not rows:
        raise KeyError(f"unknown claim {which!r}; known: {', '.join(claim_ids())}")
    overrides = {k: v for k, v in (("a", a), ("c", c)) if v is not None}
    if not all(map(math.isfinite, overrides.values())):
        raise ValueError(f"claim parameters must be finite, got {overrides}")
    if overrides:
        refused = sorted(set(overrides) - set(rows[0][3]) if which != "all" else overrides)
        if refused:
            raise ValueError(f"claim {which!r} takes no {'/'.join(refused)} override")
        rows = rows[:1]
    reports = []
    for _, template, check, defaults in rows:
        params = {**defaults, **overrides}
        interval = params.pop("interval", DEFAULT_PLAN.interval)
        labels = {k: _label(v) if isinstance(v, float) else v for k, v in params.items()}
        reports.append(check(plan=replace(plan, interval=interval),
                             claim_id=template.format(**labels), **params))
    return sorted(reports, key=lambda r: r.claim_id)
