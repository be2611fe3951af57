"""The three workloads: seeded op generators and per-op output checks.

Every op is one argv for `gammapower.cli.main`.  Generators are infinite and
deterministic in the seed, and yield rounds: each round holds every base id,
FN_CATALOG entry or solve kind once, and the benchmark times whole rounds.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from itertools import chain, count, islice
from pathlib import Path
from typing import Callable, Iterator

WORKLOADS = ("catalog", "evaluate", "solve")

HERE = Path(__file__).resolve().parent

# Expected verdict of every claim id `verify --claim all` runs, keyed by id,
# with the base id that produces it.
EXPECTED = json.loads((HERE / "expected_verdicts.json").read_text())
BASE_IDS = sorted({row["base"] for row in EXPECTED.values()})

# `verify --seed` values for which every claim keeps its expected verdict.
# Base id i always samples with VERIFY_SEEDS[i % 4]: the sampling seed
# changes a claim's cost by up to half, so the workload seed sets only the
# order of the ops, and every run measures the same claims on the same points.
VERIFY_SEEDS = (1, 7, 42, 123456)

A_STAR = (3.0 + math.sqrt(159.0)) / 12.0

EVAL_POINTS = 200
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class Op:
    """One CLI request plus what its check needs to know about it."""

    kind: str                     # base id, FN_CATALOG entry or solve kind
    argv: tuple[str, ...]
    spec: dict = field(default_factory=dict)


def _num(flag: str, v: float | int) -> str:
    # `--a=-1e-09` rather than `--a -1e-09`: argparse reads a bare "-1e-09"
    # as an option flag.
    return f"--{flag}={v!r}"


# --- catalog ------------------------------------------------------------

def catalog_ops(seed: int) -> Iterator[list[Op]]:
    """Rounds of `verify` ops: every base id once per round, seeded order."""
    rng = random.Random(f"catalog:{seed}")
    ops = [Op(cid, ("verify", "--claim", cid, "--format", "json",
                    "--seed", str(VERIFY_SEEDS[i % len(VERIFY_SEEDS)])))
           for i, cid in enumerate(BASE_IDS)]
    while True:
        yield rng.sample(ops, len(ops))


def check_catalog(op: Op, rc: int, out: str) -> tuple[str | None, dict]:
    """Exit code, JSON, claim ids and verdicts against EXPECTED."""
    try:
        reports = json.loads(out)
    except ValueError as exc:
        return f"output is not JSON: {exc}", {}
    want = {cid for cid, row in EXPECTED.items() if row["base"] == op.kind}
    got = {r.get("claim_id") for r in reports}
    stats = {"reports": len(reports), "bytes": len(out),
             "inconclusive": sum(r.get("verdict") == "inconclusive" for r in reports)}
    if got != want:
        return f"claim ids {sorted(got)} != expected {sorted(want)}", stats
    for r in reports:
        if r.get("verdict") != EXPECTED[r["claim_id"]]["verdict"]:
            return f"{r['claim_id']}: verdict {r.get('verdict')}", stats
    want_rc = 0 if all(EXPECTED[c]["verdict"] == "certified" for c in want) else 1
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}", stats
    return None, stats


# --- evaluate -----------------------------------------------------------

# FN_CATALOG entry -> (needs a, needs c, n range or None, sign, family domain).
# `family` entries are sampled on x in [0.05, 55]: the exponent of the
# family stays far from exp overflow there.  The others take x down to 1e-3.
EVAL_FNS: dict[str, tuple[bool, bool, tuple[int, int] | None, bool, bool]] = {
    "gamma_log": (False, False, None, False, False),
    "psi": (False, False, None, False, False),
    "polygamma": (False, False, (1, 8), False, False),
    "f": (True, True, None, True, True),
    "g": (True, True, None, True, True),
    "g1": (True, False, None, False, True),
    "g2": (True, True, None, False, True),
    "g3": (True, True, None, False, True),
    "h1": (True, False, None, False, True),
    "h2": (True, False, None, False, True),
    "h3": (True, False, None, False, True),
    "h4": (True, False, None, False, True),
    "h21": (True, False, None, False, True),
    "h31": (True, False, None, False, True),
    "h41": (True, False, None, False, True),
    "delta_n": (True, False, (1, 6), False, True),
    "log_g1_deriv": (True, False, (1, 6), False, True),
    "xlogderiv_g3": (True, True, None, False, True),
}


STRATA = 10


class Strata:
    """Seeded uniform draws on (0, 1), stratified over rounds.

    In every cycle of STRATA rounds, each parameter's draws fall once in each
    of STRATA equal strata, in a fresh seeded order, jittered inside the
    stratum.  Op cost depends strongly on the parameters (polygamma's series
    path, delta_n's Taylor branch), and stratifying keeps the mix of cheap
    and costly ops the same from seed to seed.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.round = 0
        self._orders: dict[str, tuple[int, list[int]]] = {}

    def __call__(self, key: str) -> float:
        cycle, pos = divmod(self.round, STRATA)
        if self._orders.get(key, (None,))[0] != cycle:
            self._orders[key] = (cycle, self.rng.sample(range(STRATA), STRATA))
        return (self._orders[key][1][pos] + self.rng.uniform(0.001, 0.999)) / STRATA



def _loguniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def eval_op(fn: str, u: Callable[[str], float], row: int) -> Op:
    """A 200-point range request for fn; u(param) gives each draw in (0, 1)."""
    needs_a, needs_c, n_range, has_sign, family = EVAL_FNS[fn]
    spec = {"fn": fn, "a": 1.0, "c": 0.0, "n": None, "sign": "plus", "row": row}
    argv = ["eval", "--fn", fn]
    if needs_a:
        spec["a"] = 0.25 + 3.75 * u(f"{fn}.a")
        argv.append(_num("a", spec["a"]))
    if needs_c:
        spec["c"] = -3.0 + 6.0 * u(f"{fn}.c")
        argv.append(_num("c", spec["c"]))
    if n_range:
        spec["n"] = n_range[0] + int(u(f"{fn}.n") * (n_range[1] - n_range[0] + 1))
        argv.append(_num("n", spec["n"]))
    if has_sign:
        spec["sign"] = "minus" if u(f"{fn}.sign") < 0.5 else "plus"
        argv.append(f"--sign={spec['sign']}")
    if family:
        lo = _loguniform(u(f"{fn}.lo"), 0.05, 5.0)
        hi = lo + _loguniform(u(f"{fn}.width"), 1.0, 50.0)
    else:
        lo = _loguniform(u(f"{fn}.lo"), 1e-3, 10.0)
        hi = lo * _loguniform(u(f"{fn}.width"), 2.0, 100.0)
    spec.update(x_min=lo, x_max=hi)
    argv += [_num("x-min", lo), _num("x-max", hi), _num("points", EVAL_POINTS)]
    return Op(fn, tuple(argv), spec)


def evaluate_ops(seed: int) -> Iterator[list[Op]]:
    """Rounds of 200-point `eval` range requests, one per FN_CATALOG entry."""
    rng = random.Random(f"evaluate:{seed}")
    strata = Strata(rng)
    for strata.round in count():
        fns = list(EVAL_FNS)
        rng.shuffle(fns)
        yield [eval_op(fn, strata, rng.randrange(EVAL_POINTS)) for fn in fns]


def check_evaluate(op: Op, rc: int, out: str) -> tuple[str | None, dict]:
    """Exit code, row count, the x grid and finite values.

    Returns the op's sampled row for the mpmath spot check in stats["row"].
    """
    if rc != 0:
        return f"exit code {rc}", {}
    lines = out.splitlines()
    if not lines or lines[0] != "x,value":
        return "missing CSV header", {}
    if len(lines) != EVAL_POINTS + 1:
        return f"{len(lines) - 1} rows, expected {EVAL_POINTS}", {}
    lo, hi = op.spec["x_min"], op.spec["x_max"]
    step = (hi - lo) / (EVAL_POINTS - 1)
    row = None
    for i, line in enumerate(lines[1:]):
        try:
            xs, vs = line.split(",")
            x, v = float(xs), float(vs)
        except ValueError:
            return f"malformed row {line!r}", {}
        if abs(x - (lo + i * step)) > 1e-12 * hi or not math.isfinite(v):
            return f"bad row {i}: {line!r}", {}
        if i == op.spec["row"]:
            row = (x, v)
    return None, {"row": row}


# --- solve --------------------------------------------------------------

# kind -> a-intervals of its precondition; unbounded ones are cut at |a| = 4
# and 5 so a uniform draw exists.
SOLVE_KINDS: dict[str, tuple[tuple[float, float], ...]] = {
    "x0": ((-4.0, 0.0),),
    "x1x2": ((0.0, 1.0), (2.0, 5.0)),
    "x3": ((1.0, 2.0),),
    "x4": ((A_STAR, 2.0),),
    "t4tilde": ((A_STAR, 2.0),),
    "threshold-g2": ((1.0, 2.0),),
    "threshold-g3": ((A_STAR, 2.0),),
}


def _in_spans(u: float, spans: tuple[tuple[float, float], ...]) -> float:
    """The point a share u of the way along the union of spans."""
    pos = u * sum(hi - lo for lo, hi in spans)
    for lo, hi in spans:
        if pos < hi - lo:
            return lo + pos
        pos -= hi - lo
    return spans[-1][1]


def solve_op(kind: str, a: float) -> Op:
    return Op(kind, ("solve", "--kind", kind, _num("a", a)), {"a": a})


def solve_ops(seed: int) -> Iterator[list[Op]]:
    """Rounds of `solve` requests, one per kind, a uniform in its range."""
    rng = random.Random(f"solve:{seed}")
    strata = Strata(rng)
    for strata.round in count():
        kinds = list(SOLVE_KINDS)
        rng.shuffle(kinds)
        yield [solve_op(k, _in_spans(strata(k), SOLVE_KINDS[k])) for k in kinds]


def _check_point(p: dict, kind: str, a: float) -> str | None:
    if p.get("kind") != kind or p.get("a") != a:
        return f"point {p.get('kind')} at a={p.get('a')}"
    v, (lo, hi), r = p["value"], p["bracket"], p["residual"]
    if not (math.isfinite(v) and r <= RESIDUAL_TOL and lo <= v <= hi):
        return f"{kind}: value {v}, residual {r}, bracket {lo}..{hi}"
    domain = {"x0": v > -a, "x1": -a < v < 0.0, "x2": v > 0.0, "x3": v > 0.0,
              "x4": v > 0.0, "t4tilde": v > a}[kind]
    return None if domain else f"{kind}={v} outside its domain at a={a}"


def solution(op: Op, payload: dict) -> dict[str, float]:
    """The solved values of a `solve` answer, keyed like oracle.solve_reference."""
    if op.kind == "x1x2":
        return {"x1": payload["x1"]["value"], "x2": payload["x2"]["value"]}
    return {op.kind: payload["value"]}


def check_solve(op: Op, rc: int, out: str) -> tuple[str | None, dict]:
    """Exit code, JSON fields, residual <= 1e-10, root inside bracket and domain."""
    if rc != 0:
        return f"exit code {rc}", {}
    try:
        payload = json.loads(out)
        a = op.spec["a"]
        if op.kind == "x1x2":
            err = _check_point(payload["x1"], "x1", a) or _check_point(payload["x2"], "x2", a)
        elif op.kind.startswith("threshold"):
            ok = payload["kind"] == op.kind and payload["a"] == a
            err = None if ok and math.isfinite(payload["value"]) else f"bad threshold {payload}"
        else:
            err = _check_point(payload, op.kind, a)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed answer {out[:200]!r}: {exc!r}", {}
    return err, {}


GENERATORS = {"catalog": catalog_ops, "evaluate": evaluate_ops, "solve": solve_ops}
CHECKS = {"catalog": check_catalog, "evaluate": check_evaluate, "solve": check_solve}

# The cheapest request of each workload: what `setup_s` completes in a fresh
# interpreter, and the in-process warm-up before timing.
SMALLEST = {
    "catalog": Op("constants", ("verify", "--claim", "constants", "--format", "json",
                                "--seed", "1")),
    "evaluate": Op("psi", ("eval", "--fn", "psi", "--x-min=0.5", "--x-max=10.0",
                           f"--points={EVAL_POINTS}"),
                   {"fn": "psi", "x_min": 0.5, "x_max": 10.0, "row": 0}),
    "solve": solve_op("x3", 1.5),
}


def rounds(workload: str, seed: int) -> Iterator[list[Op]]:
    return GENERATORS[workload](seed)


def first_ops(workload: str, seed: int, n: int) -> list[Op]:
    """The first n ops of a workload."""
    return list(islice(chain.from_iterable(rounds(workload, seed)), n))
