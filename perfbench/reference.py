"""Fixed mpmath reference sets behind each workload's `max_rel_err`.

The sets do not depend on the workload seed, so `max_rel_err` compares
like with like across runs.  Each request goes through the CLI's
single-value path (`eval --x`) or `solve`, exactly as a user would send it,
and is checked outside the timed region.
"""

from __future__ import annotations

import json
import math
import random

import oracle
from workloads import EVAL_FNS, SOLVE_KINDS, Op, _num, eval_op, solution, solve_op


def _eval_point(spec: dict, x: float) -> Op:
    argv = ["eval", "--fn", spec["fn"], _num("a", spec["a"]), _num("c", spec["c"]),
            f"--sign={spec['sign']}", _num("x", x)]
    if spec["n"] is not None:
        argv.append(_num("n", spec["n"]))
    return Op(spec["fn"], tuple(argv), dict(spec, x=x))


def evaluate_set() -> list[Op]:
    """Eight points per FN_CATALOG entry; orders cycle through their range."""
    rng = random.Random("evaluate-reference")
    ops = []
    for fn, (_, _, n_range, _, _) in EVAL_FNS.items():
        for k in range(8):
            spec = dict(eval_op(fn, lambda _: rng.random(), 0).spec)
            if n_range:
                spec["n"] = n_range[0] + k % (n_range[1] - n_range[0] + 1)
            x = spec["x_min"] + (spec["x_max"] - spec["x_min"]) * rng.random()
            ops.append(_eval_point(spec, x))
    return ops


def catalog_set() -> list[Op]:
    """delta_n and high-order polygamma, the values the LCM claims rest on."""
    ops = []
    for a in (0.5, 1.0, 1.5, 2.0, 2.5):
        for n in range(1, 7):
            for x in (-0.5, 0.01, 0.15, 0.9, 4.0, 25.0):
                if x > -a:
                    spec = {"fn": "delta_n", "a": a, "c": 0.0, "n": n, "sign": "plus"}
                    ops.append(_eval_point(spec, x))
    for n in (8, 12, 20, 40, 63):
        for x in (0.05, 0.3, 1.5, 6.0, 30.0):
            spec = {"fn": "polygamma", "a": 1.0, "c": 0.0, "n": n, "sign": "plus"}
            ops.append(_eval_point(spec, x))
    return ops


def solve_set() -> list[Op]:
    """Four evenly spaced a per kind; thresholds also solve their root kind."""
    ops = []
    for kind, spans in SOLVE_KINDS.items():
        for lo, hi in spans:
            for k in range(4):
                a = lo + (hi - lo) * (k + 0.5) / 4
                if kind == "threshold-g2":
                    ops.append(solve_op("x3", a))
                if kind == "threshold-g3":
                    ops.append(solve_op("x4", a))
                ops.append(solve_op(kind, a))
    return ops


SETS = {"catalog": catalog_set, "evaluate": evaluate_set, "solve": solve_set}


def eval_error(op: Op, rc: int, out: str) -> float:
    if rc != 0:
        return math.inf
    s = op.spec
    return oracle.scaled_error(s["fn"], float(out), s["a"], s["c"], s["n"], s["sign"], s["x"])


def solve_errors(ops: list[Op], results: list[tuple[int, str]]) -> list[float]:
    """Worst scaled error of each op's solved values; a threshold op starts
    mpmath from the root op solved before it at the same a."""
    errors, roots = [], {}
    for op, (rc, out) in zip(ops, results):
        if rc != 0:
            errors.append(math.inf)
            continue
        a = op.spec["a"]
        try:
            got = solution(op, json.loads(out))
            roots.update({(k, a): v for k, v in got.items()})
            start = dict(got, x3=roots.get(("x3", a)), x4=roots.get(("x4", a)))
            refs = {k: oracle.solve_reference(k, a, start) for k in got}
        except (ValueError, KeyError, TypeError, ZeroDivisionError):
            errors.append(math.inf)  # malformed answer, or no root near it
            continue
        errors.append(max(abs(got[k] - ref) / max(1.0, abs(ref)) for k, ref in refs.items()))
    return errors
