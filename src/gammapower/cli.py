"""Command-line front end.

Verbs:
    eval       evaluate any catalog function at a point or over an x-range
    solve      solve a critical-point equation or threshold for a given a
    verify     run certification claims, emit JSON reports + summary table
    sweep      write a CSV over an (a, x) grid, for external plotting
    constants  print the built-in constants and the c0 bracket values

Exit codes: 0 = evaluated / all certified, 1 = violation found,
2 = usage or domain error.  Outputs are deterministic functions of the
arguments and seed; CSV values carry full double round-trip precision.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from typing import Callable

import numpy as np

from .specfun import (
    DomainError,
    EULER_GAMMA,
    PI,
    ZETA3,
    digamma,
    log_gamma,
    polygamma,
)
from . import families as fam
from . import critical
from .certify import C0_BRACKET, SamplePlan, Verdict, claim_ids, run_claims

__all__ = ["main", "build_parser", "FN_CATALOG"]


def _fmt(v: float) -> str:
    return f"{v:.17g}"


# name -> callable(args, x)
FN_CATALOG: dict[str, Callable] = {
    "gamma_log": lambda ns, x: log_gamma(x),
    "psi": lambda ns, x: digamma(x),
    "polygamma": lambda ns, x: polygamma(ns.n, x),
    "f": lambda ns, x: fam.f_family(_params(ns), x),
    "g": lambda ns, x: fam.g_family(_params(ns), x),
    "g1": lambda ns, x: fam.g1(ns.a, x),
    "g2": lambda ns, x: fam.g2(ns.a, ns.c, x),
    "g3": lambda ns, x: fam.g3(ns.a, ns.c, x),
    "h1": lambda ns, x: fam.h1(ns.a, x),
    "h2": lambda ns, x: fam.h2(ns.a, x),
    "h3": lambda ns, x: fam.h3(ns.a, x),
    "h4": lambda ns, x: fam.h4(ns.a, x),
    "h21": lambda ns, x: fam.h21(ns.a, x),
    "h31": lambda ns, x: fam.h31(ns.a, x),
    "h41": lambda ns, x: fam.h41(ns.a, x),
    "delta_n": lambda ns, x: fam.delta_n(ns.a, ns.n, x),
    "log_g1_deriv": lambda ns, x: fam.log_g1_deriv(ns.a, ns.n, x),
    "xlogderiv_g3": lambda ns, x: fam.x_logderiv_g3(ns.a, ns.c, x),
}


# catalog functions that take a derivative/series order --n
_TAKES_N = {"polygamma", "delta_n", "log_g1_deriv"}


def _usage_error(ns, *counts: str) -> bool:
    """Print why an eval/sweep request cannot run (a missing --n, a count below 1)."""
    if ns.fn in _TAKES_N and ns.n is None:
        print(f"error: --fn {ns.fn} requires --n (derivative/series order)", file=sys.stderr)
        return True
    for name in counts:
        if getattr(ns, name) < 1:
            print(f"error: --{name.replace('_', '-')} must be at least 1", file=sys.stderr)
            return True
    return False


def _params(ns) -> fam.Params:
    sign = fam.Sign.MINUS if ns.sign == "minus" else fam.Sign.PLUS
    return fam.Params(a=ns.a, c=ns.c, sign=sign)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammapower",
        description="Evaluate, solve, and certify gamma/power combination families.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a catalog function")
    p_eval.add_argument("--fn", required=True, choices=sorted(FN_CATALOG))
    p_eval.add_argument("--a", type=float, default=1.0)
    p_eval.add_argument("--c", type=float, default=0.0)
    p_eval.add_argument("--n", type=int, default=None, help="order for polygamma/delta_n/log_g1_deriv")
    p_eval.add_argument("--sign", choices=["plus", "minus"], default="plus")
    p_eval.add_argument("--x", type=float, default=None)
    p_eval.add_argument("--x-min", type=float, default=None)
    p_eval.add_argument("--x-max", type=float, default=None)
    p_eval.add_argument("--points", type=int, default=100)
    p_eval.add_argument("--out", default=None)

    p_solve = sub.add_parser("solve", help="solve a critical point or threshold")
    p_solve.add_argument(
        "--kind", required=True,
        choices=["x0", "x1x2", "x3", "x4", "t4tilde", "threshold-g2", "threshold-g3"],
    )
    p_solve.add_argument("--a", type=float, required=True)

    p_verify = sub.add_parser("verify", help="run certification claims")
    p_verify.add_argument("--claim", required=True,
                          help='a claim id or "all"; see --list-claims')
    p_verify.add_argument("--a", type=float, default=None)
    p_verify.add_argument("--c", type=float, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--points", type=int, default=None, help="grid points override")
    p_verify.add_argument("--format", choices=["csv", "json"], default=None)
    p_verify.add_argument("--out", default=None, help="write full JSON reports here")

    p_sweep = sub.add_parser("sweep", help="CSV sweep over (a, x)")
    p_sweep.add_argument("--fn", required=True, choices=sorted(FN_CATALOG))
    p_sweep.add_argument("--a-min", type=float, required=True)
    p_sweep.add_argument("--a-max", type=float, required=True)
    p_sweep.add_argument("--a-points", type=int, default=20)
    p_sweep.add_argument("--c", type=float, default=0.0)
    p_sweep.add_argument("--n", type=int, default=None)
    p_sweep.add_argument("--sign", choices=["plus", "minus"], default="plus")
    p_sweep.add_argument("--x-min", type=float, required=True)
    p_sweep.add_argument("--x-max", type=float, required=True)
    p_sweep.add_argument("--points", type=int, default=100)
    p_sweep.add_argument("--out", required=True)

    sub.add_parser("constants", help="print constants and the c0 bracket")
    sub.add_parser("list-claims", help="print the claim catalog identifiers")
    return parser


def _run_eval(ns, out) -> int:
    fn = FN_CATALOG[ns.fn]
    if _usage_error(ns, "points"):
        return 2
    if ns.x is not None:
        try:
            out.write(_fmt(fn(ns, ns.x)) + "\n")
        except (DomainError, OverflowError) as exc:
            print(f"error at x={ns.x!r}: {exc}", file=sys.stderr)
            return 2
        return 0
    if ns.x_min is None or ns.x_max is None:
        print("eval requires either --x or both --x-min and --x-max", file=sys.stderr)
        return 2
    out.write("x,value\n")
    for x in np.linspace(ns.x_min, ns.x_max, ns.points).tolist():
        try:
            out.write(f"{_fmt(x)},{_fmt(fn(ns, x))}\n")
        except (DomainError, OverflowError) as exc:
            print(f"error at x={x!r}: {exc}", file=sys.stderr)
            return 2
    return 0


def _point_dict(p: critical.CriticalPoint) -> dict:
    return {
        "kind": p.kind.value,
        "a": p.a,
        "value": p.value,
        "residual": p.residual,
        "bracket": list(p.bracket),
    }


def _run_solve(ns, out) -> int:
    try:
        if ns.kind == "x0":
            payload = _point_dict(critical.find_x0(ns.a))
        elif ns.kind == "x1x2":
            p1, p2 = critical.find_x1_x2(ns.a)
            payload = {"x1": _point_dict(p1), "x2": _point_dict(p2)}
        elif ns.kind == "x3":
            payload = _point_dict(critical.find_x3(ns.a))
        elif ns.kind == "x4":
            payload = _point_dict(critical.find_x4(ns.a))
        elif ns.kind == "t4tilde":
            payload = _point_dict(critical.find_t4_tilde(ns.a))
        elif ns.kind == "threshold-g2":
            payload = {"kind": "threshold-g2", "a": ns.a,
                       "value": critical.threshold_g2_increasing(ns.a)}
        else:
            payload = {"kind": "threshold-g3", "a": ns.a,
                       "value": critical.threshold_g3_increasing(ns.a)}
    except (critical.PreconditionError, critical.BracketError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _run_verify(ns, out) -> int:
    overrides = {"seed": ns.seed, "tol": ns.tol, "grid_points": ns.points}
    try:
        plan = replace(SamplePlan(), **{k: v for k, v in overrides.items() if v is not None})
        reports = run_claims(ns.claim, plan=plan, a=ns.a, c=ns.c)
    except (KeyError, ValueError, ArithmeticError, critical.BracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    dicts = [r.to_dict() for r in reports]
    if ns.out:
        with open(ns.out, "w") as fh:
            json.dump(dicts, fh, sort_keys=True, indent=2)
    if ns.format == "json":
        out.write(json.dumps(dicts, sort_keys=True) + "\n")
    else:
        width = max(len(r.claim_id) for r in reports)
        out.write(f"{'claim':<{width}}  verdict       min_margin\n")
        for r in reports:
            mm = "-" if math.isinf(r.min_margin) else _fmt(r.min_margin)
            out.write(f"{r.claim_id:<{width}}  {r.verdict.value:<12}  {mm}\n")
        n_cert = sum(r.verdict is Verdict.CERTIFIED for r in reports)
        out.write(f"{n_cert}/{len(reports)} certified\n")
    return 0 if all(r.verdict is Verdict.CERTIFIED for r in reports) else 1


def _run_sweep(ns) -> int:
    fn = FN_CATALOG[ns.fn]
    if _usage_error(ns, "points", "a_points"):
        return 2
    xs = np.linspace(ns.x_min, ns.x_max, ns.points).tolist()
    try:
        with open(ns.out, "w") as fh:
            fh.write("a,x,value\n")
            for a in np.linspace(ns.a_min, ns.a_max, ns.a_points).tolist():
                ns.a = a
                for x in xs:
                    try:
                        v = fn(ns, x)
                    except (DomainError, OverflowError):
                        continue  # outside this slice's domain; skip the row
                    fh.write(f"{_fmt(a)},{_fmt(x)},{_fmt(v)}\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if os.path.exists(ns.out):
            os.unlink(ns.out)
        return 2
    return 0


def _run_constants(out) -> int:
    lower, upper = C0_BRACKET
    out.write(f"euler_gamma,{_fmt(EULER_GAMMA)}\n")
    out.write(f"pi,{_fmt(PI)}\n")
    out.write(f"zeta3,{_fmt(ZETA3)}\n")
    out.write(f"c0_bracket_lower,{_fmt(lower)}\n")
    out.write(f"c0_bracket_upper,{_fmt(upper)}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    out = sys.stdout
    if ns.verb == "eval":
        if ns.out:
            with open(ns.out, "w") as fh:
                return _run_eval(ns, fh)
        return _run_eval(ns, out)
    if ns.verb == "solve":
        return _run_solve(ns, out)
    if ns.verb == "verify":
        return _run_verify(ns, out)
    if ns.verb == "sweep":
        return _run_sweep(ns)
    if ns.verb == "list-claims":
        for cid in claim_ids():
            out.write(cid + "\n")
        return 0
    return _run_constants(out)


if __name__ == "__main__":
    raise SystemExit(main())
