"""Command-line front end.

Verbs:
    eval       evaluate any catalog function at a point or over an x-range
    solve      solve a critical-point equation or threshold for a given a
    verify     run certification claims, emit a summary table, CSV or JSON reports
    sweep      write a CSV over an (a, x) grid, for external plotting
    constants  print the built-in constants and the c0 bracket values

A request that starts with a verb is parsed once, by that verb's own parser:
the sub-parser the full parser would hand it to.  The full parser takes
every other request (no verb first, or arguments the verb's parser leaves
unrecognised), so it alone writes help, usage and error reports.  An eval
range is written by one % over its whole grid.

Exit codes: 0 = evaluated / all certified, 1 = violation found,
2 = usage or domain error, arithmetic failure (an overflow, which the
library raises instead of returning a value that is not finite, or an
unconverged solve) or an unwritable --out; `main` maps every such error to
2 in one place.  Outputs are deterministic functions of the arguments and
seed; CSV values carry full double round-trip precision.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from typing import Callable

from .specfun import (
    DomainError,
    EULER_GAMMA,
    PI,
    ZETA3,
    digamma,
    log_gamma,
    np,
    polygamma,
)
from . import families as fam
from . import critical
from .certify import C0_BRACKET, SamplePlan, Verdict, claim_ids, run_claims

__all__ = ["main", "build_parser", "FN_CATALOG"]


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _rows(xs, vs) -> str:
    """The lines "x,value" of an eval range, each number as _fmt writes it, by one %.

    xs and vs are 1-d arrays (or lists) of one length.
    """
    values = np.column_stack((xs, vs)).ravel().tolist()
    return ("%.17g,%.17g\n" * len(xs)) % tuple(values)


# name -> callable(args, x), for a float x or an ndarray of x
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


def _params(ns) -> fam.Params:
    return fam.Params(a=ns.a, c=ns.c, sign=fam.Sign(ns.sign))


def count(text: str) -> int:
    """An integer >= 1; argparse reports bad text as an "invalid count value"."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _finite(text: str) -> float:
    """A finite float; argparse reports malformed text, nan and +-inf alike."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    """np.linspace(lo, hi, n); a range wider than the largest double is an error.

    Near that width linspace's last step may round past the double range; it
    sets the last point to hi, so the overflow is not reported.
    """
    if not math.isfinite(hi - lo):
        raise ValueError(f"the range {lo!r} .. {hi!r} is too wide for a grid")
    with np.errstate(over="ignore"):
        return np.linspace(lo, hi, n)


def _point_dict(p: critical.CriticalPoint) -> dict:
    return {"kind": p.kind.value, "a": p.a, "value": p.value, "residual": p.residual,
            "bracket": p.bracket, "iterations": p.iterations, "f_evals": p.f_evals}


# solve --kind -> JSON payload; `critical` attributes are looked up per call.
_SOLVERS: dict[str, Callable[[float], dict]] = {
    "x0": lambda a: _point_dict(critical.find_x0(a)),
    "x1x2": lambda a: {p.kind.value: _point_dict(p) for p in critical.find_x1_x2(a)},
    "x3": lambda a: _point_dict(critical.find_x3(a)),
    "x4": lambda a: _point_dict(critical.find_x4(a)),
    "t4tilde": lambda a: _point_dict(critical.find_t4_tilde(a)),
    "threshold-g2": lambda a: {"kind": "threshold-g2", "a": a,
                               "value": critical.threshold_g2_increasing(a)},
    "threshold-g3": lambda a: {"kind": "threshold-g3", "a": a,
                               "value": critical.threshold_g3_increasing(a)},
}


def build_parser() -> argparse.ArgumentParser:
    """A new parser for every verb and option."""
    parser = argparse.ArgumentParser(
        prog="gammapower",
        description="Evaluate, solve, and certify gamma/power combination families.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a catalog function")
    p_eval.add_argument("--a", type=float, default=1.0)
    p_eval.add_argument("--x", type=float, default=None)
    p_eval.add_argument("--x-min", type=_finite, default=None)
    p_eval.add_argument("--x-max", type=_finite, default=None)
    p_eval.add_argument("--out", default=None)

    p_solve = sub.add_parser("solve", help="solve a critical point or threshold")
    p_solve.add_argument("--kind", required=True, choices=list(_SOLVERS))
    p_solve.add_argument("--a", type=float, required=True)

    p_verify = sub.add_parser("verify", help="run certification claims")
    p_verify.add_argument("--claim", required=True,
                          help='a claim id or "all"; the list-claims command lists them')
    p_verify.add_argument("--a", type=float, default=None)
    p_verify.add_argument("--c", type=float, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--points", type=count, default=None, help="grid points override")
    p_verify.add_argument("--format", choices=["csv", "json"], default=None)
    p_verify.add_argument("--out", default=None, help="write full JSON reports here")

    p_sweep = sub.add_parser("sweep", help="CSV sweep over (a, x)")
    p_sweep.add_argument("--a-min", type=_finite, required=True)
    p_sweep.add_argument("--a-max", type=_finite, required=True)
    p_sweep.add_argument("--a-points", type=count, default=20)
    p_sweep.add_argument("--x-min", type=_finite, required=True)
    p_sweep.add_argument("--x-max", type=_finite, required=True)
    p_sweep.add_argument("--out", required=True)

    for p in (p_eval, p_sweep):
        p.add_argument("--fn", required=True, choices=sorted(FN_CATALOG))
        p.add_argument("--c", type=float, default=0.0)
        p.add_argument("--n", type=int, default=None, help="order for polygamma/delta_n/log_g1_deriv")
        p.add_argument("--sign", choices=[s.value for s in fam.Sign], default="plus")
        p.add_argument("--points", type=count, default=100)

    sub.add_parser("constants", help="print constants and the c0 bracket")
    sub.add_parser("list-claims", help="print the claim catalog identifiers")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process: parsing leaves it unchanged."""
    return build_parser()


@functools.cache
def _verb_parsers() -> dict[str, argparse.ArgumentParser]:
    """verb -> the sub-parser that `_parser()` hands that verb's arguments to."""
    (sub,) = (a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _parse(args: list[str]) -> argparse.Namespace:
    """`_parser().parse_args(args)`, in one pass where args[0] names a verb.

    The full parser would hand args[1:] to that verb's parser.  It runs only
    on a request that starts with no verb or leaves arguments unrecognised,
    so help, usage and error texts stay its own.
    """
    verb_parser = _verb_parsers().get(args[0]) if args else None
    if verb_parser is not None:
        ns, unrecognised = verb_parser.parse_known_args(args[1:])
        if not unrecognised:
            ns.verb = args[0]
            return ns
    return _parser().parse_args(args)


def _run_eval(ns, out) -> int:
    if ns.x is not None:
        text = _fmt(FN_CATALOG[ns.fn](ns, ns.x)) + "\n"
    else:
        xs = _grid(ns.x_min, ns.x_max, ns.points)
        text = "x,value\n" + _rows(xs, FN_CATALOG[ns.fn](ns, xs))
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text)
    else:
        out.write(text)
    return 0


# json.dumps builds a new encoder on every call with non-default options; these
# write the same text.  `verify` JSON is strict: a nan or inf raises.
_SOLVE_JSON = json.JSONEncoder(sort_keys=True)
_VERIFY_JSON = json.JSONEncoder(sort_keys=True, allow_nan=False)


def _run_solve(ns, out) -> int:
    out.write(_SOLVE_JSON.encode(_SOLVERS[ns.kind](ns.a)) + "\n")
    return 0


def _run_verify(ns, out) -> int:
    overrides = {"seed": ns.seed, "tol": ns.tol, "grid_points": ns.points}
    plan = replace(SamplePlan(), **{k: v for k, v in overrides.items() if v is not None})
    reports = run_claims(ns.claim, plan=plan, a=ns.a, c=ns.c)
    dicts = [r.to_dict() for r in reports]
    if ns.out:
        with open(ns.out, "w") as fh:
            json.dump(dicts, fh, sort_keys=True, indent=2, allow_nan=False)
    if ns.format == "json":
        out.write(_VERIFY_JSON.encode(dicts) + "\n")
    elif ns.format == "csv":
        out.write("claim_id,verdict,min_margin\n")
        for r in reports:
            mm = "" if math.isinf(r.min_margin) else _fmt(r.min_margin)
            out.write(f"{r.claim_id},{r.verdict.value},{mm}\n")
    else:
        width = max(len(r.claim_id) for r in reports)
        out.write(f"{'claim':<{width}}  verdict       min_margin\n")
        for r in reports:
            mm = "-" if math.isinf(r.min_margin) else _fmt(r.min_margin)
            out.write(f"{r.claim_id:<{width}}  {r.verdict.value:<12}  {mm}\n")
        n_cert = sum(r.verdict is Verdict.CERTIFIED for r in reports)
        out.write(f"{n_cert}/{len(reports)} certified\n")
    return 0 if all(r.verdict is Verdict.CERTIFIED for r in reports) else 1


def _run_sweep(ns, out) -> int:
    xs = _grid(ns.x_min, ns.x_max, ns.points).tolist()
    grid_a = _grid(ns.a_min, ns.a_max, ns.a_points).tolist()
    with open(ns.out, "w") as fh:
        fh.write("a,x,value\n")
        for a in grid_a:
            ns.a = a
            for x in xs:
                try:
                    v = FN_CATALOG[ns.fn](ns, x)
                except (DomainError, ArithmeticError):
                    continue  # outside this slice's domain; skip the row
                fh.write(f"{_fmt(a)},{_fmt(x)},{_fmt(v)}\n")
    return 0


def _run_constants(ns, out) -> int:
    lower, upper = C0_BRACKET
    out.write(f"euler_gamma,{_fmt(EULER_GAMMA)}\n")
    out.write(f"pi,{_fmt(PI)}\n")
    out.write(f"zeta3,{_fmt(ZETA3)}\n")
    out.write(f"c0_bracket_lower,{_fmt(lower)}\n")
    out.write(f"c0_bracket_upper,{_fmt(upper)}\n")
    return 0


def _run_list_claims(ns, out) -> int:
    out.write("".join(cid + "\n" for cid in claim_ids()))
    return 0


_VERBS = {"eval": _run_eval, "solve": _run_solve, "verify": _run_verify, "sweep": _run_sweep,
          "constants": _run_constants, "list-claims": _run_list_claims}


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        ns = _parse(sys.argv[1:] if argv is None else argv)
        if getattr(ns, "fn", None) in _TAKES_N and ns.n is None:
            parser.error(f"--fn {ns.fn} requires --n (derivative/series order)")
        if ns.verb == "eval" and ns.x is None and (ns.x_min is None or ns.x_max is None):
            parser.error("eval requires either --x or both --x-min and --x-max")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _VERBS[ns.verb](ns, sys.stdout)
    except (ValueError, ArithmeticError, KeyError, critical.BracketError, OSError) as exc:
        # ValueError includes DomainError, PreconditionError and bad plans,
        # ArithmeticError an unconverged solve, KeyError an unknown claim.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
