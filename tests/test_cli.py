"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gammapower
from gammapower import certify, critical, specfun
from gammapower.certify import claim_ids
from gammapower.cli import FN_CATALOG, main
from gammapower.specfun import EULER_GAMMA, digamma


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_quiet(*argv):
    """main(argv) with stdout and stderr captured, for hypothesis tests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def fresh(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with `args`, importing gammapower from this checkout."""
    src = str(Path(gammapower.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60)


class TestEval:
    def test_psi_at_1(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "psi", "--x", "1")
        assert code == 0
        assert float(out) == pytest.approx(-EULER_GAMMA, abs=1e-12)

    def test_g1_continuation(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "g1", "--a", "2", "--x", "0")
        assert code == 0
        assert float(out) == pytest.approx(math.exp(EULER_GAMMA - 1.0), rel=1e-12)

    def test_h2_passthrough(self, capsys):
        from gammapower.families import h2

        code, out, _ = run(capsys, "eval", "--fn", "h2", "--a", "1.5", "--x", "1")
        assert code == 0
        assert float(out) == h2(1.5, 1.0)

    def test_range_csv_roundtrip(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "psi", "--x-min", "1",
                           "--x-max", "2", "--points", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 6
        for line in lines[1:]:
            x, v = (float(t) for t in line.split(","))
            assert v == digamma(x)  # 17g format round-trips exactly

    def test_range_rows_match_fmt(self, capsys):
        # the range's one-format rows write each number as _fmt does
        from gammapower.cli import _fmt, _grid, _rows

        vs = [5e-324, 0.1, 1.0 / 3.0, -2.5, 1e308]
        xs = vs[::-1]
        assert _rows(xs, vs) == "".join(f"{_fmt(x)},{_fmt(v)}\n" for x, v in zip(xs, vs))
        for lo, hi, n in ((5e-324, 1e-320, 7), (-1e308, -1e-300, 5), (-3.5, 1e308, 4),
                          (0.25, 0.25, 1)):
            xs = _grid(lo, hi, n)
            vs = -xs[::-1]
            assert _rows(xs, vs) == "".join(f"{_fmt(x)},{_fmt(v)}\n" for x, v in zip(xs, vs))
        code, out, _ = run(capsys, "eval", "--fn", "psi", "--x-min=0.5", "--x-max=9", "--points=1")
        assert (code, out) == (0, f"x,value\n0.5,{_fmt(digamma(0.5))}\n")

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "--fn", "psi", "--x", "-1")
        assert code == 2
        assert "error" in err
        for fn, x in (("gamma_log", "inf"), ("gamma_log", "nan"), ("gamma_log", "1.7e308"),
                      ("psi", "5e-324")):
            code, out, err = run(capsys, "eval", "--fn", fn, "--x", x)
            assert (code, out) == (2, ""), (fn, x)
            assert "error" in err

    @pytest.mark.parametrize("argv", [
        ("--fn", "h4", "--a=1e300", "--x=1e-300"),
        ("--fn", "log_g1_deriv", "--n", "1", "--a=1e300", "--x=1e-300"),
        ("--fn", "h21", "--a=inf", "--x=1e300"),
        ("--fn", "h4", "--a=1e300", "--x=1e300"),
        ("--fn", "polygamma", "--n", "171", "--x", "2"),
    ], ids=["h4 zero division", "log_g1_deriv zero division", "h21 inf", "h4 nan",
            "polygamma order 171"])
    def test_arithmetic_or_nonfinite_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "eval", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    # h3's array call raises in math.lgamma, g2's returns inf; either way the
    # range names its first failing x as the float path does there
    @pytest.mark.parametrize("opts, first_bad", [
        (("--fn", "h3", "--a", "1", "--x-min", "1", "--x-max", "1e308"), "5e+307"),
        (("--fn", "g2", "--a", "1", "--c", "500", "--x-min", "0.001", "--x-max", "1"), "0.001"),
    ], ids=["h3 math range error", "g2 overflow"])
    def test_range_error_names_first_failing_x(self, capsys, opts, first_bad):
        code, out, err = run(capsys, "eval", *opts, "--points", "3")
        assert (code, out) == (2, "")
        assert err == f"error: {opts[1]} is not finite at x={first_bad}: inf\n"
        assert run(capsys, "eval", *opts[:-4], "--x", first_bad) == (2, "", err)

    # a special function past the double range names itself and an x that
    # overflows, at a point and over a range alike
    @pytest.mark.parametrize("opts, call", [
        (("--fn", "polygamma", "--n", "3", "--x", "1e-300"), "psi^(3)(1e-300)"),
        (("--fn", "polygamma", "--n", "3", "--x-min", "1e-300", "--x-max", "1", "--points", "3"),
         "psi^(3)(1e-300)"),
        (("--fn", "gamma_log", "--x", "1e308"), "log Gamma(1e+308)"),
    ], ids=["polygamma point", "polygamma range", "gamma_log point"])
    def test_special_function_overflow_names_call(self, capsys, opts, call):
        assert run(capsys, "eval", *opts) == (2, "", f"error: {call} exceeds the double range\n")

    def test_overflow_sign_is_the_same_at_a_point_and_over_a_range(self, capsys):
        opts = ("--fn", "log_g1_deriv", "--a", "0.5", "--n", "170")
        want = (2, "", "error: log_g1_deriv is not finite at x=0.002: -inf\n")
        assert run(capsys, "eval", *opts, "--x", "0.002") == want
        assert run(capsys, "eval", *opts, "--x-min", "0.002", "--x-max", "1", "--points", "3") == want

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "eval", "--fn", "psi", "--x", "1",
                             "--out", str(tmp_path / "missing" / "f"))
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("fn", ["f", "g"])
    def test_sign_minus_is_reciprocal(self, capsys, fn):
        args = ("eval", "--fn", fn, "--a", "1.5", "--c", "0.5", "--x", "2.5")
        _, plus, _ = run(capsys, *args)
        code, minus, _ = run(capsys, *args, "--sign", "minus")
        assert code == 0
        assert float(minus) == pytest.approx(1.0 / float(plus), rel=1e-15)

    def test_polygamma_needs_n(self, capsys):
        code, _, err = run(capsys, "eval", "--fn", "polygamma", "--x", "1")
        assert code == 2
        assert "--n" in err

    @pytest.mark.parametrize("bounds", [("--x-min=nan", "--x-max=2"), ("--x-min=1", "--x-max=inf"),
                                        ("--x-min=-1e308", "--x-max=1e308"),
                                        ("--x-min=abc", "--x-max=2")])
    def test_nonfinite_or_overflowing_range_exit_2(self, capsys, bounds):
        code, out, err = run(capsys, "eval", "--fn", "psi", *bounds)
        assert (code, out) == (2, "")
        assert "finite" in err or "too wide" in err

    # a = 1.5 puts delta_n's tail form at x <= 0.375: its two extra ranges
    # take no tail row and only tail rows
    @pytest.mark.parametrize("fn, lo, hi", [(fn, 0.1, 4.0) for fn in sorted(FN_CATALOG)]
                             + [("delta_n", 0.5, 4.0), ("delta_n", 0.01, 0.3)])
    def test_range_is_one_call_matching_points(self, capsys, monkeypatch, fn, lo, hi):
        calls, inner = [], FN_CATALOG[fn]
        monkeypatch.setitem(FN_CATALOG, fn, lambda ns, x: calls.append(x) or inner(ns, x))
        opts = ("--fn", fn, "--a", "1.5", "--c", "0.5", "--n", "3", "--sign", "minus")
        code, out, _ = run(capsys, "eval", *opts, f"--x-min={lo}", f"--x-max={hi}",
                           "--points", "25")
        assert (code, len(calls)) == (0, 1)
        rows = out.splitlines()[1:]
        assert len(rows) == 25
        for row in rows:
            x, v = row.split(",")
            code, point, _ = run(capsys, "eval", *opts, "--x", x)
            assert code == 0
            want = float(point)
            assert abs(float(v) - want) <= 1e-14 * max(1.0, abs(want)), x

    def test_negative_points_exit_2(self, capsys):
        code, out, err = run(capsys, "eval", "--fn", "psi", "--x-min", "1", "--x-max", "2",
                             "--points", "-3")
        assert code == 2
        assert out == ""
        assert "--points" in err

    def test_range_out_file(self, capsys, tmp_path):
        # --out takes the CSV that stdout would get, and stdout stays empty
        dest = tmp_path / "psi.csv"
        args = ("eval", "--fn", "psi", "--x-min", "1", "--x-max", "2", "--points", "3")
        code, out, _ = run(capsys, *args, "--out", str(dest))
        assert (code, out) == (0, "")
        assert dest.read_text() == run(capsys, *args)[1]
        assert len(dest.read_text().splitlines()) == 4

    def test_range_needs_both_bounds(self, capsys):
        code, out, err = run(capsys, "eval", "--fn", "psi", "--x-min", "1")
        assert (code, out) == (2, "")
        assert "eval requires either --x or both --x-min and --x-max" in err


class TestSolve:
    def test_x3_json(self, capsys):
        code, out, _ = run(capsys, "solve", "--kind", "x3", "--a", "1.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "x3"
        assert payload["residual"] <= 1e-10

    def test_json_carries_counts(self, capsys):
        for kind, a, points in (("x3", "1.5", [critical.find_x3(1.5)]),
                                ("x1x2", "0.5", critical.find_x1_x2(0.5))):
            code, out, _ = run(capsys, "solve", "--kind", kind, "--a", a)
            payload = json.loads(out)
            got = [payload] if kind == "x3" else [payload["x1"], payload["x2"]]
            assert code == 0
            assert [(d["iterations"], d["f_evals"]) for d in got] == [
                (p.iterations, p.f_evals) for p in points]

    def test_threshold_g3_exact(self, capsys):
        code, out, _ = run(capsys, "solve", "--kind", "threshold-g3", "--a", "2")
        assert code == 0
        assert json.loads(out)["value"] == math.pi**2 / 6.0 - 1.0

    def test_precondition_exit_2(self, capsys):
        code, _, err = run(capsys, "solve", "--kind", "x3", "--a", "2.5")
        assert code == 2
        assert "1 < a < 2" in err

    def test_unconverged_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(critical, "_MAX_ITER", 2)  # Brent stops short of the root
        code, out, err = run(capsys, "solve", "--kind", "x3", "--a", "1.5")
        assert (code, out) == (2, "")
        assert "residual" in err

    def test_bracket_error_exit_2(self, capsys):
        code, out, err = run(capsys, "solve", "--kind", "x3", "--a=1.000000000001")
        assert (code, out) == (2, "")
        assert "kept sign +1 up to the last probe t=" in err

    def test_main_module_exit_2_without_traceback(self):
        proc = fresh("-m", "gammapower.cli", "solve", "--kind", "x3", "--a=1.000000000001")
        assert proc.returncode == 2
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr

    def test_x1x2_at_huge_a(self, capsys):
        # -a + 1e-6 rounds onto -a here; x1's bracket starts at its first rung right of -a
        code, out, err = run(capsys, "solve", "--kind", "x1x2", "--a=3e10")
        assert (code, err) == (0, "")
        assert -3e10 < json.loads(out)["x1"]["bracket"][0]

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "solve", "--kind", "x1x2", "--a", "0.5")
        _, out2, _ = run(capsys, "solve", "--kind", "x1x2", "--a", "0.5")
        assert out1 == out2


class TestVerify:
    def test_constants_claim(self, capsys):
        code, out, _ = run(capsys, "verify", "--claim", "constants")
        assert code == 0
        assert "certified" in out

    def test_violation_exit_1(self, capsys):
        code, out, _ = run(capsys, "verify", "--claim", "thm1.2.lcm", "--a", "2.5",
                           "--points", "64")
        assert code == 1
        assert "violated" in out

    def test_huge_a_prints_no_numpy_warning(self):
        # at a = 1e300 the far pairs of ineq3 overflow inside numpy; the claim
        # is still certified, and nothing reaches stderr
        proc = fresh("-m", "gammapower.cli", "verify", "--claim", "ineq3", "--a=1e300")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "1/1 certified" in proc.stdout

    def test_unknown_claim_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--claim", "bogus")
        assert code == 2
        assert "unknown claim" in err

    def test_json_format_and_out_file(self, capsys, tmp_path):
        dest = tmp_path / "reports.json"
        code, out, _ = run(capsys, "verify", "--claim", "constants",
                           "--format", "json", "--out", str(dest))
        assert code == 0
        inline = json.loads(out)
        on_disk = json.loads(dest.read_text())
        assert inline == on_disk
        assert inline[0]["verdict"] == "certified"

    # all certified, a violation, and an inconclusive report with no margin
    @pytest.mark.parametrize("argv, want_code", [(["all"], 0), (["thm1.2.lcm", "--a", "2.5"], 1),
                                                 (["thm1.2.lcm", "--a", "1e300"], 1)])
    def test_csv_format_matches_json(self, capsys, argv, want_code):
        # one row claim_id,verdict,min_margin per report under a header, no
        # summary line; the margin round-trips, and is empty where JSON has null
        code, out, err = run(capsys, "verify", "--claim", *argv, "--format", "csv")
        assert (code, err) == (want_code, "")
        code, text, _ = run(capsys, "verify", "--claim", *argv, "--format", "json")
        assert code == want_code
        want = [(d["claim_id"], d["verdict"], d["min_margin"]) for d in json.loads(text)]
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["claim_id", "verdict", "min_margin"]
        assert [(i, v, None if m == "" else float(m)) for i, v, m in rows] == want

    def test_json_is_strict(self, capsys, tmp_path):
        # no NaN or Infinity token: a parameter a report does not have is
        # null, so a strict parser (JavaScript's JSON.parse) reads the output
        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        dest = tmp_path / "reports.json"
        code, out, _ = run(capsys, "verify", "--claim", "all", "--format", "json",
                           "--out", str(dest))
        assert code == 0
        for text in (out, dest.read_text()):
            reports = json.loads(text, parse_constant=refuse)
            assert len(reports) == 52
            (constants,) = [r for r in reports if r["claim_id"] == "constants.c0-bracket"]
            assert constants["params"]["a"] is None

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", "--claim", "constants",
                             "--out", str(tmp_path / "missing" / "f"))
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_bad_tol_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--claim", "constants", "--tol", "-1")
        assert code == 2
        assert "tol" in err

    @pytest.mark.parametrize("flag, value", [("--tol", "nan"), ("--tol", "inf"),
                                             ("--seed", "-1"), ("--points", "0")])
    def test_bad_plan_exit_2(self, capsys, flag, value):
        code, out, err = run(capsys, "verify", "--claim", "thm1.2.lcm", "--a", "2.5",
                             f"{flag}={value}")
        assert (code, out) == (2, "")
        assert flag.lstrip("-") in err

    def test_override_not_taken_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--claim", "thm1.2.lcm", "--a", "2.5", "--c", "1")
        assert code == 2
        assert "override" in err
        for value in ("nan", "inf", "-inf"):
            code, _, err = run(capsys, "verify", "--claim", "thm2.3.geoconvex", f"--a={value}")
            assert code == 2, value
            assert "finite" in err

    def test_seed_override_deterministic(self, capsys):
        args = ["verify", "--claim", "ineq1", "--a", "1.5", "--seed", "7",
                "--points", "64", "--format", "json"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_warm_samples_match_a_fresh_process(self, capsys):
        # samples built once per process: runs that read them from a warm memo
        # print the bytes of a process that builds every one
        args = ["verify", "--claim", "all", "--format", "json", "--seed", "7"]
        run(capsys, *args)
        misses = certify._build_samples.cache_info().misses
        columns = specfun._table.cache_info().misses
        warm = [run(capsys, *args) for _ in range(2)]
        assert certify._build_samples.cache_info().misses == misses
        # nor does the warm run compute a column of specfun's table again
        assert specfun._table.cache_info().misses == columns
        proc = fresh("-m", "gammapower.cli", *args)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert warm == [(proc.returncode, proc.stdout, proc.stderr)] * 2

    def test_column_table_is_used_only_inside_a_check(self, capsys):
        # certify._check opens specfun's column table around one claim's
        # evaluation and closes it after: eval ranges of every catalog entry and
        # solves of every kind, run after a check, neither read nor fill it
        assert run(capsys, "verify", "--claim", "ineq2")[0] == 0
        specfun._table.cache_clear()
        for fn in sorted(FN_CATALOG):
            for a in ("1", "1.5"):
                code, _, err = run(capsys, "eval", "--fn", fn, "--a", a, "--c", "0.5", "--n", "3",
                                   "--x-min", "0.01", "--x-max", "4", "--points", "25")
                assert code == 0, err
        for kind, a in (("x0", "-0.5"), ("x1x2", "0.5"), ("x3", "1.5"), ("x4", "1.5"),
                        ("t4tilde", "1.5"), ("threshold-g2", "1.5"), ("threshold-g3", "1.5")):
            assert run(capsys, "solve", "--kind", kind, "--a", a)[0] == 0
        assert specfun._table.cache_info()[:2] == (0, 0)  # hits, misses


class TestSweepAndConstants:
    def test_sweep_csv(self, capsys, tmp_path):
        dest = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--fn", "h2", "--a-min", "1", "--a-max", "2",
                         "--a-points", "3", "--x-min", "0.5", "--x-max", "5",
                         "--points", "4", "--out", str(dest))
        assert code == 0
        lines = dest.read_text().strip().splitlines()
        assert lines[0] == "a,x,value"
        assert len(lines) == 1 + 3 * 4

    def test_sweep_skips_out_of_domain(self, capsys, tmp_path):
        dest = tmp_path / "sweep.csv"
        # g1 at x=0 is only defined for a in {1,2}: the a=1.5 row is skipped
        code, _, _ = run(capsys, "sweep", "--fn", "g1", "--a-min", "1.5",
                         "--a-max", "1.5", "--a-points", "1", "--x-min", "0",
                         "--x-max", "1", "--points", "2", "--out", str(dest))
        assert code == 0
        lines = dest.read_text().strip().splitlines()
        assert len(lines) == 2  # header + x=1 row only

    def test_sweep_skips_nonfinite(self, capsys, tmp_path):
        dest = tmp_path / "sweep.csv"
        # h4 is nan at a = x = 1e300 and finite at a = x = 1
        code, _, _ = run(capsys, "sweep", "--fn", "h4", "--a-min", "1", "--a-max", "1e300",
                         "--a-points", "2", "--x-min", "1", "--x-max", "1e300",
                         "--points", "2", "--out", str(dest))
        assert code == 0
        rows = [tuple(map(float, line.split(",")))
                for line in dest.read_text().strip().splitlines()[1:]]
        assert rows and all(math.isfinite(v) for _, _, v in rows)
        assert (1e300, 1e300) not in [(a, x) for a, x, _ in rows]

    def test_sweep_out_is_directory_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--fn", "h2", "--a-min", "1", "--a-max", "2",
                           "--x-min", "0.5", "--x-max", "5", "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("error:")
        assert tmp_path.is_dir()

    @pytest.mark.parametrize("flag", ["--a-min", "--a-max", "--x-min", "--x-max"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_sweep_nonfinite_bound_exit_2(self, capsys, tmp_path, flag, value):
        dest = tmp_path / "sweep.csv"
        bounds = {"--a-min": "1", "--a-max": "2", "--x-min": "1", "--x-max": "2", flag: value}
        code, _, err = run(capsys, "sweep", "--fn", "psi", "--a-points", "2", "--points", "2",
                           "--out", str(dest), *[f"{k}={v}" for k, v in bounds.items()])
        assert code == 2
        assert f"argument {flag}: must be a finite number" in err
        assert not dest.exists()

    def test_grid_too_wide_exit_2(self, capsys, tmp_path):
        dest = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "sweep", "--fn", "psi", "--a-min=-1e308", "--a-max=1e308",
                           "--x-min", "1", "--x-max", "2", "--out", str(dest))
        assert code == 2
        assert err.startswith("error:") and "too wide" in err
        assert not dest.exists()

    def test_sweep_needs_n(self, capsys, tmp_path):
        dest = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "sweep", "--fn", "delta_n", "--a-min", "1", "--a-max", "2",
                           "--x-min", "0.5", "--x-max", "5", "--out", str(dest))
        assert code == 2
        assert "--n" in err
        assert not dest.exists()

    def test_sweep_negative_points_exit_2(self, capsys, tmp_path):
        dest = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "sweep", "--fn", "h2", "--a-min", "1", "--a-max", "2",
                           "--x-min", "0.5", "--x-max", "5", "--points", "-3", "--out", str(dest))
        assert code == 2
        assert "--points" in err
        assert not dest.exists()

    def test_constants_output(self, capsys):
        code, out, _ = run(capsys, "constants")
        assert code == 0
        rows = dict(line.split(",") for line in out.strip().splitlines())
        assert float(rows["c0_bracket_lower"]) == pytest.approx(0.77797, abs=1e-5)
        assert float(rows["c0_bracket_upper"]) == pytest.approx(0.79837, abs=1e-5)

    def test_list_claims(self, capsys):
        code, out, _ = run(capsys, "list-claims")
        assert code == 0
        assert "thm1.2.lcm" in out.split()


def _well_formed(verb: str, draw) -> list[str]:
    """A request shaped like the benchmark's: numbers in --flag=value form."""
    num = st.floats(-4.0, 4.0, allow_subnormal=False)
    if verb == "solve":
        kind = draw(st.sampled_from(["x0", "x1x2", "x3", "x4", "t4tilde", "threshold-g2",
                                     "threshold-g3"]))
        return ["solve", "--kind", kind, f"--a={draw(num)!r}"]
    if verb in ("eval", "sweep"):
        fn = draw(st.sampled_from(sorted(FN_CATALOG)))
        argv = [verb, "--fn", fn, f"--a={draw(num)!r}", f"--c={draw(num)!r}",
                f"--n={draw(st.integers(1, 6))}", f"--sign={draw(st.sampled_from(['plus', 'minus']))}"]
        lo = draw(st.floats(0.01, 5.0))
        bounds = [f"--x-min={lo!r}", f"--x-max={lo + draw(st.floats(0.0, 50.0))!r}",
                  f"--points={draw(st.integers(1, 9))}"]
        if verb == "sweep":
            return argv[:3] + argv[4:] + bounds + ["--a-min=1.0", "--a-max=2.0", "--a-points=2"]
        return argv + (bounds if draw(st.booleans()) else [f"--x={draw(num)!r}"])
    if verb == "verify":
        return ["verify", "--claim", draw(st.sampled_from(["constants", "ineq1", "thm2.1.onlyif"])),
                "--format", draw(st.sampled_from(["json", "csv"])),
                f"--seed={draw(st.sampled_from([1, 7, 42, 123456]))}"]
    return [verb]


@st.composite
def _requests(draw):
    """A well-formed request of any verb, or one a single change makes malformed."""
    argv = _well_formed(draw(st.sampled_from(["eval", "solve", "verify", "sweep", "constants",
                                              "list-claims"])), draw)
    change = draw(st.sampled_from(["none", "unknown option", "stray positional", "drop one",
                                   "bad float", "abbreviation", "-h", "option first",
                                   "unknown verb", "empty"]))
    where = draw(st.integers(1, len(argv)))
    if change == "unknown option":
        argv.insert(where, draw(st.sampled_from(["--bogus", "--bogus=1", "-z"])))
    elif change == "stray positional":
        argv.insert(where, "stray")
    elif change == "drop one" and len(argv) > 1:
        del argv[where % (len(argv) - 1) + 1]  # an option or its value, not the verb
    elif change == "bad float":
        argv = [t.split("=")[0] + "=abc" if t.startswith(("--a=", "--x", "--c=")) else t
                for t in argv]
    elif change == "abbreviation":
        argv = [t.replace("--points", "--poi").replace("--kind", "--ki").replace("--claim", "--cl")
                for t in argv]
    elif change == "-h":
        argv.insert(where, "-h")
    elif change == "option first":
        argv.insert(0, draw(st.sampled_from(["--a=1", "--points=3", "--help"])))
    elif change == "unknown verb":
        argv[0] = "frobnicate"
    elif change == "empty":
        argv = []
    return argv


class TestArgparseBehavior:
    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0

    def test_usage_error_exit_2(self, capsys):
        assert main(["eval"]) == 2  # missing --fn
        assert main(["frobnicate"]) == 2

    def test_one_parser_per_process(self):
        from gammapower import cli

        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()
        # one sub-parser per verb, built with the full parser
        verbs = cli._verb_parsers()
        assert cli._verb_parsers() is verbs
        assert [(v, p.prog) for v, p in verbs.items()] == [(v, f"gammapower {v}") for v in cli._VERBS]

    def test_verify_help_names_the_list_claims_verb(self, capsys):
        from gammapower import cli

        code, out, _ = run(capsys, "verify", "--help")
        assert code == 0 and "list-claims command" in out
        parsers = [cli._parser(), *cli._verb_parsers().values()]
        assert [p.prog for p in parsers if "--list-claims" in p._option_string_actions] == []
        # and no help text names an option its parser does not define
        assert [(p.prog, flag) for p in parsers for flag in re.findall(r"--[\w-]+", p.format_help())
                if flag not in p._option_string_actions] == []

    @given(argv=_requests())
    @settings(max_examples=150, deadline=None)
    def test_verb_parser_matches_the_full_parser(self, tmp_path_factory, argv):
        # exit code, stdout, stderr and any sweep CSV are those of the full
        # parser's pass, which main takes with no verb parser to hand
        from gammapower import cli

        dest = tmp_path_factory.getbasetemp() / "equivalence.csv"
        argv = argv + ["--out", str(dest)] if argv[:1] == ["sweep"] else argv

        def result():
            dest.unlink(missing_ok=True)
            code, out, err = run_quiet(*argv)
            return code, out, err, dest.read_text() if dest.exists() else None

        once = result()
        with mock.patch.object(cli, "_verb_parsers", dict):
            assert result() == once

    @pytest.mark.parametrize("argv, code, full_parses", [
        (["solve", "--kind", "x3", "--a=1.5"], 0, 0),
        (["eval", "--fn", "h2", "--a=1.5", "--x-min=1", "--x-max=2", "--points=3"], 0, 0),
        (["verify", "--claim", "constants", "--format", "json", "--seed", "7"], 0, 0),
        (["list-claims"], 0, 0),
        (["solve", "--kind", "x3", "--a=1.5", "--bogus"], 2, 1),
        (["eval", "--fn", "h2", "--x=1", "stray"], 2, 1),
        (["--help"], 0, 1),
    ])
    def test_well_formed_requests_skip_the_full_parser(self, monkeypatch, argv, code, full_parses):
        from gammapower import cli

        parser, calls = cli._parser(), []
        full = parser.parse_args
        monkeypatch.setattr(parser, "parse_args", lambda args: calls.append(args) or full(args))
        assert (run_quiet(*argv)[0], len(calls)) == (code, full_parses)

    def test_reused_parser_matches_fresh_processes(self, monkeypatch):
        # different verbs, a usage error (exit 2) between successful calls, --help
        argvs = [["solve", "--kind", "x3", "--a", "1.5"],
                 ["eval", "--fn", "polygamma", "--x", "1"],
                 ["eval", "--fn", "psi", "--x", "1"],
                 ["verify", "--claim", "constants"],
                 ["--help"],
                 ["eval", "--fn", "h2", "--a", "1.5", "--x-min", "1", "--x-max", "2",
                  "--points", "3"]]
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the same width
        in_process = [run_quiet(*argv)[:2] for argv in argvs]
        procs = [fresh("-m", "gammapower.cli", *argv) for argv in argvs]
        assert [code for code, _ in in_process] == [0, 2, 0, 0, 0, 0]
        assert in_process == [(p.returncode, p.stdout) for p in procs]


# A fresh interpreter that runs each argv of argv[1] (JSON) through main and
# prints, per argv, its exit code, its stdout and whether numpy was loaded.
_VERBS_SCRIPT = """
import contextlib, io, json, sys
import gammapower
from gammapower.cli import main
rows = [["import gammapower", 0, "", "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    rows.append([argv, code, out.getvalue(), "numpy" in sys.modules])
print(json.dumps(rows))
"""

# Four threads whose first call is each a numpy-using claim, released together
# in a fresh interpreter, so that all of them race to load numpy.
_THREADS_SCRIPT = """
import json, sys, threading
from gammapower.certify import run_claims
assert "numpy._core" not in sys.modules  # numpy has not run yet
sys.setswitchinterval(1e-6)
claims = ["constants", "ineq1", "thm1.1.mono", "constants"]
start, results = threading.Barrier(len(claims)), {}
def work(i):
    start.wait()
    try:
        results[i] = [r.verdict.value for r in run_claims(claims[i])]
    except Exception as exc:
        results[i] = repr(exc)
threads = [threading.Thread(target=work, args=(i,)) for i in range(len(claims))]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=50)
print(json.dumps([results.get(i, "unfinished") for i in range(len(claims))]))
"""


class TestLazyNumpy:
    """numpy loads on the first array use: scalar verbs run without it."""

    def test_scalar_verbs_leave_numpy_unloaded(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the same width
        scalar = [["solve", "--kind", k, "--a", a] for k, a in (
            ("x0", "-0.5"), ("x1x2", "0.5"), ("x3", "1.5"), ("x4", "1.5"), ("t4tilde", "1.5"),
            ("threshold-g2", "1.5"), ("threshold-g3", "1.5"))]
        scalar += [["eval", "--fn", fn, "--a", a, "--c", "0.5", "--n", "3", "--x", x]
                   for fn in sorted(FN_CATALOG) for a, x in (("1.5", "0.7"), ("1", "0.01"))]
        scalar += [["constants"], ["list-claims"], ["--help"]]
        loading = [["verify", "--claim", "all", "--format", "json"],
                   ["eval", "--fn", "h21", "--a", "0.5", "--x-min", "1", "--x-max", "700",
                    "--points", "50"]]
        proc = fresh("-c", _VERBS_SCRIPT, json.dumps(scalar + loading))
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(proc.stdout)
        assert [loaded for *_, loaded in rows] == [False] * (1 + len(scalar)) + [True, True]
        for argv, code, out, _ in rows[1:]:
            assert (code, out) == run_quiet(*argv)[:2], argv

    def test_threads_racing_to_load_numpy_all_succeed(self):
        for _ in range(4):
            proc = fresh("-c", _THREADS_SCRIPT)
            assert proc.returncode == 0, proc.stderr
            results = json.loads(proc.stdout)
            assert all(type(r) is list and set(r) == {"certified"} for r in results), results


# Any float, weighted towards the edges: nan, +-inf, subnormals, +-1e300, 0.
_ANY_FLOAT = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 0.0, 1.0, 2.0]))


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


class TestExitCodeProperty:
    """main returns 0, 1 or 2 and never raises; on 0 every printed number is finite."""

    @pytest.mark.parametrize("fn", sorted(FN_CATALOG))
    @given(x=_ANY_FLOAT, a=_ANY_FLOAT, c=_ANY_FLOAT, n=st.integers(1, 8),
           sign=st.sampled_from(["plus", "minus"]))
    @settings(max_examples=30, deadline=None)
    def test_eval(self, fn, x, a, c, n, sign):
        code, out, _ = run_quiet("eval", "--fn", fn, f"--x={x!r}", f"--a={a!r}", f"--c={c!r}",
                                 f"--n={n}", f"--sign={sign}")
        assert code in (0, 2)
        if code == 0:
            assert math.isfinite(float(out))

    @pytest.mark.parametrize("fn", sorted(FN_CATALOG))
    @given(lo=_ANY_FLOAT, hi=_ANY_FLOAT, a=_ANY_FLOAT, c=_ANY_FLOAT, n=st.integers(1, 8),
           sign=st.sampled_from(["plus", "minus"]))
    @settings(max_examples=30, deadline=None)
    def test_eval_range(self, fn, lo, hi, a, c, n, sign):
        code, out, _ = run_quiet("eval", "--fn", fn, f"--x-min={lo!r}", f"--x-max={hi!r}",
                                 "--points=16", f"--a={a!r}", f"--c={c!r}", f"--n={n}",
                                 f"--sign={sign}")
        assert code in (0, 2)
        if code == 0:
            rows = out.splitlines()[1:]
            assert len(rows) == 16
            assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))

    @pytest.mark.parametrize("kind", ["x0", "x1x2", "x3", "x4", "t4tilde",
                                      "threshold-g2", "threshold-g3"])
    @given(a=_ANY_FLOAT)
    @settings(max_examples=30, deadline=None)
    def test_solve(self, kind, a):
        code, out, _ = run_quiet("solve", "--kind", kind, f"--a={a!r}")
        assert code in (0, 2)
        if code == 0:
            assert _all_finite(json.loads(out))

    @given(claim=st.sampled_from(claim_ids()), a=st.none() | _ANY_FLOAT,
           c=st.none() | _ANY_FLOAT, tol=st.sampled_from(["1e-9", "0", "-1", "nan", "inf", "1e300",
                                                          "5e-324"]),
           seed=st.sampled_from(["0", "-1", str(2**70)]),
           points=st.sampled_from(["-1", "0", "1", "2", "16"]))
    @settings(max_examples=30, deadline=None)
    def test_verify(self, claim, a, c, tol, seed, points):
        overrides = [f"--{k}={v!r}" for k, v in (("a", a), ("c", c)) if v is not None]
        code, _, _ = run_quiet("verify", "--claim", claim, *overrides, f"--tol={tol}",
                               f"--seed={seed}", f"--points={points}")
        assert code in (0, 1, 2)

    @given(fn=st.sampled_from(sorted(FN_CATALOG)), bounds=st.lists(_ANY_FLOAT, min_size=4,
                                                                   max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_sweep(self, tmp_path_factory, fn, bounds):
        dest = tmp_path_factory.mktemp("sweep") / "sweep.csv"
        flags = ("--a-min", "--a-max", "--x-min", "--x-max")
        code, _, _ = run_quiet("sweep", "--fn", fn, "--n=2", "--a-points=2", "--points=16",
                               "--out", str(dest), *[f"{k}={v!r}" for k, v in zip(flags, bounds)])
        assert code in (0, 2)
        if code == 0:
            rows = dest.read_text().splitlines()[1:]
            assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
