"""End-to-end tests of the command-line interface."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gammapower
from gammapower.certify import claim_ids
from gammapower.cli import FN_CATALOG, main
from gammapower.specfun import EULER_GAMMA


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
        from gammapower.specfun import digamma

        for line in lines[1:]:
            x, v = (float(t) for t in line.split(","))
            assert v == digamma(x)  # 17g format round-trips exactly

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
                                        ("--x-min=-1e308", "--x-max=1e308")])
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


class TestSolve:
    def test_x3_json(self, capsys):
        code, out, _ = run(capsys, "solve", "--kind", "x3", "--a", "1.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "x3"
        assert payload["residual"] <= 1e-10

    def test_threshold_g3_exact(self, capsys):
        code, out, _ = run(capsys, "solve", "--kind", "threshold-g3", "--a", "2")
        assert code == 0
        assert json.loads(out)["value"] == math.pi**2 / 6.0 - 1.0

    def test_precondition_exit_2(self, capsys):
        code, _, err = run(capsys, "solve", "--kind", "x3", "--a", "2.5")
        assert code == 2
        assert "1 < a < 2" in err

    def test_unconverged_exit_2(self, capsys):
        code, out, err = run(capsys, "solve", "--kind", "x0", "--a=-1e6")
        assert (code, out) == (2, "")
        assert "residual" in err

    def test_bracket_error_exit_2(self, capsys):
        code, out, err = run(capsys, "solve", "--kind", "x3", "--a=1.000000000001")
        assert (code, out) == (2, "")
        assert "kept sign +1 up to the last probe t=" in err

    def test_main_module_exit_2_without_traceback(self):
        src = str(Path(gammapower.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-m", "gammapower.cli", "solve", "--kind", "x0", "--a=-1e6"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr

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
        src = str(Path(gammapower.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-m", "gammapower.cli", "verify", "--claim", "ineq3", "--a=1e300"],
            capture_output=True, text=True, env=env, timeout=60)
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
        src = str(Path(gammapower.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        fresh = [subprocess.run([sys.executable, "-m", "gammapower.cli", *argv],
                                capture_output=True, text=True, env=env, timeout=60)
                 for argv in argvs]
        assert [code for code, _ in in_process] == [0, 2, 0, 0, 0, 0]
        assert in_process == [(p.returncode, p.stdout) for p in fresh]


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
