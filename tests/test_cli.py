"""End-to-end tests of the command-line interface."""

import json
import math

import pytest

from gammapower.cli import main
from gammapower.specfun import EULER_GAMMA


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_polygamma_needs_n(self, capsys):
        code, _, err = run(capsys, "eval", "--fn", "polygamma", "--x", "1")
        assert code == 2
        assert "--n" in err

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

    def test_bad_tol_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--claim", "constants", "--tol", "-1")
        assert code == 2
        assert "tol" in err

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
