"""Tests for critical-point solving and thresholds."""

import json
import math
import pathlib
import random

import mpmath
import numpy as np
import pytest

import gammapower.critical as critical
from gammapower import cli
from gammapower.critical import (
    _MAX_ITER,
    A_STAR,
    BracketError,
    CriticalKind,
    PreconditionError,
    find_t4_tilde,
    find_x0,
    find_x1_x2,
    find_x3,
    find_x4,
    threshold_g2_increasing,
    threshold_g3_increasing,
    _brent,
)
from gammapower.families import h1, h2, h4, h21, h41, h41_prime
from gammapower.specfun import DomainError

RESIDUAL_TOL = 1e-10


def _h1_root(a, guess):
    """The root of h1(a, .) nearest `guess`, by mpmath at 50 digits."""
    with mpmath.workdps(50):
        am = mpmath.mpf(a)
        return mpmath.findroot(lambda x: -x * mpmath.digamma(x + am) + mpmath.loggamma(x + am),
                               guess)


class TestX0:
    @pytest.mark.parametrize("a", [0.0, -0.5, -1.0])
    def test_residual_and_sign_structure(self, a):
        p = find_x0(a)
        assert p.kind is CriticalKind.X0
        assert p.residual <= RESIDUAL_TOL
        # h1 positive to the left of the root, negative to the right
        assert h1(a, p.value - 0.1) > 0.0 if p.value - 0.1 > -a else True
        assert h1(a, p.value + 0.1) < 0.0

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            find_x0(0.5)

    @pytest.mark.parametrize("a", [-1000.0, -1e4])
    def test_steep_root_matches_mpmath(self, a):
        # h1' ~ -a here: the root within an ulp leaves |h1| above 1e-10
        p = find_x0(a)
        assert abs(p.value - _h1_root(a, p.value)) <= 2 * math.ulp(p.value)
        assert p.residual == abs(h1(a, p.value))  # the psi term x psi(x+a) is below 1

    @pytest.mark.parametrize("a", [-1.7e10, -1e12])
    def test_far_root_matches_mpmath(self, a):
        # -a + 1e-6 rounds onto -a here, so the ladder starts at its first rung right of -a
        p = find_x0(a)
        assert p.bracket[0] > -a
        assert abs(p.value - _h1_root(a, p.value)) <= 2 * math.ulp(p.value)

    def test_moved_root_still_raises(self, monkeypatch):
        def moved(f, lo, hi, flo, fhi):
            t, _, _, slope = _brent(f, lo, hi, flo, fhi)
            t *= 1.0 + 1e-9
            return t, f(t), 0, slope

        monkeypatch.setattr(critical, "_brent", moved)
        with pytest.raises(ArithmeticError, match="x0 residual"):
            find_x0(-1000.0)


class TestX1X2:
    @pytest.mark.parametrize("a", [0.5, 3.0, 0.99, 2.01])
    def test_ordering_and_residuals(self, a):
        p1, p2 = find_x1_x2(a)
        assert -a < p1.value < 0.0 < p2.value
        assert p1.residual <= RESIDUAL_TOL
        assert p2.residual <= RESIDUAL_TOL

    @pytest.mark.parametrize("a", [0.5, 3.0, 1e4, 8e4])
    def test_x1_matches_mpmath(self, a):
        # x2 is not held to 2 ulp: h1' ~ -1 there while h1's terms grow like a log a
        p1, _ = find_x1_x2(a)
        assert abs(p1.value - _h1_root(a, p1.value)) <= 2 * math.ulp(p1.value)

    @pytest.mark.parametrize("a", [1e7, 2.8e7, 1e9, 1.8e10, 3e10, 1e12, 1e15])
    def test_steep_x1_matches_mpmath(self, a):
        # h1' ~ a near x1 = -a + 1.46, far steeper than the secant across x1's given
        # bracket (-a + 1e-6, 0); from a = 2^34 on, -a + 1e-6 rounds onto -a, and the
        # bracket starts at its first rung right of -a.  x2 ~ a log a lies past rung 40
        # (1.1e6) at these a; its ladder goes on past 2 a log a, and h1' ~ -1 there while
        # h1's terms grow like a log a, so x2 is held to 1e-14 relative rather than to 2 ulp
        p1, p2 = find_x1_x2(a)
        assert p1.bracket[0] > -a
        assert abs(p1.value - _h1_root(a, p1.value)) <= 2 * math.ulp(p1.value)
        assert abs(p2.value / _h1_root(a, p2.value) - 1) <= 1e-14

    @pytest.mark.parametrize("a", [84680.0, 1e5, 1e6])
    def test_x2_past_rung_40_matches_mpmath(self, a):
        _, p2 = find_x1_x2(a)
        assert math.ldexp(1e-6, 40) <= p2.bracket[0] < p2.value
        assert abs(p2.value / _h1_root(a, p2.value) - 1) <= 1e-14

    def test_infinite_a_is_a_domain_error(self):
        # x2's top rung grows with a: an infinite a raises from h1, not from the rung arithmetic
        with pytest.raises(DomainError):
            find_x1_x2(math.inf)

    @pytest.mark.parametrize("a", [1.0, 1.5, 2.0])
    def test_no_roots_in_middle_band(self, a):
        with pytest.raises(PreconditionError):
            find_x1_x2(a)


class TestX3:
    @pytest.mark.parametrize("a", [1.1, 1.5, 1.9])
    def test_root_and_grid_minimum(self, a):
        p = find_x3(a)
        assert p.residual <= RESIDUAL_TOL
        assert p.value > 0.0
        # h2 attains its minimum at x3
        x3 = p.value
        grid = np.geomspace(1e-3, 50.0, 2000)
        vals = [h2(a, float(x)) for x in grid]
        assert h2(a, x3) <= min(vals) + 1e-9
        # h21 changes sign at t3 = x3 + a
        assert h21(a, x3 + a - 1e-4) < 0.0 < h21(a, x3 + a + 1e-4)

    def test_precondition(self):
        for a in (1.0, 2.0, 2.5):
            with pytest.raises(PreconditionError):
                find_x3(a)

    def test_bracket_error_says_where_it_looked(self):
        # just above a = 1, h21 stays positive on every probe of the expansion
        with pytest.raises(BracketError) as info:
            find_x3(1.0 + 1e-12)
        err = info.value
        assert err.sign == 1.0 and err.probe > 1e6
        assert h21(1.0 + 1e-12, err.probe) > 0.0
        assert f"last probe t={err.probe!r}" in str(err) and "sign +1" in str(err)


class TestX4AndT4:
    @pytest.mark.parametrize("a", [A_STAR + 1e-4, 1.31, 1.5, 1.99])
    def test_residuals_and_ordering(self, a):
        p4 = find_x4(a)
        pt = find_t4_tilde(a)
        assert p4.residual <= RESIDUAL_TOL
        assert pt.residual <= RESIDUAL_TOL
        # t4~ < t4 = x4 + a
        assert pt.value < p4.value + a

    def test_t4_sign_structure(self):
        pt = find_t4_tilde(1.31)
        assert h41_prime(1.31, pt.value - 1e-3) < 0.0 < h41_prime(1.31, pt.value + 1e-3)

    def test_h4_minimum_at_x4(self):
        a = 1.5
        x4 = find_x4(a).value
        grid = np.geomspace(1e-3, 50.0, 2000)
        assert h4(a, x4) <= min(h4(a, float(x)) for x in grid) + 1e-9

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            find_x4(2.5)
        with pytest.raises(PreconditionError):
            find_t4_tilde(1.2)


class TestThresholds:
    def test_g2_threshold_matches_grid_minimum(self):
        for a in (1.2, 1.5):
            thr = threshold_g2_increasing(a)
            grid = np.geomspace(1e-4, 200.0, 20000)
            grid_min = min(h2(a, float(x)) for x in grid)
            assert thr == pytest.approx(grid_min, abs=1e-6)

    def test_g2_threshold_separates_monotonicity(self):
        a = 1.2
        thr = threshold_g2_increasing(a)
        grid = [float(x) for x in np.geomspace(1e-2, 50.0, 500)]
        # c = thr - 0.01: h2 - c > 0 everywhere -> increasing
        assert all(h2(a, x) - (thr - 0.01) > 0.0 for x in grid)
        # c = thr + 0.01: sign change exists
        assert any(h2(a, x) - (thr + 0.01) < 0.0 for x in grid)

    def test_g3_threshold_exact_at_2(self):
        assert threshold_g3_increasing(2.0) == math.pi**2 / 6.0 - 1.0

    def test_g3_threshold_matches_grid_minimum(self):
        a = 1.5
        thr = threshold_g3_increasing(a)
        grid = np.geomspace(1e-4, 200.0, 20000)
        assert thr == pytest.approx(min(h4(a, float(x)) for x in grid), abs=1e-6)

    def test_g3_threshold_precondition(self):
        with pytest.raises(PreconditionError):
            threshold_g3_increasing(1.0)


class TestDeterminism:
    def test_bit_identical_repeats(self):
        for solver, arg in ((find_x0, -1.0), (find_x3, 1.5), (find_x4, 1.5),
                            (find_t4_tilde, 1.5)):
            first = solver(arg)
            second = solver(arg)
            assert first.value == second.value
            assert first.residual == second.residual
            assert first.bracket == second.bracket

    def test_x1x2_repeatable(self):
        a1, b1 = find_x1_x2(0.5)
        a2, b2 = find_x1_x2(0.5)
        assert (a1.value, b1.value) == (a2.value, b2.value)


class TestContinuity:
    def test_x3_varies_smoothly(self):
        values = [find_x3(a).value for a in np.linspace(1.05, 1.95, 19)]
        steps = np.abs(np.diff(values))
        assert np.all(steps < 0.25)

    def test_threshold_g3_approaches_exact_limit(self):
        # h4(x4) decreases toward pi^2/6 - 1 as a -> 2 (the approach is slow,
        # so only the ordering is asserted, not a tight tolerance)
        limit = math.pi**2 / 6.0 - 1.0
        values = [threshold_g3_increasing(a) for a in (1.9, 1.99, 1.999, 1.9999)]
        assert all(v > limit for v in values)
        assert values == sorted(values, reverse=True)
        assert values[-1] - limit < 0.02


class TestBrackets:
    # the expansion's probes, and so every reported bracket, are fixed: these
    # are the exact brackets of the bisection-secant solver Brent replaced
    @pytest.mark.parametrize("solver, a, bracket", [
        (find_x0, -1.0, (2.0485759999999997, 3.097152)),
        (find_x3, 1.5, (0.5242879999999999, 1.0485759999999997)),
        (find_x4, 1.5, (2.097152, 4.194304)),
        (find_t4_tilde, 1.5, (2.5485759999999997, 3.597152)),
    ])
    def test_pinned(self, solver, a, bracket):
        assert solver(a).bracket == bracket

    def test_pinned_x1_x2(self):
        p1, p2 = find_x1_x2(0.5)
        assert (p1.bracket, p2.bracket) == ((-0.4999995, 0.0), (0.524288, 1.048576))

    @staticmethod
    def walk(f, left):
        """First sign change of f up the rungs left + 1e-6 * 2^k right of left, k <= 40,
        taken one rung at a time; None if f keeps its sign up to rung 40."""
        rungs = [x for x in (left + math.ldexp(1e-6, k) for k in range(41)) if x > left]
        x_prev, f_prev = rungs[0], f(rungs[0])
        if f_prev == 0.0:
            return x_prev, x_prev
        for x in rungs[1:]:
            fx = f(x)
            if fx == 0.0 or (fx > 0.0) != (f_prev > 0.0):
                return x_prev, x
            x_prev, f_prev = x, fx
        return None

    @pytest.mark.parametrize("h, left, grid", [
        (h1, lambda a: -a, [0.0] + [-10.0 ** (e / 8.0) for e in range(-72, 129)]),  # x0
        (h1, lambda a: 0.0, [10.0 ** (e / 8.0) for e in range(-72, 0)]
         + [2.0 + 10.0 ** (e / 8.0) for e in range(-96, 41)]),  # x2
        (h21, lambda a: a, [1.0 + 1e-12, 1.0 + 1e-9, 2.0 - 1e-12]
         + [1.0 + k / 150.0 for k in range(1, 150)]),  # x3
        (h41, lambda a: a, [2.0 - 1e-12] + [A_STAR + (2.0 - A_STAR) * k / 150.0
                                           for k in range(150)]),  # x4
        (h41_prime, lambda a: a, [2.0 - 1e-12] + [A_STAR + (2.0 - A_STAR) * k / 150.0
                                                 for k in range(150)]),  # t4~
    ], ids=["x0", "x2", "x3", "x4", "t4tilde"])
    def test_bisection_finds_the_walks_sign_change(self, h, left, grid):
        for a in grid:
            f = lambda x: h(a, x)  # noqa: E731
            want = self.walk(f, left(a))
            try:
                got = critical._expand_bracket(f, left(a))[:2]
            except BracketError as err:
                got = None
                assert err.probe == left(a) + math.ldexp(1e-6, 40)
            assert got == want, a


class TestGoldenSolves:
    # each entry is `solve --kind <kind> --a <a>`'s JSON payload for ~20 a per
    # kind, extremes included, so a solver refactor must leave value, residual,
    # bracket, iterations and f_evals byte-identical
    GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_solves.json").read_text())

    @pytest.mark.parametrize("kind", list(cli._SOLVERS))
    def test_solves_match_golden(self, kind):
        cases = [c for c in self.GOLDEN if c["kind"] == kind]
        assert len(cases) >= 20
        for c in cases:
            assert json.loads(json.dumps(cli._SOLVERS[kind](c["a"]))) == c["solve"], c["a"]


class TestEvaluationCounts:
    @pytest.mark.parametrize("name, solver, a", [
        ("h1", find_x0, -1.0), ("h21", find_x3, 1.5), ("h41", find_x4, 1.5),
        ("h41_prime", find_t4_tilde, 1.5),
    ])
    def test_f_evals_counts_every_h_call(self, monkeypatch, name, solver, a):
        calls = []
        h = getattr(critical, name)
        monkeypatch.setattr(critical, name, lambda *args: calls.append(args) or h(*args))
        p = solver(a)
        assert p.f_evals == len(calls)
        assert 0 < p.iterations < p.f_evals

    def test_given_bracket_ends_counted(self, monkeypatch):
        calls = []
        monkeypatch.setattr(critical, "h1", lambda *args: calls.append(args) or h1(*args))
        p1, p2 = find_x1_x2(0.5)
        assert p1.f_evals == p1.iterations + 2
        assert p1.f_evals + p2.f_evals == len(calls)

    def test_at_most_24_per_root(self):
        rng = random.Random(10)
        kinds = {
            "x0": (find_x0, lambda u: -4.0 * u),
            "x1x2": (find_x1_x2, lambda u: 4.0 * u if u < 0.25 else 2.0 + 4.0 * (u - 0.25)),
            "x3": (find_x3, lambda u: 1.0 + u),
            "x4": (find_x4, lambda u: A_STAR + (2.0 - A_STAR) * u),
            "t4tilde": (find_t4_tilde, lambda u: A_STAR + (2.0 - A_STAR) * u),
        }
        for solver, a_of in kinds.values():
            for _ in range(200):
                a = a_of(rng.random())
                if a in (0.0, 1.0, 2.0):
                    continue
                got = solver(a)
                for p in got if isinstance(got, tuple) else (got,):
                    assert p.f_evals <= 24, (p.kind, a, p.f_evals)


class TestBrent:
    @staticmethod
    def run(f, lo, hi):
        calls = []
        t, ft, iterations, _ = _brent(lambda x: calls.append(x) or f(x), lo, hi, f(lo), f(hi))
        assert len(calls) == iterations <= _MAX_ITER
        assert ft == f(t)
        return t, iterations

    def test_step_without_zero_ends_within_4_ulp(self):
        step = 1.2345678901234567
        t, _ = self.run(lambda x: -1.0 if x < step else 1.0, 0.0, 1e6)
        assert abs(t - step) <= 4.0 * math.ulp(t)

    @pytest.mark.parametrize("lo, hi, root", [(1.0, 2.0, 1.0), (0.0, 1.0, 1.0)])
    def test_exact_zero_at_an_end(self, lo, hi, root):
        assert self.run(lambda x: x - 1.0, lo, hi) == (root, 0)

    def test_same_signs_raise_bracket_error(self):
        with pytest.raises(BracketError) as info:
            _brent(lambda x: x * x + 1.0, -1.0, 3.0, 2.0, 10.0)
        assert (info.value.probe, info.value.sign) == (3.0, 1.0)
        with pytest.raises(BracketError) as info:
            _brent(lambda x: -1.0, 0.0, 1.0, -1.0, -1.0)
        assert (info.value.probe, info.value.sign) == (1.0, -1.0)

    @pytest.mark.parametrize("f", [
        lambda x: (x - 1.0) ** 3,  # a triple root: interpolation only creeps
        lambda x: x - 1.0 if x > 1.0 else -1e-300,  # flat on one side
    ])
    def test_flat_f_stays_within_max_iter(self, f):
        t, _ = self.run(f, 0.0, 1e6)
        assert abs(t - 1.0) < 1e-12

    def test_simple_root_in_few_iterations(self):
        t, iterations = self.run(lambda x: math.cos(x) - x, 0.0, 1.0)
        assert abs(math.cos(t) - t) <= 2e-16 and iterations <= 8

    def test_slope_skips_the_final_bracket(self):
        # f = x - 1 on (0.5, 1.5), swamped by rounding within 4 ulp of 1 (-1e-3
        # there) and read 8 ulp low at 1.5, so that Brent's first step lands on
        # 1 + 4 ulp and its second on 1: the slope is the secant across (0.5,
        # 1 + 4 ulp), not the ~1e12 across the final bracket (1, 1 + 4 ulp)
        u = math.ulp(1.0)
        t, ft, iterations, slope = _brent(lambda x: -1e-3 if abs(x - 1.0) < 4 * u else x - 1.0,
                                          0.5, 1.5, -0.5, 0.5 - 8 * u)
        assert (t, ft, iterations) == (1.0 + 4 * u, 4 * u, 2)
        assert slope == 1.0
