"""Tests for critical-point solving and thresholds."""

import math

import numpy as np
import pytest

from gammapower.critical import (
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
)
from gammapower.families import h1, h2, h4, h21, h41_prime

RESIDUAL_TOL = 1e-10


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


class TestX1X2:
    @pytest.mark.parametrize("a", [0.5, 3.0, 0.99, 2.01])
    def test_ordering_and_residuals(self, a):
        p1, p2 = find_x1_x2(a)
        assert -a < p1.value < 0.0 < p2.value
        assert p1.residual <= RESIDUAL_TOL
        assert p2.residual <= RESIDUAL_TOL

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
