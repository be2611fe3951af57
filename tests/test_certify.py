"""Tests for region classification and the certification engine."""

import collections
import json
import math
import pathlib

import numpy as np
import pytest

from gammapower import certify
from gammapower import critical
from gammapower import families as fam
from gammapower.critical import threshold_g3_increasing
from gammapower.specfun import log_gamma
from gammapower.certify import (
    Region,
    RegionError,
    SamplePlan,
    Verdict,
    certify_comparisons,
    certify_constants,
    certify_inequality,
    certify_lcm,
    certify_logconvex,
    certify_monotone,
    certify_range,
    claim_ids,
    classify,
    expect_violation,
    run_claims,
    segments,
)

SMALL = SamplePlan(grid_points=64, random_points=32)


class TestClassify:
    def test_examples(self):
        assert classify(2.0, 1.0) == {Region.D2, Region.D6}
        assert classify(1.5, 0.0) == {Region.D3, Region.D4}
        assert classify(2.0, 0.5) == {Region.D2, Region.D11}

    def test_overlap(self):
        # a=2, c=-1 sits in every region requiring a>=2 or a=2 with c<=0
        regions = classify(2.0, -1.0)
        assert {Region.D2, Region.D8, Region.D10, Region.D11} <= regions


class TestSamplePlan:
    def test_points_deterministic(self):
        p1 = SMALL.points()
        p2 = SamplePlan(grid_points=64, random_points=32).points()
        assert (p1 == p2).all()

    def test_margin_exclusion(self):
        pts = SamplePlan(interval=(-1.0, 1.0), grid_points=101, margin=0.05).points([0.5])
        assert all(abs(x) > 0.05 for x in pts)
        assert all(abs(x - 0.5) > 0.05 for x in pts)

    def test_pairs_count_and_determinism(self):
        pairs = SMALL.pairs()
        n_axis = math.isqrt(SMALL.grid_points - 1) + 1
        assert len(pairs) == n_axis * n_axis + SMALL.random_points
        assert np.array_equal(pairs, SMALL.pairs())

    def test_bad_plan_rejected(self):
        for field, value in (
                ("interval", (2.0, 1.0)), ("interval", (math.nan, 1.0)), ("interval", (1.0, math.inf)),
                ("tol", -1.0), ("tol", 0.0), ("tol", math.nan), ("tol", math.inf), ("seed", -1),
                ("grid_points", 0), ("random_points", -1), ("margin", math.nan),
                ("margin", math.inf)):
            with pytest.raises(ValueError, match=field):
                SamplePlan(**{field: value})


class TestMonotone:
    def test_increasing_certified(self):
        r = certify_monotone(np.log, SMALL, "increasing")
        assert r.verdict is Verdict.CERTIFIED
        assert r.strict

    def test_violation_witnessed(self):
        r = certify_monotone(np.cos, SamplePlan(interval=(0.1, 6.0)), "increasing")
        assert r.verdict is Verdict.VIOLATED
        assert r.witnesses

    def test_evaluation_error_inconclusive(self):
        def bad(x):
            raise ValueError("nope")

        r = certify_monotone(bad, SMALL, "increasing")
        assert r.verdict is Verdict.INCONCLUSIVE
        assert "nope" in r.note

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            certify_monotone(np.log, SMALL, "sideways")

    def test_no_margin_is_not_certified(self):
        # one sample point leaves no consecutive pair to compare
        r = certify_monotone(lambda x: -x, SamplePlan((1, 2), grid_points=1, random_points=0),
                             "increasing")
        assert r.verdict is Verdict.INCONCLUSIVE
        assert r.strict is None

    def test_nan_margin_is_not_certified(self):
        r = certify_range(lambda x: np.full_like(x, math.nan),
                          SamplePlan(grid_points=64, random_points=0), 0.0, 1.0)
        assert r.verdict is Verdict.INCONCLUSIVE
        assert "non-finite" in r.note

    def test_segments_all_skipped_not_certified(self):
        pieces = [((1.0, 1.001), "increasing"), ((2.0, 2.002), "decreasing")]
        r = segments("seg", fam.Params(a=1.0), SMALL, np.log, pieces)
        assert r.verdict is Verdict.INCONCLUSIVE
        assert r.note == "no margin was checked"


class TestTheoremClaims:
    def test_lcm_certified_inside_region(self):
        for a in (1.0, 1.5, 2.0):
            r = certify_lcm(a, 6, SamplePlan(interval=(1e-2, 30.0), grid_points=128))
            assert r.verdict is Verdict.CERTIFIED, (a, r.min_margin)

    def test_lcm_violated_outside_region(self):
        for a in (0.5, 2.5):
            r = certify_lcm(a, 6, SamplePlan(interval=(1e-2, 30.0), grid_points=128))
            assert r.verdict is Verdict.VIOLATED
            assert r.witnesses

    def test_lcm_implies_decreasing_and_logconvex(self):
        # completely monotone derivative sign pattern forces g1 decreasing
        # and log g1 convex on the sampled interval
        plan = SamplePlan(interval=(1e-2, 30.0), grid_points=128)
        assert certify_lcm(1.5, 6, plan).verdict is Verdict.CERTIFIED
        dec = certify_monotone(lambda x: fam.log_g1(1.5, x), plan, "decreasing")
        assert dec.verdict is Verdict.CERTIFIED
        convex = certify_monotone(lambda x: fam.log_g1_deriv(1.5, 1, x), plan, "increasing")
        assert convex.verdict is Verdict.CERTIFIED

    def test_lcm_orders_up_to_max_order(self):
        # every order of a grid comes from one array pass, so orders past the
        # catalog's 6 certify too; the smallest margin at order 12 is ~3e-11
        r = certify_lcm(1.5, 12, SamplePlan(interval=(1e-2, 30.0)))
        assert r.verdict is Verdict.CERTIFIED, r.min_margin
        for order in (0, 171):
            with pytest.raises(ValueError, match="max_order"):
                certify_lcm(1.5, order, SMALL)

    def test_logconvex(self):
        assert certify_logconvex(3.0, 1.0, SMALL, "convex").verdict is Verdict.CERTIFIED
        assert certify_logconvex(2.0, 0.0, SMALL, "concave").verdict is Verdict.CERTIFIED
        assert certify_logconvex(2.0, 0.5, SMALL, "convex").verdict is Verdict.VIOLATED

    def test_geoconvex(self):
        # the catalog's geometric convexity rows: x f'/f increasing, for g2 and g3
        for claim, a, c in (("thm2.3.geoconvex", 0.75, -3.0), ("thm3.2.geoconvex", 3.0, -1.0)):
            (r,) = run_claims(claim, SMALL, a=a, c=c)
            assert r.claim_id == f"{claim}.a={a:g}.c={c:g}"
            assert r.verdict is Verdict.CERTIFIED, r.note


class TestInequalities:
    def test_region_mismatch_raises(self):
        with pytest.raises(RegionError):
            certify_inequality("ineq1", fam.Params(a=3.0), SMALL)
        with pytest.raises(RegionError):
            certify_inequality("ineq5", fam.Params(a=1.5, c=1.0), SMALL)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            certify_inequality("ineq99", fam.Params(a=1.0), SMALL)

    def test_ineq1_certified(self):
        r = certify_inequality("ineq1", fam.Params(a=1.5), SMALL)
        assert r.verdict is Verdict.CERTIFIED
        assert r.min_margin > 0.0

    def test_ineq1_pairwise_random(self):
        # direct pairwise statement: the ratio is < 1 for 0 < x < y
        import numpy as np

        rng = np.random.default_rng(7)
        from gammapower.specfun import log_gamma

        for _ in range(100):
            x, y = sorted(float(v) for v in rng.uniform(0.01, 40.0, 2))
            if y - x < 1e-9:
                continue
            ratio = log_gamma(x + 1.5) / x - log_gamma(y + 1.5) / y
            assert ratio < 0.0

    def test_every_chain_is_an_equality_at_x_equals_y(self):
        chains = [(names, a, c) for names, _ in certify._INEQUALITIES.values()
                  for a, c in ((0.75, 1.5), (2.0, -1.0), (3.0, 2.0))]
        chains += [chain for _, cmp_chains in certify._COMPARISONS.values() for chain in cmp_chains]
        for names, a, c in chains:
            for x in (0.01, 0.7, 1.0, 13.0, 50.0):
                values = [certify._QUANTITIES[q](a, c, x, x) for q in names]
                assert values == pytest.approx([0.0] * len(names), abs=1e-12), (names, a, c, x)

    def test_violation_witnesses_name_the_failed_link(self, monkeypatch):
        # log Gamma -> -log Gamma flips the sign of r, which drops below its lower
        # bound; the upper bound and the diagonal hold
        monkeypatch.setattr(certify, "log_gamma", lambda t: -log_gamma(t))
        r = certify_inequality("ineq3", fam.Params(a=3.0), SMALL)
        assert r.verdict is Verdict.VIOLATED
        assert {w.required for w in r.witnesses} == {"h2(y) log(x/y) <= r"}
        assert all(x < y for x, y in (w.where for w in r.witnesses))

    def test_ineq4_orientation(self):
        direct = certify_inequality("ineq4", fam.Params(a=0.75, c=1.5), SMALL)
        assert direct.claim_id.endswith("direct")
        reversed_ = certify_inequality("ineq4", fam.Params(a=2.0, c=-1.0), SMALL)
        assert reversed_.claim_id.endswith("reversed")
        assert direct.verdict is Verdict.CERTIFIED
        assert reversed_.verdict is Verdict.CERTIFIED


class TestReportsAndCatalog:
    def test_report_json_schema(self):
        r = certify_constants(SMALL)
        d = json.loads(r.to_json())
        assert set(d) == {
            "claim_id", "params", "plan", "verdict", "witnesses", "n_witnesses",
            "min_margin", "strict", "note",
        }
        assert d["verdict"] == "certified"
        assert set(d["plan"]) == {
            "interval", "grid_points", "random_points", "seed", "tol", "margin",
        }

    def test_expect_violation_wrapper(self):
        violated = certify_monotone(np.cos, SamplePlan(interval=(0.1, 6.0)), "increasing")
        wrapped = expect_violation(violated, "onlyif.test")
        assert wrapped.verdict is Verdict.CERTIFIED
        clean = certify_monotone(np.log, SMALL, "increasing")
        wrapped2 = expect_violation(clean, "onlyif.test2")
        assert wrapped2.verdict is Verdict.INCONCLUSIVE

    def test_range_check(self):
        r = certify_range(lambda x: fam.h3(2.0, x), SMALL, 0.0, 1.0)
        assert r.verdict is Verdict.CERTIFIED

    def test_comparisons_all_certified(self):
        for r in certify_comparisons(SMALL):
            assert r.verdict is Verdict.CERTIFIED, r.claim_id

    def test_comparisons_evaluation_error_inconclusive(self, monkeypatch):
        def bad(x):
            raise ValueError("nope")

        monkeypatch.setattr(certify, "log_gamma", bad)
        for r in certify_comparisons(SMALL):
            assert r.verdict is Verdict.INCONCLUSIVE, r.claim_id
            assert "nope" in r.note

    def test_claim_ids_sorted(self):
        ids = claim_ids()
        assert ids == sorted(ids)
        assert "thm1.2.lcm" in ids
        assert "ineq7" in ids

    def test_run_claims_unknown(self):
        with pytest.raises(KeyError):
            run_claims("no.such.claim")

    def test_run_claims_single_deterministic(self):
        a = run_claims("constants", SMALL)
        b = run_claims("constants", SMALL)
        assert [r.to_json() for r in a] == [r.to_json() for r in b]

    def test_run_claims_with_override(self):
        reports = run_claims("thm1.2.lcm", SMALL, a=2.5)
        assert len(reports) == 1
        assert reports[0].verdict is Verdict.VIOLATED

    def test_override_honoured_by_every_parameterized_claim(self):
        (r,) = run_claims("thm2.2.logconvex", SMALL, a=7.0, c=3.0)
        assert r.claim_id == "thm2.2.convex.a=7.c=3"
        assert (r.params.a, r.params.c) == (7.0, 3.0)

    def test_override_not_taken_is_refused(self):
        with pytest.raises(ValueError):
            run_claims("thm1.2.lcm", SMALL, c=1.0)
        with pytest.raises(ValueError):
            run_claims("constants", SMALL, a=1.0)
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                run_claims("ineq4", SMALL, a=1.5, c=value)

    def test_witness_list_is_bounded(self):
        for r in run_claims("thm1.2.lcm.onlyif", SMALL):
            assert r.verdict is Verdict.CERTIFIED
            assert len(r.witnesses) == 20
            assert r.n_witnesses > 20
            assert r.to_dict()["n_witnesses"] == r.n_witnesses

    def test_threshold_row_reports_its_c(self):
        reports = run_claims("thm3.1.mono", SMALL)
        (r,) = [r for r in reports if r.claim_id == "thm3.1.inc.a=1.5.c=thr-0.01"]
        assert r.params.c == threshold_g3_increasing(1.5) - 0.01


def test_catalog_matches_expected_verdicts():
    path = pathlib.Path(__file__).parent.parent / "perfbench" / "expected_verdicts.json"
    expected = {cid: row["verdict"] for cid, row in json.loads(path.read_text()).items()}
    reports = run_claims("all")
    got = {r.claim_id: r.verdict.value for r in reports}
    assert len(got) == 52
    assert got == expected
    # strict, n_witnesses and min_margin of each certificate at the default plan
    golden = json.loads((pathlib.Path(__file__).parent / "golden_reports.json").read_text())
    assert {r.claim_id for r in reports} == set(golden)
    for r in reports:
        d, want = r.to_dict(), golden[r.claim_id]
        assert (d["strict"], d["n_witnesses"]) == (want["strict"], want["n_witnesses"]), r.claim_id
        assert d["min_margin"] == pytest.approx(want["min_margin"], rel=1e-9), r.claim_id


def test_catalog_evaluates_whole_grids(monkeypatch):
    # every check evaluates its sample plan in a few array calls: a per-point
    # loop would make tens of thousands of special-function calls here
    calls = []
    for module in (fam, certify, critical):
        for name in ("log_gamma", "digamma", "polygamma"):
            if hasattr(module, name):
                def counted(*args, _f=getattr(module, name), _n=name):
                    calls.append(_n)
                    return _f(*args)
                monkeypatch.setattr(module, name, counted)
    assert len(run_claims("all")) == 52
    assert 0 < len(calls) < 2000, collections.Counter(calls)
