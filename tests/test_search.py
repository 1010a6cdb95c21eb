from __future__ import annotations

import math

import pytest

from wodkit import (
    CapExceededError,
    LLLParams,
    TrialReport,
    binary_entropy,
    kappa_q,
    lll_asymptotic_condition,
    lll_condition,
    max_degree,
    min_feasible_c,
    probability_lower_bound,
    random_graph,
    sample_and_measure,
    trial_seed,
)
from wodkit import search, solvers


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_point_value(self):
        assert abs(binary_entropy(0.1) - 0.4690) < 1e-4

    def test_symmetry(self):
        for i in range(1, 50):
            t = i / 50
            assert abs(binary_entropy(t) - binary_entropy(1 - t)) < 1e-12

    def test_concavity_midpoints(self):
        pts = [i / 20 for i in range(21)]
        for a, b in zip(pts, pts[2:]):
            mid = (a + b) / 2
            chord = (binary_entropy(a) + binary_entropy(b)) / 2
            assert binary_entropy(mid) >= chord - 1e-12

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)


class TestLLLParams:
    def test_valid(self):
        p = LLLParams(n=100, c=0.8, d=0.1, r=16.0)
        assert p.c == 0.8

    def test_d_can_touch_upper_endpoint(self):
        LLLParams(n=10, c=0.8, d=0.2, r=2.0)

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            LLLParams(n=0, c=0.8, d=0.1, r=4.0)
        with pytest.raises(ValueError):
            LLLParams(n=10, c=0.0, d=0.1, r=4.0)
        with pytest.raises(ValueError):
            LLLParams(n=10, c=1.0, d=0.1, r=4.0)
        with pytest.raises(ValueError):
            LLLParams(n=10, c=0.8, d=0.0, r=4.0)
        with pytest.raises(ValueError):
            LLLParams(n=10, c=0.8, d=0.25, r=4.0)
        with pytest.raises(ValueError):
            LLLParams(n=10, c=0.8, d=0.1, r=1.5)


class TestFeasibilityCondition:
    def test_asymptotic_signs_near_threshold(self):
        assert lll_asymptotic_condition(0.811, 0.1) < 0
        assert abs(lll_asymptotic_condition(0.811, 0.1) - (-0.0121)) < 1e-3
        assert lll_asymptotic_condition(0.80, 0.1) > 0
        assert abs(lll_asymptotic_condition(0.80, 0.1) - 0.0219) < 1e-3

    def test_other_sign_cases(self):
        assert lll_asymptotic_condition(0.5, 0.25) > 0
        assert lll_asymptotic_condition(0.9, 0.05) < 0
        # at the right endpoint d = 1-c the value collapses to H(1-c) - c,
        # firmly negative for c near 1
        c = 0.95
        v = lll_asymptotic_condition(c, 1 - c)
        assert v < 0
        assert abs(v - (binary_entropy(1 - c) - c)) < 1e-12

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            lll_asymptotic_condition(0.8, 0.3)
        with pytest.raises(ValueError):
            lll_asymptotic_condition(0.0, 0.1)

    def test_finite_converges_to_asymptotic(self):
        c, d = 0.811, 0.1
        limit = lll_asymptotic_condition(c, d)
        for n in (10**5, 10**6):
            v = lll_condition(LLLParams(n=n, c=c, d=d, r=float(n)))
            assert abs(v - limit) < 1e-3
        assert lll_condition(LLLParams(n=10**6, c=c, d=d, r=10**6)) < 0

    def test_finite_correction_terms(self):
        p = LLLParams(n=1000, c=0.8, d=0.1, r=64.0)
        expected = (
            lll_asymptotic_condition(0.8, 0.1)
            + 4 * 0.2 / 64.0
            + math.log2(64.0) / 1000
        )
        assert abs(lll_condition(p) - expected) < 1e-12

    def test_entropy_argument_past_the_clamp_raises(self):
        # d = 0.9 + 1e-12 passes LLLParams' check, which allows 1 - c plus
        # the clamp, but c/(1-d) = 1 + 1e-11 lies past 1 + _T_CLAMP
        p = LLLParams(n=100, c=0.1, d=0.9 + 1e-12, r=4.0)
        with pytest.raises(ValueError, match="exceeds 1"):
            lll_condition(p)

    def test_entropy_argument_just_above_one_is_clamped(self):
        # c/(1-d) = 1 + 2e-13, a rounding error within _T_CLAMP: it is
        # taken as 1, where the binary entropy is 0
        d = 0.5 + 1e-13
        assert 1.0 < 0.5 / (1.0 - d) <= 1.0 + search._T_CLAMP
        assert search._entropy_term(0.5, d) == (1.0 - d) * -1.0 + binary_entropy(d)


class TestMinFeasibleC:
    def test_default_grid(self):
        c = min_feasible_c()
        assert c == pytest.approx(0.811, abs=1e-12)
        assert 0.810 <= c <= 0.812

    def test_refined_grid_stays_within_one_step(self):
        c_fine = min_feasible_c(grid_step=2e-4)
        assert 0.810 <= c_fine <= 0.812
        assert abs(c_fine - min_feasible_c()) <= 1e-3

    def test_monotone_feasibility_on_grid(self):
        step = 1e-3
        c_star = min_feasible_c(step)
        for c in (c_star, c_star + 0.005, c_star + 0.05):
            d = step
            feasible = True
            while d <= 1 - c + 1e-12:
                if lll_asymptotic_condition(c, min(d, 1 - c)) > 0:
                    feasible = False
                    break
                d += step
            assert feasible

    def test_grid_step_domain(self):
        with pytest.raises(ValueError):
            min_feasible_c(0.0)
        with pytest.raises(ValueError):
            min_feasible_c(1e-2)

    def test_no_feasible_c_raises(self, monkeypatch):
        # a condition that stays positive leaves every c on the grid infeasible
        calls = []

        def infeasible(c, d):
            calls.append(c)
            return 1.0

        monkeypatch.setattr(search, "lll_asymptotic_condition", infeasible)
        with pytest.raises(RuntimeError, match="no feasible c"):
            min_feasible_c()
        # every c from 0.001 to 0.999 was tried, each ending at its first d
        assert len(calls) == 999


class TestProbabilityLowerBound:
    def test_n_one(self):
        assert probability_lower_bound(1, 0.811) == pytest.approx(math.exp(-1))

    def test_n_hundred(self):
        v = probability_lower_bound(100, 0.811)
        assert v == pytest.approx(math.exp(-0.01))
        assert v >= 1 - 1 / 100

    def test_identity_sample(self):
        for n in (1, 2, 7, 100, 999, 10**4):
            assert abs(probability_lower_bound(n, 0.811) - math.exp(-1 / n)) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            probability_lower_bound(0, 0.811)
        with pytest.raises(ValueError):
            probability_lower_bound(5, 1.0)


class TestTrialSeed:
    def test_deterministic(self):
        assert trial_seed(123, 0) == trial_seed(123, 0)

    def test_frozen_reference_values(self):
        # stability contract: these exact values must never change
        assert trial_seed(123, 0) == 11523161119910023897
        assert trial_seed(123, 1) == 2513419839779525627

    def test_spread(self):
        seeds = {trial_seed(9, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert all(0 <= s < 2**64 for s in seeds)


class TestSampleAndMeasure:
    def test_determinism(self):
        a = sample_and_measure(10, 6, 7)
        b = sample_and_measure(10, 6, 7)
        assert [(r.trial, r.seed, r.kappa, r.kappa_prime, r.kappa_q, r.ratio)
                for r in a] == \
               [(r.trial, r.seed, r.kappa, r.kappa_prime, r.kappa_q, r.ratio)
                for r in b]

    def test_report_invariants(self):
        reports = sample_and_measure(12, 8, 99)
        assert [r.trial for r in reports] == list(range(8))
        for r in reports:
            g = random_graph(r.n, r.seed)
            assert r.kappa_q == max(r.kappa, r.n - r.kappa_prime)
            assert r.kappa_q >= r.kappa >= max_degree(g)
            assert r.ratio == pytest.approx(r.kappa_q / r.n)
            assert r.elapsed >= 0.0
            exact = kappa_q(g)
            assert (exact.value, exact.kappa.value, exact.kappa_prime.value) == (
                r.kappa_q, r.kappa, r.kappa_prime
            )

    def test_zero_trials(self):
        assert sample_and_measure(8, 0, 1) == []

    def test_preconditions(self):
        with pytest.raises(ValueError):
            sample_and_measure(0, 5, 1)
        with pytest.raises(ValueError):
            sample_and_measure(8, -1, 1)
        with pytest.raises(CapExceededError):
            sample_and_measure(31, 1, 1)
        with pytest.raises(CapExceededError):
            sample_and_measure(13, 1, 1, cap=12)

    def test_report_type(self):
        r = sample_and_measure(6, 1, 0)[0]
        assert isinstance(r, TrialReport)
        assert r.n == 6

    def test_search_graphs_layered_matches_table(self):
        # the first graph of each base seed of `wodkit search --n 18`, where
        # auto takes one fused layered pass: the same values and witnesses as
        # the table, and sample_and_measure reports those values
        for base in range(30):
            g = random_graph(18, trial_seed(base, 0))
            plan = solvers._plan(g, "auto")
            assert plan.split is None
            assert not (plan.kappa_table or plan.prime_table)
            got, want = kappa_q(g), kappa_q(g, engine="numpy")
            assert (got.kappa.value, got.kappa.witness.mask,
                    got.kappa_prime.value, got.kappa_prime.witness.mask) == (
                want.kappa.value, want.kappa.witness.mask,
                want.kappa_prime.value, want.kappa_prime.witness.mask), base
            r = sample_and_measure(18, 30, base)[0]
            assert (r.kappa, r.kappa_prime) == (
                want.kappa.value, want.kappa_prime.value), base
