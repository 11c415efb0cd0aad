import json

import numpy as np
import pytest

from samgog import theory
from samgog.degree_alloc import AllocConfig, greedy_allocation, oracle_optimal_allocation


class TestDegreeOrderingCheck:
    def test_two_node_enumerable_case(self):
        config = AllocConfig(d_bar=2, k_min=1, k_max=3)
        prob = np.array([0.9, 0.1])
        greedy = greedy_allocation(prob, config)
        brute = oracle_optimal_allocation(prob, config)
        # feasible vectors with total 4: (1,3), (2,2), (3,1); best is (3,1)
        assert brute.k.tolist() == [3, 1]
        assert greedy.k.tolist() == [3, 1]

    def test_runs_clean_at_small_scale(self):
        report = theory.check_degree_ordering(num_trials=60, n_max=5, seed=3)
        assert report.passed
        assert report.failures == 0
        assert report.trials == 60

    def test_deterministic_given_seed(self):
        a = theory.check_degree_ordering(num_trials=30, seed=9)
        b = theory.check_degree_ordering(num_trials=30, seed=9)
        assert a == b

    def test_report_shape(self):
        report = theory.check_degree_ordering(num_trials=5, seed=0)
        d = report.to_dict()
        json.dumps(d)  # must be JSON-serializable
        assert d["name"] == "degree_ordering_optimality"
        assert "PASS" in report.summary_line()


class TestSamplingUnbiasednessCheck:
    def test_passes_at_moderate_scale(self):
        report = theory.check_sampling_unbiasedness(
            num_trials=3000, matrix_size=6, seed=1
        )
        assert report.passed
        assert report.details["worst_error"] <= report.details["worst_bound"] + 1e-12

    def test_deterministic(self):
        a = theory.check_sampling_unbiasedness(num_trials=500, matrix_size=5, seed=2)
        b = theory.check_sampling_unbiasedness(num_trials=500, matrix_size=5, seed=2)
        assert a == b


class TestVarianceSweep:
    def test_slope_fit_on_exact_inverse_data(self):
        t = [1, 2, 4, 8, 16]
        variances = [1.0 / x for x in t]
        slope, r2 = theory.fit_log_log_slope(t, variances)
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_slope_fit_on_scaled_inverse(self):
        t = [1, 2, 4, 8]
        variances = [3.7 / x for x in t]
        slope, r2 = theory.fit_log_log_slope(t, variances)
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_reports_inconclusive(self):
        result = theory.VarianceSweepResult(
            t_values=(1, 2), variance_estimates=(0.0, 0.0),
            fitted_slope=float("nan"), r_squared=float("nan"),
            inconclusive=True,
        )
        assert not result.passed()
        assert "INCONCLUSIVE" in result.summary_line()

    def test_small_sweep_shows_decay(self):
        # reduced sweep: only sanity-checks the direction; the acceptance
        # suite runs the full band check
        result = theory.check_variance_decay(
            t_values=(1, 4, 16), replicates=12, seed=5, epochs=15
        )
        assert not result.inconclusive
        assert result.fitted_slope < -0.5
        v = result.variance_estimates
        assert v[0] > v[1] > v[2]

    @pytest.mark.parametrize("t_values", [(4, 2), (1, 2, 2)])
    def test_bad_t_values_rejected_before_sampling(self, monkeypatch, t_values):
        def no_sampler(*args, **kwargs):
            raise AssertionError("a sampler was built for a rejected sweep")

        monkeypatch.setattr(theory, "GoGSampler", no_sampler)
        with pytest.raises(ValueError, match="t_values"):
            theory.check_variance_decay(t_values=t_values, replicates=2, epochs=1)

    def test_identical_replicate_streams_would_degenerate(self):
        # replicates=2 with identical sampling keys collapse variance to 0;
        # emulate by feeding the degenerate estimates to the result type
        result = theory.VarianceSweepResult(
            t_values=(1, 2, 4),
            variance_estimates=(1e-30, 0.0, 0.0),
            fitted_slope=float("nan"),
            r_squared=float("nan"),
            inconclusive=True,
        )
        assert result.to_dict()["inconclusive"]


class TestMonotonicityCheck:
    def test_paper_style_mass_example(self):
        mass = theory.ClassConfidenceMass(
            true0_pred0=0.9, true0_pred1=0.1, true1_pred0=0.2, true1_pred1=0.8
        )
        assert mass.valid()
        assert theory.homophily_prob_curve(1.0, mass) > theory.homophily_prob_curve(
            0.6, mass
        )

    def test_curve_value_closed_form(self):
        mass = theory.ClassConfidenceMass(0.9, 0.1, 0.2, 0.8)
        # at x = 1: numerator 0.9, denominator 0.9 + 0.2
        assert theory.homophily_prob_curve(1.0, mass) == pytest.approx(0.9 / 1.1)

    def test_invalid_mass_detected(self):
        bad = theory.ClassConfidenceMass(0.1, 0.9, 0.2, 0.8)  # cross > same
        assert not bad.valid()

    def test_population_mass_sums(self):
        p = np.array([[0.8, 0.2], [0.3, 0.7], [0.6, 0.4]])
        labels = np.array([0, 1, 0])
        mass = theory.population_mass(p, labels)
        assert mass.true0_pred0 == pytest.approx(1.4)
        assert mass.true0_pred1 == pytest.approx(0.6)
        assert mass.true1_pred0 == pytest.approx(0.3)
        assert mass.true1_pred1 == pytest.approx(0.7)

    def test_runs_clean(self):
        report = theory.check_rule_monotonicity(num_trials=200, seed=4)
        assert report.passed
        assert report.failures == 0

    def test_deterministic(self):
        a = theory.check_rule_monotonicity(num_trials=50, seed=6)
        b = theory.check_rule_monotonicity(num_trials=50, seed=6)
        assert a == b


def test_run_all_checks_report_is_json_ready():
    report = theory.run_all_checks(
        seed=0, ordering_trials=20, unbiasedness_trials=300,
        monotonicity_trials=30, t_values=(1, 2, 4), replicates=6,
    )
    payload = json.loads(json.dumps(report))
    assert set(payload) == {"seed", "all_passed", "checks", "lines"}
    assert len(payload["checks"]) == 4
    assert len(payload["lines"]) == 4
