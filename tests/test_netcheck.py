"""Networked operation: certify up to m*, simulate dropouts, audit."""
import functools
import json

import numpy as np
import pytest

from mpccert import (
    NetworkExperiment,
    certify_up_to,
    gamma_from_exponential,
    run_network_experiment,
)
from mpccert import netcheck
from mpccert.controllability import GammaSequence
from mpccert.sim import gamma_from_riccati, lq_scalar, mpc_run, riccati_value


@pytest.fixture(scope="module")
def lq_gamma6():
    return gamma_from_riccati(lq_scalar(), 6)


class TestCertifyUpTo:
    def test_lq_benchmark_profile(self, lq_gamma6):
        cert = certify_up_to(lq_gamma6, 6, 3)
        assert cert.valid
        assert cert.m_at_min == 1
        assert cert.alpha_star == pytest.approx(0.0756302521008, abs=1e-10)
        profile = dict(cert.profile)
        assert profile[2] == pytest.approx(0.3, abs=1e-10)
        assert profile[3] == pytest.approx(0.36, abs=1e-10)

    def test_minimum_is_computed_not_assumed(self):
        # a sequence whose index profile dips at m = 2, not m = 1
        g = GammaSequence((1.0, 1.2, 3.0, 3.1))
        cert = certify_up_to(g, 4, 3)
        by_m = dict(cert.profile)
        assert cert.alpha_star == min(by_m.values())
        assert by_m[cert.m_at_min] == cert.alpha_star

    def test_ties_go_to_the_first_minimum(self):
        # the closed form is symmetric in m <-> N - m: m = 1 and m = 5 tie
        cert = certify_up_to(gamma_from_exponential(3.0, 2.0 / 3.0, 6), 6, 5)
        assert cert.profile[0][1] == cert.profile[4][1] == cert.alpha_star
        assert cert.m_at_min == 1
        # unit bounds in every range: alpha = 1 for every m
        cert = certify_up_to(GammaSequence((1.0, 1.0, 1.0, 1.5)), 4, 3)
        assert (cert.m_at_min, cert.alpha_star) == (1, 1.0)

    def test_invalid_when_any_horizon_uncertified(self):
        g = GammaSequence((1.0, 3.0, 4.0))
        cert = certify_up_to(g, 3, 2)
        assert not cert.valid
        assert cert.alpha_star == -2.0

    def test_m_star_range(self, lq_gamma6):
        with pytest.raises(ValueError):
            certify_up_to(lq_gamma6, 6, 0)
        with pytest.raises(ValueError):
            certify_up_to(lq_gamma6, 6, 6)


class TestExperimentValidation:
    def test_probability_range(self):
        with pytest.raises(ValueError):
            NetworkExperiment(lq_scalar(), 6, 3, 1.0, 2, 10)
        with pytest.raises(ValueError):
            NetworkExperiment(lq_scalar(), 6, 3, -0.1, 2, 10)

    def test_m_star_range(self):
        with pytest.raises(ValueError):
            NetworkExperiment(lq_scalar(), 6, 6, 0.3, 2, 10)

    def test_counts(self):
        with pytest.raises(ValueError):
            NetworkExperiment(lq_scalar(), 6, 3, 0.3, 0, 10)
        with pytest.raises(ValueError):
            NetworkExperiment(lq_scalar(), 6, 3, 0.3, 2, 0)

    def test_seed_enumeration(self):
        exp = NetworkExperiment(lq_scalar(), 6, 3, 0.3, 4, 10, base_seed=7)
        assert exp.seeds == (7, 8, 9, 10)


class TestRunExperiment:
    def test_certified_campaign_has_no_violations(self):
        exp = NetworkExperiment(lq_scalar(), 6, 3, 0.3, 4, 20)
        report = run_network_experiment(exp)
        assert report.total_violations == 0
        assert report.worst_margin > -1e-6
        assert report.cost_ratio_max <= 1.0 + 1e-6
        assert len(report.outcomes) == 4
        for outcome in report.outcomes:
            assert sum(outcome.schedule) == 20
            assert outcome.measured >= report.certificate.alpha_star - 1e-6

    def test_outcomes_say_whether_every_solve_converged(self, monkeypatch):
        # the exact route always converges; one quasi-Newton iteration on a
        # bounded plant does not, and the campaign record says so
        exact = run_network_experiment(NetworkExperiment(lq_scalar(), 6, 3, 0.3, 2, 10))
        assert [o.all_converged for o in exact.outcomes] == [True, True]
        bounded = lq_scalar()
        bounded.u_lower = np.array([-1.5])
        monkeypatch.setattr(netcheck, "mpc_run", functools.partial(mpc_run, maxiter=1))
        exp = NetworkExperiment(bounded, 6, 3, 0.3, 2, 10)
        report = run_network_experiment(exp)
        assert [o.all_converged for o in report.outcomes] == [False, False]
        assert [s["all_converged"] for s in report.to_record()["seeds"]] == [False, False]
        assert report.to_json() == run_network_experiment(exp).to_json()

    def test_refuses_uncertified_configuration(self):
        exp = NetworkExperiment(lq_scalar(), 3, 2, 0.3, 2, 10)
        with pytest.raises(ValueError, match="not certified"):
            run_network_experiment(exp)

    def test_a_diverging_seed_names_itself(self):
        # from 1e9 the first move already leaves the divergence norm
        exp = NetworkExperiment(lq_scalar(), 6, 2, 0.3, 2, 10, x0=np.array([1e9]))
        with pytest.raises(ValueError, match=r"^seed 0: divergence at step 0: .*state norm exceeded"):
            run_network_experiment(exp)

    def test_falsification_probe_reports_violations(self):
        exp = NetworkExperiment(lq_scalar(), 6, 3, 0.3, 4, 20)
        report = run_network_experiment(exp, audit_alpha=1.0)
        assert report.audit_alpha == 1.0
        assert report.total_violations >= 1
        assert report.worst_margin < 0

    def test_explicit_gamma_overrides_the_model_default(self):
        exp = NetworkExperiment(lq_scalar(), 6, 2, 0.3, 2, 10)
        g = gamma_from_exponential(1.05, 0.1, 6)  # very tame bounds
        report = run_network_experiment(exp, gamma=g)
        assert report.certificate.alpha_star > 0.9

    def test_non_lq_model_needs_explicit_gamma(self):
        from mpccert.sim import pendulum_model

        exp = NetworkExperiment(pendulum_model(), 6, 2, 0.3, 1, 4)
        for call in (
            lambda: run_network_experiment(exp),
            lambda: gamma_from_riccati(exp.model, 6),
            lambda: riccati_value(exp.model, 6, exp.model.default_x0),
        ):
            with pytest.raises(ValueError, match="gamma"):
                call()


class TestReport:
    @pytest.fixture(scope="class")
    @staticmethod
    def report():
        exp = NetworkExperiment(lq_scalar(), 6, 3, 0.3, 3, 15)
        return run_network_experiment(exp)

    def test_record_keys(self, report):
        rec = report.to_record()
        assert rec["model"] == "lq-scalar"
        assert rec["N"] == 6
        assert rec["m_star"] == 3
        assert rec["violations"] == 0
        assert len(rec["seeds"]) == 3
        assert rec["alpha_profile"] == [[m, a] for m, a in report.certificate.profile]
        seed_rec = rec["seeds"][0]
        assert set(seed_rec) == {
            "seed", "schedule", "updates", "measured_alpha", "all_converged", "violations",
            "worst_margin", "realized_cost", "cost_bound", "cost_ratio",
        }

    def test_json_is_deterministic(self, report):
        exp = NetworkExperiment(lq_scalar(), 6, 3, 0.3, 3, 15)
        again = run_network_experiment(exp)
        assert report.to_json() == again.to_json()
        parsed = json.loads(report.to_json())
        assert parsed["N"] == 6
