"""Closed loops, schedules, and the Lyapunov bookkeeping."""
import math

import numpy as np
import pytest

from mpccert import CertificateQuery, certificate
from mpccert.sim import (
    DivergenceError,
    constant_schedule,
    dropout_schedule,
    gamma_from_riccati,
    lq_double_integrator,
    lq_scalar,
    measured_alpha,
    mpc_run,
    pendulum_model,
    trace_to_csv,
    verify_relaxed_lyapunov,
)
from mpccert.sim import loop
from mpccert.sim.loop import Schedule
from mpccert.sim.shooting import _solve_quasi_newton


class TestSchedules:
    def test_constant(self):
        s = constant_schedule(2, 5)
        assert s.m_values == (2,) * 5
        assert s.m_star == 2
        assert s.total_steps == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule(m_values=(1, 3), m_star=2)  # entry above the cap
        with pytest.raises(ValueError):
            Schedule(m_values=(0,), m_star=2)
        with pytest.raises(ValueError):
            Schedule(m_values=(), m_star=2)
        with pytest.raises(ValueError):
            constant_schedule(1, 0)

    def test_dropout_deterministic_in_seed(self):
        a = dropout_schedule(0.4, 3, 50, seed=9)
        b = dropout_schedule(0.4, 3, 50, seed=9)
        c = dropout_schedule(0.4, 3, 50, seed=10)
        assert a.m_values == b.m_values
        assert a.m_values != c.m_values

    def test_dropout_respects_the_cap(self):
        s = dropout_schedule(0.9, 4, 400, seed=1)
        assert all(1 <= m <= 4 for m in s.m_values)
        assert max(s.m_values) == 4  # p = 0.9 certainly hits the cap in 400 draws

    def test_dropout_zero_probability_is_classical(self):
        s = dropout_schedule(0.0, 5, 30, seed=0)
        assert s.m_values == (1,) * 30

    def test_dropout_mean_matches_capped_geometric(self):
        # E[m] = sum_{j<m*} p^j; Monte Carlo agreement to a few permille
        for p, m_star in ((0.3, 3), (0.5, 1), (0.7, 5)):
            s = dropout_schedule(p, m_star, 100_000, seed=42)
            analytic = sum(p**j for j in range(m_star))
            assert np.mean(s.m_values) == pytest.approx(analytic, rel=5e-3)

    def test_dropout_validation(self):
        with pytest.raises(ValueError):
            dropout_schedule(1.0, 3, 10, seed=0)
        with pytest.raises(ValueError):
            dropout_schedule(-0.1, 3, 10, seed=0)
        with pytest.raises(ValueError):
            dropout_schedule(0.5, 0, 10, seed=0)


class TestMpcRun:
    def test_classical_loop_contracts(self):
        model = lq_scalar()
        trace = mpc_run(model, 6, constant_schedule(1, 12), np.array([1.0]), 12)
        assert trace.steps == 12
        assert trace.failure is None
        assert trace.all_converged
        assert abs(trace.states[-1, 0]) < 1e-3  # unstable plant, stabilized
        values = [u.value for u in trace.updates]
        assert all(b < a for a, b in zip(values, values[1:]))  # V_N decreasing

    def test_update_times_follow_the_schedule(self):
        model = lq_scalar()
        sched = Schedule(m_values=(2, 1, 3, 2), m_star=3)
        trace = mpc_run(model, 6, sched, np.array([1.0]), 8)
        assert trace.update_times == (0, 2, 3, 6)
        assert [u.m for u in trace.updates] == [2, 1, 3, 2]

    def test_final_window_is_truncated_to_fit(self):
        model = lq_scalar()
        trace = mpc_run(model, 6, constant_schedule(3, 4), np.array([1.0]), 7)
        assert trace.steps == 7
        assert [u.m for u in trace.updates] == [3, 3, 1]  # 3 + 3 + 1 = 7

    def test_schedule_too_short_is_rejected(self):
        model = lq_scalar()
        with pytest.raises(ValueError, match="covers"):
            mpc_run(model, 6, constant_schedule(1, 3), np.array([1.0]), 10)

    def test_gap_above_the_horizon_is_rejected_before_any_solve(self, monkeypatch):
        def no_solve(problem):
            raise AssertionError("solved before validating the schedule")

        monkeypatch.setattr(loop, "solve_finite_horizon", no_solve)
        for model, n, x0 in ((lq_scalar(), 3, [1.0]), (pendulum_model(), 2, [0.1, 0.0, 0.0, 0.0])):
            with pytest.raises(ValueError, match="exceeds the horizon"):
                mpc_run(model, n, constant_schedule(n + 1, 2), np.array(x0), 2 * n + 2)

    def test_negative_startup_or_nonfinite_state_is_rejected_before_any_solve(self, monkeypatch):
        def no_solve(problem):
            raise AssertionError("solved before validating the inputs")

        monkeypatch.setattr(loop, "solve_finite_horizon", no_solve)
        sched = constant_schedule(1, 4)
        with pytest.raises(ValueError, match="startup must be >= 0, got -2"):
            mpc_run(lq_scalar(), 4, sched, np.array([1.0]), 4, startup=-2)
        for x0 in ([math.nan], [math.inf], [0.1, 0.0, -math.inf, 0.0]):
            model = lq_scalar() if len(x0) == 1 else pendulum_model()
            with pytest.raises(ValueError, match="is not finite"):
                mpc_run(model, 4, sched, np.array(x0), 4)
        for model, x0 in ((lq_scalar(), [1.0, 2.0]), (pendulum_model(), [0.1, 0.0])):
            with pytest.raises(ValueError, match=f"has size 2, but model '{model.name}' has state dimension"):
                mpc_run(model, 4, sched, np.array(x0), 4)

    def test_startup_phase_is_recorded_separately(self):
        model = lq_scalar()
        trace = mpc_run(
            model, 6, constant_schedule(2, 4), np.array([1.0]), 8, startup=3
        )
        assert trace.startup_states.shape == (4, 1)
        assert trace.startup_costs.shape == (3,)
        # the audited trajectory begins where the startup ended
        np.testing.assert_allclose(trace.states[0], trace.startup_states[-1])
        assert trace.update_times[0] == 0

    def test_divergence_marks_the_trace(self, monkeypatch):
        model = lq_scalar()
        original = model.step
        calls = {"n": 0}

        def failing_step(x, u):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise DivergenceError("forced blow-up")
            return original(x, u)

        monkeypatch.setattr(model, "step", failing_step)
        trace = mpc_run(model, 4, constant_schedule(1, 5), np.array([1.0]), 5)
        assert trace.failure is not None
        assert "blow-up" in trace.failure
        assert trace.steps == 2  # two moves landed before the failure
        assert trace.final_value is None
        with pytest.raises(ValueError, match="truncated"):
            trace.window_values()

    def test_divergence_after_the_startup_marks_the_trace(self, monkeypatch):
        model = lq_scalar()
        original = model.step
        calls = {"n": 0}

        def failing_step(x, u):
            calls["n"] += 1
            if calls["n"] >= 4:  # two startup moves, one audited move, then the failure
                raise DivergenceError("forced blow-up")
            return original(x, u)

        monkeypatch.setattr(model, "step", failing_step)
        trace = mpc_run(model, 4, constant_schedule(1, 5), np.array([1.0]), 5, startup=2)
        assert trace.failure.startswith("divergence at step 1")
        assert trace.steps == 1
        assert trace.startup_states.shape == (3, 1)
        np.testing.assert_array_equal(trace.startup_states[-1], trace.states[0])
        assert trace.update_times == (0, 1)

    def test_divergence_during_startup_raises(self, monkeypatch):
        model = lq_scalar()

        def failing_step(x, u):
            raise DivergenceError("forced blow-up")

        monkeypatch.setattr(model, "step", failing_step)
        with pytest.raises(DivergenceError, match="startup"):
            mpc_run(model, 4, constant_schedule(1, 2), np.array([1.0]), 2, startup=1)

    def test_updates_carry_solver_diagnostics(self, monkeypatch):
        # the quasi-Newton route's counters, on a plant it would not be
        # chosen for, so they can be checked against an exact optimum
        monkeypatch.setattr(loop, "solve_finite_horizon", _solve_quasi_newton)
        trace = mpc_run(lq_scalar(), 6, constant_schedule(2, 3), np.array([1.0]), 6)
        for rec in trace.updates:
            assert rec.converged
            assert rec.nfev >= rec.iterations >= 1
            assert 0.0 <= rec.grad_norm < 1e-6

    def test_updates_on_the_exact_route(self):
        trace = mpc_run(lq_scalar(), 20, constant_schedule(2, 3), np.array([1.0]), 6)
        assert trace.all_converged
        for rec in trace.updates:
            assert rec.converged
            assert (rec.iterations, rec.nfev) == (0, 1)
            assert 0.0 <= rec.grad_norm < 1e-6

    def test_window_values_close_every_window(self):
        model = lq_scalar()
        trace = mpc_run(model, 6, constant_schedule(2, 5), np.array([1.0]), 10)
        pairs = trace.window_values()
        assert len(pairs) == 5
        for k, (rec, nxt) in enumerate(pairs[:-1]):
            assert nxt == trace.updates[k + 1].value
        assert pairs[-1][1] == trace.final_value


class TestMeasuredAlpha:
    def test_classical_lq_loop_is_nearly_optimal(self):
        model = lq_scalar()
        trace = mpc_run(model, 6, constant_schedule(1, 30), np.array([1.0]), 30)
        a = measured_alpha(trace)
        assert 0.99 < a <= 1.0

    def test_dominates_the_certificate(self):
        model = lq_scalar()
        gamma = gamma_from_riccati(model, 6)
        for m in (1, 2, 3):
            cert = certificate(CertificateQuery(gamma, 6, m))
            trace = mpc_run(model, 6, constant_schedule(m, 12), np.array([1.0]), 12)
            assert measured_alpha(trace) >= cert.alpha - 1e-6

    def test_truncation_level_discards_settled_windows(self):
        model = lq_scalar()
        trace = mpc_run(model, 6, constant_schedule(1, 25), np.array([1.0]), 25)
        # with a huge epsilon every window sits inside the practical ball,
        # so nothing is measured and the neutral value 1 comes back
        assert measured_alpha(trace, epsilon=1e6) == 1.0

    def test_epsilon_validation(self):
        model = lq_scalar()
        trace = mpc_run(model, 4, constant_schedule(1, 2), np.array([1.0]), 2)
        for epsilon in (-1.0, math.nan):
            with pytest.raises(ValueError, match="epsilon must be nonnegative"):
                measured_alpha(trace, epsilon=epsilon)


class TestLyapunovAudit:
    def _trace(self, m=2, steps=12):
        return mpc_run(
            lq_scalar(), 6, constant_schedule(m, steps), np.array([1.0]), steps
        )

    def test_certified_alpha_passes(self):
        model = lq_scalar()
        gamma = gamma_from_riccati(model, 6)
        cert = certificate(CertificateQuery(gamma, 6, 2))
        assert cert.alpha > 0
        audit = verify_relaxed_lyapunov(self._trace(), cert.alpha)
        assert audit.ok
        assert not audit.violations
        assert audit.worst_margin > -1e-6
        assert audit.cost_ratio <= 1.0 + 1e-6

    def test_inflated_alpha_is_caught(self):
        audit = verify_relaxed_lyapunov(self._trace(), 1.0)
        assert not audit.ok
        assert len(audit.violations) >= 1
        assert audit.worst_margin < 0

    def test_window_accounting(self):
        trace = self._trace(m=2, steps=12)
        audit = verify_relaxed_lyapunov(trace, 0.1)
        assert len(audit.windows) == len(trace.updates)
        w = audit.windows[0]
        lam = trace.stage_costs[w.time : w.time + w.m]
        assert w.required == pytest.approx(0.1 * float(np.sum(lam)), rel=1e-12)
        assert w.margin == pytest.approx(w.decrease - w.required, rel=1e-12)

    def test_cost_bound_is_value_over_alpha(self):
        trace = self._trace()
        audit = verify_relaxed_lyapunov(trace, 0.25)
        assert audit.cost_bound == pytest.approx(trace.updates[0].value / 0.25, rel=1e-12)
        assert audit.realized_cost == pytest.approx(float(np.sum(trace.stage_costs)), rel=1e-12)

    def test_tolerance_is_relative(self):
        # LQ loops are homogeneous: from 1e-10 x0 every value is 1e-20 times
        # the one from x0, so the audit must flag the same windows.  At
        # N = 3, m = 2 windows decrease by 0.8 of their cost and m = 1
        # windows by 0.92, so alpha = 0.85 splits them
        sched = dropout_schedule(0.5, 2, 8, seed=3)
        flagged = []
        for x0 in (1.0, 1e-10):
            trace = mpc_run(lq_scalar(), 3, sched, np.array([x0]), 8)
            audit = verify_relaxed_lyapunov(trace, 0.85)
            flagged.append([v.index for v in audit.violations])
            assert 0 < len(audit.violations) < len(audit.windows)
        assert flagged[0] == flagged[1]

    def test_loop_at_the_target_meets_its_bound(self):
        # realized cost 0 against a bound of 0: nothing is spent
        trace = mpc_run(lq_scalar(), 6, constant_schedule(1, 3), np.array([0.0]), 3)
        audit = verify_relaxed_lyapunov(trace, 0.5)
        assert audit.realized_cost == 0.0 and audit.cost_bound == 0.0
        assert audit.cost_ratio == 0.0
        assert audit.cost_ok and audit.ok

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            verify_relaxed_lyapunov(self._trace(), 0.0)
        with pytest.raises(ValueError):
            verify_relaxed_lyapunov(self._trace(), -0.5)


class TestTraceCsv:
    def test_layout(self, tmp_path):
        trace = mpc_run(lq_scalar(), 6, constant_schedule(2, 3), np.array([1.0]), 6)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path, config_line="model=lq-scalar N=6")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "#config model=lq-scalar N=6"
        assert lines[1] == "n,x1,u1,lambda,update_flag,m_k,V_N"
        assert len(lines) == 2 + 6 + 1  # header rows + steps + terminal row
        first = lines[2].split(",")
        assert first[0] == "0"
        assert first[4] == "1"  # update at time 0
        assert first[5] == "2"  # with window length 2
        second = lines[3].split(",")
        assert second[4] == "0"
        assert second[5] == ""
        terminal = lines[-1].split(",")
        assert terminal[0] == "6"
        assert terminal[-1] != ""  # V_N at the terminal state

    def test_layout_of_a_two_state_plant(self, tmp_path):
        trace = mpc_run(lq_double_integrator(), 6, constant_schedule(2, 2), np.array([1.0, 0.0]), 4)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,x1,x2,u1,lambda,update_flag,m_k,V_N"
        assert [len(line.split(",")) for line in lines[1:]] == [8] * 5
        terminal = lines[-1].split(",")
        assert terminal[0] == "4" and terminal[3:7] == ["", "", "0", ""]
        assert float(terminal[7]) == pytest.approx(trace.final_value, rel=1e-11)

    def test_a_trace_that_diverged_at_once_has_no_terminal_value(self, tmp_path):
        trace = mpc_run(lq_scalar(), 6, constant_schedule(1, 3), np.array([1e9]), 3)
        assert trace.failure.startswith("divergence at step 0") and trace.steps == 0
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        assert path.read_text().splitlines() == ["n,x1,u1,lambda,update_flag,m_k,V_N", "0,1000000000,,,0,,"]

    def test_terminal_value_closes_the_last_window(self, tmp_path):
        trace = mpc_run(lq_scalar(), 5, constant_schedule(1, 4), np.array([1.0]), 4)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        last = path.read_text().strip().splitlines()[-1].split(",")
        assert float(last[-1]) == pytest.approx(trace.final_value, rel=1e-11)
