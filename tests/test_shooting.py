"""Finite-horizon solves on both routes against the exact (Riccati) solution."""
import math

import numpy as np
import pytest

from conftest import nonsymmetric_lq
from mpccert.sim import (
    LqModel,
    LqScalarModel,
    ShootingProblem,
    lq_double_integrator,
    lq_scalar,
    pendulum_model,
    riccati_value,
    shift_guess,
    solve_finite_horizon,
)
from mpccert.sim import lq, shooting
from mpccert.sim.shooting import _evaluate, _solve_quasi_newton


class TestRiccatiRecursion:
    def test_scalar_sequence(self):
        # backward recursion for (a, b, q, r) = (2, 1, 1, 1):
        # p_1 = 1, p_{k+1} = 1 + 4 p_k / (1 + p_k) -> 1, 3, 4, 4.2, ...
        p = lq._scalar(2.0, 1.0, 1.0, 1.0, 5)[0]
        assert p[0] == 1.0
        assert p[1] == 3.0
        assert p[2] == 4.0
        assert p[3] == pytest.approx(4.2, rel=1e-14)
        assert p[4] == pytest.approx(4.230769230769, rel=1e-10)

    def test_scalar_sequence_converges_to_the_fixed_point(self):
        # closed form for the limit: p = 2 + sqrt(5)
        p = lq._scalar(2.0, 1.0, 1.0, 1.0, 60)[0]
        assert p[-1] == pytest.approx(2.0 + math.sqrt(5.0), rel=1e-12)

    def test_matrix_recursion_agrees_with_scalar(self):
        P = lq._matrix(
            np.array([[2.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]), 5
        )[0]
        p = lq._scalar(2.0, 1.0, 1.0, 1.0, 5)[0]
        for Pk, pk in zip(P, p):
            assert Pk[0, 0] == pytest.approx(pk, rel=1e-13)

    def test_value_is_quadratic(self):
        m = lq_scalar()
        v1 = riccati_value(m, 6, np.array([1.0]))
        v3 = riccati_value(m, 6, np.array([3.0]))
        assert v3 == pytest.approx(9.0 * v1, rel=1e-13)


class TestScalarShooting:
    def test_matches_riccati_value(self):
        model = lq_scalar()
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(40):
            n = int(rng.integers(2, 11))
            x0 = np.array([float(rng.uniform(-3, 3))])
            sol = solve_finite_horizon(ShootingProblem(model, n, x0))
            expect = riccati_value(model, n, x0)
            err = abs(sol.value - expect) / max(1.0, expect)
            worst = max(worst, err)
        assert worst < 1e-6

    def test_matches_riccati_feedback(self):
        # the optimal open-loop controls coincide with the time-varying
        # feedback gains applied along the optimal trajectory
        model = lq_scalar()
        n = 6
        x0 = np.array([2.0])
        sol = solve_finite_horizon(ShootingProblem(model, n, x0))
        gains = lq._matrix(
            np.array([[model.a]]), np.array([[model.b]]),
            np.array([[model.q]]), np.array([[model.r]]), n,
        )[1]
        x = x0.copy()
        for k in range(n):
            u_expect = -(gains[n - 1 - k] @ x)
            assert sol.controls[k, 0] == pytest.approx(u_expect.item(), abs=1e-5)
            x = np.array([model.a * x[0] + model.b * sol.controls[k, 0]])

    def test_accuracy_survives_tiny_states(self):
        # the objective normalization must keep relative accuracy as the
        # closed loop contracts: solve from a state twelve orders down
        model = lq_scalar()
        x0 = np.array([1e-12])
        sol = _solve_quasi_newton(ShootingProblem(model, 6, x0))
        expect = riccati_value(model, 6, x0)
        assert sol.value == pytest.approx(expect, rel=1e-6)

    def test_matches_riccati_to_1e9_through_N15(self):
        # single shooting on this plant is ill-conditioned (about 4^N): the
        # gradient must be exact for V_N to reach 1e-9 at N = 13..15
        model = lq_scalar()
        for n in range(2, 16):
            for x in (1.0, -0.7, 2.5, 1e-3):
                x0 = np.array([x])
                sol = _solve_quasi_newton(ShootingProblem(model, n, x0))
                assert sol.converged, (n, x)
                assert sol.value == pytest.approx(riccati_value(model, n, x0), rel=1e-9), (n, x)

    def test_diagnostics(self):
        # grad_norm is the normalized gradient's inf-norm at the returned
        # controls; the normalization is the one-step cost at x0
        model = lq_scalar()
        x0 = np.array([2.0])
        sol = _solve_quasi_newton(ShootingProblem(model, 8, x0))
        _, _, _, grad = _evaluate(model, x0, sol.controls)
        scale = model.stage_cost(x0, model.u_star)
        assert sol.grad_norm == pytest.approx(float(np.max(np.abs(grad))) / scale, rel=1e-12)
        assert sol.grad_norm < 1e-6
        assert sol.nfev >= sol.iterations >= 1

    def test_grad_norm_is_projected_onto_active_bounds(self):
        # u_0 would go to about -1.9 unbounded; at the bound the raw gradient
        # still pulls outward, the projected one is zero
        model = lq_scalar()
        model.u_lower = np.array([-0.5])
        x0 = np.array([2.0])
        sol = solve_finite_horizon(ShootingProblem(model, 4, x0))
        assert sol.converged
        assert sol.controls[0, 0] == -0.5
        _, _, _, grad = _evaluate(model, x0, sol.controls)
        assert grad[0, 0] / model.stage_cost(x0, model.u_star) > 1.0
        assert sol.grad_norm < 1e-6

    def test_converged_flag_and_costs(self):
        model = lq_scalar()
        sol = solve_finite_horizon(ShootingProblem(model, 5, np.array([1.0])))
        assert sol.converged
        assert sol.stage_costs.shape == (5,)
        assert sol.value == pytest.approx(float(np.sum(sol.stage_costs)), rel=1e-14)
        assert sol.states.shape == (6, 1)

    def test_warm_start_is_honored(self):
        model = lq_scalar()
        x0 = np.array([1.0])
        cold = _solve_quasi_newton(ShootingProblem(model, 8, x0))
        warm = _solve_quasi_newton(ShootingProblem(model, 8, x0, guess=cold.controls))
        assert warm.value == pytest.approx(cold.value, rel=1e-9)
        assert warm.iterations <= cold.iterations


class TestMatrixShooting:
    def test_double_integrator_matches_riccati(self):
        model = lq_double_integrator()
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            x0 = rng.uniform(-2, 2, size=2)
            sol = solve_finite_horizon(ShootingProblem(model, n, x0))
            expect = riccati_value(model, n, x0)
            assert sol.value == pytest.approx(expect, rel=1e-6, abs=1e-9)


def weights(model):
    """(A, B, Q, R) of an LQ model as matrices."""
    if isinstance(model, LqModel):
        return model.A, model.B, model.Q, model.R
    return [[model.a]], [[model.b]], [[model.q]], [[model.r]]


def assert_exact_route(sol) -> None:
    assert sol.converged
    assert sol.iterations == 0
    assert sol.nfev == 1


class TestRiccatiRoute:
    """Unbounded LQ plants are solved by rolling the Riccati feedback forward."""

    def test_scalar_value_is_exact_through_N60(self):
        # the quasi-Newton route drifts from N = 16 on (1e-5 .. 2e-2 relative)
        model = lq_scalar()
        for n in range(2, 61):
            for x in (1.0, -0.7, 2.5, 1e-3, 1e-12):
                x0 = np.array([x])
                sol = solve_finite_horizon(ShootingProblem(model, n, x0))
                assert_exact_route(sol)
                assert sol.value == pytest.approx(riccati_value(model, n, x0), rel=1e-12), (n, x)

    def test_double_integrator_value_is_exact(self):
        model = lq_double_integrator()
        for n in (10, 50):
            for x0 in ([1.0, 0.0], [0.0, 1.0], [-2.0, 0.5]):
                x0 = np.array(x0)
                sol = solve_finite_horizon(ShootingProblem(model, n, x0))
                assert_exact_route(sol)
                assert sol.value == pytest.approx(riccati_value(model, n, x0), rel=1e-12), (n, x0)

    @pytest.mark.parametrize("make, x0", [(lq_scalar, [2.0]), (lq_double_integrator, [-1.5, 0.7])])
    def test_controls_are_the_riccati_feedback_and_the_quasi_newton_optimum(self, make, x0):
        model = make()
        x0 = np.array(x0)
        for n in range(2, 11):
            sol = solve_finite_horizon(ShootingProblem(model, n, x0))
            gains = lq._matrix(*weights(model), n)[1]
            np.testing.assert_array_equal(sol.states[0], x0)
            for k in range(n):
                # u_k = -K_{N-k} x_k along the returned trajectory
                x = sol.states[k]
                np.testing.assert_allclose(sol.controls[k], -(gains[n - 1 - k] @ x), rtol=1e-12, atol=1e-15)
                np.testing.assert_allclose(sol.states[k + 1], model.f(x, sol.controls[k]), rtol=1e-15)
            qn = _solve_quasi_newton(ShootingProblem(model, n, x0))
            assert qn.iterations >= 1
            np.testing.assert_allclose(sol.controls, qn.controls, rtol=0, atol=1e-6)

    def test_nonsymmetric_weights_give_the_same_value_on_both_routes(self):
        model = nonsymmetric_lq()
        x0 = np.array([1.0, -0.5, 0.25])
        for n in (2, 5, 8):
            sol = solve_finite_horizon(ShootingProblem(model, n, x0))
            assert_exact_route(sol)
            qn = _solve_quasi_newton(ShootingProblem(model, n, x0))
            assert qn.converged and qn.iterations >= 1
            assert sol.value == pytest.approx(qn.value, rel=1e-9)
            assert sol.value == pytest.approx(riccati_value(model, n, x0), rel=1e-12)
            assert sol.value <= qn.value * (1.0 + 1e-12)

    def test_diagnostics(self):
        # one rollout and one reverse pass at the returned controls; the
        # normalized gradient vanishes there, and the warm start is unused
        model = lq_scalar()
        x0 = np.array([2.0])
        sol = solve_finite_horizon(ShootingProblem(model, 8, x0))
        assert_exact_route(sol)
        _, _, objective, grad = _evaluate(model, x0, sol.controls)
        scale = model.stage_cost(x0, model.u_star)
        assert sol.grad_norm == pytest.approx(float(np.max(np.abs(grad))) / scale, rel=1e-12)
        assert sol.grad_norm < 1e-12
        assert sol.objective == objective == sol.value
        warm = solve_finite_horizon(ShootingProblem(model, 8, x0, guess=np.ones((8, 1))))
        np.testing.assert_array_equal(warm.controls, sol.controls)

    def test_overflowing_rollout_is_not_converged(self):
        sol = solve_finite_horizon(ShootingProblem(lq_scalar(), 4, np.array([1e200])))
        assert sol.iterations == 0 and sol.nfev == 1
        assert not sol.converged
        assert math.isinf(sol.value)

    def test_bounds_select_the_quasi_newton_route(self):
        # control bounds on the scalar plant, a state box on the double
        # integrator: the feedback law would ignore both
        scalar = lq_scalar()
        scalar.u_lower = np.array([-0.5])
        boxed = lq_double_integrator()
        boxed.x_upper = np.array([np.inf, 1e-3])
        for model, x0 in ((scalar, [2.0]), (boxed, [-1.0, 0.0])):
            x0 = np.array(x0)
            sol = solve_finite_horizon(ShootingProblem(model, 4, x0))
            assert sol.iterations >= 1 and sol.nfev >= 2
            qn = _solve_quasi_newton(ShootingProblem(model, 4, x0))
            np.testing.assert_array_equal(sol.controls, qn.controls)
        assert sol.value > riccati_value(boxed, 4, x0)  # the box binds


def two_pass_reference(model, n: int, x0: np.ndarray) -> dict:
    """The exact route's fields built the long way: a fresh recursion's
    feedback rolled forward with ``model.f``, then one ``_evaluate`` (a second
    rollout and its reverse pass) at those controls."""
    controls = np.empty((n, model.control_dim))
    x = x0
    if isinstance(model, LqModel):
        gains = lq._matrix_recursion(model.A, model.B, model.Q, model.R, n)[1]
        for k in range(n):
            controls[k] = -(gains[n - 1 - k] @ x)
            x = model.f(x, controls[k])
    else:
        # scalar products, not 1x1 matmuls: those drop the sign of a zero control
        gains = lq._scalar_recursion(model.a, model.b, model.q, model.r, n)[1]
        for k in range(n):
            controls[k] = -gains[n - 1 - k] * x[0]
            x = model.f(x, controls[k])
    states, costs, objective, grad = _evaluate(model, x0, controls)
    value = float(np.sum(costs))
    # the normalization: the one-step cost at x0, else the idle sequence's objective, else 1
    scale = model.stage_cost(x0, model.u_star)
    if not (math.isfinite(scale) and scale > 1e-30):
        scale = _evaluate(model, x0, np.zeros_like(controls))[2]
    if not (math.isfinite(scale) and scale > 1e-30):
        scale = 1.0
    return {
        "controls": controls,
        "states": states,
        "stage_costs": costs,
        "value": value,
        "objective": objective,
        "converged": math.isfinite(value),
        "iterations": 0,
        "nfev": 1,
        "grad_norm": float(np.max(np.abs(grad))) / scale,
    }


def assert_same_bits(sol, ref: dict, where) -> None:
    for name, want in ref.items():
        got = getattr(sol, name)
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape) == (want.dtype, want.shape), (name, where)
            assert got.tobytes() == want.tobytes(), (name, where)
        elif isinstance(want, float):
            assert type(got) is float and got.hex() == want.hex(), (name, where, got, want)
        else:
            assert got == want, (name, where)


class TestExactRouteBitIdentity:
    """The one-pass exact route returns, bit for bit, what the feedback
    rollout followed by a separate evaluation returns."""

    @pytest.mark.parametrize("make", [lq_scalar, lq_double_integrator, nonsymmetric_lq])
    def test_every_field_matches_the_two_pass_reference(self, make):
        model = make()
        rng = np.random.default_rng(7)
        # below |x0| ~ 1e-15 the one-step cost falls under the scale's floor
        # and the scale comes from the idle rollout instead
        scales = (1.0, 1e-3, 1e-12, 1e-16, 0.0)
        for n in range(2, 61):
            x0 = scales[n % 5] * rng.uniform(-2.0, 2.0, model.state_dim)
            sol = solve_finite_horizon(ShootingProblem(model, n, x0))
            assert_same_bits(sol, two_pass_reference(model, n, x0), (n, x0))

    @pytest.mark.parametrize("make", [lq_scalar, lq_double_integrator, nonsymmetric_lq])
    def test_overflow_matches_the_two_pass_reference(self, make):
        # 1e200: the first stage cost overflows; 1e150: the states grow until
        # a later period leaves the range, and the feedback keeps producing
        # non-finite controls from the diverged state
        model = make()
        converged = []
        with np.errstate(all="ignore"):
            for n in (2, 4, 30, 60):
                for lead in (1e200, 1e150, -1e160):
                    x0 = np.full(model.state_dim, lead)
                    sol = solve_finite_horizon(ShootingProblem(model, n, x0))
                    assert_same_bits(sol, two_pass_reference(model, n, x0), (n, lead))
                    converged.append(sol.converged)
        assert not any(converged[:1]) and not all(converged)

    def test_a_period_that_overflows_only_its_next_state(self):
        # the last period's cost is finite but its next state is not, so the
        # rollout freezes the last state and counts an infinite cost
        model = LqScalarModel(a=1e160, b=1.0, q=1.0, r=1.0)
        x0 = np.array([1e-10])
        sol = solve_finite_horizon(ShootingProblem(model, 2, x0))
        assert_same_bits(sol, two_pass_reference(model, 2, x0), "last period")
        assert not sol.converged and math.isinf(sol.stage_costs[-1])

    def test_tiny_start_whose_idle_rollout_overflows(self):
        # the scale falls back to the zero sequence's objective, which is the
        # overflow barrier here, while the feedback loop itself stays finite
        model = LqScalarModel(a=1e100, b=1.0, q=1.0, r=1.0)
        x0 = np.array([1e-16])
        sol = solve_finite_horizon(ShootingProblem(model, 3, x0))
        assert sol.converged
        assert_same_bits(sol, two_pass_reference(model, 3, x0), "idle overflow")


class TestPendulumShooting:
    def test_short_solve_is_finite_and_nonincreasing(self):
        model = pendulum_model()
        x0 = np.array([math.pi + 1.4, 0.0, 0.0, 0.0])
        sol = solve_finite_horizon(ShootingProblem(model, 4, x0, maxiter=80))
        assert math.isfinite(sol.value)
        assert sol.value >= 0.0
        # optimization must beat the zero-control rollout it started from
        _, idle_costs = model.rollout(x0, np.zeros((4, 1)))
        assert sol.value < float(np.sum(idle_costs))

    def test_final_point_is_not_evaluated_again(self, monkeypatch):
        # the solution reuses the optimizer's last evaluation when it
        # returns that point, with the same diagnostics as a fresh one
        model = pendulum_model()
        x0 = np.array([math.pi + 1.4, 0.0, 0.0, 0.0])
        calls = []
        monkeypatch.setattr(shooting, "_evaluate", lambda *a: calls.append(1) or _evaluate(*a))
        sol = solve_finite_horizon(ShootingProblem(model, 4, x0, maxiter=80))
        assert len(calls) == sol.nfev
        states, costs, total, _ = _evaluate(model, x0, sol.controls)
        np.testing.assert_array_equal(sol.states, states)
        np.testing.assert_array_equal(sol.stage_costs, costs)
        assert sol.objective == total


class TestProblemPlumbing:
    def test_option_validation(self):
        # on both routes: the unbounded plant is solved exactly, the bounded
        # one by quasi-Newton iterations; a cap below one iteration is
        # rejected when the problem is built
        bounded = lq_scalar()
        bounded.u_lower = np.array([-10.0])
        for model in (lq_scalar(), bounded):
            for bad in (0, -3):
                with pytest.raises(ValueError, match=f"maxiter must be >= 1, got {bad}"):
                    ShootingProblem(model, 4, np.array([1.0]), maxiter=bad)
            assert ShootingProblem(model, 4, np.array([1.0])).maxiter == 400
            sol = solve_finite_horizon(ShootingProblem(model, 4, np.array([1.0]), maxiter=1))
            assert sol.iterations <= 1

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            ShootingProblem(lq_scalar(), 0, np.array([1.0]))

    def test_guess_shape_is_enforced(self):
        p = ShootingProblem(lq_scalar(), 4, np.array([1.0]), guess=np.zeros(4))
        assert p.guess.shape == (4, 1)
        with pytest.raises(ValueError):
            ShootingProblem(lq_scalar(), 4, np.array([1.0]), guess=np.zeros(5))

    def test_shift_guess(self):
        u = np.arange(8.0).reshape(4, 2)
        shifted = shift_guess(u, 1)
        np.testing.assert_allclose(shifted[:3], u[1:])
        np.testing.assert_allclose(shifted[3], u[3])
        np.testing.assert_allclose(shift_guess(u, 0), u)
        with pytest.raises(ValueError):
            shift_guess(u, 5)

    def test_shift_guess_full_window(self):
        u = np.array([[1.0], [2.0], [3.0]])
        shifted = shift_guess(u, 3)
        np.testing.assert_allclose(shifted, [[3.0], [3.0], [3.0]])
