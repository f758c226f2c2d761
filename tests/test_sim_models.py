"""Plant models: dynamics, costs, divergence handling, integrator accuracy."""
import math

import numpy as np
import pytest

from mpccert.sim import (
    DivergenceError,
    LqModel,
    MODEL_NAMES,
    lq_double_integrator,
    lq_scalar,
    model_by_name,
    pendulum_model,
)
from mpccert.sim.models import DIVERGENCE_NORM, _FRICTION, _G, _LENGTH, _SGN_EPS


def _pendulum_rhs(x1: float, x2: float, x3: float, x4: float, u: float):
    """The pendulum's continuous-time right-hand side, written out once more
    as the oracle for the inlined sweep; the angle is measured from upright."""
    s = math.sin(x1 + math.pi)
    c = math.cos(x1 + math.pi)
    sgn = 1.0 if x2 > _SGN_EPS else (-1.0 if x2 < -_SGN_EPS else 0.0)
    acc = -(_G / _LENGTH) * s - (_FRICTION / _LENGTH) * x2 * abs(x2) - u * c - _FRICTION * sgn
    return x2, acc, x4, u


def integrate_sampled(field, x: np.ndarray, u: np.ndarray, T: float, substeps: int = 20) -> np.ndarray:
    """Textbook fixed-step RK4 over one control period for a generic vector
    field, the oracle for the models' inlined integrators.

    Raises :class:`DivergenceError` if the final state is non-finite or
    leaves the admissible norm ball.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    x = np.asarray(x, dtype=float).copy()
    u = np.asarray(u, dtype=float)
    h = float(T) / substeps
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(substeps):
            k1 = np.asarray(field(x, u), dtype=float)
            k2 = np.asarray(field(x + 0.5 * h * k1, u), dtype=float)
            k3 = np.asarray(field(x + 0.5 * h * k2, u), dtype=float)
            k4 = np.asarray(field(x + h * k3, u), dtype=float)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(x)):
        raise DivergenceError("integration produced a non-finite state")
    if float(np.max(np.abs(x))) > DIVERGENCE_NORM:
        raise DivergenceError(f"state norm exceeded {DIVERGENCE_NORM:g}")
    return x


@pytest.mark.parametrize("name", MODEL_NAMES)
class TestModelContract:
    """What ``SystemModel`` builds, once, on each plant's period map."""

    def test_rollout_matches_stepwise_recursion(self, name):
        m = model_by_name(name)
        u = np.random.default_rng(7).normal(size=(6, m.control_dim))
        states, costs = m.rollout(m.default_x0, u)
        assert states.shape == (7, m.state_dim) and costs.shape == (6,)
        x = m.default_x0
        for k in range(6):
            assert costs[k] == m.stage_cost(x, u[k])
            x = m.f(x, u[k])
            np.testing.assert_array_equal(states[k + 1], x)

    def test_f_and_stage_cost_equal_step(self, name):
        m = model_by_name(name)
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = m.default_x0 + rng.normal(scale=0.5, size=m.state_dim)
            u = rng.normal(size=m.control_dim)
            x_next, cost = m.step(x, u)
            assert x_next.shape == (m.state_dim,)
            np.testing.assert_array_equal(x_next, m.f(x, u))
            assert type(cost) is float and cost == m.stage_cost(x, u)

    def test_rollout_freezes_after_blowup(self, name):
        # the cost overflows at period 3: the state freezes at x_3 and every
        # remaining cost is +inf, a wall for the line search
        m = model_by_name(name)
        u = np.zeros((8, m.control_dim))
        u[3:] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            states, costs = m.rollout(m.default_x0, u)
        assert np.all(np.isfinite(costs[:3])) and np.all(np.isinf(costs[3:]))
        assert np.all(np.isfinite(states))
        np.testing.assert_array_equal(states[4:], np.tile(states[3], (5, 1)))

    def test_step_raises_on_divergence(self, name):
        m = model_by_name(name)
        x = np.zeros(m.state_dim)
        x[-1] = 2.0 * DIVERGENCE_NORM
        with pytest.raises(DivergenceError, match="state norm exceeded"):
            m.step(x, np.zeros(m.control_dim))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
            m.step(m.default_x0, np.full(m.control_dim, 1e200))


class TestLqScalar:
    def test_dynamics_and_cost(self):
        m = lq_scalar()
        x = np.array([2.0])
        u = np.array([-1.0])
        np.testing.assert_allclose(m.f(x, u), [3.0])  # 2*2 - 1
        assert m.stage_cost(x, u) == 5.0  # 4 + 1

    def test_rollout_never_raises(self):
        # u^2 overflows immediately: states freeze at x0, every cost is +inf
        m = lq_scalar()
        states, costs = m.rollout(np.array([1.0]), np.full((400, 1), 1e155))
        assert np.all(np.isfinite(states))
        assert np.all(np.isinf(costs))

        # merely huge inputs are not divergence: everything stays finite
        states, costs = m.rollout(np.array([1.0]), np.full((400, 1), 1e30))
        assert np.all(np.isfinite(states))
        assert np.all(np.isfinite(costs))
        assert costs[-1] > 1e200

    def test_weight_validation(self):
        from mpccert.sim.models import LqScalarModel

        with pytest.raises(ValueError):
            LqScalarModel(q=0.0)


class TestLqMatrix:
    def test_double_integrator_structure(self):
        m = lq_double_integrator(dt=0.1)
        np.testing.assert_allclose(m.A, [[1.0, 0.1], [0.0, 1.0]])
        np.testing.assert_allclose(m.B, [[0.005], [0.1]])
        assert m.state_dim == 2
        assert m.control_dim == 1

    def test_cost_is_quadratic_form(self):
        m = lq_double_integrator()
        x = np.array([1.0, -2.0])
        u = np.array([0.5])
        assert m.stage_cost(x, u) == pytest.approx(1.0 + 4.0 + 0.25, rel=1e-14)

    def test_generic_rollout_matches_manual(self):
        m = lq_double_integrator()
        u = np.array([[1.0], [-1.0], [0.5]])
        states, costs = m.rollout(np.array([1.0, 0.0]), u)
        x = np.array([1.0, 0.0])
        for k in range(3):
            assert costs[k] == pytest.approx(m.stage_cost(x, u[k]), rel=1e-14)
            x = m.A @ x + m.B @ u[k]
        np.testing.assert_allclose(states[-1], x, rtol=1e-14)


    def test_weight_validation(self):
        A, B = [[1.0, 0.1], [0.0, 1.0]], [[0.0], [0.1]]
        # weights enter through their symmetric parts: a skew part is harmless
        LqModel(A, B, [[1.0, 3.0], [-3.0, 1.0]], [[1.0]])
        LqModel(A, B, [[1.0, 1.0], [1.0, 1.0]], [[1.0]])  # singular Q is allowed
        LqModel(A, B, np.zeros((2, 2)), [[1.0]])
        for Q, R in (
            ([[1.0, 0.0], [0.0, -1e-3]], [[1.0]]),  # indefinite Q
            ([[1.0, 2.0], [2.0, 1.0]], [[1.0]]),
            (np.eye(2), [[0.0]]),  # singular R
            (np.eye(2), [[-1.0]]),
            (np.eye(2), [[np.nan]]),
            (np.eye(3), [[1.0]]),  # shapes that do not fit
            (np.eye(2), np.eye(2)),
        ):
            with pytest.raises(ValueError):
                LqModel(A, B, Q, R)
        two_inputs = np.eye(2)
        with pytest.raises(ValueError, match="positive definite"):
            LqModel(A, two_inputs, np.eye(2), [[1.0, 2.0], [2.0, 1.0]])


class TestPendulum:
    def test_target_is_an_exact_fixed_point(self):
        m = pendulum_model()
        x = np.zeros(4)
        x_next = m.f(x, np.array([0.0]))
        np.testing.assert_allclose(x_next, x, atol=1e-15)

    def test_hanging_position_is_a_fixed_point(self):
        m = pendulum_model()
        x = np.array([math.pi, 0.0, 0.0, 0.0])
        x_next = m.f(x, np.array([0.0]))
        np.testing.assert_allclose(x_next, x, atol=1e-12)

    def test_cost_vanishes_only_at_the_target(self):
        # the dynamics carry the upright angle as an offset from pi, so the
        # residual acceleration at the origin is sin(pi) ~ 1.2e-16; over one
        # sampling period that leaves a cost of order 1e-71, not exactly 0
        m = pendulum_model()
        at_target = m.stage_cost(np.zeros(4), np.array([0.0]))
        assert 0.0 <= at_target < 1e-60
        assert m.stage_cost(np.array([0.3, 0.0, 0.0, 0.0]), np.array([0.0])) > 0.0
        assert m.stage_cost(np.array([0.0, 0.0, 5.0, 0.0]), np.array([0.0])) > 0.0

    def test_hanging_cost_reduces_to_constant_quadrature(self):
        # at the hanging equilibrium with u = 0 the running cost is the
        # constant (2 * ((1 - cos pi) * 2)^2)^2 = 1024, so the Simpson
        # integral over one period T = 0.05 is 51.2
        c = pendulum_model().stage_cost(np.array([math.pi, 0.0, 0.0, 0.0]), np.array([0.0]))
        assert c == pytest.approx(51.2, rel=1e-12)

    def test_inlined_sweep_matches_generic_integrator(self):
        # the production sweep inlines the RK4 stages; it must agree with a
        # straightforward RK4 on the published right-hand side
        m = pendulum_model()
        field = lambda x, u: np.array(_pendulum_rhs(x[0], x[1], x[2], x[3], u[0]))
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.uniform([-3, -2, -5, -2], [3, 2, 5, 2])
            u = rng.uniform(-3, 3, size=1)
            fast = m.f(x, u)
            slow = integrate_sampled(field, x, u, m.T, substeps=m.substeps)
            np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-12)

    def test_stage_cost_is_nonnegative(self):
        m = pendulum_model()
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.uniform(-4, 4, size=4)
            u = rng.uniform(-5, 5, size=1)
            assert m.stage_cost(x, u) >= 0.0

    def test_angle_box_documented_on_model(self):
        m = pendulum_model()
        lim = 2.0 * math.pi - 0.01
        assert m.x_lower[0] == -lim
        assert m.x_upper[0] == lim
        assert np.isinf(m.x_lower[1])

    def test_step_integrates_one_period(self):
        # step, f and stage_cost each run one sweep; the wrapper takes
        # positional arguments only, as the benchmark's period counter does
        m = pendulum_model()
        sweeps = []
        sweep = m._sweep
        m._sweep = lambda *args: sweeps.append(1) or sweep(*args)
        m.step(m.default_x0, np.array([0.3]))
        assert len(sweeps) == 1
        m.f(m.default_x0, np.array([0.3]))
        m.stage_cost(m.default_x0, np.array([0.3]))
        assert len(sweeps) == 3

    def test_substeps_must_be_even(self):
        with pytest.raises(ValueError):
            pendulum_model(substeps=5)


class TestGenericIntegrator:
    def test_fourth_order_on_linear_decay(self):
        # dx/dt = -x over one unit at h = 0.05: classical RK4 accumulates
        # roughly n * h^5 / 120 ~ 5e-8 of global error (measured ~2e-8)
        field = lambda x, u: -x
        x1 = integrate_sampled(field, np.array([1.0]), np.array([0.0]), 1.0, substeps=20)
        assert x1[0] == pytest.approx(math.exp(-1.0), abs=5e-8)
        # quartic convergence: doubling the substep count shrinks the error
        # by roughly 2^4
        x2 = integrate_sampled(field, np.array([1.0]), np.array([0.0]), 1.0, substeps=40)
        e1 = abs(x1[0] - math.exp(-1.0))
        e2 = abs(x2[0] - math.exp(-1.0))
        assert e2 < e1 / 10.0

    def test_divergence_detection(self):
        field = lambda x, u: x * x  # finite-time blow-up
        with pytest.raises(DivergenceError):
            integrate_sampled(field, np.array([1e4]), np.array([0.0]), 10.0, substeps=20)

    def test_substep_validation(self):
        with pytest.raises(ValueError):
            integrate_sampled(lambda x, u: -x, np.array([1.0]), np.array([0.0]), 1.0, substeps=0)


class TestRegistry:
    def test_names_round_trip(self):
        for name in MODEL_NAMES:
            assert model_by_name(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown model"):
            model_by_name("unicycle")
