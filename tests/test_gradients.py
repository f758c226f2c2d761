"""Discrete-adjoint rollout gradients against a finite-difference oracle."""
import math

import numpy as np
import pytest

from conftest import nonsymmetric_lq
from mpccert.sim import lq_double_integrator, lq_scalar, pendulum_model
from mpccert.sim.models import _SGN_EPS
from mpccert.sim.shooting import _BARRIER, _evaluate


def central_difference(f, u: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order central differences of a scalar function of an array:
    truncation error O(h^4), round-off O(eps |f| / h)."""
    g = np.empty_like(u)
    for i in np.ndindex(u.shape):
        e = np.zeros_like(u)
        e[i] = h
        g[i] = (f(u - 2 * e) - 8 * f(u - e) + 8 * f(u + e) - f(u + 2 * e)) / (12 * h)
    return g


def assert_gradient_matches(adjoint: np.ndarray, oracle: np.ndarray, rel: float = 1e-6) -> None:
    assert adjoint.shape == oracle.shape
    assert np.all(np.isfinite(adjoint))
    err = float(np.max(np.abs(adjoint - oracle)))
    assert err <= rel * float(np.max(np.abs(oracle))), err


def seeded_cost(model, x0, seeds):
    """sum of stage costs + sum_k <seeds[k], x_{k+1}>, from one rollout."""

    def f(u):
        states, costs = model.rollout(x0, u)
        return float(np.sum(costs) + np.sum(seeds * states[1:]))

    return f


LQ_CASES = [
    (lq_scalar, [1.3]),
    (lq_double_integrator, [0.5, -1.0]),
    (nonsymmetric_lq, [1.0, -0.5, 0.25]),
]


class TestLqAdjoint:
    @pytest.mark.parametrize("make, x0", LQ_CASES)
    def test_random_controls_and_seeds(self, make, x0):
        model = make()
        x0 = np.array(x0)
        rng = np.random.default_rng(7)
        for n in (1, 2, 9):
            u = rng.normal(size=(n, model.control_dim))
            seeds = rng.normal(size=(n, model.state_dim))
            states, _ = model.rollout(x0, u)
            assert_gradient_matches(
                model.cost_gradient(states, u, seeds),
                central_difference(seeded_cost(model, x0, seeds), u, 1e-3),
            )

    @pytest.mark.parametrize("make, x0", LQ_CASES)
    def test_no_seeds_is_the_stage_cost_gradient(self, make, x0):
        model = make()
        x0 = np.array(x0)
        u = np.random.default_rng(3).normal(size=(6, model.control_dim))
        states, _ = model.rollout(x0, u)
        zero = np.zeros((6, model.state_dim))
        np.testing.assert_array_equal(
            model.cost_gradient(states, u), model.cost_gradient(states, u, zero)
        )

    def test_scalar_two_step_by_hand(self):
        # J = x0^2 + u0^2 + (2 x0 + u0)^2 + u1^2 with (a, b, q, r) = (2, 1, 1, 1)
        model = lq_scalar()
        u = np.array([[0.5], [-1.0]])
        states, _ = model.rollout(np.array([1.0]), u)
        np.testing.assert_allclose(
            model.cost_gradient(states, u), [[2 * 0.5 + 2 * 2.5], [-2.0]], rtol=1e-15
        )


class TestPendulumAdjoint:
    def test_random_controls_and_seeds(self):
        model = pendulum_model()
        rng = np.random.default_rng(11)
        for x0 in ([math.pi + 1.4, 0.0, 0.0, 0.0], [0.3, -0.5, 0.2, 0.1]):
            x0 = np.array(x0)
            u = rng.normal(size=(5, 1))
            seeds = rng.normal(size=(5, 4))
            states, costs = model.rollout(x0, u)
            assert np.all(np.isfinite(costs))
            assert_gradient_matches(
                model.cost_gradient(states, u, seeds),
                central_difference(seeded_cost(model, x0, seeds), u, 1e-3),
            )

    def test_reverse_pass_reads_the_forward_tape(self):
        # the rollout records each period's RK4 stages once; the reverse pass
        # reads them instead of integrating again, with identical results
        model = pendulum_model()
        x0 = np.array([math.pi + 1.4, 0.0, 0.0, 0.0])
        rng = np.random.default_rng(4)
        u = rng.normal(size=(6, 1))
        seeds = rng.normal(size=(6, 4))
        tape: list = []
        states, costs = model.rollout(x0, u, tape)
        plain_states, plain_costs = model.rollout(x0, u)
        np.testing.assert_array_equal(states, plain_states)
        np.testing.assert_array_equal(costs, plain_costs)
        assert len(tape) == 6 * model.substeps
        recomputed = model.cost_gradient(states, u, seeds)
        sweeps = []
        sweep = model._sweep
        model._sweep = lambda *args: sweeps.append(1) or sweep(*args)
        taped = model.cost_gradient(states, u, seeds, tape)
        assert not sweeps
        np.testing.assert_array_equal(taped, recomputed)

    def test_coarse_substeps(self):
        model = pendulum_model(T=0.2, substeps=4)
        x0 = np.array([1.0, 0.5, -0.2, 0.3])
        u = np.random.default_rng(2).normal(size=(4, 1))
        states, _ = model.rollout(x0, u)
        seeds = np.ones((4, 4))
        assert_gradient_matches(
            model.cost_gradient(states, u, seeds),
            central_difference(seeded_cost(model, x0, seeds), u, 1e-3),
        )

    def test_angle_box_penalty_enters_the_gradient(self):
        # start just inside the upper angle limit, spinning outward: the
        # shooting objective carries the quadratic box penalty
        model = pendulum_model()
        x0 = np.array([2.0 * math.pi - 0.05, 3.0, 0.0, 0.0])
        u = np.random.default_rng(5).normal(scale=0.5, size=(6, 1))
        states, costs, objective, grad = _evaluate(model, x0, u)
        assert np.max(states[1:, 0]) > model.x_upper[0]
        penalty = objective - float(np.sum(costs))
        assert penalty > float(np.sum(costs))  # the penalty dominates
        assert_gradient_matches(
            grad, central_difference(lambda v: _evaluate(model, x0, v)[2], u, 1e-4)
        )

    @pytest.mark.parametrize("x0", [[0.0, 0.0, 0.0, 0.0], [math.pi, 0.0, 0.0, 0.0]])
    def test_sign_deadband_at_the_equilibria(self, x0):
        # at zero angular velocity the friction sign sits in its deadband,
        # which has zero derivative; with u = 0 both equilibria are fixed
        # points, the dynamics are odd about them and the cost even, so the
        # exact gradient is zero and symmetric differences see no kick
        model = pendulum_model()
        x0 = np.array(x0)
        u = np.zeros((3, 1))
        states, _ = model.rollout(x0, u)
        np.testing.assert_allclose(states, np.tile(x0, (4, 1)), rtol=0.0, atol=1e-15)
        assert np.all(np.abs(states[:, 1]) < _SGN_EPS)
        grad = model.cost_gradient(states, u)
        oracle = central_difference(lambda v: float(np.sum(model.rollout(x0, v)[1])), u, 1e-3)
        assert np.all(np.isfinite(grad))
        np.testing.assert_allclose(grad, 0.0, atol=1e-9)
        np.testing.assert_allclose(oracle, 0.0, atol=1e-9)



# float.hex of a pendulum rollout and its taped cost gradient: x0, then the
# end state, the stage costs and the gradient, for u below and no seeds
PINNED_CONTROLS = [0.5, -1.0, 0.25, 2.0, -0.75, 0.125]
PINNED = [
    (
        [0.05, -0.1, 0.2, 0.0],  # near upright
        ["0x1.ea2dd2ecaecf3p-6", "-0x1.e6b1c8973b7f6p-6", "0x1.a947ae147ae12p-3", "0x1.ccccccccccccep-5"],
        ["0x1.97802ab9a9009p-19", "0x1.3b6076529f709p-17", "0x1.5509e0547e931p-17",
         "0x1.6717d2e9b0784p-16", "0x1.abe0fa681de8cp-19", "0x1.d1a9c38dc0323p-23"],
        ["-0x1.312ea181c73e3p-15", "-0x1.74c95939a5da8p-15", "-0x1.64dce34434a83p-17",
         "0x1.62e71e25e3526p-16", "-0x1.dfa276ef8f74bp-18", "0x1.5923d78726b7ep-20"],
    ),
    (
        [2.0 * math.pi - 0.01, 0.3, -0.5, 0.1],  # at the angle limit
        ["0x1.97c34e85b0972p+2", "0x1.74c2d8634aebcp-2", "-0x1.d970a3d70a3d4p-2", "0x1.4000000000007p-3"],
        ["0x1.4fdc2f11ef367p-9", "0x1.5e66ae43d30c8p-9", "0x1.4f123658d3343p-9",
         "0x1.9a7667b96b0d0p-8", "0x1.4763db2f8a67fp-7", "0x1.5d559daad3463p-7"],
        ["0x1.4a05304443ddbp-6", "0x1.1ca356a6e27bbp-6", "0x1.e9c3a817e2967p-7",
         "0x1.8a5df03a885bap-7", "0x1.dfae11c89f62ep-8", "0x1.48ccd8d20f071p-9"],
    ),
]


class _CountingTrig:
    """Stands in for ``math`` and counts its sin and cos calls."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def sin(self, v):
        self.calls += 1
        return math.sin(v)

    def cos(self, v):
        self.calls += 1
        return math.cos(v)


class TestPendulumKernel:
    @pytest.mark.parametrize("x0, end, costs, grad", PINNED)
    def test_rollout_and_taped_gradient_are_bit_stable(self, x0, end, costs, grad):
        # any change to the kernel's arithmetic that moves a bit fails here
        model = pendulum_model()
        u = np.array(PINNED_CONTROLS).reshape(6, 1)
        tape: list = []
        states, stage_costs = model.rollout(np.array(x0), u, tape)
        taped = model.cost_gradient(states, u, None, tape)
        assert [v.hex() for v in states[-1]] == end
        assert [v.hex() for v in stage_costs] == costs
        assert [v.hex() for v in taped.ravel()] == grad
        np.testing.assert_array_equal(model.cost_gradient(states, u), taped)

    def test_taped_reverse_pass_evaluates_trig_only_at_end_nodes(self, monkeypatch):
        # the tape holds every trig value of the stages and of the substeps'
        # start nodes; each period's end node costs four calls
        model = pendulum_model()
        u = np.array(PINNED_CONTROLS).reshape(6, 1)
        tape: list = []
        states, _ = model.rollout(np.array(PINNED[0][0]), u, tape)
        trig = _CountingTrig()
        monkeypatch.setattr("mpccert.sim.models.math", trig)
        model.cost_gradient(states, u, None, tape)
        assert trig.calls <= 4 * len(u)


class TestBarrier:
    @pytest.mark.parametrize(
        "make, x0, big",
        [
            (lq_scalar, [1.0], 1e200),
            (lq_double_integrator, [1.0, 0.0], 1e200),
            (pendulum_model, [0.1, 0.0, 0.0, 0.0], 1e160),
        ],
    )
    def test_overflowing_rollout_returns_the_barrier(self, make, x0, big):
        model = make()
        u = np.zeros((3, model.control_dim))
        u[1, 0] = big
        with np.errstate(over="ignore", invalid="ignore"):
            states, costs, objective, grad = _evaluate(model, np.array(x0), u)
        assert not math.isfinite(float(np.sum(costs)))
        assert objective == _BARRIER
        np.testing.assert_array_equal(grad, np.zeros_like(u))
