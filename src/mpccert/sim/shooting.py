"""Finite-horizon optimal control by direct single shooting.

The N-step open-loop problem is reduced to an unconstrained (or box-
constrained) program in the stacked control vector and handed to a
quasi-Newton method (L-BFGS-B).  Each objective evaluation is one model
rollout followed by one reverse pass through it (the model's discrete
adjoint, ``SystemModel.cost_gradient``), so value and exact gradient come
together at the cost of about two rollouts, whatever the horizon.  Two
details matter for certification work:

* the objective is normalized by its value at the initial guess, so the
  optimizer's relative termination tests keep working as the closed loop
  contracts toward the target and absolute cost values fall by many orders
  of magnitude;
* state-box requirements (only the pendulum has one) enter as a quadratic
  penalty, so the reported ``value`` — the pure stage-cost sum used in all
  Lyapunov arithmetic — is separated from the internal objective.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .models import SystemModel

__all__ = [
    "ShootingProblem",
    "ShootingSolution",
    "solve_finite_horizon",
    "shift_guess",
]

_BARRIER = 1e300  # returned where the rollout left the floating-point range


@dataclass
class ShootingProblem:
    """One open-loop optimal control problem instance.

    ``guess`` is an (N, control_dim) warm start; ``None`` means start from
    the zero sequence.  ``options`` may override maxiter / ftol / gtol.
    """

    model: SystemModel
    horizon: int
    x0: np.ndarray
    guess: Optional[np.ndarray] = None
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        self.x0 = np.asarray(self.x0, dtype=float).reshape(self.model.state_dim)
        if self.guess is not None:
            self.guess = np.asarray(self.guess, dtype=float).reshape(
                self.horizon, self.model.control_dim
            )


@dataclass(frozen=True)
class ShootingSolution:
    """Result of one shooting solve; best-so-far even when unconverged."""

    controls: np.ndarray  # (N, control_dim)
    states: np.ndarray  # (N+1, state_dim) rollout under `controls`
    stage_costs: np.ndarray  # (N,)
    value: float  # sum of stage costs (no penalty)
    objective: float  # value + state-box penalty
    converged: bool
    iterations: int
    message: str
    nfev: int  # objective evaluations, each one rollout and one reverse pass
    # inf-norm of the projected gradient of the normalized objective at
    # `controls` (the controls are not normalized, so for quadratic costs it
    # grows like 1 / |x0| as x0 shrinks)
    grad_norm: float


def _evaluate(model: SystemModel, x0: np.ndarray, controls: np.ndarray):
    """One rollout and one reverse pass: (states, costs, objective, gradient).

    The objective is the stage-cost sum plus the quadratic state-box
    penalty on x_1..x_N; the gradient is its derivative in the controls,
    shape (N, control_dim), with the penalty's derivative entering the
    reverse pass as per-state seeds.  A rollout that leaves the
    floating-point range gives ``_BARRIER`` and a zero gradient, a wall
    the line search backs away from.
    """
    states, costs = model.rollout(x0, controls)
    total = float(np.sum(costs))
    if not math.isfinite(total):
        return states, costs, _BARRIER, np.zeros_like(controls)
    seeds = None
    if model.x_lower is not None or model.x_upper is not None:
        violation = 0.0
        seeds = np.zeros_like(states[1:])
        for bound, side in ((model.x_lower, np.minimum), (model.x_upper, np.maximum)):
            if bound is not None:
                d = side(states[1:] - bound, 0.0)
                violation += float(np.sum(d * d))
                seeds += d
        total += model.state_penalty * violation
        seeds *= 2.0 * model.state_penalty
    return states, costs, total, model.cost_gradient(states, controls, seeds)


def solve_finite_horizon(problem: ShootingProblem) -> ShootingSolution:
    """Minimize the N-step cost from ``problem.x0`` over the control sequence.

    Convergence is declared by the quasi-Newton termination tests (projected
    gradient below gtol, or relative cost decrease below ftol on the
    normalized objective).  Hitting the iteration cap returns the best point
    found, flagged ``converged=False`` — callers decide whether that is
    acceptable.
    """
    from scipy.optimize import minimize  # deferred: importing scipy dominates start-up

    model = problem.model
    n = problem.horizon
    cdim = model.control_dim
    opts = {"maxiter": 400, "ftol": 1e-12, "gtol": 1e-9}
    unknown = set(problem.options) - set(opts)
    if unknown:
        raise ValueError(f"unknown solver options: {sorted(unknown)}")
    opts.update(problem.options)

    guess = problem.guess if problem.guess is not None else np.zeros((n, cdim))
    u0 = guess.reshape(-1)

    # normalize so the optimizer's relative tolerances track the problem's
    # own scale.  The one-step cost at x0 is within a bounded factor of the
    # optimal value (never the 4^N-fold overestimate a cold guess can give),
    # and it follows the closed loop's decay toward the target exactly —
    # keeping V_N accuracy relative as absolute costs fall through many
    # orders of magnitude.  At the target the cost is identically zero;
    # fall back to 1 there.
    try:
        f0 = float(model.stage_cost(problem.x0, model.u_star))
    except (OverflowError, ValueError, FloatingPointError):
        f0 = math.inf
    if not (math.isfinite(f0) and f0 > 1e-30):
        f0 = _evaluate(model, problem.x0, guess)[2]
    scale = f0 if (math.isfinite(f0) and f0 > 1e-30) else 1.0

    def objective(u_flat: np.ndarray) -> tuple[float, np.ndarray]:
        _, _, total, grad = _evaluate(model, problem.x0, u_flat.reshape(n, cdim))
        return total / scale, grad.reshape(-1) / scale

    bounds = model.control_bounds(n)
    res = minimize(
        objective,
        u0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={
            "maxiter": int(opts["maxiter"]),
            "ftol": float(opts["ftol"]),
            "gtol": float(opts["gtol"]),
            "maxfun": 100 * int(opts["maxiter"]) * max(1, u0.size),
        },
    )

    controls = np.asarray(res.x, dtype=float).reshape(n, cdim)
    states, costs, total, grad = _evaluate(model, problem.x0, controls)
    # the quantity L-BFGS-B tests against gtol: the step to the bounds
    # along the negative gradient, in the normalized objective
    u, g = controls.reshape(-1), grad.reshape(-1) / scale
    if bounds is not None:
        lo = np.array([-math.inf if b[0] is None else b[0] for b in bounds])
        hi = np.array([math.inf if b[1] is None else b[1] for b in bounds])
        g = u - np.clip(u - g, lo, hi)
    message = res.message if isinstance(res.message, str) else str(res.message)
    return ShootingSolution(
        controls=controls,
        states=states,
        stage_costs=np.asarray(costs, dtype=float),
        value=float(np.sum(costs)),
        objective=total,
        converged=bool(res.status == 0),
        iterations=int(res.nit),
        message=message,
        nfev=int(res.nfev),
        grad_norm=float(np.max(np.abs(g))),
    )


def shift_guess(controls: np.ndarray, applied: int) -> np.ndarray:
    """Warm start for the next update: drop the applied moves, pad by repeating
    the last one (the standard shift initialization)."""
    controls = np.asarray(controls, dtype=float)
    if applied < 0 or applied > controls.shape[0]:
        raise ValueError(f"applied = {applied} outside 0..{controls.shape[0]}")
    if applied == 0:
        return controls.copy()
    tail = controls[applied:]
    pad = np.repeat(controls[-1:], applied, axis=0)
    return np.concatenate([tail, pad], axis=0)
