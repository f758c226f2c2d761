"""Finite-horizon optimal control: exact for LQ plants, direct shooting otherwise.

``solve_finite_horizon`` is the one entry point.  It asks
:mod:`mpccert.sim.lq` for the problem's optimal feedback law; a problem
with one takes the Riccati route, every other the quasi-Newton route.

* **Riccati route.**  An LQ plant with no control and no state bounds has
  the N-step optimum in closed form: the backward Riccati recursion gives
  the gains K_1..K_N, and rolling the law u_k = -K_{N-k} x_k forward is
  the optimal control sequence.  No iterations, and V_N exact to
  round-off at every horizon and every |x0|, which single shooting on an
  unstable plant cannot give (its conditioning grows like the open-loop
  gain to the power 2N).  The recursion is memoized per plant weights and
  horizon, so the repeated solves of a closed loop share one; each solve
  is then one forward pass through the model's ``_period`` (controls,
  states and stage costs together) and one reverse pass through its
  ``_period_adjoint`` for ``grad_norm``.
* **Quasi-Newton route.**  Every other problem is reduced to a program in
  the stacked control vector and handed to L-BFGS-B.  Each objective
  evaluation is one model rollout followed by one reverse pass through it
  (the model's discrete adjoint, ``SystemModel.cost_gradient``), so value
  and exact gradient come together at the cost of about two rollouts,
  whatever the horizon.

Both routes return the same ``ShootingSolution``, with ``grad_norm`` taken
from one forward and one reverse pass at the returned controls.  Two
details of the quasi-Newton route matter for certification work:

* the objective is normalized by the one-step cost at x0, so the
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

from .lq import _feedback_law
from .models import SystemModel

__all__ = [
    "ShootingProblem",
    "ShootingSolution",
    "solve_finite_horizon",
    "shift_guess",
]

_BARRIER = 1e300  # returned where the rollout left the floating-point range
# L-BFGS-B's termination tests on the normalized objective: relative
# decrease below _FTOL, or projected gradient below _GTOL
_FTOL = 1e-12
_GTOL = 1e-9


@dataclass
class ShootingProblem:
    """One open-loop optimal control problem instance.

    ``guess`` is an (N, control_dim) warm start; ``None`` means start from
    the zero sequence.  ``options`` may override ``maxiter``.  Both are
    read by the quasi-Newton route only; the Riccati route needs
    neither, but rejects unknown options all the same.
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
    nfev: int  # objective evaluations, each one rollout and one reverse pass (1 on the Riccati route)
    # inf-norm of the projected gradient of the normalized objective at
    # `controls` (the controls are not normalized, so for quadratic costs it
    # grows like 1 / |x0| as x0 shrinks)
    grad_norm: float


def _objective(model: SystemModel, states: np.ndarray, costs: np.ndarray):
    """The objective of a rollout and its seeds for the reverse pass.

    The objective is the stage-cost sum plus the quadratic state-box
    penalty on x_1..x_N; the seeds, shape (N, state_dim), are the penalty's
    derivative in those states, or None for a model without a box.
    Returns None where the rollout left the floating-point range.
    """
    total = float(np.sum(costs))
    if not math.isfinite(total):
        return None
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
    return total, seeds


def _evaluate(model: SystemModel, x0: np.ndarray, controls: np.ndarray):
    """One rollout and one reverse pass: (states, costs, objective, gradient).

    The gradient is the objective's derivative in the controls, shape
    (N, control_dim), with the penalty's derivative entering the reverse
    pass as per-state seeds (see ``_objective``).  A rollout that leaves
    the floating-point range gives ``_BARRIER`` and a zero gradient, a wall
    the line search backs away from.
    """
    tape: list = []
    states, costs = model.rollout(x0, controls, tape)
    obj = _objective(model, states, costs)
    if obj is None:
        return states, costs, _BARRIER, np.zeros_like(controls)
    total, seeds = obj
    return states, costs, total, model.cost_gradient(states, controls, seeds, tape)


def solve_finite_horizon(problem: ShootingProblem) -> ShootingSolution:
    """Minimize the N-step cost from ``problem.x0`` over the control sequence.

    A problem with an optimal feedback law (an unbounded LQ plant) takes
    the exact Riccati route; everything else takes the quasi-Newton route
    (see the module docstring).
    """
    law = _feedback_law(problem.model, problem.horizon)
    return _solve_quasi_newton(problem) if law is None else _solve_riccati(problem, law)


def _solver_options(problem: ShootingProblem) -> dict:
    opts = {"maxiter": 400}
    unknown = set(problem.options) - set(opts)
    if unknown:
        raise ValueError(f"unknown solver options: {sorted(unknown)}")
    opts.update(problem.options)
    return opts


def _objective_scale(model: SystemModel, x0: np.ndarray, guess: np.ndarray) -> float:
    """Normalization of the objective: the one-step cost at x0.

    It is within a bounded factor of the optimal value (never the
    4^N-fold overestimate a cold guess can give), and it follows the
    closed loop's decay toward the target exactly — keeping V_N accuracy
    relative as absolute costs fall through many orders of magnitude.  At
    the target the cost is identically zero; fall back to the guess's
    objective there, and to 1 if that vanishes too.
    """
    try:
        f0 = model._period(x0.tolist(), model.u_star.tolist(), None)[1]
    except (OverflowError, ValueError, FloatingPointError):
        f0 = math.inf
    if not (math.isfinite(f0) and f0 > 1e-30):
        obj = _objective(model, *model.rollout(x0, guess))
        f0 = _BARRIER if obj is None else obj[0]
    return f0 if (math.isfinite(f0) and f0 > 1e-30) else 1.0


def _solve_riccati(problem: ShootingProblem, law) -> ShootingSolution:
    """Exact solve of an unbounded LQ problem: one forward and one reverse pass.

    ``law(k, x)`` is the optimal feedback u_k = -K_{N-k} x_k over the
    memoized gains of :mod:`mpccert.sim.lq`.  The forward pass applies it
    and steps with the model's own ``_period``, so controls, states and
    stage costs come out together, exactly as ``rollout`` would give them
    for those controls: once a period leaves the floating-point range the
    states freeze and the remaining costs are +inf, while the feedback keeps
    producing controls from the diverged state.  The reverse pass runs the
    model's ``_period_adjoint`` along the same lists for ``grad_norm``; past
    a blow-up there is none and the gradient counts as zero.
    """
    _solver_options(problem)  # unknown options are an error on either route
    model = problem.model
    n = problem.horizon
    x = problem.x0.tolist()
    xs, us, costs = [x], [], []
    live = True  # every period so far stayed in the floating-point range
    for k in range(n):
        u = law(k, x)
        x, c = model._period(x, u, None)
        us.append(u)
        live = live and math.isfinite(c) and all(map(math.isfinite, x))
        xs.append(x if live else xs[-1])
        costs.append(c if live else math.inf)
    stage_costs = np.array(costs)
    value = float(stage_costs.sum())
    finite = math.isfinite(value)
    grad = [0.0]  # all there is when the reverse pass is skipped
    if finite:
        lam = [0.0] * model.state_dim
        for k in range(n - 1, -1, -1):
            lam, gu = model._period_adjoint(k, xs[k], us[k], xs[k + 1], lam, None)
            grad += gu
    # the largest |gradient| entry, NaN if any is NaN, as numpy's max reports it
    grad_max = math.nan if any(map(math.isnan, grad)) else max(map(abs, grad))
    controls = np.array(us)
    scale = _objective_scale(model, problem.x0, np.zeros((n, model.control_dim)))
    return ShootingSolution(
        controls=controls,
        states=np.array(xs),
        stage_costs=stage_costs,
        value=value,
        objective=value if finite else _BARRIER,
        converged=finite,
        iterations=0,
        message="Riccati feedback" if finite else "Riccati feedback: rollout left the floating-point range",
        nfev=1,
        grad_norm=grad_max / scale,
    )


def _solve_quasi_newton(problem: ShootingProblem) -> ShootingSolution:
    """L-BFGS-B on the stacked controls, fed value and adjoint gradient.

    Convergence is declared by the quasi-Newton termination tests (projected
    gradient below ``_GTOL``, or relative cost decrease below ``_FTOL`` on the
    normalized objective).  Hitting the iteration cap returns the best point
    found, flagged ``converged=False`` — callers decide whether that is
    acceptable.
    """
    from scipy.optimize import Bounds, minimize  # deferred: importing scipy dominates start-up

    opts = _solver_options(problem)
    model = problem.model
    n = problem.horizon
    cdim = model.control_dim
    guess = problem.guess if problem.guess is not None else np.zeros((n, cdim))
    u0 = guess.reshape(-1)
    scale = _objective_scale(model, problem.x0, guess)

    last_u, last = b"", None  # the point evaluated last, as bytes, and its _evaluate result

    def objective(u_flat: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal last_u, last
        last_u, last = u_flat.tobytes(), _evaluate(model, problem.x0, u_flat.reshape(n, cdim))
        _, _, total, grad = last
        return total / scale, grad.reshape(-1) / scale

    bounds = model.control_bounds(n)
    res = minimize(
        objective,
        u0,
        jac=True,
        method="L-BFGS-B",
        bounds=None if bounds is None else Bounds(*bounds),
        options={
            "maxiter": int(opts["maxiter"]),
            "ftol": _FTOL,
            "gtol": _GTOL,
            "maxfun": 100 * int(opts["maxiter"]) * max(1, u0.size),
        },
    )

    controls = np.asarray(res.x, dtype=float).reshape(n, cdim)
    # L-BFGS-B usually returns the point it evaluated last; compared bit for
    # bit, so that reuse gives exactly what a new evaluation would
    if last_u == controls.tobytes():
        states, costs, total, grad = last
    else:
        states, costs, total, grad = _evaluate(model, problem.x0, controls)
    # the quantity L-BFGS-B tests against _GTOL: the step to the bounds
    # along the negative gradient, in the normalized objective
    u, g = controls.reshape(-1), grad.reshape(-1) / scale
    if bounds is not None:
        g = u - np.clip(u - g, *bounds)
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
