"""Receding-horizon closed loops with multi-step (networked) updates.

An update at time sigma(k) solves the N-step problem and applies the first
m_k moves open-loop, so sigma(k+1) = sigma(k) + m_k.  m_k = 1 is classical
MPC; m_k > 1 models feedback updates dropped by an unreliable channel, with
m* the worst tolerated gap.  The recorded trace carries exactly the
quantities the theory reasons about — per-update values V_N(x(sigma(k))),
stage costs along the executed trajectory — so the relaxed Lyapunov
inequality can be audited after the fact and the effective suboptimality
index can be measured.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .._output import fmt12, write_csv
from .models import DivergenceError, SystemModel
from .shooting import ShootingProblem, ShootingSolution, shift_guess, solve_finite_horizon

__all__ = [
    "Schedule",
    "constant_schedule",
    "dropout_schedule",
    "UpdateRecord",
    "ClosedLoopTrace",
    "mpc_run",
    "measured_alpha",
    "WindowCheck",
    "LyapunovAudit",
    "verify_relaxed_lyapunov",
    "trace_to_csv",
    "TRACE_COLUMNS",
]


@dataclass(frozen=True)
class Schedule:
    """Planned control horizons m_0, m_1, ... with their admissible cap m*."""

    m_values: tuple[int, ...]
    m_star: int

    def __post_init__(self) -> None:
        if self.m_star < 1:
            raise ValueError(f"m* = {self.m_star} must be >= 1")
        if not self.m_values:
            raise ValueError("schedule must contain at least one update")
        for k, m in enumerate(self.m_values):
            if not 1 <= m <= self.m_star:
                raise ValueError(f"m_{k} = {m} outside 1..m* = {self.m_star}")

    @property
    def total_steps(self) -> int:
        return sum(self.m_values)


def constant_schedule(m: int, updates: int) -> Schedule:
    """Every update applies exactly m moves."""
    if updates < 1:
        raise ValueError("need at least one update")
    return Schedule(m_values=(int(m),) * updates, m_star=int(m))


def dropout_schedule(p: float, m_star: int, updates: int, seed: int) -> Schedule:
    """Random gaps from i.i.d. transmission failures.

    After each applied move the next update is lost with probability p,
    capped at m* consecutive moves, so each m_k is capped-geometric with
    mean (1 - p^m*) / (1 - p).  Deterministic in ``seed``.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability p = {p} must lie in [0, 1)")
    if m_star < 1:
        raise ValueError(f"m* = {m_star} must be >= 1")
    if updates < 1:
        raise ValueError("need at least one update")
    rng = np.random.default_rng(seed)
    values = []
    for _ in range(updates):
        m = 1
        while m < m_star and rng.random() < p:
            m += 1
        values.append(m)
    return Schedule(m_values=tuple(values), m_star=m_star)


@dataclass(frozen=True)
class UpdateRecord:
    """One optimization instant: time sigma(k), applied horizon, value V_N,
    and the diagnostics of the solve that produced it."""

    index: int
    time: int
    m: int
    value: float
    converged: bool
    iterations: int
    nfev: int
    grad_norm: float


@dataclass(frozen=True)
class ClosedLoopTrace:
    """Executed trajectory plus everything the Lyapunov bookkeeping needs.

    The main phase starts after any startup prefix: ``states[0]`` is the
    state at the first audited update.  ``final_value`` is V_N at the
    terminal state, closing the last update window.  A divergence or solver
    abort truncates the arrays and sets ``failure``.
    """

    model_name: str
    horizon: int
    states: np.ndarray  # (T+1, state_dim)
    controls: np.ndarray  # (T, control_dim)
    stage_costs: np.ndarray  # (T,)
    updates: tuple[UpdateRecord, ...]
    final_value: Optional[float]
    final_converged: bool
    schedule: Schedule
    startup_states: Optional[np.ndarray] = None
    startup_costs: Optional[np.ndarray] = None
    failure: Optional[str] = None

    @property
    def steps(self) -> int:
        return self.controls.shape[0]

    @property
    def update_times(self) -> tuple[int, ...]:
        return tuple(u.time for u in self.updates)

    @property
    def all_converged(self) -> bool:
        return all(u.converged for u in self.updates) and (
            self.final_value is None or self.final_converged
        )

    def window_values(self) -> list[tuple[UpdateRecord, float]]:
        """Each update paired with the value at the *next* update instant."""
        if self.failure is not None or self.final_value is None:
            raise ValueError("trace is truncated; update windows are not all closed")
        out = []
        for k, rec in enumerate(self.updates):
            nxt = self.updates[k + 1].value if k + 1 < len(self.updates) else self.final_value
            out.append((rec, nxt))
        return out


def mpc_run(
    model: SystemModel,
    horizon: int,
    schedule: Schedule,
    x0,
    steps: int,
    *,
    startup: int = 0,
    solver_options: Optional[dict] = None,
) -> ClosedLoopTrace:
    """Run the multi-step receding-horizon loop for ``steps`` applied moves.

    ``startup`` classical (m = 1) steps precede the audited phase; they
    warm the optimizer into the right basin — the audited trace then starts
    from the post-startup state with a meaningful initial guess.  The final
    window is truncated if the schedule overshoots ``steps``; a schedule
    that cannot cover ``steps``, or whose m* exceeds ``horizon``, is
    rejected before any solve.

    Solver non-convergence is tolerated (recorded per update); state
    divergence aborts the run and marks the trace as failed.
    """
    if steps < 1:
        raise ValueError("need at least one applied move")
    if schedule.m_star > horizon:
        raise ValueError(f"m* = {schedule.m_star} exceeds the horizon N = {horizon}")
    if schedule.total_steps < steps:
        raise ValueError(
            f"schedule covers {schedule.total_steps} moves but {steps} were requested"
        )
    opts = dict(solver_options or {})
    x = np.asarray(x0, dtype=float).reshape(model.state_dim)
    warm: Optional[np.ndarray] = None

    startup_states: Optional[np.ndarray] = None
    startup_costs: Optional[np.ndarray] = None
    failure: Optional[str] = None
    if startup > 0:
        s_states = [x.copy()]
        s_costs = []
        for _ in range(startup):
            sol = solve_finite_horizon(
                ShootingProblem(model, horizon, x, guess=warm, options=opts)
            )
            try:
                x, c = model.step(x, sol.controls[0])
            except DivergenceError as exc:
                raise DivergenceError(f"divergence during startup: {exc}") from exc
            s_states.append(x.copy())
            s_costs.append(c)
            warm = shift_guess(sol.controls, 1)
        startup_states = np.asarray(s_states)
        startup_costs = np.asarray(s_costs)

    states = [x.copy()]
    controls: list[np.ndarray] = []
    costs: list[float] = []
    updates: list[UpdateRecord] = []
    applied = 0
    for k, m_k in enumerate(schedule.m_values):
        if applied >= steps:
            break
        m_eff = min(m_k, steps - applied)  # last window may be truncated
        sol = solve_finite_horizon(ShootingProblem(model, horizon, x, guess=warm, options=opts))
        updates.append(
            UpdateRecord(
                index=k,
                time=applied,
                m=m_eff,
                value=sol.value,
                converged=sol.converged,
                iterations=sol.iterations,
                nfev=sol.nfev,
                grad_norm=sol.grad_norm,
            )
        )
        aborted = False
        for i in range(m_eff):
            u = sol.controls[i]
            try:
                x, c = model.step(x, u)
            except DivergenceError as exc:
                failure = f"divergence at step {applied}: {exc}"
                aborted = True
                break
            controls.append(np.asarray(u, dtype=float).copy())
            costs.append(c)
            states.append(x.copy())
            applied += 1
        if aborted:
            break
        warm = shift_guess(sol.controls, m_eff)

    final_value: Optional[float] = None
    final_converged = False
    if failure is None:
        sol = solve_finite_horizon(ShootingProblem(model, horizon, x, guess=warm, options=opts))
        final_value = sol.value
        final_converged = sol.converged

    return ClosedLoopTrace(
        model_name=model.name,
        horizon=horizon,
        states=np.asarray(states),
        controls=np.asarray(controls).reshape(len(controls), model.control_dim),
        stage_costs=np.asarray(costs),
        updates=tuple(updates),
        final_value=final_value,
        final_converged=final_converged,
        schedule=schedule,
        startup_states=startup_states,
        startup_costs=startup_costs,
        failure=failure,
    )


def measured_alpha(trace: ClosedLoopTrace, epsilon: float = 0.0) -> float:
    """Observed suboptimality index along the executed trajectory.

    For each update window the local index is the Lyapunov decrease
    V_N(sigma(k)) - V_N(sigma(k+1)) divided by the executed stage cost with
    a truncation level epsilon subtracted per step; windows whose truncated
    cost is not strictly positive contribute 1 (nothing to certify there —
    the trajectory sits inside the practical-stability ball).  The measured
    index is the minimum over windows, and may be negative if the value
    function rose.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    worst = 1.0
    for rec, next_value in trace.window_values():
        lam = trace.stage_costs[rec.time : rec.time + rec.m]
        denom = float(np.sum(lam - epsilon))
        if denom > 0.0:
            worst = min(worst, (rec.value - next_value) / denom)
    return worst


@dataclass(frozen=True)
class WindowCheck:
    """Audit of one update window against the relaxed Lyapunov inequality."""

    index: int
    time: int
    m: int
    decrease: float  # V_N(sigma(k)) - V_N(sigma(k+1))
    required: float  # alpha * sum of executed stage costs
    margin: float  # decrease - required; below -tol * V_N(sigma(k)) = violation


@dataclass(frozen=True)
class LyapunovAudit:
    """Per-window margins plus the closed-loop performance inequality."""

    alpha: float
    tol: float  # relative: to V_N(sigma(k)) per window, to the bound for the cost
    windows: tuple[WindowCheck, ...]
    violations: tuple[WindowCheck, ...]
    worst_margin: float
    realized_cost: float
    cost_bound: float
    cost_ratio: float

    @property
    def cost_ok(self) -> bool:
        return self.cost_ratio <= 1.0 + self.tol

    @property
    def ok(self) -> bool:
        return not self.violations and self.cost_ok


def verify_relaxed_lyapunov(
    trace: ClosedLoopTrace, alpha: float, tol: float = 1e-6
) -> LyapunovAudit:
    """Audit a trace against a claimed index alpha > 0.

    Checks every update window for V_N decrease of at least alpha times the
    executed cost, up to ``tol`` relative to the window's opening value
    V_N(x(sigma(k))), and the accumulated cost against the performance
    bound V_N(x(0)) / alpha, up to ``tol`` relative to the bound.  Both
    tests are invariant under scaling all values, so the verdicts do not
    depend on how small V_N has fallen along the loop.  A loop that
    stays at the target spends nothing against a zero bound: its cost
    ratio is 0.  Violations are reported as data, not raised — a failed
    audit of a certified alpha is a finding, a failed audit of an inflated
    alpha is expected.
    """
    if not (alpha > 0.0):
        raise ValueError(f"audit needs alpha > 0, got {alpha}")
    windows = []
    violations = []
    worst = math.inf
    for rec, next_value in trace.window_values():
        lam = trace.stage_costs[rec.time : rec.time + rec.m]
        required = alpha * float(np.sum(lam))
        decrease = rec.value - next_value
        margin = decrease - required
        chk = WindowCheck(
            index=rec.index, time=rec.time, m=rec.m,
            decrease=decrease, required=required, margin=margin,
        )
        windows.append(chk)
        worst = min(worst, margin)
        if margin < -tol * rec.value:
            violations.append(chk)
    realized = float(np.sum(trace.stage_costs))
    bound = trace.updates[0].value / alpha
    if bound > 0:
        ratio = realized / bound
    else:
        ratio = 0.0 if realized == 0.0 else math.inf
    return LyapunovAudit(
        alpha=alpha,
        tol=tol,
        windows=tuple(windows),
        violations=tuple(violations),
        worst_margin=worst,
        realized_cost=realized,
        cost_bound=bound,
        cost_ratio=ratio,
    )


TRACE_COLUMNS = "n,{xcols},{ucols},lambda,update_flag,m_k,V_N"


def _trace_header(trace: ClosedLoopTrace) -> str:
    d = trace.states.shape[1]
    c = trace.controls.shape[1] if trace.controls.size else 1
    xcols = ",".join(f"x{i+1}" for i in range(d))
    ucols = ",".join(f"u{i+1}" for i in range(c))
    return TRACE_COLUMNS.format(xcols=xcols, ucols=ucols)


def trace_to_csv(
    trace: ClosedLoopTrace, path: Union[str, Path], config_line: Optional[str] = None
) -> None:
    """One row per time step of the audited phase.

    ``update_flag`` marks instants where an optimization was solved; those
    rows carry the applied window length ``m_k`` and the value ``V_N``.
    The terminal row has state and final value only.
    """
    by_time = {u.time: u for u in trace.updates}
    lines = []
    T = trace.steps
    for n in range(T):
        xs = ",".join(fmt12(v) for v in trace.states[n])
        us = ",".join(fmt12(v) for v in trace.controls[n])
        lam = fmt12(trace.stage_costs[n])
        rec = by_time.get(n)
        if rec is not None:
            lines.append(f"{n},{xs},{us},{lam},1,{rec.m},{fmt12(rec.value)}")
        else:
            lines.append(f"{n},{xs},{us},{lam},0,,")
    xs = ",".join(fmt12(v) for v in trace.states[T])
    blank_u = "," * (trace.controls.shape[1] - 1) if trace.controls.size else ""
    vn = fmt12(trace.final_value) if trace.final_value is not None else ""
    lines.append(f"{T},{xs},{blank_u},,0,,{vn}")
    write_csv(path, _trace_header(trace), lines, config_line)
