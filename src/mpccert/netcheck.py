"""Certify-then-validate workflow for networked operation.

A controller that may lose up to m* - 1 consecutive feedback updates is
covered a priori by the worst certificate over all control horizons up to
m*: alpha_star = min_{1 <= m <= m*} alpha_{N,m}.  If alpha_star > 0, every
admissible dropout pattern inherits the Lyapunov decrease and the
performance bound.  This module computes that certificate, runs seeded
dropout experiments, audits every update window, and emits a deterministic
JSON report.  A falsification hook (``audit_alpha``) lets the caller verify
that the audit has teeth by re-checking against an inflated index.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._output import dumps_stable
from .certificate import _alpha_profile
from .controllability import GammaSequence
from .sim.loop import LyapunovAudit, dropout_schedule, measured_alpha, mpc_run, verify_relaxed_lyapunov
from .sim.lq import gamma_from_riccati
from .sim.models import SystemModel

__all__ = [
    "UpToCertificate",
    "certify_up_to",
    "NetworkExperiment",
    "SeedOutcome",
    "NetworkReport",
    "run_network_experiment",
]


@dataclass(frozen=True)
class UpToCertificate:
    """alpha_star = min over m = 1..m* of alpha_{N,m}, with the profile kept."""

    horizon: int
    m_star: int
    alpha_star: float
    m_at_min: int
    profile: tuple[tuple[int, float], ...]

    @property
    def valid(self) -> bool:
        return self.alpha_star > 0.0


def certify_up_to(gamma: GammaSequence, horizon: int, m_star: int) -> UpToCertificate:
    """Worst closed-form certificate over all control horizons a dropout
    pattern can force; ties go to the smallest m.

    The minimum is computed, not assumed: for exponential bounds the index
    is monotone in m up to N/2 so the minimum sits at m = 1, but arbitrary
    gamma sequences earn no such shortcut.
    """
    if not 1 <= m_star <= horizon - 1:
        raise ValueError(f"m* = {m_star} must satisfy 1 <= m* <= N - 1 = {horizon - 1}")
    profile = _alpha_profile(gamma.truncated(horizon).values)[:m_star]
    i = int(np.argmin(profile))  # the first minimum
    return UpToCertificate(
        horizon=horizon,
        m_star=m_star,
        alpha_star=float(profile[i]),
        m_at_min=i + 1,
        profile=tuple(enumerate(profile.tolist(), start=1)),
    )


@dataclass(frozen=True)
class NetworkExperiment:
    """A seeded dropout campaign for one model and horizon."""

    model: SystemModel
    horizon: int
    m_star: int
    dropout_p: float
    num_seeds: int
    steps: int
    x0: Optional[np.ndarray] = None
    base_seed: int = 0
    startup: int = 0
    solver_options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 1 <= self.m_star <= self.horizon - 1:
            raise ValueError(
                f"m* = {self.m_star} must satisfy 1 <= m* <= N - 1 = {self.horizon - 1}"
            )
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout probability {self.dropout_p} outside [0, 1)")
        if self.num_seeds < 1 or self.steps < 1:
            raise ValueError("need at least one seed and one step")

    @property
    def seeds(self) -> tuple[int, ...]:
        return tuple(range(self.base_seed, self.base_seed + self.num_seeds))


@dataclass(frozen=True)
class SeedOutcome:
    seed: int
    schedule: tuple[int, ...]
    audit: LyapunovAudit
    measured: float
    updates: int
    all_converged: bool  # every solve of the seed's loop, the closing one included


@dataclass(frozen=True)
class NetworkReport:
    experiment: NetworkExperiment
    certificate: UpToCertificate
    audit_alpha: float
    outcomes: tuple[SeedOutcome, ...]

    @property
    def total_violations(self) -> int:
        return sum(len(o.audit.violations) for o in self.outcomes)

    @property
    def worst_margin(self) -> float:
        return min(o.audit.worst_margin for o in self.outcomes)

    @property
    def cost_ratio_max(self) -> float:
        return max(o.audit.cost_ratio for o in self.outcomes)

    def to_record(self) -> dict:
        exp = self.experiment
        x0 = exp.x0 if exp.x0 is not None else exp.model.default_x0
        return {
            "model": exp.model.name,
            "N": exp.horizon,
            "m_star": exp.m_star,
            "dropout_p": exp.dropout_p,
            "steps": exp.steps,
            "base_seed": exp.base_seed,
            "num_seeds": exp.num_seeds,
            "x0": list(np.asarray(x0, dtype=float)),
            "alpha_star": self.certificate.alpha_star,
            "m_at_min": self.certificate.m_at_min,
            "alpha_profile": [[m, a] for m, a in self.certificate.profile],
            "audit_alpha": self.audit_alpha,
            "violations": self.total_violations,
            "worst_margin": self.worst_margin,
            "cost_ratio_max": self.cost_ratio_max,
            "seeds": [
                {
                    "seed": o.seed,
                    "schedule": list(o.schedule),
                    "updates": o.updates,
                    "measured_alpha": o.measured,
                    "all_converged": o.all_converged,
                    "violations": len(o.audit.violations),
                    "worst_margin": o.audit.worst_margin,
                    "realized_cost": o.audit.realized_cost,
                    "cost_bound": o.audit.cost_bound,
                    "cost_ratio": o.audit.cost_ratio,
                }
                for o in self.outcomes
            ],
        }

    def to_json(self) -> str:
        return dumps_stable(self.to_record())


def run_network_experiment(
    exp: NetworkExperiment,
    gamma: Optional[GammaSequence] = None,
    *,
    audit_alpha: Optional[float] = None,
    epsilon: float = 0.0,
) -> NetworkReport:
    """Certify, simulate each seed, audit every window.

    Each window is audited by :func:`~mpccert.sim.loop.verify_relaxed_lyapunov`
    at its default relative tolerance.

    ``gamma`` defaults to the model's Riccati growth bounds, which only LQ
    models have (:func:`~mpccert.sim.lq.gamma_from_riccati`).

    The experiment is admissible only if alpha_star > 0 — a nonpositive
    certificate means the dropout level is not covered by the theory and
    the run is refused.  ``audit_alpha`` (default: alpha_star) is the index
    the audit checks against; passing an inflated value is the supported
    way to confirm the audit reports violations when it should.
    """
    if gamma is None:
        gamma = gamma_from_riccati(exp.model, exp.horizon)
    cert = certify_up_to(gamma, exp.horizon, exp.m_star)
    if not cert.valid:
        raise ValueError(
            f"alpha_star = {cert.alpha_star:.6g} <= 0: operation up to m* = {exp.m_star} "
            f"is not certified at N = {exp.horizon}"
        )
    alpha_check = cert.alpha_star if audit_alpha is None else float(audit_alpha)
    x0 = exp.x0 if exp.x0 is not None else exp.model.default_x0

    outcomes = []
    for seed in exp.seeds:
        # enough updates to cover `steps` even if every window is length 1
        sched = dropout_schedule(exp.dropout_p, exp.m_star, exp.steps, seed)
        trace = mpc_run(
            exp.model,
            exp.horizon,
            sched,
            x0,
            exp.steps,
            startup=exp.startup,
            solver_options=exp.solver_options,
        )
        audit = verify_relaxed_lyapunov(trace, alpha_check)
        outcomes.append(
            SeedOutcome(
                seed=seed,
                schedule=tuple(rec.m for rec in trace.updates),
                audit=audit,
                measured=measured_alpha(trace, epsilon=epsilon),
                updates=len(trace.updates),
                all_converged=trace.all_converged,
            )
        )
    return NetworkReport(
        experiment=exp,
        certificate=cert,
        audit_alpha=alpha_check,
        outcomes=tuple(outcomes),
    )
