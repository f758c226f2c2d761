"""Stability and suboptimality certificates for receding-horizon control.

Given growth bounds gamma_1..gamma_N (see :mod:`mpccert.controllability`),
a prediction horizon N and a control horizon m (the number of open-loop
moves applied per optimization), the closed loop satisfies the relaxed
Lyapunov inequality

    V_N(x(n+m)) <= V_N(x(n)) - alpha * sum_{k=0}^{m-1} stage_cost(k)

for every alpha up to the index computed here.  alpha >= 0 certifies
asymptotic stability, and for alpha > 0 the closed-loop cost is at most
1/alpha times the infinite-horizon optimum.

Both routes share the suffix ratios

    ratio(lo..N) = A / (P - A),   A = prod_{i=lo}^{N} (gamma_i - 1),
                                  P = prod_{i=lo}^{N} gamma_i,

and each gives the whole profile over m = 1..N-1 from one O(N) kernel:

* :func:`alpha_closed_form` — the product formula
  alpha = 1 - ratio(m+1..N) * ratio(N-m+1..N), a lower bound in general
  and exact when the first differences of gamma are submultiplicative.
* :func:`alpha_lp` — the exact worst-case index: the optimum of the linear
  program of :func:`build_lp` over all stage-cost profiles lambda_0..
  lambda_{N-1} consistent with the bounds, and the value nu after m moves.

The program is solved in closed form.  With the suffix sums
r_k = lambda_k + ... + lambda_{N-1}, r_N = 0:

* tail row k becomes  r_{k+1} <= (1 - 1/gamma_{N-k}) r_k;
* the normalization becomes r_0 = 1 + r_m, the objective 1 + r_m - nu;
* continuation row j becomes
  nu - r_m <= (gamma_{N-j} - 1) r_{m+j} - gamma_{N-j} r_{m+j+1}.

The executed prefix (tail rows k < m) thus only caps r_m, at
prod_{k<m} (1 - 1/gamma_{N-k}) (1 + r_m), i.e. r_m <= ratio(N-m+1..N).
What remains is a positively homogeneous max-min over the chain
r_m, ..., r_N: the largest w = nu - r_m per unit r_m.  Going backward,
the last continuation row alone gives v = gamma_{m+1} - 1, and each
earlier row j = N-m-2, ..., 0 balances its own bound, decreasing in
t = r_{m+j+1} / r_{m+j}, against t * v, increasing in t, under the tail
cap t <= 1 - 1/gamma_{N-m-j}:

    v <- v * min((gamma_{N-j} - 1) / (gamma_{N-j} + v), 1 - 1/gamma_{N-m-j}).

Every factor is nonnegative, so v >= 0, the objective 1 - v * r_m is
least at the largest r_m, and

    alpha_LP = 1 - v * ratio(N-m+1..N),

beside the closed form's 1 - ratio(m+1..N) * ratio(N-m+1..N).  A
gamma_i = 1 makes a factor 0 and alpha = 1, as in the closed form.  The
general-purpose :func:`solve_lp` (HiGHS, imported on first use) is kept
as an independent check of the recursion; no certificate calls it.  The
LP names are the tests' oracle, not exported by :mod:`mpccert`; they move
to ``tests/`` once the benchmark stops tracing them by name.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .controllability import GammaSequence, check_submultiplicative

__all__ = [
    "CertificateQuery",
    "CertificateResult",
    "LinearProgram",
    "LpSolution",
    "LpError",
    "CLOSED_FORM",
    "LINEAR_PROGRAM",
    "alpha_closed_form",
    "build_lp",
    "solve_lp",
    "alpha_lp",
    "certificate",
    "max_alpha_over_m",
]

CLOSED_FORM = "closed_form"
LINEAR_PROGRAM = "linear_program"

# exp(x) overflows near 710; beyond this the reciprocal is a clean 0
_EXP_OVERFLOW = 700.0


class LpError(RuntimeError):
    """The linear program could not be solved to certified optimality."""


@dataclass(frozen=True)
class CertificateQuery:
    """A single (gamma, N, m) certification request.

    The prediction horizon may be shorter than the stored sequence; the
    control horizon must leave at least one step of recourse (m <= N - 1).
    """

    gamma: GammaSequence
    horizon: int
    m: int

    def __post_init__(self) -> None:
        n = int(self.horizon)
        m = int(self.m)
        object.__setattr__(self, "horizon", n)
        object.__setattr__(self, "m", m)
        if n < 2:
            raise ValueError(f"prediction horizon N = {n} must be >= 2")
        if n > self.gamma.n:
            raise ValueError(
                f"prediction horizon N = {n} exceeds available bounds (gamma has {self.gamma.n})"
            )
        if not 1 <= m <= n - 1:
            raise ValueError(f"control horizon m = {m} must satisfy 1 <= m <= N - 1 = {n - 1}")


@dataclass(frozen=True)
class CertificateResult:
    """Certified index alpha for one (N, m) pair, plus derived verdicts."""

    horizon: int
    m: int
    alpha: float
    method: str
    submultiplicative: bool

    def __post_init__(self) -> None:
        if self.alpha > 1.0 + 1e-12:
            raise ValueError(f"alpha = {self.alpha!r} exceeds 1; certificate is inconsistent")

    @property
    def stable(self) -> bool:
        """Asymptotic stability is certified exactly when alpha >= 0."""
        return self.alpha >= 0.0

    @property
    def performance_bound(self) -> Optional[float]:
        """Closed-loop cost / optimal cost <= 1/alpha; defined only for alpha > 0."""
        if self.alpha > 0.0:
            return 1.0 / self.alpha
        return None

    def to_record(self) -> dict:
        """Plain-dict form used by the JSON outputs."""
        return {
            "N": self.horizon,
            "m": self.m,
            "alpha": self.alpha,
            "method": self.method,
            "stable": self.stable,
            "performance_bound": self.performance_bound,
            "submultiplicative": self.submultiplicative,
        }


def _suffix_ratios(g: np.ndarray) -> np.ndarray:
    """ratio(k+2..N) = A / (P - A) at index k, for gamma_2..gamma_N on the last axis.

    One suffix sum of log(gamma_i / (gamma_i - 1)) gives every ratio as
    1 / expm1(sum), so horizons of several hundred cannot overflow; any
    gamma_i == 1 in a range makes its sum infinite and the ratio exactly 0,
    a sum beyond the exp range gives a clean 0, and the single-index range
    {N} is taken exactly as gamma_N - 1.
    """
    with np.errstate(divide="ignore", over="ignore"):
        s = np.cumsum(np.log1p(1.0 / (g - 1.0))[..., ::-1], axis=-1)[..., ::-1]
        ratio = np.where(s > _EXP_OVERFLOW, 0.0, 1.0 / np.expm1(s))
    ratio[..., -1] = g[..., -1] - 1.0  # exact: (g-1) / (g - (g-1))
    return ratio


def _alpha_profile(gamma) -> np.ndarray:
    """Closed-form alpha(N, m) for m = 1..N-1 from gamma_1..gamma_N.

    The index ranges {m+1..N} and {N-m+1..N} are both suffixes ending at N,
    so one array of suffix ratios serves both.  The bounds lie on the last
    axis and leading axes broadcast: an array of shape (rows, N) gives
    (rows, N - 1).
    """
    ratio = _suffix_ratios(np.asarray(gamma, dtype=float)[..., 1:])
    # ratio[k] belongs to the range starting at k + 2: m + 1 and N - m + 1
    return 1.0 - ratio * ratio[..., ::-1]


def _alpha_lp_profile(gamma) -> np.ndarray:
    """Exact alpha(N, m) for m = 1..N-1: the worst-case program's optimum.

    Runs the backward recursion of the module docstring for every m at
    once.  At step t = 1..N-2 the chains of m = 1..N-1-t take their row
    with gamma_{m+1+t} under the common cap 1 - 1/gamma_{t+1}, so the
    profile costs O(N) array steps.  Leading axes broadcast as in
    :func:`_alpha_profile`.
    """
    g = np.asarray(gamma, dtype=float)
    n = g.shape[-1]
    v = g[..., 1:] - 1.0  # the last row of each chain: gamma_{m+1} - 1
    for t in range(1, n - 1):
        live = v[..., : n - 1 - t]
        row = g[..., 1 + t :]
        cap = 1.0 - 1.0 / g[..., t, None]
        live *= np.minimum((row - 1.0) / (row + live), cap)
    return 1.0 - v * _suffix_ratios(g[..., 1:])[..., ::-1]


def _certify(query: CertificateQuery, profile, method: str) -> CertificateResult:
    """Entry m of one kernel's profile at the query's horizon, as a result."""
    n, m = query.horizon, query.m
    gamma = query.gamma.truncated(n)
    return CertificateResult(
        horizon=n,
        m=m,
        alpha=float(profile(gamma.values)[m - 1]),
        method=method,
        submultiplicative=check_submultiplicative(gamma),
    )


def alpha_closed_form(query: CertificateQuery) -> CertificateResult:
    """Product-form index.

    With A_j = prod(gamma_i - 1) and P_j = prod(gamma_i) taken over the two
    index ranges {m+1..N} and {N-m+1..N},

        alpha = 1 - (A_1 * A_2) / ((P_1 - A_1) * (P_2 - A_2)).

    The two ranges coincide under m -> N - m, so the index is symmetric in
    the control horizon.  If some gamma_i == 1 inside either range the
    correction term vanishes and alpha = 1 exactly.
    """
    return _certify(query, _alpha_profile, CLOSED_FORM)


@dataclass(frozen=True)
class LinearProgram:
    """min c.x  s.t.  A_ub.x <= b_ub,  A_eq.x = b_eq,  x >= 0.

    Variables are [lambda_0, ..., lambda_{N-1}, nu]: the stage-cost profile
    of the optimal open-loop trajectory and the value after m applied moves.
    ``n_tail_rows`` constraints encode the tail bounds V_{N-k} at each shift
    k, ``n_continuation_rows`` bound nu by splicing the executed prefix with
    a re-optimized tail.
    """

    objective: np.ndarray
    ineq_matrix: np.ndarray
    ineq_rhs: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    n_tail_rows: int
    n_continuation_rows: int

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "unbounded" | "infeasible"
    value: Optional[float]
    lam: Optional[np.ndarray]
    nu: Optional[float]
    iterations: int


def build_lp(query: CertificateQuery) -> LinearProgram:
    """Assemble the exact worst-case program for (gamma, N, m).

    Normalizing the executed stage costs to sum to 1 turns the index
    (worst ratio of Lyapunov decrease to executed cost) into the linear
    objective  sum(lambda) - nu.
    """
    n, m, gamma = query.horizon, query.m, query.gamma
    nv = n + 1  # lambda_0..lambda_{N-1}, nu

    rows = []
    rhs = []
    # tail bounds: the last N-k stage costs are a feasible tail for V_{N-k},
    # itself bounded by gamma_{N-k} * lambda_k
    for k in range(0, n - 1):
        row = np.zeros(nv)
        row[k:n] = 1.0
        row[k] -= gamma.gamma(n - k)
        rows.append(row)
        rhs.append(0.0)
    n_tail = len(rows)
    # continuation bounds: after the m executed moves, the value nu is at most
    # the executed cost lambda_m..lambda_{m+j-1} plus gamma_{N-j} * lambda_{m+j}
    for j in range(0, n - m):
        row = np.zeros(nv)
        row[nv - 1] = 1.0
        row[m : m + j] -= 1.0
        row[m + j] -= gamma.gamma(n - j)
        rows.append(row)
        rhs.append(0.0)
    n_cont = len(rows) - n_tail

    eq = np.zeros((1, nv))
    eq[0, :m] = 1.0

    c = np.ones(nv)
    c[nv - 1] = -1.0

    return LinearProgram(
        objective=c,
        ineq_matrix=np.asarray(rows),
        ineq_rhs=np.asarray(rhs),
        eq_matrix=eq,
        eq_rhs=np.array([1.0]),
        n_tail_rows=n_tail,
        n_continuation_rows=n_cont,
    )


def solve_lp(lp: LinearProgram, tol: float = 1e-9) -> LpSolution:
    """Solve with dual simplex and certify the result before returning it.

    An "optimal" claim is only passed through if the point is primal
    feasible within ``tol`` and the duality gap (against the reported
    multipliers) is closed within ``tol`` — i.e. no improving direction
    remains.  Hitting the iteration cap raises :class:`LpError` rather than
    returning a silent wrong answer.
    """
    from scipy.optimize import linprog  # deferred: importing scipy dominates start-up

    n_rows = lp.ineq_matrix.shape[0] + lp.eq_matrix.shape[0]
    cap = max(100, 10 * (n_rows + lp.num_vars))
    res = linprog(
        lp.objective,
        A_ub=lp.ineq_matrix,
        b_ub=lp.ineq_rhs,
        A_eq=lp.eq_matrix,
        b_eq=lp.eq_rhs,
        bounds=(0, None),
        method="highs-ds",
        options={"maxiter": cap},
    )
    if res.status == 2:
        return LpSolution(status="infeasible", value=None, lam=None, nu=None, iterations=int(res.nit))
    if res.status == 3:
        return LpSolution(status="unbounded", value=None, lam=None, nu=None, iterations=int(res.nit))
    if res.status != 0:
        raise LpError(f"solver failure (status {res.status}): {res.message}")

    x = np.asarray(res.x)
    scale = max(1.0, float(np.max(np.abs(lp.ineq_rhs), initial=0.0)), float(np.max(np.abs(x))))
    primal_ub = float(np.max(lp.ineq_matrix @ x - lp.ineq_rhs, initial=0.0))
    primal_eq = float(np.max(np.abs(lp.eq_matrix @ x - lp.eq_rhs), initial=0.0))
    lower = float(-np.min(x, initial=0.0))
    if primal_ub > tol * scale or primal_eq > tol * scale or lower > tol:
        raise LpError(
            f"claimed optimum violates feasibility: ub {primal_ub:.3e}, eq {primal_eq:.3e}, x>=0 {lower:.3e}"
        )
    y_ub = np.asarray(res.ineqlin.marginals)
    y_eq = np.asarray(res.eqlin.marginals)
    reduced = lp.objective - lp.ineq_matrix.T @ y_ub - lp.eq_matrix.T @ y_eq
    dual_obj = float(lp.ineq_rhs @ y_ub + lp.eq_rhs @ y_eq)
    gap = abs(float(res.fun) - dual_obj)
    obj_scale = max(1.0, abs(float(res.fun)))
    if np.max(y_ub, initial=0.0) > tol or float(-np.min(reduced, initial=0.0)) > tol * obj_scale:
        raise LpError("claimed optimum fails the dual sign conditions; improving direction may remain")
    if gap > tol * obj_scale:
        raise LpError(f"duality gap {gap:.3e} not closed within tolerance")

    return LpSolution(
        status="optimal",
        value=float(res.fun),
        lam=x[:-1].copy(),
        nu=float(x[-1]),
        iterations=int(res.nit),
    )


def alpha_lp(query: CertificateQuery) -> CertificateResult:
    """Exact index: the optimum of the worst-case program of :func:`build_lp`.

    The value comes from the backward recursion of the module docstring,
    alpha = 1 - v * ratio(N-m+1..N), not from a solver, so no query can
    fail.  Always at least as large as the closed form, and equal to it
    whenever the gamma differences are submultiplicative.
    """
    return _certify(query, _alpha_lp_profile, LINEAR_PROGRAM)


def certificate(query: CertificateQuery, method: str = CLOSED_FORM) -> CertificateResult:
    """Dispatch on method name ("closed_form" or "linear_program")."""
    if method == CLOSED_FORM:
        return alpha_closed_form(query)
    if method == LINEAR_PROGRAM:
        return alpha_lp(query)
    raise ValueError(f"unknown method {method!r}")


def max_alpha_over_m(gamma: GammaSequence, horizon: int) -> CertificateResult:
    """Best closed-form certificate over all control horizons m in {1, ..., N-1}.

    Ties are broken toward the smallest m (fewer dropped feedback updates).
    """
    if horizon < 2:
        raise ValueError(f"prediction horizon N = {horizon} must be >= 2")
    gamma = gamma.truncated(horizon)
    profile = _alpha_profile(gamma.values)
    m = int(np.argmax(profile)) + 1  # the first maximum
    return CertificateResult(
        horizon=horizon,
        m=m,
        alpha=float(profile[m - 1]),
        method=CLOSED_FORM,
        submultiplicative=check_submultiplicative(gamma),
    )
