"""Reference computations for the benchmark's output checks.

Nothing here imports mpccert.  Each function is written from the
mathematics, so a check compares the package against a second derivation
and never against a copy of its own output:

* the product formula for alpha_{N,m} (Grüne, Pannek, Seehafer and
  Worthmann, SIAM J. Control Optim. 48, 2010) in exact rational
  arithmetic on the float inputs, and a float form for horizon scans;
* the submultiplicativity condition Delta_i Delta_j >= Delta_{i+j};
* minimal-horizon scans under the control-horizon policies 1, "half",
  "best" and a fixed m;
* the analytic N = 2 region boundary C = 2 / (1 + sigma);
* scalar and matrix Riccati recursions for the LQ models;
* RK4 with Simpson cost quadrature for the pendulum on a cart, from its
  equations of motion.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# a float alpha closer to 0 than this has its sign decided exactly
SIGN_GUARD = 1e-9


# --- growth bounds -----------------------------------------------------------


def exp_gamma(C: float, sigma: float, n: int) -> list[float]:
    """gamma_i = sum_{k<i} C sigma^k, accumulated term by term."""
    out, total, term = [], 0.0, float(C)
    for _ in range(n):
        total += term
        out.append(total)
        term *= sigma
    return out


def const_gamma(M: float, n: int) -> list[float]:
    return [float(M)] * n


# --- the product formula ------------------------------------------------------


def _exact_tail_ratio(gamma: list[float], lo: int, hi: int) -> Fraction:
    """A / (P - A) over i = lo..hi (1-based) with A = prod(g-1), P = prod(g).

    Each float g is n/d exactly; the common denominators cancel, so the
    ratio is prod(n - d) / (prod(n) - prod(n - d)) in integers.
    """
    a = p = 1
    for g in gamma[lo - 1 : hi]:
        num, den = float(g).as_integer_ratio()
        a *= num - den
        p *= num
    return Fraction(a, p - a)


def alpha_exact(gamma: list[float], N: int, m: int) -> Fraction:
    """alpha_{N,m} = 1 - r(m+1..N) r(N-m+1..N) in exact arithmetic."""
    return 1 - _exact_tail_ratio(gamma, m + 1, N) * _exact_tail_ratio(gamma, N - m + 1, N)


def alpha_profile(gamma: list[float], N: int) -> list[float]:
    """Float alpha_{N,m} for m = 1..N-1 from one pass of suffix sums.

    Both index ranges end at N, so with S_k = sum_{i=k}^N log(g_i/(g_i-1))
    the tail ratio over k..N is 1 / expm1(S_k).  Values within SIGN_GUARD of
    zero are recomputed exactly so that their sign is right.
    """
    suffix = [0.0] * (N + 2)
    for i in range(N, 0, -1):
        g = gamma[i - 1]
        suffix[i] = suffix[i + 1] + (math.inf if g == 1.0 else math.log(g / (g - 1.0)))

    def ratio(k: int) -> float:
        s = suffix[k]
        return 0.0 if s > 700.0 else 1.0 / math.expm1(s)

    out = []
    for m in range(1, N):
        a = 1.0 - ratio(m + 1) * ratio(N - m + 1)
        if abs(a) < SIGN_GUARD:
            a = float(alpha_exact(gamma, N, m))
        out.append(a)
    return out


def is_submultiplicative(gamma: list[float]) -> bool:
    """Delta_i Delta_j >= Delta_{i+j} for all i, j >= 1 with i + j <= N."""
    d = np.diff(np.concatenate([[1.0], np.asarray(gamma, dtype=float)]))
    n = d.size
    for i in range(1, n // 2 + 1):  # j = i..n-i covers every pair by symmetry
        if not np.all(d[i - 1] * d[i - 1 : n - i] >= d[2 * i - 1 : n]):
            return False
    return True


# --- horizons -----------------------------------------------------------------


def policy_alpha(gamma: list[float], N: int, policy) -> float | None:
    """Index at horizon N under a control-horizon policy (None: m does not fit)."""
    if isinstance(policy, int):
        if N <= policy:
            return None
        return alpha_profile(gamma, N)[policy - 1]
    if policy == "half":
        return alpha_profile(gamma, N)[max(1, N // 2) - 1]
    if policy == "best":
        return max(alpha_profile(gamma, N))
    raise ValueError(f"unknown policy {policy!r}")


def minimal_horizon(gamma_of, policy, n_max: int = 600) -> int:
    """Smallest N >= 2 with alpha >= 0; ``gamma_of(n)`` gives gamma_1..gamma_n."""
    for N in range(2, n_max + 1):
        a = policy_alpha(gamma_of(N), N, policy)
        if a is not None and a >= 0.0:
            return N
    raise ValueError(f"no certified horizon up to {n_max}")


def horizon_bound_m1(M: float) -> float:
    """alpha_{N,1} >= 0 under gamma_i = M  <=>  N >= 2 + ln(M-1) / ln(M/(M-1))."""
    return 2.0 + math.log(M - 1.0) / math.log(M / (M - 1.0))


def horizon_bound_half_even(M: float) -> float:
    """alpha_{N,N/2} >= 0 under gamma_i = M (even N)  <=>  N >= 2 ln 2 / ln(M/(M-1))."""
    return 2.0 * math.log(2.0) / math.log(M / (M - 1.0))


# --- stability regions --------------------------------------------------------


def region_n2_stable(C: float, sigma: float) -> bool:
    """At N = 2, m = 1: alpha = 1 - (gamma_2 - 1)^2 >= 0  <=>  C <= 2 / (1 + sigma)."""
    return C <= 2.0 / (1.0 + sigma)


def region_alpha(N: int, m: int, C_values, sigma_values) -> np.ndarray:
    """alpha_{N,m} on the (C, sigma) grid of exponential bounds, shape (nC, nS)."""
    C = np.asarray(C_values, dtype=float)[:, None]
    s = np.asarray(sigma_values, dtype=float)[None, :]
    total = np.zeros((C.shape[0], s.shape[1]))
    term = np.broadcast_to(C, total.shape).copy()
    logs = []
    with np.errstate(divide="ignore"):  # inf where gamma_i == 1
        for _ in range(N):
            total = total + term
            logs.append(np.log(total / (total - 1.0)))
            term = term * s
    suffix = np.cumsum(np.stack(logs)[::-1], axis=0)[::-1]  # suffix[k-1] = sum_{i=k}^N

    def ratio(k: int) -> np.ndarray:
        with np.errstate(over="ignore", divide="ignore"):
            return 1.0 / np.expm1(suffix[k - 1])

    return 1.0 - ratio(m + 1) * ratio(N - m + 1)


# --- linear-quadratic models --------------------------------------------------


def riccati_scalar(a: float, b: float, q: float, r: float, n: int) -> list[float]:
    """p_1..p_n with V_i(x) = p_i x^2 for x+ = a x + b u, cost q x^2 + r u^2."""
    p = [float(q)]
    for _ in range(n - 1):
        pk = p[-1]
        p.append(q + a * a * pk - (a * b * pk) ** 2 / (r + b * b * pk))
    return p


def riccati_matrix(A, B, Q, R, n: int) -> list[np.ndarray]:
    """P_1..P_n with V_i(x) = x' P_i x for x+ = A x + B u, cost x'Qx + u'Ru."""
    A, B, Q, R = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (A, B, Q, R))
    out = [Q.copy()]
    for _ in range(n - 1):
        P = out[-1]
        gain = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
        nxt = Q + A.T @ P @ (A - B @ gain)
        out.append(0.5 * (nxt + nxt.T))
    return out


def gamma_riccati_scalar(a, b, q, r, n: int) -> list[float]:
    p = riccati_scalar(a, b, q, r, n)
    return [pi / p[0] for pi in p]


def gamma_riccati_matrix(A, B, Q, R, n: int) -> list[float]:
    """gamma_i = largest eigenvalue of L^{-1} P_i L^{-T}, where P_1 = L L'."""
    mats = riccati_matrix(A, B, Q, R, n)
    L_inv = np.linalg.inv(np.linalg.cholesky(mats[0]))
    out, prev = [], 1.0
    for P in mats:
        w = np.linalg.eigvalsh(L_inv @ P @ L_inv.T)
        prev = max(prev, float(w[-1]))
        out.append(prev)
    return out


def double_integrator(dt: float = 0.1):
    """(A, B, Q, R) of the position/velocity chain sampled at dt, unit weights."""
    A = np.array([[1.0, dt], [0.0, 1.0]])
    B = np.array([[0.5 * dt * dt], [dt]])
    return A, B, np.eye(2), np.eye(1)


# --- pendulum on a cart -------------------------------------------------------

GRAVITY = 9.81
LENGTH = 10.0
FRICTION = 0.01  # air and rotational friction coefficients
SGN_DEADBAND = 1e-12


def pendulum_field(x, u: float) -> tuple[float, float, float, float]:
    """(angle from upright, angular velocity, cart position, cart velocity)'."""
    x1, x2, _, x4 = x
    sgn = 0.0 if abs(x2) <= SGN_DEADBAND else math.copysign(1.0, x2)
    acc = (
        (GRAVITY / LENGTH) * math.sin(x1)
        - (FRICTION / LENGTH) * x2 * abs(x2)
        + u * math.cos(x1)
        - FRICTION * sgn
    )
    return (x2, acc, x4, u)


def pendulum_running_cost(x, u: float) -> float:
    x1, x2, x3, x4 = x
    s1, c2 = math.sin(x1), math.cos(x2)
    inner = (
        3.51 * s1 * s1
        + 4.82 * x2 * s1
        + 2.31 * x2 * x2
        + 0.01 * x3 * x3
        + 2.0 * ((1.0 - math.cos(x1)) * (1.0 + c2 * c2)) ** 2
        + 0.1 * x4 * x4
    )
    return inner * inner + 1e-4 * u * u


def pendulum_period(x, u: float, T: float = 0.05, substeps: int = 20):
    """One zero-order-hold period: RK4 state and Simpson integral of the cost."""
    h = T / substeps
    x = tuple(float(v) for v in x)
    weights = [1.0] + [4.0 if i % 2 else 2.0 for i in range(1, substeps)] + [1.0]
    acc = weights[0] * pendulum_running_cost(x, u)
    for i in range(1, substeps + 1):
        k1 = pendulum_field(x, u)
        k2 = pendulum_field(tuple(a + 0.5 * h * k for a, k in zip(x, k1)), u)
        k3 = pendulum_field(tuple(a + 0.5 * h * k for a, k in zip(x, k2)), u)
        k4 = pendulum_field(tuple(a + h * k for a, k in zip(x, k3)), u)
        x = tuple(
            a + h * (p + 2.0 * q + 2.0 * r + s) / 6.0 for a, p, q, r, s in zip(x, k1, k2, k3, k4)
        )
        acc += weights[i] * pendulum_running_cost(x, u)
    return x, acc * h / 3.0


def pendulum_cost(x0, controls) -> float:
    """Sum of period costs along the open-loop trajectory from x0."""
    x, total = x0, 0.0
    for u in controls:
        x, c = pendulum_period(x, float(u))
        total += c
    return total
