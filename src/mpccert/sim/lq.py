"""Linear-quadratic value functions via the Riccati recursion.

For LQ problems the finite-horizon value functions are exactly quadratic,
V_i(x) = x' P_i x, with P_i given by the standard backward recursion.  That
makes the growth bounds gamma_i = sup_x V_i(x) / V_1(x) computable exactly:
the largest generalized eigenvalue of (P_i, P_1).  These sequences feed the
certificates, and the gains K_i drive the exact solve of
:func:`mpccert.sim.shooting.solve_finite_horizon` on unbounded LQ plants.

Only this module tells LQ plants apart: one dispatcher on the model feeds
``riccati_value`` and ``gamma_from_riccati`` (``ValueError`` for any other
model) and ``_feedback_law``, the exact route's law (None: quasi-Newton).

A campaign asks for the same recursion many times: once for its growth
bounds and once per update, always with the same plant weights and
horizon.  Each recursion (scalar and matrix) therefore runs once per
distinct (weights, N) and is kept in a small memo, keyed on the exact bits
of the weights and on N and bounded to ``_MEMO_SIZE`` entries, oldest
dropped first.  The memo holds immutable results (tuples, read-only
arrays), so every caller may share them.

Since the exact solve reads this recursion, it is no oracle for that
route.  The tests keep independent ones: ``tests/test_lq.py`` checks the
growth bounds against ``scipy.linalg.eigh`` on the generalized problem,
``tests/test_shooting.py`` checks the exact controls against the
quasi-Newton optimum, and ``tests/test_gradients.py`` checks every reverse
pass against finite differences.
"""
from __future__ import annotations

import struct
import threading

import numpy as np

from ..controllability import GammaSequence
from .models import LqModel, LqScalarModel

__all__ = [
    "riccati_value",
    "gamma_from_riccati",
]

# distinct (weights, horizon) pairs kept; a campaign reads one, and a
# matrix entry at N = 60 on the double integrator is 3 KB
_MEMO_SIZE = 16
_memo: dict = {}
_memo_lock = threading.Lock()  # eviction iterates the dict


def _memoized(key, recursion, *args):
    """``recursion(*args)``, computed once per ``key`` while it stays in the
    memo.  A hit returns exactly what a new computation would, so callers
    sharing the process cannot see each other."""
    out = _memo.get(key)
    if out is None:
        out = recursion(*args)
        with _memo_lock:
            if len(_memo) >= _MEMO_SIZE:
                del _memo[next(iter(_memo))]  # insertion order: the oldest entry
            _memo[key] = out
    return out


def _scalar_recursion(a: float, b: float, q: float, r: float, n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Cost-to-go coefficients p_1..p_n and gains k_1..k_n, in plain floats.

    p_1 = q and k_1 = 0 (one stage, no input needed), then with
    s = r + b^2 p_k: k_{k+1} = a b p_k / s and p_{k+1} = q + p_k a^2 r / s.
    """
    if q <= 0.0 or r <= 0.0:
        raise ValueError("stage weights q, r must be positive")
    if n < 1:
        raise ValueError("need at least one step")
    p, k = [float(q)], [0.0]
    for _ in range(n - 1):
        pk = p[-1]
        s = r + b * b * pk
        k.append(a * b * pk / s)
        p.append(q + pk * a * a * r / s)
    return tuple(p), tuple(k)


def _scalar(a: float, b: float, q: float, r: float, n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """``_scalar_recursion`` through the memo."""
    a, b, q, r = float(a), float(b), float(q), float(r)
    return _memoized((struct.pack("4d", a, b, q, r), n), _scalar_recursion, a, b, q, r, n)


def _matrix_recursion(A, B, Q, R, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cost-to-go matrices P_1..P_n and gains K_1..K_n (u = -K_i x optimal
    for the i-step problem; K_1 = 0), stacked and read-only.  The weights
    enter through their symmetric parts, which alone determine x' Q x and
    u' R u."""
    if n < 1:
        raise ValueError("need at least one step")
    Q = 0.5 * (Q + Q.T)
    R = 0.5 * (R + R.T)
    mats, gains = [Q.copy()], [np.zeros((B.shape[1], A.shape[0]))]
    for _ in range(n - 1):
        P = mats[-1]
        S = R + B.T @ P @ B
        K = np.linalg.solve(S, B.T @ P @ A)
        gains.append(K)
        mats.append(Q + A.T @ P @ A - A.T @ P @ B @ K)
    mats, gains = np.array(mats), np.array(gains)
    mats.flags.writeable = gains.flags.writeable = False
    return mats, gains


def _matrix(A, B, Q, R, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``_matrix_recursion`` through the memo."""
    A, B, Q, R = (np.atleast_2d(np.asarray(W, dtype=float)) for W in (A, B, Q, R))
    key = (A.shape, B.shape, A.tobytes(), B.tobytes(), Q.tobytes(), R.tobytes(), n)
    return _memoized(key, _matrix_recursion, A, B, Q, R, n)


def _recursion(model, n: int):
    """The one dispatcher on the model: (values, gains) of its memoized recursion,
    float tuples for an ``LqScalarModel``, stacked arrays for an ``LqModel``."""
    if isinstance(model, LqScalarModel):
        return _scalar(model.a, model.b, model.q, model.r, n)
    if isinstance(model, LqModel):
        return _matrix(model.A, model.B, model.Q, model.R, n)
    raise ValueError(f"no intrinsic growth bounds for model {model.name!r} (not LQ); pass gamma explicitly")


def riccati_value(model, n: int, x) -> float:
    """Exact V_n(x) for an LQ model (scalar or matrix)."""
    P = np.atleast_2d(_recursion(model, n)[0][-1])
    xv = np.asarray(x, dtype=float).reshape(-1)
    return float(xv @ P @ xv)


def gamma_from_riccati(model, n: int) -> GammaSequence:
    """Exact growth bounds gamma_i = sup_x V_i(x)/V_1(x) for an LQ model.

    Scalar case: p_i / p_1.  Matrix case: the largest generalized eigenvalue
    of (P_i, P_1), since the supremum of a ratio of quadratics is attained
    at the leading generalized eigenvector.  With P_1 = sym(Q) = L L' it is
    the largest eigenvalue of L^-1 P_i L^-T, taken for all i in one stacked
    symmetric eigensolve; sym(Q) must therefore be positive definite.
    """
    values = _recursion(model, n)[0]
    if isinstance(values, tuple):
        top = [p / values[0] for p in values]
    else:
        try:
            L = np.linalg.cholesky(values[0])
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"growth bounds need sym(Q) positive definite: {exc}") from exc
        Li = np.linalg.inv(L)
        top = np.linalg.eigvalsh(Li @ values @ Li.T)[:, -1]
    # the sequence is monotone in exact arithmetic; clamp round-off (the
    # eigensolver's, a converged scalar recursion's) so construction never rejects
    return GammaSequence(tuple(np.maximum.accumulate(np.maximum(top, 1.0)).tolist()))


def _feedback_law(model, n: int):
    """The optimal feedback (k, x) -> u_k = -K_{n-k} x of an unbounded LQ
    plant on float lists, or None for any other problem."""
    bounds = (model.u_lower, model.u_upper, model.x_lower, model.x_upper)
    if not isinstance(model, (LqScalarModel, LqModel)) or any(b is not None for b in bounds):
        return None
    gains = _recursion(model, n)[1]
    if isinstance(gains, tuple):
        return lambda k, x: [-gains[n - 1 - k] * x[0]]
    return lambda k, x: (-(gains[n - 1 - k] @ np.array(x))).tolist()
