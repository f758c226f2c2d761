"""System models for closed-loop validation.

Three concrete plants back the simulation layer:

* ``LqScalarModel`` — scalar linear dynamics with quadratic cost, the
  workhorse for oracle tests because its value functions are exactly
  computable (see :mod:`mpccert.sim.lq`);
* ``LqModel`` — the matrix analogue (a discretized double integrator is
  provided as ``lq_double_integrator``);
* ``PendulumModel`` — a sampled-data inverted pendulum on a cart with
  quartic stage cost, integrated by fixed-step RK4 with the running cost
  accumulated by composite Simpson quadrature on the same substep grid.

Each plant supplies one control period and its discrete adjoint, on
states and controls given as plain Python float lists:

* ``_period(x, u, tape)`` returns ``(x_next, stage_cost)``; it may raise
  OverflowError or ValueError when the arithmetic leaves the
  floating-point range;
* ``_period_adjoint(k, x, u, x_next, lam, tape)`` returns the adjoints of
  ``x`` and of ``u`` of ``stage_cost + <lam, x_next>`` for period ``k`` of
  a rollout.

``SystemModel`` builds everything else on these two, once: ``f`` and
``stage_cost`` (one period each), ``step`` (both at once, with divergence
detection), ``rollout`` (an open-loop sweep that never raises — bad
control iterates show up as infinite cost so that line searches can back
away from them) and ``cost_gradient`` (the discrete adjoint of a finite
rollout: one reverse pass gives the derivative of the rollout cost in
every control).  A caller that wants both passes hands the same ``tape``
list to ``rollout`` and then to ``cost_gradient``: a plant whose reverse
pass needs the forward pass's intermediates records them there once
instead of recomputing them.  The pendulum records one entry per RK4
substep: the substep's start node with the sine and cosine of its angle
and velocity, and each of the four stage points with the sine and cosine
of its angle plus pi, which is every trig value its reverse pass needs
except those of the period's end node (the store-all strategy of reverse
mode; Griewank & Walther, *Evaluating Derivatives*, 2008).
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = [
    "DivergenceError",
    "SystemModel",
    "LqScalarModel",
    "LqModel",
    "PendulumModel",
    "lq_scalar",
    "lq_double_integrator",
    "pendulum_model",
    "model_by_name",
    "MODEL_NAMES",
]

# states beyond this norm abort a closed-loop run
DIVERGENCE_NORM = 1e8


class DivergenceError(RuntimeError):
    """The closed-loop state left the numerically meaningful region."""


def _floats(v, dim: int) -> list[float]:
    return np.asarray(v, dtype=float).reshape(dim).tolist()


class SystemModel:
    """Discrete-time plant x+ = f(x, u) with stage cost vanishing at the target.

    A subclass supplies ``_period`` and ``_period_adjoint`` (see the module
    docstring); the rest of the interface is built on them here.
    """

    name: str = "generic"
    state_dim: int = 0
    control_dim: int = 0

    def __init__(self) -> None:
        self.u_star = np.zeros(self.control_dim)
        self.u_lower: Optional[np.ndarray] = None  # None = unconstrained
        self.u_upper: Optional[np.ndarray] = None
        self.x_lower: Optional[np.ndarray] = None
        self.x_upper: Optional[np.ndarray] = None
        self.state_penalty = 1e6  # quadratic weight on state-box violation
        self.default_x0 = np.zeros(self.state_dim)

    def _period(self, x: list, u: list, tape: Optional[list]) -> tuple[list, float]:
        """One control period: (x_next, stage cost).  ``tape``, if not None,
        receives what ``_period_adjoint`` needs beyond x, u and x_next."""
        raise NotImplementedError

    def _period_adjoint(
        self, k: int, x: list, u: list, x_next: list, lam: list, tape: Optional[list]
    ) -> tuple[list, list]:
        """Adjoints of x and u of stage cost + <lam, x_next> for period ``k``.

        ``tape`` is the list the rollout filled, or None if it kept none.
        """
        raise NotImplementedError

    def _period_at(self, x: np.ndarray, u: np.ndarray) -> tuple[list, float]:
        return self._period(_floats(x, self.state_dim), _floats(u, self.control_dim), None)

    def f(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return np.array(self._period_at(x, u)[0])

    def stage_cost(self, x: np.ndarray, u: np.ndarray) -> float:
        return self._period_at(x, u)[1]

    def step(self, x: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, float]:
        """One closed-loop move; raises :class:`DivergenceError` on blow-up."""
        x, u = _floats(x, self.state_dim), _floats(u, self.control_dim)
        try:
            x_next, cost = self._period(x, u, None)
        except (OverflowError, ValueError) as exc:
            raise DivergenceError(f"{self.name}: {exc}") from exc
        if not (math.isfinite(cost) and all(map(math.isfinite, x_next))):
            raise DivergenceError(f"{self.name}: non-finite state or cost")
        if max(map(abs, x_next)) > DIVERGENCE_NORM:
            raise DivergenceError(f"{self.name}: state norm exceeded {DIVERGENCE_NORM:g}")
        return np.array(x_next), cost

    def rollout(
        self, x0: np.ndarray, controls: np.ndarray, tape: Optional[list] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Open-loop sweep used by the optimizer; never raises.

        Returns (states, costs) with shapes (n+1, state_dim) and (n,).  Once
        an iterate goes non-finite the remaining costs are +inf and the
        state is frozen, which the line search treats as a wall.  ``tape``
        receives what ``cost_gradient`` needs beyond the states.
        """
        us = np.asarray(controls, dtype=float).reshape(-1, self.control_dim).tolist()
        x = _floats(x0, self.state_dim)
        states, costs = list(x), []  # states row after row in one flat list
        for u in us:
            try:
                x_next, c = self._period(x, u, tape)
            except (OverflowError, ValueError, FloatingPointError):
                break
            if not (math.isfinite(c) and all(map(math.isfinite, x_next))):
                break
            x = x_next
            states += x
            costs.append(c)
        frozen = len(us) - len(costs)
        states += x * frozen
        costs += [math.inf] * frozen
        return np.array(states).reshape(-1, self.state_dim), np.array(costs)

    def cost_gradient(
        self,
        states: np.ndarray,
        controls: np.ndarray,
        seeds: Optional[np.ndarray] = None,
        tape: Optional[list] = None,
    ) -> np.ndarray:
        """Reverse-mode gradient of a rollout with finite costs.

        ``states`` is what ``rollout(states[0], controls)`` returned, and
        ``seeds`` (optional, shape (n, state_dim)) weights the states x_1..x_n.
        ``tape``, if given, is the list that same rollout filled; without it
        a model recomputes what it needs from the states.
        Returns d/du of sum_k l(x_k, u_k) + sum_k <seeds[k], x_{k+1}>, shape
        (n, control_dim), by the costate recursion (Bryson & Ho, *Applied
        Optimal Control*, 1975): lam_n = seeds[n-1], lam_k = d_x l_k +
        seeds[k-1] + (d_x f_k)' lam_{k+1}, read out as d_u l_k + (d_u f_k)' lam_{k+1}.
        """
        c = self.control_dim
        us = np.asarray(controls, dtype=float).reshape(-1, c).tolist()
        xs = np.asarray(states, dtype=float).tolist()
        w = None if seeds is None else np.asarray(seeds, dtype=float).reshape(-1, self.state_dim).tolist()
        g = [0.0] * (len(us) * c)  # row after row
        lam = [0.0] * self.state_dim  # costate of x_{k+1}
        for k in range(len(us) - 1, -1, -1):
            if w is not None:
                lam = [a + b for a, b in zip(lam, w[k])]
            lam, g[k * c : (k + 1) * c] = self._period_adjoint(k, xs[k], us[k], xs[k + 1], lam, tape)
        return np.array(g).reshape(-1, c)

    def control_bounds(self, n: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """(lower, upper) arrays for an n-step control vector, infinite where
        a side is unbounded, or None when no control is bounded."""
        if self.u_lower is None and self.u_upper is None:
            return None
        lo = np.full(self.control_dim, -np.inf) if self.u_lower is None else self.u_lower
        hi = np.full(self.control_dim, np.inf) if self.u_upper is None else self.u_upper
        return np.tile(np.asarray(lo, dtype=float), n), np.tile(np.asarray(hi, dtype=float), n)


class LqScalarModel(SystemModel):
    """x+ = a x + b u with stage cost q x^2 + r u^2.

    The default (a, b, q, r) = (2, 1, 1, 1) is deliberately unstable with a
    one-step controllable input, so certificate values spread usefully
    across control horizons.
    """

    name = "lq-scalar"
    state_dim = 1
    control_dim = 1

    def __init__(self, a: float = 2.0, b: float = 1.0, q: float = 1.0, r: float = 1.0):
        super().__init__()
        if q <= 0 or r <= 0:
            raise ValueError("stage weights q, r must be positive")
        self.a, self.b, self.q, self.r = float(a), float(b), float(q), float(r)
        self.default_x0 = np.array([1.0])

    def _period(self, x, u, tape):
        x, u = x[0], u[0]
        return [self.a * x + self.b * u], self.q * x * x + self.r * u * u

    def _period_adjoint(self, k, x, u, x_next, lam, tape):
        return [2.0 * self.q * x[0] + self.a * lam[0]], [2.0 * self.r * u[0] + self.b * lam[0]]


class LqModel(SystemModel):
    """x+ = A x + B u with stage cost x' Q x + u' R u."""

    name = "lq"

    def __init__(self, A, B, Q, R, name: str = "lq"):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        B = np.asarray(B, dtype=float).reshape(A.shape[0], -1)
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        R = np.atleast_2d(np.asarray(R, dtype=float))
        n, m = A.shape[0], B.shape[1]
        if A.shape != (n, n) or Q.shape != (n, n) or R.shape != (m, m):
            raise ValueError(
                f"shapes A {A.shape}, B {B.shape}, Q {Q.shape}, R {R.shape} do not fit together"
            )
        if not (np.all(np.isfinite(Q)) and np.all(np.isfinite(R))):
            raise ValueError("stage weights Q, R must be finite")
        # only the symmetric parts enter the cost; the Riccati recursion
        # needs sym(R) positive definite and sym(Q) positive semidefinite
        wq = np.linalg.eigvalsh(0.5 * (Q + Q.T))
        wr = np.linalg.eigvalsh(0.5 * (R + R.T))
        if not wr[0] > 0.0:
            raise ValueError(f"sym(R) must be positive definite; smallest eigenvalue {wr[0]:.3g}")
        if wq[0] < -1e-12 * float(np.max(np.abs(wq))):  # eigensolver round-off
            raise ValueError(f"sym(Q) must be positive semidefinite; smallest eigenvalue {wq[0]:.3g}")
        self.state_dim = n
        self.control_dim = m
        self.name = name
        super().__init__()
        self.A, self.B, self.Q, self.R = A, B, Q, R
        # the cost's derivatives: Q and R need not be symmetric
        self._Q2, self._R2 = Q + Q.T, R + R.T
        self.default_x0[0] = 1.0

    def _period(self, x, u, tape):
        x, u = np.array(x), np.array(u)
        return (self.A @ x + self.B @ u).tolist(), float(x @ self.Q @ x + u @ self.R @ u)

    def _period_adjoint(self, k, x, u, x_next, lam, tape):
        lam = np.array(lam)
        return (
            (np.array(x) @ self._Q2 + self.A.T @ lam).tolist(),
            (np.array(u) @ self._R2 + self.B.T @ lam).tolist(),
        )


def lq_scalar() -> LqScalarModel:
    return LqScalarModel()


def lq_double_integrator(dt: float = 0.1) -> LqModel:
    """Position/velocity chain sampled at dt, unit weights."""
    A = [[1.0, dt], [0.0, 1.0]]
    B = [[0.5 * dt * dt], [dt]]
    return LqModel(A, B, np.eye(2), [[1.0]], name="lq-double-integrator")


# --- sampled-data pendulum -------------------------------------------------

_G = 9.81
_LENGTH = 10.0
_FRICTION = 0.01  # both air and rotational friction coefficients

# Coulomb-friction deadband: the signum is taken as 0 for |velocity| below
# this, so the discontinuity cannot amplify integrator round-off (~1e-18 at
# the equilibria) into full-size friction kicks.  Far below any physically
# meaningful velocity; it makes the exact equilibria of the field exact
# fixed points of the integrator too.
_SGN_EPS = 1e-12


class PendulumModel(SystemModel):
    """Inverted pendulum on a cart, zero-order-hold control, period T.

    State: (angle from upright, angular velocity, cart position, cart
    velocity).  Both the upright target and the hanging position are exact
    equilibria of the vector field; the stage cost vanishes only at the
    target, and the angle is boxed inside (-2*pi, 2*pi) to exclude the
    wrapped copies of it.  One control period is integrated by ``substeps``
    RK4 steps and the stage cost is the integral of the running cost over
    the period, evaluated by composite Simpson quadrature on the RK4 nodes
    (so ``substeps`` must be even).
    """

    name = "pendulum"
    state_dim = 4
    control_dim = 1

    def __init__(self, T: float = 0.05, substeps: int = 20):
        if substeps < 2 or substeps % 2:
            raise ValueError("substeps must be even and >= 2 for Simpson quadrature")
        super().__init__()
        self.T = float(T)
        self.substeps = int(substeps)
        lim = 2.0 * math.pi - 0.01
        self.x_lower = np.array([-lim, -np.inf, -np.inf, -np.inf])
        self.x_upper = np.array([lim, np.inf, np.inf, np.inf])
        self.default_x0 = np.array([math.pi + 1.4, 0.0, 0.0, 0.0])

    def _sweep(self, x: list, u: float, tape: Optional[list] = None) -> tuple[list, float]:
        """Integrate one period and accumulate the cost integral in one pass.

        The right-hand side and running cost are inlined: this loop runs
        N times per objective evaluation of the shooting solver, so
        per-call overhead dominates wall time if left factored.  ``tape``,
        if given, receives one entry per substep, the 22-tuple

            (x1, x2, x3, x4, sin x1, cos x1, sin x2, cos x2,
             sin(x1 + pi), cos(x1 + pi),
             m1, m2, sin(m1 + pi), cos(m1 + pi),
             n1, n2, sin(n1 + pi), cos(n1 + pi),
             p1, p2, sin(p1 + pi), cos(p1 + pi)):

        the substep's start node with the trig values of its running cost,
        then each RK4 stage point with the trig values of its right-hand
        side, so that the reverse pass (``_sweep_adjoint``) evaluates no
        trig function except at the period's end node.  Raises
        OverflowError/ValueError if the trig/power evaluations leave the
        floating-point range; ``rollout`` converts that to an infinite cost,
        ``step`` to a :class:`DivergenceError`.
        """
        sin, cos = math.sin, math.cos
        pi = math.pi
        gl = _G / _LENGTH
        fl = _FRICTION / _LENGTH
        fr = _FRICTION
        ngl = -gl
        eps = _SGN_EPS
        h = self.T / self.substeps
        h2 = 0.5 * h
        uu = 1e-4 * u * u
        x1, x2, x3, x4 = x
        acc = 0.0
        n_sub = self.substeps
        for i in range(n_sub + 1):
            # running cost at node i, with Simpson weight 1, 4, 2, ..., 4, 1
            sa, ca, cv = sin(x1), cos(x1), cos(x2)
            inner = (
                3.51 * sa * sa
                + 4.82 * x2 * sa
                + 2.31 * x2 * x2
                + 0.01 * x3 * x3
                + 2.0 * ((1.0 - ca) * (1.0 + cv * cv)) ** 2
                + 0.1 * x4 * x4
            )
            w = uu + inner * inner
            acc += w if i == 0 or i == n_sub else (2.0 if i % 2 == 0 else 4.0) * w
            if i == n_sub:
                break
            # RK4 stages of the angular acceleration; the cart components
            # are trivially (x4, u)
            t = x1 + pi
            sx, cx = sin(t), cos(t)
            sgn = 1.0 if x2 > eps else (-1.0 if x2 < -eps else 0.0)
            b2 = ngl * sx - fl * x2 * abs(x2) - u * cx - fr * sgn
            m1, m2 = x1 + h2 * x2, x2 + h2 * b2
            t = m1 + pi
            sm, cm = sin(t), cos(t)
            sgn = 1.0 if m2 > eps else (-1.0 if m2 < -eps else 0.0)
            c2 = ngl * sm - fl * m2 * abs(m2) - u * cm - fr * sgn
            n1, n2 = x1 + h2 * m2, x2 + h2 * c2
            t = n1 + pi
            sn, cn = sin(t), cos(t)
            sgn = 1.0 if n2 > eps else (-1.0 if n2 < -eps else 0.0)
            d2 = ngl * sn - fl * n2 * abs(n2) - u * cn - fr * sgn
            p1, p2 = x1 + h * n2, x2 + h * d2
            t = p1 + pi
            sp, cp = sin(t), cos(t)
            sgn = 1.0 if p2 > eps else (-1.0 if p2 < -eps else 0.0)
            e2 = ngl * sp - fl * p2 * abs(p2) - u * cp - fr * sgn
            if tape is not None:
                tape.append(
                    (x1, x2, x3, x4, sa, ca, sin(x2), cv, sx, cx,
                     m1, m2, sm, cm, n1, n2, sn, cn, p1, p2, sp, cp)
                )
            # cart chain is linear in (x4, u): RK4 reduces to exact quadrature
            x3 += h * x4 + h * h2 * u
            x1 += h * (x2 + 2.0 * (m2 + n2) + p2) / 6.0
            x2 += h * (b2 + 2.0 * (c2 + d2) + e2) / 6.0
            x4 += h * u
        return [x1, x2, x3, x4], acc * h / 3.0

    def _sweep_adjoint(self, steps: list, end: list, u: float, lam: list) -> tuple[list, float]:
        """Pull an end-of-period adjoint back through one ``_sweep``.

        ``steps`` is the tape that ``_sweep`` recorded for the period (one
        entry per substep, the first starting from the period's start
        state), ``end`` the state it returned, and ``lam`` the adjoint of
        that end state.  Returns the adjoint of the start state and the
        derivative in ``u``, both of stage cost + <lam, x_end>, reversing
        the substeps stage by stage; the friction sign has zero derivative
        (it is constant off the deadband and the deadband is a plateau).
        Every trig value comes from the tape except those of ``end``.
        """
        gl = _G / _LENGTH
        fl = _FRICTION / _LENGTH
        h = self.T / self.substeps
        h2 = 0.5 * h
        h3 = h / 3.0
        h6 = h / 6.0
        n_sub = self.substeps
        ngl = -gl
        nfl2 = -2.0 * fl

        def dlrun(
            a2: float, a3: float, a4: float, s1: float, c1: float, s2: float, c2: float
        ) -> tuple[float, float, float, float]:
            # state partials of the running cost at a node whose angle has
            # sine s1 and cosine c1 and whose velocity a2 has sine s2 and
            # cosine c2; its u-part is added per period
            v = 1.0 - c1
            w = 1.0 + c2 * c2
            p = v * w
            inner = (
                3.51 * s1 * s1 + 4.82 * a2 * s1 + 2.31 * a2 * a2
                + 0.01 * a3 * a3 + 2.0 * p * p + 0.1 * a4 * a4
            )
            t = 2.0 * inner
            return (
                t * (7.02 * s1 * c1 + 4.82 * a2 * c1 + 4.0 * p * s1 * w),
                t * (4.82 * s1 + 4.62 * a2 - 8.0 * p * v * c2 * s2),
                t * 0.02 * a3,
                t * 0.2 * a4,
            )

        l1, l2, l3, l4 = lam
        gu = 2e-4 * u * self.T  # the 1e-4 u^2 term; the Simpson weights sum to T
        e1, e2, e3, e4 = end
        node = (e2, e3, e4, math.sin(e1), math.cos(e1), math.sin(e2), math.cos(e2))
        for i in range(n_sub, 0, -1):
            # Simpson node i closes substep i, which started from steps[i - 1]
            wt = h3 * ((2.0 if i % 2 == 0 else 4.0) if i < n_sub else 1.0)
            d1, d2, d3, d4 = dlrun(*node)
            l1 += wt * d1
            l2 += wt * d2
            l3 += wt * d3
            l4 += wt * d4
            # the stage angles themselves enter only through their trig values
            (_, x2, x3, x4, sa, ca, sv, cv, sx, cx,
             _, m2, sm, cm, _, n2, sn, cn, _, p2, sp, cp) = steps[i - 1]
            node = (x2, x3, x4, sa, ca, sv, cv)
            # cart chain: x3 += h x4 + h h2 u, x4 += h u
            gu += h * l4 + h * h2 * l3
            l4 += h * l3
            # angle chain: stage adjoints of the RK4 combination, then each
            # stage's angular acceleration in reverse order; its partials in
            # (angle, velocity, u) at stage point (a1, a2) are
            # (-gl cos(a1 + pi) + u sin(a1 + pi), -2 fl |a2|, -cos(a1 + pi))
            gm2 = gn2 = h3 * l1
            gp2 = h6 * l1
            gb2, gc2, gd2, ge2 = h6 * l2, h3 * l2, h3 * l2, h6 * l2
            g1, g2 = l1, l2 + h6 * l1
            gp1 = ge2 * (ngl * cp + u * sp)  # p = x + h (n2, d2)
            gp2 += ge2 * (nfl2 * abs(p2))
            gu -= ge2 * cp
            g1 += gp1
            gn2 += h * gp1
            g2 += gp2
            gd2 += h * gp2
            gn1 = gd2 * (ngl * cn + u * sn)  # n = x + h2 (m2, c2)
            gn2 += gd2 * (nfl2 * abs(n2))
            gu -= gd2 * cn
            g1 += gn1
            gm2 += h2 * gn1
            g2 += gn2
            gc2 += h2 * gn2
            gm1 = gc2 * (ngl * cm + u * sm)  # m = x + h2 (x2, b2)
            gm2 += gc2 * (nfl2 * abs(m2))
            gu -= gc2 * cm
            g1 += gm1
            g2 += h2 * gm1 + gm2
            gb2 += h2 * gm2
            l1 = g1 + gb2 * (ngl * cx + u * sx)
            l2 = g2 + gb2 * (nfl2 * abs(x2))
            gu -= gb2 * cx
        d1, d2, d3, d4 = dlrun(*node)  # Simpson endpoint at the period's start
        return [l1 + h3 * d1, l2 + h3 * d2, l3 + h3 * d3, l4 + h3 * d4], gu

    def _period(self, x, u, tape):
        # positional: perfbench/tracing.py counts periods through a wrapper
        # of _sweep that takes positional arguments only
        return self._sweep(x, u[0], tape)

    def _period_adjoint(self, k, x, u, x_next, lam, tape):
        if tape is None:  # record the period's stages again from its start state
            steps: list = []
            self._sweep(x, u[0], steps)
        else:
            n_sub = self.substeps
            steps = tape[k * n_sub : (k + 1) * n_sub]
        lam, gu = self._sweep_adjoint(steps, x_next, u[0], lam)
        return lam, [gu]


def pendulum_model(T: float = 0.05, substeps: int = 20) -> PendulumModel:
    return PendulumModel(T=T, substeps=substeps)


MODEL_NAMES = ("lq-scalar", "lq-double-integrator", "pendulum")


def model_by_name(name: str) -> SystemModel:
    if name == "lq-scalar":
        return lq_scalar()
    if name == "lq-double-integrator":
        return lq_double_integrator()
    if name == "pendulum":
        return pendulum_model()
    raise ValueError(f"unknown model {name!r}; expected one of {', '.join(MODEL_NAMES)}")
