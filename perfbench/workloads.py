"""The benchmark's workloads: inputs made from a seed, operations, checks.

Each workload yields rounds of operations.  Round r draws its inputs from
``numpy.random.default_rng([seed, r])``, so the same seed gives the same
inputs, and every round has the same make-up: the same number of
operations of each kind, and the same seed-independent known faults.  An
operation is timed alone; its check runs afterwards, untimed, against the
oracles in ``oracles.py`` or a property the method must have.
"""
from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as O

HERE = Path(__file__).resolve().parent
PAPER_C, PAPER_SIGMA = 3.0, 2.0 / 3.0
LQ_SCALAR = (2.0, 1.0, 1.0, 1.0)  # (a, b, q, r) of mpccert's lq-scalar model


class Mismatch(Exception):
    """An operation's output disagrees with an oracle or a required property."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


def close(value: float, ref: float, tol: float, what: str) -> None:
    """|value - ref| <= tol * max(1, |ref|)."""
    expect(
        abs(value - ref) <= tol * max(1.0, abs(ref)),
        f"{what}: {value!r} vs oracle {ref!r} (tol {tol:g})",
    )


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # a named fault makes this operation fail on every run: the pattern its
    # failure message must match; any other failure is unexpected
    known_fault: str | None = None

    def is_known(self, problem: str) -> bool:
        return self.known_fault is not None and re.match(self.known_fault, problem) is not None


# --- design -------------------------------------------------------------------


def _random_monotone(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    """gamma_1 in [1, 4), then increments in [0, 1.5), zero with probability 0.3.

    Zero increments next to positive ones break submultiplicativity.
    """
    g1 = 1.0 + float(rng.uniform(0.0, 3.0))
    incs = rng.uniform(0.0, 1.5, size=n - 1) * (rng.random(n - 1) < 0.7)
    return tuple(float(v) for v in np.cumsum(np.concatenate([[g1], incs])))


def _source(rng: np.random.Generator, family: int, n: int) -> tuple:
    if family == 0:
        return ("exp", float(rng.uniform(1.2, 6.0)), float(rng.uniform(0.2, 0.97)))
    if family == 1:
        return ("const", float(rng.uniform(1.5, 40.0)))
    return ("seq", _random_monotone(rng, n))


def _oracle_gamma(src: tuple, n: int) -> list[float]:
    if src[0] == "exp":
        return O.exp_gamma(src[1], src[2], n)
    if src[0] == "const":
        return O.const_gamma(src[1], n)
    return list(src[1][:n])


# the exact route's feasibility gate rejects HiGHS's point (see Design)
LP_FAULT = r"raised LpError: claimed optimum violates feasibility: "


class Design:
    """Warm-process design queries on ``certificate`` and ``analysis``."""

    # at N = 200, m = 1 the exact route fails on each of these every time:
    # the primal residual of the HiGHS point is ~1e-7 against the 1e-9 gate
    LP_FAMILIES = (("exp", PAPER_C, PAPER_SIGMA), ("const", 10.0), ("exp", 1.5, 0.9))

    def __init__(self, seed: int) -> None:
        import mpccert

        self.mc = mpccert
        self.seed = seed

    def _gamma(self, src: tuple, n: int):
        mc = self.mc
        if src[0] == "exp":
            return mc.gamma_from_exponential(src[1], src[2], n)
        if src[0] == "const":
            return mc.constant_gamma(src[1], n)
        return mc.GammaSequence(src[1][:n])

    def _family(self, src: tuple):
        if src[0] == "exp":
            return self.mc.exponential_family(src[1], src[2])
        return self.mc.constant_family(src[1])

    def closed_form_pair(self, src: tuple, N: int, m: int) -> list[Op]:
        """alpha(N, m) and alpha(N, N - m): two queries, checked against the
        exact value and against each other (the index is symmetric in m)."""
        mc = self.mc
        g = _oracle_gamma(src, N)
        seen = {}

        def query(k: int):
            return lambda: mc.certificate(mc.CertificateQuery(self._gamma(src, N), N, k))

        def check(res, k: int):
            close(res.alpha, float(O.alpha_exact(g, N, k)), 1e-12, f"alpha({N},{k})")
            if "submultiplicative" not in seen:
                seen["submultiplicative"] = O.is_submultiplicative(g)
            expect(
                res.submultiplicative == seen["submultiplicative"],
                f"submultiplicative flag {res.submultiplicative} at N={N}",
            )
            if k == m:
                seen["alpha"] = res.alpha
            elif "alpha" in seen:
                close(res.alpha, seen["alpha"], 1e-10, f"alpha({N},{k}) vs alpha({N},{m})")

        return [
            Op("closed_form", query(m), lambda res: check(res, m)),
            Op("closed_form", query(N - m), lambda res: check(res, N - m)),
        ]

    def exact(self, src: tuple, N: int, m: int, known_fault: str | None = None) -> Op:
        mc = self.mc

        def run():
            return mc.certificate(mc.CertificateQuery(self._gamma(src, N), N, m), "linear_program")

        def check(res):
            g = _oracle_gamma(src, N)
            cf = float(O.alpha_exact(g, N, m))
            tol = 1e-8 * max(1.0, abs(cf))
            expect(res.alpha >= cf - tol, f"LP alpha({N},{m}) {res.alpha!r} below closed form {cf!r}")
            if O.is_submultiplicative(g):
                close(res.alpha, cf, 1e-8, f"LP alpha({N},{m}) on a submultiplicative sequence")

        return Op("exact", run, check, known_fault)

    def horizon(self, src: tuple, policy) -> Op:
        mc = self.mc

        def run():
            return mc.minimal_horizon(self._family(src), policy)

        def check(res):
            n_hat = O.minimal_horizon(lambda n: _oracle_gamma(src, n), policy)
            expect(res.n_hat == n_hat, f"N_hat {res.n_hat} vs oracle {n_hat} ({src}, policy {policy})")
            g = _oracle_gamma(src, n_hat)
            close(res.alpha, float(O.alpha_exact(g, n_hat, res.m)), 1e-12, "alpha at N_hat")
            expect(res.alpha >= 0.0 > res.alpha_before, "N_hat is not the first certified horizon")

        return Op("minimal_horizon", run, check)

    def profile(self, src: tuple, N: int) -> Op:
        mc = self.mc

        def run():
            return mc.alpha_profile_m(self._gamma(src, N), N)

        def check(prof):
            g = _oracle_gamma(src, N)
            expect([m for m, _ in prof] == list(range(1, N)), "profile does not cover m = 1..N-1")
            ref = O.alpha_profile(g, N)
            for (m, a), r in zip(prof, ref):
                close(a, r, 1e-11, f"profile alpha({N},{m})")
                close(a, prof[N - m - 1][1], 1e-10, f"profile symmetry at m={m}")
            for m in (1, N // 2, N - 1):
                close(prof[m - 1][1], float(O.alpha_exact(g, N, m)), 1e-12, f"profile alpha({N},{m})")

        return Op("profile", run, check)

    def region(self, N: int, m: int, C_axis: np.ndarray, s_axis: np.ndarray) -> Op:
        mc = self.mc

        def run():
            return mc.stability_region(N, m, C_axis, s_axis)

        def check(grid):
            _check_region(grid.stable, N, m, C_axis, s_axis)

        return Op("region", run, check)

    def table(self, M_values: list[float]) -> Op:
        mc = self.mc

        def run():
            return mc.horizon_table(M_values)

        def check(rows):
            expect(len(rows) == len(M_values), "horizon_table row count")
            for row, M in zip(rows, M_values):
                _check_table_row(row, M)

        return Op("horizon_table", run, check)

    def warmup_ops(self) -> list[Op]:
        src = ("exp", PAPER_C, PAPER_SIGMA)
        return [
            *self.closed_form_pair(src, 20, 3),
            self.exact(src, 20, 3),
            self.horizon(("const", 5.0), 1),
            self.profile(src, 20),
            self.region(2, 1, np.linspace(1.0, 3.0, 10), np.linspace(0.01, 0.99, 10)),
            self.table([3.0]),
        ]

    def round_ops(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        ops = []
        # closed form: N stratified over 20..400, families in turn
        for k in range(24):
            N = 20 + int((k + rng.random()) * 381 / 24)
            ops.extend(self.closed_form_pair(_source(rng, k % 3, N), N, int(rng.integers(1, N))))
        # exact route: fixed families, on which it succeeds for every m up to
        # N = 100 and fails at N = 200; on seeded bounds it fails now and then
        # at any N, which would make the failed share depend on the seed
        for N in (20, 50, 100):
            ops.extend(self.exact(src, N, int(rng.integers(1, N))) for src in self.LP_FAMILIES)
        ops.extend(self.exact(src, 200, 1, LP_FAULT) for src in self.LP_FAMILIES)
        # minimal horizons
        const = ("const", float(rng.uniform(2.0, 40.0)))
        expo = ("exp", float(rng.uniform(1.5, 4.0)), float(rng.uniform(0.3, 0.9)))
        for policy in (1, "half", "best"):
            ops.append(self.horizon(const, policy))
            ops.append(self.horizon(expo, policy))
        ops.append(self.horizon(("exp", PAPER_C, PAPER_SIGMA), "best"))
        ops.append(self.horizon(("exp", PAPER_C, PAPER_SIGMA), 1))
        # profiles, regions, a horizon table
        for lo, hi in ((20, 60), (60, 120)):
            N = int(rng.integers(lo, hi + 1))
            ops.append(self.profile(_source(rng, int(rng.integers(0, 3)), N), N))
        ops.append(self.region(2, 1, np.linspace(1.0, 3.0, 60), np.linspace(0.01, 0.99, 60)))
        N = int(rng.integers(4, 21))
        ops.append(
            self.region(N, int(rng.integers(1, N)), np.linspace(1.0, 10.0, 100), np.linspace(0.01, 0.99, 100))
        )
        ops.append(self.table(sorted(float(v) for v in rng.uniform(1.5, 20.0, 5))))
        return ops


def _check_region(stable: np.ndarray, N: int, m: int, C_axis, s_axis) -> None:
    """Cells whose oracle alpha is clearly signed must agree; at N = 2 the
    verdict must also follow the analytic boundary C = 2 / (1 + sigma)."""
    alpha = O.region_alpha(N, m, C_axis, s_axis)
    expect(stable.shape == alpha.shape, f"region shape {stable.shape}")
    decided = np.abs(alpha) > O.SIGN_GUARD
    bad = int(np.count_nonzero(stable[decided] != (alpha[decided] >= 0.0)))
    expect(bad == 0, f"{bad} region cells disagree with the oracle at N={N}, m={m}")
    if N == 2 and m == 1:
        for i, C in enumerate(C_axis):
            for j, s in enumerate(s_axis):
                if abs(C - 2.0 / (1.0 + s)) > O.SIGN_GUARD:
                    expect(bool(stable[i, j]) == O.region_n2_stable(C, s), f"N=2 boundary at C={C}, sigma={s}")


def _check_table_row(row: dict, M: float) -> None:
    family = lambda n: O.const_gamma(M, n)
    n1, nh = O.minimal_horizon(family, 1), O.minimal_horizon(family, "half")
    expect(
        (int(row["N_hat_m1"]), int(row["N_hat_half"])) == (n1, nh),
        f"table at M={M}: N_hat ({row['N_hat_m1']}, {row['N_hat_half']}) vs oracle ({n1}, {nh})",
    )
    b1, bh = O.horizon_bound_m1(M), O.horizon_bound_half_even(M)
    close(float(row["bound_m1"]), b1, 1e-11, f"bound_m1 at M={M}")
    close(float(row["bound_half"]), bh, 1e-11, f"bound_half at M={M}")
    expect(n1 <= math.ceil(b1) + 1 and nh <= math.ceil(bh) + 1, f"N_hat above its bound at M={M}")
    expect(nh <= n1, f"half policy needs more than m = 1 at M={M}")


# --- closed loop ----------------------------------------------------------------


# an inexact V_20 that the shooting solver reports as converged (see ClosedLoop)
SHOOTING_FAULT = r"V_20 at solve \d+ \(lq-scalar\): .* vs oracle "


class ClosedLoop:
    """Warm-process closed loops: dropout campaigns and pendulum runs."""

    def __init__(self, seed: int) -> None:
        import mpccert

        self.mc = mpccert
        self.sim = sys.modules["mpccert.sim"]
        self.seed = seed
        # every shooting solve of the current operation, for the checks
        self.solves: list = []
        loop = sys.modules["mpccert.sim.loop"]
        solve = loop.solve_finite_horizon

        def recording(problem):
            sol = solve(problem)
            self.solves.append((problem, sol))
            return sol

        loop.solve_finite_horizon = recording

    def campaign(self, model: str, N: int, m_star: int, p: float, x0, cseed: int, steps: int,
                 known_fault: str | None = None) -> Op:
        mc, sim = self.mc, self.sim

        def run():
            self.solves = []
            plant = sim.lq_scalar() if model == "lq-scalar" else sim.lq_double_integrator()
            exp = mc.NetworkExperiment(plant, N, m_star, p, 1, steps, x0=np.array(x0), base_seed=cseed)
            return mc.run_network_experiment(exp), self.solves

        def check(out):
            report, solves = out
            if model == "lq-scalar":
                p_N = O.riccati_scalar(*LQ_SCALAR, N)[-1]
                value = lambda x: p_N * float(x[0]) ** 2
                gamma = O.gamma_riccati_scalar(*LQ_SCALAR, N)
            else:
                P_N = O.riccati_matrix(*O.double_integrator(), N)[-1]
                value = lambda x: float(x @ P_N @ x)
                gamma = O.gamma_riccati_matrix(*O.double_integrator(), N)
            expect(len(solves) >= 2, "campaign ran fewer than two solves")
            for k, (prob, sol) in enumerate(solves):
                close(sol.value, value(prob.x0), 1e-6, f"V_{N} at solve {k} ({model})")
            alpha_star = min(float(O.alpha_exact(gamma, N, m)) for m in range(1, m_star + 1))
            close(report.certificate.alpha_star, alpha_star, 1e-10, "alpha_star")
            expect(report.total_violations == 0, f"{report.total_violations} audit violations")
            for o in report.outcomes:
                expect(
                    o.measured >= alpha_star - 1e-6,
                    f"measured alpha {o.measured:.6g} below alpha_star {alpha_star:.6g}",
                )

        return Op(f"campaign_{model}", run, check, known_fault)

    def pendulum(self, N: int, m: int, x0, steps: int) -> Op:
        sim = self.sim

        def run():
            self.solves = []
            sched = sim.constant_schedule(m, -(-steps // m))
            return sim.mpc_run(sim.pendulum_model(), N, sched, np.array(x0), steps), self.solves

        def check(out):
            trace, solves = out
            expect(trace.failure is None, f"pendulum loop failed: {trace.failure}")
            _expect_solves(solves, trace)
            for k in range(trace.steps):
                x_next, cost = O.pendulum_period(trace.states[k], float(trace.controls[k, 0]))
                for a, b in zip(trace.states[k + 1], x_next):
                    close(float(a), b, 1e-9, f"pendulum state at step {k + 1}")
                close(float(trace.stage_costs[k]), cost, 1e-9, f"pendulum stage cost at step {k}")
            for k, (prob, sol) in enumerate(solves):
                warm = np.zeros(N) if prob.guess is None else prob.guess[:, 0]
                warm_cost = O.pendulum_cost(prob.x0, warm)
                expect(sol.value <= warm_cost * (1.0 + 1e-9), f"solve {k}: V_N above its warm start's cost")
            model = sim.pendulum_model()
            for eq in (np.zeros(4), np.array([math.pi, 0.0, 0.0, 0.0])):
                drift = float(np.max(np.abs(model.f(eq, np.zeros(1)) - eq)))
                drift_oracle = max(abs(a - b) for a, b in zip(O.pendulum_period(eq, 0.0)[0], eq))
                expect(max(drift, drift_oracle) <= 1e-8, f"equilibrium drift {drift:.2e}")

        return Op("pendulum", run, check)

    def double_integrator_loop(self, N: int, x0) -> Op:
        """A one-step loop: the double integrator's code path without a
        campaign, which its certificate allows only from N ~ 45."""
        sim = self.sim

        def run():
            self.solves = []
            sim.gamma_from_riccati(sim.lq_double_integrator(), N)
            sched = sim.constant_schedule(1, 1)
            return sim.mpc_run(sim.lq_double_integrator(), N, sched, np.array(x0), 1), self.solves

        def check(out):
            trace, solves = out
            expect(trace.failure is None, f"double-integrator loop failed: {trace.failure}")
            _expect_solves(solves, trace)
            P_N = O.riccati_matrix(*O.double_integrator(), N)[-1]
            for k, (prob, sol) in enumerate(solves):
                close(sol.value, float(prob.x0 @ P_N @ prob.x0), 1e-6, f"V_{N} at solve {k}")

        return Op("loop_lq-double-integrator", run, check)

    def warmup_ops(self) -> list[Op]:
        return [
            self.campaign("lq-scalar", 6, 2, 0.3, [1.0], 0, 2),
            self.double_integrator_loop(10, [1.0, 0.0]),
            self.pendulum(4, 1, [0.1, 0.0, 0.0, 0.0], 1),
        ]

    def round_ops(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        ops = []
        # every round covers N in {6, 8} x m* in {2, 3} x four strata of p,
        # so the number of updates per round barely depends on the seed
        for k in range(8):
            x0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
            p = 0.1 * (1 + k % 4) + float(rng.uniform(0.0, 0.1))
            ops.append(
                self.campaign("lq-scalar", 6 if k < 4 else 8, 2 + k % 2, p, [x0], int(rng.integers(0, 2**31)), 20)
            )
        # one fixed velocity kick: the cold solve takes 1.4 to 3.3 s as x0
        # varies, which would swamp the rest of the round; one applied move
        # always takes two solves, whatever the dropouts
        ops.append(self.campaign("lq-double-integrator", 50, 2, 0.3, [0.0, 1.0], 0, 1))
        # near upright, with the angle kept off zero: tiny quartic costs
        # make solve times erratic
        for m in (1, 2):
            x0 = [rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.2), rng.uniform(-0.05, 0.05),
                  rng.uniform(-0.1, 0.1), rng.uniform(-0.05, 0.05)]
            ops.append(self.pendulum(8, m, [float(v) for v in x0], 4))
        # solve_finite_horizon reports converged=True with V_20 4.8e-4 above
        # the Riccati value from x0 = 1, so this campaign fails every time
        ops.append(self.campaign("lq-scalar", 20, 3, 0.3, [1.0], 0, 30, SHOOTING_FAULT))
        return ops


def _expect_solves(solves: list, trace) -> None:
    """The recorder saw every solve of an unfailed loop: one per update and
    the final one, so the per-solve checks cannot pass on an empty list."""
    expect(
        len(solves) == len(trace.updates) + 1,
        f"{len(solves)} solves recorded for {len(trace.updates)} updates",
    )


# --- cli ------------------------------------------------------------------------


@dataclass
class Invocation:
    stdout: str
    returncode: int
    stderr: str
    output: str | None  # contents of the --output file, if any


class Cli:
    """``python -m mpccert.cli`` subprocesses, one at a time."""

    def __init__(self, seed: int, tracer=None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.outdir = HERE / "out" / f"cli-{os.getpid()}"
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, MPCCERT_OUTDIR=str(self.outdir))
        self.calls = 0
        self.process_s: list[float] = []
        self.interpreter_s: list[float] = []
        self._first_network: dict[int, str] = {}

    def close(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)

    def _run(self, args: list[str]):
        """The timed part: one process, start to exit."""
        self.calls += 1
        spans = None
        cmd = [sys.executable, "-m", "mpccert.cli", *args]
        if self.tracer is not None:
            spans = self.outdir / f"spans-{self.calls}.npz"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans), *args]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, timeout=150)
        return proc, t0, time.perf_counter() - t0, spans

    def _collect(self, output: str | None, ran) -> Invocation:
        """The untimed part: merge the child's spans, read its output file."""
        proc, t0, wall, spans = ran
        self.process_s.append(wall)
        if spans is not None and spans.exists():
            inside = self.tracer.merge_file(spans)
            spans.unlink()
            self.interpreter_s.append(wall - inside)
            self.tracer.add_span("cli.interpreter", t0, t0 + wall - inside)
        text = None
        if output is not None and (self.outdir / output).exists():
            text = (self.outdir / output).read_text()
            (self.outdir / output).unlink()
        return Invocation(proc.stdout, proc.returncode, proc.stderr, text)

    def op(self, kind: str, args: list, check: Callable[[Invocation], None], output: str | None = None) -> Op:
        args = [str(a) for a in args]

        def checked(ran) -> None:
            inv = self._collect(output, ran)
            expect(inv.returncode == 0, f"exit {inv.returncode}: {inv.stderr.strip()[-300:]}")
            check(inv)

        return Op(kind, lambda: self._run(args), checked)

    def extras(self) -> dict:
        ms = lambda xs: 1e3 * float(np.median(xs)) if len(xs) else 0.0
        return {
            "cli.process_ms": ms(self.process_s),
            "cli.import_ms": ms(self.tracer.durations("cli.import")),
            "cli.interpreter_ms": ms(self.interpreter_s),
        }

    def warmup_ops(self) -> list[Op]:
        return [self.op("alpha", ["alpha", "--C", "3", "--sigma", "0.5", "--N", "10", "--m", "2"],
                        _alpha_check(("exp", 3.0, 0.5), 10, 2))]

    def round_ops(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        f = lambda lo, hi, digits=6: f"{rng.uniform(lo, hi):.{digits}f}"
        ops = []

        C, s, N = f(1.2, 5.0), f(0.2, 0.95), int(rng.integers(20, 201))
        m = int(rng.integers(1, N))
        ops.append(self.op("alpha", ["alpha", "--C", C, "--sigma", s, "--N", N, "--m", m],
                           _alpha_check(("exp", float(C), float(s)), N, m)))

        # the exact route on one of the fixed families of the design workload
        src = Design.LP_FAMILIES[int(rng.integers(0, 3))]
        flags = ["--M", repr(src[1])] if src[0] == "const" else ["--C", repr(src[1]), "--sigma", repr(src[2])]
        m = int(rng.integers(1, 20))
        ops.append(self.op("alpha_exact", ["alpha", *flags, "--N", 20, "--m", m, "--exact"],
                           _alpha_check(src, 20, m, exact=True)))

        C, s, L = f(1.2, 5.0), f(0.2, 0.95), int(rng.integers(10, 61))
        ops.append(self.op("gamma", ["gamma", "--C", C, "--sigma", s, "--length", L],
                           _gamma_check(float(C), float(s), L)))

        M, N = f(1.5, 40.0, 4), int(rng.integers(10, 61))
        ops.append(self.op("profile", ["profile", "--M", M, "--N", N], _profile_check(float(M), N)))

        C, s = f(1.5, 4.0), f(0.3, 0.8)
        policy = ("1", "half", "best")[int(rng.integers(0, 3))]
        ops.append(self.op("horizon", ["horizon", "--C", C, "--sigma", s, "--policy", policy],
                           _horizon_check(("exp", float(C), float(s)), policy)))

        lo = f(1.5, 3.0, 3)
        ops.append(self.op("horizon_table", ["horizon", "--table", lo, f"{float(lo) + 8:.3f}", "2",
                                             "--output", f"table-{r}.csv"],
                           _table_check, output=f"table-{r}.csv"))

        N = int(rng.integers(2, 13))
        m = int(rng.integers(1, N)) if N > 2 else 1
        ops.append(self.op("region", ["region", "--N", N, "--m", m, "--grid", 50, "--output", f"region-{r}.csv"],
                           _region_check(N, m, 50), output=f"region-{r}.csv"))

        N, m, x0 = int(rng.choice([6, 8])), int(rng.integers(1, 4)), f(0.5, 2.0, 4)
        ops.append(self.op("simulate", ["simulate", "--model", "lq-scalar", "--N", N, "--m", m,
                                        "--steps", 20, "--x0", x0],
                           _simulate_check(N, m, float(x0))))

        args = ["network", "--model", "lq-scalar", "--N", 6, "--m-star", 3, "--p", f(0.1, 0.5, 3),
                "--seeds", 2, "--steps", 20, "--base-seed", int(rng.integers(0, 10**6))]
        net = _network_check(6, 3, 2)

        def first(inv: Invocation) -> None:
            net(inv)
            self._first_network[r] = inv.stdout

        def repeat(inv: Invocation) -> None:
            expect(inv.stdout == self._first_network.pop(r, None), "same network command, different bytes")

        ops.append(self.op("network", args, first))
        ops.append(self.op("network", args, repeat))
        return ops


def _alpha_check(src: tuple, N: int, m: int, exact: bool = False):
    def check(inv: Invocation) -> None:
        rec = json.loads(inv.stdout)
        g = _oracle_gamma(src, N)
        cf = float(O.alpha_exact(g, N, m))
        expect((rec["N"], rec["m"]) == (N, m), "alpha record echoes the wrong (N, m)")
        expect(rec["stable"] == (rec["alpha"] >= 0.0), "stable flag disagrees with alpha")
        if exact:
            expect(rec["method"] == "linear_program", "exact route not taken")
            expect(rec["alpha"] >= cf - 1e-8 * max(1.0, abs(cf)), "CLI LP alpha below the closed form")
            if O.is_submultiplicative(g):
                close(rec["alpha"], cf, 1e-8, "CLI LP alpha")
        else:
            close(rec["alpha"], cf, 1e-11, "CLI alpha")

    return check


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().splitlines() if not line.startswith("#")]


def _gamma_check(C: float, s: float, L: int):
    def check(inv: Invocation) -> None:
        rows = _csv_rows(inv.stdout)
        expect(rows[0] == ["i", "gamma"] and len(rows) == L + 1, "gamma CSV shape")
        for (i, v), ref in zip(rows[1:], O.exp_gamma(C, s, L)):
            close(float(v), ref, 1e-11, f"gamma_{i}")

    return check


def _profile_check(M: float, N: int):
    def check(inv: Invocation) -> None:
        rows = _csv_rows(inv.stdout)
        expect(rows[0] == ["m", "alpha"] and len(rows) == N, "profile CSV shape")
        g = O.const_gamma(M, N)
        alphas = [float(a) for _, a in rows[1:]]
        for m, a in enumerate(alphas, start=1):
            close(a, float(O.alpha_exact(g, N, m)), 1e-11, f"CLI profile alpha({N},{m})")
            close(a, alphas[N - m - 1], 1e-10, f"CLI profile symmetry at m={m}")

    return check


def _horizon_check(src: tuple, policy: str):
    pol = int(policy) if policy.isdigit() else policy

    def check(inv: Invocation) -> None:
        rec = json.loads(inv.stdout)
        n_hat = O.minimal_horizon(lambda n: _oracle_gamma(src, n), pol)
        expect(rec["N_hat"] == n_hat, f"CLI N_hat {rec['N_hat']} vs oracle {n_hat}")
        expect(rec["alpha_at"] >= 0.0, "CLI alpha at N_hat is negative")

    return check


def _table_check(inv: Invocation) -> None:
    expect(inv.output is not None, "horizon table file missing")
    rows = _csv_rows(inv.output)
    header = rows[0]
    expect(header == ["M", "N_hat_m1", "N_hat_half", "bound_m1", "bound_half"], "table header")
    expect(len(rows) == 6, f"table has {len(rows) - 1} rows, expected 5")
    for row in rows[1:]:
        _check_table_row(dict(zip(header, row)), float(row[0]))


def _region_check(N: int, m: int, grid: int):
    C_axis, s_axis = np.linspace(1.0, 10.0, grid), np.linspace(0.01, 0.99, grid)

    def check(inv: Invocation) -> None:
        expect(inv.output is not None, "region file missing")
        rows = _csv_rows(inv.output)
        expect(rows[0] == ["C", "sigma", "stable"] and len(rows) == grid * grid + 1, "region CSV shape")
        stable = np.array([row[2] == "1" for row in rows[1:]]).reshape(grid, grid)
        _check_region(stable, N, m, C_axis, s_axis)

    return check


def _simulate_check(N: int, m: int, x0: float):
    def check(inv: Invocation) -> None:
        rec = json.loads(inv.stdout)
        expect(rec["failure"] is None, f"simulate failed: {rec['failure']}")
        close(rec["value_initial"], O.riccati_scalar(*LQ_SCALAR, N)[-1] * x0 * x0, 1e-6, "CLI V_N(x0)")
        cert = float(O.alpha_exact(O.gamma_riccati_scalar(*LQ_SCALAR, N), N, m))
        close(rec["certificate_alpha"], cert, 1e-10, "CLI certificate alpha")
        expect(rec["measured_alpha"] >= cert - 1e-6, "CLI measured alpha below the certificate")

    return check


def _network_check(N: int, m_star: int, seeds: int):
    gamma = O.gamma_riccati_scalar(*LQ_SCALAR, N)
    profile = [float(O.alpha_exact(gamma, N, m)) for m in range(1, m_star + 1)]

    def check(inv: Invocation) -> None:
        rec = json.loads(inv.stdout)
        for (m, a), ref in zip(rec["alpha_profile"], profile):
            close(a, ref, 1e-10, f"CLI network alpha({N},{m})")
        close(rec["alpha_star"], min(profile), 1e-10, "CLI alpha_star")
        expect(rec["violations"] == 0, f"{rec['violations']} audit violations")
        expect(len(rec["seeds"]) == seeds, "seed count")
        for o in rec["seeds"]:
            expect(o["measured_alpha"] >= min(profile) - 1e-6, "CLI measured alpha below alpha_star")

    return check


WORKLOADS = {"design": Design, "closed-loop": ClosedLoop, "cli": Cli}
