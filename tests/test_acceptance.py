"""Acceptance suite: one test per advertised guarantee, at pinned tolerances.

Each test prints exactly one ``ACCEPTANCE n: PASS/FAIL`` line.  The checks
run the library end to end — certificates, horizon analysis, region grids,
shooting, closed loops, networked campaigns — against independent oracles
(hand arithmetic, Riccati recursions, analytic thresholds, brute-force
enumeration) rather than against the code's own outputs.
"""
import math
import time

import numpy as np
import pytest

from mpccert import (
    CertificateQuery,
    NetworkExperiment,
    alpha_closed_form,
    alpha_lp,
    certificate,
    check_submultiplicative,
    constant_family,
    constant_gamma,
    exponential_family,
    gamma_from_exponential,
    horizon_bound_half,
    horizon_bound_m1,
    minimal_horizon,
    run_network_experiment,
    stability_region,
)
from mpccert.sim import (
    ShootingProblem,
    constant_schedule,
    gamma_from_riccati,
    lq_scalar,
    measured_alpha,
    mpc_run,
    pendulum_model,
    riccati_value,
    solve_finite_horizon,
)

from conftest import random_monotone_gamma


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_01_minimal_horizons_for_the_benchmark_bounds():
    """C = 3, sigma = 2/3: free control horizon certifies at N = 12, m = 1 at 18."""
    t0 = time.perf_counter()
    factory = exponential_family(3.0, 2.0 / 3.0)
    best = minimal_horizon(factory, policy="best")
    single = minimal_horizon(factory, policy=1)
    elapsed = time.perf_counter() - t0
    ok = best.n_hat == 12 and single.n_hat == 18 and elapsed < 1.0
    _report(
        1,
        ok,
        f"N_hat(best m) = {best.n_hat} (want 12), N_hat(m=1) = {single.n_hat} "
        f"(want 18), {elapsed:.3f} s",
    )


def test_02_formula_matches_the_exact_program_when_expected():
    """LP vs closed form: equal under submultiplicative differences, never below."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = []

    # 200 exponential-bound instances; equality whenever the differences
    # are submultiplicative (tested, not assumed: it is NOT automatic for
    # exponential bounds — the exact characterization is (C-1)^2 >= C*sigma)
    submult_seen = 0
    for _ in range(200):
        C = float(rng.uniform(1.0, 8.0))
        sigma = float(rng.uniform(0.05, 0.95))
        n = int(rng.integers(2, 26))
        gamma = gamma_from_exponential(C, sigma, n)
        m = int(rng.integers(1, n))
        q = CertificateQuery(gamma, n, m)
        a_cf = alpha_closed_form(q).alpha
        a_lp = alpha_lp(q).alpha
        if a_lp < a_cf - 1e-8:
            failures.append(f"exp C={C:.3f} s={sigma:.3f} N={n} m={m}: lp<cf")
        if check_submultiplicative(gamma):
            submult_seen += 1
            if abs(a_lp - a_cf) > 1e-8:
                failures.append(
                    f"exp C={C:.3f} s={sigma:.3f} N={n} m={m}: |lp-cf|={abs(a_lp-a_cf):.2e}"
                )
    if submult_seen < 60:
        failures.append(f"only {submult_seen} submultiplicative draws: equality clause undertested")

    # 200 monotone but non-submultiplicative sequences; the closed form
    # must stay a lower bound
    checked = 0
    guard = 0
    while checked < 200 and guard < 5000:
        guard += 1
        gamma = random_monotone_gamma(rng, int(rng.integers(2, 26)))
        if check_submultiplicative(gamma):
            continue
        n = gamma.n
        m = int(rng.integers(1, n))
        q = CertificateQuery(gamma, n, m)
        if alpha_lp(q).alpha < alpha_closed_form(q).alpha - 1e-8:
            failures.append(f"monotone draw {checked}: lp<cf")
        checked += 1
    if checked < 200:
        failures.append(f"sampler found only {checked} non-submultiplicative sequences")

    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"too slow: {elapsed:.1f} s")
    _report(
        2,
        not failures,
        f"400 instances ({submult_seen} submultiplicative), tol 1e-8, "
        f"{elapsed:.1f} s" + (f"; failures: {failures[:3]}" if failures else ""),
    )


def test_03_symmetry_and_monotonicity_in_the_control_horizon():
    """alpha(N, m) = alpha(N, N-m) and nondecreasing up to floor(N/2)."""
    t0 = time.perf_counter()
    worst_sym = 0.0
    worst_mono = 0.0
    for C in np.linspace(1.0, 6.0, 5):
        for sigma in np.linspace(0.1, 0.9, 5):
            gamma = gamma_from_exponential(float(C), float(sigma), 40)
            for n in range(2, 41):
                alphas = [
                    alpha_closed_form(CertificateQuery(gamma, n, m)).alpha
                    for m in range(1, n)
                ]
                for m in range(1, n):
                    worst_sym = max(worst_sym, abs(alphas[m - 1] - alphas[n - m - 1]))
                for m in range(1, n // 2):
                    worst_mono = max(worst_mono, alphas[m - 1] - alphas[m])
    elapsed = time.perf_counter() - t0
    ok = worst_sym <= 1e-10 and worst_mono <= 1e-12 and elapsed < 10.0
    _report(
        3,
        ok,
        f"max |alpha(m) - alpha(N-m)| = {worst_sym:.2e} (tol 1e-10), max "
        f"monotonicity defect = {worst_mono:.2e} (tol 1e-12), N <= 40, "
        f"5x5 grid, {elapsed:.1f} s",
    )


def test_04_stability_region_boundary_and_nesting():
    """At N = 2 the stable set is C <= 2/(1+sigma); regions grow with N."""
    t0 = time.perf_counter()
    failures = []
    grids = {n: stability_region(n, 1) for n in (2, 4, 8, 16)}

    g2 = grids[2]
    cell = float(g2.C_values[1] - g2.C_values[0])
    for j, sigma in enumerate(g2.sigma_values):
        col = g2.stable[:, j]
        k = int(np.count_nonzero(col))
        if k == 0:
            failures.append(f"sigma={sigma:.3f}: no stable cell at all")
            continue
        c_star = 2.0 / (1.0 + float(sigma))
        c_last = float(g2.C_values[k - 1])
        if abs(c_last - c_star) > cell + 1e-9:
            failures.append(
                f"sigma={sigma:.3f}: boundary {c_last:.4f} vs 2/(1+s)={c_star:.4f}"
            )

    for small, large in ((2, 4), (4, 8), (8, 16)):
        if not np.all(grids[large].stable | ~grids[small].stable):
            failures.append(f"region at N={small} not contained in N={large}")

    elapsed = time.perf_counter() - t0
    _report(
        4,
        not failures,
        f"200x200 grid, boundary within one cell ({cell:.4f}), regions nested "
        f"over N in {{2,4,8,16}}, {elapsed:.1f} s"
        + (f"; failures: {failures[:3]}" if failures else ""),
    )


def test_05_constant_bound_horizon_thresholds():
    """Scanned minimal horizons against the analytic thresholds, M in (1, 100]."""
    t0 = time.perf_counter()
    failures = []
    grid = [1.1, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0,
            10.0, 15.0, 20.0, 30.0, 40.0, 60.0, 80.0, 100.0]
    n_hat_m1 = {}
    n_hat_half = {}
    for M in grid:
        n1 = minimal_horizon(constant_family(M), 1, n_max=800).n_hat
        nh = minimal_horizon(constant_family(M), "half", n_max=800).n_hat
        n_hat_m1[M] = n1
        n_hat_half[M] = nh
        if n1 > math.ceil(horizon_bound_m1(M)) + 1:
            failures.append(f"M={M}: N_hat(m1)={n1} above ceil(bound)+1")
        parity = "even" if nh % 2 == 0 else "odd"
        if nh > math.ceil(horizon_bound_half(M, parity)) + 1:
            failures.append(f"M={M}: N_hat(half)={nh} above ceil(bound)+1")
        # the half policy is never worse, and strictly better once the
        # horizons are long enough for it to act: from M = 4 on this grid.
        # At M = 3 and M = 3.5 both policies first certify at the same N
        # (4 resp. 5) — the advantage provably needs more room than the
        # smallest stabilizing horizons provide, so strictness there would
        # assert something false.
        if nh > n1:
            failures.append(f"M={M}: half policy worse ({nh} > {n1})")
        if M >= 4.0 and not nh < n1:
            failures.append(f"M={M}: expected strict improvement, got {nh} vs {n1}")

    for M in (10.0, 20.0, 40.0, 80.0):
        r1 = n_hat_m1[M] / (M * math.log(M))
        rh = n_hat_half[M] / (2.0 * math.log(2.0) * M)
        if not 0.5 <= r1 <= 1.5:
            failures.append(f"M={M}: N_hat(m1)/(M ln M) = {r1:.3f}")
        if not 0.5 <= rh <= 1.5:
            failures.append(f"M={M}: N_hat(half)/(2 ln2 M) = {rh:.3f}")

    elapsed = time.perf_counter() - t0
    _report(
        5,
        not failures,
        f"{len(grid)} bounds in (1, 100]: thresholds dominate, half <= single "
        f"everywhere with strictness from M = 4, growth ratios in [0.5, 1.5], "
        f"{elapsed:.1f} s" + (f"; failures: {failures[:3]}" if failures else ""),
    )


def test_06_single_step_index_approaches_one():
    """M = 2, m = 1: alpha reaches 0.99 by N <= 100 and never decreases past N_hat."""
    gamma = constant_gamma(2.0, 100)
    alphas = [
        alpha_closed_form(CertificateQuery(gamma, n, 1)).alpha for n in range(2, 101)
    ]
    n_hat = minimal_horizon(constant_family(2.0), 1).n_hat
    reached = next((n for n, a in zip(range(2, 101), alphas) if a >= 0.99), None)
    tail = alphas[n_hat - 2 :]
    worst_drop = max(
        (a - b for a, b in zip(tail, tail[1:])), default=-math.inf
    )
    ok = reached is not None and worst_drop <= 1e-12
    _report(
        6,
        ok,
        f"alpha >= 0.99 first at N = {reached} (<= 100), nondecreasing past "
        f"N_hat = {n_hat} (worst drop {worst_drop:.2e}, tol 1e-12)",
    )


def test_07_shooting_and_closed_loops_against_the_riccati_oracle():
    """Numerical optimal control agrees with exact LQ values; loops beat certificates."""
    t0 = time.perf_counter()
    failures = []
    model = lq_scalar()

    rng = np.random.default_rng(77)
    worst_value_err = 0.0
    for i in range(100):
        n = 2 + i % 9  # horizons 2..10
        x0 = np.array([float(rng.uniform(-3.0, 3.0))])
        sol = solve_finite_horizon(ShootingProblem(model, n, x0))
        expect = riccati_value(model, n, x0)
        err = abs(sol.value - expect) / max(1.0, abs(expect))
        worst_value_err = max(worst_value_err, err)
    if worst_value_err > 1e-6:
        failures.append(f"shooting vs exact value: {worst_value_err:.2e}")

    worst_gap = math.inf
    for n in range(3, 9):
        gamma = gamma_from_riccati(model, n)
        for m in range(1, n):
            cert = certificate(CertificateQuery(gamma, n, m))
            trace = mpc_run(model, n, constant_schedule(m, 30), np.array([1.0]), 30)
            gap = measured_alpha(trace) - cert.alpha
            worst_gap = min(worst_gap, gap)
            if gap < -1e-6:
                failures.append(f"N={n} m={m}: measured below certificate by {-gap:.2e}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"too slow: {elapsed:.1f} s")
    _report(
        7,
        not failures,
        f"100 solves within {worst_value_err:.1e} of the exact value (tol 1e-6); "
        f"27 closed loops, min(measured - certified) = {worst_gap:.3f} >= -1e-6, "
        f"{elapsed:.1f} s" + (f"; failures: {failures[:3]}" if failures else ""),
    )


def test_08_networked_audit_and_its_falsification_probe():
    """Certified dropout campaign shows no violations; an inflated index must."""
    t0 = time.perf_counter()
    exp = NetworkExperiment(lq_scalar(), 6, 3, 0.3, 10, 30)
    report = run_network_experiment(exp)
    cost_ok = all(o.audit.cost_ok for o in report.outcomes)

    probe = run_network_experiment(exp, audit_alpha=1.0)
    elapsed = time.perf_counter() - t0
    ok = (
        report.certificate.alpha_star > 0
        and report.total_violations == 0
        and cost_ok
        and probe.total_violations >= 1
        and elapsed < 60.0
    )
    _report(
        8,
        ok,
        f"alpha* = {report.certificate.alpha_star:.4f}, 10 seeds at p = 0.3: "
        f"{report.total_violations} violations, max cost ratio "
        f"{report.cost_ratio_max:.4f} <= 1; probe at alpha = 1.0: "
        f"{probe.total_violations} violations, {elapsed:.1f} s",
    )


def test_09_pendulum_runs_to_completion_at_desk_scale():
    """Short-horizon pendulum loops stay finite; the integrator holds equilibria."""
    model = pendulum_model()
    drift = 0.0
    for eq in (np.zeros(4), np.array([math.pi, 0.0, 0.0, 0.0])):
        drift = max(drift, float(np.max(np.abs(model.f(eq, np.zeros(1)) - eq))))

    failures = []
    measured = {}
    for m in (1, 2):
        trace = mpc_run(
            model,
            10,
            constant_schedule(m, 40 // m),
            model.default_x0,
            40,
            startup=20,
            maxiter=200,
        )
        if trace.failure is not None:
            failures.append(f"m={m}: {trace.failure}")
            continue
        values = [u.value for u in trace.updates] + [trace.final_value]
        if not all(math.isfinite(v) for v in values):
            failures.append(f"m={m}: non-finite update value")
        if not np.all(trace.stage_costs >= 0.0):
            failures.append(f"m={m}: negative stage cost")
        measured[m] = measured_alpha(trace, epsilon=1e-5)
    if drift > 1e-8:
        failures.append(f"equilibrium drift {drift:.2e}")

    _report(
        9,
        not failures,
        f"N = 10, m in {{1, 2}}, 40 steps after 20 warm-up: all values finite, "
        f"stage costs >= 0, measured alpha {measured}; equilibrium drift "
        f"{drift:.1e} (tol 1e-8)"
        + (f"; failures: {failures[:2]}" if failures else ""),
    )
