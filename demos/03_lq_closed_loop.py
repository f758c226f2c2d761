"""
Certificates meet simulation: the scalar LQ testbed
===================================================

For x+ = 2x + u with stage cost x^2 + u^2 the finite-horizon optimal
values are known exactly from the Riccati recursion, so every link of
the chain can be checked: growth bounds from the Riccati values, a
certificate from the bounds, and a closed-loop run whose *measured*
degree of suboptimality must come out above the certified one.
"""
import numpy as np

from mpccert import CertificateQuery, certificate
from mpccert.sim import (
    constant_schedule,
    gamma_from_riccati,
    lq_scalar,
    measured_alpha,
    mpc_run,
    verify_relaxed_lyapunov,
)

model = lq_scalar()  # a = 2, b = 1, q = r = 1

# ----------------------------------------------------------------------
# Growth bounds straight from the Riccati values: gamma_i = p_i / p_1.
gamma = gamma_from_riccati(model, 6)
print("Riccati growth bounds:", [round(v, 4) for v in gamma.values[:6]])

# ----------------------------------------------------------------------
# Certificate for N = 6, m = 2.
cert = certificate(CertificateQuery(gamma, 6, 2))
print(f"certified alpha = {cert.alpha:.4f},"
      f" performance bound {cert.performance_bound:.3f}")

# ----------------------------------------------------------------------
# Thirty closed-loop steps from x = 1, re-optimizing every second step.
trace = mpc_run(model, 6, constant_schedule(2, 15), np.array([1.0]), 30)
print(f"\nclosed loop: |x_final| = {abs(trace.states[-1, 0]):.2e},"
      f" realized cost = {trace.stage_costs.sum():.6f}")

# ----------------------------------------------------------------------
# The measured degree of suboptimality is the worst observed ratio of
# value decrease to accumulated stage cost — it must dominate the
# certificate, which was built from worst-case sequences.
meas = measured_alpha(trace)
print(f"measured alpha = {meas:.4f}  >=  certified {cert.alpha:.4f}:",
      meas >= cert.alpha - 1e-9)

# ----------------------------------------------------------------------
# The audit ties it together: every update window must satisfy the
# relaxed Lyapunov inequality at the certified alpha, and the realized
# cost must respect the bound V_N(x0) / alpha.
audit = verify_relaxed_lyapunov(trace, cert.alpha)
print(f"\naudit at certified alpha: {len(audit.violations)} violations,"
      f" worst margin {audit.worst_margin:+.2e}")
print(f"realized cost {audit.realized_cost:.6f}"
      f" <= bound {audit.cost_bound:.6f}: {audit.cost_ok}")
