"""
Nonlinear closed loop: the inverted pendulum on a cart
======================================================

No Riccati shortcut exists here — optimal control problems are solved
numerically by direct shooting, and the *measured* degree of
suboptimality is extracted from the simulation itself.  The run is kept
short so the script finishes in well under a minute.
"""
import numpy as np

from mpccert.sim import (
    constant_schedule,
    measured_alpha,
    mpc_run,
    pendulum_model,
)

model = pendulum_model()  # sampling period 0.05 s, RK4 with 20 substeps

# ----------------------------------------------------------------------
# The state is (angle offset, angular velocity, cart position, cart
# velocity); the target is the upright position at the origin.  The
# default initial condition hangs 1.4 rad past upright.
x0 = model.default_x0
print("initial state:", np.round(x0, 4))
print("initial one-period cost:",
      round(model.stage_cost(x0, np.zeros(1)), 4))

# ----------------------------------------------------------------------
# Twelve closed-loop steps at horizon N = 6 with a short classical
# warm-up, re-optimizing every step.
trace = mpc_run(
    model, 6, constant_schedule(1, 12), x0, 12,
    startup=4, maxiter=120,
)
print(f"\nwarm-up of 4 steps, then {trace.steps} audited steps")
print(" n   V_N(x(n))   converged")
for upd, t in zip(trace.updates, trace.update_times):
    print(f"{t:2d}  {upd.value:10.4f}   {upd.converged}")
print(f"final value  {trace.final_value:10.4f}")

# ----------------------------------------------------------------------
# The measured degree of suboptimality, with a small epsilon truncating
# the near-converged tail windows where numerator and denominator both
# vanish.
print(f"\nmeasured alpha (eps = 1e-5): {measured_alpha(trace, epsilon=1e-5):.4f}")
