"""
Suboptimality certificates from controllability growth bounds
=============================================================

A system that can be steered to the origin with summable cost overshoot
admits bounds gamma_i on the i-step optimal value in terms of the stage
cost.  From nothing but those numbers, a degree of suboptimality alpha
for receding-horizon control can be computed: alpha > 0 certifies
asymptotic stability, and 1/alpha bounds the closed-loop cost relative
to the infinite-horizon optimum.
"""
from mpccert import (
    CertificateQuery,
    GammaSequence,
    alpha_closed_form,
    alpha_lp,
    alpha_profile_m,
    certificate,
    check_submultiplicative,
    gamma_from_exponential,
)

# ----------------------------------------------------------------------
# Growth bounds from an exponential decay estimate: C = 3, sigma = 2/3
# give gamma_i = C (1 - sigma^i) / (1 - sigma), here truncated at N = 12.
gamma = gamma_from_exponential(3.0, 2.0 / 3.0, 12)
print("gamma_1..gamma_4:", [round(v, 4) for v in gamma.values[:4]])

# ----------------------------------------------------------------------
# The certificate for horizon N = 12 and control horizon m = 6.  The
# closed form is exact whenever the increments of gamma are
# submultiplicative, which holds here ((C-1)^2 >= C sigma).
q = CertificateQuery(gamma, 12, 6)
res = certificate(q)
print(f"\nN = 12, m = 6: alpha = {res.alpha:.6f} via {res.method}")
print(f"stable: {res.stable}, performance bound {res.performance_bound:.3f}")
print("submultiplicative increments:", check_submultiplicative(gamma))

# ----------------------------------------------------------------------
# Both routes exist independently: a closed-form product formula and an
# exact linear program over the worst-case value sequences.  On
# submultiplicative bounds they agree to machine precision.
cf = alpha_closed_form(q)
lp = alpha_lp(q)
print(f"\nclosed form {cf.alpha:.12f}   linear program {lp.alpha:.12f}")

# ----------------------------------------------------------------------
# For general monotone bounds the closed form is only a lower bound, and
# the program can certify strictly more — here on a hand-built sequence
# whose increments are not submultiplicative.
rough = GammaSequence((1.0, 1.05, 1.1))
q2 = CertificateQuery(rough, 3, 1)
print(f"\nrough bounds: closed form {alpha_closed_form(q2).alpha:.6f}"
      f"  <  exact program {alpha_lp(q2).alpha:.6f}")

# ----------------------------------------------------------------------
# Sweeping the control horizon m reveals the symmetric profile of the
# closed form: alpha(N, m) = alpha(N, N - m), maximal near m = N/2.
print("\n m   alpha(12, m)")
for m, a in alpha_profile_m(gamma, 12):
    bar = "#" * max(0, int(40 * max(a, 0.0)))
    print(f"{m:2d}  {a:+.4f}  {bar}")
