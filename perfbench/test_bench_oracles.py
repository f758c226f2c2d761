"""Known-value tests for the benchmark's oracles (run with pytest)."""
import math
from fractions import Fraction

import numpy as np

import oracles as O


def test_product_formula_at_n2_is_one_minus_squared_excess():
    # gamma = (1.5, 2.25): alpha_{2,1} = 1 - (gamma_2 - 1)^2 = -9/16 exactly
    assert O.alpha_exact(O.exp_gamma(1.5, 0.5, 2), 2, 1) == Fraction(-9, 16)


def test_product_formula_is_one_when_a_bound_is_one_and_symmetric_in_m():
    assert O.alpha_exact([1.0, 1.0, 3.0, 5.0], 4, 1) == 1
    g = O.exp_gamma(3.0, 2.0 / 3.0, 17)
    assert all(O.alpha_exact(g, 17, m) == O.alpha_exact(g, 17, 17 - m) for m in range(1, 17))


def test_float_profile_matches_exact_values():
    g = O.const_gamma(7.0, 40)
    prof = O.alpha_profile(g, 40)
    for m in (1, 13, 20, 39):
        assert math.isclose(prof[m - 1], float(O.alpha_exact(g, 40, m)), rel_tol=1e-13, abs_tol=1e-13)


def test_submultiplicativity():
    assert O.is_submultiplicative(O.exp_gamma(3.0, 2.0 / 3.0, 30))  # C - 1 >= sigma
    assert not O.is_submultiplicative(O.exp_gamma(1.2, 0.9, 30))  # C - 1 < sigma
    assert O.is_submultiplicative(O.const_gamma(4.0, 30))
    assert not O.is_submultiplicative([1.0, 1.0, 2.0])  # Delta = (0, 0, 1)


def test_paper_instance_minimal_horizons():
    family = lambda n: O.exp_gamma(3.0, 2.0 / 3.0, n)
    assert O.minimal_horizon(family, "best") == 12
    assert O.minimal_horizon(family, 1) == 18


def test_constant_bound_thresholds():
    for M in (2.5, 4.0, 10.0, 25.0):
        family = lambda n, M=M: O.const_gamma(M, n)
        assert O.minimal_horizon(family, 1) == math.ceil(O.horizon_bound_m1(M))
        assert O.minimal_horizon(family, "half") <= math.ceil(O.horizon_bound_half_even(M)) + 1


def test_n2_region_boundary():
    C = np.linspace(1.0, 3.0, 41)
    s = np.linspace(0.01, 0.99, 37)
    alpha = O.region_alpha(2, 1, C, s)
    for i, c in enumerate(C):
        for j, sig in enumerate(s):
            if abs(c - 2.0 / (1.0 + sig)) > 1e-9:
                assert (alpha[i, j] >= 0.0) == O.region_n2_stable(c, sig)


def test_riccati_recursions():
    p = O.riccati_scalar(2.0, 1.0, 1.0, 1.0, 60)
    assert p[0] == 1.0 and p[1] == 3.0  # p_2 = 1 + 4 * 1 / 2
    assert math.isclose(p[-1], 2.0 + math.sqrt(5.0), rel_tol=1e-12)
    mats = O.riccati_matrix([[2.0]], [[1.0]], [[1.0]], [[1.0]], 60)
    assert all(math.isclose(P[0, 0], q, rel_tol=1e-14) for P, q in zip(mats, p))
    g = O.gamma_riccati_matrix(*O.double_integrator(), 50)
    assert g[0] == 1.0 and all(b >= a for a, b in zip(g, g[1:]))


def test_pendulum_equilibria_and_integrator_order():
    for eq in ((0.0, 0.0, 0.0, 0.0), (math.pi, 0.0, 0.0, 0.0)):
        x, _ = O.pendulum_period(eq, 0.0)
        assert max(abs(a - b) for a, b in zip(x, eq)) <= 1e-8
    assert O.pendulum_period((0.0, 0.0, 0.0, 0.0), 0.0)[1] == 0.0
    x0, u = (0.4, -0.3, 0.2, 0.1), 0.5
    coarse, c_coarse = O.pendulum_period(x0, u)
    fine, c_fine = O.pendulum_period(x0, u, substeps=400)
    assert max(abs(a - b) for a, b in zip(coarse, fine)) < 1e-9
    assert math.isclose(c_coarse, c_fine, rel_tol=1e-7)
