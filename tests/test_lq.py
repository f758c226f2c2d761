"""Riccati growth bounds against a generalized-eigenproblem oracle."""
import numpy as np
import pytest
from scipy.linalg import eigh

from conftest import nonsymmetric_lq
from mpccert.sim import LqModel, gamma_from_riccati, lq_double_integrator, riccati_matrices


def oracle_gamma(model, n: int) -> np.ndarray:
    """Largest generalized eigenvalue of (P_i, P_1) for each i, by LAPACK's
    generalized symmetric solver, clamped to the monotone sequence."""
    mats = riccati_matrices(model.A, model.B, model.Q, model.R, n)
    top = np.array([eigh(P, mats[0], eigvals_only=True)[-1] for P in mats])
    return np.maximum.accumulate(np.maximum(top, 1.0))


@pytest.mark.parametrize("make", [lq_double_integrator, nonsymmetric_lq])
@pytest.mark.parametrize("n", [2, 3, 10, 33, 60])
def test_matches_the_generalized_eigensolver(make, n):
    model = make()
    gamma = np.array(gamma_from_riccati(model, n).values)
    expected = oracle_gamma(model, n)
    assert gamma.shape == (n,)
    np.testing.assert_allclose(gamma, expected, rtol=1e-12, atol=0.0)
    assert gamma[0] == pytest.approx(1.0, rel=1e-14)


def test_singular_state_weight_is_rejected_by_name():
    # x' Q x vanishes along (1, -1): V_i / V_1 is unbounded there
    model = LqModel([[1.0, 0.1], [0.0, 1.0]], [[0.0], [0.1]], [[1.0, 1.0], [1.0, 1.0]], [[1.0]])
    with pytest.raises(ValueError, match=r"sym\(Q\)"):
        gamma_from_riccati(model, 5)
