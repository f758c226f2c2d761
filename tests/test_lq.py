"""Riccati growth bounds against a generalized-eigenproblem oracle, and the
memo that lets one recursion serve a whole campaign."""
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from conftest import nonsymmetric_lq
from mpccert import NetworkExperiment, run_network_experiment
from mpccert.sim import (
    LqModel,
    LqScalarModel,
    ShootingProblem,
    gamma_from_riccati,
    lq_double_integrator,
    lq_scalar,
    riccati_value,
    solve_finite_horizon,
)
from mpccert.sim import lq


def oracle_gamma(model, n: int) -> np.ndarray:
    """Largest generalized eigenvalue of (P_i, P_1) for each i, by LAPACK's
    generalized symmetric solver, clamped to the monotone sequence."""
    mats = lq._matrix(model.A, model.B, model.Q, model.R, n)[0]
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


def test_scalar_bounds_survive_a_converged_recursion():
    # once the recursion has converged, p_16 / p_1 rounds one ulp below
    # p_15 / p_1; the sequence is nondecreasing in exact arithmetic
    model = LqScalarModel(-2.83464532054159, 1.556323595614652, 1.660615608335907, 1.0562219778473674)
    values = gamma_from_riccati(model, 28).values
    assert len(values) == 28 and values[0] == 1.0
    assert all(lo <= hi for lo, hi in zip(values, values[1:]))


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(-3.0, 3.0),
    b=st.floats(0.2, 2.0),
    q=st.floats(0.1, 3.0),
    r=st.floats(0.1, 3.0),
    n=st.integers(2, 59),
)
def test_scalar_bounds_construct_and_are_nondecreasing(a, b, q, r, n):
    values = gamma_from_riccati(LqScalarModel(a, b, q, r), n).values
    assert len(values) == n and values[0] == 1.0
    assert all(lo <= hi for lo, hi in zip(values, values[1:]))


def _calls(fn, run) -> int:
    """How often ``run()`` enters ``fn``'s code, whatever name the caller
    looked it up by."""
    code, count = fn.__code__, 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call" and frame.f_code is code

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


class TestRecursionMemo:
    """Each recursion runs once per distinct weights and horizon."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(lq, "_memo", {}, raising=False)

    def test_double_integrator_campaign_runs_one_matrix_recursion(self):
        exp = NetworkExperiment(lq_double_integrator(), 50, 2, 0.3, 1, 1, x0=np.array([0.0, 1.0]))
        assert _calls(lq._matrix_recursion, lambda: run_network_experiment(exp)) == 1

    def test_scalar_campaign_runs_one_scalar_recursion(self):
        exp = NetworkExperiment(lq_scalar(), 8, 3, 0.3, 2, 20, x0=np.array([1.3]))
        report = []
        assert _calls(lq._scalar_recursion, lambda: report.append(run_network_experiment(exp))) == 1
        assert sum(o.updates for o in report[0].outcomes) >= 10

    def test_mutating_a_returned_sequence_changes_no_later_result(self):
        # callers share the memo's entries, so every entry is immutable:
        # float tuples for the scalar recursion, read-only arrays for the matrix one
        model = lq_double_integrator()
        w = (model.A, model.B, model.Q, model.R)
        x0 = np.array([0.3, -1.0])
        gamma = gamma_from_riccati(model, 8)
        sol = solve_finite_horizon(ShootingProblem(model, 8, x0))
        p, k = lq._scalar(2.0, 1.0, 1.0, 1.0, 8)
        mats, gains = lq._matrix(*w, 8)
        assert len(lq._memo) == 2
        for values, coeffs in lq._memo.values():
            for entry in (values, coeffs):
                assert isinstance(entry, tuple) or not entry.flags.writeable
        for seq in (p, k):
            with pytest.raises(TypeError):
                seq[-1] = -1.0
        for arr in (mats, gains, mats[-1], gains[-1]):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = np.nan
        assert lq._scalar(2.0, 1.0, 1.0, 1.0, 8) == (p, k)
        assert gamma_from_riccati(model, 8) == gamma
        assert riccati_value(model, 8, x0) == float(x0 @ mats[-1] @ x0)
        np.testing.assert_array_equal(solve_finite_horizon(ShootingProblem(model, 8, x0)).controls, sol.controls)

    def test_key_is_the_exact_weights(self):
        # 0.0 and -0.0 compare equal but give gains of opposite zero sign
        for a in (0.0, -0.0, 0.0):
            got = lq._scalar(a, 1.0, 1.0, 1.0, 3)
            want = lq._scalar_recursion(a, 1.0, 1.0, 1.0, 3)
            assert [v.hex() for v in got[1]] == [v.hex() for v in want[1]]
        A = np.array([[-0.0]])
        got = lq._matrix(A, [[1.0]], [[1.0]], [[1.0]], 3)[1]
        want = lq._matrix_recursion(A, np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)), 3)[1]
        assert got.tobytes() == want.tobytes()

    def test_memo_is_bounded(self):
        for n in range(2, 3 * lq._MEMO_SIZE):
            lq._scalar(2.0, 1.0, 1.0, 1.0, n)
            gamma_from_riccati(lq_double_integrator(), n)
        assert len(lq._memo) == lq._MEMO_SIZE
