"""Certificates: closed form, exact LP, and their contracted relationship.

The two routes are checked against each other and against two routes that
share no code with either: a general LP solver on the assembled program,
and brute-force vertex enumeration of its feasible polyhedron.
"""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpccert import (
    CertificateQuery,
    GammaSequence,
    alpha_closed_form,
    alpha_lp,
    certificate,
    check_submultiplicative,
    constant_gamma,
    gamma_from_c_sequence,
    gamma_from_exponential,
    max_alpha_over_m,
)
from mpccert.analysis import alpha_profile_m
from mpccert.certificate import (
    LinearProgram,
    LpError,
    _alpha_lp_profile,
    _alpha_profile,
    _suffix_ratios,
    build_lp,
    solve_lp,
)

from conftest import random_monotone_gamma


# --- hand-checked reference values ------------------------------------------


class TestClosedFormFrozenValues:
    def test_two_step_horizon(self):
        # N=2, m=1, gamma_2 = 1.5: both ranges are the singleton {2},
        # so alpha = 1 - (gamma_2 - 1)^2 = 1 - 0.25 = 0.75 exactly
        g = GammaSequence((1.2, 1.5))
        res = alpha_closed_form(CertificateQuery(g, 2, 1))
        assert res.alpha == 0.75
        # the log-exp route would give -1.2499999999999996 here
        assert alpha_closed_form(CertificateQuery(GammaSequence((1.2, 2.5)), 2, 1)).alpha == -1.25

    def test_three_step_horizon_negative_index(self):
        # gamma = (1, 3, 4), N=3, m=1: ranges {2,3} and {3};
        # q1 = (2*3)/(3*4 - 2*3) = 1, q2 = 3, alpha = 1 - 3 = -2 exactly
        g = GammaSequence((1.0, 3.0, 4.0))
        res = alpha_closed_form(CertificateQuery(g, 3, 1))
        assert res.alpha == -2.0

    def test_marginal_stability_is_exact_zero(self):
        # constant M=2 at the shortest horizon: alpha = 1 - (2-1)^2 = 0,
        # and the singleton-range evaluation keeps it exactly 0.0
        res = alpha_closed_form(CertificateQuery(constant_gamma(2.0, 2), 2, 1))
        assert res.alpha == 0.0
        assert res.stable
        assert res.performance_bound is None

    def test_constant_bound_profile(self):
        # M=3, N=4: m=1 gives A=8, P=27 over {2,3,4} and q2=2 over {4},
        # alpha = 1 - (8/19)*2 = 3/19; m=2 gives q=0.8 per range, alpha=0.36
        g = constant_gamma(3.0, 4)
        a1 = alpha_closed_form(CertificateQuery(g, 4, 1)).alpha
        a2 = alpha_closed_form(CertificateQuery(g, 4, 2)).alpha
        a3 = alpha_closed_form(CertificateQuery(g, 4, 3)).alpha
        assert a1 == pytest.approx(3.0 / 19.0, rel=1e-14)
        assert a2 == pytest.approx(0.36, rel=1e-14)
        assert a3 == pytest.approx(3.0 / 19.0, rel=1e-14)

    def test_unit_gamma_in_range_gives_alpha_one(self):
        # gamma_i = 1 inside a range zeroes that range's product exactly
        g = GammaSequence((1.0, 1.0, 1.5))
        assert alpha_closed_form(CertificateQuery(g, 3, 1)).alpha == 1.0

    def test_extreme_sequence_does_not_overflow(self):
        # entries this close to 1 drive the log-sum beyond the exp range;
        # the ratio underflows to a clean 0 and alpha to a clean 1
        g = GammaSequence((1.0 + 1e-300,) * 5)
        res = alpha_closed_form(CertificateQuery(g, 5, 2))
        assert res.alpha == 1.0

    def test_long_horizon_stays_finite(self):
        g = gamma_from_exponential(3.0, 2.0 / 3.0, 400)
        res = alpha_closed_form(CertificateQuery(g, 400, 1))
        assert math.isfinite(res.alpha)
        assert 0.0 < res.alpha <= 1.0


class TestQueryValidation:
    def test_horizon_below_two(self):
        g = constant_gamma(2.0, 4)
        with pytest.raises(ValueError):
            CertificateQuery(g, 1, 1)

    def test_horizon_beyond_available_bounds(self):
        g = constant_gamma(2.0, 4)
        with pytest.raises(ValueError):
            CertificateQuery(g, 5, 1)

    def test_control_horizon_range(self):
        g = constant_gamma(2.0, 4)
        with pytest.raises(ValueError):
            CertificateQuery(g, 4, 0)
        with pytest.raises(ValueError):
            CertificateQuery(g, 4, 4)

    def test_unknown_method(self):
        g = constant_gamma(2.0, 4)
        with pytest.raises(ValueError):
            certificate(CertificateQuery(g, 4, 1), method="magic")
        with pytest.raises(ValueError, match="unknown method 'magic'"):
            alpha_profile_m(g, 4, "magic")


# --- the worst-case linear program ------------------------------------------


class TestLpConstruction:
    def test_hand_built_matrix(self):
        # gamma = (1, 3, 4), N=3, m=1; variables (lambda_0, lambda_1, lambda_2, nu)
        g = GammaSequence((1.0, 3.0, 4.0))
        lp = build_lp(CertificateQuery(g, 3, 1))
        assert lp.num_vars == 4
        assert lp.n_tail_rows == 2
        assert lp.n_continuation_rows == 2
        np.testing.assert_allclose(
            lp.ineq_matrix,
            [
                [-3.0, 1.0, 1.0, 0.0],  # sum(lam) <= gamma_3 * lam_0
                [0.0, -2.0, 1.0, 0.0],  # lam_1 + lam_2 <= gamma_2 * lam_1
                [0.0, -4.0, 0.0, 1.0],  # nu <= gamma_3 * lam_1
                [0.0, -1.0, -3.0, 1.0],  # nu <= lam_1 + gamma_2 * lam_2
            ],
        )
        np.testing.assert_allclose(lp.ineq_rhs, [0.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(lp.eq_matrix, [[1.0, 0.0, 0.0, 0.0]])
        np.testing.assert_allclose(lp.eq_rhs, [1.0])
        np.testing.assert_allclose(lp.objective, [1.0, 1.0, 1.0, -1.0])

    def test_normalization_row_spans_the_executed_prefix(self):
        g = constant_gamma(2.0, 6)
        lp = build_lp(CertificateQuery(g, 6, 3))
        np.testing.assert_allclose(lp.eq_matrix[0, :3], 1.0)
        np.testing.assert_allclose(lp.eq_matrix[0, 3:], 0.0)

    def test_row_counts(self):
        g = constant_gamma(2.0, 8)
        lp = build_lp(CertificateQuery(g, 8, 3))
        assert lp.n_tail_rows == 7  # k = 0..N-2
        assert lp.n_continuation_rows == 5  # j = 0..N-m-1


def lp_vertex_minimum(lp: LinearProgram) -> float:
    """Brute-force oracle: minimize over all vertices of the feasible set.

    Every vertex of {A_ub x <= b_ub, A_eq x = b_eq, x >= 0} is the solution
    of some square subsystem of active constraints; enumerate them all,
    keep the feasible ones, and take the best objective.  Exponential in
    the problem size — only usable for tiny instances, which is exactly
    what makes it independent of both production routes.
    """
    nv = lp.num_vars
    rows = [(lp.ineq_matrix[i], float(lp.ineq_rhs[i])) for i in range(lp.ineq_matrix.shape[0])]
    rows += [(lp.eq_matrix[i], float(lp.eq_rhs[i])) for i in range(lp.eq_matrix.shape[0])]
    rows += [(e, 0.0) for e in np.eye(nv)]
    best = math.inf
    for combo in itertools.combinations(range(len(rows)), nv):
        A = np.array([rows[i][0] for i in combo])
        b = np.array([rows[i][1] for i in combo])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if np.any(x < -1e-9):
            continue
        if lp.ineq_matrix.size and float(np.max(lp.ineq_matrix @ x - lp.ineq_rhs)) > 1e-9:
            continue
        if float(np.max(np.abs(lp.eq_matrix @ x - lp.eq_rhs))) > 1e-9:
            continue
        best = min(best, float(lp.objective @ x))
    return best


class TestLpAgainstVertexEnumeration:
    @pytest.mark.parametrize(
        "gamma,horizon",
        [
            (GammaSequence((1.0, 3.0, 4.0)), 3),
            (constant_gamma(2.0, 4), 4),
            (constant_gamma(3.0, 5), 5),
            (gamma_from_exponential(3.0, 2.0 / 3.0, 5), 5),
            (gamma_from_exponential(1.2, 0.5, 4), 4),  # not submultiplicative
            (gamma_from_c_sequence((1.0, 0.9, 0.5, 0.1)), 4),
            (GammaSequence((1.0, 1.05, 1.1)), 3),  # the program beats the closed form
        ],
    )
    def test_simplex_matches_brute_force(self, gamma, horizon):
        for m in range(1, horizon):
            q = CertificateQuery(gamma, horizon, m)
            lp = build_lp(q)
            sol = solve_lp(lp)
            best = lp_vertex_minimum(lp)
            assert sol.status == "optimal"
            assert sol.value == pytest.approx(best, abs=1e-9)
            # the backward recursion behind alpha_lp, to round-off
            assert alpha_lp(q).alpha == pytest.approx(best, abs=1e-12)

    def test_solution_carries_the_optimizer(self):
        lp = build_lp(CertificateQuery(constant_gamma(2.0, 4), 4, 2))
        sol = solve_lp(lp)
        assert sol.lam.shape == (4,)
        assert sol.nu >= -1e-12
        # the reported value is the objective at the reported point
        point = np.concatenate([sol.lam, [sol.nu]])
        assert float(lp.objective @ point) == pytest.approx(sol.value, abs=1e-12)


class TestSolveLpEdgeCases:
    def test_infeasible_is_reported_not_raised(self):
        # lambda_0 = 1 equality against lambda_0 <= -1
        lp = LinearProgram(
            objective=np.array([1.0, 0.0]),
            ineq_matrix=np.array([[1.0, 0.0]]),
            ineq_rhs=np.array([-1.0]),
            eq_matrix=np.array([[1.0, 0.0]]),
            eq_rhs=np.array([1.0]),
            n_tail_rows=1,
            n_continuation_rows=0,
        )
        sol = solve_lp(lp)
        assert sol.status == "infeasible"
        assert sol.value is None

    def test_unbounded_is_reported_not_raised(self):
        # minimize -x_0 with only x_1 pinned: objective decreases forever
        lp = LinearProgram(
            objective=np.array([-1.0, 0.0]),
            ineq_matrix=np.array([[0.0, 1.0]]),
            ineq_rhs=np.array([2.0]),
            eq_matrix=np.array([[0.0, 1.0]]),
            eq_rhs=np.array([1.0]),
            n_tail_rows=1,
            n_continuation_rows=0,
        )
        sol = solve_lp(lp)
        assert sol.status == "unbounded"
        assert sol.value is None


def recursion_instances(seed: int, count: int, max_n: int):
    """Seeded random monotone, exponential and gamma_1 = 1 sequences."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, max_n + 1))
        kind = i % 3
        if kind == 0:
            yield random_monotone_gamma(rng, n)
        elif kind == 1:
            yield gamma_from_exponential(float(rng.uniform(1.0, 6.0)), float(rng.uniform(0.05, 0.95)), n)
        else:
            g = random_monotone_gamma(rng, n)
            k = int(rng.integers(1, n))
            yield GammaSequence((1.0,) * k + g.values[: n - k])


def lp_profile_stepwise(gamma) -> np.ndarray:
    """The recursion of ``_alpha_lp_profile`` with every step's numerator,
    cap and quotient formed afresh: the unbuffered form it must equal bit
    for bit."""
    g = np.asarray(gamma, dtype=float)
    n = g.shape[-1]
    v = g[..., 1:] - 1.0
    for t in range(1, n - 1):
        live = v[..., : n - 1 - t]
        row = g[..., 1 + t :]
        cap = 1.0 - 1.0 / g[..., t, None]
        live *= np.minimum((row - 1.0) / (row + live), cap)
    return 1.0 - v * _suffix_ratios(g[..., 1:])[..., ::-1]


class TestExactRecursion:
    """The backward recursion behind ``alpha_lp`` against independent routes."""

    def test_buffered_steps_equal_the_stepwise_recursion(self):
        for gamma in recursion_instances(seed=13, count=45, max_n=400):
            assert np.array_equal(_alpha_lp_profile(gamma.values), lp_profile_stepwise(gamma.values)), gamma.n
        for n in (2, 3, 60, 400):  # the 2-D row batch
            rng = np.random.default_rng(n)
            rows = np.array(
                [random_monotone_gamma(rng, n).values for _ in range(5)]
                + [gamma_from_exponential(3.0, 0.5, n).values, (1.0,) * n]
            )
            assert np.array_equal(_alpha_lp_profile(rows), lp_profile_stepwise(rows)), n

    def test_matches_the_lp_solver_where_it_certifies(self):
        rng = np.random.default_rng(7)
        certified = 0
        for gamma in recursion_instances(seed=11, count=30, max_n=150):
            n = gamma.n
            for m in {1, int(rng.integers(1, n)), n - 1}:
                q = CertificateQuery(gamma, n, m)
                try:
                    sol = solve_lp(build_lp(q))
                except LpError:
                    continue  # the solver's point failed its own gate
                certified += 1
                assert alpha_lp(q).alpha == pytest.approx(min(sol.value, 1.0), abs=1e-10), (n, m)
        assert certified >= 60

    def test_equals_closed_form_when_submultiplicative(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 30:
            n = int(rng.integers(2, 401))
            C = float(rng.uniform(1.0, 6.0))
            gamma = gamma_from_exponential(C, float(rng.uniform(0.01, 0.99)), n)
            if not check_submultiplicative(gamma):
                continue
            checked += 1
            exact, closed = _alpha_lp_profile(gamma.values), _alpha_profile(gamma.values)
            np.testing.assert_allclose(exact, closed, rtol=1e-12, atol=0.0)
        for M in (1.0, 1.5125, 10.0):
            gamma = constant_gamma(M, 400)
            np.testing.assert_allclose(
                _alpha_lp_profile(gamma.values), _alpha_profile(gamma.values), rtol=1e-12, atol=0.0
            )

    def test_never_below_closed_form(self):
        for gamma in recursion_instances(seed=5, count=60, max_n=400):
            exact, closed = _alpha_lp_profile(gamma.values), _alpha_profile(gamma.values)
            assert np.all(exact >= closed - 1e-12)
            assert np.all(exact <= 1.0)

    def test_profile_reads_the_same_kernel(self):
        for gamma in recursion_instances(seed=9, count=6, max_n=40):
            n = gamma.n
            profile = alpha_profile_m(gamma, n, "linear_program")
            assert profile == [(m, alpha_lp(CertificateQuery(gamma, n, m)).alpha) for m in range(1, n)]

    def test_rows_broadcast(self):
        rows = [gamma_from_exponential(3.0, 0.5, 30).values, constant_gamma(4.0, 30).values]
        batch = _alpha_lp_profile(np.array(rows))
        for got, values in zip(batch, rows):
            assert np.array_equal(got, _alpha_lp_profile(values))

    @pytest.mark.parametrize("n", [200, 400])
    @pytest.mark.parametrize(
        "gamma_of", [lambda n: gamma_from_exponential(3.0, 2.0 / 3.0, n), lambda n: constant_gamma(10.0, n),
                     lambda n: gamma_from_exponential(1.5, 0.9, n)],
    )
    def test_long_horizons(self, n, gamma_of):
        # the solver's point failed its feasibility gate on all of these
        gamma = gamma_of(n)
        for m in (1, n // 4, n // 2):
            q = CertificateQuery(gamma, n, m)
            res = alpha_lp(q)
            cf = alpha_closed_form(q).alpha
            assert res.method == "linear_program"
            assert cf - 1e-12 <= res.alpha <= 1.0
            if res.submultiplicative:
                assert res.alpha == pytest.approx(cf, abs=1e-12)


class TestTwoRouteAgreement:
    def test_exact_on_submultiplicative_instances(self):
        for C, sigma, n in [(3.0, 2.0 / 3.0, 12), (2.0, 0.3, 8), (4.0, 0.5, 15)]:
            g = gamma_from_exponential(C, sigma, n)
            for m in (1, 2, n // 2, n - 1):
                q = CertificateQuery(g, n, m)
                cf = alpha_closed_form(q)
                lp = alpha_lp(q)
                assert cf.submultiplicative
                assert lp.alpha == pytest.approx(cf.alpha, abs=1e-9)

    def test_lp_strictly_better_when_not_submultiplicative(self):
        # flat start then growth: the closed form is conservative here
        g = GammaSequence((1.0, 1.05, 1.1))
        q = CertificateQuery(g, 3, 1)
        cf = alpha_closed_form(q)
        lp = alpha_lp(q)
        assert not cf.submultiplicative
        assert lp.alpha > cf.alpha + 1e-6

    def test_methods_report_their_route(self):
        q = CertificateQuery(constant_gamma(2.0, 4), 4, 1)
        assert certificate(q, "closed_form").method == "closed_form"
        assert certificate(q, "linear_program").method == "linear_program"


class TestResultDerivedFields:
    def test_performance_bound_is_reciprocal(self):
        res = alpha_closed_form(CertificateQuery(constant_gamma(2.0, 8), 8, 1))
        assert res.alpha > 0
        assert res.performance_bound == pytest.approx(1.0 / res.alpha, rel=1e-15)

    def test_unstable_has_no_bound(self):
        res = alpha_closed_form(CertificateQuery(GammaSequence((1.0, 3.0, 4.0)), 3, 1))
        assert not res.stable
        assert res.performance_bound is None

    def test_record_shape(self):
        res = alpha_closed_form(CertificateQuery(constant_gamma(2.0, 4), 4, 2))
        rec = res.to_record()
        assert rec["N"] == 4
        assert rec["m"] == 2
        assert set(rec) == {
            "N", "m", "alpha", "method", "stable", "performance_bound", "submultiplicative",
        }


class TestMaxOverControlHorizon:
    def test_picks_the_interior_maximum(self):
        res = max_alpha_over_m(constant_gamma(3.0, 4), 4)
        assert res.m == 2
        assert res.alpha == pytest.approx(0.36, rel=1e-14)

    def test_ties_break_toward_small_m(self):
        # symmetric three-step profile: m=1 and m=2 tie, m=1 wins
        res = max_alpha_over_m(GammaSequence((1.0, 3.0, 4.0)), 3)
        assert res.m == 1
        # interior tie of a symmetric profile: m=2 and m=3 at N=5
        res = max_alpha_over_m(constant_gamma(3.0, 5), 5)
        assert res.m == 2
        # unit bounds in every range: alpha = 1 exactly for all m
        res = max_alpha_over_m(GammaSequence((1.0, 1.0, 1.0, 1.5)), 4)
        assert (res.m, res.alpha) == (1, 1.0)

    def test_rejects_tiny_horizon(self):
        with pytest.raises(ValueError):
            max_alpha_over_m(constant_gamma(2.0, 4), 1)


# --- property tests -----------------------------------------------------------


def exact_alpha_profile(values) -> list[float]:
    """Oracle: alpha(N, m) for m = 1..N-1 from the product formula

        alpha = 1 - A_1 A_2 / ((P_1 - A_1) (P_2 - A_2))

    in exact rational arithmetic on the given floats, rounded once.  Suffix
    products over {lo..N} serve both index ranges {m+1..N} and {N-m+1..N}.
    """
    g = [Fraction(v) for v in values]
    n = len(g)
    A, P = Fraction(1), Fraction(1)
    ratio = {}
    for lo in range(n, 1, -1):
        A *= g[lo - 1] - 1
        P *= g[lo - 1]
        ratio[lo] = A / (P - A)
    return [float(1 - ratio[m + 1] * ratio[n - m + 1]) for m in range(1, n)]


@st.composite
def long_gamma(draw):
    """Sequences up to N = 400: exponential, constant (M = 1 included),
    random monotone with flat steps, and the same with leading unit bounds."""
    n = draw(st.integers(min_value=2, max_value=400))
    kind = draw(st.sampled_from(["exponential", "constant", "flat-steps", "unit-start"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    if kind == "exponential":
        return gamma_from_exponential(float(rng.uniform(1.0, 6.0)), float(rng.uniform(0.01, 0.99)), n)
    if kind == "constant":
        return constant_gamma(float(rng.choice([1.0, rng.uniform(1.0, 50.0)])), n)
    g = random_monotone_gamma(rng, n)
    if kind == "unit-start":
        k = int(rng.integers(1, n + 1))
        g = GammaSequence((1.0,) * k + g.values[: n - k])
    return g


@settings(max_examples=40, deadline=None)
@given(long_gamma())
def test_profile_matches_exact_product_formula(gamma):
    n = gamma.n
    profile = alpha_profile_m(gamma, n)
    assert [m for m, _ in profile] == list(range(1, n))
    # relative to max(1, |alpha|): alpha = 1 - q cancels near alpha = 0
    for (m, a), e in zip(profile, exact_alpha_profile(gamma.values)):
        assert abs(a - e) <= 1e-12 * max(1.0, abs(e)), (m, a, e)
    for m in {1, n // 2, n - 1}:
        assert alpha_closed_form(CertificateQuery(gamma, n, m)).alpha == profile[m - 1][1]


@st.composite
def gamma_and_horizon(draw, max_n=10):
    n = draw(st.integers(min_value=2, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return random_monotone_gamma(rng, n), n


@settings(max_examples=120, deadline=None)
@given(gamma_and_horizon())
def test_closed_form_symmetric_in_control_horizon(gn):
    gamma, n = gn
    for m in range(1, n):
        a = alpha_closed_form(CertificateQuery(gamma, n, m)).alpha
        b = alpha_closed_form(CertificateQuery(gamma, n, n - m)).alpha
        assert a == b  # the two index ranges swap; the product is identical


@settings(max_examples=120, deadline=None)
@given(gamma_and_horizon())
def test_closed_form_never_exceeds_one(gn):
    gamma, n = gn
    for m in range(1, n):
        a = alpha_closed_form(CertificateQuery(gamma, n, m)).alpha
        assert a <= 1.0


@settings(max_examples=40, deadline=None)
@given(gamma_and_horizon(max_n=7))
def test_lp_dominates_closed_form(gn):
    gamma, n = gn
    for m in range(1, n):
        q = CertificateQuery(gamma, n, m)
        cf = alpha_closed_form(q).alpha
        lp = alpha_lp(q).alpha
        assert lp >= cf - 1e-9
        if alpha_closed_form(q).submultiplicative:
            assert lp == pytest.approx(cf, abs=1e-9)


def test_lp_symmetry_tracks_formula_exactness():
    # the closed form is symmetric in m <-> N-m for every monotone gamma,
    # and the exact program inherits that symmetry exactly when it reduces
    # to the closed form (submultiplicative differences).  For general
    # monotone gamma the program itself is NOT symmetric: it may certify a
    # strictly better index on one side.  Both behaviors are pinned here.
    gamma = gamma_from_exponential(3.0, 2.0 / 3.0, 8)
    assert check_submultiplicative(gamma)
    for m in range(1, 8):
        a = alpha_lp(CertificateQuery(gamma, 8, m)).alpha
        b = alpha_lp(CertificateQuery(gamma, 8, 8 - m)).alpha
        assert a == pytest.approx(b, abs=1e-9)

    # counterexample with flat steps (verified against brute-force vertex
    # enumeration): m = 1 certifies 0.1388, m = 4 only 0.0991
    gamma = GammaSequence(
        (
            2.910885061964363,
            2.910885061964363,
            2.972345347868655,
            2.972345347868655,
            4.192250706669064,
        )
    )
    assert not check_submultiplicative(gamma)
    lo = alpha_lp(CertificateQuery(gamma, 5, 4)).alpha
    hi = alpha_lp(CertificateQuery(gamma, 5, 1)).alpha
    assert hi - lo > 0.03
    # the closed form stays symmetric and below both program values
    cf1 = alpha_closed_form(CertificateQuery(gamma, 5, 1)).alpha
    cf4 = alpha_closed_form(CertificateQuery(gamma, 5, 4)).alpha
    assert cf1 == cf4
    assert cf1 <= lo + 1e-12 and cf1 <= hi + 1e-12
