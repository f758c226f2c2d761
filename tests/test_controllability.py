"""Growth-bound sequences: construction, validation, persistence."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_monotone_gamma
from mpccert import (
    GammaSequence,
    check_submultiplicative,
    constant_gamma,
    gamma_from_c_sequence,
    gamma_from_csv,
    gamma_from_exponential,
    gamma_to_csv,
)


class TestGammaSequence:
    def test_basic_access_is_one_based(self):
        g = GammaSequence((1.5, 2.0, 2.25))
        assert g.n == 3
        assert g.values[0] == 1.5  # gamma_1
        assert g.values[g.n - 1] == 2.25  # gamma_N

    def test_needs_at_least_two_entries(self):
        with pytest.raises(ValueError):
            GammaSequence((1.5,))
        with pytest.raises(ValueError):
            GammaSequence(())

    def test_rejects_entries_below_one(self):
        with pytest.raises(ValueError):
            GammaSequence((0.5, 2.0))

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            GammaSequence((2.0, 1.5))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            GammaSequence((1.5, math.inf))
        with pytest.raises(ValueError):
            GammaSequence((math.nan, 2.0))

    def test_deltas_use_the_implied_leading_one(self):
        g = GammaSequence((1.5, 2.0, 2.25))
        assert deltas(g) == (0.5, 0.5, 0.25)

    def test_truncated(self):
        g = GammaSequence((1.5, 2.0, 2.25, 2.5))
        for k in (2, 3):
            assert g.truncated(k).values == g.values[:k]
        # the full length is the sequence itself, not a re-validated copy
        assert g.truncated(g.n) is g
        # a cut outside 2..N is refused, a negative one included (Python
        # slicing would otherwise return a shorter prefix)
        for k in (-1, 0, 1, g.n + 1):
            with pytest.raises(ValueError, match=rf"n = {k} entries: need 2 <= n <= N = 4"):
                g.truncated(k)

    def test_flat_sequence_is_valid(self):
        g = GammaSequence((1.0, 1.0, 1.0))
        assert deltas(g) == (0.0, 0.0, 0.0)


class TestConstructors:
    def test_exponential_matches_geometric_partial_sums(self):
        C, sigma, n = 3.0, 2.0 / 3.0, 6
        g = gamma_from_exponential(C, sigma, n)
        for i in range(1, n + 1):
            expect = C * sum(sigma ** k for k in range(i))
            assert g.values[i - 1] == pytest.approx(expect, rel=1e-13)

    def test_exponential_first_entry_is_c(self):
        g = gamma_from_exponential(2.5, 0.4, 3)
        assert g.values[0] == pytest.approx(2.5, rel=1e-15)

    def test_exponential_validates_parameters(self):
        with pytest.raises(ValueError):
            gamma_from_exponential(0.5, 0.5, 4)  # C < 1
        with pytest.raises(ValueError):
            gamma_from_exponential(2.0, 1.0, 4)  # sigma not in (0,1)
        with pytest.raises(ValueError, match=r"decay rate sigma = -0\.1 must lie in \(0, 1\)"):
            gamma_from_exponential(2.0, -0.1, 4)
        with pytest.raises(ValueError):
            gamma_from_exponential(2.0, 0.5, 1)  # too short

    def test_constant(self):
        g = constant_gamma(3.0, 4)
        assert g.values == (3.0, 3.0, 3.0, 3.0)
        with pytest.raises(ValueError):
            constant_gamma(0.9, 4)

    def test_c_sequence_partial_sums(self):
        g = gamma_from_c_sequence((1.0, 0.5, 0.25))
        assert g.values == (1.0, 1.5, 1.75)

    def test_c_sequence_validation(self):
        with pytest.raises(ValueError):
            gamma_from_c_sequence((0.5, 1.0))  # c_0 < 1
        with pytest.raises(ValueError):
            gamma_from_c_sequence((1.0, -0.1))  # negative coefficient
        with pytest.raises(ValueError):
            gamma_from_c_sequence((1.0,))  # too short


class TestSubmultiplicative:
    def test_constant_sequence_is_submultiplicative(self):
        # Delta = (M-1, 0, 0, ...): all products of later differences are 0
        assert check_submultiplicative(constant_gamma(3.0, 6))

    def test_exponential_true_iff_squared_overshoot_dominates(self):
        # for the geometric-sum bounds the exact characterization is
        # (C - 1)^2 >= C * sigma; probe both sides of it
        for C, sigma, n in [(3.0, 2.0 / 3.0, 12), (2.0, 0.4, 9), (5.0, 0.9, 15)]:
            assert (C - 1.0) ** 2 >= C * sigma
            assert check_submultiplicative(gamma_from_exponential(C, sigma, n))
        for C, sigma, n in [(1.2, 0.5, 8), (1.5, 0.6, 10), (1.05, 0.2, 6)]:
            assert (C - 1.0) ** 2 < C * sigma
            assert not check_submultiplicative(gamma_from_exponential(C, sigma, n))

    def test_flat_then_growing_violates(self):
        # Delta_1 = 0 but Delta_2 > 0, so Delta_1 * Delta_1 < Delta_2
        assert not check_submultiplicative(GammaSequence((1.0, 1.05, 1.1)))

    @pytest.mark.parametrize("n", [2, 3, 9, 400, 700])
    def test_a_single_failing_pair_is_found_in_every_row(self, n):
        # Delta = 4 everywhere except Delta_i = 1.5: only the diagonal pair
        # (i, i) fails (2.25 < 4 while 1.5 * 4 >= 4), and only row i - 1
        # tests it; at Delta_i = 2 it holds with equality.  All values are
        # exact in binary, so the verdicts are exact too.
        for i in range(1, n // 2 + 1):
            for d_i, verdict in ((1.5, False), (2.0, True)):
                d = [4.0] * n
                d[i - 1] = d_i
                gamma = GammaSequence(tuple(np.cumsum([1.0] + d)[1:]))
                assert check_submultiplicative(gamma) is verdict, (i, d_i)


def deltas(gamma: GammaSequence) -> tuple[float, ...]:
    """First differences Delta_i = gamma_i - gamma_{i-1} with gamma_0 = 1."""
    prev = 1.0
    out = []
    for v in gamma.values:
        out.append(v - prev)
        prev = v
    return tuple(out)


def submultiplicative_pairwise(gamma: GammaSequence) -> bool:
    """The definition checked pair by pair: the oracle for the blocked,
    vectorized ``check_submultiplicative``, which forms the same products."""
    d = deltas(gamma)
    n = len(d)
    for i in range(1, n):  # pair (i, j), 1-based, i <= j, i + j <= n
        for j in range(i, n - i + 1):
            if d[i - 1] * d[j - 1] < d[i + j - 1]:
                return False
    return True


@st.composite
def submultiplicative_candidates(draw):
    """Monotone sequences with flat steps, exponential and constant
    families, and submultiplicative exponential bounds with one late
    difference raised, so violations also sit deep in the sequence (past
    the first block of rows at N = 400)."""
    n = draw(st.integers(min_value=2, max_value=400))
    kind = draw(st.sampled_from(["flat-steps", "exponential", "constant", "late-bump"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    if kind == "flat-steps":
        return random_monotone_gamma(rng, n)
    if kind == "constant":
        return constant_gamma(float(rng.choice([1.0, rng.uniform(1.0, 50.0)])), n)
    g = gamma_from_exponential(float(rng.uniform(1.0, 6.0)), float(rng.uniform(0.01, 0.99)), n)
    if kind == "exponential":
        return g
    d = list(deltas(g))
    k = int(rng.integers(n // 2, n))
    d[k] *= float(rng.uniform(1.0, 3.0))
    return GammaSequence(tuple(np.cumsum([1.0] + d)[1:]))


@settings(max_examples=150, deadline=None)
@given(submultiplicative_candidates())
def test_submultiplicative_check_matches_pairwise_definition(gamma):
    assert check_submultiplicative(gamma) == submultiplicative_pairwise(gamma)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        g = gamma_from_exponential(3.0, 2.0 / 3.0, 8)
        path = tmp_path / "gamma.csv"
        gamma_to_csv(g, path)
        back = gamma_from_csv(path)
        assert back.n == g.n
        for a, b in zip(back.values, g.values):
            assert a == pytest.approx(b, rel=1e-11)  # 12-digit text format

    def test_file_format(self, tmp_path):
        path = tmp_path / "gamma.csv"
        gamma_to_csv(GammaSequence((1.5, 2.0)), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "i,gamma"
        assert lines[1] == "1,1.5"
        assert lines[2] == "2,2"

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("gamma,i\n1,1.5\n")
        with pytest.raises(ValueError, match="header"):
            gamma_from_csv(path)

    def test_rejects_gap_in_indices(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,gamma\n1,1.5\n3,2.0\n")
        with pytest.raises(ValueError, match="index"):
            gamma_from_csv(path)

    def test_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,gamma\n1,1.5,extra\n")
        with pytest.raises(ValueError):
            gamma_from_csv(path)


@st.composite
def gamma_sequences(draw, max_n=12):
    n = draw(st.integers(min_value=2, max_value=max_n))
    g1 = draw(st.floats(min_value=1.0, max_value=50.0, allow_nan=False))
    incs = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    vals = [g1]
    for d in incs:
        vals.append(vals[-1] + d)
    return GammaSequence(tuple(vals))


@settings(max_examples=80, deadline=None)
@given(gamma_sequences())
def test_any_valid_sequence_round_trips_through_csv(tmp_path_factory, g):
    path = tmp_path_factory.mktemp("csv") / "g.csv"
    gamma_to_csv(g, path)
    back = gamma_from_csv(path)
    assert back.n == g.n
    np.testing.assert_allclose(back.values, g.values, rtol=1e-11)


@settings(max_examples=80, deadline=None)
@given(gamma_sequences())
def test_deltas_always_sum_back_to_gamma(g):
    partial = 1.0
    for d, v in zip(deltas(g), g.values):
        partial += d
        assert partial == pytest.approx(v, rel=1e-12, abs=1e-12)
