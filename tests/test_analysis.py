"""Horizon analysis: minimal stabilizing horizons, thresholds, regions."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpccert import (
    CertificateQuery,
    HorizonSearchError,
    certificate,
    constant_family,
    exponential_family,
    gamma_from_exponential,
    horizon_bound_half,
    horizon_bound_m1,
    horizon_table,
    minimal_horizon,
    stability_region,
)
from mpccert.analysis import (
    alpha_profile_m,
    default_region_axes,
    horizon_table_to_csv,
    profile_to_csv,
    region_to_csv,
)
from mpccert.certificate import _alpha_profile


class TestMinimalHorizon:
    def test_benchmark_exponential_single_step(self):
        # C = 3, sigma = 2/3: the single-step policy certifies first at N = 18
        res = minimal_horizon(exponential_family(3.0, 2.0 / 3.0), policy=1)
        assert res.n_hat == 18
        assert res.m == 1
        # expected values from exact rational arithmetic on
        # gamma_i = 9 * (1 - (2/3)^i)
        assert res.alpha == pytest.approx(0.05488414221091583, abs=1e-13)
        assert res.alpha_before == pytest.approx(-0.0788971384246837, abs=1e-13)
        assert res.alpha_before < 0.0

    def test_benchmark_exponential_best_policy(self):
        # the same bounds certify at N = 12 when m may be chosen freely
        res = minimal_horizon(exponential_family(3.0, 2.0 / 3.0), policy="best")
        assert res.n_hat == 12
        assert res.alpha == pytest.approx(0.1266484396422442, abs=1e-13)
        assert res.alpha_before == pytest.approx(-0.091, abs=1e-3)

    def test_shortest_possible_horizon(self):
        # constant M = 2 is marginally stable already at N = 2
        res = minimal_horizon(constant_family(2.0), policy=1)
        assert res.n_hat == 2
        assert res.alpha == 0.0
        assert res.alpha_before == -math.inf  # nothing was scanned before N = 2

    def test_fixed_multi_step_policy_skips_short_horizons(self):
        res = minimal_horizon(constant_family(2.0), policy=3)
        assert res.n_hat >= 4  # m = 3 needs N >= m + 1

    def test_half_policy(self):
        res = minimal_horizon(constant_family(4.0), policy="half")
        assert res.n_hat == 5
        assert res.m == 2

    def test_search_cap_raises_with_context(self):
        with pytest.raises(HorizonSearchError) as exc_info:
            minimal_horizon(exponential_family(3.0, 2.0 / 3.0), policy=1, n_max=10)
        err = exc_info.value
        assert err.n_max == 10
        assert err.alpha_at_max < 0.0
        assert "N = 10" in str(err)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            minimal_horizon(constant_family(2.0), policy="median")
        with pytest.raises(ValueError):
            minimal_horizon(constant_family(2.0), policy=0)
        for flag in (True, False, np.True_):
            with pytest.raises(ValueError, match="policy"):
                minimal_horizon(constant_family(2.0), policy=flag)
        with pytest.raises(ValueError, match="policy"):
            minimal_horizon(constant_family(2.0), policy=2.0)

    def test_any_integral_policy_is_a_fixed_m(self):
        for policy in (np.int64(3), np.int32(3), np.uint8(3)):
            res = minimal_horizon(constant_family(2.0), policy=policy)
            assert res == minimal_horizon(constant_family(2.0), policy=3)
            assert type(res.m) is int and res.policy == "3"


class TestHorizonBounds:
    def test_single_step_threshold_agrees_with_the_scan(self):
        # the analytic threshold is exact for constant bounds: the scanned
        # minimal horizon is its ceiling
        for M in (2.0, 3.0, 4.0, 6.0, 10.0, 25.0):
            n_hat = minimal_horizon(constant_family(M), policy=1).n_hat
            assert n_hat == math.ceil(horizon_bound_m1(M) - 1e-12)

    def test_single_step_threshold_value(self):
        assert horizon_bound_m1(2.0) == pytest.approx(2.0, abs=1e-12)

    def test_half_threshold_values(self):
        # M = 2: even parity 2 ln2 / ln2 = 2; odd parity ln(4.5)/ln(2)
        assert horizon_bound_half(2.0, "even") == pytest.approx(2.0, abs=1e-12)
        assert horizon_bound_half(2.0, "odd") == pytest.approx(
            math.log(4.5) / math.log(2.0), abs=1e-12
        )

    def test_half_threshold_scales_linearly(self):
        # both parities grow like 2 ln2 * M
        for M in (10.0, 20.0, 40.0, 80.0):
            for parity in ("even", "odd"):
                ratio = horizon_bound_half(M, parity) / (2.0 * math.log(2.0) * M)
                assert 0.8 < ratio < 1.2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            horizon_bound_m1(1.0)
        with pytest.raises(ValueError):
            horizon_bound_half(0.5)
        with pytest.raises(ValueError):
            horizon_bound_half(2.0, "both")


class TestHorizonTable:
    def test_rows_and_known_values(self):
        rows = horizon_table([2.0, 3.0, 4.0])
        assert [r["M"] for r in rows] == [2.0, 3.0, 4.0]
        assert rows[0]["N_hat_m1"] == 2
        assert rows[0]["N_hat_half"] == 2
        assert rows[2]["N_hat_m1"] == 6
        assert rows[2]["N_hat_half"] == 5
        for r in rows:
            assert r["N_hat_half"] <= r["N_hat_m1"]

    def test_csv_output(self, tmp_path):
        rows = horizon_table([2.0, 4.0])
        path = tmp_path / "table.csv"
        horizon_table_to_csv(rows, path, config_line="n_max=600")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "#config n_max=600"
        assert lines[1] == "M,N_hat_m1,N_hat_half,bound_m1,bound_half"
        assert lines[2].startswith("2,2,2,")
        assert len(lines) == 4


def region_by_columns(horizon, m, C_values, sigma_values) -> np.ndarray:
    """The stability mask built one sigma-column per kernel call: the unblocked
    form ``stability_region`` must equal bit for bit."""
    C_values = np.asarray(C_values, dtype=float)
    mask = np.zeros((C_values.size, len(sigma_values)), dtype=bool)
    gamma = np.empty((C_values.size, horizon))
    for j, sig in enumerate(sigma_values):
        total = np.zeros(C_values.size)
        term = C_values.copy()
        for k in range(horizon):
            total += term
            gamma[:, k] = total
            term *= sig
        mask[:, j] = _alpha_profile(gamma)[:, m - 1] >= 0.0
    return mask


class TestStabilityRegion:
    def test_small_grid_verdicts(self):
        # N = 2, m = 1: stable iff C (1 + sigma) <= 2, checkable by hand
        grid = stability_region(2, 1, C_values=[1.0, 1.4, 2.0], sigma_values=[0.2, 0.5, 0.9])
        expect = np.array(
            [
                [c * (1.0 + s) <= 2.0 for s in (0.2, 0.5, 0.9)]
                for c in (1.0, 1.4, 2.0)
            ]
        )
        np.testing.assert_array_equal(grid.stable, expect)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=60), st.data())
    def test_columns_are_prefixes_in_overshoot(self, n, data):
        # alpha is nonincreasing in C at fixed sigma, so no column can
        # become stable again once it has failed
        m = data.draw(st.integers(min_value=1, max_value=n - 1))
        sigma = data.draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=5))
        grid = stability_region(n, m, C_values=np.linspace(1, 10, 24), sigma_values=sigma)
        for j in range(grid.sigma_values.size):
            col = grid.stable[:, j]
            k = int(np.count_nonzero(col))
            assert np.all(col[:k]) and not np.any(col[k:])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=30), st.data())
    def test_cells_match_single_certificates(self, n, data):
        m = data.draw(st.integers(min_value=1, max_value=n - 1))
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**31 - 1)))
        sigma = rng.uniform(0.01, 0.99, 5)
        C = [1.0, *rng.uniform(1.0, 6.0, 6)]
        if n == 2:
            C.extend(2.0 / (1.0 + sigma))  # the analytic boundary, rounded
        grid = stability_region(n, m, C_values=C, sigma_values=sigma)
        expect = [
            [
                certificate(CertificateQuery(gamma_from_exponential(c, s, n), n, m)).alpha >= 0.0
                for s in sigma
            ]
            for c in C
        ]
        np.testing.assert_array_equal(grid.stable, expect)

    @pytest.mark.parametrize("n", [2, 7, 30])
    def test_blocks_equal_the_column_loop(self, n):
        # 120 x 90 cells span 2, 5 and 23 blocks of sigma-columns at N = 2, 7, 30
        C, sigma = np.linspace(1.0, 10.0, 120), np.linspace(0.01, 0.99, 90)
        for m in sorted({1, n // 2, n - 1}):
            expect = region_by_columns(n, m, C, sigma)
            assert 0 < np.count_nonzero(expect) < expect.size
            assert np.array_equal(stability_region(n, m, C_values=C, sigma_values=sigma).stable, expect), m

    def test_memory_stays_within_a_block(self):
        # one column of 1000 C values at N = 40 already exceeds the block
        # budget; a batch over all 50 columns would need well over 100 MB
        C, sigma = np.linspace(1.0, 10.0, 1000), np.linspace(0.01, 0.99, 50)
        tracemalloc.start()
        try:
            stability_region(40, 20, C_values=C, sigma_values=sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_fraction(self):
        # at N = 2 the test is C * (1 + sigma) <= 2: the C = 1 row is stable
        # for every sigma < 1, the C = 3 row never is
        grid = stability_region(2, 1, C_values=[1.0, 3.0], sigma_values=[0.5, 0.9])
        assert grid.fraction_stable() == pytest.approx(0.5)
        grid = stability_region(2, 1, C_values=[1.5, 3.0], sigma_values=[0.1, 0.9])
        assert grid.fraction_stable() == pytest.approx(0.25)

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            stability_region(4, 1, C_values=[0.5, 2.0], sigma_values=[0.5])
        with pytest.raises(ValueError):
            stability_region(4, 1, C_values=[2.0], sigma_values=[0.0, 0.5])
        with pytest.raises(ValueError):
            stability_region(4, 1, C_values=[np.nan], sigma_values=[0.5])
        with pytest.raises(ValueError):
            stability_region(4, 1, C_values=[2.0], sigma_values=[np.nan])
        with pytest.raises(ValueError):
            stability_region(4, 4, C_values=[2.0], sigma_values=[0.5])
        for C, sigma in (([], [0.5]), ([2.0], []), ([[2.0, 3.0]], [0.5]), ([2.0], [[0.5]])):
            with pytest.raises(ValueError, match="non-empty 1-D"):
                stability_region(4, 1, C_values=C, sigma_values=sigma)
        for n, m in ((2.5, 1), (4.0, 1), (True, 1), (4, 1.5), (4, np.True_)):
            with pytest.raises(ValueError, match="must be an integer"):
                stability_region(n, m, C_values=[2.0], sigma_values=[0.5])
        grid = stability_region(np.int64(4), np.int32(2), C_values=[2.0], sigma_values=[0.5])
        assert (type(grid.horizon), type(grid.m)) == (int, int)
        with pytest.raises(ValueError):
            default_region_axes(cells=1)

    def test_csv_is_c_major(self, tmp_path):
        grid = stability_region(2, 1, C_values=[1.0, 2.0], sigma_values=[0.2, 0.8])
        path = tmp_path / "region.csv"
        region_to_csv(grid, path, config_line="N=2 m=1")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "#config N=2 m=1"
        assert lines[1] == "C,sigma,stable"
        assert lines[2] == "1,0.2,1"
        assert lines[3] == "1,0.8,1"
        assert lines[4].startswith("2,0.2,")


class TestAlphaProfile:
    def test_profile_covers_all_control_horizons(self):
        g = gamma_from_exponential(3.0, 2.0 / 3.0, 12)
        profile = alpha_profile_m(g, 12)
        assert [m for m, _ in profile] == list(range(1, 12))
        alphas = dict(profile)
        # symmetric in m -> N - m
        for m in range(1, 12):
            assert alphas[m] == alphas[12 - m]

    def test_horizon_outside_the_sequence_is_refused(self):
        g = gamma_from_exponential(3.0, 2.0 / 3.0, 12)
        # a negative horizon used to slice off the tail and return the N = 11 profile
        for n in (-1, 0, 1, 13):
            with pytest.raises(ValueError, match=rf"n = {n} entries"):
                alpha_profile_m(g, n)

    def test_profile_csv(self, tmp_path):
        g = gamma_from_exponential(3.0, 2.0 / 3.0, 4)
        path = tmp_path / "profile.csv"
        profile_to_csv(alpha_profile_m(g, 4), path, config_line="C=3")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "#config C=3"
        assert lines[1] == "m,alpha"
        assert len(lines) == 5
