import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpimpute import (
    EnumerationBudgetError,
    SensitivityReport,
    Universe,
    brute_force_imputed_sensitivity,
    extrapolation_tightness_witness,
    group_privacy_factor,
    hamming_distance,
    inflated_sensitivity,
    mean_global_sensitivity,
    mean_of_observed_imputer,
    mean_query,
    tightness_gap,
)


class TestMeanGlobalSensitivity:
    def test_benchmark_scale(self):
        assert mean_global_sensitivity(Universe.unit(1), 10_000) == 1e-4

    def test_single_record(self):
        assert mean_global_sensitivity(Universe.unit(1), 1) == 1.0

    def test_general_bounds(self):
        u = Universe((2.0, 5.0), ())
        assert mean_global_sensitivity(u, 3) == 1.0

    def test_rejects_zero_n(self):
        with pytest.raises(ValueError):
            mean_global_sensitivity(Universe.unit(1), 0)


class TestInflatedSensitivity:
    def test_no_missing_no_inflation(self):
        assert inflated_sensitivity(1e-4, 0).inflated_sensitivity == 1e-4

    def test_half_missing_inflation(self):
        assert inflated_sensitivity(1e-4, 4999).inflated_sensitivity == 0.5

    def test_full_range_at_n_minus_one_missing(self):
        n = 20
        delta = mean_global_sensitivity(Universe.unit(1), n)
        r = inflated_sensitivity(delta, n - 1)
        assert r.inflated_sensitivity == pytest.approx(1.0)

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError):
            SensitivityReport(1e-4, 1.0, 0)


class TestGroupPrivacyFactor:
    def test_zero_changes(self):
        assert group_privacy_factor(1.0, 0) == 1.0

    def test_base_guarantee(self):
        assert group_privacy_factor(1.0, 1) == pytest.approx(math.e)

    @pytest.mark.parametrize("epsilon", [0.0, math.inf, math.nan])
    def test_requires_finite_positive_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            group_privacy_factor(epsilon, 1)

    def test_three_changes(self):
        assert group_privacy_factor(1.0, 3) == pytest.approx(math.exp(3), rel=1e-12)

    @settings(max_examples=100)
    @given(
        st.floats(1e-3, 5.0),
        st.integers(0, 20),
        st.integers(0, 20),
    )
    def test_multiplicative(self, eps, j, k):
        lhs = group_privacy_factor(eps, j + k)
        rhs = group_privacy_factor(eps, j) * group_privacy_factor(eps, k)
        assert math.isclose(lhs, rhs, rel_tol=1e-12)


class TestTightnessGap:
    def test_unit_interval_n10(self):
        assert tightness_gap(0.0, 1.0, 10) == pytest.approx(0.9)

    def test_smallest_n(self):
        assert tightness_gap(0.0, 1.0, 2) == 0.5

    def test_identity_with_inflation(self):
        delta = mean_global_sensitivity(Universe.unit(1), 10)
        assert tightness_gap(0.0, 1.0, 10) == pytest.approx(
            inflated_sensitivity(delta, 8).inflated_sensitivity
        )

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            tightness_gap(1.0, 0.0, 10)

    def test_increasing_in_n_toward_range(self):
        gaps = [tightness_gap(0.0, 1.0, n) for n in range(2, 50)]
        assert all(a < b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1.0


class TestBruteForceOracle:
    def test_no_missingness_reduces_to_global_sensitivity(self):
        res = brute_force_imputed_sensitivity(
            [0.0, 0.5, 1.0], 2, mean_of_observed_imputer, mean_query,
            allow_missingness=False,
        )
        assert res.max_gap == pytest.approx(0.5)
        assert res.violations == ()

    def test_mean_imputer_within_bound(self):
        res = brute_force_imputed_sensitivity(
            [0.0, 0.5, 1.0], 3, mean_of_observed_imputer, mean_query
        )
        assert res.violations == ()
        # first inequality: global sensitivity is within the enumerated max
        assert res.base_sensitivity <= res.max_gap + 1e-12

    def test_witness_is_deterministic(self):
        a = brute_force_imputed_sensitivity(
            [0.0, 1.0], 3, mean_of_observed_imputer, mean_query
        )
        b = brute_force_imputed_sensitivity(
            [0.0, 1.0], 3, mean_of_observed_imputer, mean_query
        )
        assert a.witness == b.witness and a.max_gap == b.max_gap

    def test_budget_guard(self):
        with pytest.raises(EnumerationBudgetError):
            brute_force_imputed_sensitivity(
                [0.0, 0.5, 1.0], 12, mean_of_observed_imputer, mean_query
            )

    def test_witness_csv_shape(self):
        res = brute_force_imputed_sensitivity(
            [0.0, 1.0], 2, mean_of_observed_imputer, mean_query
        )
        lines = res.witness_csv().splitlines()
        assert lines[0] == "record,value_d,missing_d,value_dprime,missing_dprime"
        assert len(lines) == 3


class TestTightnessWitness:
    def test_achieves_formula_gap(self):
        w = extrapolation_tightness_witness(0.0, 1.0, 10)
        assert w.gap == tightness_gap(0.0, 1.0, 10) == 0.9
        assert w.report.bound_tight
        assert w.report.n_mis_used == 8

    def test_pair_are_neighbors(self):
        w = extrapolation_tightness_witness(0.0, 1.0, 10)
        assert hamming_distance(w.dataset, w.neighbor) == 1

    def test_general_bounds(self):
        w = extrapolation_tightness_witness(2.0, 5.0, 6)
        assert w.gap == pytest.approx(tightness_gap(2.0, 5.0, 6))
        assert w.report.bound_tight
