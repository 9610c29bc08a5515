import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpimpute import (
    Dataset,
    EnumerationBudgetError,
    SensitivityReport,
    Universe,
    brute_force_imputed_sensitivity,
    extrapolation_tightness_witness,
    group_privacy_factor,
    hamming_distance,
    inflated_sensitivity,
    mean_global_sensitivity,
    read_dataset_csv,
    tightness_gap,
    write_dataset_csv,
)
from dpimpute import sensitivity
from dpimpute.core_data import COVARIATE_BOUNDS


class TestMeanGlobalSensitivity:
    def test_benchmark_scale(self):
        assert mean_global_sensitivity(Universe.unit(), 10_000) == 1e-4

    def test_single_record(self):
        assert mean_global_sensitivity(Universe.unit(), 1) == 1.0

    def test_general_bounds(self):
        u = Universe((2.0, 5.0))
        assert mean_global_sensitivity(u, 3) == 1.0

    def test_rejects_zero_n(self):
        with pytest.raises(ValueError):
            mean_global_sensitivity(Universe.unit(), 0)


class TestInflatedSensitivity:
    def test_no_missing_no_inflation(self):
        assert inflated_sensitivity(1e-4, 0).inflated_sensitivity == 1e-4

    def test_half_missing_inflation(self):
        assert inflated_sensitivity(1e-4, 4999).inflated_sensitivity == 0.5

    def test_full_range_at_n_minus_one_missing(self):
        n = 20
        delta = mean_global_sensitivity(Universe.unit(), n)
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
        delta = mean_global_sensitivity(Universe.unit(), 10)
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
            [0.0, 0.5, 1.0], 2, allow_missingness=False
        )
        assert res.max_gap == pytest.approx(0.5)
        assert res.violations == ()

    def test_shipped_imputer_within_bound(self):
        res = brute_force_imputed_sensitivity([0.0, 0.5, 1.0], 3)
        assert res.violations == ()
        # the shipped imputer reaches the tightness gap (n-1)(b-a)/n in-domain
        assert math.isclose(res.max_gap, tightness_gap(0.0, 1.0, 3))
        # first inequality: global sensitivity is within the enumerated max
        assert res.base_sensitivity <= res.max_gap + 1e-12

    def test_witness_is_deterministic(self):
        a = brute_force_imputed_sensitivity([0.0, 1.0], 3)
        b = brute_force_imputed_sensitivity([0.0, 1.0], 3)
        assert a.max_gap == b.max_gap
        assert all(hamming_distance(p, q) == 0 for p, q in zip(a.witness, b.witness))

    def test_budget_guard(self):
        with pytest.raises(EnumerationBudgetError):
            brute_force_imputed_sensitivity([0.0, 0.5, 1.0], 12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_planted_bound_breaker_is_caught(self, monkeypatch, n):
        # an imputer that overwrites every record, observed ones included,
        # with b once any completed response reaches b; a check that never
        # compared anything would pass it
        real_impute = sensitivity.impute

        def planted(d, model):
            out = real_impute(d, model)
            hi = d.universe.response_bounds[1]
            if (out.response == hi).any():
                return Dataset(out.covariates, np.full(d.n, hi), out.mask, d.universe)
            return out

        monkeypatch.setattr(sensitivity, "impute", planted)
        res = brute_force_imputed_sensitivity([0.0, 0.5, 1.0], n)
        assert res.violations != ()
        assert all(v.gap > v.bound for v in res.violations)


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


def test_witness_pairs_are_valid_inputs(tmp_path):
    oracle = brute_force_imputed_sensitivity([0.0, 0.5, 1.0], 4).witness
    tight = extrapolation_tightness_witness(0.0, 1.0, 10)
    lo, hi = COVARIATE_BOUNDS
    for pair in (oracle, (tight.dataset, tight.neighbor)):
        assert hamming_distance(*pair) == 1
        for d in pair:
            assert ((lo <= d.covariates) & (d.covariates <= hi)).all()
            path = tmp_path / "witness.csv"
            write_dataset_csv(d, path)
            back = read_dataset_csv(path, d.universe.response_bounds)
            np.testing.assert_array_equal(back.covariates, d.covariates)
            np.testing.assert_array_equal(back.response, d.response)  # NaN == NaN
            np.testing.assert_array_equal(back.mask, d.mask)
