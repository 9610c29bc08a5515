import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpimpute import (
    Dataset,
    DegenerateDesignError,
    ImputationModel,
    OlsFit,
    RandomSource,
    Universe,
    check_imputer_contract,
    fit_imputation_model,
    impute,
    n_mis,
    ols_fit,
)


def make_dataset(x, y, mask, universe=None):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if universe is None:
        universe = Universe.unit()
    return Dataset(x, np.asarray(y, dtype=float), np.asarray(mask, dtype=bool), universe)


def model_with_beta(beta, stochastic=False, sigma2=0.0):
    fit = OlsFit(
        beta=np.asarray(beta, dtype=float),
        sigma2_hat=sigma2,
        private=False,
        epsilon_spent=0.0,
    )
    return ImputationModel(fit=fit, stochastic=stochastic)


def benchmark_dataset(seed=0, n=2000, missing=True):
    rng = RandomSource(seed)
    x = rng.uniform(size=(n, 2))
    y = np.clip(x @ [0.5, 0.5] + rng.normal(0, np.sqrt(0.1), n), 0, 1)
    mask = rng.uniform(size=n) < x[:, 0] if missing else np.zeros(n, dtype=bool)
    return Dataset(x, y, mask, Universe.unit())


class TestFitImputationModel:
    def test_fits_on_complete_cases_only(self):
        d = benchmark_dataset(seed=1)
        model = fit_imputation_model(d, privacy_epsilon=None)
        obs = ~d.mask
        complete = Dataset(d.covariates[obs], d.response[obs], d.mask[obs], d.universe)
        expected = ols_fit(complete)
        np.testing.assert_array_equal(model.fit.beta, expected.beta)

    def test_recovers_truth_without_missingness(self):
        # a universe wide enough that no response is clipped, so the fit
        # targets the generating β = (0, 0.5, 0.5) itself
        rng = RandomSource(2)
        x = rng.uniform(size=(10_000, 2))
        y = x @ [0.5, 0.5] + rng.normal(0, np.sqrt(0.1), 10_000)
        d = Dataset(x, y, np.zeros(10_000, dtype=bool), Universe((-2.0, 3.0)))
        model = fit_imputation_model(d, privacy_epsilon=None)
        np.testing.assert_allclose(model.fit.beta, [0.0, 0.5, 0.5], atol=0.05)

    def test_noiseless_private_limit(self):
        d = benchmark_dataset(seed=3)
        a = fit_imputation_model(d, privacy_epsilon=None)
        b = fit_imputation_model(d, privacy_epsilon=1e12, rng=RandomSource(9))
        np.testing.assert_allclose(b.fit.beta, a.fit.beta, atol=1e-6)
        assert b.fit.private and not a.fit.private

    def test_all_missing_rejected(self):
        d = make_dataset([[0.1], [0.2], [0.3]], [0.0, 0.0, 0.0], [True, True, True])
        with pytest.raises(DegenerateDesignError, match="0 rows and 2 columns"):
            fit_imputation_model(d, privacy_epsilon=None)

    def test_stochastic_with_private_fit_rejected(self):
        d = benchmark_dataset(seed=4)
        with pytest.raises(ValueError):
            fit_imputation_model(
                d, privacy_epsilon=1.0, rng=RandomSource(0), stochastic=True
            )


class TestIdentityEquality:
    def test_equal_content_compares_and_hashes(self):
        # value equality over numpy fields would raise; these compare by identity
        d1, d2 = (benchmark_dataset(seed=12) for _ in range(2))
        m1, m2 = (fit_imputation_model(d, privacy_epsilon=None) for d in (d1, d2))
        pairs = [(d1, d2), (m1.fit, m2.fit), (m1, m2)]
        for a, b in pairs:
            assert a == a and a != b
            assert len({a, b}) == 2 and hash(a) == hash(a)


class TestImpute:
    def test_identity_on_complete_data(self):
        d = benchmark_dataset(seed=5, missing=False)
        model = fit_imputation_model(d, privacy_epsilon=None)
        assert impute(d, model) is d

    def test_direct_prediction(self):
        u = Universe.unit()
        d = make_dataset([[1.0, 1.0], [0.2, 0.2], [0.4, 0.0]],
                         [0.0, 0.2, 0.2], [True, False, False], u)
        out = impute(d, model_with_beta([0.0, 0.5, 0.5]))
        assert out.response[0] == 1.0
        assert not out.mask.any()

    def test_clipping_enforces_universe(self):
        u = Universe.unit()
        d = make_dataset([[1.0, 1.0], [0.2, 0.2], [0.4, 0.0]],
                         [0.0, 0.2, 0.2], [True, False, False], u)
        out = impute(d, model_with_beta([0.0, 10.0, 10.0]))
        assert out.response[0] == 1.0

    def test_observed_values_bit_identical(self):
        d = benchmark_dataset(seed=6)
        model = fit_imputation_model(d, privacy_epsilon=None)
        out = impute(d, model)
        obs = ~d.mask
        np.testing.assert_array_equal(out.response[obs], d.response[obs])
        np.testing.assert_array_equal(out.covariates, d.covariates)

    def test_idempotent(self):
        d = benchmark_dataset(seed=7)
        model = fit_imputation_model(d, privacy_epsilon=None)
        once = impute(d, model)
        assert impute(once, model) is once

    def test_locality(self):
        u = Universe.unit()
        d1 = make_dataset([[0.5], [0.3]], [0.0, 0.4], [True, False], u)
        d2 = make_dataset([[0.5], [0.9]], [0.0, 0.4], [True, False], u)
        model = model_with_beta([0.0, 0.8])
        assert impute(d1, model).response[0] == impute(d2, model).response[0]

    def test_dimension_mismatch_rejected(self):
        d = benchmark_dataset(seed=8)  # d = 2 needs β₀ first, then two slopes
        for beta in ([0.5], [0.5, 0.5]):
            with pytest.raises(ValueError, match="dataset needs 3"):
                impute(d, model_with_beta(beta))

    def test_stays_in_universe(self):
        d = benchmark_dataset(seed=9)
        model = fit_imputation_model(d, privacy_epsilon=None)
        out = impute(d, model)
        assert ((out.response >= 0.0) & (out.response <= 1.0)).all()

    @pytest.mark.parametrize("stochastic", [False, True])
    def test_matches_per_record_reference(self, stochastic):
        # missing record i: prediction from its gathered row, plus the i-th of
        # n draws when stochastic, clipped; every other record keeps its value
        d = benchmark_dataset(seed=12, n=300)
        model = fit_imputation_model(d, privacy_epsilon=None, stochastic=stochastic)
        out = impute(d, model, RandomSource(88))
        rows = np.nonzero(d.mask)[0]
        preds = model.fit.predict(d.covariates[rows])
        draws = RandomSource(88).normal(0.0, np.sqrt(model.fit.sigma2_hat), size=d.n)
        expected = [float(v) for v in d.response]
        for k, i in enumerate(rows):
            pred = preds[k] + draws[i] if stochastic else preds[k]
            expected[i] = float(np.clip(pred, 0.0, 1.0))
        assert out.response.tolist() == expected
        assert not out.mask.any()

    @pytest.mark.parametrize("stochastic", [False, True])
    def test_peak_allocation(self, stochastic):
        # the predictions are clipped and filled in place and Dataset takes
        # them without a copy: one response-sized array, two while the
        # stochastic draws are added
        n = 200_000
        d = benchmark_dataset(seed=5, n=n)
        model = fit_imputation_model(d, privacy_epsilon=None, stochastic=stochastic)
        rng = RandomSource(6)
        tracemalloc.start()
        try:
            impute(d, model, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (2.1 if stochastic else 1.5) * 8 * n


class TestStochasticImpute:
    def test_requires_rng(self):
        u = Universe.unit()
        d = make_dataset([[0.5], [0.3], [0.6]], [0.0, 0.3, 0.5],
                         [True, False, False], u)
        model = model_with_beta([0.0, 0.5], stochastic=True, sigma2=0.01)
        with pytest.raises(ValueError):
            impute(d, model)

    def test_deterministic_given_seed(self):
        d = benchmark_dataset(seed=10)
        model = fit_imputation_model(d, privacy_epsilon=None, stochastic=True)
        a = impute(d, model, RandomSource(55))
        b = impute(d, model, RandomSource(55))
        np.testing.assert_array_equal(a.response, b.response)

    def test_fill_is_indexed_draw_of_one_stream(self):
        # record i gets the i-th of n normals drawn from the caller's stream
        d = benchmark_dataset(seed=11)
        model = fit_imputation_model(d, privacy_epsilon=None, stochastic=True)
        out = impute(d, model, RandomSource(66))
        sd = np.sqrt(model.fit.sigma2_hat)
        noise = RandomSource(66).normal(0.0, sd, size=d.n)[d.mask]
        expected = np.clip(model.fit.predict(d.covariates[d.mask]) + noise, 0.0, 1.0)
        np.testing.assert_array_equal(out.response[d.mask], expected)
        np.testing.assert_array_equal(out.response[~d.mask], d.response[~d.mask])

    def test_per_record_streams_are_order_independent(self):
        # same record index gets the same draw regardless of which other
        # records are missing
        u = Universe.unit()
        base = model_with_beta([0.0, 0.5], stochastic=True, sigma2=0.01)
        d1 = make_dataset([[0.4], [0.6], [0.2]], [0.0, 0.3, 0.1],
                          [True, False, False], u)
        d2 = make_dataset([[0.4], [0.6], [0.2]], [0.0, 0.3, 0.0],
                          [True, False, True], u)
        a = impute(d1, base, RandomSource(77))
        b = impute(d2, base, RandomSource(77))
        assert a.response[0] == b.response[0]


def refit_mean_imputer(d):
    completed = np.array(d.response)
    completed[d.mask] = d.response[~d.mask].mean()
    return Dataset(d.covariates, completed, np.zeros(d.n, dtype=bool), d.universe)


class TestImputerContract:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8))
    def test_refit_mean_imputer_ok(self, seed, n):
        rng = RandomSource(seed)
        x = rng.uniform(size=(n, 1))
        y = rng.uniform(size=n)
        mask = rng.uniform(size=n) < 0.4
        mask[0] = False  # keep at least one observed value on both sides
        d = Dataset(x, y, mask, Universe.unit())
        y2 = np.array(y)
        y2[1 % n] = rng.uniform()
        mask2 = np.array(mask)
        mask2[1 % n] = False
        d2 = Dataset(x, y2, mask2, Universe.unit())
        from dpimpute import hamming_distance

        if hamming_distance(d, d2) != 1:
            return
        assert check_imputer_contract(refit_mean_imputer, d, d2) == []

    def test_broken_imputer_flagged(self):
        def broken(d):
            completed = np.array(d.response)
            completed[d.mask] = 0.5
            completed[np.nonzero(~d.mask)[0][0]] += 0.01  # perturbs an observed value
            return Dataset(d.covariates, completed, np.zeros(d.n, dtype=bool), d.universe)

        u = Universe.unit()
        d = make_dataset([[0.1], [0.2], [0.3]], [0.4, 0.5, 0.0],
                         [False, False, True], u)
        d2 = make_dataset([[0.1], [0.2], [0.3]], [0.4, 0.9, 0.0],
                          [False, False, True], u)
        violations = check_imputer_contract(broken, d, d2)
        assert any("observed values" in v for v in violations)

    def test_universe_change_flagged(self):
        # a completion can only hold values outside [a, b] in another universe
        def widening(d):
            completed = np.where(d.mask, 5.0, d.response)
            wide = Universe((-10.0, 10.0))
            return Dataset(d.covariates, completed, np.zeros(d.n, dtype=bool), wide)

        d = make_dataset([[0.1], [0.2], [0.3]], [0.4, 0.5, 0.0], [False, False, True])
        d2 = make_dataset([[0.1], [0.2], [0.3]], [0.4, 0.9, 0.0], [False, False, True])
        violations = check_imputer_contract(widening, d, d2)
        assert "D: imputed dataset leaves the universe" in violations

    def test_complete_pair_distance_at_most_one(self):
        u = Universe.unit()
        d = make_dataset([[0.1], [0.2]], [0.4, 0.5], [False, False], u)
        d2 = make_dataset([[0.1], [0.2]], [0.4, 0.9], [False, False], u)
        assert check_imputer_contract(refit_mean_imputer, d, d2) == []

    def test_non_neighbors_rejected(self):
        u = Universe.unit()
        d = make_dataset([[0.1], [0.2]], [0.4, 0.5], [False, False], u)
        with pytest.raises(ValueError):
            check_imputer_contract(refit_mean_imputer, d, d)
