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
    fit_imputation_model,
    impute,
    imputed_mean,
    n_mis,
    ols_fit,
)
from oracles import check_imputer_contract, hamming_distance


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


def random_dataset(seed, n, d, missing, universe):
    """n records of d covariates in [0, 1] with responses uniform in the
    universe; ``missing`` is "none", "some" or "all"."""
    rng = RandomSource(seed)
    lo, hi = universe.response_bounds
    x = rng.uniform(size=(n, d))
    y = rng.uniform(lo, hi, size=n)
    mask = {"none": np.zeros(n, dtype=bool), "all": np.ones(n, dtype=bool),
            "some": rng.uniform(size=n) < 0.5}[missing]
    return Dataset(x, y, mask, universe)


class TestImputedMean:
    """imputed_mean is the response mean of impute's completion, computed
    from the complete-case sum and the missing rows alone."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n=st.integers(1, 60),
        d=st.sampled_from([0, 1, 3]),
        missing=st.sampled_from(["none", "some", "all"]),
        kind=st.sampled_from(["ols", "fm", "beta"]),
        lo=st.floats(-100.0, 100.0),
        width=st.floats(0.01, 100.0),
    )
    def test_matches_mean_of_completion(self, seed, n, d, missing, kind, lo, width):
        u = Universe((lo, lo + width))
        data = random_dataset(seed, n, d, missing, u)
        if kind == "ols":
            try:
                model = fit_imputation_model(data, None)
            except DegenerateDesignError:
                return  # too few complete cases for a plain fit
        elif kind == "fm":
            model = fit_imputation_model(data, 1.0, rng=RandomSource(seed))
        else:  # coefficients large enough to clip fills at both ends
            beta = RandomSource(seed).uniform(-4 * width, 4 * width, size=d + 1)
            model = model_with_beta(beta + lo)
        expected = float(impute(data, model).response.mean())
        # two float sums of n terms of size at most max(|a|, |b|)
        bound = 4 * n * np.finfo(float).eps * max(abs(lo), abs(lo + width))
        assert abs(imputed_mean(data, model) - expected) <= bound

    def test_no_missing_is_observed_mean(self):
        d = benchmark_dataset(seed=3, missing=False)
        model = fit_imputation_model(d, privacy_epsilon=None)
        assert imputed_mean(d, model) == d.response.mean()

    def test_dimension_mismatch_rejected(self):
        d = benchmark_dataset(seed=8)
        for beta in ([0.5], [0.5, 0.5]):
            with pytest.raises(ValueError, match="model has .* dataset needs 3"):
                imputed_mean(d, model_with_beta(beta))

    def test_stochastic_model_rejected(self):
        d = benchmark_dataset(seed=8)
        with pytest.raises(ValueError, match="deterministic"):
            imputed_mean(d, model_with_beta([0.0, 0.5, 0.5], stochastic=True,
                                            sigma2=0.01))

    def test_missing_covariates_are_cached_rows(self):
        d = benchmark_dataset(seed=4)
        rows = d.missing_covariates
        assert rows is d.missing_covariates
        assert not rows.flags.writeable
        np.testing.assert_array_equal(rows, d.covariates[d.mask])


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


def shipped_imputer(epsilon, seed=0):
    """impute ∘ fit_imputation_model: OLS when ``epsilon`` is None, else
    the functional mechanism on the same RandomSource for every input."""
    def imputer(d):
        rng = None if epsilon is None else RandomSource(seed)
        return impute(d, fit_imputation_model(d, epsilon, rng=rng))
    return imputer


def neighbor_pair(seed, n, d, kind):
    """A dataset with at least d + 2 complete cases and a neighbor that
    changes one record: its observed response ("response") or its mask bit
    ("flip"), an observed record turning missing or a missing one observed."""
    u = Universe((-1.0, 2.0))
    rng = RandomSource(seed)
    x = rng.uniform(size=(n, d))
    y = rng.uniform(-1.0, 2.0, size=n)
    mask = rng.uniform(size=n) < 0.4
    mask[: d + 3] = False  # complete cases enough for a plain fit on both sides
    i = int(rng.uniform() * n) if kind == "flip" else 0
    y2, mask2 = np.array(y), np.array(mask)
    if kind == "response":
        y2[i] = -1.0 if y[i] > 0.5 else 2.0
    else:
        mask2[i] = not mask[i]
    return Dataset(x, y, mask, u), Dataset(x, y2, mask2, u)


class TestShippedImputerContract:
    """The bound the released mean relies on, checked on the imputer the
    strategies ship rather than on a stand-in."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n=st.integers(8, 30),
        d=st.sampled_from([1, 3]),
        kind=st.sampled_from(["response", "flip"]),
        epsilon=st.sampled_from([None, 0.5, 5.0]),
    )
    def test_no_violations(self, seed, n, d, kind, epsilon):
        data, neighbor = neighbor_pair(seed, n, d, kind)
        assert hamming_distance(data, neighbor) == 1
        imputer = shipped_imputer(epsilon, seed)
        assert check_imputer_contract(imputer, data, neighbor) == []
        assert check_imputer_contract(imputer, neighbor, data) == []

    @pytest.mark.parametrize("epsilon", [None, 1.0])
    def test_rewriting_an_observed_record_fails(self, epsilon):
        shipped = shipped_imputer(epsilon)

        def planted(d):
            out = shipped(d)
            y = np.array(out.response)
            i = int(np.flatnonzero(~d.mask)[-1])
            y[i] = 0.5 if y[i] != 0.5 else 1.5
            return Dataset(out.covariates, y, out.mask, out.universe)

        data, neighbor = neighbor_pair(7, 20, 1, "response")
        violations = check_imputer_contract(planted, data, neighbor)
        assert "D: observed values were changed" in violations
        assert "D': observed values were changed" in violations
