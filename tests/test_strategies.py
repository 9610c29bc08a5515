import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpimpute import (
    BudgetExceededError,
    Dataset,
    NoObservedResponsesError,
    PrivacyBudget,
    RandomSource,
    Universe,
    available_case_mean,
    fit_imputation_model,
    impute,
    laplace_sample,
    mean_global_sensitivity,
    run_available_case,
    run_dp_impute_then_query,
    run_impute_then_query,
    run_strategy,
)
from dpimpute import strategies


def make_dataset(x, y, mask, universe=None):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if universe is None:
        universe = Universe.unit()
    return Dataset(x, np.asarray(y, dtype=float), np.asarray(mask, dtype=bool), universe)


def benchmark_arrays(seed=0, n=2000):
    """Covariates, the finite response drawn before masking, and the mask."""
    rng = RandomSource(seed)
    x = rng.uniform(size=(n, 2))
    y = np.clip(x @ [0.5, 0.5] + rng.normal(0, np.sqrt(0.1), n), 0, 1)
    mask = rng.uniform(size=n) < x[:, 0]
    return x, y, mask


def benchmark_dataset(seed=0, n=2000):
    return Dataset(*benchmark_arrays(seed, n), Universe.unit())


class TestAvailableCase:
    def test_zero_observed_rejected(self):
        d = make_dataset([[0.1], [0.2]], [0.0, 0.0], [True, True])
        with pytest.raises(NoObservedResponsesError):
            run_available_case(d, PrivacyBudget(1.0), RandomSource(0))

    def test_single_observed_sensitivity_one(self):
        d = make_dataset([[0.1], [0.2]], [0.3, 0.0], [False, True])
        res = run_available_case(d, PrivacyBudget(1.0), RandomSource(3))
        assert res.sensitivity_used == 1.0 and res.noise_scale == 1.0
        # value is 0.3 plus the Laplace(1) draw from the query stream
        noise = laplace_sample(1.0, RandomSource(3).split(1))
        assert res.value == pytest.approx(0.3 + noise)

    def test_no_missingness_uses_full_n(self):
        x, y, _ = benchmark_arrays(seed=1)
        full = make_dataset(x, y, np.zeros(len(y), dtype=bool))
        res = run_available_case(full, PrivacyBudget(1.0), RandomSource(2))
        assert res.sensitivity_used == mean_global_sensitivity(full.universe, full.n)
        assert res.n_mis_at_query == 0
        assert math.isfinite(res.value)

    def test_noise_free_mean_is_biased_low(self):
        d = benchmark_dataset(seed=4, n=20_000)
        assert available_case_mean(d) < 0.45

    def test_accounting(self):
        d = benchmark_dataset(seed=5)
        res = run_available_case(d, PrivacyBudget(0.7), RandomSource(1))
        assert res.epsilon_spent_total == 0.7
        assert math.fsum(e for _, e in res.ledger) == 0.7


@st.composite
def masked_datasets(draw):
    """A Dataset of d in {0, 1, 3} covariates with at least one observed
    response: a random mask, or exactly one observed record."""
    n = draw(st.integers(1, 3000))
    d = draw(st.sampled_from([0, 1, 3]))
    rng = RandomSource(draw(st.integers(0, 2**32)))
    x = rng.uniform(size=(n, d))
    y = rng.uniform(-5.0, 5.0, size=n)
    if draw(st.booleans()):
        mask = rng.uniform(size=n) < draw(st.floats(0.0, 1.0))
    else:
        mask = np.ones(n, dtype=bool)
    mask[draw(st.integers(0, n - 1))] = False
    return Dataset(x, y, mask, Universe((-5.0, 5.0))), y[~mask]


class TestAvailableCaseMean:
    @settings(max_examples=300, deadline=None)
    @given(masked_datasets())
    def test_equals_mean_of_observed_bit_for_bit(self, case):
        d, y_obs = case
        assert available_case_mean(d) == float(y_obs.mean())

    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_all_missing_refused_without_warning(self, d):
        x = np.full((4, d), 0.5)
        data = Dataset(x, np.zeros(4), np.ones(4, bool), Universe.unit())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoObservedResponsesError):
                available_case_mean(data)


class TestImputeThenQuery:
    def test_inflated_sensitivity_small_example(self):
        # n=10, n_mis=7: sensitivity (n_mis+1)(b-a)/n = 0.8; 3 complete cases
        # give the intercept fit a nonsingular design
        rng = RandomSource(8)
        x = rng.uniform(size=(10, 1))
        y = rng.uniform(size=10)
        mask = np.ones(10, dtype=bool)
        mask[:3] = False
        d = Dataset(x, y, mask, Universe.unit())
        res = run_impute_then_query(d, PrivacyBudget(1.0), RandomSource(9))
        assert res.sensitivity_used == pytest.approx(0.8)
        assert res.noise_scale == pytest.approx(0.8)

    def test_no_missingness_matches_plain_dp_mean(self):
        x, y, _ = benchmark_arrays(seed=10)
        full = make_dataset(x, y, np.zeros(len(y), dtype=bool))
        res = run_impute_then_query(full, PrivacyBudget(1.0), RandomSource(11))
        delta = mean_global_sensitivity(full.universe, full.n)
        assert res.sensitivity_used == delta
        assert math.isfinite(res.value)
        noise = laplace_sample(delta, RandomSource(11).split(1))
        assert res.value == pytest.approx(float(y.mean()) + noise)

    def test_sensitivity_affine_in_n_mis(self):
        x, y, _ = benchmark_arrays(seed=12)
        delta = mean_global_sensitivity(Universe.unit(), len(y))
        sens = []
        for k in (0, 5, 50):
            mask = np.zeros(len(y), dtype=bool)
            mask[:k] = True
            dk = make_dataset(x, y, mask)
            res = run_impute_then_query(dk, PrivacyBudget(1.0), RandomSource(13))
            assert math.isfinite(res.value)
            sens.append(res.sensitivity_used)
        assert sens == [(k + 1) * delta for k in (0, 5, 50)]

    def test_accounting(self):
        d = benchmark_dataset(seed=14)
        res = run_impute_then_query(d, PrivacyBudget(1.0), RandomSource(15))
        assert res.epsilon_spent_total == 1.0
        assert math.fsum(e for _, e in res.ledger) == 1.0


class TestDpImputeThenQuery:
    def test_even_budget_split(self):
        d = benchmark_dataset(seed=20, n=10_000)
        budget = PrivacyBudget(1.0, imputation_share=0.5)
        res = run_dp_impute_then_query(d, budget, RandomSource(21))
        assert res.noise_scale == pytest.approx(1e-4 / 0.5)
        assert res.epsilon_spent_total == 1.0
        assert budget.ledger == (("imputation", 0.5), ("analysis", 0.5))

    def test_sensitivity_independent_of_n_mis(self):
        x, y, _ = benchmark_arrays(seed=22)
        delta = mean_global_sensitivity(Universe.unit(), len(y))
        for k in (0, 5, 50):
            mask = np.zeros(len(y), dtype=bool)
            mask[:k] = True
            res = run_dp_impute_then_query(
                make_dataset(x, y, mask), PrivacyBudget(1.0), RandomSource(23)
            )
            assert res.sensitivity_used == delta
            assert math.isfinite(res.value)

    def test_noiseless_imputation_limit(self):
        # eps1 huge: value distribution equals non-private imputation plus
        # the same Laplace draw at eps2
        d = benchmark_dataset(seed=24)
        budget = PrivacyBudget(2e12, imputation_share=0.9999999999995)
        rng = RandomSource(25)
        res = run_dp_impute_then_query(d, budget, rng)
        model = fit_imputation_model(d, privacy_epsilon=None)
        completed = impute(d, model)
        eps2 = budget.epsilon_analysis
        noise = laplace_sample(
            mean_global_sensitivity(d.universe, d.n) / eps2,
            RandomSource(25).split(1),
        )
        assert res.value == pytest.approx(float(completed.response.mean()) + noise, abs=1e-6)

    def test_spends_eps1_even_without_missingness(self):
        x, y, _ = benchmark_arrays(seed=26)
        full = make_dataset(x, y, np.zeros(len(y), dtype=bool))
        budget = PrivacyBudget(1.0)
        res = run_dp_impute_then_query(full, budget, RandomSource(27))
        assert res.epsilon_spent_total == 1.0
        assert budget.ledger[0] == ("imputation", 0.5)
        assert math.isfinite(res.value)

    @pytest.mark.parametrize("n_cc", range(5))
    def test_releases_at_every_complete_case_count(self, n_cc):
        # p = 3 with the intercept: from no complete case to p + 1 of them
        x, y, _ = benchmark_arrays(seed=34, n=8)
        mask = np.arange(8) >= n_cc
        budget = PrivacyBudget(1.0)
        res = run_dp_impute_then_query(make_dataset(x, y, mask), budget,
                                       RandomSource(35))
        assert math.isfinite(res.value)
        assert budget.ledger == (("imputation", 0.5), ("analysis", 0.5))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
                              st.booleans()), min_size=1, max_size=12),
           st.integers(0, 1000))
    def test_releases_for_every_small_dataset(self, records, seed):
        # the private path has no size refusal: any n and any mask release
        x = np.array([r[:2] for r in records])
        y = np.array([r[2] for r in records])
        mask = np.array([r[3] for r in records])
        res = run_dp_impute_then_query(make_dataset(x, y, mask),
                                       PrivacyBudget(1.0), RandomSource(seed))
        assert math.isfinite(res.value)
        assert res.ledger == (("imputation", 0.5), ("analysis", 0.5))

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([0.1, 0.5, 0.9]), st.integers(0, 1000))
    def test_ledger_total_exact_across_splits(self, share, seed):
        d = benchmark_dataset(seed=28, n=2000)
        budget = PrivacyBudget(1.0, imputation_share=share)
        res = run_dp_impute_then_query(d, budget, RandomSource(seed))
        assert math.fsum(e for _, e in res.ledger) == 1.0
        assert res.epsilon_spent_total == 1.0

    def test_failed_fit_stays_ledgered(self):
        rng = RandomSource(0)
        x, y = rng.uniform(size=(6, 2)), rng.uniform(size=6)
        d = make_dataset(x, y, [False] * 5 + [True])
        # n=6 at eps=1e-3: the noise swamps the quadratic, yet the trimmed
        # fit releases a finite value at the full spend
        budget = PrivacyBudget(1e-3)
        res = run_dp_impute_then_query(d, budget, RandomSource(22))
        assert math.isfinite(res.value)
        assert budget.ledger == (("imputation", budget.epsilon_imputation),
                                 ("analysis", budget.epsilon_analysis))
        with pytest.raises(BudgetExceededError):
            run_dp_impute_then_query(d, budget, RandomSource(0))
        # an eps1 whose noise scale overflows is refused by the fit after
        # eps1 was spent on it; the ledger keeps that spend
        budget = PrivacyBudget(1e-306, imputation_share=0.9)
        with pytest.raises(ValueError, match="noise scale must lie in"):
            run_dp_impute_then_query(d, budget, RandomSource(22))
        assert budget.ledger == (("imputation", budget.epsilon_imputation),)
        # a retry on the same budget cannot release a value
        with pytest.raises(BudgetExceededError):
            run_dp_impute_then_query(d, budget, RandomSource(0))


class TestRunStrategy:
    def test_looks_up_strategy_at_call_time(self, monkeypatch):
        calls = []
        real = strategies.run_available_case

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(strategies, "run_available_case", spy)
        d = benchmark_dataset()
        run_strategy("available_case", d, PrivacyBudget(1.0), RandomSource(0))
        assert len(calls) == 1

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            run_strategy("strategy", benchmark_dataset(),
                         PrivacyBudget(1.0), RandomSource(0))

    @pytest.mark.parametrize("name", ["available_case", "impute_then_query"])
    def test_non_imputing_strategies_spend_whole_budget(self, name):
        budget = PrivacyBudget(0.8, imputation_share=0.25)
        d = benchmark_dataset(seed=32)
        res = run_strategy(name, d, budget, RandomSource(33))
        assert budget.ledger == res.ledger == (("analysis", 0.8),)
        assert res.noise_scale == res.sensitivity_used / 0.8

    @pytest.mark.parametrize("name", ["available_case", "impute_then_query"])
    def test_refused_analysis_scale_stays_ledgered(self, name):
        # ε is spent on the analysis before its noise scale is checked
        budget = PrivacyBudget(1e-320)
        with pytest.raises(ValueError, match="noise scale must lie in"):
            run_strategy(name, benchmark_dataset(seed=32), budget, RandomSource(33))
        assert budget.ledger == (("analysis", 1e-320),)

    @pytest.mark.parametrize("name", strategies.ALL_STRATEGIES)
    def test_response_outside_universe_is_unreachable(self, name):
        # a library caller cannot release a mean of y = 50 with the noise of
        # the [0, 1] universe: building the Dataset raises first
        budget = PrivacyBudget(1.0)
        with pytest.raises(ValueError, match=r"row 1 y: value 50\.0 outside"):
            run_strategy(
                name,
                make_dataset([[0.1], [0.2], [0.3]], [0.5, 50.0, 0.4],
                             [False, False, True]),
                budget,
                RandomSource(0),
            )
        assert budget.ledger == ()
