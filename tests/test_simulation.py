import math
import sys

import numpy as np
import pytest

from dpimpute import core_data, imputation, simulation
from dpimpute import (
    RandomSource,
    SimConfig,
    StrategySummary,
    generate_population,
    inject_missingness,
    monte_carlo,
    n_mis,
    run_sweep,
    summarize,
    summarize_runs,
)
from dpimpute.simulation import runs_csv_text, summary_csv_text

# frozen 1e7-sample Monte Carlo moments of the clipped response
VAR_Y_CLIPPED = 0.1000


class TestConfig:
    def test_defaults_match_experiment(self):
        cfg = SimConfig()
        assert (cfg.n, cfg.d, cfg.beta) == (10_000, 2, (0.5, 0.5))
        assert (cfg.sigma2, cfg.epsilon, cfg.split, cfg.runs) == (0.1, 1.0, 0.5, 500)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(beta=(0.5,))
        with pytest.raises(ValueError):
            SimConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SimConfig(strategies=("bogus",))


class TestGeneratePopulation:
    def test_noiseless_case(self):
        cfg = SimConfig(n=200, sigma2=0.0, runs=1)
        d = generate_population(cfg, RandomSource(1))
        np.testing.assert_allclose(d.response, d.covariates @ [0.5, 0.5])
        assert not d.mask.any()

    def test_sample_mean_near_half(self):
        cfg = SimConfig(runs=1)
        d = generate_population(cfg, RandomSource(2))
        tol = 3 * math.sqrt(VAR_Y_CLIPPED / cfg.n)
        assert abs(d.response.mean() - 0.5) < tol

    def test_covariates_shared_not_copied(self):
        drawn = []

        class Source:
            def uniform(self, size):
                drawn.append(np.full(size, 0.5))
                return drawn[-1]

            def normal(self, loc, scale, size):
                return np.zeros(size)

        d = generate_population(SimConfig(n=10, runs=1), Source())
        assert d.covariates is drawn[0]

    def test_seeded_determinism(self):
        cfg = SimConfig(n=500, runs=1)
        a = generate_population(cfg, RandomSource(3))
        b = generate_population(cfg, RandomSource(3))
        np.testing.assert_array_equal(a.response, b.response)
        np.testing.assert_array_equal(a.covariates, b.covariates)


class TestInjectMissingness:
    def test_zero_probability(self):
        cfg = SimConfig(n=100, runs=1)
        d = generate_population(cfg, RandomSource(4))
        forced = type(d)(
            np.column_stack([np.zeros(100), d.covariates[:, 1]]),
            d.response,
            d.mask,
            d.universe,
        )
        assert n_mis(inject_missingness(forced, RandomSource(5))) == 0

    def test_certain_missingness(self):
        cfg = SimConfig(n=100, runs=1)
        d = generate_population(cfg, RandomSource(6))
        forced = type(d)(
            np.column_stack([np.ones(100), d.covariates[:, 1]]),
            d.response,
            d.mask,
            d.universe,
        )
        assert n_mis(inject_missingness(forced, RandomSource(7))) == 100

    def test_rate_near_half(self):
        cfg = SimConfig(runs=1)
        d = generate_population(cfg, RandomSource(8))
        masked = inject_missingness(d, RandomSource(9))
        assert abs(n_mis(masked) / cfg.n - 0.5) < 0.02

    def test_rejects_premasked(self):
        cfg = SimConfig(n=50, runs=1)
        d = generate_population(cfg, RandomSource(10))
        masked = inject_missingness(d, RandomSource(11))
        with pytest.raises(ValueError):
            inject_missingness(masked, RandomSource(12))

    def test_mar_within_bins(self):
        # within X1 bins, the pre-mask response has the same law for records
        # that end up observed and records that end up missing
        from scipy.stats import ks_2samp

        cfg = SimConfig(n=20_000, runs=1)
        rng = RandomSource(13)
        full = generate_population(cfg, rng.split(0))
        masked = inject_missingness(full, rng.split(1))
        x1 = full.covariates[:, 0]
        for lo in (0.0, 0.25, 0.5, 0.75):
            sel = (x1 >= lo) & (x1 < lo + 0.25)
            a = full.response[sel & ~masked.mask]
            b = full.response[sel & masked.mask]
            assert ks_2samp(a, b).pvalue > 1e-4  # loose threshold


class TestSummarize:
    def test_odd_length_exact(self):
        s = summarize([1, 2, 3, 4, 5])
        assert (s.min, s.q1, s.median, s.q3, s.max) == (1, 2, 3, 4, 5)

    def test_constant_list(self):
        s = summarize([0.7] * 4)
        assert s.min == s.q1 == s.median == s.q3 == s.max == 0.7
        assert s.variance == 0.0

    def test_interpolated_median(self):
        assert summarize([0.0, 1.0]).median == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestSweep:
    def small_cfg(self, **kw):
        return SimConfig(n=400, runs=6, seed=42, **kw)

    def test_single_run_deterministic(self):
        cfg = self.small_cfg()
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        assert a == b

    def test_parallel_matches_serial(self):
        cfg = self.small_cfg()
        serial, _ = run_sweep(cfg, workers=1)
        parallel, _ = run_sweep(cfg, workers=4)
        assert serial == parallel

    def test_strategy_filter(self):
        cfg = self.small_cfg(strategies=("available_case",))
        summary = monte_carlo(cfg)
        assert list(summary) == ["available_case"]

    def test_summary_is_a_dict_in_config_order(self):
        order = ("dp_impute_then_query", "available_case", "impute_then_query")
        summary = monte_carlo(self.small_cfg(strategies=order))
        assert type(summary) is dict
        assert tuple(summary) == order
        assert all(isinstance(s, StrategySummary) for s in summary.values())

    def test_summary_counts(self):
        cfg = self.small_cfg()
        records, failures = run_sweep(cfg)
        summary = summarize_runs(cfg, records, failures)
        for name, s in summary.items():
            assert s.count + s.failures == cfg.runs
            assert s.q1 <= s.median <= s.q3

    def test_negative_workers_refused(self):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            run_sweep(self.small_cfg(), workers=-1)


class TestOneCompleteCaseRead:
    def test_run_selects_and_sums_complete_cases_once(self, monkeypatch):
        # the three strategies of a run share one statistic of its Dataset
        # and one selection of its missing rows; none completes the Dataset
        calls = {"moments": 0, "compress": 0, "impute": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        moments = counted("moments", core_data._moments)
        monkeypatch.setattr(core_data, "_moments", moments)
        monkeypatch.setattr(np, "compress", counted("compress", np.compress))
        impute = counted("impute", imputation.impute)
        for name, module in list(sys.modules.items()):  # every binding of it
            if name.split(".")[0] == "dpimpute":
                for key, value in list(vars(module).items()):
                    if value is imputation.impute:
                        monkeypatch.setattr(module, key, impute)
        out = simulation._execute_run(SimConfig(n=400, runs=1, seed=42), 0)
        assert [r.strategy for r in out] == list(SimConfig().strategies)
        # complete-case covariates and responses, then the missing covariates
        assert calls == {"moments": 1, "compress": 3, "impute": 0}


class TestFunctionalMechanismNeverFails:
    @pytest.mark.parametrize("n, epsilon", [(100, 1.0), (300, 1.0), (1000, 0.1)])
    def test_no_dp_impute_failures(self, n, epsilon):
        # sizes and budgets at which the noisy quadratic is often indefinite
        cfg = SimConfig(n=n, epsilon=epsilon, runs=400, seed=5,
                        strategies=("dp_impute_then_query",))
        records, failures = run_sweep(cfg, workers=1)
        assert failures == []
        assert len(records) == cfg.runs
        assert all(math.isfinite(r.value) for r in records)


class TestCsvText:
    def test_runs_csv_layout(self):
        cfg = SimConfig(n=300, runs=2, seed=1)
        records, _ = run_sweep(cfg)
        text = runs_csv_text(records)
        lines = text.splitlines()
        assert lines[0] == "run,strategy,value,n_mis,epsilon_spent,sensitivity_used"
        assert len(lines) == 1 + 2 * 3
        assert text.endswith("\n") and "\r" not in text
        # shortest round-trip doubles survive re-parsing exactly
        value = float(lines[1].split(",")[2])
        assert repr(value) == lines[1].split(",")[2]

    def test_summary_csv_layout(self):
        cfg = SimConfig(n=300, runs=2, seed=1)
        records, failures = run_sweep(cfg)
        text = summary_csv_text(summarize_runs(cfg, records, failures))
        lines = text.splitlines()
        assert lines[0] == "strategy,count,failures,mean,bias,variance,min,q1,median,q3,max"
        assert len(lines) == 4
