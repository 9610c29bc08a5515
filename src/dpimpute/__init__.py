"""Differential-privacy-aware imputation toolkit and Monte Carlo harness."""

from .core_data import (
    BudgetExceededError,
    Dataset,
    IncomparableDatasetsError,
    PrivacyBudget,
    Universe,
    hamming_distance,
    n_mis,
    read_dataset_csv,
    write_dataset_csv,
)
from .imputation import (
    ImputationModel,
    check_imputer_contract,
    fit_imputation_model,
    impute,
)
from .mechanisms import (
    DegenerateDesignError,
    OlsFit,
    RandomSource,
    functional_mechanism_ols,
    functional_mechanism_sensitivity,
    laplace_mechanism,
    laplace_sample,
    laplace_samples,
    ols_fit,
)
from .sensitivity import (
    BruteForceResult,
    EnumerationBudgetError,
    SensitivityReport,
    brute_force_imputed_sensitivity,
    extrapolation_tightness_witness,
    group_privacy_factor,
    inflated_sensitivity,
    mean_global_sensitivity,
    tightness_gap,
)
from .simulation import (
    SimConfig,
    SimSummary,
    StrategySummary,
    generate_population,
    inject_missingness,
    monte_carlo,
    run_sweep,
    summarize,
    summarize_runs,
)
from .strategies import (
    ALL_STRATEGIES,
    AVAILABLE_CASE,
    DP_IMPUTE_THEN_QUERY,
    IMPUTE_THEN_QUERY,
    NoObservedResponsesError,
    QueryResult,
    available_case_mean,
    run_available_case,
    run_dp_impute_then_query,
    run_impute_then_query,
    run_strategy,
)

__version__ = "0.1.0"
