"""The three end-to-end pipelines: available-case, impute-then-query, and
DP-impute-then-query, each releasing the mean of the response under ε-DP
with explicit accounting."""

from __future__ import annotations

from dataclasses import dataclass

from .core_data import Dataset, PrivacyBudget, n_mis
from .imputation import fit_imputation_model, imputed_mean
from .mechanisms import RandomSource, laplace_mechanism
from .sensitivity import inflated_sensitivity, mean_global_sensitivity

AVAILABLE_CASE = "available_case"
IMPUTE_THEN_QUERY = "impute_then_query"
DP_IMPUTE_THEN_QUERY = "dp_impute_then_query"
ALL_STRATEGIES = (AVAILABLE_CASE, IMPUTE_THEN_QUERY, DP_IMPUTE_THEN_QUERY)

# rng sub-stream tags within one pipeline run
_FIT_STREAM = 0
_QUERY_STREAM = 1


class NoObservedResponsesError(ValueError):
    """Available-case analysis needs at least one observed response."""


@dataclass(frozen=True)
class QueryResult:
    value: float
    sensitivity_used: float
    noise_scale: float
    epsilon_spent_total: float
    strategy: str
    n_mis_at_query: int
    ledger: tuple[tuple[str, float], ...]


def available_case_mean(d: Dataset) -> float:
    """Noise-free mean Σy / n_obs of the observed responses (the biased estimand)."""
    gram, zty, _ = d.complete_cases
    if gram[0, 0] == 0:
        raise NoObservedResponsesError("no observed responses")
    return float(zty[0] / gram[0, 0])


def _release(
    strategy: str,
    d: Dataset,
    value: float,
    sensitivity: float,
    epsilon: float,
    budget: PrivacyBudget,
    rng: RandomSource,
) -> QueryResult:
    """Spend ε on the analysis, then release value + Laplace(sensitivity/ε)."""
    budget.spend("analysis", epsilon)
    released = laplace_mechanism(value, sensitivity, epsilon, rng.split(_QUERY_STREAM))
    return QueryResult(
        value=released,
        sensitivity_used=sensitivity,
        noise_scale=sensitivity / epsilon,
        epsilon_spent_total=budget.total_spent,
        strategy=strategy,
        n_mis_at_query=n_mis(d),
        ledger=budget.ledger,
    )


def run_available_case(
    d: Dataset, budget: PrivacyBudget, rng: RandomSource
) -> QueryResult:
    """Drop incomplete records, release the mean of the rest at the full ε.

    Privacy caveat (documented, not a claimed guarantee): the sensitivity
    uses the realized n_obs, which is treated as public.
    """
    value = available_case_mean(d)
    sens = mean_global_sensitivity(d.universe, d.n - n_mis(d))
    return _release(AVAILABLE_CASE, d, value, sens, budget.epsilon_total, budget, rng)


def run_impute_then_query(
    d: Dataset, budget: PrivacyBudget, rng: RandomSource
) -> QueryResult:
    """Non-private imputation, then a DP mean at the full ε with the inflated
    sensitivity (n_mis+1)(b-a)/n from the worst-case bound.

    As with the available-case pipeline, the realized n_mis enters the noise
    scale; a strictly worst-case release would use the uniform bound n*Delta.
    """
    model = fit_imputation_model(d, privacy_epsilon=None)
    value = imputed_mean(d, model)
    delta = mean_global_sensitivity(d.universe, d.n)
    sens = inflated_sensitivity(delta, n_mis(d))
    return _release(IMPUTE_THEN_QUERY, d, value, sens, budget.epsilon_total, budget, rng)


def run_dp_impute_then_query(
    d: Dataset, budget: PrivacyBudget, rng: RandomSource
) -> QueryResult:
    """DP model fit at ε₁, deterministic imputation, DP mean at ε₂ with the
    base sensitivity (b-a)/n; total spend ε₁+ε₂ by sequential composition.

    ε₁ is spent before the fit, so a fit refused after the spend stays
    ledgered; that refusal is a noise scale Δ_FM/ε₁ too large to draw, since
    the Dataset already refused covariates outside [0, 1] at construction.
    """
    eps1 = budget.epsilon_imputation
    budget.spend("imputation", eps1)
    model = fit_imputation_model(
        d, privacy_epsilon=eps1, rng=rng.split(_FIT_STREAM)
    )
    value = imputed_mean(d, model)
    sens = mean_global_sensitivity(d.universe, d.n)
    return _release(
        DP_IMPUTE_THEN_QUERY, d, value, sens, budget.epsilon_analysis, budget, rng
    )


def run_strategy(
    name: str, d: Dataset, budget: PrivacyBudget, rng: RandomSource
) -> QueryResult:
    """Run the strategy called ``name`` (one of ALL_STRATEGIES).

    ``run_<name>`` is looked up in this module at call time, so a wrapper
    installed on the module attribute (tracing, a test double) is honoured.
    """
    if name not in ALL_STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}")
    return globals()[f"run_{name}"](d, budget, rng)
