"""The three end-to-end pipelines: available-case, impute-then-query, and
DP-impute-then-query, each releasing the mean of the response under ε-DP
with explicit accounting.  Each is written once, as ``release_<name>`` of a
block of runs' stacked statistics; ``run_<name>`` releases one Dataset."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core_data import Dataset, PrivacyBudget, Universe
from .imputation import filled_mean
from .mechanisms import (
    RandomSource,
    each_run,
    functional_mechanism_coefficients,
    laplace_mechanisms,
    ols_coefficients,
    one_run,
)
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


# all the strategies read of one run's Dataset, which has these attributes too
RunStatistic = namedtuple("RunStatistic", "n n_mis complete_cases missing_covariates")

# one strategy's release of a block: run i's values[i], sensitivity[i] or errors[i]
Release = namedtuple("Release", "values sensitivity epsilon errors")


class Statistics:
    """The statistics of R runs with one n and universe, stacked by run:
    ``gram`` (R, p, p) and ``zty`` (R, p) hold each run's Z'Z and Z'y."""

    def __init__(self, runs: list[RunStatistic | Dataset], universe: Universe):
        (self.n,) = {r.n for r in runs}
        self.runs, self.universe = runs, universe
        self.n_mis = [r.n_mis for r in runs]
        self.gram = np.stack([r.complete_cases[0] for r in runs])
        self.zty = np.stack([r.complete_cases[1] for r in runs])


def _available_case_means(gram: np.ndarray, zty: np.ndarray, errors) -> np.ndarray:
    n_obs = gram[:, 0, 0]
    errors.update((int(i), NoObservedResponsesError("no observed responses"))
                  for i in np.flatnonzero(n_obs == 0))
    return np.divide(zty[:, 0], n_obs, out=np.full(len(n_obs), np.nan), where=n_obs != 0)


def available_case_mean(d: Dataset) -> float:
    """Noise-free mean Σy / n_obs of the observed responses (the biased estimand)."""
    gram, zty, _ = d.complete_cases
    return float(one_run(_available_case_means, gram[None], zty[None]))


def _filled_means(s: Statistics, beta, errors) -> list[float]:
    bounds = s.universe.response_bounds
    return each_run(lambda r: filled_mean(s.runs[r], beta[r], bounds), range(len(s.runs)),
                    errors)


def _release(values, sensitivity, epsilon: float, budget: PrivacyBudget, rngs, errors):
    """Spend ε on the analysis; release value + Laplace(sensitivity/ε) per live run."""
    if len(errors) < len(rngs):
        budget.spend("analysis", epsilon)
    queries = [r.split(_QUERY_STREAM) for r in rngs]
    return Release(laplace_mechanisms(values, sensitivity, epsilon, queries, errors),
                   sensitivity, epsilon, errors)


def release_available_case(s: Statistics, budget: PrivacyBudget, rngs) -> Release:
    """Drop incomplete records, release the mean of the rest at the full ε.

    Privacy caveat (documented, not a claimed guarantee): the sensitivity
    uses the realized n_obs, which is treated as public.
    """
    errors: dict[int, Exception] = {}
    values = _available_case_means(s.gram, s.zty, errors)
    sens = each_run(lambda k: mean_global_sensitivity(s.universe, s.n - k), s.n_mis,
                    errors)
    return _release(values, sens, budget.epsilon_total, budget, rngs, errors)


def release_impute_then_query(s: Statistics, budget: PrivacyBudget, rngs) -> Release:
    """Non-private imputation, then a DP mean at the full ε with the inflated
    sensitivity (n_mis+1)(b-a)/n from the worst-case bound.

    As with the available-case pipeline, the realized n_mis enters the noise
    scale; a strictly worst-case release would use the uniform bound n*Delta.
    """
    errors: dict[int, Exception] = {}
    values = _filled_means(s, ols_coefficients(s.gram, s.zty, errors), errors)
    sens = each_run(lambda k: inflated_sensitivity(
        mean_global_sensitivity(s.universe, s.n), k), s.n_mis, errors)
    return _release(values, sens, budget.epsilon_total, budget, rngs, errors)


def release_dp_impute_then_query(s: Statistics, budget: PrivacyBudget, rngs) -> Release:
    """DP model fit at ε₁, deterministic imputation, DP mean at ε₂ with the
    base sensitivity (b-a)/n; total spend ε₁+ε₂ by sequential composition.

    ε₁ is spent before the fit, so a fit refused after the spend stays
    ledgered; that refusal is a noise scale Δ_FM/ε₁ too large to draw, since
    the Dataset already refused covariates outside [0, 1] at construction.
    It depends on ε₁ and the covariate count alone, so it refuses every run alike.
    """
    eps1 = budget.epsilon_imputation
    budget.spend("imputation", eps1)
    errors: dict[int, Exception] = {}
    fits = [r.split(_FIT_STREAM) for r in rngs]
    try:
        beta = functional_mechanism_coefficients(
            s.gram, s.zty, s.universe.response_bounds, eps1, fits)
    except ValueError as exc:
        beta, errors = None, dict.fromkeys(range(len(rngs)), exc)
    values = _filled_means(s, beta, errors)
    sens = each_run(lambda k: mean_global_sensitivity(s.universe, s.n), s.n_mis, errors)
    return _release(values, sens, budget.epsilon_analysis, budget, rngs, errors)


def _run_one(name: str, d: Dataset, budget: PrivacyBudget, rng: RandomSource):
    """The release of strategy ``name`` of the one run ``d``; its failure is raised."""
    out = globals()[f"release_{name}"](Statistics([d], d.universe), budget, [rng])
    if out.errors:
        raise out.errors[0]
    sens = out.sensitivity[0]
    return QueryResult(float(out.values[0]), sens, sens / out.epsilon, budget.total_spent,
                       name, d.n_mis, budget.ledger)


def run_available_case(
    d: Dataset, budget: PrivacyBudget, rng: RandomSource
) -> QueryResult:
    """:func:`release_available_case` of the dataset ``d``."""
    return _run_one(AVAILABLE_CASE, d, budget, rng)


def run_impute_then_query(
    d: Dataset, budget: PrivacyBudget, rng: RandomSource
) -> QueryResult:
    """:func:`release_impute_then_query` of the dataset ``d``."""
    return _run_one(IMPUTE_THEN_QUERY, d, budget, rng)


def run_dp_impute_then_query(
    d: Dataset, budget: PrivacyBudget, rng: RandomSource
) -> QueryResult:
    """:func:`release_dp_impute_then_query` of the dataset ``d``."""
    return _run_one(DP_IMPUTE_THEN_QUERY, d, budget, rng)


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
