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
    degenerate_design,
    functional_mechanism_coefficients,
    laplace_samples,
    noise_scale,
    ols_solve,
    singular_gram,
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

# a strategy's release of a block: run i's values[i], sensitivity[i], scale[i] or errors[i]
Release = namedtuple("Release", "values sensitivity scale errors")


class Statistics:
    """The statistics of R runs with one n and universe, stacked by run:
    ``gram`` (R, p, p) and ``zty`` (R, p) hold each run's Z'Z and Z'y."""

    def __init__(self, runs: list[RunStatistic | Dataset], universe: Universe):
        (self.n,) = {r.n for r in runs}
        self.runs, self.universe = runs, universe
        self.n_mis = [r.n_mis for r in runs]
        self.gram = np.stack([r.complete_cases[0] for r in runs])
        self.zty = np.stack([r.complete_cases[1] for r in runs])


def available_case_mean(d: Dataset) -> float:
    """Noise-free mean Σy / n_obs of the observed responses (the biased estimand)
    of ``d``, a Dataset or what a strategy reads of one."""
    gram, zty, _ = d.complete_cases
    if not gram[0, 0]:
        raise NoObservedResponsesError("no observed responses")
    return float(zty[0] / gram[0, 0])


def _release(budget: PrivacyBudget, epsilon: float, rngs, value, sensitivity, errors):
    """Release value(r) + Laplace(sensitivity(r)/ε) for each run r not in ``errors``,
    drawn from its query stream; this loop alone decides which runs are refused.

    A ValueError from value(r), sensitivity(r) or the noise scale joins ``errors``
    for run r alone, before any draw.  ε is spent on the analysis if any run gets
    past its sensitivity, so a refused noise scale stays ledgered.
    """
    values = np.full(len(rngs), np.nan)
    sens, scales = [np.nan] * len(rngs), [np.nan] * len(rngs)
    spend = False
    for r in range(len(rngs)):
        try:
            if r not in errors:
                values[r], sens[r] = value(r), sensitivity(r)
                spend = True
                scales[r] = noise_scale(sens[r], epsilon)
        except ValueError as exc:
            errors[r] = exc
    if spend:
        budget.spend("analysis", epsilon)
    if live := [r for r in range(len(rngs)) if r not in errors]:
        values[live] += laplace_samples(np.array(scales)[live], None,
                                        [rngs[r].split(_QUERY_STREAM) for r in live])
    return Release(values, sens, scales, errors)


def release_available_case(s: Statistics, budget: PrivacyBudget, rngs) -> Release:
    """Drop incomplete records, release the mean of the rest at the full ε.

    Privacy caveat (documented, not a claimed guarantee): the sensitivity
    uses the realized n_obs, which is treated as public.
    """
    return _release(budget, budget.epsilon_total, rngs,
                    lambda r: available_case_mean(s.runs[r]),
                    lambda r: mean_global_sensitivity(s.universe, s.n - s.n_mis[r]), {})


def release_impute_then_query(s: Statistics, budget: PrivacyBudget, rngs) -> Release:
    """Non-private imputation, then a DP mean at the full ε with the inflated
    sensitivity (n_mis+1)(b-a)/n from the worst-case bound.

    As with the available-case pipeline, the realized n_mis enters the noise
    scale; a strictly worst-case release would use the uniform bound n*Delta.
    """
    singular = singular_gram(s.gram)
    beta = np.full(s.zty.shape, np.nan)
    beta[~singular] = ols_solve(s.gram[~singular], s.zty[~singular])
    return _release(budget, budget.epsilon_total, rngs,
                    lambda r: filled_mean(s.runs[r], beta[r], s.universe.response_bounds),
                    lambda r: inflated_sensitivity(
                        mean_global_sensitivity(s.universe, s.n), s.n_mis[r]),
                    {r: degenerate_design(g) for r, g in enumerate(s.gram) if singular[r]})


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
    return _release(budget, budget.epsilon_analysis, rngs,
                    lambda r: filled_mean(s.runs[r], beta[r], s.universe.response_bounds),
                    lambda r: mean_global_sensitivity(s.universe, s.n), errors)


def _run_one(name: str, d: Dataset, budget: PrivacyBudget, rng: RandomSource):
    """The release of strategy ``name`` of the one run ``d``; its failure is raised."""
    out = globals()[f"release_{name}"](Statistics([d], d.universe), budget, [rng])
    if out.errors:
        raise out.errors[0]
    return QueryResult(float(out.values[0]), out.sensitivity[0], out.scale[0],
                       budget.total_spent, name, d.n_mis, budget.ledger)


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
