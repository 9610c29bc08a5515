"""Regression imputation: fit on complete cases, predict the missing
responses record-locally, clip into the universe."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_data import Dataset
from .mechanisms import (OlsFit, RandomSource, functional_mechanism_ols, linear_predictor,
                         ols_fit)


@dataclass(frozen=True)
class ImputationModel:
    """Fitted model used to complete a dataset.

    Stochastic imputation draws N(0, sigma2_hat) around the prediction and is
    only allowed for non-private fits: a private fit carries no DP residual
    variance estimate, and drawing from the non-private one would leak it.
    """

    fit: OlsFit
    stochastic: bool

    def __post_init__(self):
        if self.stochastic and self.fit.private:
            raise ValueError(
                "stochastic imputation requires a non-private fit "
                "(no DP residual-variance estimate is available)"
            )


def fit_imputation_model(
    d: Dataset,
    privacy_epsilon: float | None,
    rng: RandomSource | None = None,
    stochastic: bool = False,
) -> ImputationModel:
    """Fit the regression model y ≈ β₀ + xβ on complete cases only.

    ``privacy_epsilon=None`` gives a plain OLS fit; a positive value fits via
    the functional mechanism at that budget.  The caller is responsible for
    recording the spend in its budget ledger.  A plain fit on a singular
    design raises DegenerateDesignError; a private fit takes any number of
    complete cases, zero included.
    """
    if privacy_epsilon is None:
        fit = ols_fit(d)
    else:
        if rng is None:
            raise ValueError("a RandomSource is required for a private fit")
        fit = functional_mechanism_ols(d, privacy_epsilon, rng)
    return ImputationModel(fit=fit, stochastic=stochastic)


def _check_coefficients(d: Dataset, model: ImputationModel) -> None:
    if (k := len(model.fit.beta)) != d.d + 1:  # β₀ first
        raise ValueError(f"model has {k} coefficients, dataset needs {d.d + 1}")


def imputed_mean(d: Dataset, model: ImputationModel) -> float:
    """``impute(d, model).response.mean()``, predicting only the missing rows."""
    _check_coefficients(d, model)
    if model.stochastic:
        raise ValueError("imputed_mean needs a deterministic model")
    return filled_mean(d, model.fit.beta, d.universe.response_bounds)


def filled_mean(run, beta: np.ndarray, response_bounds) -> float:
    """The response mean of ``run`` (a Dataset, or what a strategy reads of
    one) once each missing response is its prediction under ``beta``, clipped."""
    fill = linear_predictor(beta, run.missing_covariates)
    np.clip(fill, *response_bounds, out=fill)
    return float((run.complete_cases[1][0] + fill.sum()) / run.n)


def impute(
    d: Dataset, model: ImputationModel, rng: RandomSource | None = None
) -> Dataset:
    """Complete the dataset: observed values are untouched, each missing
    response is predicted from its own covariate row and clipped into [a, b].

    A stochastic fill adds N(0, sigma2_hat) noise: record i gets the i-th of
    n normals drawn from ``rng``, so its fill does not depend on which other
    records are missing or on processing order.
    """
    _check_coefficients(d, model)
    if not d.mask.any():
        return d
    fill = model.fit.predict(d.covariates)
    if model.stochastic:
        if rng is None:
            raise ValueError("a RandomSource is required for stochastic imputation")
        sd = float(np.sqrt(model.fit.sigma2_hat))
        fill += rng.normal(0.0, sd, size=d.n)
    lo, hi = d.universe.response_bounds
    np.clip(fill, lo, hi, out=fill)
    np.copyto(fill, d.response, where=~d.mask)
    fill.setflags(write=False)  # so Dataset takes it without a copy
    return Dataset(
        d.covariates, fill, np.zeros(d.n, dtype=bool), d.universe
    )

