"""Test oracles for the imputation-scheme contract the (n_mis + 1)Δ bound
rests on: record-wise distance between datasets and a check of an imputer
on a neighbour pair.  No release path uses them, so they live with the
tests rather than in the package."""

from __future__ import annotations

from typing import Callable

import numpy as np

from dpimpute import Dataset, n_mis


class IncomparableDatasetsError(ValueError):
    """Raised when two datasets cannot be compared record-by-record."""


def hamming_distance(d1: Dataset, d2: Dataset) -> int:
    """Number of records in which the two datasets differ.

    A record differs if its covariate row, mask bit, or (when observed on
    both sides) response value differs.  Sentinel content under matching
    masked entries is ignored.
    """
    if d1.covariates.shape != d2.covariates.shape:
        raise IncomparableDatasetsError(
            f"shape mismatch: {d1.covariates.shape} vs {d2.covariates.shape}"
        )
    diff = (d1.covariates != d2.covariates).any(axis=1)
    diff |= d1.mask != d2.mask
    both_obs = ~d1.mask & ~d2.mask
    diff |= both_obs & (d1.response != d2.response)
    return int(diff.sum())


def check_imputer_contract(
    imputer: Callable[[Dataset], Dataset], d: Dataset, d_neighbor: Dataset
) -> list[str]:
    """Verify the imputation-scheme assumptions on a neighbor pair.

    Checks that the completed datasets stay inside the universe, that
    observed values are bit-identical, and that the completed pair differs in
    at most n_mis + 1 records.  An empty list means ok.
    """
    if hamming_distance(d, d_neighbor) != 1:
        raise ValueError("inputs must be neighbors (hamming distance 1)")
    violations: list[str] = []
    completed = []
    for tag, original in (("D", d), ("D'", d_neighbor)):
        out = imputer(original)
        completed.append(out)
        if out.mask.any():
            violations.append(f"{tag}: output still has missing values")
        if out.universe != original.universe:  # a Dataset is in its own universe
            violations.append(f"{tag}: imputed dataset leaves the universe")
        obs = ~original.mask
        if not np.array_equal(
            out.response[obs], original.response[obs]
        ) or not np.array_equal(out.covariates, original.covariates):
            violations.append(f"{tag}: observed values were changed")
    dist = hamming_distance(completed[0], completed[1])
    bound = n_mis(d) + 1
    if dist > bound:
        violations.append(
            f"completed pair differs in {dist} records, bound is n_mis+1={bound}"
        )
    return violations
