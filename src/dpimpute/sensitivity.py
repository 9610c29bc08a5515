"""Sensitivity calculus for imputed data: inflation bound, group-privacy
factor, tightness construction, and an exhaustive small-universe oracle."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core_data import Dataset, Universe, n_mis
from .imputation import fit_imputation_model, imputed_mean


class EnumerationBudgetError(RuntimeError):
    """Raised when the exhaustive oracle would exceed its evaluation guard."""


def mean_global_sensitivity(u: Universe, n: int) -> float:
    """Replace-one sensitivity (b-a)/n of the mean of the response."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    lo, hi = u.response_bounds
    return (hi - lo) / n


def inflated_sensitivity(delta: float, num_missing: int) -> float:
    """Worst-case sensitivity (n_mis+1)*delta of a query run on imputed data."""
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if num_missing < 0:
        raise ValueError(f"n_mis must be nonnegative, got {num_missing}")
    return (num_missing + 1) * delta


def group_privacy_factor(epsilon: float, k: int) -> float:
    """Multiplicative privacy-loss bound e^{k*epsilon} for k changed records."""
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return math.exp(k * epsilon)


def tightness_gap(a: float, b: float, n: int) -> float:
    """Query gap (n-1)(b-a)/n achieved by the extrapolation construction."""
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    return (n - 1) * (b - a) / n


# --- exhaustive small-universe oracle ----------------------------------------


@dataclass(frozen=True)
class BoundViolation:
    dataset: Dataset
    neighbor: Dataset
    gap: float
    bound: float


@dataclass(frozen=True)
class BruteForceResult:
    max_gap: float
    witness: tuple[Dataset, Dataset]
    violations: tuple[BoundViolation, ...]
    base_sensitivity: float


def _spread_covariates(n: int) -> np.ndarray:
    """The n x 1 covariates x_i = i/(n-1), spread over COVARIATE_BOUNDS."""
    x = np.arange(n, dtype=np.float64).reshape(n, 1) / max(n - 1, 1)
    x.setflags(write=False)  # owned and read-only, so every Dataset shares it
    return x


def _imputed_mean(d: Dataset) -> float:
    """The mean of d completed as impute-then-query does it: a plain OLS fit
    on the complete cases, then clipped prediction."""
    return imputed_mean(d, fit_imputation_model(d, None))


def brute_force_imputed_sensitivity(
    grid: Sequence[float],
    n: int,
    allow_missingness: bool = True,
    max_evaluations: int = 10_000_000,
) -> BruteForceResult:
    """Enumerate every dataset over the grid and every single-record neighbor.

    The n records sit at the fixed covariates x_i = i/(n-1); each record's
    response is a grid value or, with ``allow_missingness``, missing, and the
    grid endpoints are the universe.  Each dataset is scored by the mean of
    its completion under the shipped imputer; one on which the fit or the
    imputation raises ValueError (a singular design, e.g. fewer than two
    complete cases) is undefined and skipped.  Returns the maximum
    imputed-mean gap with a lexicographically first witness pair, plus every
    pair violating the (n_mis+1)*Delta bound (empty when the inflation bound
    holds, which it must).
    """
    grid = sorted(float(g) for g in grid)
    if len(grid) < 2:
        raise ValueError("grid needs at least two values")
    states = np.array(grid + ([math.nan] if allow_missingness else []))  # NaN: missing
    s = len(states)
    required = s**n * (1 + n * (s - 1))
    if required > max_evaluations:
        raise EnumerationBudgetError(
            f"enumeration would need {required} evaluations (budget {max_evaluations})"
        )

    universe = Universe((grid[0], grid[-1]))
    x = _spread_covariates(n)
    delta = mean_global_sensitivity(universe, n)

    def evaluate(combo) -> tuple[Dataset, float | None]:
        y = states[list(combo)]
        d = Dataset(x, y, np.isnan(y), universe)
        try:
            return d, _imputed_mean(d)
        except ValueError:
            return d, None

    scored = {c: evaluate(c) for c in itertools.product(range(s), repeat=n)}
    max_gap = -1.0
    witness = None
    violations: list[BoundViolation] = []
    for combo, (d, qd) in scored.items():
        if qd is None:
            continue
        bound = inflated_sensitivity(delta, n_mis(d))
        for i in range(n):
            for st in range(s):
                if st == combo[i]:
                    continue
                neighbor, qn = scored[combo[:i] + (st,) + combo[i + 1 :]]
                if qn is None:
                    continue
                gap = abs(qd - qn)
                if gap > max_gap:
                    max_gap = gap
                    witness = (d, neighbor)
                if gap > bound + 1e-12:
                    violations.append(BoundViolation(d, neighbor, gap, bound))
    if witness is None:
        raise ValueError("imputer was undefined on every enumerated neighbor pair")
    return BruteForceResult(
        max_gap=max_gap,
        witness=witness,
        violations=tuple(violations),
        base_sensitivity=delta,
    )


# --- tightness witness: regression extrapolation with clipping ---------------


@dataclass(frozen=True)
class TightnessWitness:
    dataset: Dataset
    neighbor: Dataset
    gap: float
    bound_tight: bool


def extrapolation_tightness_witness(a: float, b: float, n: int) -> TightnessWitness:
    """Neighbor pair on which one flipped response drives all imputed values
    across the full range, achieving gap = (n-1)(b-a)/n exactly.

    The records sit at the oracle's covariates x_i = i/(n-1), and each side
    is imputed by the shipped imputer.  Records 0 and 1 are the complete
    cases, with responses (a, a) versus (a, b).  The second fitted line
    rises by b - a per step of 1/(n-1), so it predicts above b at every
    missing record (x >= 2/(n-1)), and the n-2 fills are clipped to b.
    """
    if n < 3:
        raise ValueError(f"construction needs n >= 3, got {n}")
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    universe = Universe((a, b))
    x = _spread_covariates(n)
    mask = np.ones(n, dtype=bool)
    mask[:2] = False
    y1 = np.full(n, a)
    y2 = np.array(y1)
    y2[1] = b
    d1 = Dataset(x, y1, mask, universe)
    d2 = Dataset(x, y2, mask, universe)
    gap = abs(_imputed_mean(d1) - _imputed_mean(d2))
    tight = math.isclose(gap, tightness_gap(a, b, n), rel_tol=1e-12)
    return TightnessWitness(dataset=d1, neighbor=d2, gap=gap, bound_tight=tight)
