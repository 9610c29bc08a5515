"""Sensitivity calculus for imputed data: inflation bound, group-privacy
factor, tightness construction, and an exhaustive small-universe oracle."""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core_data import Dataset, Universe
from .imputation import fit_imputation_model, impute


class EnumerationBudgetError(RuntimeError):
    """Raised when the exhaustive oracle would exceed its evaluation guard."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"enumeration would need {required} evaluations (budget {budget})"
        )
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class SensitivityReport:
    """Base and inflated sensitivity for a query on imputed data."""

    base_sensitivity: float
    inflated_sensitivity: float
    n_mis_used: int
    bound_tight: bool = False

    def __post_init__(self):
        expected = (self.n_mis_used + 1) * self.base_sensitivity
        if self.inflated_sensitivity != expected:
            raise ValueError(
                "inflated_sensitivity must equal (n_mis_used + 1) * base_sensitivity"
            )


def mean_global_sensitivity(u: Universe, n: int) -> float:
    """Replace-one sensitivity (b-a)/n of the mean of the response."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    lo, hi = u.response_bounds
    return (hi - lo) / n


def inflated_sensitivity(delta: float, num_missing: int) -> SensitivityReport:
    """Worst-case sensitivity of a query run on imputed data."""
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if num_missing < 0:
        raise ValueError(f"n_mis must be nonnegative, got {num_missing}")
    return SensitivityReport(
        base_sensitivity=delta,
        inflated_sensitivity=(num_missing + 1) * delta,
        n_mis_used=num_missing,
    )


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

# an imputer maps (values, mask) to a completed value vector, or raises
# ValueError where it is undefined (e.g. no observed values to fit on)
Imputer = Callable[[np.ndarray, np.ndarray], np.ndarray]
Query = Callable[[np.ndarray], float]

# a record state is (value, missing); missing records carry a single state
# because the sentinel under the mask is not data
_MISSING = (None, True)


@dataclass(frozen=True)
class OracleInstance:
    values: tuple
    mask: tuple[bool, ...]

    @property
    def n_mis(self) -> int:
        return sum(self.mask)


@dataclass(frozen=True)
class BoundViolation:
    dataset: OracleInstance
    neighbor: OracleInstance
    gap: float
    bound: float


@dataclass(frozen=True)
class BruteForceResult:
    max_gap: float
    witness: tuple[OracleInstance, OracleInstance]
    violations: tuple[BoundViolation, ...]
    base_sensitivity: float
    n_evaluations: int

    def witness_csv(self) -> str:
        out = io.StringIO()
        out.write("record,value_d,missing_d,value_dprime,missing_dprime\n")
        d1, d2 = self.witness
        for i, ((v1, m1), (v2, m2)) in enumerate(
            zip(zip(d1.values, d1.mask), zip(d2.values, d2.mask))
        ):
            out.write(
                f"{i},{'' if m1 else repr(float(v1))},{int(m1)},"
                f"{'' if m2 else repr(float(v2))},{int(m2)}\n"
            )
        return out.getvalue()


def mean_of_observed_imputer(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Fill every missing entry with the mean of the observed entries."""
    if mask.all():
        raise ValueError("undefined: no observed values")
    out = np.array(values, dtype=np.float64)
    out[mask] = values[~mask].mean()
    return out


def mean_query(values: np.ndarray) -> float:
    return float(values.mean())


def brute_force_imputed_sensitivity(
    grid: Sequence[float],
    n: int,
    imputer: Imputer,
    query: Query,
    allow_missingness: bool = True,
    max_evaluations: int = 10_000_000,
) -> BruteForceResult:
    """Enumerate every dataset over the grid and every single-record neighbor.

    Returns the maximum imputed-query gap with a lexicographically first
    witness pair, plus every instance violating the (n_mis+1)*Delta bound
    (empty when the inflation bound holds, which it must for conforming
    imputers).  The grid endpoints are taken as the universe bounds.
    """
    grid = sorted(float(g) for g in grid)
    if len(grid) < 2:
        raise ValueError("grid needs at least two values")
    states: list[tuple] = [(g, False) for g in grid]
    if allow_missingness:
        states.append(_MISSING)
    s = len(states)
    required = s**n * (1 + n * (s - 1))
    if required > max_evaluations:
        raise EnumerationBudgetError(required, max_evaluations)

    delta = (grid[-1] - grid[0]) / n

    def evaluate(combo) -> float | None:
        vals = np.array([0.0 if v is None else v for v, _ in combo])
        mask = np.array([m for _, m in combo])
        try:
            completed = imputer(vals, mask)
        except ValueError:
            return None
        return query(completed)

    q_cache: dict[tuple, float | None] = {}
    for combo in itertools.product(states, repeat=n):
        q_cache[combo] = evaluate(combo)

    def to_instance(combo) -> OracleInstance:
        return OracleInstance(
            values=tuple(None if m else v for v, m in combo),
            mask=tuple(m for _, m in combo),
        )

    max_gap = -1.0
    witness = None
    violations: list[BoundViolation] = []
    n_eval = len(q_cache)
    for combo in itertools.product(states, repeat=n):
        qd = q_cache[combo]
        if qd is None:
            continue
        nm = sum(m for _, m in combo)
        bound = (nm + 1) * delta
        for i in range(n):
            for st in states:
                if st == combo[i]:
                    continue
                neighbor = combo[:i] + (st,) + combo[i + 1 :]
                qn = q_cache[neighbor]
                if qn is None:
                    continue
                gap = abs(qd - qn)
                n_eval += 1
                if gap > max_gap:
                    max_gap = gap
                    witness = (to_instance(combo), to_instance(neighbor))
                if gap > bound + 1e-12:
                    violations.append(
                        BoundViolation(
                            to_instance(combo), to_instance(neighbor), gap, bound
                        )
                    )
    if witness is None:
        raise ValueError("imputer was undefined on every enumerated dataset")
    return BruteForceResult(
        max_gap=max_gap,
        witness=witness,
        violations=tuple(violations),
        base_sensitivity=delta,
        n_evaluations=n_eval,
    )


# --- tightness witness: regression extrapolation with clipping ---------------


@dataclass(frozen=True)
class TightnessWitness:
    dataset: Dataset
    neighbor: Dataset
    gap: float
    report: SensitivityReport


def extrapolation_tightness_witness(a: float, b: float, n: int) -> TightnessWitness:
    """Neighbor pair on which one flipped response drives all imputed values
    across the full range, achieving gap = (n-1)(b-a)/n exactly.

    Each side is imputed as impute-then-query does it: an OLS fit of
    y = β₀ + β₁x on the complete cases, then clipped prediction.  The two
    complete cases sit at covariates 0 and 1 with responses (a, a) versus
    (a, b); the n-2 missing records sit at covariate 4, where the second
    fitted line extrapolates past b and is clipped.
    """
    if n < 3:
        raise ValueError(f"construction needs n >= 3, got {n}")
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    universe = Universe((a, b))
    x = np.full((n, 1), 4.0)
    x[:2, 0] = (0.0, 1.0)
    mask = np.ones(n, dtype=bool)
    mask[:2] = False
    y1 = np.full(n, a)
    y2 = np.array(y1)
    y2[1] = b
    d1 = Dataset(x, y1, mask, universe)
    d2 = Dataset(x, y2, mask, universe)
    means = [
        float(impute(d, fit_imputation_model(d, None)).response.mean())
        for d in (d1, d2)
    ]
    gap = abs(means[0] - means[1])
    delta = (b - a) / n
    report = SensitivityReport(
        base_sensitivity=delta,
        inflated_sensitivity=(n - 1) * delta,
        n_mis_used=n - 2,
        bound_tight=math.isclose(gap, tightness_gap(a, b, n), rel_tol=1e-12),
    )
    return TightnessWitness(dataset=d1, neighbor=d2, gap=gap, report=report)
