"""Dataset, universe and privacy-budget data model shared by all modules."""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass

import numpy as np


class IncomparableDatasetsError(ValueError):
    """Raised when two datasets cannot be compared record-by-record."""


class BudgetExceededError(RuntimeError):
    """Raised when a ledger append would overdraw the privacy budget."""


@dataclass(frozen=True)
class Universe:
    """Closed per-column value bounds defining the data domain.

    ``response_bounds`` is the [a, b] interval for the partially observed
    response; ``covariate_bounds`` holds one interval per covariate column.
    """

    response_bounds: tuple[float, float]
    covariate_bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for lo, hi in (self.response_bounds, *self.covariate_bounds):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"universe bounds must be finite, got [{lo}, {hi}]")
            if not lo < hi:
                raise ValueError(f"universe bounds must satisfy a < b, got [{lo}, {hi}]")

    @property
    def dim(self) -> int:
        return len(self.covariate_bounds)

    @classmethod
    def unit(cls, d: int) -> "Universe":
        """The [0,1] response / [0,1]^d covariate universe."""
        return cls((0.0, 1.0), ((0.0, 1.0),) * d)


def is_finite_real(value) -> bool:
    """A finite int or float (numpy scalars included); bool does not count."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _frozen(a, dtype) -> np.ndarray:
    """Share a read-only ``dtype`` array that owns its memory; copy and
    freeze anything else, a read-only view of a writable buffer included."""
    owned = type(a) is np.ndarray and a.base is None
    if owned and a.dtype == dtype and not a.flags.writeable:
        return a
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """n records of d covariates plus one partially observed response.

    The mask is authoritative: entries with ``mask=True`` are missing and the
    stored response value there is an unread sentinel (NaN).  Every observed
    response must be finite.  A read-only input of the right dtype that owns
    its memory (another Dataset's) is shared; any other is copied and frozen.
    """

    covariates: np.ndarray
    response: np.ndarray
    mask: np.ndarray
    universe: Universe

    def __post_init__(self):
        x = _frozen(self.covariates, np.float64)
        m = _frozen(self.mask, bool)
        y = np.asarray(self.response, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("covariates must be an n x d matrix")
        n, d = x.shape
        if y.shape != (n,) or m.shape != (n,):
            raise ValueError("response/mask length must match the number of records")
        if d != self.universe.dim:
            raise ValueError(
                f"universe declares {self.universe.dim} covariates, data has {d}"
            )
        y = np.where(m, np.nan, y)  # sentinel; never read as data
        # only observed entries can be finite, so they all are iff the counts match
        if np.count_nonzero(np.isfinite(y)) != n - np.count_nonzero(m):
            raise ValueError("observed responses must be finite")
        y.setflags(write=False)
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "response", y)
        object.__setattr__(self, "mask", m)

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def d(self) -> int:
        return self.covariates.shape[1]

    @property
    def observed_response(self) -> np.ndarray:
        return np.compress(~self.mask, self.response)


def n_mis(d: Dataset) -> int:
    """Number of records with a missing response."""
    return int(d.mask.sum())


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


@dataclass(frozen=True)
class Violation:
    row: int
    column: str
    message: str


def validate(d: Dataset) -> list[Violation]:
    """Check every Dataset invariant; an empty list means ok.

    Values must lie in their universe interval; NaN never does.
    """
    out: list[Violation] = []
    for j, (lo, hi) in enumerate(d.universe.covariate_bounds):
        col = d.covariates[:, j]
        for i in np.nonzero(~((col >= lo) & (col <= hi)))[0]:
            message = f"value {float(col[i])!r} outside [{lo}, {hi}]"
            out.append(Violation(int(i), f"x{j + 1}", message))
    lo, hi = d.universe.response_bounds
    obs = ~d.mask
    bad = obs & ~((d.response >= lo) & (d.response <= hi))
    for i in np.nonzero(bad)[0]:
        message = f"value {float(d.response[i])!r} outside [{lo}, {hi}]"
        out.append(Violation(int(i), "y", message))
    return out


class PrivacyBudget:
    """Total ε split into an imputation share and an analysis share.

    The epsilons are fixed at construction; the only mutable state is the
    append-only consumption ledger.
    """

    def __init__(self, epsilon_total: float, imputation_share: float = 0.5):
        if not (is_finite_real(epsilon_total) and epsilon_total > 0):
            raise ValueError("epsilon_total must be a finite positive number")
        if not 0.0 <= imputation_share < 1.0:
            raise ValueError("imputation share must lie in [0, 1)")
        self._total = float(epsilon_total)
        self._eps1 = imputation_share * self._total
        self._eps2 = self._total - self._eps1  # eps1 + eps2 == total within 1e-12
        self._ledger: list[tuple[str, float]] = []

    @property
    def epsilon_total(self) -> float:
        return self._total

    @property
    def epsilon_imputation(self) -> float:
        return self._eps1

    @property
    def epsilon_analysis(self) -> float:
        return self._eps2

    @property
    def ledger(self) -> tuple[tuple[str, float], ...]:
        return tuple(self._ledger)

    @property
    def total_spent(self) -> float:
        return math.fsum(eps for _, eps in self._ledger)

    def spend(self, label: str, epsilon: float) -> None:
        if epsilon < 0:
            raise ValueError("cannot spend negative epsilon")
        if self.total_spent + epsilon > self._total + 1e-12:
            raise BudgetExceededError(
                f"spending {epsilon} as {label!r} would exceed budget "
                f"{self._total} (already spent {self.total_spent})"
            )
        self._ledger.append((label, float(epsilon)))


# --- CSV serialization: header x1,...,xd,y,missing; masked rows have empty y ---


def write_dataset_csv(d: Dataset, path) -> None:
    header = [f"x{j + 1}" for j in range(d.d)] + ["y", "missing"]
    rows = zip(d.covariates.tolist(), d.response.tolist(), d.mask.tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(
            ",".join([*map(repr, x), "" if m else repr(y), "1" if m else "0"]) + "\n"
            for x, y, m in rows
        )


def read_dataset_csv(path, universe: Universe) -> Dataset:
    with open(path, newline="", encoding="utf-8") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        d = universe.dim
        expected = [f"x{j + 1}" for j in range(d)] + ["y", "missing"]
        if header != expected:
            raise ValueError(f"bad CSV header {header!r}, expected {expected!r}")
        xs, ys, ms = [], [], []
        for row in r:
            if not row:
                continue
            if len(row) != d + 2:
                raise ValueError(
                    f"line {r.line_num}: expected {d + 2} fields, got {len(row)}"
                )
            if row[d + 1] not in ("0", "1"):
                raise ValueError(f"line {r.line_num}: missing must be 0 or 1")
            xs.append([float(v) for v in row[:d]])
            missing = row[d + 1] == "1"
            ms.append(missing)
            ys.append(np.nan if missing else float(row[d]))
    return Dataset(np.array(xs), np.array(ys), np.array(ms), universe)
