"""Dataset, universe and privacy-budget data model shared by all modules."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np


class BudgetExceededError(RuntimeError):
    """Raised when a ledger append would overdraw the privacy budget."""


# covariate domain of every Dataset, so of the CSV format and the functional mechanism
COVARIATE_BOUNDS = (0.0, 1.0)


@dataclass(frozen=True)
class Universe:
    """The response interval [a, b], the data domain of every sensitivity bound."""

    response_bounds: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.response_bounds
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"universe bounds must be finite, got [{lo}, {hi}]")
        if not lo < hi:
            raise ValueError(f"universe bounds must satisfy a < b, got [{lo}, {hi}]")

    @classmethod
    def unit(cls) -> "Universe":
        """The [0, 1] response universe."""
        return cls((0.0, 1.0))


def _outside_universe(columns, lo: float, hi: float) -> ValueError:
    """The refusal listing the entries of the (name, values) columns outside [lo, hi]."""
    bad = [
        f"row {i} {name}: value {float(values[i])!r} outside [{lo}, {hi}]"
        for name, values in columns
        for i in np.flatnonzero(~((values >= lo) & (values <= hi)))
    ]
    shown = bad[:10]
    if len(bad) > len(shown):
        shown.append(f"... and {len(bad) - len(shown)} more")
    return ValueError(f"{len(bad)} value(s) outside the universe: " + "; ".join(shown))


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


def _moments(x: np.ndarray, y: np.ndarray):
    """Least-squares moments (Z'Z, Z'y, y'y) of the design Z = [1, x], the
    n x d matrix x with a leading column of ones.  Z is never formed: x'x
    and x'y are bordered with n, Σx and Σy.  The arrays are read-only."""
    n, d = x.shape
    gram = np.empty((d + 1, d + 1))
    gram[0, 0] = n
    gram[0, 1:] = gram[1:, 0] = [c.sum() for c in x.T]
    gram[1:, 1:] = x.T @ x
    zty = np.concatenate(([y.sum()], x.T @ y))
    for a in (gram, zty):
        a.setflags(write=False)
    return gram, zty, float(y @ y)


@dataclass(frozen=True, eq=False)
class Dataset:
    """n records of d covariates plus one partially observed response.

    The mask is authoritative: entries with ``mask=True`` are missing and the
    stored response value there is an unread sentinel (NaN).  Every covariate
    must lie in COVARIATE_BOUNDS, and every observed response in the universe
    [a, b].  A read-only input of the right dtype that owns its memory
    (another Dataset's) is shared; any other is copied and frozen.  A masked
    response is always copied once, to write the sentinel.  Equality and
    hashing are by identity.
    """

    covariates: np.ndarray
    response: np.ndarray
    mask: np.ndarray
    universe: Universe

    def __post_init__(self):
        x = _frozen(self.covariates, np.float64)
        m = _frozen(self.mask, bool)
        y = self.response
        if x.ndim != 2:
            raise ValueError("covariates must be an n x d matrix")
        n = x.shape[0]
        if np.shape(y) != (n,) or m.shape != (n,):
            raise ValueError("response/mask length must match the number of records")
        lo, hi = COVARIATE_BOUNDS  # checked first, so only these are listed
        if x.size and not (lo <= x.min() and x.max() <= hi):  # NaN fails too
            columns = [(f"x{j + 1}", c) for j, c in enumerate(x.T)]
            raise _outside_universe(columns, lo, hi)
        if m.any():
            y = np.where(m, np.nan, y)  # sentinel; never read as data
            y.setflags(write=False)
        y = _frozen(y, np.float64)
        # only the sentinels are non-finite iff the counts match; fmin/fmax skip NaN
        lo, hi = self.universe.response_bounds
        n_obs = n - np.count_nonzero(m)
        finite = np.count_nonzero(np.isfinite(y)) == n_obs
        if n_obs and not (finite and lo <= np.fmin.reduce(y) and np.fmax.reduce(y) <= hi):
            raise _outside_universe([("y", np.where(m, lo, y))], lo, hi)
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "response", y)
        object.__setattr__(self, "mask", m)

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def d(self) -> int:
        return self.covariates.shape[1]

    @cached_property
    def complete_cases(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(Z'Z, Z'y, y'y) of the records with an observed response (see
        ``_moments``), built on first read; no row is kept."""
        obs = ~self.mask
        x, y = (np.compress(obs, a, axis=0) for a in (self.covariates, self.response))
        return _moments(x, y)

    @cached_property
    def missing_covariates(self) -> np.ndarray:
        """The covariate rows of the records with a missing response, read-only."""
        x = np.compress(self.mask, self.covariates, axis=0)
        x.setflags(write=False)
        return x


def n_mis(d: Dataset) -> int:
    """Number of records with a missing response."""
    return int(np.count_nonzero(d.mask))


class PrivacyBudget:
    """Total ε split into an imputation share and an analysis share.

    The epsilons are fixed at construction; the only mutable state is the
    append-only consumption ledger.
    """

    def __init__(self, epsilon_total: float, imputation_share: float = 0.5):
        if not (is_finite_real(epsilon_total) and epsilon_total > 0):
            raise ValueError(
                f"epsilon must be a finite positive number, got {epsilon_total!r}")
        if not (is_finite_real(imputation_share) and 0 <= imputation_share < 1):
            raise ValueError(
                f"imputation share must lie in [0, 1), got {imputation_share!r}")
        self._total = float(epsilon_total)
        self._eps1 = imputation_share * self._total
        self._eps2 = self._total - self._eps1  # eps1 + eps2 == total within an ulp
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
        if not (is_finite_real(epsilon) and epsilon >= 0):
            raise ValueError(f"cannot spend {epsilon!r}: need a finite number >= 0")
        if self.total_spent + epsilon > self._total * (1 + 1e-12):  # for eps1 + eps2
            raise BudgetExceededError(
                f"spending {epsilon} as {label!r} would exceed budget "
                f"{self._total} (already spent {self.total_spent})"
            )
        self._ledger.append((label, float(epsilon)))


# --- CSV serialization: header x1,...,xd,y,missing; masked rows have empty y ---


def write_dataset_csv(d: Dataset, path, records=None) -> None:
    """Write ``d`` with every value in ``repr``.  Given ``records``, the
    record lines read for the dataset ``d`` completes, copy each observed
    line, and write a masked one as its x text, ``repr`` of the fill and ",0"."""
    header = [f"x{j + 1}" for j in range(d.d)] + ["y", "missing"]
    if records is None:
        rows = zip(d.covariates.tolist(), d.response.tolist(), d.mask.tolist())
        lines = (",".join([*map(repr, x), "" if m else repr(y), "1" if m else "0"])
                 for x, y, m in rows)
    elif len(records) != d.n or d.mask.any():
        raise ValueError("records must be the n lines of a dataset d completes")
    else:  # a masked record keeps its x text, up to the comma before y
        lines = (r if r[-1] == "0" else r[: r.rfind(",", 0, -2) + 1] + repr(y) + ",0"
                 for r, y in zip(records, d.response.tolist()))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line + "\n" for line in lines)


def _raise_first_bad_line(lines, d: int) -> None:
    """Rescan the records of ``lines`` in file order and raise the error of
    the first bad one; N in ``line N`` counts blank lines too."""
    for num, line in enumerate(lines[1:], 2):
        if not line:
            continue
        row = line.split(",")
        if len(row) != d + 2:
            raise ValueError(f"line {num}: expected {d + 2} fields, got {len(row)}")
        if row[d + 1] not in ("0", "1"):
            raise ValueError(f"line {num}: missing must be 0 or 1")
        try:
            list(map(float, row[: d + (row[d + 1] == "0")]))  # a masked y is unread
        except ValueError as exc:
            raise ValueError(f"line {num}: {exc}") from None


def read_dataset_csv(path, response_bounds: tuple[float, float]) -> Dataset:
    """Read a dataset whose header fixes d; the Dataset refuses a covariate
    outside COVARIATE_BOUNDS or an observed response outside ``response_bounds``."""
    return _read_records(path, response_bounds)[0]


def _read_records(path, response_bounds) -> tuple[Dataset, list[str]]:
    """``read_dataset_csv``, plus the non-blank record lines it parsed."""
    with open(path, encoding="utf-8") as fh:  # \n, \r\n and \r each end a line
        lines = fh.read().split("\n")
    # None for an empty file, [] for a blank first line
    header = lines[0].split(",") if lines[0] else [] if len(lines) > 1 else None
    d = len(header or ()) - 2
    expected = [f"x{j + 1}" for j in range(d)] + ["y", "missing"]
    if header != expected:
        raise ValueError(f"bad CSV header {header!r}, expected {expected!r}")
    universe = Universe(tuple(response_bounds))
    body = list(filter(None, lines[1:]))  # blank lines are skipped
    if not body:
        raise ValueError("no records after the header")
    n, k = len(body), d + 2
    fields = ",".join(body).split(",")
    flags = fields[k - 1 :: k]
    try:
        if {ln.count(",") for ln in body} != {k - 1} or not {*flags} <= {"0", "1"}:
            raise ValueError("malformed record")
        m = np.fromiter(map("1".__eq__, flags), bool, n)
        x = np.empty((n, d))
        for j in range(d):
            x[:, j] = np.fromiter(map(float, fields[j::k]), np.float64, n)
        observed = compress(fields[d::k], map("0".__eq__, flags))
        y = np.full(n, np.nan)
        y[~m] = np.fromiter(map(float, observed), np.float64, n - np.count_nonzero(m))
    except ValueError:
        _raise_first_bad_line(lines, d)
        raise  # unreachable: the rescan refuses every record the bulk parse does
    for a in (x, y, m):  # owned and read-only, so Dataset shares them
        a.setflags(write=False)
    return Dataset(x, y, m, universe), body
