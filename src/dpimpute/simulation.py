"""Monte Carlo harness: uniform covariates, clipped linear response, MAR
missingness on the first covariate, and the three-strategy comparison."""

from __future__ import annotations

import dataclasses
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core_data import Dataset, PrivacyBudget, Universe, is_finite_real
from .mechanisms import RandomSource, seed_together
from . import strategies as strat

TRUE_MEAN = 0.5  # clipping and the estimand are symmetric about 0.5

# spawn-key tags for per-run sub-streams
_DATA = 0
_MASK = 1
_STRATEGY_BASE = 2
_STRATEGY_TAG = {s: i for i, s in enumerate(strat.ALL_STRATEGIES)}


@dataclass(frozen=True)
class SimConfig:
    n: int = 10_000
    d: int = 2
    beta: tuple[float, ...] = (0.5, 0.5)
    sigma2: float = 0.1
    epsilon: float = 1.0
    split: float = 0.5
    runs: int = 500
    seed: int = 0
    strategies: tuple[str, ...] = strat.ALL_STRATEGIES

    def __post_init__(self):
        for name in ("n", "d", "runs", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n < 1 or self.d < 1 or self.runs < 1 or self.seed < 0:
            raise ValueError("n, d and runs must be positive, seed nonnegative")
        if len(self.beta) != self.d:
            raise ValueError(f"beta must have length d={self.d}")
        for value in (*self.beta, self.sigma2):
            if not is_finite_real(value):
                raise ValueError(f"numeric settings must be finite, got {value!r}")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")
        PrivacyBudget(self.epsilon, imputation_share=self.split)  # its ε and split rules
        if not self.strategies:
            raise ValueError("strategies must name at least one strategy")
        unknown = set(self.strategies) - set(strat.ALL_STRATEGIES)
        if unknown:
            raise ValueError(f"unknown strategies: {sorted(unknown)}")
        if len(set(self.strategies)) != len(self.strategies):
            raise ValueError(f"duplicate strategies: {list(self.strategies)}")


@dataclass(frozen=True)
class RunRecord:
    run: int
    strategy: str
    value: float
    n_mis: int
    epsilon_spent: float
    sensitivity_used: float


@dataclass(frozen=True)
class RunFailure:
    run: int
    strategy: str
    message: str


@dataclass(frozen=True)
class StrategySummary:
    count: int
    failures: int
    mean: float
    bias: float
    variance: float
    min: float
    q1: float
    median: float
    q3: float
    max: float


def generate_population(cfg: SimConfig, rng: RandomSource) -> Dataset:
    """X ~ U(0,1)^{n x d}; Y = X'beta + N(0, sigma2), clipped into [0,1]."""
    x = rng.uniform(size=(cfg.n, cfg.d))
    x.setflags(write=False)  # so Dataset shares x instead of copying it
    y = x @ np.asarray(cfg.beta, dtype=np.float64)
    if cfg.sigma2 > 0:
        y += rng.normal(0.0, np.sqrt(cfg.sigma2), size=cfg.n)
    np.clip(y, 0.0, 1.0, out=y)
    y.setflags(write=False)  # shared by Dataset too
    return Dataset(x, y, np.zeros(cfg.n, dtype=bool), Universe.unit())


def inject_missingness(d: Dataset, rng: RandomSource) -> Dataset:
    """Mask each response independently with probability its first covariate."""
    if d.mask.any():
        raise ValueError("dataset already has missing values")
    return d.with_missing(rng.uniform(size=d.n) < d.covariates[:, 0])


def summarize(values) -> StrategySummary:
    """Five-number summary (linear interpolation between closest ranks),
    sample mean and sample variance (ddof=1)."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("cannot summarize an empty list")
    q0, q1, q2, q3, q4 = np.quantile(v, [0.0, 0.25, 0.5, 0.75, 1.0])
    return StrategySummary(
        count=int(v.size),
        failures=0,
        mean=float(v.mean()),
        bias=float(v.mean() - TRUE_MEAN),
        variance=float(v.var(ddof=1)) if v.size > 1 else 0.0,
        min=float(q0),
        q1=float(q1),
        median=float(q2),
        q3=float(q3),
        max=float(q4),
    )


def _execute_run(cfg: SimConfig, data: RandomSource,
                 mask: RandomSource) -> strat.RunStatistic:
    """Draw a run's data from ``data`` and its mask from ``mask`` and return what
    the strategies read of it; its Dataset does not outlive the call.  The name
    stays: ``bench/tracing.py`` wraps it, and counts per-run figures per call."""
    d = inject_missingness(generate_population(cfg, data), mask)
    return strat.RunStatistic(d.n, d.n_mis, d.complete_cases, d.missing_covariates)


def _execute_block(cfg: SimConfig, runs: range) -> list[RunRecord | RunFailure]:
    """The records of ``runs`` in run order, each run's in ``cfg.strategies``
    order: the block's data and mask streams are seeded together,
    :func:`_execute_run` gives each run's statistic, then each strategy
    releases the block at once, run r from its own (seed, r) streams."""
    streams = [[RandomSource(cfg.seed, (r, tag)) for tag in (_DATA, _MASK)] for r in runs]
    seed_together([s for pair in streams for s in pair])
    stats = strat.Statistics([_execute_run(cfg, *pair) for pair in streams],
                             Universe.unit())
    columns = []
    for name in cfg.strategies:
        tag = _STRATEGY_BASE + _STRATEGY_TAG[name]
        budget = PrivacyBudget(cfg.epsilon, imputation_share=cfg.split)  # every run's alike
        rel = getattr(strat, f"release_{name}")(
            stats, budget, [RandomSource(cfg.seed, (r, tag)) for r in runs])
        columns.append([
            RunFailure(run, name, f"{type(exc).__name__}: {exc}")
            if (exc := rel.errors.get(i)) else
            RunRecord(run, name, float(rel.values[i]), stats.n_mis[i], budget.total_spent,
                      rel.sensitivity[i])
            for i, run in enumerate(runs)])
    return [item for row in zip(*columns) for item in row]


def _block_size(runs: int, n: int, workers: int) -> int:
    """About 4 blocks per worker, of 1 to 250 runs and ≤ 2¹⁷ // n runs (about 1 MB)."""
    return max(1, min(-(-runs // (4 * workers)), 250, 2**17 // n))


def run_sweep(
    cfg: SimConfig, workers: int = 1
) -> tuple[list[RunRecord], list[RunFailure]]:
    """Execute all runs in blocks on ``workers`` processes (0 = one per CPU
    this process may use); per-run results are identical for any worker count
    and block size because each run derives its streams from (seed, run) alone."""
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    affinity = getattr(os, "sched_getaffinity", None)
    nworkers = workers or (len(affinity(0)) if affinity else os.cpu_count() or 1)
    size = _block_size(cfg.runs, cfg.n, nworkers)
    blocks = [range(r, min(r + size, cfg.runs)) for r in range(0, cfg.runs, size)]
    if nworkers == 1:
        chunks = [_execute_block(cfg, b) for b in blocks]
    else:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            chunks = list(pool.map(_execute_block, [cfg] * len(blocks), blocks))
    records: list[RunRecord] = []
    failures: list[RunFailure] = []
    for chunk in chunks:  # chunks arrive in run order
        for item in chunk:
            (records if isinstance(item, RunRecord) else failures).append(item)
    return records, failures


def summarize_runs(
    cfg: SimConfig, records: list[RunRecord], failures: list[RunFailure]
) -> dict[str, StrategySummary]:
    """Per-strategy summaries, in ``cfg.strategies`` order; a strategy with
    no successful run has no entry."""
    per: dict[str, StrategySummary] = {}
    for name in cfg.strategies:
        vals = [r.value for r in records if r.strategy == name]
        nfail = sum(1 for f in failures if f.strategy == name)
        if vals:
            per[name] = dataclasses.replace(summarize(vals), failures=nfail)
    return per


def monte_carlo(cfg: SimConfig, workers: int = 1) -> dict[str, StrategySummary]:
    records, failures = run_sweep(cfg, workers)
    return summarize_runs(cfg, records, failures)


# --- bit-exact CSV output (UTF-8, LF, shortest round-trip doubles) -----------


def runs_csv_text(records: list[RunRecord]) -> str:
    lines = ["run,strategy,value,n_mis,epsilon_spent,sensitivity_used"]
    for r in records:
        lines.append(
            f"{r.run},{r.strategy},{r.value!r},{r.n_mis},"
            f"{r.epsilon_spent!r},{r.sensitivity_used!r}"
        )
    return "\n".join(lines) + "\n"


def summary_csv_text(summary: dict[str, StrategySummary]) -> str:
    lines = ["strategy,count,failures,mean,bias,variance,min,q1,median,q3,max"]
    for name, s in summary.items():
        lines.append(
            f"{name},{s.count},{s.failures},{s.mean!r},{s.bias!r},{s.variance!r},"
            f"{s.min!r},{s.q1!r},{s.median!r},{s.q3!r},{s.max!r}"
        )
    return "\n".join(lines) + "\n"
