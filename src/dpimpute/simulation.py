"""Monte Carlo harness: uniform covariates, clipped linear response, MAR
missingness on the first covariate, and the three-strategy comparison."""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core_data import Dataset, PrivacyBudget, Universe, n_mis
from .mechanisms import RandomSource
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
        if self.n < 1 or self.d < 1 or self.runs < 1:
            raise ValueError("n, d and runs must be positive")
        if len(self.beta) != self.d:
            raise ValueError(f"beta must have length d={self.d}")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 <= self.split < 1.0:
            raise ValueError("split must lie in [0, 1)")
        unknown = set(self.strategies) - set(strat.ALL_STRATEGIES)
        if unknown:
            raise ValueError(f"unknown strategies: {sorted(unknown)}")


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


@dataclass(frozen=True)
class SimSummary:
    per_strategy: dict[str, StrategySummary]
    true_mean: float = TRUE_MEAN


def generate_population(cfg: SimConfig, rng: RandomSource) -> Dataset:
    """X ~ U(0,1)^{n x d}; Y = X'beta + N(0, sigma2), clipped into [0,1]."""
    x = rng.uniform(size=(cfg.n, cfg.d))
    y = x @ np.asarray(cfg.beta, dtype=np.float64)
    if cfg.sigma2 > 0:
        y = y + rng.normal(0.0, np.sqrt(cfg.sigma2), size=cfg.n)
    y = np.clip(y, 0.0, 1.0)
    return Dataset(x, y, np.zeros(cfg.n, dtype=bool), Universe.unit(cfg.d))


def inject_missingness(d: Dataset, rng: RandomSource) -> Dataset:
    """Mask each response independently with probability its first covariate."""
    if d.mask.any():
        raise ValueError("dataset already has missing values")
    mask = rng.uniform(size=d.n) < d.covariates[:, 0]
    return Dataset(d.covariates, d.response, mask, d.universe)


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


def _execute_run(cfg: SimConfig, run: int) -> list[RunRecord | RunFailure]:
    base = RandomSource(cfg.seed)
    data = generate_population(cfg, base.split(run, _DATA))
    data = inject_missingness(data, base.split(run, _MASK))
    out: list[RunRecord | RunFailure] = []
    for name in cfg.strategies:
        rng = base.split(run, _STRATEGY_BASE + _STRATEGY_TAG[name])
        budget = PrivacyBudget(cfg.epsilon, imputation_share=cfg.split)
        try:
            res = strat.run_strategy(name, data, budget, rng)
        except Exception as exc:  # per-run failures never abort the sweep
            out.append(RunFailure(run, name, f"{type(exc).__name__}: {exc}"))
            continue
        out.append(
            RunRecord(
                run=run,
                strategy=name,
                value=res.value,
                n_mis=res.n_mis_at_query,
                epsilon_spent=res.epsilon_spent_total,
                sensitivity_used=res.sensitivity_used,
            )
        )
    return out


def worker_count(workers: int | None) -> int:
    """Resolve a worker count: None reads DPIMPUTE_THREADS (unset = 1), 0 = one
    per CPU.  Raises ValueError when the variable is not an integer."""
    if workers is None:
        env = os.environ.get("DPIMPUTE_THREADS", "")
        workers = int(env) if env else 1
    if workers == 0:
        workers = os.cpu_count() or 1
    return max(1, workers)


def run_sweep(
    cfg: SimConfig, workers: int | None = None
) -> tuple[list[RunRecord], list[RunFailure]]:
    """Execute all runs; per-run results are identical for any worker count
    because every run derives its streams from (seed, run index) alone."""
    nworkers = worker_count(workers)
    if nworkers == 1:
        chunks = [_execute_run(cfg, r) for r in range(cfg.runs)]
    else:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            chunks = list(
                pool.map(_execute_run, [cfg] * cfg.runs, range(cfg.runs), chunksize=8)
            )
    records: list[RunRecord] = []
    failures: list[RunFailure] = []
    for chunk in chunks:  # chunks arrive in run order
        for item in chunk:
            (records if isinstance(item, RunRecord) else failures).append(item)
    return records, failures


def summarize_runs(
    cfg: SimConfig, records: list[RunRecord], failures: list[RunFailure]
) -> SimSummary:
    per: dict[str, StrategySummary] = {}
    for name in cfg.strategies:
        vals = [r.value for r in records if r.strategy == name]
        nfail = sum(1 for f in failures if f.strategy == name)
        if vals:
            per[name] = dataclasses.replace(summarize(vals), failures=nfail)
    return SimSummary(per_strategy=per)


def monte_carlo(cfg: SimConfig, workers: int | None = None) -> SimSummary:
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


def summary_csv_text(summary: SimSummary) -> str:
    lines = ["strategy,count,failures,mean,bias,variance,min,q1,median,q3,max"]
    for name, s in summary.per_strategy.items():
        lines.append(
            f"{name},{s.count},{s.failures},{s.mean!r},{s.bias!r},{s.variance!r},"
            f"{s.min!r},{s.q1!r},{s.median!r},{s.q3!r},{s.max!r}"
        )
    return "\n".join(lines) + "\n"
