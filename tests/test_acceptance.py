"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the shared 500-run sweep at n=10,000 is computed once.
"""

import json
import math
import time

import numpy as np
import pytest

from dpimpute import (
    Dataset,
    PrivacyBudget,
    RandomSource,
    SimConfig,
    Universe,
    available_case_mean,
    brute_force_imputed_sensitivity,
    extrapolation_tightness_witness,
    functional_mechanism_ols,
    generate_population,
    inject_missingness,
    ols_fit,
    run_dp_impute_then_query,
    run_sweep,
    tightness_gap,
)
from dpimpute.cli import main
from dpimpute.mechanisms import laplace_samples

N = 10_000
RUNS = 500
SEED = 20240817

# frozen from the 1e7-sample oracle below (see criterion 1)
ORACLE_AVAILABLE_CASE_MEAN = 0.4310
UNCLIPPED_ANALYTIC_MEAN = 5.0 / 12.0


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def sweep():
    cfg = SimConfig(n=N, runs=RUNS, seed=SEED)
    t0 = time.monotonic()
    records, failures = run_sweep(cfg)
    elapsed = time.monotonic() - t0
    by_strategy = {}
    for r in records:
        by_strategy.setdefault(r.strategy, []).append(r)
    return cfg, by_strategy, failures, elapsed


def strategy_values(by_strategy, name):
    return np.array([r.value for r in by_strategy[name]])


def test_criterion_1_available_case_bias(sweep):
    cfg, by_strategy, _, elapsed = sweep
    # noise-free available-case estimates over the same seeded generator
    t0 = time.monotonic()
    base = RandomSource(SEED)
    means = []
    for run in range(RUNS):
        d = generate_population(cfg, base.split(run, 0))
        d = inject_missingness(d, base.split(run, 1))
        means.append(available_case_mean(d))
    est = float(np.mean(means))
    runtime = time.monotonic() - t0 + elapsed

    # independent oracle: 1e7-sample Monte Carlo of E[Y | M=0]
    src = RandomSource(77)
    m = 10_000_000
    x = src.uniform(size=(m, 2))
    y = np.clip(x @ [0.5, 0.5] + src.normal(0, math.sqrt(0.1), m), 0, 1)
    mask = src.uniform(size=m) < x[:, 0]
    oracle = float(y[~mask].mean())

    assert abs(oracle - ORACLE_AVAILABLE_CASE_MEAN) < 0.002
    # the no-clipping analytic value 5/12 differs from the clipped-generator
    # oracle by ~0.014; the oracle is authoritative for this generator
    print(
        f"  oracle E[Y|M=0]={oracle:.4f}; no-clipping analytic value "
        f"{UNCLIPPED_ANALYTIC_MEAN:.4f} (differs by {oracle - UNCLIPPED_ANALYTIC_MEAN:+.4f})"
    )
    ok = abs(est - oracle) < 0.005 and runtime < 60.0
    report(1, ok, f"mean={est:.4f} vs oracle={oracle:.4f}, runtime={runtime:.1f}s")


def test_criterion_2_imputation_strategies_unbiased(sweep):
    _, by_strategy, _, _ = sweep
    details = []
    ok = True
    for name in ("impute_then_query", "dp_impute_then_query"):
        v = strategy_values(by_strategy, name)
        se = v.std(ddof=1) / math.sqrt(v.size)
        dev = abs(v.mean() - 0.5)
        ok &= dev <= 3 * se
        details.append(f"{name}: |mean-0.5|={dev:.4f}, 3se={3 * se:.4f}")
    # the available-case strategy stays visibly biased low
    ac = strategy_values(by_strategy, "available_case")
    ok &= ac.mean() < 0.45 and float(np.median(ac)) < 0.45
    report(2, ok, "; ".join(details))


def test_criterion_3_variance_ordering(sweep):
    _, by_strategy, _, _ = sweep
    v2 = strategy_values(by_strategy, "impute_then_query").var(ddof=1)
    v3 = strategy_values(by_strategy, "dp_impute_then_query").var(ddof=1)
    ratio = v2 / v3
    report(3, ratio > 100.0, f"Var(ii)/Var(iii)={ratio:.0f}")


def test_criterion_4_inflation_bound_oracle():
    t0 = time.monotonic()
    ok = True
    details = []
    for n in (2, 3, 4):
        # the shipped OLS imputer on in-domain covariates, mask flips included
        res = brute_force_imputed_sensitivity([0.0, 0.5, 1.0], n)
        ok &= res.violations == ()
        ok &= math.isclose(res.max_gap, (n - 1) / n)
        ok &= res.base_sensitivity <= res.max_gap + 1e-12
        details.append(f"n={n}: max_gap={res.max_gap:.4f}, violations={len(res.violations)}")
    runtime = time.monotonic() - t0
    ok &= runtime < 30.0
    report(4, ok, "; ".join(details) + f", runtime={runtime:.1f}s")


def test_criterion_5_tightness_witness():
    w = extrapolation_tightness_witness(0.0, 1.0, 10)
    target = tightness_gap(0.0, 1.0, 10)
    ok = w.gap == target == 0.9 and w.bound_tight
    report(5, ok, f"gap={w.gap}, target={target}, bound_tight={w.bound_tight}")


def test_criterion_6_composition_accounting(sweep):
    cfg, by_strategy, _, _ = sweep
    spends = {r.epsilon_spent for r in by_strategy["dp_impute_then_query"]}
    ok = spends == {1.0}
    # splits sweep: ledger total is exactly the configured epsilon
    base = RandomSource(SEED)
    d = inject_missingness(
        generate_population(SimConfig(n=2000, runs=1), base.split(0, 0)),
        base.split(0, 1),
    )
    for share in (0.1, 0.5, 0.9):
        budget = PrivacyBudget(1.0, imputation_share=share)
        res = run_dp_impute_then_query(d, budget, base.split(1))
        ok &= math.fsum(e for _, e in res.ledger) == 1.0
        ok &= res.epsilon_spent_total == 1.0
    report(6, ok, f"per-run spends={sorted(spends)}, splits {{0.1,0.5,0.9}} exact")


def test_criterion_7_mechanism_statistics():
    draws = laplace_samples(1.0, 1_000_000, RandomSource(123))
    mean_err = abs(float(draws.mean()))
    var_rel_err = abs(float(draws.var()) - 2.0) / 2.0
    ok = mean_err < 0.01 and var_rel_err < 0.025

    rng = RandomSource(124)
    x = rng.uniform(size=(2000, 2))
    y = np.clip(x @ [0.5, 0.5] + rng.normal(0, math.sqrt(0.1), 2000), 0, 1)
    d = Dataset(x, y, np.zeros(2000, dtype=bool), Universe.unit())
    fm = functional_mechanism_ols(d, 1e12, rng.split(0))
    exact = ols_fit(d)
    recov = float(np.abs(fm.beta - exact.beta).max())
    ok &= recov < 1e-6

    # epsilon-monotonicity: mean squared deviation from the OLS fit is
    # non-increasing in epsilon over paired seeds
    eps_grid = (0.1, 1.0, 10.0, 1e3)
    msd = {e: 0.0 for e in eps_grid}
    n_seeds = 200
    for s in range(n_seeds):
        data_rng = RandomSource(9000 + s)
        xs = data_rng.uniform(size=(2000, 2))
        ys = np.clip(xs @ [0.5, 0.5] + data_rng.normal(0, math.sqrt(0.1), 2000), 0, 1)
        ds = Dataset(xs, ys, np.zeros(2000, dtype=bool), Universe.unit())
        beta_ols = ols_fit(ds).beta
        for e in eps_grid:
            b = functional_mechanism_ols(ds, e, RandomSource(9000 + s, (1,))).beta
            msd[e] += float(((b - beta_ols) ** 2).sum()) / n_seeds
    mono = all(msd[a] >= msd[b] for a, b in zip(eps_grid, eps_grid[1:]))
    ok &= mono
    report(
        7,
        ok,
        f"laplace mean_err={mean_err:.4f}, var_rel_err={var_rel_err:.4f}, "
        f"fm_recovery={recov:.2e}, msd={[f'{msd[e]:.3g}' for e in eps_grid]}",
    )


def test_criterion_8_byte_identical_outputs(tmp_path):
    cfg = {
        "n": 2000,
        "runs": 40,
        "seed": 99,
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for workers in (1, 8, 1, 8):
        assert main(["simulate", "--config", str(cfg_path),
                     "--workers", str(workers)]) == 0
        outputs.append(
            (
                (tmp_path / "out" / "runs.csv").read_bytes(),
                (tmp_path / "out" / "summary.csv").read_bytes(),
            )
        )
    ok = all(o == outputs[0] for o in outputs[1:])
    report(8, ok, "runs.csv and summary.csv byte-identical for workers 1 and 8")
