"""Output checks for the benchmark, computed apart from dpimpute.

Nothing here imports dpimpute: every expected value comes from the
standard library and numpy, from the generated inputs and from the paper's
formulas.  Each check raises :class:`CheckFailed` with a message naming the
first discrepancy.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque

import numpy as np

# E[y | observed] for the simulation's data model: x ~ U(0,1)^2,
# y = clip(0.5 x1 + 0.5 x2 + N(0, 0.1), 0, 1), y observed with probability
# 1 - x1.  available_case_estimand() reproduces it by quadrature.
AVAILABLE_CASE_ESTIMAND = 0.430970
TRUE_MEAN = 0.5
# a mean check fails only beyond this many standard errors
MEAN_TOLERANCE_SE = 6.0
# stochastic-imputation moment tests fail only beyond this |z|
SPREAD_TOLERANCE_Z = 6.0
# tolerance for floating-point identities (sensitivities, ledgers, summaries)
RTOL = 1e-9

RUNS_HEADER = "run,strategy,value,n_mis,epsilon_spent,sensitivity_used"
SUMMARY_HEADER = "strategy,count,failures,mean,bias,variance,min,q1,median,q3,max"
AVAILABLE_CASE = "available_case"
IMPUTE_THEN_QUERY = "impute_then_query"
DP_IMPUTE_THEN_QUERY = "dp_impute_then_query"
QUERY_STRATEGY = {
    "available-case": AVAILABLE_CASE,
    "impute": IMPUTE_THEN_QUERY,
    "dp-impute": DP_IMPUTE_THEN_QUERY,
}


class CheckFailed(AssertionError):
    """A program output disagrees with the independently computed value."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(a: float, b: float, rtol: float = RTOL, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- normal-distribution helpers ---------------------------------------------

_erf = np.frompyfunc(math.erf, 1, 1)


def _phi(z):
    return np.exp(-0.5 * np.square(z)) / math.sqrt(2.0 * math.pi)


def _Phi(z):
    return 0.5 * (1.0 + _erf(np.asarray(z, dtype=np.float64) / math.sqrt(2.0)).astype(np.float64))


def clipped_normal_moments(mu, sd: float, lo: float = 0.0, hi: float = 1.0):
    """Mean and variance of clip(N(mu, sd^2), lo, hi), elementwise in mu."""
    mu = np.asarray(mu, dtype=np.float64)
    a = (lo - mu) / sd
    b = (hi - mu) / sd
    pa, pb = _Phi(a), _Phi(b)
    fa, fb = _phi(a), _phi(b)
    inside = pb - pa
    mean = lo * pa + mu * inside + sd * (fa - fb) + hi * (1.0 - pb)
    second = (
        lo * lo * pa
        + mu * mu * inside
        + 2.0 * mu * sd * (fa - fb)
        + sd * sd * (inside + a * fa - b * fb)
        + hi * hi * (1.0 - pb)
    )
    return mean, np.maximum(second - mean * mean, 0.0)


def available_case_estimand(
    beta=(0.5, 0.5), sigma2: float = 0.1, nodes: int = 64
) -> float:
    """2 E[clip(b1 x1 + b2 x2 + e) (1 - x1)] by Gauss-Legendre quadrature."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    u, w = (t + 1.0) / 2.0, w / 2.0
    x1, x2 = np.meshgrid(u, u, indexing="ij")
    weights = np.outer(w, w) * (1.0 - x1)
    mean, _ = clipped_normal_moments(beta[0] * x1 + beta[1] * x2, math.sqrt(sigma2))
    return float(2.0 * np.sum(weights * mean))


# --- simulate outputs ----------------------------------------------------------


def expected_sensitivity(strategy: str, n: int, n_missing: int, width: float = 1.0) -> float:
    if strategy == AVAILABLE_CASE:
        return width / (n - n_missing)
    if strategy == IMPUTE_THEN_QUERY:
        return (n_missing + 1) * width / n
    return width / n


def _quantile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    h = (len(sorted_values) - 1) * q
    i = math.floor(h)
    j = min(i + 1, len(sorted_values) - 1)
    return sorted_values[i] + (h - i) * (sorted_values[j] - sorted_values[i])


def parse_runs_csv(text: str) -> list[tuple[int, str, float, int, float, float]]:
    lines = text.split("\n")
    _require(lines[0] == RUNS_HEADER, f"runs.csv header {lines[0]!r}")
    _require(lines[-1] == "", "runs.csv must end with a newline")
    rows = []
    for line in lines[1:-1]:
        run, strategy, value, nm, eps, sens = line.split(",")
        rows.append((int(run), strategy, float(value), int(nm), float(eps), float(sens)))
    return rows


def parse_summary_csv(text: str) -> dict[str, list[float]]:
    lines = text.split("\n")
    _require(lines[0] == SUMMARY_HEADER, f"summary.csv header {lines[0]!r}")
    _require(lines[-1] == "", "summary.csv must end with a newline")
    out = {}
    for line in lines[1:-1]:
        name, *fields = line.split(",")
        out[name] = [float(f) for f in fields]
    return out


def check_sweep(config: dict, runs_text: str, summary_text: str) -> None:
    """Check one simulate call's runs.csv and summary.csv against its config.

    Sensitivities and spends follow the paper's formulas, the summary
    restates the runs, and the means sit near the estimands.  A run may lack
    only its dp-impute row: the functional mechanism may refuse a
    perturbation, and the summary must then count that run as a failure.
    Dp-impute is held to 0.5 only at n >= 10^6, where the noisy fit's bias
    is negligible.
    """
    n, runs, eps = config["n"], config["runs"], config["epsilon"]
    strategies = config["strategies"]
    rows = parse_runs_csv(runs_text)
    values: dict[str, list[float]] = {s: [] for s in strategies}
    variance_bound: dict[str, float] = {s: 0.0 for s in strategies}
    expected_order = deque((r, s) for r in range(runs) for s in strategies)
    for i, (run, strategy, value, nm, spent, sens) in enumerate(rows):
        where = f"runs.csv row {i + 1} ({run}, {strategy})"
        while expected_order and expected_order[0] != (run, strategy) \
                and expected_order[0][1] == DP_IMPUTE_THEN_QUERY:
            expected_order.popleft()  # a refused dp-impute run
        _require(bool(expected_order) and expected_order.popleft() == (run, strategy),
                 f"{where}: unexpected or out of order")
        _require(0 < nm < n, f"{where}: n_mis {nm} outside (0, n)")
        if i and rows[i - 1][0] == run:
            _require(nm == rows[i - 1][3], f"{where}: n_mis differs between strategies")
        # n_mis ~ Binomial(n, 1/2) under the x1-driven mask
        _require(abs(nm - n / 2) <= MEAN_TOLERANCE_SE * math.sqrt(n / 4),
                 f"{where}: n_mis {nm} implausible for n={n}")
        _require(_close(spent, eps), f"{where}: epsilon_spent {spent!r} != {eps!r}")
        want = expected_sensitivity(strategy, n, nm)
        _require(_close(sens, want), f"{where}: sensitivity_used {sens!r} != {want!r}")
        _require(math.isfinite(value), f"{where}: value {value!r} not finite")
        values[strategy].append(value)
        eps_query = eps if strategy != DP_IMPUTE_THEN_QUERY else eps * (1 - config["split"])
        # sampling variance of a mean of [0,1] values is at most 0.25/m
        m = n - nm if strategy == AVAILABLE_CASE else n
        variance_bound[strategy] += 0.25 / m + 2.0 * (want / eps_query) ** 2
    _require(all(s == DP_IMPUTE_THEN_QUERY for _, s in expected_order),
             f"runs.csv ends early: {len(expected_order)} rows missing")

    summary = parse_summary_csv(summary_text)
    _require(list(summary) == list(strategies),
             f"summary.csv strategies {list(summary)} != {list(strategies)}")
    for s in strategies:
        v = sorted(values[s])
        mean = math.fsum(v) / len(v)
        var = math.fsum((x - mean) ** 2 for x in v) / (len(v) - 1) if len(v) > 1 else 0.0
        want = [len(v), runs - len(v), mean, mean - TRUE_MEAN, var,
                v[0], _quantile(v, 0.25), _quantile(v, 0.5), _quantile(v, 0.75), v[-1]]
        names = SUMMARY_HEADER.split(",")[1:]
        for name, got, exp in zip(names, summary[s], want):
            _require(_close(got, exp, atol=1e-12),
                     f"summary.csv {s} {name} {got!r} != {exp!r} from runs.csv")

        se = math.sqrt(variance_bound[s]) / len(v)
        target = AVAILABLE_CASE_ESTIMAND if s == AVAILABLE_CASE else TRUE_MEAN
        if s == DP_IMPUTE_THEN_QUERY and n < 10**6:
            continue
        _require(abs(mean - target) <= MEAN_TOLERANCE_SE * se,
                 f"{s} mean {mean!r} is {abs(mean - target) / se:.1f} SE from {target}")


# --- CLI outputs ---------------------------------------------------------------


def parse_dataset_csv(text: str, d: int = 2):
    """(x, y, missing) from a dataset CSV; y is NaN where the field is empty."""
    lines = text.split("\n")
    want = ",".join([f"x{j + 1}" for j in range(d)] + ["y", "missing"])
    _require(lines[0] == want, f"dataset header {lines[0]!r}")
    _require(lines[-1] == "", "dataset CSV must end with a newline")
    rows = [line.split(",") for line in lines[1:-1]]
    _require(all(len(r) == d + 2 for r in rows), "dataset row with wrong field count")
    x = np.array([[float(v) for v in r[:d]] for r in rows]).reshape(len(rows), d)
    y = np.array([float(r[d]) if r[d] else math.nan for r in rows])
    missing = np.array([r[d + 1] == "1" for r in rows], dtype=bool)
    _require(all(r[d + 1] in ("0", "1") for r in rows), "missing flag not 0/1")
    _require(bool(np.all(np.isnan(y) == missing)), "missing flag disagrees with empty y")
    return x, y, missing


def ols_reference(x, y, missing):
    """lstsq fit with intercept on the complete cases: (beta, sigma2_hat)."""
    z = np.column_stack([np.ones(int((~missing).sum())), x[~missing]])
    beta, *_ = np.linalg.lstsq(z, y[~missing], rcond=None)
    resid = y[~missing] - z @ beta
    return beta, float(resid @ resid) / (z.shape[0] - z.shape[1])


def predict(beta, x) -> np.ndarray:
    return beta[0] + x @ np.asarray(beta[1:])


def check_completed(text: str, x, y, missing) -> np.ndarray:
    """Check a completed CSV keeps covariates and observed responses; return
    the values it filled in for the missing rows."""
    ox, oy, om = parse_dataset_csv(text, x.shape[1])
    _require(ox.shape == x.shape, f"completed CSV has {ox.shape[0]} rows, input {x.shape[0]}")
    _require(not om.any(), "completed CSV still marks rows missing")
    bad = np.nonzero((ox != x).any(axis=1))[0]
    _require(bad.size == 0, f"covariates changed in row {bad[:1]}")
    bad = np.nonzero(oy[~missing] != y[~missing])[0]
    _require(bad.size == 0, f"observed response changed ({bad.size} rows)")
    return oy[missing]


def check_imputed_equal(filled, expected, what: str, atol: float) -> None:
    diff = np.abs(filled - expected)
    worst = int(np.argmax(diff)) if diff.size else 0
    _require(diff.size == 0 or diff[worst] <= atol,
             f"{what}: missing row {worst} filled with {filled[worst]!r}, "
             f"expected {expected[worst]!r}")


def check_model_json(model: dict, private: bool, epsilon: float, p: int) -> None:
    _require(set(model) == {"beta", "private", "epsilon_spent"}, f"model keys {sorted(model)}")
    _require(len(model["beta"]) == p, f"model has {len(model['beta'])} coefficients, not {p}")
    _require(model["private"] is private, f"model private={model['private']!r}")
    _require(_close(model["epsilon_spent"], epsilon),
             f"model epsilon_spent {model['epsilon_spent']!r} != {epsilon!r}")


def check_stochastic(filled, mu, sigma2: float, lo: float = 0.0, hi: float = 1.0) -> None:
    """Stochastic fills stay in [lo, hi] and spread about the prediction mu
    as clip(N(mu, sigma2), lo, hi) does: z-tests on the mean and variance."""
    _require(bool(np.all((filled >= lo) & (filled <= hi))), "stochastic value outside [a, b]")
    mean, var = clipped_normal_moments(mu, math.sqrt(sigma2), lo, hi)
    dev = filled - mean
    z_mean = dev.sum() / math.sqrt(var.sum())
    sq = dev * dev - var
    z_var = sq.sum() / math.sqrt(np.sum(sq * sq))
    _require(abs(z_mean) <= SPREAD_TOLERANCE_Z, f"stochastic fills off-centre (z={z_mean:.1f})")
    _require(abs(z_var) <= SPREAD_TOLERANCE_Z, f"stochastic spread wrong (z={z_var:.1f})")


def check_query(result: dict, flag: str, epsilon: float, split: float, n: int,
                n_missing: int, centre: float | None) -> None:
    """Check a query JSON: spend, ledger, sensitivity, noise scale and,
    when ``centre`` is given, that the value lies within 20 noise scales."""
    strategy = QUERY_STRATEGY[flag]
    _require(result["strategy"] == strategy, f"query strategy {result['strategy']!r}")
    _require(result["n_mis_at_query"] == n_missing, f"n_mis_at_query {result['n_mis_at_query']}")
    ledger = result["ledger"]
    _require(_close(math.fsum(e for _, e in ledger), epsilon), f"ledger {ledger} does not sum to ε")
    _require(_close(result["epsilon_spent_total"], epsilon),
             f"epsilon_spent_total {result['epsilon_spent_total']!r}")
    if strategy == DP_IMPUTE_THEN_QUERY:
        want_ledger = [["imputation", split * epsilon], ["analysis", epsilon - split * epsilon]]
    else:
        want_ledger = [["analysis", epsilon]]
    _require([label for label, _ in ledger] == [label for label, _ in want_ledger]
             and all(_close(a[1], b[1]) for a, b in zip(ledger, want_ledger)),
             f"ledger {ledger} != {want_ledger}")
    sens = expected_sensitivity(strategy, n, n_missing)
    _require(_close(result["sensitivity_used"], sens),
             f"sensitivity_used {result['sensitivity_used']!r} != {sens!r}")
    scale = sens / want_ledger[-1][1]
    _require(_close(result["noise_scale"], scale), f"noise_scale {result['noise_scale']!r} != {scale!r}")
    if centre is not None:
        _require(abs(result["value"] - centre) <= 20 * scale,
                 f"released {result['value']!r} more than 20 noise scales from {centre!r}")
