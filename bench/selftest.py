"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs dpimpute (from ./src) on small inputs, requires the genuine outputs to
pass every check, then plants wrong outputs and requires each to be
rejected: an off-by-one n_mis in a sensitivity, one altered imputed value,
one changed observed value, a summary mean shifted by 0.01, and stochastic
fills with the wrong spread.  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _edit_field(text: str, line_no: int, field: int, fn) -> str:
    lines = text.split("\n")
    fields = lines[line_no].split(",")
    fields[field] = fn(fields)
    lines[line_no] = ",".join(fields)
    return "\n".join(lines)


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np

    import checks
    import workloads
    from checks import CheckFailed
    from dpimpute import cli

    work = BENCH / "_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    outcomes: list[tuple[str, bool]] = []

    def expect(name: str, should_pass: bool, fn) -> None:
        try:
            fn()
            passed = True
        except CheckFailed:
            passed = False
        outcomes.append((name, passed == should_pass))

    def run(op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(op.argv)
        if code != 0:
            raise SystemExit(f"dpimpute {op.argv[0]} exited {code}")
        return out.getvalue()

    expect("quadrature reproduces the available-case estimand", True,
           lambda: checks._require(abs(checks.available_case_estimand()
                                       - checks.AVAILABLE_CASE_ESTIMAND) < 5e-7, "quadrature"))

    # --- simulate ------------------------------------------------------------------
    sweep = workloads.Sweep(work, "sweep", 3, 1000, 200, 1, True)
    sim = sweep.op()
    run(sim)
    runs = (sweep.out / "runs.csv").read_text()
    summary = (sweep.out / "summary.csv").read_text()
    cfg, n = sweep.config, sweep.config["n"]
    expect("genuine simulate output", True, lambda: checks.check_sweep(cfg, runs, summary))
    for row, (strategy, wrong) in enumerate((
        ("available_case", lambda nm: 1 / (n - (nm + 1))),
        ("impute_then_query", lambda nm: (nm + 2) / n),
    ), start=1 + len(cfg["strategies"])):
        planted = _edit_field(runs, row, 5, lambda f, wrong=wrong: repr(wrong(int(f[3]))))
        expect(f"{strategy} sensitivity with n_mis off by one", False,
               lambda planted=planted: checks.check_sweep(cfg, planted, summary))
    shifted = _edit_field(summary, 1, 3, lambda f: repr(float(f[3]) + 0.01))
    expect("summary mean shifted by 0.01", False, lambda: checks.check_sweep(cfg, runs, shifted))
    dp_row = 3 * len(cfg["strategies"])
    dropped = "\n".join(line for i, line in enumerate(runs.split("\n")) if i != dp_row)
    expect("dp-impute row dropped but not counted as a failure", False,
           lambda: checks.check_sweep(cfg, dropped, summary))
    expect("runs.csv with one run dropped", False,
           lambda: checks.check_sweep(cfg, "\n".join(runs.split("\n")[:-4]) + "\n", summary))

    # --- query and impute -------------------------------------------------------------
    files = workloads.CliFiles(work, 5, 2000, 0, True)
    for op in files.ops():
        stdout = run(op)
        expect(f"genuine {op.kind} output", True,
               lambda op=op, stdout=stdout: op.check(0, stdout))

    query = files.query_op("available-case")
    result = json.loads(run(query))
    expect("genuine query JSON", True, lambda: query.check(0, json.dumps(result)))
    wrong = dict(result, sensitivity_used=1 / (files.n - files.n_missing - 1))
    expect("query sensitivity with n_mis off by one", False, lambda: query.check(0, json.dumps(wrong)))
    wrong = dict(result, ledger=[["analysis", 0.5]])
    expect("query ledger that does not sum to epsilon", False,
           lambda: query.check(0, json.dumps(wrong)))

    text = (files.dir / "ols.csv").read_text()
    first_missing = int(np.argmax(files.missing)) + 1
    first_observed = int(np.argmin(files.missing)) + 1

    def check_ols(t):
        filled = checks.check_completed(t, files.x, files.y, files.missing)
        checks.check_imputed_equal(filled, files.ols_fill, "OLS imputation", 1e-9)

    expect("genuine OLS imputation", True, lambda: check_ols(text))
    planted = _edit_field(text, first_missing, 2, lambda f: repr(float(f[2]) - 1e-6))
    expect("one altered imputed value", False, lambda: check_ols(planted))
    planted = _edit_field(text, first_observed, 2,
                          lambda f: repr(float(np.nextafter(float(f[2]), 2.0))))
    expect("one changed observed value", False, lambda: check_ols(planted))
    planted = _edit_field(text, first_observed, 0, lambda f: repr(float(f[0]) / 2))
    expect("one changed covariate", False, lambda: check_ols(planted))

    rng = np.random.default_rng(0)
    sd = math.sqrt(files.sigma2)
    right = np.clip(files.mu + rng.normal(0, sd, files.mu.size), 0, 1)
    wide = np.clip(files.mu + rng.normal(0, 1.2 * sd, files.mu.size), 0, 1)
    expect("fills drawn with the fitted spread", True,
           lambda: checks.check_stochastic(right, files.mu, files.sigma2))
    expect("fills drawn 20% too wide", False,
           lambda: checks.check_stochastic(wide, files.mu, files.sigma2))
    expect("fills without noise", False,
           lambda: checks.check_stochastic(np.clip(files.mu, 0, 1), files.mu, files.sigma2))

    shutil.rmtree(work, ignore_errors=True)
    for name, ok in outcomes:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    bad = sum(not ok for _, ok in outcomes)
    print(f"{len(outcomes) - bad}/{len(outcomes)} expectations hold")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
