"""The benchmark's workloads: generated inputs, operations and their checks.

An operation is one ``dpimpute.cli.main(argv)`` call.  A workload is a
fixed round of operations that the runner repeats; every operation of a
round carries the check of its output.  Outputs that must repeat exactly
(same inputs, same seed) are checked in full the first time and compared
by digest afterwards.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import CheckFailed

EPSILON = 1.0
SPLIT = 0.5
BETA = (0.5, 0.5)
SIGMA2 = 0.1

LARGE_N, LARGE_RUNS = 10**6, 4
SMALL_N, SMALL_RUNS, SMALL_FIRST_RUNS = 1000, 2000, 200
FILES_N = 10**5
# the file and simulate operations every workload also runs, at small size,
# so that each run reports every end-to-end metric
PROBE_N, PROBE_RUNS = 1000, 50

# input files that trigger known faults; their content never depends on the seed
FAULT_ROWS = ["0.25,0.5,0.4,0", "0.75,0.5,50.0,0", "0.5,0.25,,1", "0.5,0.75,0.6,0"]


@dataclass
class Op:
    """One CLI call.  ``check(code, stdout)`` raises CheckFailed on a wrong
    output.  For a ``fault`` operation it instead returns whether the
    program behaved as it should; a fault operation is never timed."""

    kind: str  # simulate | query | impute | impute_stochastic | fault
    argv: list[str]
    check: Callable[[int, str], object]
    focus: bool
    workers: int = 1
    runs: int = 0

    @property
    def fault(self) -> bool:
        return self.kind == "fault"


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag])))


def write_dataset(path: Path, x, y, missing) -> None:
    """Dataset CSV in dpimpute's format: x1,x2,y,missing; empty y if missing."""
    lines = ["x1,x2,y,missing"]
    for (a, b), v, m in zip(x.tolist(), y.tolist(), missing.tolist()):
        lines.append(f"{a!r},{b!r},,1" if m else f"{a!r},{b!r},{v!r},0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class CliFiles:
    """A generated dataset CSV, its reference computations, and the query
    and impute operations on it."""

    def __init__(self, work: Path, seed: int, n: int, tag: int, focus: bool):
        rng = _rng(seed, tag)
        self.x = rng.uniform(size=(n, 2))
        self.y = np.clip(self.x @ np.asarray(BETA) + rng.normal(0.0, math.sqrt(SIGMA2), n), 0, 1)
        self.missing = rng.uniform(size=n) < self.x[:, 0]
        self.y[self.missing] = math.nan
        self.n, self.n_missing = n, int(self.missing.sum())
        self.seed, self.focus = seed, focus
        self.dir = work / f"files{tag}"
        self.dir.mkdir(parents=True)
        self.data = self.dir / "data.csv"
        write_dataset(self.data, self.x, self.y, self.missing)

        self.beta, self.sigma2 = checks.ols_reference(self.x, self.y, self.missing)
        self.mu = checks.predict(self.beta, self.x[self.missing])
        self.ols_fill = np.clip(self.mu, 0.0, 1.0)
        self.observed_mean = math.fsum(self.y[~self.missing]) / (n - self.n_missing)
        self.completed_mean = (math.fsum(self.y[~self.missing]) + math.fsum(self.ols_fill)) / n
        self.digests: dict[str, str] = {}

    def _args(self, *extra: str) -> list[str]:
        return ["--data", str(self.data), "--seed", str(self.seed), *extra]

    def _repeatable(self, key: str, data: bytes, full_check: Callable[[], None]) -> None:
        d = checks.digest(data)
        if key in self.digests:
            if d != self.digests[key]:
                raise CheckFailed(f"{key}: output differs from the first call with the same inputs")
            return
        full_check()
        self.digests[key] = d

    def query_op(self, flag: str) -> Op:
        centre = {"available-case": self.observed_mean, "impute": self.completed_mean}.get(flag)

        def check(code, stdout):
            checks.check_query(json.loads(stdout), flag, EPSILON, SPLIT, self.n,
                               self.n_missing, centre)

        argv = ["query", *self._args("--strategy", flag, "--epsilon", str(EPSILON),
                                     "--split", str(SPLIT))]
        return Op("query", argv, check, self.focus)

    def impute_op(self, name: str) -> Op:
        out = self.dir / f"{name}.csv"
        model = self.dir / "model.json"
        extra = {
            "ols": ["--intercept"],
            "private": ["--intercept", "--privacy-epsilon", str(EPSILON), "--save-model", str(model)],
            "model": ["--model", str(model)],
            "stochastic": ["--intercept", "--stochastic"],
        }[name]

        def full_check():
            filled = checks.check_completed(out.read_text(encoding="utf-8"),
                                            self.x, self.y, self.missing)
            if name == "ols":
                checks.check_imputed_equal(filled, self.ols_fill, "OLS imputation", 1e-9)
            elif name == "stochastic":
                checks.check_stochastic(filled, self.mu, self.sigma2)
            else:
                saved = json.loads(model.read_text(encoding="utf-8"))
                checks.check_model_json(saved, True, EPSILON, 3)
                want = np.clip(checks.predict(np.asarray(saved["beta"]), self.x[self.missing]), 0, 1)
                checks.check_imputed_equal(filled, want, f"{name} imputation", 1e-12)

        def check(code, stdout):
            self._repeatable(name, out.read_bytes(), full_check)

        kind = "impute_stochastic" if name == "stochastic" else "impute"
        return Op(kind, ["impute", *self._args("--out", str(out), *extra)], check, self.focus)

    def ops(self) -> list[Op]:
        """Reads (query) interleaved with writes (impute)."""
        return [
            self.query_op("available-case"),
            self.impute_op("ols"),
            self.query_op("impute"),
            self.impute_op("private"),
            self.query_op("dp-impute"),
            self.impute_op("model"),
            self.impute_op("stochastic"),
        ]


class Sweep:
    """A simulate configuration, written to a file, and its checks."""

    def __init__(self, work: Path, name: str, seed: int, n: int, runs: int,
                 workers: int, focus: bool):
        self.config = {
            "n": n, "d": 2, "beta": list(BETA), "sigma2": SIGMA2, "epsilon": EPSILON,
            "split": SPLIT, "runs": runs, "seed": seed,
            "strategies": [checks.AVAILABLE_CASE, checks.IMPUTE_THEN_QUERY,
                           checks.DP_IMPUTE_THEN_QUERY],
            "output_dir": str(work / name),
        }
        self.path = work / f"{name}.json"
        self.path.write_text(json.dumps(self.config), encoding="utf-8")
        self.out = Path(self.config["output_dir"])
        self.workers, self.focus = workers, focus
        self.reference: str | None = None

    def op(self, workers: int | None = None) -> Op:
        workers = self.workers if workers is None else workers

        def check(code, stdout):
            runs = (self.out / "runs.csv").read_bytes()
            summary = (self.out / "summary.csv").read_bytes()
            d = checks.digest(runs + b"\0" + summary)
            if self.reference is None:
                checks.check_sweep(self.config, runs.decode(), summary.decode())
                self.reference = d
            elif d != self.reference:
                raise CheckFailed(f"simulate {self.path.name}: runs.csv/summary.csv bytes "
                                  "differ from the reference run")

        argv = ["simulate", "--config", str(self.path), "--workers", str(workers)]
        return Op("simulate", argv, check, self.focus, workers, self.config["runs"])


@dataclass
class Workload:
    name: str
    first: Op  # the untimed operation a fresh process completes in setup
    warmup: list[Op]  # untimed, in-process, before the timed rounds
    round: list[Op]
    unit_names: tuple[str, ...] = ("simulation.run",)


def sweep_large_serial(work: Path, seed: int) -> Workload:
    main = Sweep(work, "sweep", seed, LARGE_N, LARGE_RUNS, 1, True)
    first = Sweep(work, "first", seed, LARGE_N, 1, 1, False)
    probe = CliFiles(work, seed, PROBE_N, 1, False)
    return Workload("sweep-large-serial", first.op(), [first.op(), *probe.ops()],
                    [main.op(), *probe.ops()])


def sweep_small_parallel(work: Path, seed: int) -> Workload:
    main = Sweep(work, "sweep", seed, SMALL_N, SMALL_RUNS, 2, True)
    first = Sweep(work, "first", seed, SMALL_N, SMALL_FIRST_RUNS, 2, False)
    probe = CliFiles(work, seed, PROBE_N, 1, False)
    # the serial run is the reference every timed (parallel) call must equal
    return Workload("sweep-small-parallel", first.op(), [main.op(workers=1), *probe.ops()],
                    [main.op(), *probe.ops()])


def _fault_ops(work: Path) -> list[Op]:
    fault_dir = work / "faults"
    fault_dir.mkdir()
    out_of_range = fault_dir / "out_of_range.csv"
    out_of_range.write_text("x1,x2,y,missing\n" + "\n".join(FAULT_ROWS) + "\n", encoding="utf-8")
    valid = fault_dir / "valid.csv"
    valid.write_text("x1,x2,y,missing\n" + "\n".join(FAULT_ROWS).replace("50.0", "0.5") + "\n",
                     encoding="utf-8")
    no_beta = fault_dir / "no_beta.json"
    no_beta.write_text('{"private": false, "epsilon_spent": 0.0}\n', encoding="utf-8")
    return [
        # y = 50 lies outside the [0, 1] universe: the release must be refused
        Op("fault", ["query", "--data", str(out_of_range), "--strategy", "available-case",
                     "--epsilon", "1"], lambda code, out: code == 1, False),
        # a model file without "beta" is bad input, not a crash
        Op("fault", ["impute", "--data", str(valid), "--model", str(no_beta),
                     "--out", str(fault_dir / "out.csv")], lambda code, out: code in (1, 3), False),
    ]


def cli_files(work: Path, seed: int) -> Workload:
    files = CliFiles(work, seed, FILES_N, 0, True)
    probe = Sweep(work, "probe", seed, PROBE_N, PROBE_RUNS, 1, False)
    first = files.query_op("available-case")
    # a short simulate after each file operation spreads its samples over the run
    ops = [op for file_op in files.ops() for op in (file_op, probe.op())]
    return Workload("cli-files", first, [first, probe.op()], [*ops, *_fault_ops(work)],
                    unit_names=("cli.query", "cli.impute"))


WORKLOADS = {
    "sweep-large-serial": sweep_large_serial,
    "sweep-small-parallel": sweep_small_parallel,
    "cli-files": cli_files,
}
