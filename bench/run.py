"""Benchmark for dpimpute: time its CLI commands in-process, check outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; dpimpute is imported from ./src.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md in
this directory for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# one BLAS thread per process: the main process plus at most two pool
# workers then never run more threads than the two cores
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
MIN_ROUNDS = 2  # stochastic imputation must repeat at least once per run


def _subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh_process_seconds(argv: list[str]) -> float:
    """Wall time for a new interpreter to import dpimpute.cli and run argv."""
    code = "import sys\nfrom dpimpute import cli\nsys.exit(cli.main(sys.argv[1:]))"
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT, env=_subprocess_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up operation exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-2000:]}")
    return elapsed


def fresh_import_ms() -> float:
    code = ("import time\nt = time.perf_counter()\nimport dpimpute.cli\n"
            "print((time.perf_counter() - t) * 1e3)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_subprocess_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


class Runner:
    def __init__(self, cli, workload, tracer=None):
        self.cli, self.workload, self.tracer = cli, workload, tracer
        self.times: dict[str, list[float]] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.focus_ops: set[int] = set()
        self.sweep_workers: dict[int, int] = {}
        self.op_index = 0

    def call(self, op, timed: bool, traced: bool = False) -> float:
        """Run one operation and check it; returns its wall time in seconds."""
        if traced:
            self.tracer.op = self.op_index
            if op.focus:
                self.focus_ops.add(self.op_index)
            if op.kind == "simulate":
                self.sweep_workers[self.op_index] = op.workers
        self.op_index += 1
        out, err = io.StringIO(), io.StringIO()
        # garbage from the previous operation and from the checks is not this
        # operation's cost; a fresh CLI process would not carry it either
        gc.collect()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
        if traced:
            self.tracer.collect()
        if timed:
            self.attempted += 1
        if op.fault:
            if not op.check(code, out.getvalue()) and timed:
                self.failed += 1
            return elapsed
        if code != 0:
            message = f"{' '.join(op.argv)} exited {code}: {err.getvalue()[-1500:]}"
            print(f"operation failed: {message}", file=sys.stderr)
            if timed:
                self.failed += 1
            else:  # an untimed operation cannot be counted, so it spoils the run
                self.problems.append(message)
            return elapsed
        try:
            op.check(code, out.getvalue())
        except Exception as exc:  # a wrong output, or one that cannot be read
            self.problems.append(f"{op.kind} {' '.join(op.argv)}: {type(exc).__name__}: {exc}")
        if timed:
            self.times.setdefault(op.kind, []).append(elapsed)
        return elapsed

    def measure(self, seconds: float, trace: bool) -> tuple[list[float], list[float]]:
        """Whole rounds until ``seconds`` have passed; with ``trace``, rounds
        alternate between untraced and traced.  Returns the round times."""
        plain, traced = [], []
        start = time.perf_counter()
        rounds = 0
        min_rounds = 2 * MIN_ROUNDS if trace else MIN_ROUNDS
        # start a round only if it is expected to end within ``seconds``
        while rounds < min_rounds or (time.perf_counter() - start
                                      + statistics.median(plain + traced) < seconds):
            on = trace and rounds % 2 == 1
            if on:
                self.tracer.install()
            try:
                total = sum(self.call(op, timed=not on, traced=on) for op in self.workload.round)
            finally:
                if on:
                    self.tracer.uninstall()
            (traced if on else plain).append(total)
            rounds += 1
        return plain, traced


def end_to_end(times: dict[str, list[float]], runs: int, setup: list[float]) -> dict:
    """{metric: (value, unit, samples)} from the untraced operation times."""
    def p50_ms(kind):
        return statistics.median(times[kind]) * 1e3, "ms", len(times[kind])

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "runs_per_s": (runs / statistics.median(times["simulate"]), "1/s", len(times["simulate"])),
        "query_ms_p50": p50_ms("query"),
        "impute_ms_p50": p50_ms("impute"),
        "impute_stochastic_ms_p50": p50_ms("impute_stochastic"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dpimpute" / "cli.py").is_file():
        print(f"error: no dpimpute sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("DPIMPUTE_THREADS", None)
    sys.path.insert(0, str(SRC))

    import checks  # numpy is imported only after the thread limits are set
    import tracing
    import workloads
    from dpimpute import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: dpimpute imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if abs(checks.available_case_estimand() - checks.AVAILABLE_CASE_ESTIMAND) > 5e-7:
        print("error: quadrature disagrees with the available-case estimand", file=sys.stderr)
        return 2

    seed = args.seed % 2**63
    work = BENCH / "_work" / args.workload
    out_dir = BENCH / "_out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](work, seed)
    spool = work / "spool"
    spool.mkdir()
    tracer = tracing.Tracer(spool) if args.trace else None
    runner = Runner(cli, workload, tracer)

    if args.trace:
        import_ms = [fresh_import_ms() for _ in range(IMPORT_REPEATS)]
    else:
        setup = [fresh_process_seconds(workload.first.argv) for _ in range(SETUP_REPEATS)]
    for op in workload.warmup:
        runner.call(op, timed=False)
    plain, traced = runner.measure(args.seconds, bool(args.trace))

    if args.trace:
        stats = tracing.layer_metrics(tracer.spans, runner.focus_ops, runner.sweep_workers,
                                      workload.unit_names)
        stats["cli.import_ms"] = tracing.Stat(statistics.median(import_ms), "ms", len(import_ms))
        p, q = statistics.median(plain), statistics.median(traced)
        stats["trace.overhead_pct"] = tracing.Stat(100.0 * (q - p) / p, "%", len(traced))
        table = {k: (s.value, s.unit, s.samples) for k, s in sorted(stats.items())}
        tracer.dump(out_dir / f"{args.workload}.spans.jsonl")
    else:
        (runs,) = {op.runs for op in workload.round if op.kind == "simulate"}
        table = end_to_end(runner.times, runs, setup)

    correct = not runner.problems
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in table.items()},
    }
    report = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, samples={k: n for k, (_, _, n) in table.items()},
                  op_seconds=runner.times, round_seconds={"untraced": plain, "traced": traced})
    (out_dir / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    for k, (v, u, n) in table.items():
        print(f"{args.workload:22s} {k:40s} {v:14.6g} {u:6s} n={n}")
    print(f"{args.workload:22s} attempted={runner.attempted} failed={runner.failed} "
          f"correct={str(correct).lower()}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
