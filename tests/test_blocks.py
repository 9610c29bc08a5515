"""A sweep releases its runs in blocks from stacked per-run statistics; no
output depends on the block a run falls in or on the worker count."""

import importlib.util
import json
import math
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dpimpute import (
    PrivacyBudget,
    RandomSource,
    SimConfig,
    cli,
    generate_population,
    inject_missingness,
    run_strategy,
    run_sweep,
    simulation,
)
from dpimpute.simulation import RunFailure, RunRecord, runs_csv_text

ROOT = Path(__file__).resolve().parent.parent

# n = 3 mixes runs with no observed response (available-case fails) and
# runs with fewer complete cases than coefficients (the OLS fit fails); at
# n = 5 and ε = 3.5e-307 some noise scales are refused too, next to releases
CONFIGS = {"n3": SimConfig(n=3, runs=200, seed=1),
           "n1000": SimConfig(n=1000, runs=300, seed=12),
           "scales": SimConfig(n=5, runs=200, seed=3, epsilon=3.5e-307)}
REFUSALS = {  # (strategy, kind of refusal): runs
    "n3": {("available_case", "NoObservedResponsesError"): 27,
           ("impute_then_query", "DegenerateDesignError"): 169},
    "n1000": {},
    "scales": {("available_case", "NoObservedResponsesError"): 5,
               ("available_case", "noise scale"): 95,
               ("impute_then_query", "DegenerateDesignError"): 100,
               ("impute_then_query", "noise scale"): 60,
               ("dp_impute_then_query", "noise scale"): 200},
}


def sweep(cfg, workers, size, monkeypatch):
    """runs.csv and the failures of a sweep in blocks of ``size`` runs."""
    monkeypatch.setattr(simulation, "_block_size", lambda runs, n, workers: size)
    records, failures = run_sweep(cfg, workers)
    return runs_csv_text(records), tuple(failures)


def rebuilt_dataset(cfg, run):
    """Run ``run``'s masked Dataset, drawn on the sweep's streams."""
    base = RandomSource(cfg.seed)
    data = generate_population(cfg, base.split(run, simulation._DATA))
    return inject_missingness(data, base.split(run, simulation._MASK))


def refusal(failure):
    """The kind of refusal a failure line names."""
    kind = failure.message.split(":")[0]
    return "noise scale" if "noise scale must lie in" in failure.message else kind


class TestBlockPartition:
    @pytest.mark.parametrize("name", CONFIGS)
    def test_outputs_equal_for_every_block_size_and_worker_count(self, name, monkeypatch):
        cfg = CONFIGS[name]
        outputs = {(size, w): sweep(cfg, w, size, monkeypatch)
                   for size in (1, 7, 250) for w in (1, 2)}
        assert len(set(outputs.values())) == 1
        assert Counter((f.strategy, refusal(f)) for f in outputs[1, 1][1]) == REFUSALS[name]

    def test_failing_run_leaves_block_mates_unchanged(self, monkeypatch):
        cfg = SimConfig(n=1000, runs=7, seed=12)
        clean = simulation._execute_block(cfg, range(7))
        real = simulation._execute_run

        def planted(cfg, data, mask):  # run 3 observes no response at all
            stat = real(cfg, data, mask)
            if data.key[0] != 3:
                return stat
            p = cfg.d + 1
            return stat._replace(n_mis=cfg.n, missing_covariates=np.full((cfg.n, cfg.d), 0.5),
                                 complete_cases=(np.zeros((p, p)), np.zeros(p), 0.0))

        monkeypatch.setattr(simulation, "_execute_run", planted)
        out = simulation._execute_block(cfg, range(7))
        assert [r for r in out if r.run != 3] == [r for r in clean if r.run != 3]
        assert [type(r) for r in out if r.run == 3] == [RunFailure, RunFailure, RunRecord]
        assert [r.message for r in out if isinstance(r, RunFailure)] == [
            "NoObservedResponsesError: no observed responses",
            "DegenerateDesignError: 0 rows and 3 columns give a singular Gram matrix "
            "(rtol 1e-10)",
        ]

    @pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS)
    def test_run_strategy_on_the_rebuilt_dataset_equals_the_sweep(self, cfg):
        records, failures = run_sweep(cfg)
        swept = {(r.run, r.strategy): r for r in records + failures}
        for run in range(cfg.runs):
            d = rebuilt_dataset(cfg, run)
            for name in cfg.strategies:
                rng = RandomSource(cfg.seed).split(
                    run, simulation._STRATEGY_BASE + simulation._STRATEGY_TAG[name])
                budget = PrivacyBudget(cfg.epsilon, imputation_share=cfg.split)
                try:
                    res = run_strategy(name, d, budget, rng)
                except ValueError as exc:
                    assert swept[run, name].message == f"{type(exc).__name__}: {exc}"
                    continue
                got = swept[run, name]
                assert repr((res.value, res.n_mis_at_query, res.epsilon_spent_total,
                             res.sensitivity_used)) == repr(
                    (got.value, got.n_mis, got.epsilon_spent, got.sensitivity_used))


class TestBlockSize:
    @pytest.mark.parametrize("runs, n, workers, size", [
        (2000, 1000, 2, 131),  # 2¹⁷ // n
        (2000, 10, 2, 250),  # the cap
        (10, 50, 2, 2),  # four blocks per worker
        (4, 10**6, 1, 1),  # a large n runs one at a time
    ])
    def test_block_size(self, runs, n, workers, size):
        assert simulation._block_size(runs, n, workers) == size


class RecordingPool:
    """A process pool stand-in that records its size and maps in-process."""

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestWorkerCount:
    cfg = SimConfig(n=50, runs=3, seed=1)

    @pytest.fixture
    def sizes(self, monkeypatch):
        monkeypatch.setattr(RecordingPool, "sizes", [], raising=False)
        monkeypatch.setattr(simulation, "ProcessPoolExecutor", RecordingPool)
        return RecordingPool.sizes

    def test_zero_counts_the_cpus_this_process_may_use(self, monkeypatch, sizes):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        serial = run_sweep(self.cfg, workers=1)
        assert run_sweep(self.cfg, workers=0) == serial
        assert run_sweep(self.cfg, workers=5) == serial
        assert sizes == [3, 3]

    def test_zero_without_affinity_counts_every_cpu(self, monkeypatch, sizes):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        run_sweep(self.cfg, workers=0)
        assert sizes == [6]

    def test_one_usable_cpu_runs_without_a_pool(self, monkeypatch, sizes):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        records, _ = run_sweep(self.cfg, workers=0)
        assert len(records) == 9 and sizes == []


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTraceGuard:
    def test_traced_sweep_reports_every_per_run_figure(self, tmp_path):
        # a traced benchmark result lacks any figure whose span never fires
        tracing = load_tracing()
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        want = {m["name"] for m in per_layer if m["name"].startswith("simulation.")}
        want |= {"core_data.dataset_count", "core_data.copied_mb",
                 "mechanisms.random_source_count"}
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"n": 200, "runs": 20, "seed": 1,
                                      "output_dir": str(tmp_path / "out")}))
        spool = tmp_path / "spool"
        spool.mkdir()
        tracer = tracing.Tracer(spool)
        workers = {0: 1, 1: 2}
        tracer.install()
        try:
            for op, w in workers.items():
                tracer.op = op
                assert cli.main(["simulate", "--config", str(config), "--workers", str(w)]) == 0
                tracer.collect()
        finally:
            tracer.uninstall()
        for op in workers:
            stats = tracing.layer_metrics(tracer.spans, {op}, workers, ("simulation.run",))
            assert want <= set(stats), sorted(want - set(stats))
            assert all(math.isfinite(stats[k].value) for k in want)
            # a run's data and mask streams are built, and seeded together, by
            # its block; the masked Dataset derives from the checked population
            assert stats["mechanisms.random_source_count"].value == 0
            assert stats["core_data.dataset_count"].value == 1
        runs = [s for s in tracer.spans if s[3] == "simulation.run"]
        assert sorted(s[7] for s in runs) == [0] * 20 + [1] * 20
