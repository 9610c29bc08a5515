"""Spans around dpimpute's public functions, installed from outside.

:class:`Tracer` replaces module attributes of ``dpimpute`` with wrappers
that record one span (name, start, end, parent) per call, plus a byte count
where one is meaningful.  Spans are kept in memory; :meth:`Tracer.dump`
writes them out when the benchmark ends.  Pool workers forked while the
wrappers are installed record their own spans and write them to a spool
file when they exit; :meth:`Tracer.collect` merges those files.

Tracing never changes arguments or return values, so traced outputs are
byte-identical to untraced ones.
"""

from __future__ import annotations

import functools
import json
import marshal
import os
import statistics
import sys
import time
from collections import defaultdict, namedtuple
from multiprocessing import util as mp_util
from pathlib import Path


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _fit_name(args, kwargs):
    private = _arg(args, kwargs, 1, "privacy_epsilon") is not None
    return "imputation.fit_fm" if private else "imputation.fit_ols"


def _impute_name(args, kwargs):
    model = _arg(args, kwargs, 1, "model")
    return "imputation.impute_stochastic" if model.stochastic else "imputation.impute"


def _dataset_bytes(args, kwargs, result):
    d = args[0]
    return d.covariates.nbytes + d.response.nbytes + d.mask.nbytes


# (module, attribute, span name or namer(args, kwargs), bytes(args, kwargs, result))
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_simulate", "cli.simulate", None),
    ("cli", "cmd_query", "cli.query", None),
    ("cli", "cmd_impute", "cli.impute", None),
    ("core_data", "read_dataset_csv", "core_data.read_csv",
     lambda a, k, r: _file_size(_arg(a, k, 0, "path"))),
    ("core_data", "write_dataset_csv", "core_data.write_csv",
     lambda a, k, r: _file_size(_arg(a, k, 1, "path"))),
    ("core_data", "Dataset.__post_init__", "core_data.dataset", _dataset_bytes),
    ("simulation", "run_sweep", "simulation.run_sweep", None),
    ("simulation", "_execute_run", "simulation.run", None),
    ("simulation", "generate_population", "simulation.generate", None),
    ("simulation", "inject_missingness", "simulation.mask", None),
    ("simulation", "summarize_runs", "simulation.summarize", None),
    ("simulation", "runs_csv_text", "simulation.csv_text", None),
    ("simulation", "summary_csv_text", "simulation.csv_text", None),
    ("strategies", "run_available_case", "strategies.available_case", None),
    ("strategies", "run_impute_then_query", "strategies.impute_then_query", None),
    ("strategies", "run_dp_impute_then_query", "strategies.dp_impute_then_query", None),
    ("imputation", "fit_imputation_model", _fit_name, None),
    ("imputation", "impute", _impute_name, None),
    ("mechanisms", "ols_fit", "mechanisms.ols_fit", None),
    ("mechanisms", "functional_mechanism_ols", "mechanisms.functional_mechanism", None),
    ("mechanisms", "laplace_sample", "mechanisms.laplace", None),
    ("mechanisms", "laplace_samples", "mechanisms.laplace", None),
    ("mechanisms", "RandomSource.__init__", "mechanisms.random_source", None),
)


class Tracer:
    """Records spans while installed; one instance per benchmark process.

    A span is ``(pid, id, parent_id, name, start_ns, end_ns, nbytes, op)``,
    where ``op`` is the index of the benchmark operation it belongs to.
    """

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._child_needs_flush = False
        os.register_at_fork(after_in_child=self._after_fork)

    # --- recording ------------------------------------------------------------

    def _after_fork(self) -> None:
        self.spans = []
        self._stack = []
        self._pid = os.getpid()
        # multiprocessing clears its finalizers when the child bootstraps, so
        # the flush is registered on the child's first span instead
        self._child_needs_flush = True

    def _flush_child(self) -> None:
        # marshal: fast enough that the flush barely delays pool shutdown
        (self.spool_dir / f"spans-{self._pid}.bin").write_bytes(marshal.dumps(self.spans))

    def _wrap(self, fn, name, nbytes):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._child_needs_flush:
                tracer._child_needs_flush = False
                mp_util.Finalize(None, tracer._flush_child, exitpriority=100)
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                label = name if isinstance(name, str) else name(args, kwargs)
                size = nbytes(args, kwargs, result) if nbytes else 0
                tracer.spans.append(
                    (tracer._pid, sid, parent, label, t0, t1, size, tracer.op)
                )

        return wrapper

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every dpimpute namespace that holds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "dpimpute" or k.startswith("dpimpute."))]
        for module, attr, name, nbytes in TARGETS:
            owner = sys.modules[f"dpimpute.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, nbytes))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name, nbytes)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patched.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patched):
            setattr(obj, attr, orig)
        self._patched.clear()

    def collect(self) -> None:
        """Merge the spool files of pool workers that have exited."""
        for path in sorted(self.spool_dir.glob("spans-*.bin")):
            self.spans.extend(marshal.loads(path.read_bytes()))
            path.unlink()

    def dump(self, path: Path) -> None:
        keys = ("pid", "id", "parent", "name", "start_ns", "end_ns", "bytes", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# --- analysis ---------------------------------------------------------------------


# a per-layer figure with the number of samples behind it
Stat = namedtuple("Stat", "value unit samples")


def layer_metrics(spans, focus_ops: set[int], sweep_workers: dict[int, int],
                  unit_names: tuple[str, ...]) -> dict[str, Stat]:
    """Per-layer figures from the spans of the traced operations.

    Timings are medians over the spans of the workload's focus operations;
    a layer that those operations never reach is taken from the other
    operations instead.  Counts are per unit span (a Monte Carlo run, or a
    CLI command) among the focus operations.  ``sweep_workers`` maps each
    simulate operation to its worker count.
    """
    by_name: dict[str, list[tuple]] = defaultdict(list)
    child_ns: dict[tuple, int] = defaultdict(int)
    for s in spans:
        by_name[s[3]].append(s)
        if s[2] >= 0:
            child_ns[(s[0], s[2])] += s[5] - s[4]

    def chosen(name):
        focus = [s for s in by_name[name] if s[7] in focus_ops]
        return focus or by_name[name]

    out: dict[str, Stat] = {}

    def median_stat(metric, values, unit):
        if values:
            out[metric] = Stat(statistics.median(values), unit, len(values))

    def timing(metric, name, self_time=False, unit="ms"):
        scale = 1e6 if unit == "ms" else 1e3
        median_stat(metric, [(s[5] - s[4] - (child_ns[(s[0], s[1])] if self_time else 0)) / scale
                             for s in chosen(name)], unit)

    for metric, name in (
        ("cli.query_self_ms", "cli.query"),
        ("cli.impute_self_ms", "cli.impute"),
        ("simulation.run_self_ms", "simulation.run"),
    ):
        timing(metric, name, self_time=True)
    for metric, name in (
        ("core_data.read_csv_ms", "core_data.read_csv"),
        ("core_data.write_csv_ms", "core_data.write_csv"),
        ("core_data.dataset_ms", "core_data.dataset"),
        ("simulation.generate_ms", "simulation.generate"),
        ("simulation.mask_ms", "simulation.mask"),
        ("simulation.summarize_ms", "simulation.summarize"),
        ("simulation.csv_text_ms", "simulation.csv_text"),
        ("imputation.fit_ols_ms", "imputation.fit_ols"),
        ("imputation.fit_fm_ms", "imputation.fit_fm"),
        ("imputation.impute_ms", "imputation.impute"),
        ("imputation.impute_stochastic_ms", "imputation.impute_stochastic"),
        ("mechanisms.ols_fit_ms", "mechanisms.ols_fit"),
        ("mechanisms.functional_mechanism_ms", "mechanisms.functional_mechanism"),
    ):
        timing(metric, name)
    for strategy in ("available_case", "impute_then_query", "dp_impute_then_query"):
        timing(f"strategies.{strategy}_ms", f"strategies.{strategy}")
        timing(f"strategies.{strategy}_self_ms", f"strategies.{strategy}", self_time=True)
    timing("mechanisms.laplace_us", "mechanisms.laplace", unit="us")
    timing("mechanisms.random_source_us", "mechanisms.random_source", unit="us")
    for metric, name in (("core_data.read_csv_mb_per_s", "core_data.read_csv"),
                         ("core_data.write_csv_mb_per_s", "core_data.write_csv")):
        median_stat(metric, [s[6] / 1e6 / ((s[5] - s[4]) / 1e9)
                             for s in chosen(name) if s[5] > s[4]], "MB/s")

    # per simulate call: wall time of run_sweep beyond each worker's share
    # of the run spans (for one worker, the serial loop's own cost)
    run_ns: dict[int, int] = defaultdict(int)
    for s in by_name["simulation.run"]:
        run_ns[s[7]] += s[5] - s[4]
    median_stat("simulation.pool_overhead_ms",
                [(s[5] - s[4] - run_ns[s[7]] / sweep_workers[s[7]]) / 1e6
                 for s in chosen("simulation.run_sweep")], "ms")

    # counts per unit span: walk each span up to its nearest unit ancestor
    by_key = {(s[0], s[1]): s for s in spans}
    unit_of: dict[tuple, bool] = {}

    def under_unit(key) -> bool:
        path = []
        found = False
        while key is not None:
            if key in unit_of:
                found = unit_of[key]
                break
            s = by_key[key]
            if s[3] in unit_names and s[7] in focus_ops:
                found = True
                break
            path.append(key)
            key = (s[0], s[2]) if s[2] >= 0 else None
        for k in path:
            unit_of[k] = found
        return found

    units = sum(1 for name in unit_names for s in by_name[name] if s[7] in focus_ops)
    if units:
        datasets = [s for s in by_name["core_data.dataset"] if under_unit((s[0], s[1]))]
        sources = [s for s in by_name["mechanisms.random_source"] if under_unit((s[0], s[1]))]
        out["core_data.dataset_count"] = Stat(len(datasets) / units, "count", units)
        out["core_data.copied_mb"] = Stat(sum(s[6] for s in datasets) / 1e6 / units, "MB", units)
        out["mechanisms.random_source_count"] = Stat(len(sources) / units, "count", units)
    return out
