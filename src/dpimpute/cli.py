"""Command-line front end: simulate, bounds, impute and query subcommands."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import simulation, strategies, svgplot
from .core_data import (
    Dataset,
    PrivacyBudget,
    Universe,
    is_finite_real,
    read_dataset_csv,
    validate,
    write_dataset_csv,
)
from .imputation import ImputationModel, fit_imputation_model, impute
from .mechanisms import OlsFit, RandomSource
from .sensitivity import (
    group_privacy_factor,
    inflated_sensitivity,
    mean_global_sensitivity,
)

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_IO = 2
EXIT_RUNTIME = 3

_SIM_CONFIG_KEYS = {f.name for f in dataclasses.fields(simulation.SimConfig)}
_SIM_CONFIG_KEYS |= {"output_dir", "emit_svg"}

_STRATEGY_FLAG = {
    "available-case": strategies.AVAILABLE_CASE,
    "impute": strategies.IMPUTE_THEN_QUERY,
    "dp-impute": strategies.DP_IMPUTE_THEN_QUERY,
}


def _atomic_write_text(path: Path, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_simulate(args) -> int:
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        return _fail(EXIT_BAD_CONFIG, f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        return _fail(EXIT_BAD_CONFIG, "config must be a JSON object")
    unknown = set(raw) - _SIM_CONFIG_KEYS
    if unknown:
        return _fail(EXIT_BAD_CONFIG, f"unknown config key(s): {sorted(unknown)}")

    emit_svg = raw.pop("emit_svg", False)
    if not isinstance(emit_svg, bool):
        return _fail(EXIT_BAD_CONFIG, "emit_svg must be a boolean")
    try:
        output_dir = Path(raw.pop("output_dir", "."))
        for key in ("beta", "strategies"):
            if key in raw:
                raw[key] = tuple(raw[key])
        cfg = simulation.SimConfig(**raw)
    except (TypeError, ValueError) as exc:
        return _fail(EXIT_BAD_CONFIG, f"bad config: {exc}")
    try:
        workers = simulation.worker_count(args.workers)
    except ValueError as exc:
        return _fail(EXIT_BAD_CONFIG, f"bad DPIMPUTE_THREADS: {exc}")

    records, failures = simulation.run_sweep(cfg, workers=workers)
    if not records:
        return _fail(EXIT_RUNTIME, "all runs failed")
    summary = simulation.summarize_runs(cfg, records, failures)
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(output_dir / "runs.csv", simulation.runs_csv_text(records))
        _atomic_write_text(
            output_dir / "summary.csv", simulation.summary_csv_text(summary)
        )
        if emit_svg:
            _atomic_write_text(
                output_dir / "boxplot.svg", svgplot.render_boxplot(summary)
            )
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write outputs: {exc}")
    for f in failures:
        print(f"run {f.run} {f.strategy} failed: {f.message}", file=sys.stderr)
    return EXIT_OK


def cmd_bounds(args) -> int:
    try:
        universe = Universe((args.lo, args.hi), ())
        base = mean_global_sensitivity(universe, args.n)
        report = inflated_sensitivity(base, args.n_mis)
        payload = {
            "base_sensitivity": base,
            "inflated_sensitivity": report.inflated_sensitivity,
            "group_privacy_factor": group_privacy_factor(
                args.epsilon, args.n_mis + 1
            ),
            "uniform_worst_case": math.exp(args.n * args.epsilon),
        }
        text = json.dumps(payload, allow_nan=False)
    except (ValueError, OverflowError) as exc:
        return _fail(EXIT_BAD_CONFIG, str(exc))
    print(text)
    return EXIT_OK


_MAX_VIOLATIONS_SHOWN = 10


def _load_dataset(args) -> Dataset:
    """Read the CSV, with d taken from its header's x columns; data outside
    the universe voids every sensitivity bound, so it is refused with
    ValueError listing the first violations."""
    with open(args.data, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), [])
    d = sum(1 for column in header if column.startswith("x"))
    universe = Universe((args.lo, args.hi), ((0.0, 1.0),) * d)
    data = read_dataset_csv(args.data, universe)
    violations = validate(data)
    if violations:
        shown = [f"row {v.row} {v.column}: {v.message}"
                 for v in violations[:_MAX_VIOLATIONS_SHOWN]]
        more = len(violations) - len(shown)
        if more:
            shown.append(f"... and {more} more")
        raise ValueError(
            f"{len(violations)} value(s) outside the universe: " + "; ".join(shown)
        )
    return data


def _load_model(path: str, data: Dataset) -> ImputationModel:
    """Read a model JSON {"beta": [finite number, ...], "private": bool,
    "epsilon_spent": finite number >= 0}; any other value is a ValueError."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    beta, private, spent = raw["beta"], raw["private"], raw["epsilon_spent"]
    if not (isinstance(beta, list) and all(is_finite_real(b) for b in beta)):
        raise ValueError("beta must be a list of finite numbers")
    if not isinstance(private, bool):
        raise ValueError("private must be true or false")
    if not (is_finite_real(spent) and spent >= 0):
        raise ValueError("epsilon_spent must be a finite number >= 0")
    fit = OlsFit(
        beta=np.asarray(beta, dtype=np.float64),
        sigma2_hat=0.0,
        intercept=len(beta) == data.d + 1,
        private=private,
        epsilon_spent=float(spent),
    )
    return ImputationModel(fit=fit, stochastic=False)


def cmd_impute(args) -> int:
    # a saved model fixes the fit, so these flags would have no effect
    fit_flags = args.privacy_epsilon is not None or args.intercept or args.stochastic
    if args.model and fit_flags:
        return _fail(EXIT_BAD_CONFIG, "--model cannot be combined with "
                     "--privacy-epsilon, --intercept or --stochastic")
    if args.privacy_epsilon is not None and not 0 < args.privacy_epsilon < math.inf:
        return _fail(EXIT_BAD_CONFIG, "--privacy-epsilon must be finite and "
                     f"positive, got {args.privacy_epsilon}")
    try:
        data = _load_dataset(args)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read dataset: {exc}")
    except ValueError as exc:
        return _fail(EXIT_BAD_CONFIG, f"bad dataset: {exc}")
    if args.model:
        try:
            model = _load_model(args.model, data)
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot read model: {exc}")
        except (ValueError, KeyError, TypeError) as exc:
            return _fail(EXIT_BAD_CONFIG, f"bad model: {exc!r}")
    try:
        rng = RandomSource(args.seed)
        if not args.model:
            model = fit_imputation_model(
                data,
                privacy_epsilon=args.privacy_epsilon,
                rng=rng.split(0),
                stochastic=args.stochastic,
                intercept=args.intercept,
            )
        completed = impute(data, model, rng.split(1))
    except (ValueError, RuntimeError) as exc:
        return _fail(EXIT_RUNTIME, str(exc))
    try:
        write_dataset_csv(completed, args.out)
        if args.save_model:
            _atomic_write_text(
                Path(args.save_model), json.dumps(model.fit.to_json_dict()) + "\n"
            )
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write output: {exc}")
    return EXIT_OK


def cmd_query(args) -> int:
    try:
        data = _load_dataset(args)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read dataset: {exc}")
    except ValueError as exc:
        return _fail(EXIT_BAD_CONFIG, f"bad dataset: {exc}")
    try:
        budget = PrivacyBudget(args.epsilon, imputation_share=args.split)
        result = strategies.run_strategy(
            _STRATEGY_FLAG[args.strategy], data, budget, RandomSource(args.seed)
        )
    except (ValueError, RuntimeError) as exc:
        return _fail(EXIT_RUNTIME, str(exc))
    print(json.dumps(dataclasses.asdict(result)))
    return EXIT_OK


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset CSV (x1..xd,y,missing)")
    p.add_argument("--lo", type=float, default=0.0, help="response lower bound")
    p.add_argument("--hi", type=float, default=1.0, help="response upper bound")
    p.add_argument("--seed", type=int, default=0, help="random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpimpute",
        description="Differential-privacy-aware imputation toolkit and "
        "Monte Carlo harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the three-strategy Monte Carlo sweep")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: DPIMPUTE_THREADS env var, 0 = auto)",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bounds", help="print sensitivity and group-privacy bounds")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--n-mis", type=int, required=True, dest="n_mis")
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("impute", help="complete a dataset CSV")
    _add_dataset_args(p)
    p.add_argument("--out", required=True, help="completed CSV output path")
    p.add_argument("--model", help="fitted model JSON (skip fitting)")
    p.add_argument(
        "--privacy-epsilon",
        type=float,
        default=None,
        help="fit privately via the functional mechanism at this budget",
    )
    p.add_argument("--intercept", action="store_true")
    p.add_argument("--stochastic", action="store_true")
    p.add_argument("--save-model", help="write the fitted model JSON here")
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("query", help="release the DP mean of the response")
    _add_dataset_args(p)
    p.add_argument(
        "--strategy", required=True, choices=sorted(_STRATEGY_FLAG)
    )
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument(
        "--split",
        type=float,
        default=0.5,
        help="budget fraction spent on imputation (dp-impute only)",
    )
    p.set_defaults(func=cmd_query)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
