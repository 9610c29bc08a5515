"""Command-line front end: simulate, bounds, impute and query subcommands."""

from __future__ import annotations

import argparse
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
    _read_records,
    is_finite_real,
    read_dataset_csv,
    write_dataset_csv,
)
from .imputation import (ImputationModel, _check_coefficients,
                         fit_imputation_model, impute)
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


def _atomic_write(outputs) -> None:
    """Write each (path, text or write(tmp) function) to a temp file in the
    path's directory; rename the temps only once all are written."""
    tmps = []
    try:
        for path, content in outputs:
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
            tmps.append(tmp)
            os.close(fd)
            if callable(content):
                content(tmp)
            else:
                Path(tmp).write_text(content, encoding="utf-8", newline="")
        for tmp, (path, _) in zip(tmps, outputs):
            os.replace(tmp, path)
    except OSError as exc:  # name the target, not its temp file
        raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from None
    finally:  # the temps left are those of a failed call
        for tmp in filter(os.path.exists, tmps):
            os.unlink(tmp)


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
                if not isinstance(raw[key], list):
                    raise ValueError(f"{key} must be a JSON list, got {raw[key]!r}")
                raw[key] = tuple(raw[key])
        cfg = simulation.SimConfig(**raw)
    except (TypeError, ValueError) as exc:
        return _fail(EXIT_BAD_CONFIG, f"bad config: {exc}")
    if args.workers < 0:
        return _fail(EXIT_BAD_CONFIG, f"--workers must be >= 0, got {args.workers}")

    records, failures = simulation.run_sweep(cfg, workers=args.workers)
    for f in failures:
        print(f"run {f.run} {f.strategy} failed: {f.message}", file=sys.stderr)
    if not records:
        return _fail(EXIT_RUNTIME, "all runs failed")
    summary = simulation.summarize_runs(cfg, records, failures)
    outputs = [(output_dir / "runs.csv", simulation.runs_csv_text(records)),
               (output_dir / "summary.csv", simulation.summary_csv_text(summary))]
    if emit_svg:
        outputs.append((output_dir / "boxplot.svg", svgplot.render_boxplot(summary)))
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write(outputs)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write outputs: {exc}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    try:
        universe = Universe((args.lo, args.hi))
        base = mean_global_sensitivity(universe, args.n)
        if args.n_mis > args.n:
            raise ValueError(f"--n-mis {args.n_mis} exceeds --n {args.n}")
        payload = {
            "base_sensitivity": base,
            "inflated_sensitivity": inflated_sensitivity(base, args.n_mis),
        }
        for key, k, exponent in (
            ("group_privacy_factor", args.n_mis + 1, "(n_mis+1)·ε"),
            ("uniform_worst_case", args.n, "n·ε"),
        ):
            try:
                payload[key] = group_privacy_factor(args.epsilon, k)
            except OverflowError:
                raise ValueError(
                    f"{key} = e^({exponent}) = e^{k * args.epsilon:g} overflows a float"
                ) from None
        text = json.dumps(payload, allow_nan=False)
    except (ValueError, OverflowError) as exc:
        return _fail(EXIT_BAD_CONFIG, str(exc))
    print(text)
    return EXIT_OK


def _load_model(path: str, data: Dataset) -> ImputationModel:
    """Read a model JSON {"beta": [β₀, β₁..β_d], "private": bool,
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
        private=private,
        epsilon_spent=float(spent),
    )
    model = ImputationModel(fit=fit, stochastic=False)
    _check_coefficients(data, model)  # β₀ first, then one per covariate
    return model


def cmd_impute(args) -> int:
    # a saved model fixes the fit, so these flags would have no effect
    fit_flags = args.privacy_epsilon is not None or args.stochastic
    if args.model and fit_flags:
        return _fail(EXIT_BAD_CONFIG, "--model cannot be combined with "
                     "--privacy-epsilon or --stochastic")
    if args.privacy_epsilon is not None and args.stochastic:
        return _fail(EXIT_BAD_CONFIG, "--stochastic needs a non-private fit, "
                     "so it cannot be combined with --privacy-epsilon")
    if args.privacy_epsilon is not None and not 0 < args.privacy_epsilon < math.inf:
        return _fail(EXIT_BAD_CONFIG, "--privacy-epsilon must be finite and "
                     f"positive, got {args.privacy_epsilon}")
    try:
        data, records = _read_records(args.data, (args.lo, args.hi))
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
            )
        completed = impute(data, model, rng.split(1))
    except (ValueError, RuntimeError) as exc:
        return _fail(EXIT_RUNTIME, str(exc))
    outputs = [(Path(args.out), lambda tmp: write_dataset_csv(completed, tmp, records))]
    if args.save_model:  # the format _load_model reads
        fit = model.fit
        text = json.dumps({"beta": fit.beta.tolist(), "private": fit.private,
                           "epsilon_spent": fit.epsilon_spent})
        outputs.append((Path(args.save_model), text + "\n"))
    try:
        _atomic_write(outputs)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write output: {exc}")
    return EXIT_OK


def cmd_query(args) -> int:
    try:
        budget = PrivacyBudget(args.epsilon, imputation_share=args.split)
    except ValueError as exc:
        return _fail(EXIT_BAD_CONFIG, f"bad budget: {exc}")
    try:
        data = read_dataset_csv(args.data, (args.lo, args.hi))
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read dataset: {exc}")
    except ValueError as exc:
        return _fail(EXIT_BAD_CONFIG, f"bad dataset: {exc}")
    try:
        result = strategies.run_strategy(
            _STRATEGY_FLAG[args.strategy], data, budget, RandomSource(args.seed)
        )
        text = json.dumps(dataclasses.asdict(result), allow_nan=False)
    except (ValueError, RuntimeError) as exc:
        return _fail(EXIT_RUNTIME, str(exc))
    print(text)
    return EXIT_OK


def _seed(text: str) -> int:
    """--seed: an int >= 0; anything else is a usage error (exit 1)."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset CSV (x1..xd,y,missing)")
    p.add_argument("--lo", type=float, default=0.0, help="response lower bound")
    p.add_argument("--hi", type=float, default=1.0, help="response upper bound")
    p.add_argument("--seed", type=_seed, default=0, help="random seed (>= 0)")


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit EXIT_BAD_CONFIG (argparse's own 2 is EXIT_IO)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
        default=1,
        help="worker processes (default 1; 0 = one per usable CPU, also the maximum)",
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
    p.add_argument("--intercept", action="store_true", help="no effect, always on")
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
