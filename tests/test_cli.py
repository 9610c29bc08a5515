import json
import math

import numpy as np
import pytest

from dpimpute import (
    Dataset,
    RandomSource,
    Universe,
    fit_imputation_model,
    impute,
    read_dataset_csv,
    write_dataset_csv,
)
from dpimpute.cli import main


def write_config(tmp_path, **overrides):
    cfg = {
        "n": 300,
        "d": 2,
        "beta": [0.5, 0.5],
        "sigma2": 0.1,
        "epsilon": 1.0,
        "split": 0.5,
        "runs": 3,
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def write_data(tmp_path, mask):
    n = len(mask)
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(n, 2))
    y = np.clip(x @ [0.5, 0.5] + rng.normal(0, 0.1, n), 0, 1)
    d = Dataset(x, y, np.asarray(mask, dtype=bool), Universe.unit())
    path = tmp_path / "data.csv"
    write_dataset_csv(d, path)
    return path


class TestSimulate:
    def test_writes_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 4  # header + 3 strategy rows
        assert (out / "runs.csv").exists()
        assert not (out / "boxplot.svg").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, runs=1)
        main(["simulate", "--config", str(cfg)])
        first = (tmp_path / "out" / "runs.csv").read_bytes()
        main(["simulate", "--config", str(cfg)])
        assert (tmp_path / "out" / "runs.csv").read_bytes() == first

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epsilonn=1.0)
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "epsilonn" in capsys.readouterr().err

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_failed_write_names_the_target(self, tmp_path, capsys):
        # runs.csv is a directory, so the rename onto it fails
        cfg = write_config(tmp_path)
        target = tmp_path / "out" / "runs.csv"
        target.mkdir(parents=True)
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert repr(str(target)) in err and "runs.csv." not in err
        assert sorted(p.name for p in target.parent.iterdir()) == ["runs.csv"]

    def test_emit_svg(self, tmp_path):
        cfg = write_config(tmp_path, emit_svg=True)
        assert main(["simulate", "--config", str(cfg)]) == 0
        svg = (tmp_path / "out" / "boxplot.svg").read_text()
        assert svg.startswith("<svg") and 'stroke="red"' in svg


class TestBounds:
    def test_formulas(self, capsys):
        assert main(
            ["bounds", "--epsilon", "1", "--n-mis", "2", "--lo", "0",
             "--hi", "1", "--n", "10"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["base_sensitivity"] == pytest.approx(0.1)
        assert out["inflated_sensitivity"] == pytest.approx(0.3)
        assert out["group_privacy_factor"] == pytest.approx(math.exp(3))
        assert out["uniform_worst_case"] == pytest.approx(math.exp(10))

    def test_no_missingness(self, capsys):
        main(["bounds", "--epsilon", "1", "--n-mis", "0", "--lo", "0",
              "--hi", "1", "--n", "10"])
        out = json.loads(capsys.readouterr().out)
        assert out["inflated_sensitivity"] == out["base_sensitivity"]

    def test_output_is_strict_json(self, capsys):
        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        assert main(
            ["bounds", "--epsilon", "2", "--n-mis", "3", "--lo", "-1",
             "--hi", "1", "--n", "100"]
        ) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert out["inflated_sensitivity"] == pytest.approx(0.08)
        assert out["group_privacy_factor"] == pytest.approx(math.exp(8))

    def test_usage_error_exits_bad_config(self, capsys):
        # argparse reads "-1e3" as an option, not a value; its usage exit
        # would be 2, which means an I/O error here
        argv = ["bounds", "--epsilon", "1", "--n-mis", "0", "--hi", "1",
                "--n", "10"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--lo", "-1e3"])
        assert exc.value.code == 1
        assert "--lo: expected one argument" in capsys.readouterr().err
        for bad in (["bounds"], ["query", "--data", "x.csv"], ["nope"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 1
        assert main([*argv, "--lo=-1e3"]) == 0

    @pytest.mark.parametrize("args", [
        ["--epsilon", "inf", "--lo", "0", "--hi", "1"],
        ["--epsilon", "nan", "--lo", "0", "--hi", "1"],
        ["--epsilon", "1", "--lo=-1e308", "--hi", "1e308"],
    ])
    def test_non_finite_result_refused(self, capsys, args):
        # JSON has no Infinity or NaN, so such a result is an error, not output
        assert main(["bounds", *args, "--n-mis", "2", "--n", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize("n_mis, n, message", [
        ("0", "1000", "uniform_worst_case = e^(n·ε) = e^1000 overflows a float"),
        ("709", "709", "group_privacy_factor = e^((n_mis+1)·ε) = e^710 overflows a float"),
    ])
    def test_overflowing_factor_is_named(self, capsys, n_mis, n, message):
        assert main(["bounds", "--epsilon", "1", "--n-mis", n_mis, "--lo", "0",
                     "--hi", "1", "--n", n]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_more_missing_than_records_refused(self, capsys):
        # no dataset of 10 records has 20 missing responses
        assert main(["bounds", "--epsilon", "1", "--n-mis", "20", "--lo", "0",
                     "--hi", "1", "--n", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--n-mis 20 exceeds --n 10" in captured.err

    def test_invalid_numerics(self):
        assert main(
            ["bounds", "--epsilon", "1", "--n-mis", "0", "--lo", "1",
             "--hi", "0", "--n", "10"]
        ) == 1


class TestImpute:
    def test_complete_dataset_identity(self, tmp_path, capsys):
        data = write_data(tmp_path, [False] * 20)
        out = tmp_path / "completed.csv"
        assert main(["impute", "--data", str(data), "--out", str(out)]) == 0
        got = out.read_text().splitlines()
        src = data.read_text().splitlines()
        assert got == src
        assert all(line.endswith(",0") for line in got[1:])

    def test_fills_missing_and_saves_model(self, tmp_path):
        data = write_data(tmp_path, [False] * 18 + [True, True])
        out = tmp_path / "completed.csv"
        model = tmp_path / "model.json"
        assert main(
            ["impute", "--data", str(data), "--out", str(out),
             "--save-model", str(model)]
        ) == 0
        lines = out.read_text().splitlines()[1:]
        assert all(line.endswith(",0") for line in lines)
        fit = json.loads(model.read_text())
        assert set(fit) == {"beta", "private", "epsilon_spent"}
        assert fit["private"] is False

    @pytest.mark.parametrize("flags", [[], ["--privacy-epsilon", "1", "--intercept"]])
    def test_saved_model_text(self, tmp_path, flags):
        data = write_data(tmp_path, [False] * 30 + [True] * 5)
        model = tmp_path / "model.json"
        assert main(["impute", "--data", str(data), "--out",
                     str(tmp_path / "completed.csv"), "--seed", "2",
                     "--save-model", str(model), *flags]) == 0
        epsilon = float(flags[1]) if flags else None
        fit = fit_imputation_model(
            read_dataset_csv(data, (0.0, 1.0)), privacy_epsilon=epsilon,
            rng=RandomSource(2).split(0),
        ).fit
        assert model.read_text() == json.dumps({
            "beta": [float(b) for b in fit.beta], "private": fit.private,
            "epsilon_spent": float(fit.epsilon_spent),
        }) + "\n"

    def test_imputes_from_saved_model(self, tmp_path):
        data = write_data(tmp_path, [False] * 18 + [True, True])
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"beta": [0.0, 0.5, 0.5], "private": False,
                                     "epsilon_spent": 0.0}))
        out = tmp_path / "completed.csv"
        assert main(
            ["impute", "--data", str(data), "--out", str(out),
             "--model", str(model)]
        ) == 0

    @pytest.mark.parametrize("flags", [
        [], ["--stochastic"], ["--privacy-epsilon", "1"], ["--model", "model.json"],
    ])
    def test_intercept_flag_has_no_effect(self, tmp_path, flags):
        # every fit has an intercept; the flag is accepted and changes nothing
        data = write_data(tmp_path, [False] * 30 + [True] * 5)
        (tmp_path / "model.json").write_text(json.dumps(
            {"beta": [0.1, 0.5, 0.3], "private": False, "epsilon_spent": 0.0}))
        flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
        outputs = []
        for extra in ([], ["--intercept"]):
            out = tmp_path / f"completed{len(outputs)}.csv"
            assert main(["impute", "--data", str(data), "--out", str(out),
                         "--seed", "4", *flags, *extra]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flags", [[], ["--privacy-epsilon", "1"], ["--stochastic"]])
    def test_no_covariates(self, tmp_path, flags):
        # d = 0: the model is the constant β₀ alone
        data = tmp_path / "data.csv"
        data.write_text("y,missing\n0.5,0\n0.2,1\n0.3,0\n")
        out = tmp_path / "completed.csv"
        assert main(["impute", "--data", str(data), "--out", str(out),
                     *flags]) == 0
        before = read_dataset_csv(data, (0.0, 1.0))
        after = read_dataset_csv(out, (0.0, 1.0))
        assert after.d == 0 and not after.mask.any()
        np.testing.assert_array_equal(after.response[~before.mask],
                                      before.response[~before.mask])
        assert 0.0 <= after.response[1] <= 1.0
        if not flags:  # OLS on a constant: the mean of the observed responses
            assert after.response[1] == pytest.approx(0.4)

    def test_private_fit(self, tmp_path):
        data = write_data(tmp_path, [False] * 30 + [True] * 5)
        out = tmp_path / "completed.csv"
        assert main(
            ["impute", "--data", str(data), "--out", str(out),
             "--privacy-epsilon", "5.0", "--seed", "1"]
        ) == 0


    def test_failed_model_write_leaves_no_output(self, tmp_path, capsys):
        # both outputs go to temp files, renamed only once both are written
        data = write_data(tmp_path, [False] * 18 + [True, True])
        kept = tmp_path / "kept.csv"
        kept.write_text("old\n")
        for out in (tmp_path / "new.csv", kept):
            assert main(["impute", "--data", str(data), "--out", str(out),
                         "--save-model", str(tmp_path / "no-dir" / "m.json")]) == 2
            assert "cannot write output" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "kept.csv"]
        assert kept.read_text() == "old\n"

    def test_failed_write_names_the_target(self, tmp_path, capsys):
        # the message names the path asked for, not the temp file beside it
        data = write_data(tmp_path, [False] * 18 + [True, True])
        target = tmp_path / "no-dir" / "m.json"
        assert main(["impute", "--data", str(data), "--out", str(tmp_path / "o.csv"),
                     "--save-model", str(target)]) == 2
        err = capsys.readouterr().err
        assert repr(str(target)) in err and "m.json." not in err

    @pytest.mark.parametrize("text, expected", [
        ("x1,y,missing\r\n0.50,0.5,0\r\n\r\n 0.1,0.30,0\r\n0.7,abc,1\r\n"
         "2e-1,,1\r\n\r\n0.9,2e-1 ,0\r\n",
         "x1,y,missing\n0.50,0.5,0\n 0.1,0.30,0\n0.7,{},0\n2e-1,{},0\n0.9,2e-1 ,0\n"),
        ("y,missing\r\n0.50,0\r\n,1\r\n\r\nabc,1\r\n 0.1,0\r\n2e-1,0\r\n",
         "y,missing\n0.50,0\n{},0\n{},0\n 0.1,0\n2e-1,0\n"),
    ], ids=["d1", "d0"])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_copies_record_text(self, tmp_path, text, expected, in_place):
        # an observed record keeps its spelling; a masked one keeps its x
        # text and gets repr of its fill; blank lines and \r are dropped
        data = tmp_path / "data.csv"
        data.write_bytes(text.encode())
        read = read_dataset_csv(data, (0.0, 1.0))
        completed = impute(read, fit_imputation_model(read, None), None)
        out = data if in_place else tmp_path / "completed.csv"
        assert main(["impute", "--data", str(data), "--out", str(out)]) == 0
        fills = completed.response[read.mask].tolist()
        assert out.read_bytes() == expected.format(*map(repr, fills)).encode()
        back = read_dataset_csv(out, (0.0, 1.0))
        assert back.covariates.tobytes() == completed.covariates.tobytes()
        assert back.response.tobytes() == completed.response.tobytes()


class TestCovariateCount:
    """d is read from the CSV header; there is no flag for it."""

    @pytest.mark.parametrize("d", [1, 3])
    def test_header_fixes_d(self, tmp_path, capsys, d):
        rng = np.random.default_rng(d)
        x = rng.uniform(size=(40, d))
        y = np.clip(x.mean(axis=1) + rng.normal(0, 0.1, 40), 0, 1)
        mask = np.arange(40) >= 30
        path = tmp_path / "data.csv"
        write_dataset_csv(Dataset(x, y, mask, Universe.unit()), path)
        out = tmp_path / "completed.csv"
        assert main(["impute", "--data", str(path), "--out", str(out),
                     "--intercept"]) == 0
        assert out.read_text().splitlines()[0] == ",".join(
            [f"x{j + 1}" for j in range(d)] + ["y", "missing"])
        assert main(["query", "--data", str(path), "--strategy", "dp-impute",
                     "--epsilon", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["n_mis_at_query"] == 10

    def test_header_with_gap_refused(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("x1,x3,y,missing\n0.1,0.2,0.3,0\n")
        assert main(["query", "--data", str(path), "--strategy", "impute",
                     "--epsilon", "1"]) == 1
        assert "bad CSV header" in capsys.readouterr().err


class TestQuery:
    def test_dp_impute_accounting(self, tmp_path, capsys):
        data = write_data(tmp_path, [False] * 30 + [True] * 10)
        assert main(
            ["query", "--data", str(data), "--strategy", "dp-impute",
             "--epsilon", "1", "--split", "0.5", "--seed", "3"]
        ) == 0
        res = json.loads(capsys.readouterr().out)
        assert res["epsilon_spent_total"] == 1.0
        assert res["strategy"] == "dp_impute_then_query"
        assert res["n_mis_at_query"] == 10

    def test_available_case_zero_observed(self, tmp_path, capsys):
        data = write_data(tmp_path, [True] * 10)
        code = main(
            ["query", "--data", str(data), "--strategy", "available-case",
             "--epsilon", "1"]
        )
        assert code == 3
        assert "observed" in capsys.readouterr().err

    def test_deterministic_given_seed(self, tmp_path, capsys):
        data = write_data(tmp_path, [False] * 30 + [True] * 10)
        args = ["query", "--data", str(data), "--strategy", "impute",
                "--epsilon", "1", "--seed", "5"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first


class TestMalformedInput:
    """Bad input from outside maps to an exit code, never a traceback."""

    def write_csv(self, tmp_path, rows):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,y,missing\n" + "".join(r + "\n" for r in rows))
        return path

    def test_response_outside_universe_refused(self, tmp_path, capsys):
        data = self.write_csv(tmp_path, ["0.25,0.5,0.4,0", "0.75,0.5,50.0,0",
                                         "0.5,0.25,,1", "0.5,0.75,0.6,0"])
        for cmd in (["query", "--strategy", "available-case", "--epsilon", "1"],
                    ["impute", "--out", str(tmp_path / "out.csv")]):
            assert main([*cmd, "--data", str(data)]) == 1
            err = capsys.readouterr().err
            assert "line 3 y: value 50.0 outside [0.0, 1.0]" in err

    def test_nan_covariate_refused(self, tmp_path, capsys):
        data = self.write_csv(tmp_path, ["0.25,0.5,0.4,0", "0.75,0.5,0.3,0",
                                         "0.5,nan,,1", "0.5,0.75,0.6,0", "0.1,0.2,0.3,0"])
        code = main(["query", "--data", str(data), "--strategy", "impute",
                     "--epsilon", "1"])
        assert code == 1
        assert "line 4 x2" in capsys.readouterr().err

    def test_violation_list_is_capped(self, tmp_path, capsys):
        data = self.write_csv(tmp_path, ["0.5,0.5,2.0,0"] * 12)
        assert main(["query", "--data", str(data), "--strategy", "impute",
                     "--epsilon", "1"]) == 1
        err = capsys.readouterr().err
        assert "12 value(s)" in err and "line 11 y" in err
        assert "line 12 y" not in err and "and 2 more" in err

    @pytest.mark.parametrize("rows", [["0.3,0.4"], ["0.3,0.4,0.5,0,extra"],
                                      ["0.3,0.4,0.5,yes"], ["0.1,abc,0.5,0"]])
    def test_malformed_row(self, tmp_path, capsys, rows):
        data = self.write_csv(tmp_path, ["0.1,0.2,0.3,0", *rows])
        assert main(["query", "--data", str(data), "--strategy", "impute",
                     "--epsilon", "1"]) == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", [
        ["query", "--strategy", "impute", "--epsilon", "1"],
        ["impute", "--out", "out.csv"],
    ])
    def test_header_only_csv(self, tmp_path, capsys, cmd):
        data = self.write_csv(tmp_path, [])
        cmd = [str(tmp_path / a) if a.endswith(".csv") else a for a in cmd]
        assert main([*cmd, "--data", str(data)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad dataset: no records after the header" in captured.err
        assert not (tmp_path / "out.csv").exists()

    def test_empty_csv(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("")
        assert main(["impute", "--data", str(data), "--out",
                     str(tmp_path / "out.csv")]) == 1

    @pytest.mark.parametrize("model", [
        {"private": False, "epsilon_spent": 0.0},
        {"beta": [0.0, 0.5, 0.5], "private": False, "epsilon_spent": None},
        [0.0, 0.5, 0.5],
        {"beta": [math.nan, 0.0, 0.0], "private": False, "epsilon_spent": 0.0},
        {"beta": [0.0, 0.5, "0.5"], "private": False, "epsilon_spent": 0.0},
        {"beta": [0.0, 0.5, 0.5], "private": "false", "epsilon_spent": 0.0},
        {"beta": [0.0, 0.5, 0.5], "private": True, "epsilon_spent": -1.0},
        {"beta": [0.0, 0.5, 0.5], "private": True, "epsilon_spent": math.inf},
        {"beta": [0.5, 0.5, 0.5, 0.5], "private": False, "epsilon_spent": 0.0},
        # d entries, no β₀: the shape a fit without an intercept used to save
        {"beta": [0.5, 0.5], "private": False, "epsilon_spent": 0.0},
    ])
    def test_malformed_model(self, tmp_path, capsys, model):
        data = write_data(tmp_path, [False] * 18 + [True, True])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        assert main(["impute", "--data", str(data), "--out",
                     str(tmp_path / "out.csv"), "--model", str(path)]) == 1
        assert "bad model" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        {"beta": ["a", "b"]},
        {"beta": [math.nan, 0.5]},
        {"n": 200.5},
        {"runs": 2.5},
        {"runs": True},
        {"seed": 1.5},
        {"seed": -1},
        {"sigma2": math.nan},
        {"sigma2": math.inf},
        {"output_dir": 5},
        {"epsilon": True},
        {"epsilon": math.inf},
        {"strategies": ["available_case", "available_case"]},
        {"strategies": []},
        {"split": False},
        {"epsilon": 0},
    ])
    def test_bad_config_value(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path, **override)
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "bad config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override", [
        {"strategies": "available_case"},
        {"beta": "05"},
    ])
    def test_config_string_for_list_refused(self, tmp_path, capsys, override):
        # a string is not split into its characters
        (key,) = override
        cfg = write_config(tmp_path, **override)
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert f"bad config: {key} must be a JSON list" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cmd", [
        ["query", "--strategy", "impute", "--epsilon", "1"],
        ["impute", "--out", "completed.csv"],
    ])
    def test_negative_seed_is_bad_argument(self, tmp_path, capsys, cmd):
        data = write_data(tmp_path, [False] * 18 + [True, True])
        cmd = [str(tmp_path / a) if a.endswith(".csv") else a for a in cmd]
        with pytest.raises(SystemExit) as exc:
            main([*cmd, "--data", str(data), "--seed", "-1"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed: must be an integer >= 0, got '-1'" in captured.err
        assert not (tmp_path / "completed.csv").exists()

    @pytest.mark.parametrize("flag", [["--stochastic"], ["--privacy-epsilon", "1"],
                                      ["--privacy-epsilon", "1", "--stochastic"]])
    def test_model_with_fit_flag_refused(self, tmp_path, capsys, flag):
        # a saved model fixes the fit; a fit flag next to it would be ignored
        data = write_data(tmp_path, [False] * 18 + [True, True])
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"beta": [0.0, 0.5, 0.5], "private": False,
                                     "epsilon_spent": 0.0}))
        out = tmp_path / "out.csv"
        assert main(["impute", "--data", str(data), "--out", str(out),
                     "--model", str(model), *flag]) == 1
        assert "--model cannot be combined" in capsys.readouterr().err
        assert not out.exists()

    def test_stochastic_private_fit_refused(self, tmp_path, capsys):
        # a private fit has no residual variance to draw the stochastic fill from
        data = write_data(tmp_path, [False] * 18 + [True, True])
        out = tmp_path / "out.csv"
        assert main(["impute", "--data", str(data), "--out", str(out),
                     "--privacy-epsilon", "1", "--stochastic"]) == 1
        assert "--stochastic needs a non-private fit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("budget", [
        ["--epsilon", "0"], ["--epsilon", "nan"], ["--epsilon", "inf"],
        ["--epsilon=-1"], ["--epsilon", "1", "--split", "1.5"],
        ["--epsilon", "1", "--split", "nan"],
    ])
    def test_bad_query_budget_refused(self, tmp_path, capsys, budget):
        # a bad argument exits 1 before the dataset is read, so a missing
        # file is never reached
        for data in (write_data(tmp_path, [False] * 18 + [True, True]),
                     tmp_path / "nope.csv"):
            assert main(["query", "--data", str(data), "--strategy",
                         "dp-impute", *budget]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "bad budget" in captured.err

    @pytest.mark.parametrize("epsilon", ["inf", "nan", "0", "-1"])
    def test_bad_privacy_epsilon_refused(self, tmp_path, capsys, epsilon):
        data = write_data(tmp_path, [False] * 18 + [True, True])
        out = tmp_path / "out.csv"
        assert main(["impute", "--data", str(data), "--out", str(out),
                     "--privacy-epsilon", epsilon]) == 1
        assert "--privacy-epsilon must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_model_file(self, tmp_path):
        data = write_data(tmp_path, [False] * 18 + [True, True])
        assert main(["impute", "--data", str(data), "--out",
                     str(tmp_path / "out.csv"),
                     "--model", str(tmp_path / "nope.json")]) == 2

    def test_negative_workers_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--workers", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--workers must be >= 0" in captured.err
        assert not (tmp_path / "out").exists()


class TestOverflowingNoise:
    """A budget so small that Δ/ε overflows a float is refused before any
    draw: no release carries infinite noise, and nothing reaches stdout."""

    @pytest.mark.parametrize("strategy", ["available-case", "impute", "dp-impute"])
    def test_query_refused(self, tmp_path, capsys, strategy):
        data = write_data(tmp_path, [False] * 18 + [True, True])
        assert main(["query", "--data", str(data), "--strategy", strategy,
                     "--epsilon", "1e-320"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "noise scale must lie in" in captured.err

    def test_private_impute_refused(self, tmp_path, capsys):
        data = write_data(tmp_path, [False] * 18 + [True, True])
        out = tmp_path / "out.csv"
        assert main(["impute", "--data", str(data), "--out", str(out),
                     "--privacy-epsilon", "1e-320"]) == 3
        assert "noise scale must lie in" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epsilon=1e-320)
        assert main(["simulate", "--config", str(cfg)]) == 3
        assert not (tmp_path / "out" / "runs.csv").exists()
        # each run's failure is printed before the summary line
        *runs, last = capsys.readouterr().err.splitlines()
        assert last == "error: all runs failed"
        assert len(runs) == 3 * 3  # runs x strategies
        assert all(r.startswith("run ") and "failed: ValueError: noise scale must lie in"
                   in r for r in runs)
