import json
import math

import numpy as np
import pytest

from dpimpute import Dataset, Universe, write_dataset_csv
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
    d = Dataset(x, y, np.asarray(mask, dtype=bool), Universe.unit(2))
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

    def test_imputes_from_saved_model(self, tmp_path):
        data = write_data(tmp_path, [False] * 18 + [True, True])
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"beta": [0.5, 0.5], "private": False,
                                     "epsilon_spent": 0.0}))
        out = tmp_path / "completed.csv"
        assert main(
            ["impute", "--data", str(data), "--out", str(out),
             "--model", str(model)]
        ) == 0

    def test_private_fit(self, tmp_path):
        data = write_data(tmp_path, [False] * 30 + [True] * 5)
        out = tmp_path / "completed.csv"
        assert main(
            ["impute", "--data", str(data), "--out", str(out),
             "--privacy-epsilon", "5.0", "--seed", "1"]
        ) == 0


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
            assert "row 1 y: value 50.0 outside [0.0, 1.0]" in err

    def test_nan_covariate_refused(self, tmp_path, capsys):
        data = self.write_csv(tmp_path, ["0.25,0.5,0.4,0", "0.75,0.5,0.3,0",
                                         "0.5,nan,,1", "0.5,0.75,0.6,0", "0.1,0.2,0.3,0"])
        code = main(["query", "--data", str(data), "--strategy", "impute",
                     "--epsilon", "1"])
        assert code == 1
        assert "row 2 x2" in capsys.readouterr().err

    def test_violation_list_is_capped(self, tmp_path, capsys):
        data = self.write_csv(tmp_path, ["0.5,0.5,2.0,0"] * 12)
        assert main(["query", "--data", str(data), "--strategy", "impute",
                     "--epsilon", "1"]) == 1
        err = capsys.readouterr().err
        assert "12 value(s)" in err and "row 9 y" in err
        assert "row 10 y" not in err and "and 2 more" in err

    @pytest.mark.parametrize("rows", [["0.3,0.4"], ["0.3,0.4,0.5,0,extra"],
                                      ["0.3,0.4,0.5,yes"]])
    def test_malformed_row(self, tmp_path, capsys, rows):
        data = self.write_csv(tmp_path, ["0.1,0.2,0.3,0", *rows])
        assert main(["query", "--data", str(data), "--strategy", "impute",
                     "--epsilon", "1"]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_empty_csv(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("")
        assert main(["impute", "--data", str(data), "--out",
                     str(tmp_path / "out.csv")]) == 1

    @pytest.mark.parametrize("model", [
        {"private": False, "epsilon_spent": 0.0},
        {"beta": [0.5, 0.5], "private": False, "epsilon_spent": None},
        [0.5, 0.5],
    ])
    def test_malformed_model(self, tmp_path, capsys, model):
        data = write_data(tmp_path, [False] * 18 + [True, True])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        assert main(["impute", "--data", str(data), "--out",
                     str(tmp_path / "out.csv"), "--model", str(path)]) == 1
        assert "bad model" in capsys.readouterr().err

    def test_missing_model_file(self, tmp_path):
        data = write_data(tmp_path, [False] * 18 + [True, True])
        assert main(["impute", "--data", str(data), "--out",
                     str(tmp_path / "out.csv"),
                     "--model", str(tmp_path / "nope.json")]) == 2

    def test_bad_thread_variable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DPIMPUTE_THREADS", "x")
        assert main(["simulate", "--config", str(write_config(tmp_path))]) == 1
        assert "DPIMPUTE_THREADS" in capsys.readouterr().err
