import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import fuzzml
from fuzzml.cli import main
from fuzzml.dataset import load_dataset
from fuzzml.predictor import load_model

_COMMANDS = {"synth", "noise", "train", "predict", "eval", "cv", "grid",
             "noise-curve", "ablate", "export-rules"}

def _run_module(*args, stdout=subprocess.PIPE, **env):
    """``python -m fuzzml ARGS`` on the package these tests import, with ``env`` set."""
    path = [str(Path(fuzzml.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **env)
    return subprocess.run([sys.executable, "-m", "fuzzml", *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def _write_dataset(tmp_path, prefix="data", n=40, seed=0):
    code = main([
        "synth", "--kind", "union", "--n", str(n), "--d", "4",
        "--seed", str(seed), "--out-prefix", prefix,
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    return tmp_path / ("%s.X.csv" % prefix), tmp_path / ("%s.Y.csv" % prefix)


def _swap_first_columns(src, dst):
    """Copy a CSV with its first two columns, header names included, swapped."""
    lines = []
    for line in src.read_text().splitlines():
        head = "# " if line.startswith("# ") else ""
        cells = line[len(head):].split(",")
        cells[0], cells[1] = cells[1], cells[0]
        lines.append(head + ",".join(cells))
    dst.write_text("\n".join(lines) + "\n")
    return dst


class TestSynthAndNoise:
    def test_synth_writes_loadable_files(self, tmp_path):
        fx, fy = _write_dataset(tmp_path)
        data = load_dataset(fx, fy)
        assert (data.n_features, data.n_labels, data.n_samples) == (4, 5, 40)

    def test_noise_flips_requested_fraction(self, tmp_path):
        fx, fy = _write_dataset(tmp_path, n=20)
        code = main([
            "noise", "--features", str(fx), "--labels", str(fy),
            "--ratio", "0.5", "--seed", "1", "--out-prefix", "noisy",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        clean = load_dataset(fx, fy)
        noisy = load_dataset(tmp_path / "noisy.X.csv", tmp_path / "noisy.Y.csv")
        differs = (clean.labels != noisy.labels).any(axis=0)
        assert differs.sum() == 10
        np.testing.assert_array_equal(clean.features, noisy.features)


class TestTrainPredictEval:
    def test_full_pipeline(self, tmp_path, capsys):
        fx, fy = _write_dataset(tmp_path, n=60)
        assert main([
            "train", "--features", str(fx), "--labels", str(fy),
            "--rules", "2", "--max-iters", "3",
            "--out", "model.txt", "--out-dir", str(tmp_path),
        ]) == 0
        model = load_model(tmp_path / "model.txt")
        assert model.config.n_rules == 2

        assert main([
            "predict", "--model", str(tmp_path / "model.txt"),
            "--features", str(fx), "--out", "scores.csv",
            "--out-dir", str(tmp_path),
        ]) == 0
        scores = np.loadtxt(tmp_path / "scores.csv", delimiter=",", ndmin=2)
        assert scores.shape == (60, 5)

        capsys.readouterr()
        assert main([
            "eval", "--scores", str(tmp_path / "scores.csv"),
            "--labels", str(fy), "--out", "eval.csv", "--out-dir", str(tmp_path),
        ]) == 0
        line = capsys.readouterr().out.strip()
        assert (tmp_path / "eval.csv").read_text() == line + "\n"
        fields = line.split(",")
        assert len(fields) == 6
        ap = float(fields[0])
        assert 0.0 <= ap <= 1.0

    def test_predict_binary_output(self, tmp_path):
        fx, fy = _write_dataset(tmp_path, n=30)
        main(["train", "--features", str(fx), "--labels", str(fy),
              "--rules", "2", "--max-iters", "2",
              "--out", "model.txt", "--out-dir", str(tmp_path)])
        assert main([
            "predict", "--model", str(tmp_path / "model.txt"),
            "--features", str(fx), "--out", "bits.csv", "--binary",
            "--out-dir", str(tmp_path),
        ]) == 0
        bits = np.loadtxt(tmp_path / "bits.csv", delimiter=",", ndmin=2)
        assert set(np.unique(bits)).issubset({0.0, 1.0})

    def test_predict_refuses_a_reordered_feature_header(self, tmp_path, capsys):
        fx, fy = _write_dataset(tmp_path, n=30)
        main(["train", "--features", str(fx), "--labels", str(fy),
              "--rules", "2", "--max-iters", "2",
              "--out", "model.txt", "--out-dir", str(tmp_path)])
        model = str(tmp_path / "model.txt")
        swapped = _swap_first_columns(fx, tmp_path / "swapped.X.csv")
        capsys.readouterr()
        assert main(["predict", "--model", model, "--features", str(swapped),
                     "--out", "swapped.csv", "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err == ("error: feature header f2,f1,f3,f4 does not "
                                           "match the model's features f1,f2,f3,f4\n")
        assert not (tmp_path / "swapped.csv").exists()
        # a file without a header is still taken in the model's column order
        bare = tmp_path / "bare.X.csv"
        bare.write_text(fx.read_text().split("\n", 1)[1])
        for name, path in (("scores.csv", fx), ("bare.csv", bare)):
            assert main(["predict", "--model", model, "--features", str(path),
                         "--out", name, "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "bare.csv").read_text() == (tmp_path / "scores.csv").read_text()

    def test_eval_refuses_a_reordered_label_header(self, tmp_path, capsys):
        fx, fy = _write_dataset(tmp_path, n=30)
        main(["train", "--features", str(fx), "--labels", str(fy),
              "--rules", "2", "--max-iters", "2",
              "--out", "model.txt", "--out-dir", str(tmp_path)])
        main(["predict", "--model", str(tmp_path / "model.txt"), "--features", str(fx),
              "--out", "scores.csv", "--out-dir", str(tmp_path)])
        scores = str(tmp_path / "scores.csv")
        swapped = _swap_first_columns(fy, tmp_path / "swapped.Y.csv")
        capsys.readouterr()
        assert main(["eval", "--scores", scores, "--labels", str(swapped)]) == 3
        assert capsys.readouterr().err == ("error: score header y1,y2,y3,y4,y5 does not "
                                           "match the label header y2,y1,y3,y4,y5\n")
        # either file may go without a header
        bare = tmp_path / "bare.Y.csv"
        bare.write_text(fy.read_text().split("\n", 1)[1])
        assert main(["eval", "--scores", scores, "--labels", str(fy)]) == 0
        line = capsys.readouterr().out
        assert main(["eval", "--scores", scores, "--labels", str(bare)]) == 0
        assert capsys.readouterr().out == line

    def test_eval_refuses_a_headerless_score_file_of_another_shape(self, tmp_path, capsys):
        _, fy = _write_dataset(tmp_path, n=2)
        scores = tmp_path / "scores.csv"
        scores.write_text("0.5,0.5,0.5,0.5\n0.5,0.5,0.5,0.5\n")
        capsys.readouterr()
        assert main(["eval", "--scores", str(scores), "--labels", str(fy)]) == 3
        assert capsys.readouterr().err == \
            "error: scores have 2 rows of 4 cells but labels have 2 rows of 5 cells\n"

    def test_eval_refuses_a_header_of_another_width(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        labels = tmp_path / "labels.csv"
        scores.write_text("# a,b\n0.9,0.2,0.4\n0.1,0.8,0.3\n")
        labels.write_text("# a,b\n1,0,1\n0,1,0\n")
        capsys.readouterr()
        assert main(["eval", "--scores", str(scores), "--labels", str(labels)]) == 3
        assert capsys.readouterr() == ("", "error: score header names 2 columns but rows "
                                           "have 3 cells at %s line 1\n" % scores)

    def test_predict_refuses_a_headerless_feature_file_of_another_width(self, tmp_path,
                                                                        capsys):
        fx, fy = _write_dataset(tmp_path, n=30)
        main(["train", "--features", str(fx), "--labels", str(fy), "--rules", "2",
              "--max-iters", "2", "--out", "model.txt", "--out-dir", str(tmp_path)])
        narrow = tmp_path / "narrow.X.csv"
        narrow.write_text("0.5,0.5\n0.1,0.9\n")
        capsys.readouterr()
        assert main(["predict", "--model", str(tmp_path / "model.txt"),
                     "--features", str(narrow), "--out", "narrow.csv",
                     "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err == \
            "error: feature file has 2 cells per row but the model has 4 features\n"
        assert not (tmp_path / "narrow.csv").exists()

    def test_export_rules(self, tmp_path):
        fx, fy = _write_dataset(tmp_path, n=30)
        main(["train", "--features", str(fx), "--labels", str(fy),
              "--rules", "3", "--max-iters", "2",
              "--out", "model.txt", "--out-dir", str(tmp_path)])
        assert main([
            "export-rules", "--model", str(tmp_path / "model.txt"),
            "--out", "rules.txt", "--out-dir", str(tmp_path),
        ]) == 0
        text = (tmp_path / "rules.txt").read_text()
        assert "RULE 1" in text and "RULE 3" in text
        assert "is Small" in text and "is Large" in text
        assert "THEN y1 = " in text


class TestExperimentsCommands:
    def test_cv_writes_reports(self, tmp_path):
        fx, fy = _write_dataset(tmp_path, n=40)
        assert main([
            "cv", "--features", str(fx), "--labels", str(fy),
            "--folds", "2", "--rules", "2", "--max-iters", "2",
            "--out-dir", str(tmp_path),
        ]) == 0
        report = (tmp_path / "cv_report.csv").read_text().splitlines()
        assert report[0].startswith("seed,fold,ap")
        assert len(report) == 3
        assert (tmp_path / "cv_summary.txt").exists()

    def test_cv_summary_counts_match_the_fold_rows(self, tmp_path):
        fx, fy = _write_dataset(tmp_path, n=60)
        assert main([
            "cv", "--features", str(fx), "--labels", str(fy),
            "--folds", "3", "--seeds", "0,1", "--rules", "2", "--max-iters", "8",
            "--out-dir", str(tmp_path), "--workers", "2",
        ]) == 0
        rows = (tmp_path / "cv_report.csv").read_text().splitlines()
        header = rows[0].split(",")
        fields = [dict(zip(header, row.split(","))) for row in rows[1:]]
        assert len(fields) == 6
        summary = dict(line.split(": ", 1) for line in
                       (tmp_path / "cv_summary.txt").read_text().splitlines()[1:])
        reasons = Counter(f["stop_reason"] for f in fields)
        assert summary["stop_reasons"] == " ".join(
            "%s=%d" % item for item in sorted(reasons.items()))
        iterations = [int(f["iterations"]) for f in fields]
        assert float(summary["mean_iterations"]) == pytest.approx(
            np.mean(iterations), abs=0.005)

    def test_grid_reports_best_cell(self, tmp_path, capsys):
        fx, fy = _write_dataset(tmp_path, n=40)
        capsys.readouterr()
        assert main([
            "grid", "--features", str(fx), "--labels", str(fy),
            "--folds", "2", "--rules", "2", "--max-iters", "2",
            "--grid-alpha", "0.1,1e6", "--out-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "best cell: alpha=0.1" in out
        cells = (tmp_path / "grid_cells.csv").read_text().splitlines()
        assert len(cells) == 3
        summary = (tmp_path / "grid_summary.txt").read_text().splitlines()
        assert summary[0] == "grid winner summary"
        assert any(line.startswith("config: alpha=0.1 ") for line in summary)
        final = (tmp_path / "grid_final.csv").read_text().splitlines()[1:]
        iterations = [int(row.split(",")[9]) for row in final]
        assert "mean_iterations: %.2f" % (sum(iterations) / len(iterations)) in summary

    def test_noise_curve_sorted(self, tmp_path):
        fx, fy = _write_dataset(tmp_path, n=40)
        assert main([
            "noise-curve", "--features", str(fx), "--labels", str(fy),
            "--folds", "2", "--rules", "2", "--max-iters", "2",
            "--ratios", "0.4,0.0", "--out-dir", str(tmp_path),
        ]) == 0
        rows = (tmp_path / "noise_curve.csv").read_text().splitlines()
        assert rows[0] == "ratio,mean_ap,sd_ap"
        assert rows[1].startswith("0,")
        assert rows[2].startswith("0.4,")

    def test_ablate_writes_pair(self, tmp_path):
        fx, fy = _write_dataset(tmp_path, n=40)
        assert main([
            "ablate", "--features", str(fx), "--labels", str(fy),
            "--folds", "2", "--rules", "2", "--max-iters", "2",
            "--ablate", "beta", "--noise-ratio", "0.2",
            "--out-dir", str(tmp_path),
        ]) == 0
        rows = (tmp_path / "ablation_beta.csv").read_text().splitlines()
        assert rows[1].startswith("disabled,")
        assert rows[2].startswith("enabled,")


class TestConfigFileAndExitCodes:
    def test_config_file_supplies_defaults(self, tmp_path):
        fx, fy = _write_dataset(tmp_path, n=30)
        cfg = tmp_path / "run.cfg"
        # max_iters: a key may spell a dashed option with underscores
        cfg.write_text("# comment\nalpha=5.0\n\n  \nmax_iters=2\n  # indented\nrules=2\n")
        assert main([
            "train", "--features", str(fx), "--labels", str(fy),
            "--config", str(cfg), "--out", "model.txt", "--out-dir", str(tmp_path),
        ]) == 0
        config = load_model(tmp_path / "model.txt").config
        assert (config.alpha, config.max_iters, config.n_rules) == (5.0, 2, 2)

    def test_config_file_with_a_byte_order_mark_keeps_its_first_key(self, tmp_path):
        fx, fy = _write_dataset(tmp_path, n=30)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\ufeffmax-iters=1\nrules=2\n", encoding="utf-8")
        assert main([
            "train", "--features", str(fx), "--labels", str(fy),
            "--config", str(cfg), "--out", "model.txt", "--out-dir", str(tmp_path),
        ]) == 0
        config = load_model(tmp_path / "model.txt").config
        assert (config.max_iters, config.n_rules) == (1, 2)

    @pytest.mark.parametrize("text, message", [
        ("max-iters=2\nalpha 5\n", "config line without '=': 'alpha 5'"),
        (None, "cannot read config file"),
    ])
    def test_malformed_or_unreadable_config_is_config_error(self, tmp_path, capsys,
                                                            text, message):
        cfg = tmp_path / "run.cfg"
        if text is not None:
            cfg.write_text(text)
        assert main(["synth", "--kind", "union", "--out-prefix", "data",
                     "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("error: " + message)
        assert not (tmp_path / "data.X.csv").exists()

    def test_config_file_sets_binary_for_predict(self, tmp_path):
        fx, fy = _write_dataset(tmp_path, n=20)
        assert main(["train", "--features", str(fx), "--labels", str(fy),
                     "--rules", "2", "--max-iters", "1", "--out-dir", str(tmp_path)]) == 0
        cfg = tmp_path / "run.cfg"
        for i, (value, binary) in enumerate([("true", True), ("YES", True), ("off", False)]):
            cfg.write_text("binary=%s\n" % value)
            out = tmp_path / ("out%d.csv" % i)
            assert main(["predict", "--model", str(tmp_path / "model.txt"),
                         "--features", str(fx), "--config", str(cfg),
                         "--out", out.name, "--out-dir", str(tmp_path)]) == 0, value
            rows = out.read_text().splitlines()[1:]
            assert len(rows) == 20
            assert (set(",".join(rows).split(",")) <= {"0", "1"}) == binary, value

    @pytest.mark.parametrize("value", ["ture", "2", ""], ids=["ture", "2", "empty"])
    def test_config_file_refuses_a_misspelt_boolean(self, tmp_path, capsys, value):
        # a misspelt value is refused, not read as false
        fx, fy = _write_dataset(tmp_path, n=20)
        assert main(["train", "--features", str(fx), "--labels", str(fy),
                     "--rules", "2", "--max-iters", "1", "--out-dir", str(tmp_path)]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("binary=%s\n" % value)
        capsys.readouterr()
        assert main(["predict", "--model", str(tmp_path / "model.txt"), "--features", str(fx),
                     "--config", str(cfg), "--out", "bits.csv", "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            "error: config --binary=%s: expected one of 1, true, yes, on, 0, false, no, off\n"
            % value)
        assert not (tmp_path / "bits.csv").exists()

    def test_config_file_sets_an_untyped_option(self, tmp_path):
        fx, fy = _write_dataset(tmp_path, n=20)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("out=m2.txt\nrules=2\nmax-iters=1\n")
        assert main(["train", "--features", str(fx), "--labels", str(fy),
                     "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        assert load_model(tmp_path / "m2.txt").config.n_rules == 2
        assert not (tmp_path / "model.txt").exists()

    def test_cli_flag_overrides_config_file(self, tmp_path):
        fx, fy = _write_dataset(tmp_path, n=30)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=5.0\nmax-iters=2\nrules=2\n")
        assert main([
            "train", "--features", str(fx), "--labels", str(fy),
            "--config", str(cfg), "--alpha", "0.25",
            "--out", "model.txt", "--out-dir", str(tmp_path),
        ]) == 0
        assert load_model(tmp_path / "model.txt").config.alpha == 0.25

    def test_missing_file_is_data_error(self, tmp_path):
        assert main([
            "train", "--features", str(tmp_path / "nope.csv"),
            "--labels", str(tmp_path / "nope2.csv"), "--out-dir", str(tmp_path),
        ]) == 3

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        fx, fy = _write_dataset(tmp_path, n=20)
        capsys.readouterr()
        assert main([
            "cv", "--features", str(fx), "--labels", str(fy), "--seeds=-1",
            "--folds", "2", "--rules", "2", "--max-iters", "2", "--out-dir", str(tmp_path),
        ]) == 3
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
        assert not (tmp_path / "cv_report.csv").exists()

    def test_bad_label_file_is_data_error(self, tmp_path):
        fx, fy = _write_dataset(tmp_path, n=10)
        fy.write_text("2\n" * 10)
        assert main([
            "train", "--features", str(fx), "--labels", str(fy),
            "--out-dir", str(tmp_path),
        ]) == 3

    def test_ragged_score_and_feature_files_are_data_errors(self, tmp_path, capsys):
        fx, fy = _write_dataset(tmp_path, n=20)
        main(["train", "--features", str(fx), "--labels", str(fy),
              "--rules", "2", "--max-iters", "1",
              "--out", "model.txt", "--out-dir", str(tmp_path)])
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("# header\n0.1,0.2,0.3,0.4,0.5\n\n0.1,0.2\n")
        capsys.readouterr()
        assert main(["eval", "--scores", str(ragged), "--labels", str(fy)]) == 3
        assert "ragged score row at %s line 4" % ragged in capsys.readouterr().err
        assert main(["predict", "--model", str(tmp_path / "model.txt"),
                     "--features", str(ragged), "--out-dir", str(tmp_path)]) == 3
        assert "ragged feature row at %s line 4" % ragged in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_score_cell_names_its_path_and_line(self, tmp_path, capsys, cell):
        _, fy = _write_dataset(tmp_path, n=2)
        scores = tmp_path / "scores.csv"
        scores.write_text("# y1,y2,y3,y4,y5\n0.5,0.5,0.5,0.5,0.5\n0.5,0.5,%s,0.5,0.5\n" % cell)
        capsys.readouterr()
        assert main(["eval", "--scores", str(scores), "--labels", str(fy)]) == 3
        assert capsys.readouterr().err == \
            "error: non-numeric score cell at %s line 3\n" % scores

    @pytest.mark.parametrize("flag", ["--tau", "--min-margin", "--alpha"])
    def test_nan_hyperparameter_is_config_error(self, tmp_path, capsys, flag):
        fx, fy = _write_dataset(tmp_path, n=20)
        assert main([
            "train", "--features", str(fx), "--labels", str(fy), flag, "nan",
            "--out", "model.txt", "--out-dir", str(tmp_path),
        ]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "model.txt").exists()

    def test_failed_fold_names_its_cell_fold_and_seed(self, tmp_path, capsys):
        fx, fy = _write_dataset(tmp_path, n=60)
        capsys.readouterr()
        assert main(["grid", "--features", str(fx), "--labels", str(fy),
                     "--folds", "2", "--max-iters", "1", "--grid-rules", "3,70",
                     "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            "error: alpha=0.1 beta=10 gamma=0.001 rules=70 noise=0, fold 0 (seed 0): "
            "n_rules exceeds the sample count (70 > 30)\n")

    def test_more_folds_than_samples_is_config_error(self, tmp_path, capsys):
        fx, fy = _write_dataset(tmp_path, n=60)
        capsys.readouterr()
        assert main(["cv", "--features", str(fx), "--labels", str(fy), "--folds", "61",
                     "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err == \
            "error: folds must not exceed the sample count (61 > 60)\n"
        assert not (tmp_path / "cv_report.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_failure_exit_code(self, tmp_path):
        fx, fy = _write_dataset(tmp_path, n=20)
        # an overflowing correlation weight poisons the subproblem matrices
        assert main([
            "train", "--features", str(fx), "--labels", str(fy),
            "--gamma", "1e308", "--rules", "2", "--out-dir", str(tmp_path),
        ]) == 4

    def test_asymmetric_coefficient_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        import fuzzml.optimizer as opt

        solve = opt._solve_sylvester
        calls = []

        def skew_the_mixing_solve(a, b, z):
            calls.append(None)
            if len(calls) == 2:  # the consequent solve runs first
                b = b.copy()
                b[0, -1] += 1.0  # which the solver refuses
            return solve(a, b, z)

        monkeypatch.setattr(opt, "_solve_sylvester", skew_the_mixing_solve)
        fx, fy = _write_dataset(tmp_path, n=20)
        capsys.readouterr()
        assert main(["train", "--features", str(fx), "--labels", str(fy),
                     "--rules", "2", "--out-dir", str(tmp_path)]) == 4
        assert capsys.readouterr().err == (
            "numerical failure: iteration 1, mixing solve: B must be symmetric\n")

    def test_usage_error_exit_code(self, tmp_path):
        proc = _run_module("synth", "--kind", "not-a-kind",
                           "--out-prefix", "x", "--out-dir", str(tmp_path))
        assert proc.returncode == 2

    # an empty PYTHONUNBUFFERED buffers stdout, so the write fails at the last flush
    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_stdout_exit_code(self, tmp_path, unbuffered):
        fx, fy = _write_dataset(tmp_path)
        read_end, write_end = os.pipe()
        os.close(read_end)  # before the run, so every write to stdout fails
        try:
            proc = _run_module("train", "--features", str(fx), "--labels", str(fy),
                               "--max-iters", "2", "--out-dir", str(tmp_path),
                               stdout=write_end, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""  # no traceback and no "error:" line
        assert (tmp_path / "model.txt").exists()

    def test_entrypoint_help(self):
        proc = _run_module("--help")
        assert proc.returncode == 0
        for command in ("synth", "noise", "train", "predict", "eval", "cv",
                        "grid", "noise-curve", "ablate", "export-rules"):
            assert command in proc.stdout


def _usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code == 2


class TestFlagsGoOnTheCommandsThatReadThem:
    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_subcommand_help_lists_only_the_flags_it_reads(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag, readers in (
            ("--seed", {"synth", "noise"}),
            ("--workers", {"cv", "grid", "noise-curve", "ablate"}),
            ("--out-dir", _COMMANDS),
            ("--config", _COMMANDS),
            ("--label-prob", set()),  # synthetic labels are drawn at a fixed 0.4
        ):
            assert bool(re.search(r"%s\b" % flag, out)) == (command in readers), flag
        if "--workers" in out:
            assert "pin BLAS to one thread (OPENBLAS_NUM_THREADS=1)" in " ".join(out.split())

    @pytest.mark.parametrize("flag", [["--seed", "5"], ["--out-dir", "elsewhere"]])
    def test_flag_before_the_subcommand_is_usage_error(self, tmp_path, monkeypatch, flag):
        monkeypatch.chdir(tmp_path)
        assert _usage_error(flag + ["synth", "--kind", "union", "--n", "20",
                                    "--out-prefix", "data"])
        assert not (tmp_path / "data.X.csv").exists()

    def test_seed_and_workers_are_refused_where_nothing_reads_them(self, tmp_path):
        fx, fy = _write_dataset(tmp_path, n=20)
        train = ["train", "--features", str(fx), "--labels", str(fy),
                 "--rules", "2", "--max-iters", "1", "--out-dir", str(tmp_path)]
        assert _usage_error(train + ["--seed", "1"])
        assert main(train) == 0
        assert _usage_error(["predict", "--model", str(tmp_path / "model.txt"),
                             "--features", str(fx), "--workers", "2",
                             "--out-dir", str(tmp_path)])
        assert not (tmp_path / "scores.csv").exists()

    def test_seed_on_an_experiment_command_is_usage_error(self, tmp_path):
        fx, fy = _write_dataset(tmp_path, n=20)
        assert _usage_error(["cv", "--features", str(fx), "--labels", str(fy),
                             "--folds", "2", "--seed", "1", "--out-dir", str(tmp_path)])
        assert not (tmp_path / "cv_report.csv").exists()

    @pytest.mark.parametrize("flag", ["--ridge-y", "--epsilon-row", "--width-floor"])
    def test_fixed_training_setting_is_usage_error(self, tmp_path, flag):
        fx, fy = _write_dataset(tmp_path, n=20)
        assert _usage_error(["train", "--features", str(fx), "--labels", str(fy),
                             flag, "0.001", "--out-dir", str(tmp_path)])
        assert not (tmp_path / "model.txt").exists()

    def test_config_key_of_another_command_is_ignored(self, tmp_path):
        fx, fy = _write_dataset(tmp_path, n=20)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=0\nratios=0.1,x\nmax-iters=2\nrules=2\n")
        assert main([
            "train", "--features", str(fx), "--labels", str(fy),
            "--config", str(cfg), "--out", "model.txt", "--out-dir", str(tmp_path),
        ]) == 0
        config = load_model(tmp_path / "model.txt").config
        assert (config.max_iters, config.n_rules) == (2, 2)

    @pytest.mark.parametrize("command, line, option", [
        (["synth", "--kind", "union", "--out-prefix", "data"], "n=many", "--n"),
        (["train", "--features", "x.csv", "--labels", "y.csv"], "max_iters=x", "--max-iters"),
    ], ids=["n=many", "max_iters=x"])
    def test_bad_config_value_is_config_error(self, tmp_path, capsys, command, line, option):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(command + ["--config", str(cfg), "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: config %s=" % option) and "Traceback" not in err
        assert os.listdir(tmp_path) == ["run.cfg"]

    def test_out_of_range_config_value_is_refused_by_its_spec(self, tmp_path, capsys):
        # the value parses as an integer; SynthSpec owns the range
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=0\n")
        assert main(["synth", "--kind", "union", "--out-prefix", "data",
                     "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err == "error: n_samples and n_features must be positive\n"
        assert "Traceback" not in err
        assert not (tmp_path / "data.X.csv").exists()

    @pytest.mark.parametrize("args, message", [
        (["noise", "DATA", "--ratio", "1.5", "--out-prefix", "bad"],
         "noise ratio must lie in [0, 1]"),
        (["noise-curve", "DATA", "--ratios", "0.1,2"], "noise ratio must lie in [0, 1]"),
        (["ablate", "DATA", "--ablate", "beta", "--noise-ratio", "nan"],
         "noise ratio must lie in [0, 1]"),
        (["synth", "--kind", "union", "--seed", "-1", "--out-prefix", "bad"],
         "seed must be an integer >= 0, got -1"),
        (["noise", "DATA", "--ratio", "0.5", "--seed", "-1", "--out-prefix", "bad"],
         "seed must be an integer >= 0, got -1"),
    ], ids=["ratio-1.5", "ratios-0.1,2", "noise-ratio-nan", "synth-seed--1", "noise-seed--1"])
    def test_out_of_range_ratio_is_refused_by_its_spec(self, tmp_path, capsys, args, message):
        fx, fy = _write_dataset(tmp_path, n=20)
        written = set(os.listdir(tmp_path))
        data = ["--features", str(fx), "--labels", str(fy)]
        argv = [item for arg in args for item in (data if arg == "DATA" else [arg])]
        capsys.readouterr()
        assert main(argv + ["--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "error: %s\n" % message
        assert set(os.listdir(tmp_path)) == written

    def test_non_finite_threshold_is_config_error(self, tmp_path, capsys):
        fx, fy = _write_dataset(tmp_path, n=20)
        assert main(["train", "--features", str(fx), "--labels", str(fy),
                     "--rules", "2", "--max-iters", "1", "--out-dir", str(tmp_path)]) == 0
        # predict thresholds at the model's tau and takes no --threshold
        assert _usage_error(["predict", "--model", str(tmp_path / "model.txt"),
                             "--features", str(fx), "--binary", "--threshold", "0.3",
                             "--out", "bits.csv", "--out-dir", str(tmp_path)])
        assert not (tmp_path / "bits.csv").exists()
        capsys.readouterr()
        assert main(["predict", "--model", str(tmp_path / "model.txt"),
                     "--features", str(fx), "--out-dir", str(tmp_path)]) == 0
        assert main(["eval", "--scores", str(tmp_path / "scores.csv"), "--labels", str(fy),
                     "--threshold", "nan", "--out", "eval.csv",
                     "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err.endswith("error: tau must be finite\n")
        assert not (tmp_path / "eval.csv").exists()
