"""The number-aware comparison of README's CLI flow outputs in ``same_outputs.py``."""

import dataclasses
import shutil

import numpy as np
import pytest
from same_outputs import RTOL, compare

from fuzzml.cli import main
from fuzzml.dataset import load_matrix
from fuzzml.predictor import load_model, save_model


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A small run of README's train, predict and export-rules commands."""
    out = tmp_path_factory.mktemp("run")
    where = ["--out-dir", str(out)]
    data = [str(out / "d.X.csv"), str(out / "d.Y.csv")]
    assert main(["synth", "--kind", "union", "--n", "80", "--d", "4", "--seed", "7",
                 "--out-prefix", "d", *where]) == 0
    assert main(["train", "--features", data[0], "--labels", data[1],
                 "--out", "model.txt", *where]) == 0
    assert main(["predict", "--model", str(out / "model.txt"), "--features", data[0],
                 "--out", "scores.csv", *where]) == 0
    assert main(["export-rules", "--model", str(out / "model.txt"), "--out", "rules.txt",
                 *where]) == 0
    return out


def _copy(run_dir, tmp_path):
    return shutil.copytree(run_dir, tmp_path / "copy")


def _move_first_score(path, fraction):
    """Move the first score by ``fraction`` of the largest, printed as the CLI prints."""
    scale = np.abs(load_matrix(path, "score")[0]).max()
    lines = path.read_text().split("\n")
    cells = lines[1].split(",")
    cells[0] = "%.17g" % (float(cells[0]) + fraction * scale)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines))


def test_a_copy_is_the_same(run_dir, tmp_path):
    assert compare(run_dir, _copy(run_dir, tmp_path)) == dict.fromkeys(
        ("scores.csv", "rules.txt", "model.txt"))


@pytest.mark.parametrize("fraction,flagged", [(1e-4, True), (RTOL / 10, False)],
                         ids=["1e-4", "rtol_over_10"])
def test_a_moved_score_is_flagged_above_the_tolerance(run_dir, tmp_path, fraction, flagged):
    copy = _copy(run_dir, tmp_path)
    _move_first_score(copy / "scores.csv", fraction)
    found = compare(run_dir, copy)
    assert (found["scores.csv"] is not None) == flagged
    assert found["rules.txt"] is None and found["model.txt"] is None


def test_a_moved_consequent_is_flagged_through_the_loaded_model(run_dir, tmp_path):
    # the file's checksum changes with it, so model.txt is compared as loaded
    copy = _copy(run_dir, tmp_path)
    model = load_model(copy / "model.txt")
    consequents = model.consequents.copy()
    consequents[0, 0] += 1e-4 * np.abs(consequents).max()
    save_model(dataclasses.replace(model, consequents=consequents), copy / "model.txt")
    assert compare(run_dir, copy)["model.txt"].startswith("largest gap ")


def test_a_changed_rule_term_is_flagged(run_dir, tmp_path):
    copy = _copy(run_dir, tmp_path)
    rules = copy / "rules.txt"
    text = rules.read_text()
    term = "Small" if " is Small" in text else "Large"
    rules.write_text(text.replace(" is %s" % term, " is Medium", 1))
    assert compare(run_dir, copy)["rules.txt"] == "the text around the numbers differs"
