import dataclasses
import hashlib
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import oracle_fuzzy_feature_matrix

from fuzzml.dataset import Dataset, NormStats, normalize_features
from fuzzml.optimizer import ModelParams, TrainConfig, train
from fuzzml.predictor import (
    load_model,
    predict,
    save_model,
    score,
)
from fuzzml.rules import RuleBase, _strength_columns, fit_antecedents
from fuzzml.synthgen import SynthSpec, gen_synthetic

# a model file that still stores the counts and the width floor
_COUNTED_FILE = Path(__file__).parent / "data" / "model_with_counts.txt"
_DROPPED_KEYS = ("labels=", "features=", "rules=", "width_floor=")

def _manual_model(consequents, n_features=2, n_rules=1, tau=0.5):
    consequents = np.asarray(consequents, dtype=float)
    rng = np.random.default_rng(0)
    rulebase = RuleBase(rng.random((n_rules, n_features)),
                        rng.uniform(0.2, 0.6, size=(n_rules, n_features)))
    return ModelParams(
        mixing=np.eye(consequents.shape[0]),
        consequents=consequents,
        rulebase=rulebase,
        norm=NormStats(np.zeros(n_features), np.ones(n_features)),
        feature_names=tuple("f%d" % (i + 1) for i in range(n_features)),
        label_names=tuple("y%d" % (i + 1) for i in range(consequents.shape[0])),
        config=TrainConfig(n_rules=n_rules, tau=tau),
    )


def _fitted_model(n_rules, n_features, n_labels, seed):
    """Rules fitted on a training sample with one constant feature, random C."""
    rng = np.random.default_rng(seed)
    x = rng.random((n_features, 200))
    x[1] = 0.25
    normed, stats = normalize_features(x)
    return ModelParams(
        mixing=np.eye(n_labels),
        consequents=rng.normal(size=(n_labels, n_rules * (n_features + 1))),
        rulebase=fit_antecedents(normed, n_rules),
        norm=stats,
        feature_names=tuple("f%d" % (i + 1) for i in range(n_features)),
        label_names=tuple("y%d" % (i + 1) for i in range(n_labels)),
        config=TrainConfig(n_rules=n_rules),
    )


class TestScore:
    def test_zero_consequents_score_zero(self):
        model = _manual_model(np.zeros((3, 3)))
        out = score(model, np.random.default_rng(1).random((2, 4)))
        np.testing.assert_array_equal(out, np.zeros((3, 4)))

    def test_bias_only_consequent_selects_first_label(self):
        consequents = np.zeros((3, 3))
        consequents[0, 0] = 1.0  # bias entry of the single rule, first label
        model = _manual_model(consequents)
        out = score(model, np.random.default_rng(2).random((2, 5)))
        np.testing.assert_allclose(out[0], np.ones(5), atol=1e-12)
        np.testing.assert_array_equal(out[1:], np.zeros((2, 5)))

    def test_score_matches_per_rule_recomputation(self):
        data = gen_synthetic(SynthSpec(kind="union", n_samples=60, n_features=3, seed=4))
        model, _ = train(data, TrainConfig(n_rules=2, max_iters=3))
        rng = np.random.default_rng(3)
        x_test = rng.random((3, 6))
        got = score(model, x_test)
        k, d = model.rulebase.n_rules, model.rulebase.n_features
        for i in range(6):
            # normalize the test column exactly as the model does
            span = model.norm.maximum - model.norm.minimum
            x = np.clip((x_test[:, i] - model.norm.minimum) / np.where(span > 0, span, 1.0),
                        0.0, 1.0)
            x = np.where(span > 0, x, 0.0)
            strengths = _strength_columns(x[:, None], model.rulebase)[:, 0]
            x_ext = np.concatenate(([1.0], x))
            for l in range(model.n_labels):
                acc = 0.0
                for r in range(k):
                    block = model.consequents[l, r * (d + 1):(r + 1) * (d + 1)]
                    acc += strengths[r] * float(block @ x_ext)
                assert got[l, i] == pytest.approx(acc, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 9])
    def test_matches_the_fuzzy_matrix_product_and_the_reference(self, k):
        model = _fitted_model(k, n_features=6, n_labels=4, seed=40 + k)
        # test columns reach past the training range on both sides
        x = np.random.default_rng(k).uniform(-1.0, 2.0, size=(6, 300))
        x[:, -1] = 1e200
        batch = score(model, x)
        alone = np.hstack([score(model, x[:, i:i + 1]) for i in range(x.shape[1])])
        lo = model.norm.minimum[:, None]
        span = model.norm.maximum[:, None] - lo
        scaled = np.divide(x - lo, span, out=np.zeros_like(x), where=span > 0.0)
        fuzzy_x = oracle_fuzzy_feature_matrix(np.clip(scaled, 0.0, 1.0),
                                              model.rulebase.centers, model.rulebase.widths)
        # a sum of K(D+1) products is exact to a few eps of its absolute terms
        bound = 1e-14 * (np.abs(model.consequents) @ np.abs(fuzzy_x))
        for got in (batch, alone):
            assert np.all(np.abs(got - model.consequents @ fuzzy_x) <= bound)

    def test_peak_memory_stays_below_one_fuzzy_matrix(self):
        k, d, n = 3, 20, 10_000
        model = _fitted_model(k, n_features=d, n_labels=5, seed=60)
        x = np.random.default_rng(6).random((d, n))
        tracemalloc.start()
        try:
            score(model, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < k * (d + 1) * n * 8

    def test_rejects_wrong_dimension(self):
        model = _manual_model(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            score(model, np.zeros((5, 2)))


class TestPredict:
    def test_threshold_semantics(self):
        consequents = np.array([[0.6], [0.4]])  # bias-only, K=1, D=0 is invalid; use D=1
        consequents = np.array([[0.6, 0.0], [0.4, 0.0]])
        model = _manual_model(consequents, n_features=1)
        out = predict(model, np.array([[0.3]]))
        np.testing.assert_array_equal(out, [[1], [0]])

    def test_exact_threshold_counts_as_positive(self):
        consequents = np.array([[0.5, 0.0]])
        model = _manual_model(consequents, n_features=1)
        np.testing.assert_array_equal(predict(model, np.array([[0.7]])), [[1]])

    def test_low_threshold_marks_everything(self):
        consequents = np.array([[0.1, 0.0], [0.2, 0.0]])
        model = _manual_model(consequents, n_features=1, tau=-100.0)
        out = predict(model, np.array([[0.4, 0.9]]))
        np.testing.assert_array_equal(out, np.ones((2, 2), dtype=int))

    def test_output_is_binary_matrix(self):
        data = gen_synthetic(SynthSpec(kind="equality", n_samples=50, n_features=3, seed=5))
        model, _ = train(data, TrainConfig(n_rules=2, max_iters=2))
        out = predict(model, data.features)
        assert out.shape == (5, 50)
        assert set(np.unique(out)).issubset({0, 1})


def _restamp(path, edit_lines):
    """Edit the payload lines of a saved model and recompute its checksum."""
    header, _, *payload = path.read_text().splitlines()
    text = "\n".join(edit_lines(payload)) + "\n"
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    path.write_text("%s\nchecksum=%s\n%s" % (header, digest, text))


class TestPersistence:
    def _trained_model(self, seed=6):
        data = gen_synthetic(SynthSpec(kind="independence", n_samples=40,
                                       n_features=3, seed=seed))
        model, _ = train(data, TrainConfig(n_rules=2, max_iters=3))
        return model

    def test_round_trip_predictions_bit_identical(self, tmp_path):
        model = self._trained_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        again = load_model(path)
        x = np.random.default_rng(7).random((3, 12))
        np.testing.assert_array_equal(score(again, x), score(model, x))
        np.testing.assert_array_equal(predict(again, x), predict(model, x))
        assert again.label_names == model.label_names
        assert again.config == model.config

    def test_unknown_version(self, tmp_path):
        model = self._trained_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        text = path.read_text()
        path.write_text(text.replace("fuzzml-model v1", "fuzzml-model v9", 1))
        with pytest.raises(ValueError, match="unsupported version"):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        model = self._trained_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        with pytest.raises(ValueError, match="checksum failure"):
            load_model(path)

    def test_checksum_failure(self, tmp_path):
        model = self._trained_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        text = path.read_text()
        # corrupt one digit inside the payload without touching the layout
        corrupted = text.replace("0.5", "0.6", 1)
        path.write_text(corrupted)
        with pytest.raises(ValueError, match="checksum failure"):
            load_model(path)

    def test_missing_checksum_line(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(self._trained_model(), path)
        header, _, payload = path.read_text().split("\n", 2)
        path.write_text(header + "\n" + payload)
        with pytest.raises(ValueError, match="missing checksum"):
            load_model(path)

    @pytest.mark.parametrize("row", ["norm min", "width", "S", "C"])
    def test_nan_width_is_rejected(self, tmp_path, row):
        model = self._trained_model()
        path = tmp_path / "model.txt"
        save_model(model, path)

        def put_nan(lines):
            first = {
                "norm min": lines.index("[norm]") + 1,
                "width": lines.index("[rulebase]") + 1 + model.rulebase.n_rules,
                "S": lines.index("[S]") + 1,
                "C": lines.index("[C]") + 1,
            }[row]
            lines[first] = ",".join(["nan"] + lines[first].split(",")[1:])
            return lines

        _restamp(path, put_nan)
        with pytest.raises(ValueError, match="finite"):
            load_model(path)

    @pytest.mark.parametrize("margin", [None, 0.0])
    def test_config_block_round_trips(self, tmp_path, margin):
        cfg = TrainConfig(alpha=0.25, beta=3.5, gamma=0, n_rules=2, max_iters=4,
                          min_loss_margin=margin, tau=0.375)
        for field in dataclasses.fields(TrainConfig):
            if field.name != "min_loss_margin":
                assert getattr(cfg, field.name) != field.default, field.name
        data = gen_synthetic(SynthSpec(kind="independence", n_samples=40,
                                       n_features=3, seed=6))
        model, _ = train(data, cfg)
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config == cfg
        assert loaded.tau == 0.375

    # config blocks of files written by earlier versions: one that ends in
    # the seed= line of the former TrainConfig.seed, and one that stores the
    # now fixed epsilon_row, ridge_y and width_floor before tau=
    @pytest.mark.parametrize("before_tau,after_tau", [
        ([], ["seed=7"]),
        (["epsilon_row=1e-08", "ridge_y=9.9999999999999995e-07", "width_floor=0.0001"], []),
    ], ids=["seed", "fixed_settings"])
    def test_file_with_a_seed_line_still_loads(self, tmp_path, before_tau, after_tau):
        path = tmp_path / "model.txt"
        save_model(self._trained_model(), path)
        current = path.read_text()

        def add_lines(lines):
            tau = next(i for i, line in enumerate(lines) if line.startswith("tau="))
            return lines[:tau] + before_tau + [lines[tau]] + after_tau + lines[tau + 1:]

        old = tmp_path / "old.txt"
        old.write_text(current)
        _restamp(old, add_lines)
        assert "\n".join(before_tau + ["tau=0.5"] + after_tau) in old.read_text()
        save_model(load_model(old), path)
        assert path.read_text() == current

    def test_unknown_config_key_is_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(self._trained_model(), path)

        def add_foo(lines):
            tau = next(i for i, line in enumerate(lines) if line.startswith("tau="))
            return lines[:tau] + ["foo=1"] + lines[tau:]

        _restamp(path, add_foo)
        with pytest.raises(ValueError, match="malformed model file"):
            load_model(path)

    def test_file_that_stores_the_counts_loads(self, tmp_path):
        old_text = _COUNTED_FILE.read_text()
        for key in _DROPPED_KEYS:
            assert "\n" + key in old_text
        model = load_model(_COUNTED_FILE)
        assert model.config == TrainConfig(n_rules=2, max_iters=3, tau=0.375)
        assert model.feature_names == ("height", "weight", "age")
        assert model.label_names == ("red", "green", "blue", "cyan", "gray")
        path = tmp_path / "model.txt"
        save_model(model, path)
        kept = [line for line in old_text.splitlines()[2:]
                if not line.startswith(_DROPPED_KEYS)]
        assert path.read_text().splitlines()[2:] == kept
        x = np.random.default_rng(10).random((3, 20))
        np.testing.assert_array_equal(score(load_model(path), x), score(model, x))

    @pytest.mark.parametrize("edit,message", [
        (lambda lines: [("n_rules=7" if line == "n_rules=2" else line) for line in lines],
         "4 rulebase rows, expected 14"),
        (lambda lines: lines[:2] + lines[1:], "repeated [meta] key 'feature_names'"),
        (lambda lines: [line for line in lines if not line.startswith("gamma=")],
         "missing [meta] keys gamma"),
        (lambda lines: [line.replace(",y5", "") for line in lines], "5 S rows, expected 4"),
        (lambda lines: [line.replace(",f3", "") for line in lines], "bad norm row"),
        (lambda lines: [line.replace("[S]", "[M]") for line in lines],
         "sections meta,norm,rulebase,M,C"),
        (lambda lines: ["stray=1"] + lines, "expected [meta]"),
        (lambda lines: lines[:-1] + ["x" + lines[-1][lines[-1].index(","):]], "bad C value"),
        (lambda lines: [("alpha=-1" if line.startswith("alpha=") else line) for line in lines],
         "alpha, beta and gamma must be finite and nonnegative"),
    ], ids=["n_rules", "repeated_key", "missing_key", "label_count", "feature_count",
            "section", "line_before_meta", "non_numeric_cell", "refused_config"])
    def test_counts_that_disagree_are_rejected(self, tmp_path, edit, message):
        path = tmp_path / "model.txt"
        save_model(self._trained_model(), path)
        _restamp(path, edit)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(path)

    def test_zero_width_is_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(self._trained_model(), path)

        def zero_width(lines):
            first_width = lines.index("[rulebase]") + 1 + 2  # after the 2 center rows
            lines[first_width] = ",".join(["0"] + lines[first_width].split(",")[1:])
            return lines

        _restamp(path, zero_width)
        with pytest.raises(ValueError, match="positive"):
            load_model(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "nope.txt"
        path.write_text("hello\nworld\n")
        with pytest.raises(ValueError, match="malformed model file"):
            load_model(path)


class TestModelParamsConsistency:
    def test_rule_count_must_match_the_rule_base(self):
        model = _manual_model(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="n_rules"):
            dataclasses.replace(model, config=TrainConfig(n_rules=2))

    @pytest.mark.parametrize("field,value,message", [
        ("consequents", np.zeros((2, 4)), "K(D+1)"),
        ("mixing", np.zeros((2, 3)), "L x L"),
        ("norm", NormStats([0.0], [1.0]), "the D features"),
    ])
    def test_matrices_must_fit_the_rule_base_and_the_labels(self, field, value, message):
        model = _manual_model(np.zeros((2, 3)))
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(model, **{field: value})

    @pytest.mark.parametrize("field,names", [
        ("feature_names", ("f1",)),
        ("label_names", ("y1", "y2", "y3")),
        ("feature_names", ("a,b", "c")),
        ("label_names", ("y1", "y\n2")),
        ("feature_names", ("a", "")),
        ("label_names", ("y1", " y2")),
    ])
    def test_names_must_fit_the_matrices_and_the_file(self, field, names):
        model = _manual_model(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="name"):
            dataclasses.replace(model, **{field: names})


class TestRelabelingEquivariance:
    def test_permuting_training_labels_permutes_scores(self):
        data = gen_synthetic(SynthSpec(kind="independence", n_samples=50,
                                       n_features=3, seed=8))
        perm = np.array([3, 0, 4, 1, 2])
        permuted = Dataset(data.features, data.labels[perm],
                           data.feature_names,
                           tuple(data.label_names[i] for i in perm))
        cfg = TrainConfig(n_rules=2, max_iters=3)
        base_model, _ = train(data, cfg)
        perm_model, _ = train(permuted, cfg)
        x = np.random.default_rng(9).random((3, 10))
        base_scores = score(base_model, x)
        perm_scores = score(perm_model, x)
        np.testing.assert_allclose(perm_scores, base_scores[perm], atol=1e-8)
