import math
import re

import numpy as np
import pytest

from fuzzml.dataset import (
    Dataset,
    NormStats,
    apply_norm,
    kfold_split,
    load_dataset,
    load_labels,
    load_matrix,
    normalize_features,
    save_dataset,
    save_matrix,
    take_samples,
)
from fuzzml.experiments import ExperimentConfig
from fuzzml.metrics import evaluate
from fuzzml.optimizer import TrainConfig
from fuzzml.synthgen import NoiseSpec, SynthSpec


class TestLoadDataset:
    def test_direct_transcription(self, tmp_path):
        fx = tmp_path / "X.csv"
        fy = tmp_path / "Y.csv"
        fx.write_text("1.0,2.0\n3.0,4.0\n")
        fy.write_text("1,0\n0,1\n")
        data = load_dataset(fx, fy)
        assert (data.n_features, data.n_labels, data.n_samples) == (2, 2, 2)
        # files are sample-major, matrices are column-per-sample
        np.testing.assert_array_equal(data.features, [[1.0, 3.0], [2.0, 4.0]])
        np.testing.assert_array_equal(data.labels, [[1.0, 0.0], [0.0, 1.0]])

    def test_non_binary_label(self, tmp_path):
        fx = tmp_path / "X.csv"
        fy = tmp_path / "Y.csv"
        fx.write_text("1.0\n2.0\n")
        fy.write_text("1\n2\n")
        with pytest.raises(ValueError, match="non-binary label"):
            load_dataset(fx, fy)

    def test_sample_count_mismatch(self, tmp_path):
        fx = tmp_path / "X.csv"
        fy = tmp_path / "Y.csv"
        fx.write_text("1.0\n2.0\n3.0\n")
        fy.write_text("1\n0\n")
        with pytest.raises(ValueError, match="sample count mismatch: features have 3 "
                                                  "samples, labels have 2$"):
            load_dataset(fx, fy)

    def test_non_numeric_feature(self, tmp_path):
        fx = tmp_path / "X.csv"
        fy = tmp_path / "Y.csv"
        fx.write_text("1.0,oops\n")
        fy.write_text("1\n")
        with pytest.raises(ValueError, match="non-numeric feature cell"):
            load_dataset(fx, fy)

    @pytest.mark.parametrize("cell", ["abc", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind", ["feature", "label"])
    def test_bad_cell_names_its_path_and_line(self, tmp_path, kind, cell):
        fx = tmp_path / "X.csv"
        fy = tmp_path / "Y.csv"
        fx.write_text("# a,b\n1.0,2.0\n%s,4.0\n" % (cell if kind == "feature" else "3.0"))
        fy.write_text("# y\n1\n%s\n" % (cell if kind == "label" else "0"))
        path = fx if kind == "feature" else fy
        with pytest.raises(ValueError,
                           match=re.escape("non-numeric %s cell at %s line 3" % (kind, path))):
            load_dataset(fx, fy)

    def test_empty_file(self, tmp_path):
        fx = tmp_path / "X.csv"
        fy = tmp_path / "Y.csv"
        fx.write_text("")
        fy.write_text("1\n")
        with pytest.raises(ValueError, match="empty file"):
            load_dataset(fx, fy)

    @pytest.mark.parametrize("header,n_names", [("# a,b", 2), ("# a,b,c,d", 4)])
    def test_header_of_another_width_names_its_path_and_line(self, tmp_path, header,
                                                             n_names):
        path = tmp_path / "X.csv"
        path.write_text("%s\n1.0,2.0,3.0\n4.0,5.0,6.0\n" % header)
        message = ("feature header names %d columns but rows have 3 cells at %s line 1"
                   % (n_names, path))
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            load_matrix(path)

    @pytest.mark.parametrize("kind", ["feature", "label"])
    def test_dataset_file_with_a_header_of_another_width(self, tmp_path, kind):
        fx = tmp_path / "X.csv"
        fy = tmp_path / "Y.csv"
        fx.write_text("# %s\n1.0,2.0,3.0\n4.0,5.0,6.0\n"
                      % ("a,b" if kind == "feature" else "a,b,c"))
        fy.write_text("# %s\n1,0\n0,1\n" % ("y" if kind == "label" else "y,z"))
        path, n_names, width = (fx, 2, 3) if kind == "feature" else (fy, 1, 2)
        message = ("%s header names %d columns but rows have %d cells at %s line 1"
                   % (kind, n_names, width, path))
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            load_dataset(fx, fy)

    def test_header_names(self, tmp_path):
        fx = tmp_path / "X.csv"
        fy = tmp_path / "Y.csv"
        fx.write_text("# height,width\n1.0,2.0\n")
        fy.write_text("# cat,dog\n1,0\n")
        data = load_dataset(fx, fy)
        assert data.feature_names == ("height", "width")
        assert data.label_names == ("cat", "dog")

    @pytest.mark.parametrize("text, names", [
        ("\ufeff# a,b\n1.0,2.0\n", ("a", "b")),
        ("\ufeff1.0,2.0\n", None),
    ], ids=["header", "no_header"])
    def test_byte_order_mark_is_skipped(self, tmp_path, text, names):
        # spreadsheets often start the CSV files they export with one
        fx = tmp_path / "X.csv"
        fx.write_text(text, encoding="utf-8")
        matrix, got = load_matrix(fx)
        assert got == names
        np.testing.assert_array_equal(matrix, [[1.0], [2.0]])


class TestNames:
    @pytest.mark.parametrize("bad", ["a,b", "a\nb", "a\r", "a\u2028b"])
    def test_name_that_no_file_can_hold_is_rejected(self, bad):
        with pytest.raises(ValueError, match="feature name .* comma or a line break"):
            Dataset([[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0]], feature_names=[bad, "c"])
        with pytest.raises(ValueError, match="label name .* comma or a line break"):
            Dataset([[0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], label_names=["y", bad])

    def test_other_names_are_kept(self):
        data = Dataset([[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0]],
                       feature_names=["a b", "c=d;e"], label_names=["#y\t1"])
        assert data.feature_names == ("a b", "c=d;e")
        assert data.label_names == ("#y\t1",)

    @pytest.mark.parametrize("bad", ["", " a", "b ", "\tc", " "])
    def test_name_that_a_csv_header_cannot_keep_is_rejected(self, bad):
        match = "name .* is empty or has leading or trailing whitespace"
        with pytest.raises(ValueError, match="feature " + match):
            Dataset([[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0]], feature_names=[bad, "c"])
        with pytest.raises(ValueError, match="label " + match):
            Dataset([[0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], label_names=["y", bad])

    def test_names_round_trip_exactly_through_csv(self, tmp_path):
        data = Dataset([[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0]],
                       feature_names=["a b", "#c=d;e"], label_names=["y\t1"])
        save_dataset(data, tmp_path / "X.csv", tmp_path / "Y.csv")
        again = load_dataset(tmp_path / "X.csv", tmp_path / "Y.csv")
        assert again.feature_names == ("a b", "#c=d;e")
        assert again.label_names == ("y\t1",)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_save_load_bit_exact(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        d, l, n = rng.integers(1, 6, size=3)
        data = Dataset(
            rng.normal(scale=rng.uniform(1e-6, 1e6), size=(d, n)),
            (rng.random((l, n)) < 0.5).astype(float),
        )
        save_dataset(data, tmp_path / "X.csv", tmp_path / "Y.csv")
        again = load_dataset(tmp_path / "X.csv", tmp_path / "Y.csv")
        np.testing.assert_array_equal(again.features, data.features)
        np.testing.assert_array_equal(again.labels, data.labels)
        assert again.feature_names == data.feature_names
        assert again.label_names == data.label_names

    def test_save_matrix_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        matrix = rng.normal(size=(3, 11)) * 10.0 ** rng.integers(-300, 300, size=(3, 11))
        matrix[0, :3] = (0.1, -0.0, 5e-324)
        save_matrix(tmp_path / "M.csv", matrix, ("a", "b", "c"))
        again, names = load_matrix(tmp_path / "M.csv")
        assert again.tobytes() == matrix.tobytes()
        assert names == ("a", "b", "c")

    def test_save_matrix_cell_format(self, tmp_path):
        save_matrix(tmp_path / "B.csv", np.array([[1, 0], [0, 1], [1, 1]]),
                    ("y1", "y2", "y3"), "%d")
        assert (tmp_path / "B.csv").read_text() == "# y1,y2,y3\n1,0,1\n0,1,1\n"


class TestNormalization:
    def test_min_max_definition(self):
        normed, stats = normalize_features(np.array([[0.0, 5.0, 10.0]]))
        np.testing.assert_allclose(normed, [[0.0, 0.5, 1.0]])
        np.testing.assert_array_equal(stats.minimum, [0.0])
        np.testing.assert_array_equal(stats.maximum, [10.0])

    def test_constant_feature_maps_to_zero(self):
        normed, _ = normalize_features(np.array([[3.0, 3.0, 3.0]]))
        np.testing.assert_array_equal(normed, [[0.0, 0.0, 0.0]])

    def test_test_time_clipping(self):
        stats = NormStats([0.0], [10.0])
        out = apply_norm(np.array([[12.0, -3.0]]), stats)
        np.testing.assert_array_equal(out, [[1.0, 0.0]])

    @pytest.mark.parametrize("seed", range(10))
    def test_output_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        data = Dataset(rng.normal(scale=100, size=(4, 30)),
                       (rng.random((2, 30)) < 0.5).astype(float))
        normed, _ = normalize_features(data.features)
        assert normed.min() >= 0.0
        assert normed.max() <= 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_test_feature_is_rejected(self, bad):
        with pytest.raises(ValueError, match="non-numeric feature cell"):
            apply_norm(np.array([[0.5, bad]]), NormStats([0.0], [1.0]))

    @pytest.mark.parametrize("minimum,maximum,message", [
        ([0.0, 0.0], [1.0], "equal length"),
        ([2.0], [1.0], "must not exceed"),
    ])
    def test_norm_stats_rejects_bounds_that_do_not_pair_up(self, minimum, maximum, message):
        with pytest.raises(ValueError, match=message):
            NormStats(minimum, maximum)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_apply_norm_is_the_clipped_formula_in_c_order(self, order):
        rng = np.random.default_rng(11)
        stats = NormStats([0.0, 2.0, -1e3, 5.0], [1.0, 2.0, 1e3, 5.0])  # two constant
        span = stats.maximum - stats.minimum
        safe = np.where(span > 0, span, 1.0)
        # about a third of the cells below, inside and above the training range
        x = stats.minimum[:, None] + rng.uniform(-1.0, 2.0, size=(4, 50)) * safe[:, None]
        x = np.asarray(x, order=order)
        want = np.clip(np.where(span[:, None] > 0,
                                (x - stats.minimum[:, None]) / safe[:, None], 0.0), 0.0, 1.0)
        got = apply_norm(x, stats)
        assert got.flags.c_contiguous
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


class TestKFold:
    def test_even_split(self):
        counts = np.bincount(kfold_split(10, 5, seed=3), minlength=5)
        np.testing.assert_array_equal(counts, [2] * 5)

    def test_uneven_split(self):
        counts = sorted(np.bincount(kfold_split(11, 5, seed=3), minlength=5))
        assert counts == [2, 2, 2, 2, 3]

    def test_determinism(self):
        np.testing.assert_array_equal(kfold_split(37, 4, seed=9), kfold_split(37, 4, seed=9))

    def test_split_is_pinned(self):
        # every cross-validated number depends on these ids staying the same
        fold_of = kfold_split(23, 4, seed=1)
        assert fold_of.dtype == np.int64
        assert fold_of.tolist() == [0, 0, 1, 0, 1, 2, 1, 0, 3, 1, 3, 2, 1, 0, 2, 3, 3, 0,
                                    3, 2, 1, 2, 2]
        assert kfold_split(10, 5, seed=3).tolist() == [2, 4, 3, 3, 0, 2, 1, 1, 4, 0]

    def test_partition_property_sweep(self):
        # exhaustive over all 2 <= k <= n <= 200
        for n in range(2, 201):
            for k in range(2, n + 1):
                counts = np.bincount(kfold_split(n, k, seed=n * 211 + k), minlength=k)
                assert counts.sum() == n
                assert counts.min() >= 1
                assert counts.max() - counts.min() <= 1

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            kfold_split(10, 1, seed=0)
        with pytest.raises(ValueError):
            kfold_split(3, 4, seed=0)

    @pytest.mark.parametrize("n, k, name", [(10, 2.5, "k"), (10, 2.0, "k"), (10.0, 2, "n"),
                                            (np.float64(10), 2, "n")])
    def test_rejects_non_integer_counts(self, n, k, name):
        with pytest.raises(ValueError, match=r"^%s must be an integer, got " % name):
            kfold_split(n, k, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0])
    def test_rejects_a_seed_that_is_not_an_integer_at_least_zero(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got %s$" % seed):
            kfold_split(10, 2, seed=seed)

    def test_accepts_numpy_integers(self):
        np.testing.assert_array_equal(kfold_split(np.int64(23), np.int32(4), seed=1),
                                      kfold_split(23, 4, seed=1))

    def test_every_sample_has_a_fold_in_range(self):
        fold_of = kfold_split(23, 4, seed=1)
        assert fold_of.shape == (23,)
        assert set(fold_of.tolist()) == {0, 1, 2, 3}


class TestBooleansAreNotIntegers:
    """bool subclasses int, but every count and seed check refuses it."""

    @pytest.mark.parametrize("call, message", [
        (lambda: TrainConfig(n_rules=True), "n_rules must be an integer, got True"),
        (lambda: TrainConfig(max_iters=True), "max_iters must be an integer, got True"),
        (lambda: ExperimentConfig(workers=True), "workers must be an integer, got True"),
        (lambda: ExperimentConfig(seeds=(False,)), "seed must be an integer >= 0, got False"),
        (lambda: SynthSpec(kind="union", seed=True), "seed must be an integer >= 0, got True"),
        (lambda: kfold_split(10, 2, True), "seed must be an integer >= 0, got True"),
        (lambda: NoiseSpec(0.1, seed=True), "seed must be an integer >= 0, got True"),
    ], ids=["n_rules", "max_iters", "workers", "seeds", "synth_seed", "kfold_seed",
            "noise_seed"])
    def test_refuses_a_bool(self, call, message):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            call()


class TestRealSettingsRefuseBoolsAndStrings:
    """A real-valued setting refuses a bool or a string, naming the field."""

    @pytest.mark.parametrize("call, message", [
        (lambda: TrainConfig(alpha=True), "alpha must be a real number, got True"),
        (lambda: TrainConfig(beta=False), "beta must be a real number, got False"),
        (lambda: TrainConfig(gamma=True), "gamma must be a real number, got True"),
        (lambda: TrainConfig(min_loss_margin=True),
         "min_loss_margin must be a real number, got True"),
        (lambda: TrainConfig(tau=True), "tau must be a real number, got True"),
        (lambda: TrainConfig(alpha="0.1"), "alpha must be a real number, got '0.1'"),
        (lambda: NoiseSpec(ratio=True), "ratio must be a real number, got True"),
        (lambda: NoiseSpec("0.1"), "ratio must be a real number, got '0.1'"),
        (lambda: evaluate([[0.2], [0.9]], [[0.0], [1.0]], tau=True),
         "tau must be a real number, got True"),
    ], ids=["alpha", "beta", "gamma", "min_loss_margin", "tau", "alpha_str", "noise_ratio",
            "noise_ratio_str", "evaluate_tau"])
    def test_refuses_a_bool_or_a_string(self, call, message):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            call()


class TestDatasetInvariants:
    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError, match="non-binary"):
            Dataset([[1.0]], [[0.5]])

    def test_rejects_mismatched_counts(self):
        with pytest.raises(ValueError, match="mismatch"):
            Dataset([[1.0, 2.0]], [[1.0]])

    @pytest.mark.parametrize("features,labels,message", [
        ([1.0, 2.0], [[1.0, 0.0]], "2-D"),
        (np.zeros((1, 0)), np.zeros((1, 0)), "empty dataset"),
        ([[1.0]], np.zeros((0, 1)), "empty dataset"),
        ([[math.nan]], [[1.0]], "non-numeric feature cell"),
    ], ids=["1d_features", "no_samples", "no_labels", "nan_feature"])
    def test_rejects_malformed_matrices(self, features, labels, message):
        with pytest.raises(ValueError, match=message):
            Dataset(features, labels)

    def test_immutable(self):
        data = Dataset([[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            data.features[0, 0] = 2.0
        with pytest.raises(AttributeError):
            data.features = np.zeros((1, 1))

    def test_take_samples(self):
        data = Dataset([[1.0, 2.0, 3.0]], [[1.0, 0.0, 1.0]])
        sub = take_samples(data, [2, 0])
        np.testing.assert_array_equal(sub.features, [[3.0, 1.0]])
        np.testing.assert_array_equal(sub.labels, [[1.0, 1.0]])


def test_load_labels(tmp_path):
    fy = tmp_path / "Y.csv"
    fy.write_text("# a,b\n1,0\n0,1\n1,1\n")
    labels, names = load_labels(fy)
    assert labels.shape == (2, 3)
    assert names == ("a", "b")
