import math

import numpy as np
import pytest

from fuzzy_rows import fuzzy_rows
from oracles import oracle_fit_antecedents, oracle_fuzzy_feature_matrix

from fuzzml.optimizer import ModelParams, TrainConfig
from fuzzml.dataset import NormStats, normalize_features
from fuzzml.rules import (
    DEFAULT_WIDTH_FLOOR,
    RuleBase,
    _fill_fuzzy_rows,
    _strength_columns,
    export_rules,
    fit_antecedents,
)
from fuzzml.synthgen import SYNTH_KINDS, SynthSpec, gen_synthetic


def _column(x, rb):
    """The fuzzy features of one input, mapped as a one-column matrix."""
    return fuzzy_rows(np.asarray(x, dtype=np.float64)[:, None], rb)[:, 0]


def _strengths(x, rb):
    """One input's normalized rule strengths, computed as a one-column matrix."""
    return _strength_columns(np.asarray(x, dtype=np.float64)[:, None], rb)[:, 0]


def _synth_features(kind, n=300):
    """A synthetic kind's features, normalized as training normalizes them."""
    return normalize_features(gen_synthetic(SynthSpec(kind, n_samples=n, seed=4)).features)[0]


class TestMembership:
    # Rule 0 sits at the input, so its Gaussian membership is exp(0) = 1 and
    # the strength ratio s1 / s0 is rule 1's membership.
    def test_peak_at_center(self):
        rb = RuleBase([[3.0], [3.0]], [[0.7], [5.0]])
        s = _strengths([3.0], rb)
        assert s[1] / s[0] == 1.0

    def test_one_width_out(self):
        s = _strengths([1.5], RuleBase([[1.5], [0.5]], [[1.0], [1.0]]))
        assert s[1] / s[0] == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_two_widths_out(self):
        s = _strengths([2.5], RuleBase([[2.5], [0.5]], [[1.0], [1.0]]))
        assert s[1] / s[0] == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_symmetric_and_decreasing(self):
        # offsets stay within 10 widths so float64 can still distinguish
        # successive values (beyond ~38 widths the Gaussian underflows to 0);
        # rule 1 shares the center with a width of 1e3, so the strength ratio
        # is the ratio of the two rules' Gaussians
        rng = np.random.default_rng(0)
        for _ in range(200):
            m, d = rng.normal(), rng.uniform(0.1, 3.0)
            rb = RuleBase([[m], [m]], [[d], [1e3]])
            offsets = np.sort(rng.uniform(0.01, 10.0, size=8)) * d
            x = np.concatenate([m - offsets, m + offsets])[None, :]
            s = _strength_columns(x, rb)
            ratio = s[0] / s[1]
            left, right = ratio[:8], ratio[8:]
            want = np.exp(-0.5 * (offsets / d) ** 2) / np.exp(-0.5 * (offsets / 1e3) ** 2)
            np.testing.assert_allclose(right, want, rtol=1e-12)
            np.testing.assert_allclose(left, right, rtol=1e-12)
            assert np.all(np.diff(right) < 0)


class TestFiringStrengths:
    def test_single_rule_normalizes_to_one(self):
        rb = RuleBase([[0.3, 0.4]], [[0.2, 0.2]])
        np.testing.assert_array_equal(_strengths([5.0, -1.0], rb), [1.0])

    def test_identical_rules_share_strength(self):
        rb = RuleBase([[0.5], [0.5]], [[0.3], [0.3]])
        np.testing.assert_array_equal(_strengths([0.9], rb), [0.5, 0.5])

    def test_hand_worked_two_rule_case(self):
        rb = RuleBase([[0.0], [1.0]], [[1.0], [1.0]])
        got = _strengths([0.0], rb)
        e = math.exp(-0.5)
        np.testing.assert_allclose(got, [1 / (1 + e), e / (1 + e)], atol=1e-12)
        np.testing.assert_allclose(got, [0.62246, 0.37754], atol=5e-6)

    def test_sum_to_one_over_random_inputs(self):
        rng = np.random.default_rng(1)
        rb = RuleBase(rng.random((4, 6)), rng.uniform(0.05, 0.5, size=(4, 6)))
        for _ in range(1000):
            s = _strengths(rng.random(6), rb)
            assert abs(s.sum() - 1.0) <= 1e-12
            assert np.all(s >= 0.0)

    def test_far_input_does_not_underflow(self):
        rb = RuleBase([[0.0], [1.0]], [[1e-4], [1e-4]])
        s = _strengths([1e6], rb)
        assert np.all(np.isfinite(s))
        assert abs(s.sum() - 1.0) <= 1e-12

    def test_total_underflow_returns_uniform(self):
        # distances so extreme that even the log-domain strengths overflow
        rb = RuleBase([[0.0], [0.0], [0.0]], [[1e-4], [1e-4], [1e-4]])
        np.testing.assert_array_equal(_strengths([1e200], rb), np.full(3, 1.0 / 3.0))


class TestFuzzyFeatures:
    def test_single_rule_is_augmented_input(self):
        rb = RuleBase([[0.0, 0.0]], [[1.0, 1.0]])
        np.testing.assert_array_equal(_column([2.0, 3.0], rb), [1.0, 2.0, 3.0])

    def test_identical_rules_split_weight(self):
        rb = RuleBase([[0.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(
            _column([2.0, 3.0], rb), [0.5, 1.0, 1.5, 0.5, 1.0, 1.5]
        )

    def test_hand_worked_case(self):
        rb = RuleBase([[0.0], [1.0]], [[1.0], [1.0]])
        got = _column([0.0], rb)
        np.testing.assert_allclose(got, [0.62246, 0.0, 0.37754, 0.0], atol=5e-6)

    def test_blocks_equal_strength_times_extended_input(self):
        rng = np.random.default_rng(2)
        rb = RuleBase(rng.random((3, 4)), rng.uniform(0.1, 0.6, size=(3, 4)))
        for _ in range(1000):
            x = rng.random(4)
            blocks = _column(x, rb).reshape(3, 5)
            x_ext = np.concatenate(([1.0], x))
            # exact: the same products, not merely close
            np.testing.assert_array_equal(blocks, blocks[:, :1] * x_ext[None, :])
            assert abs(blocks[:, 0].sum() - 1.0) <= 1e-12


class TestFuzzyFeatureMatrix:
    """The K(D+1) x N fuzzy features as training builds them, against one
    column mapped alone and against the per-sample reference."""

    def test_single_column_matches_batch_column(self):
        rng = np.random.default_rng(3)
        rb = RuleBase(rng.random((2, 3)), rng.uniform(0.1, 0.5, size=(2, 3)))
        x = rng.random((3, 5))
        batch = fuzzy_rows(x, rb)
        for i in range(x.shape[1]):
            np.testing.assert_array_equal(_column(x[:, i], rb), batch[:, i])

    def test_single_rule_stacks_ones_over_input(self):
        rng = np.random.default_rng(4)
        x = rng.random((3, 7))
        rb = RuleBase(rng.random((1, 3)), rng.uniform(0.1, 0.5, size=(1, 3)))
        out = fuzzy_rows(x, rb)
        np.testing.assert_array_equal(out[0], np.ones(7))
        np.testing.assert_array_equal(out[1:], x)

    @pytest.mark.parametrize("k", [1, 2, 3, 9, 12])
    def test_columns_recompute_from_one_column_strengths(self, k):
        # one column alone gives the same bits as inside the batch; K > 8
        # is where a pairwise sum over the rules would change the order
        rng = np.random.default_rng(5 + k)
        d = 4
        x = rng.random((d, 40))
        x[1] = 0.5  # a constant feature
        rb = fit_antecedents(x, k)
        far = np.array([1e3, -1e6, 1e200])  # the last one hits the 1/K fallback
        x = np.hstack([x, np.tile(far, (d, 1))])
        out = fuzzy_rows(x, rb)
        for i in range(x.shape[1]):
            s = _strengths(x[:, i], rb)
            x_ext = np.concatenate(([1.0], x[:, i]))
            np.testing.assert_array_equal(out[:, i].reshape(k, d + 1),
                                          s[:, None] * x_ext[None, :])
        np.testing.assert_array_equal(out[::d + 1, -1], np.full(k, 1.0 / k))

    @pytest.mark.parametrize("k", [1, 2, 3, 9])
    def test_matches_per_sample_reference(self, k):
        rng = np.random.default_rng(30 + k)
        d, n = 6, 200
        x = rng.random((d, n))
        x[2] = 0.25  # a constant feature
        rb = fit_antecedents(x, k)
        far = np.array([1e3, -1e6, 1e200])  # the last one hits the 1/K fallback
        x = np.hstack([x, np.tile(far, (d, 1))])
        got = fuzzy_rows(x, rb)
        want = oracle_fuzzy_feature_matrix(x, rb.centers, rb.widths)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)
        np.testing.assert_array_equal(got[::d + 1, -1], np.full(k, 1.0 / k))

    def test_identical_rules_and_constant_input_match_reference(self):
        rb = RuleBase([[0.5, 0.5]] * 3, [[1e-4, 1e-4]] * 3)
        x = np.full((2, 4), 0.5)
        x[:, 1] = 0.7  # raw strengths exp(-4e6) underflow; log-sum-exp keeps 1/3
        got = fuzzy_rows(x, rb)
        np.testing.assert_allclose(
            got, oracle_fuzzy_feature_matrix(x, rb.centers, rb.widths), rtol=1e-14, atol=1e-14)
        np.testing.assert_array_equal(got[::3, :], np.full((3, 4), 1.0 / 3.0))


def _two_cluster_split_oracle(values):
    """Exhaustive best 1-D split into two contiguous-in-order clusters."""
    v = np.sort(values)
    best = None
    for cut in range(1, len(v)):
        left, right = v[:cut], v[cut:]
        cost = left.var() * len(left) + right.var() * len(right)
        if best is None or cost < best[0]:
            best = (cost, left.mean(), right.mean())
    return best[1], best[2]


class TestRuleBase:
    @pytest.mark.parametrize("centers,widths", [
        ([[math.nan]], [[1.0]]),
        ([[math.inf]], [[1.0]]),
        ([[0.5]], [[math.nan]]),
        ([[0.5]], [[math.inf]]),
    ])
    def test_rejects_non_finite_values(self, centers, widths):
        with pytest.raises(ValueError, match="finite"):
            RuleBase(centers, widths)

    @pytest.mark.parametrize("centers,widths,message", [
        ([[0.5, 0.5]], [[1.0]], "matching K x D"),
        (np.zeros((0, 2)), np.zeros((0, 2)), "K >= 1"),
        (np.zeros((2, 0)), np.zeros((2, 0)), "D >= 1"),
    ], ids=["shapes_differ", "no_rules", "no_features"])
    def test_rejects_matrices_that_are_not_k_by_d(self, centers, widths, message):
        with pytest.raises(ValueError, match=message):
            RuleBase(centers, widths)

    @pytest.mark.parametrize("width", [0.0, -1e-3])
    def test_rejects_a_width_that_is_not_positive(self, width):
        with pytest.raises(ValueError, match="positive"):
            RuleBase([[0.5, 0.5]], [[1.0, width]])

    def test_accepts_a_width_below_the_fitting_floor(self):
        # files trained with a smaller width floor keep their widths
        rb = RuleBase([[0.5]], [[1e-6]])
        assert rb.widths[0, 0] == 1e-6 and not hasattr(rb, "width_floor")


class TestFitAntecedents:
    def test_single_rule_uses_global_stats(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 50))
        rb = fit_antecedents(x, 1)
        np.testing.assert_allclose(rb.centers[0], x.mean(axis=1), rtol=1e-12)
        np.testing.assert_allclose(rb.widths[0], x.std(axis=1), rtol=1e-12)

    def test_two_separated_blobs(self):
        rng = np.random.default_rng(7)
        values = np.concatenate([rng.normal(0.0, 1.0, 60), rng.normal(10.0, 1.0, 60)])
        rb = fit_antecedents(values[None, :], 2)
        got = np.sort(rb.centers[:, 0])
        want = np.sort(_two_cluster_split_oracle(values))
        np.testing.assert_allclose(got, want, rtol=1e-10)
        # each blob mean is within 3 standard errors of its population mean
        se = 1.0 / math.sqrt(60)
        assert abs(got[0] - 0.0) <= 3 * se
        assert abs(got[1] - 10.0) <= 3 * se

    def test_constant_feature_width_is_floored(self):
        rng = np.random.default_rng(8)
        x = np.vstack([rng.random(30), np.full(30, 0.7)])
        rb = fit_antecedents(x, 3)
        np.testing.assert_array_equal(rb.widths[:, 1], np.full(3, 1e-4))

    def test_deterministic_and_permutation_invariant(self):
        rng = np.random.default_rng(9)
        x = rng.random((4, 40))
        a = fit_antecedents(x, 3)
        b = fit_antecedents(x, 3)
        np.testing.assert_array_equal(a.centers, b.centers)
        perm = rng.permutation(40)
        c = fit_antecedents(x[:, perm], 3)
        order_a = np.lexsort(a.centers.T)
        order_c = np.lexsort(c.centers.T)
        np.testing.assert_allclose(a.centers[order_a], c.centers[order_c], rtol=1e-9)
        np.testing.assert_allclose(a.widths[order_a], c.widths[order_c], rtol=1e-9)

    def test_duplicate_heavy_data_still_yields_k_rules(self):
        x = np.zeros((2, 8))
        rb = fit_antecedents(x, 4)
        assert rb.n_rules == 4

    def test_rejects_too_many_rules(self):
        with pytest.raises(ValueError, match="exceeds"):
            fit_antecedents(np.zeros((2, 3)), 4)

    def test_rejects_1d_features_and_no_rules(self):
        with pytest.raises(ValueError, match="D x N matrix"):
            fit_antecedents(np.zeros(3), 1)
        with pytest.raises(ValueError, match="n_rules must be at least 1"):
            fit_antecedents(np.zeros((2, 3)), 0)

    @staticmethod
    def _assert_equals_the_oracle(x, n_rules):
        rb = fit_antecedents(x, n_rules)
        centers, widths = oracle_fit_antecedents(x, n_rules, DEFAULT_WIDTH_FLOOR)
        np.testing.assert_array_equal(rb.centers, centers)
        np.testing.assert_array_equal(rb.widths, widths)

    @pytest.mark.parametrize("kind", SYNTH_KINDS)
    @pytest.mark.parametrize("n_rules", [1, 2, 3, 6, 12])
    def test_equals_the_recomputing_oracle_bit_for_bit(self, kind, n_rules):
        self._assert_equals_the_oracle(_synth_features(kind), n_rules)

    @pytest.mark.parametrize("case", ["rules_equal_samples", "constant_features",
                                      "point_mass_clusters"])
    def test_degenerate_inputs_equal_the_oracle_bit_for_bit(self, case):
        rng = np.random.default_rng(21)
        if case == "rules_equal_samples":
            x, n_rules = rng.random((3, 9)), 9
        elif case == "constant_features":
            x, n_rules = np.vstack([np.full(40, 0.7), rng.random(40), np.zeros(40)]), 6
        else:  # three distinct columns: the later splits are by sample order
            x, n_rules = np.repeat(rng.random((2, 3)), [5, 1, 4], axis=1), 7
        self._assert_equals_the_oracle(x, n_rules)

    @pytest.mark.parametrize("value", [2.0, 2.5, np.float64(2.0)])
    def test_rejects_a_non_integer_rule_count(self, value):
        with pytest.raises(ValueError, match=r"^n_rules must be an integer, got "):
            fit_antecedents(np.zeros((2, 3)), value)
        assert fit_antecedents(np.zeros((2, 3)), np.int64(2)).n_rules == 2


class TestFillFuzzyRows:
    """The fuzzy features written into the rule rows of a training buffer."""

    @pytest.mark.parametrize("kind", SYNTH_KINDS)
    @pytest.mark.parametrize("n_rules", ["one", "three", "n"])
    def test_rule_rows_of_a_buffer_hold_the_fuzzy_matrix(self, kind, n_rules):
        x = _synth_features(kind)
        rb = fit_antecedents(x, {"one": 1, "three": 3, "n": x.shape[1]}[n_rules])
        n_terms = rb.n_rules * (rb.n_features + 1)
        buffer = np.full((n_terms + 5, x.shape[1]), 7.0)
        _fill_fuzzy_rows(x, _strength_columns(x, rb), buffer[:n_terms])
        np.testing.assert_array_equal(buffer[:n_terms], fuzzy_rows(x, rb))
        np.testing.assert_array_equal(buffer[n_terms:], 7.0)


def _model_for_rulebase(rb, n_labels=2):
    d = rb.n_features
    consequents = np.arange(n_labels * rb.n_rules * (d + 1), dtype=float)
    consequents = consequents.reshape(n_labels, -1) / 10.0
    return ModelParams(
        mixing=np.eye(n_labels),
        consequents=consequents,
        rulebase=rb,
        norm=NormStats(np.zeros(d), np.ones(d)),
        feature_names=tuple("f%d" % (i + 1) for i in range(d)),
        label_names=tuple("y%d" % (i + 1) for i in range(n_labels)),
        config=TrainConfig(n_rules=rb.n_rules),
    )


class TestExportRules:
    def test_three_rules_sorted_into_terms(self):
        centers = np.array([[116.7], [1155.1], [5881.8]])
        rb = RuleBase(centers, np.full((3, 1), 2.0))
        text = export_rules(_model_for_rulebase(rb))
        blocks = text.strip().split("\n\n")
        assert "IF f1 is Small" in blocks[0]
        assert "IF f1 is Medium" in blocks[1]
        assert "IF f1 is Large" in blocks[2]

    def test_unsorted_centers_get_terms_by_value(self):
        centers = np.array([[5.0], [1.0], [3.0]])
        rb = RuleBase(centers, np.full((3, 1), 1.0))
        text = export_rules(_model_for_rulebase(rb))
        blocks = text.strip().split("\n\n")
        assert "IF f1 is Large" in blocks[0]
        assert "IF f1 is Small" in blocks[1]
        assert "IF f1 is Medium" in blocks[2]

    @pytest.mark.parametrize("terms", [("Small", "Large"),
                                       ("Level 1", "Level 2", "Level 3", "Level 4")])
    def test_two_and_four_rules_get_their_terms(self, terms):
        k = len(terms)
        rb = RuleBase(np.arange(k, 0, -1.0)[:, None], np.ones((k, 1)))  # descending
        blocks = export_rules(_model_for_rulebase(rb)).strip().split("\n\n")
        assert [block.splitlines()[1] for block in blocks] == \
               ["IF f1 is %s" % term for term in reversed(terms)]

    def test_single_rule_is_medium(self):
        rb = RuleBase([[0.5, 0.2]], [[1.0, 1.0]])
        text = export_rules(_model_for_rulebase(rb))
        assert "IF f1 is Medium" in text
        assert "IF f2 is Medium" in text

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        rb = RuleBase(rng.random((3, 2)), rng.uniform(0.1, 1.0, size=(3, 2)))
        model = _model_for_rulebase(rb)
        assert export_rules(model) == export_rules(model)

    def test_consequent_lines_per_label(self):
        rb = RuleBase([[0.5]], [[1.0]])
        text = export_rules(_model_for_rulebase(rb, n_labels=2))
        assert "THEN y1 = " in text
        assert "THEN y2 = " in text
