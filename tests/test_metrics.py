import re

import numpy as np
import pytest

from oracles import (
    oracle_average_precision,
    oracle_coverage,
    oracle_hamming_loss,
    oracle_ranking_loss,
)
from reference_ranking import ColumnRanking, reference_evaluate

from fuzzml.metrics import (
    METRICS,
    MetricsReport,
    _Ranking,
    average_precision,
    coverage,
    critical_difference,
    evaluate,
    hamming_loss,
    ranking_loss,
)


class TestAveragePrecision:
    def test_top_ranked_relevant(self):
        scores = np.array([[0.9], [0.5], [0.1]])
        truth = np.array([[1.0], [0.0], [0.0]])
        assert average_precision(scores, truth) == pytest.approx(1.0, abs=1e-12)

    def test_bottom_ranked_relevant(self):
        scores = np.array([[0.9], [0.5], [0.1]])
        truth = np.array([[0.0], [0.0], [1.0]])
        assert average_precision(scores, truth) == pytest.approx(1 / 3, abs=1e-12)

    def test_two_relevant(self):
        scores = np.array([[0.9], [0.5], [0.1]])
        truth = np.array([[1.0], [0.0], [1.0]])
        assert average_precision(scores, truth) == pytest.approx(5 / 6, abs=1e-12)

    def test_all_skipped_raises(self):
        with pytest.raises(ValueError, match="no evaluable samples"):
            average_precision(np.zeros((2, 3)), np.zeros((2, 3)))


class TestHammingLoss:
    def test_identical(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert hamming_loss(y, y) == 0.0

    def test_complement(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert hamming_loss(1.0 - y, y) == 1.0

    def test_one_of_three_bits(self):
        truth = np.array([[1.0], [0.0], [1.0]])
        pred = np.array([[1.0], [1.0], [1.0]])
        assert hamming_loss(pred, truth) == pytest.approx(1 / 3, abs=1e-12)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="binary"):
            hamming_loss(np.array([[0.5]]), np.array([[1.0]]))


class TestRankingLoss:
    def test_perfect_separation(self):
        scores = np.array([[0.9], [0.5], [0.1]])
        truth = np.array([[1.0], [0.0], [0.0]])
        assert ranking_loss(scores, truth) == 0.0

    def test_worst_case(self):
        scores = np.array([[0.9], [0.5], [0.1]])
        truth = np.array([[0.0], [0.0], [1.0]])
        assert ranking_loss(scores, truth) == 1.0

    def test_half_violated(self):
        scores = np.array([[0.9], [0.5], [0.1]])
        truth = np.array([[0.0], [1.0], [0.0]])
        assert ranking_loss(scores, truth) == pytest.approx(0.5, abs=1e-12)


class TestCoverage:
    def test_top_rank(self):
        scores = np.array([[0.9], [0.5], [0.1]])
        truth = np.array([[1.0], [0.0], [0.0]])
        assert coverage(scores, truth) == (0.0, 0.0)

    def test_worst_relevant_at_rank_three(self):
        scores = np.array([[0.9], [0.5], [0.1]])
        truth = np.array([[1.0], [0.0], [1.0]])
        raw, norm = coverage(scores, truth)
        assert raw == pytest.approx(2.0, abs=1e-12)
        assert norm == pytest.approx(2 / 3, abs=1e-12)

    def test_all_relevant_forces_maximum(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=(4, 6))
        truth = np.ones((4, 6))
        raw, norm = coverage(scores, truth)
        assert raw == 3.0
        assert norm == 0.75


class TestOracleEquivalence:
    def test_thousand_seeded_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n_labels = int(rng.integers(2, 7))
            n = int(rng.integers(1, 9))
            # quantized scores so ties genuinely occur
            scores = np.round(rng.normal(size=(n_labels, n)), 1)
            truth = (rng.random((n_labels, n)) < 0.5).astype(float)
            pred = (rng.random((n_labels, n)) < 0.5).astype(float)
            rel = truth.sum(axis=0)
            if np.all((rel == 0)):
                continue
            assert average_precision(scores, truth) == pytest.approx(
                oracle_average_precision(scores, truth), abs=1e-12)
            assert hamming_loss(pred, truth) == pytest.approx(
                oracle_hamming_loss(pred, truth), abs=1e-12)
            raw, norm = coverage(scores, truth)
            oraw, onorm = oracle_coverage(scores, truth)
            assert raw == pytest.approx(oraw, abs=1e-12)
            assert norm == pytest.approx(onorm, abs=1e-12)
            if np.any((rel > 0) & (rel < n_labels)):
                assert ranking_loss(scores, truth) == pytest.approx(
                    oracle_ranking_loss(scores, truth), abs=1e-12)

    @pytest.mark.parametrize("n_labels", [2, 5, 64, 200])
    @pytest.mark.parametrize("decimals", [None, 1, 0])
    def test_wide_label_sets_with_ties_and_degenerate_samples(self, n_labels, decimals):
        rng = np.random.default_rng(n_labels)
        n = 24
        scores = rng.normal(size=(n_labels, n))
        if decimals is not None:  # rounded scores tie, many of them at 0 decimals
            scores = np.round(scores, decimals)
        truth = (rng.random((n_labels, n)) < rng.uniform(0.05, 0.95, size=n)).astype(float)
        truth[:, 0] = 0.0  # empty relevant set: skipped by AP, RL and coverage
        truth[:, 1] = 1.0  # full relevant set: skipped by RL
        truth[0, 2], truth[1:, 2] = 1.0, 0.0
        scores[:, 3] = 0.5  # one sample with every score tied
        assert average_precision(scores, truth) == pytest.approx(
            oracle_average_precision(scores, truth), abs=1e-12)
        assert ranking_loss(scores, truth) == pytest.approx(
            oracle_ranking_loss(scores, truth), abs=1e-12)
        raw, norm = coverage(scores, truth)
        oraw, onorm = oracle_coverage(scores, truth)
        assert raw == pytest.approx(oraw, abs=1e-12)
        assert norm == pytest.approx(onorm, abs=1e-12)

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n_labels, n = 5, 6
            scores = rng.normal(size=(n_labels, n))  # continuous: tie-free
            truth = (rng.random((n_labels, n)) < 0.5).astype(float)
            truth[0, :] = 1.0  # keep every sample evaluable
            truth[1, :] = 0.0
            perm = rng.permutation(n_labels)
            assert average_precision(scores[perm], truth[perm]) == pytest.approx(
                average_precision(scores, truth), abs=1e-12)
            assert ranking_loss(scores[perm], truth[perm]) == pytest.approx(
                ranking_loss(scores, truth), abs=1e-12)
            assert coverage(scores[perm], truth[perm])[0] == pytest.approx(
                coverage(scores, truth)[0], abs=1e-12)


class TestEvaluate:
    def test_report_fields_and_skip_count(self):
        scores = np.array([[0.9, 0.2, 0.7], [0.1, 0.8, 0.6], [0.4, 0.3, 0.5]])
        truth = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        report = evaluate(scores, truth, tau=0.5)
        # sample 2 has an empty relevant set, sample 3 a complete one
        assert report.n_skipped_ap_rl == 2
        assert report.cv_norm == pytest.approx(report.cv_raw / 3, abs=1e-15)
        assert 0.0 <= report.ap <= 1.0
        assert 0.0 <= report.hl <= 1.0
        assert report.as_dict() == {key: getattr(report, key)
                                    for key in METRICS + ("n_skipped_ap_rl",)}

    def test_ranges_hold_even_with_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            scores = np.round(rng.normal(size=(4, 5)), 1)
            truth = (rng.random((4, 5)) < 0.5).astype(float)
            truth[0, :] = 1.0
            assert 0.0 <= average_precision(scores, truth) <= 1.0
            raw, norm = coverage(scores, truth)
            assert 0.0 <= norm <= 1.0

    def test_fully_tied_scores_follow_index_order(self):
        # ties resolve by label index on both sides of the precision
        # fraction, so an all-tied, all-relevant column is perfect
        scores = np.full((3, 1), 0.6)
        truth = np.ones((3, 1))
        assert average_precision(scores, truth) == pytest.approx(1.0, abs=1e-12)

    def test_threshold_feeds_hamming(self):
        scores = np.array([[0.6], [0.4]])
        truth = np.array([[1.0], [0.0]])
        assert evaluate(scores, truth, tau=0.5).hl == 0.0
        assert evaluate(scores, truth, tau=0.7).hl == 0.5

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_non_finite_threshold_is_rejected(self, tau):
        scores = np.array([[0.6], [0.4]])
        truth = np.array([[1.0], [0.0]])
        with pytest.raises(ValueError, match="tau must be finite"):
            evaluate(scores, truth, tau=tau)


def _report_from_the_metric_functions(scores, truth, tau):
    truth_f = np.asarray(truth, dtype=np.float64)
    rel = truth_f.sum(axis=0)
    cv_raw, cv_norm = coverage(scores, truth)
    return MetricsReport(
        ap=average_precision(scores, truth),
        hl=hamming_loss((scores >= tau).astype(np.float64), truth),
        rl=ranking_loss(scores, truth),
        cv_raw=cv_raw,
        cv_norm=cv_norm,
        n_skipped_ap_rl=int(np.count_nonzero((rel == 0) | (rel == truth_f.shape[0]))),
    )


class TestEvaluateAgreesWithTheMetricFunctions:
    """evaluate ranks once for all fields; each field must equal, bit for
    bit, what the public function computes from the pair on its own."""

    @pytest.mark.parametrize("layout", ["float", "fortran", "bool", "int"])
    def test_bit_identical_fields(self, layout):
        rng = np.random.default_rng(16)
        shapes = [(1, 1), (1, 6), (5, 1), (2, 1), (2, 9), (5, 40), (24, 30), (96, 12)]
        n_compared = 0
        for n_labels, n in shapes:
            for decimals in (None, 1, 0):  # rounded scores tie
                scores = rng.normal(size=(n_labels, n))
                if decimals is not None:
                    scores = np.round(scores, decimals)
                truth = rng.random((n_labels, n)) < rng.uniform(0.05, 0.95, size=n)
                if n >= 4:
                    truth[:, 1] = False  # an all-zero column
                    truth[:, 2] = True  # an all-one column
                if n_labels >= 2:  # one evaluable sample, so every field exists
                    truth[0, 0], truth[-1, 0] = True, False
                if layout == "fortran":  # the layout take_samples returns
                    truth = np.asfortranarray(truth.astype(np.float64))
                else:
                    truth = truth.astype({"float": np.float64, "bool": bool, "int": int}[layout])
                tau = float(scores[0, 0])  # a score on the threshold
                if n_labels == 1:  # every sample is empty or complete
                    with pytest.raises(ValueError, match="^no evaluable samples$"):
                        ranking_loss(scores, truth)
                    with pytest.raises(ValueError, match="^no evaluable samples$"):
                        evaluate(scores, truth, tau)
                    continue
                assert evaluate(scores, truth, tau) == \
                    _report_from_the_metric_functions(scores, truth, tau)
                n_compared += 1
        assert n_compared == 3 * (len(shapes) - 2)


def _outcome(call, *args):
    """The value of ``call(*args)``, or the message of the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return "ValueError: %s" % exc


class TestRowWalkMatchesTheColumnReference:
    """The row walk of ``_Ranking`` must give, bit for bit, what the per-column
    accumulations of ``reference_ranking.ColumnRanking`` give."""

    @pytest.mark.parametrize("n_labels", [1, 2, 5, 24, 64, 200])
    @pytest.mark.parametrize("decimals", [None, 1, 0])
    def test_equal_reports(self, n_labels, decimals):
        rng = np.random.default_rng([n_labels, 9 if decimals is None else decimals])
        n = 60
        scores = rng.normal(size=(n_labels, n))
        if decimals is not None:  # rounded scores tie, many of them at 0 decimals
            scores = np.round(scores, decimals)
        truth = (rng.random((n_labels, n)) < rng.uniform(0.05, 0.95, size=n)).astype(float)
        truth[:, 0] = 0.0  # no relevant label
        truth[:, 1] = 1.0  # every label relevant
        scores[:, 2:5] = 0.25  # fully tied columns, the last one all relevant
        truth[:, 4] = 1.0
        tau = float(np.median(scores))
        report = _outcome(evaluate, scores, truth, tau)
        assert report == _outcome(reference_evaluate, scores, truth, tau)
        # with one label every sample is empty or complete, so ranking loss
        # and the report are refused on both sides
        assert isinstance(report, MetricsReport) == (n_labels > 1)
        got, want = _Ranking(scores, truth), ColumnRanking(scores, truth)
        for name in ("hits", "run_end", "found", "n_rel"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        for name in ("average_precision", "ranking_loss", "coverage"):
            assert _outcome(getattr(got, name)) == _outcome(getattr(want, name)), name


_SCORES = np.array([[0.6, 0.2, 0.7], [0.4, 0.9, 0.1]])
_TRUTH = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


class TestErrors:
    @pytest.mark.parametrize("metric", [evaluate, average_precision, ranking_loss, coverage])
    @pytest.mark.parametrize("scores, truth, message", [
        (np.where(_SCORES == 0.9, np.nan, _SCORES), _TRUTH, "scores must be finite"),
        (np.where(_SCORES == 0.1, -np.inf, _SCORES), _TRUTH, "scores must be finite"),
        (_SCORES, np.where(_TRUTH == 1.0, 2.0, _TRUTH), "truth matrix must be binary"),
        (_SCORES, _TRUTH[:, :2], "scores and truth must be matching L x N matrices"),
        (_SCORES[0], _TRUTH[0], "scores and truth must be matching L x N matrices"),
        (_SCORES, np.zeros_like(_TRUTH), "no evaluable samples"),
        (_SCORES[:0], _TRUTH[:0], "scores and truth must have at least one label"),
        (_SCORES[:, :0], _TRUTH[:, :0], "no evaluable samples"),
    ], ids=["nan-score", "inf-score", "non-binary", "shape", "one-dim", "no-relevant",
            "no-labels", "no-samples"])
    def test_each_error_keeps_its_type_and_message(self, metric, scores, truth, message):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            metric(scores, truth)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_tau_comes_before_the_pair_check(self, tau):
        with pytest.raises(ValueError, match="^tau must be finite$"):
            evaluate(np.full((2, 1), np.nan), _TRUTH[:, :1], tau)

    def test_all_labels_relevant_leaves_only_ranking_loss_unevaluable(self):
        truth = np.ones_like(_TRUTH)
        assert average_precision(_SCORES, truth) == 1.0
        assert coverage(_SCORES, truth) == (1.0, 0.5)
        for metric in (ranking_loss, evaluate):
            with pytest.raises(ValueError, match="^no evaluable samples$"):
                metric(_SCORES, truth)

    @pytest.mark.parametrize("predicted, truth, message", [
        (_TRUTH, _TRUTH[:, :2], "predictions and truth must be matching L x N matrices"),
        (_TRUTH * 0.5, _TRUTH, "predictions must be binary"),
        (_TRUTH, _TRUTH - 1.0, "truth must be binary"),
        (_TRUTH[:0], _TRUTH[:0], "predictions and truth must not be empty"),
        (_TRUTH[:, :0], _TRUTH[:, :0], "predictions and truth must not be empty"),
    ])
    def test_hamming_loss_errors(self, predicted, truth, message):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            hamming_loss(predicted, truth)


class TestCriticalDifference:
    def test_reported_constant(self):
        assert critical_difference(12, 10, 3.268) == pytest.approx(5.2695, abs=1e-4)

    def test_two_methods(self):
        for m in (1, 4, 9):
            assert critical_difference(2, m, 1.5) == pytest.approx(
                1.5 * np.sqrt(1.0 / m), abs=1e-12)

    def test_three_methods(self):
        assert critical_difference(3, 6, 1.0) == pytest.approx(0.5774, abs=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            critical_difference(1, 10, 3.0)
        with pytest.raises(ValueError):
            critical_difference(3, 0, 3.0)
