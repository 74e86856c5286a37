"""Multilabel evaluation metrics and the critical-difference statistic.

All four metrics operate on an L x N score matrix and an L x N binary
truth matrix. Ranking ties are broken by label index: among equal scores
the smaller index receives the better (smaller) rank. Samples whose
relevant label set is empty are skipped by average precision, ranking
loss and coverage; ranking loss additionally skips samples whose relevant
set covers every label. Skipped samples are counted in the report.
"""

import dataclasses
import math

import numpy as np

__all__ = [
    "METRICS",
    "MetricsReport",
    "rank_labels",
    "average_precision",
    "hamming_loss",
    "ranking_loss",
    "coverage",
    "evaluate",
    "critical_difference",
]

# the MetricsReport fields that reports aggregate and print, in print order
METRICS = ("ap", "hl", "rl", "cv_raw", "cv_norm")


@dataclasses.dataclass(frozen=True)
class MetricsReport:
    """The four metrics for one scored test set.

    ``cv_raw`` is the mean worst rank of a relevant label minus one;
    ``cv_norm`` divides it by the label count so it lies in [0, 1].
    ``n_skipped_ap_rl`` counts samples whose relevant set is empty or
    complete.
    """

    ap: float
    hl: float
    rl: float
    cv_raw: float
    cv_norm: float
    n_skipped_ap_rl: int

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _check_pair(scores, truth):
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if scores.ndim != 2 or scores.shape != truth.shape:
        raise ValueError("scores and truth must be matching L x N matrices")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if not np.all((truth == 0.0) | (truth == 1.0)):
        raise ValueError("truth matrix must be binary")
    return scores, truth


def rank_labels(score_column) -> np.ndarray:
    """Ranks 1..L of one score column, higher score meaning better rank.

    rank(l) = 1 + #{l' : f(l') > f(l)} + #{l' < l : f(l') = f(l)}, so the
    output is always a permutation of 1..L.
    """
    f = np.asarray(score_column, dtype=np.float64)
    if f.ndim != 1:
        raise ValueError("rank_labels expects a single score column")
    order = np.argsort(-f, kind="stable")
    ranks = np.empty(len(f), dtype=np.int64)
    ranks[order] = np.arange(1, len(f) + 1)
    return ranks


def _by_rank(scores, *matrices):
    """The matrices with each column reordered by rank, best first.

    Row r then holds the label of rank r+1: one stable descending argsort
    per column gives the tie-broken ranking of :func:`rank_labels` for
    every sample at once.
    """
    order = np.argsort(-scores, axis=0, kind="stable")
    return [np.take_along_axis(m, order, axis=0) for m in matrices]


def _mean_terms(terms) -> float:
    if terms.size == 0:
        raise ValueError("no evaluable samples")
    return float(np.mean(terms))


def average_precision(scores, truth) -> float:
    """Mean over samples of the average per-relevant-label precision.

    For each relevant label, the number of relevant labels ranked at
    least as well, divided by the label's rank. The tie-broken ranking is
    used on both sides, so for tie-free scores this counts exactly the
    relevant labels scoring at least as high, and the value always lies
    in [0, 1]. Samples without relevant labels are skipped; if every
    sample is skipped a ValueError is raised.
    """
    scores, truth = _check_pair(scores, truth)
    (hits,) = _by_rank(scores, truth)
    ranks = np.arange(1, scores.shape[0] + 1, dtype=np.float64)[:, None]
    precision = (hits * np.cumsum(hits, axis=0) / ranks).sum(axis=0)
    n_rel = hits.sum(axis=0)
    keep = n_rel > 0
    return _mean_terms(precision[keep] / n_rel[keep])


def hamming_loss(predicted, truth) -> float:
    """Mean fraction of label bits that disagree."""
    predicted = np.asarray(predicted, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predicted.shape != truth.shape or predicted.ndim != 2:
        raise ValueError("predictions and truth must be matching L x N matrices")
    for name, m in (("predictions", predicted), ("truth", truth)):
        if not np.all((m == 0.0) | (m == 1.0)):
            raise ValueError("%s must be binary" % name)
    return float(np.mean(predicted != truth))


def ranking_loss(scores, truth) -> float:
    """Mean fraction of (relevant, irrelevant) pairs ranked in the wrong order.

    A pair counts when the relevant label does not score strictly higher.
    Samples lacking either relevant or irrelevant labels are skipped.
    """
    scores, truth = _check_pair(scores, truth)
    hits, sorted_scores = _by_rank(scores, truth, scores)
    n_labels = scores.shape[0]
    # A relevant label is beaten by every irrelevant one ranked before the
    # end of its run of equal scores: the irrelevant count up to that end.
    misses = np.cumsum(1.0 - hits, axis=0)
    run_end = np.ones(scores.shape, dtype=bool)
    run_end[:-1] = sorted_scores[1:] != sorted_scores[:-1]
    at_end = np.where(run_end, misses, np.inf)
    beaten_by = np.minimum.accumulate(at_end[::-1], axis=0)[::-1]
    bad = (hits * beaten_by).sum(axis=0)
    n_rel = hits.sum(axis=0)
    keep = (n_rel > 0) & (n_rel < n_labels)
    return _mean_terms(bad[keep] / (n_rel[keep] * (n_labels - n_rel[keep])))


def coverage(scores, truth):
    """Mean depth needed to cover all relevant labels, raw and normalized.

    Returns (cv_raw, cv_norm) where cv_raw averages (worst relevant rank
    minus one) over samples with relevant labels and cv_norm divides by L.
    """
    scores, truth = _check_pair(scores, truth)
    n_labels = scores.shape[0]
    (hits,) = _by_rank(scores, truth)
    found = np.cumsum(hits, axis=0)
    n_rel = found[-1]
    # ranks before the last relevant label are those that have not yet
    # found every relevant label
    depth = np.count_nonzero(found < n_rel[None, :], axis=0)
    cv_raw = _mean_terms(depth[n_rel > 0].astype(np.float64))
    return cv_raw, cv_raw / n_labels


def evaluate(scores, truth, tau: float = 0.5) -> MetricsReport:
    """Compute the full report; Hamming loss thresholds the scores at tau.

    A non-finite tau raises ValueError.
    """
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    scores, truth = _check_pair(scores, truth)
    predicted = (scores >= tau).astype(np.float64)
    rel_counts = truth.sum(axis=0)
    n_labels = scores.shape[0]
    skipped = int(np.count_nonzero((rel_counts == 0) | (rel_counts == n_labels)))
    cv_raw, cv_norm = coverage(scores, truth)
    return MetricsReport(
        ap=average_precision(scores, truth),
        hl=hamming_loss(predicted, truth),
        rl=ranking_loss(scores, truth),
        cv_raw=cv_raw,
        cv_norm=cv_norm,
        n_skipped_ap_rl=skipped,
    )


def critical_difference(n_methods: int, n_datasets: int, q_alpha: float) -> float:
    """Bonferroni-Dunn critical difference on average ranks.

    CD = q_alpha * sqrt(n (n + 1) / (6 M)) for n methods compared across
    M datasets.
    """
    if n_methods < 2:
        raise ValueError("need at least two methods")
    if n_datasets < 1:
        raise ValueError("need at least one dataset")
    return q_alpha * math.sqrt(n_methods * (n_methods + 1) / (6.0 * n_datasets))
