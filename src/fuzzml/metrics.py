"""Multilabel evaluation metrics and the critical-difference statistic.

:func:`evaluate` is the one entry to the four metrics: it takes an L x N
score matrix and an L x N binary truth matrix and returns every field of
a :class:`MetricsReport`. The three ranking metrics read one ranked view
of the checked pair, built once: one stable descending argsort per
column (among equal scores the smaller label index ranks better), turned
into one flat index that gathers truth and scores in that order. Every
later step works on whole label rows: adding each row of gathered truth
into the next gives the running relevant counts, which feed average
precision's precision sums, the relevant counts (the last row) and
coverage's depth; the rank minus them gives the irrelevant counts, and a
minimum walked up from the last row gives ranking loss the count at the
end of each run of tied scores. Samples without relevant labels are
skipped by all three, and ranking loss also skips samples whose every
label is relevant; the report counts both.
"""

import dataclasses
import math

import numpy as np

from .dataset import _check_real

__all__ = ["METRICS", "MetricsReport", "evaluate", "critical_difference"]

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
    if len(scores) == 0:
        raise ValueError("scores and truth must have at least one label")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if not np.all((truth == 0.0) | (truth == 1.0)):
        raise ValueError("truth matrix must be binary")
    return scores, truth


def _mean_terms(terms) -> float:
    if terms.size == 0:
        raise ValueError("no evaluable samples")
    return float(np.mean(terms))


class _Ranking:
    """The ranked view, built by walking the L label rows.

    ``order`` becomes the flat index ``order * N + column``, so one
    ``take`` of each raveled matrix gives ``hits`` and the sorted scores.
    ``run_end`` marks the last rank of each run of tied scores, and
    ``found[r]`` is ``hits[0] + ... + hits[r]``, summed row into row.
    Every walked value is an exact integer, so the order of the sums
    does not change a bit. The walk needs L >= 1, which ``_check_pair``
    ensures.
    """

    def __init__(self, scores, truth):
        self.n_labels, n_samples = scores.shape
        order = np.argsort(-scores, axis=0, kind="stable")
        order *= n_samples
        order += np.arange(n_samples)
        self.hits = truth.take(order)
        sorted_scores = scores.take(order)
        del order  # freed as soon as read, so later buffers can reuse the memory
        self.run_end = np.ones(scores.shape, dtype=bool)
        self.run_end[:-1] = sorted_scores[1:] != sorted_scores[:-1]
        del sorted_scores
        self.found = self.hits.copy()
        for above, row in zip(self.found, self.found[1:]):
            row += above
        self.n_rel = self.found[-1]
        self.ranks = np.arange(1, self.n_labels + 1, dtype=np.float64)[:, None]

    def average_precision(self) -> float:
        precision = (self.hits * self.found / self.ranks).sum(axis=0)
        keep = self.n_rel > 0
        return _mean_terms(precision[keep] / self.n_rel[keep])

    def ranking_loss(self) -> float:
        # A relevant label is beaten by every irrelevant one ranked before the
        # end of its run of equal scores: rank minus relevant count at that end.
        # Walked up from the last row, each row keeps the least count at or below it.
        beaten_by = self.ranks - self.found
        beaten_by[~self.run_end] = np.inf
        for row, below in zip(beaten_by[-2::-1], beaten_by[:0:-1]):
            np.minimum(row, below, out=row)
        bad = (self.hits * beaten_by).sum(axis=0)
        n_rel = self.n_rel
        keep = (n_rel > 0) & (n_rel < self.n_labels)
        return _mean_terms(bad[keep] / (n_rel[keep] * (self.n_labels - n_rel[keep])))

    def coverage(self):
        # depth: the ranks that have not yet found every relevant label
        depth = np.count_nonzero(self.found < self.n_rel, axis=0)
        cv_raw = _mean_terms(depth[self.n_rel > 0].astype(np.float64))
        return cv_raw, cv_raw / self.n_labels


def evaluate(scores, truth, tau: float = 0.5) -> MetricsReport:
    """Compute the full report; Hamming loss thresholds the scores at tau.

    ``ap`` averages, over each relevant label, the number of relevant
    labels ranked at least as well divided by the label's rank; with
    the tie-broken ranking on both sides it lies in [0, 1]. ``hl`` is the
    fraction of label bits where ``scores >= tau`` disagrees with truth.
    ``rl`` is the fraction of (relevant, irrelevant) pairs in which the
    relevant label does not score strictly higher. Each ranking metric is
    a mean over the samples the module docstring says it reads; one left
    without such a sample raises ValueError("no evaluable samples"), so
    a pair with L = 1, or with every label of every sample relevant, has
    no report. A tau that is not a finite real number, a non-finite score
    or non-binary truth raises ValueError.
    """
    _check_real("tau", tau)
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    scores, truth = _check_pair(scores, truth)
    ranking = _Ranking(scores, truth)
    cv_raw, cv_norm = ranking.coverage()
    n_rel = ranking.n_rel
    return MetricsReport(
        ap=ranking.average_precision(),
        hl=float(np.mean((scores >= tau) != (truth == 1.0))),
        rl=ranking.ranking_loss(),
        cv_raw=cv_raw,
        cv_norm=cv_norm,
        n_skipped_ap_rl=int(np.count_nonzero((n_rel == 0) | (n_rel == ranking.n_labels))),
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
