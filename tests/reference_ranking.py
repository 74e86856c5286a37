"""Column-wise reference for the ranked view of ``fuzzml.metrics``.

``fuzzml.metrics._Ranking`` walks the L label rows of the ranked view
with whole-row operations. :class:`ColumnRanking` builds the same view
the straightforward way, with numpy's per-column accumulations along
axis 0: ``take_along_axis`` for the gathers, ``cumsum`` for the relevant
counts and a reversed ``minimum.accumulate`` for the irrelevant counts
ranking loss reads. Every value either route computes is an exact
integer or a minimum of such values, so :func:`reference_evaluate`
must give a report ``==`` to ``fuzzml.metrics.evaluate``.
"""

import numpy as np

from fuzzml.metrics import MetricsReport, _check_pair, _hamming, _mean_terms


class ColumnRanking:
    """The ranked view; ``run_end`` marks the last rank of each run of tied scores."""

    def __init__(self, scores, truth):
        order = np.argsort(-scores, axis=0, kind="stable")
        self.hits = np.take_along_axis(truth, order, axis=0)
        sorted_scores = np.take_along_axis(scores, order, axis=0)
        self.run_end = np.ones(scores.shape, dtype=bool)
        self.run_end[:-1] = sorted_scores[1:] != sorted_scores[:-1]
        self.found = np.cumsum(self.hits, axis=0)
        self.n_rel = self.found[-1]
        self.n_labels = len(scores)
        self.ranks = np.arange(1, self.n_labels + 1, dtype=np.float64)[:, None]

    def average_precision(self) -> float:
        precision = (self.hits * self.found / self.ranks).sum(axis=0)
        keep = self.n_rel > 0
        return _mean_terms(precision[keep] / self.n_rel[keep])

    def ranking_loss(self) -> float:
        at_end = self.ranks - self.found
        at_end[~self.run_end] = np.inf
        beaten_by = np.minimum.accumulate(at_end[::-1], axis=0)[::-1]
        bad = (self.hits * beaten_by).sum(axis=0)
        n_rel = self.n_rel
        keep = (n_rel > 0) & (n_rel < self.n_labels)
        return _mean_terms(bad[keep] / (n_rel[keep] * (self.n_labels - n_rel[keep])))

    def coverage(self):
        depth = np.count_nonzero(self.found < self.n_rel, axis=0)
        cv_raw = _mean_terms(depth[self.n_rel > 0].astype(np.float64))
        return cv_raw, cv_raw / self.n_labels


def reference_evaluate(scores, truth, tau: float = 0.5) -> MetricsReport:
    """``fuzzml.metrics.evaluate`` on the column-wise ranked view."""
    scores, truth = _check_pair(scores, truth)
    ranking = ColumnRanking(scores, truth)
    cv_raw, cv_norm = ranking.coverage()
    n_rel = ranking.n_rel
    return MetricsReport(
        ap=ranking.average_precision(),
        hl=_hamming(scores >= tau, truth == 1.0),
        rl=ranking.ranking_loss(),
        cv_raw=cv_raw,
        cv_norm=cv_norm,
        n_skipped_ap_rl=int(np.count_nonzero((n_rel == 0) | (n_rel == ranking.n_labels))),
    )
