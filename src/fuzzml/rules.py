"""Gaussian fuzzy rule antecedents and the rule-generated feature map.

A rule base holds K Gaussian antecedents over D features. Rule k's raw
firing strength at x is the product over features of the memberships
exp(-((x_j - c_kj) / w_kj)^2 / 2); normalized, the K strengths sum to 1.
The feature map takes a D x N matrix to its K(D+1) x N fuzzy features:
each column's normalized strengths scale the bias-augmented column
(1, x), and the per-rule blocks are stacked in rule order.

Two private kernels build them. One computes the K x N normalized firing
strengths, feature by feature and rule by rule, with element-wise
operations only; training and ``predictor.score`` both take their
strengths from it, so a column's strengths are the same bits alone as
inside any batch. The other writes the fuzzy features of D x N features
with given strengths into a K(D+1) x N buffer; training writes the rule
rows of its one Gram buffer with it once per run, and rescales them in
place from then on. ``predictor.score`` sums the rules without forming
the fuzzy features.
"""

import numpy as np

from .dataset import _check_int

__all__ = [
    "RuleBase",
    "fit_antecedents",
    "export_rules",
]

DEFAULT_WIDTH_FLOOR = 1e-4


class RuleBase:
    """K Gaussian antecedents: K x D matrices of centers and positive widths."""

    __slots__ = ("centers", "widths")

    def __init__(self, centers, widths):
        centers = np.array(centers, dtype=np.float64)
        widths = np.array(widths, dtype=np.float64)
        if centers.ndim != 2 or centers.shape != widths.shape:
            raise ValueError("centers and widths must be matching K x D matrices")
        if centers.shape[0] < 1 or centers.shape[1] < 1:
            raise ValueError("rule base needs K >= 1 rules and D >= 1 features")
        if not (np.isfinite(centers).all() and np.isfinite(widths).all()):
            raise ValueError("centers and widths must be finite")
        if np.any(widths <= 0.0):
            raise ValueError("all widths must be positive")
        centers.setflags(write=False)
        widths.setflags(write=False)
        self.centers = centers
        self.widths = widths

    @property
    def n_rules(self) -> int:
        return self.centers.shape[0]

    @property
    def n_features(self) -> int:
        return self.centers.shape[1]


def fit_antecedents(features, n_rules) -> RuleBase:
    """Fit K rule antecedents by deterministic variance partitioning.

    Starting from one cluster holding every sample, the cluster with the
    largest total within-cluster variance is split K-1 times at the mean of
    its highest-variance feature. Centers are per-cluster feature means and
    widths are per-cluster standard deviations floored at
    ``DEFAULT_WIDTH_FLOOR``. Each cluster's samples are gathered once, when
    it is made, for its feature means and variances.

    Parameters
    ----------
    features : (D, N) matrix, one column per sample.
    n_rules : number of rules K, with 1 <= K <= N.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be a D x N matrix")
    n = x.shape[1]
    _check_int("n_rules", n_rules)
    if n_rules < 1:
        raise ValueError("n_rules must be at least 1")
    if n_rules > n:
        raise ValueError("n_rules exceeds the sample count (%d > %d)" % (n_rules, n))

    def moments(idx):
        # the gather's copy fixes numpy's summation order; widths are sqrt(var),
        # which is std bit for bit
        block = x[:, idx]
        return block.mean(axis=1), block.var(axis=1)

    clusters = [np.arange(n)]
    stats = [moments(clusters[0])]
    for _ in range(n_rules - 1):
        totals = [var.sum() for _, var in stats]
        best = int(np.argmax(totals))
        if totals[best] > 0.0:
            idx = clusters[best]
            values = x[int(np.argmax(stats[best][1])), idx]
            thr = values.mean()
            left = idx[values <= thr]
            right = idx[values > thr]
        else:
            # All clusters are point masses; split the largest by sample order
            # so K clusters still come out.
            sizes = [len(idx) for idx in clusters]
            best = int(np.argmax(sizes))
            idx = clusters[best]
            half = len(idx) // 2
            left, right = idx[:half], idx[half:]
        clusters[best] = left
        clusters.append(right)
        stats[best] = moments(left)
        stats.append(moments(right))

    centers = np.array([mean for mean, _ in stats])
    widths = np.maximum(np.sqrt([var for _, var in stats]), DEFAULT_WIDTH_FLOOR)
    return RuleBase(centers, widths)


def _strength_columns(x, rulebase: RuleBase) -> np.ndarray:
    """Normalized firing strengths of the columns of a D x N matrix, K x N.

    Feature by feature, in feature order, the squared standardized
    distances to the K centers are added into one K x N buffer; minus half
    of it is each column's log raw strengths (the log of the product of D
    memberships). Each column is then normalized with a log-sum-exp whose
    max and sum run over the rules in rule order, so distant inputs do not
    underflow; a column whose log strengths still overflow to -inf gets the
    uniform strengths 1/K. All of it is element-wise, so every column sees
    the same operations in the same order whatever N is, and a one-column
    call gives the same bits as that column inside a larger matrix.
    """
    centers, widths = rulebase.centers, rulebase.widths
    k = rulebase.n_rules
    log_raw = np.zeros((k, x.shape[1]))
    z = np.empty_like(log_raw)
    with np.errstate(over="ignore"):
        # overflow to inf is handled by the uniform fallback below
        for j in range(x.shape[0]):
            np.subtract(x[j], centers[:, j, None], out=z)
            z /= widths[:, j, None]
            z *= z
            log_raw += z
    log_raw *= -0.5
    shift = log_raw[0].copy()
    for r in range(1, k):
        np.maximum(shift, log_raw[r], out=shift)
    finite = np.isfinite(shift)
    shift[~finite] = 0.0
    log_raw -= shift
    strengths = np.exp(log_raw, out=log_raw)
    total = strengths[0].copy()
    for r in range(1, k):
        total += strengths[r]
    with np.errstate(invalid="ignore"):
        # columns without a finite shift are overwritten below
        strengths /= total
    strengths[:, ~finite] = 1.0 / k
    return strengths


def _fill_fuzzy_rows(x, strengths, out) -> np.ndarray:
    """Write the fuzzy features of ``x`` (D x N) into ``out``, K(D+1) x N.

    ``strengths`` are the K x N normalized firing strengths of the columns,
    from ``_strength_columns``. Row k(D+1) of ``out`` gets s_k and the next
    D rows s_k * x, one product per entry, so the rows are the same bits in
    any buffer, a fresh array or the rule rows of training's Gram buffer.
    """
    k, (d, n) = len(strengths), x.shape
    blocks = out.reshape(k, d + 1, n)  # splits the rows only, so a view
    blocks[:, 0, :] = strengths
    np.multiply(strengths[:, None, :], x[None, :, :], out=blocks[:, 1:, :])
    return out


def _linguistic_terms(n_rules: int) -> list:
    if n_rules == 1:
        return ["Medium"]
    if n_rules == 2:
        return ["Small", "Large"]
    if n_rules == 3:
        return ["Small", "Medium", "Large"]
    return ["Level %d" % (i + 1) for i in range(n_rules)]


def export_rules(model) -> str:
    """Render a trained model's rule base as deterministic text.

    Per feature, the K rule centers are sorted ascending (ties broken by
    rule index) and assigned terms from an ordered vocabulary, so each
    rule's IF-part reads as a linguistic level. The THEN-part lists one
    affine consequent per label with 6 significant digits.
    """
    rulebase = model.rulebase
    consequents = model.consequents
    k, d = rulebase.centers.shape
    n_labels = consequents.shape[0]
    terms = _linguistic_terms(k)

    # term_of[rule][feature]: position of the rule's center in the sorted order
    term_of = np.empty((k, d), dtype=np.int64)
    for j in range(d):
        order = sorted(range(k), key=lambda r: (rulebase.centers[r, j], r))
        for pos, r in enumerate(order):
            term_of[r, j] = pos

    def fmt(v):
        return "%.6g" % v

    lines = []
    for r in range(k):
        lines.append("RULE %d" % (r + 1))
        for j in range(d):
            lines.append("IF %s is %s" % (model.feature_names[j], terms[term_of[r, j]]))
        block = consequents[:, r * (d + 1) : (r + 1) * (d + 1)]
        for l in range(n_labels):
            parts = [fmt(block[l, 0])]
            for j in range(d):
                coef = block[l, j + 1]
                sign = "-" if coef < 0 else "+"
                parts.append("%s %s*x%d" % (sign, fmt(abs(coef)), j + 1))
            lines.append("THEN %s = %s" % (model.label_names[l], " ".join(parts)))
        lines.append("")
    return "\n".join(lines)
