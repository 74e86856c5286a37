"""Independent brute-force reference implementations used by the tests.

Everything here is written as literal set/pair enumeration with plain
Python loops, or recomputes every quantity from scratch where the package
reuses it, deliberately sharing no code with the package internals.
"""

import numpy as np


def oracle_rank(scores):
    """Literal count-based ranks with index tie-break."""
    f = list(scores)
    n = len(f)
    ranks = []
    for l in range(n):
        higher = sum(1 for j in range(n) if f[j] > f[l])
        earlier_tie = sum(1 for j in range(l) if f[j] == f[l])
        ranks.append(1 + higher + earlier_tie)
    return ranks


def oracle_average_precision(scores, truth):
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=float)
    terms = []
    for i in range(scores.shape[1]):
        f = scores[:, i]
        relevant = [l for l in range(scores.shape[0]) if truth[l, i] == 1.0]
        if not relevant:
            continue
        ranks = oracle_rank(f)
        acc = 0.0
        for l in relevant:
            at_least = sum(1 for lp in relevant if ranks[lp] <= ranks[l])
            acc += at_least / ranks[l]
        terms.append(acc / len(relevant))
    if not terms:
        raise ValueError("no evaluable samples")
    return sum(terms) / len(terms)


def oracle_hamming_loss(pred, truth):
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    n_labels, n = truth.shape
    total = 0.0
    for i in range(n):
        diff = sum(1 for l in range(n_labels) if pred[l, i] != truth[l, i])
        total += diff / n_labels
    return total / n


def oracle_ranking_loss(scores, truth):
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=float)
    terms = []
    for i in range(scores.shape[1]):
        f = scores[:, i]
        relevant = [l for l in range(scores.shape[0]) if truth[l, i] == 1.0]
        irrelevant = [l for l in range(scores.shape[0]) if truth[l, i] == 0.0]
        if not relevant or not irrelevant:
            continue
        bad = sum(1 for l in relevant for lp in irrelevant if f[l] <= f[lp])
        terms.append(bad / (len(relevant) * len(irrelevant)))
    if not terms:
        raise ValueError("no evaluable samples")
    return sum(terms) / len(terms)


def oracle_coverage(scores, truth):
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=float)
    terms = []
    for i in range(scores.shape[1]):
        relevant = [l for l in range(scores.shape[0]) if truth[l, i] == 1.0]
        if not relevant:
            continue
        ranks = oracle_rank(scores[:, i])
        terms.append(max(ranks[l] for l in relevant) - 1)
    if not terms:
        raise ValueError("no evaluable samples")
    raw = sum(terms) / len(terms)
    return raw, raw / scores.shape[0]


def oracle_correlation_double_sum(mixing, consequents, labels):
    """Literal double sum over label pairs of the correlation penalty."""
    total = 0.0
    n_labels = labels.shape[0]
    for i in range(n_labels):
        for j in range(n_labels):
            diff = mixing[i] @ labels - mixing[j] @ labels
            total += float(diff @ diff) * float(consequents[i] @ consequents[j])
    return total


def oracle_laplacian(consequents):
    """Literal Laplacian of the consequent rows: -c_i.c_j off the diagonal, rows summing to 0."""
    n_labels = consequents.shape[0]
    lap = np.zeros((n_labels, n_labels))
    for i in range(n_labels):
        for j in range(n_labels):
            if i != j:
                inner = float(consequents[i] @ consequents[j])
                lap[i, j] = -inner
                lap[i, i] += inner
    return lap


def oracle_consequent_gradient(mixing, consequents, fuzzy_x, labels, alpha, gamma, d_cons):
    """Stationarity residual of the consequent subproblem, term by term."""
    soft = mixing @ labels
    grad = np.zeros_like(consequents)
    grad += 2.0 * consequents @ (fuzzy_x * d_cons) @ fuzzy_x.T
    grad -= 2.0 * (soft * d_cons) @ fuzzy_x.T
    grad += 2.0 * alpha * consequents
    m = soft @ soft.T
    dm = np.diag(m)
    coupling = (dm[:, None] + dm[None, :]) - 2.0 * m
    grad += 2.0 * gamma * coupling @ consequents
    return grad


def oracle_mixing_gradient(mixing, consequents, fuzzy_x, labels, beta, gamma,
                           d_fit, d_soft, laplacian, gram_shift):
    """Stationarity residual of the mixing subproblem with the ridged Gram."""
    n_labels = labels.shape[0]
    grad = np.zeros_like(mixing)
    grad += 2.0 * mixing @ (labels * d_fit) @ labels.T
    grad -= 2.0 * (consequents @ fuzzy_x * d_fit) @ labels.T
    grad += 2.0 * beta * mixing @ (labels * d_soft) @ labels.T
    grad -= 2.0 * beta * (labels * d_soft) @ labels.T
    ridged_gram = labels @ labels.T + gram_shift * np.eye(n_labels)
    grad += 4.0 * gamma * laplacian @ mixing @ ridged_gram
    return grad


def oracle_fuzzy_feature_matrix(features, centers, widths):
    """Per-sample fuzzy feature map, one column at a time.

    For each column x: log raw strengths -0.5 * sum(((x - c_k) / w_k)^2),
    normalized with the max-shifted exponential, or 1/K when the largest
    log strength is not finite; the column stacks strength_k * (1, x)
    rule by rule.
    """
    x = np.asarray(features, dtype=float)
    centers = np.asarray(centers, dtype=float)
    widths = np.asarray(widths, dtype=float)
    k = centers.shape[0]
    out = []
    for i in range(x.shape[1]):
        z = (x[None, :, i] - centers) / widths
        with np.errstate(over="ignore"):
            log_raw = -0.5 * np.sum(z * z, axis=1)
        shift = log_raw.max()
        if np.isfinite(shift):
            raw = np.exp(log_raw - shift)
            strengths = raw / raw.sum()
        else:
            strengths = np.full(k, 1.0 / k)
        x_ext = np.concatenate(([1.0], x[:, i]))
        out.append(np.concatenate([s * x_ext for s in strengths]))
    return np.array(out).T


def oracle_fit_antecedents(features, n_rules, width_floor):
    """Variance partitioning as specified, recomputed from scratch at every step.

    Each split recomputes every cluster's total variance, and the split
    cluster's feature variances, from a fresh gather ``x[:, idx]``; the
    centers and widths are the final clusters' means and standard
    deviations, each from its own gather. Returns ``(centers, widths)``.
    """
    x = np.asarray(features, dtype=float)
    clusters = [np.arange(x.shape[1])]
    for _ in range(n_rules - 1):
        totals = [x[:, idx].var(axis=1).sum() for idx in clusters]
        best = int(np.argmax(totals))
        if totals[best] > 0.0:
            idx = clusters[best]
            dim = int(np.argmax(x[:, idx].var(axis=1)))
            thr = x[dim, idx].mean()
            left = idx[x[dim, idx] <= thr]
            right = idx[x[dim, idx] > thr]
        else:
            best = int(np.argmax([len(idx) for idx in clusters]))
            idx = clusters[best]
            left, right = idx[:len(idx) // 2], idx[len(idx) // 2:]
        clusters[best] = left
        clusters.append(right)
    centers = np.array([x[:, idx].mean(axis=1) for idx in clusters])
    widths = np.array([x[:, idx].std(axis=1) for idx in clusters])
    return centers, np.maximum(widths, width_floor)
