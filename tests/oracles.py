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


def oracle_label_graph(mixing, labels):
    """Literal soft-label graph: the clipped cosine of soft-label rows i != j, 0 on the diagonal.

    a_ij = max(0, s_i.s_j / sqrt((s_i.s_i)(s_j.s_j))) for the rows s_i of
    M Y, and 0 where a row is zero.
    """
    soft = [mixing[i] @ labels for i in range(labels.shape[0])]
    n_labels = len(soft)
    graph = np.zeros((n_labels, n_labels))
    for i in range(n_labels):
        for j in range(n_labels):
            norms = float(soft[i] @ soft[i]) * float(soft[j] @ soft[j])
            if i != j and norms > 0.0:
                graph[i, j] = max(0.0, float(soft[i] @ soft[j]) / np.sqrt(norms))
    return graph


def oracle_laplacian(mixing, labels):
    """Literal Laplacian of the soft-label graph: -a_ij off the diagonal, rows summing to 0."""
    graph = oracle_label_graph(mixing, labels)
    n_labels = graph.shape[0]
    lap = np.zeros((n_labels, n_labels))
    for i in range(n_labels):
        for j in range(n_labels):
            if i != j:
                lap[i, j] = -graph[i, j]
                lap[i, i] += graph[i, j]
    return lap


def oracle_correlation_double_sum(mixing, consequents, labels):
    """Literal double sum over label pairs i != j of a_ij ||c_i - c_j||^2, the graph read at M."""
    graph = oracle_label_graph(mixing, labels)
    total = 0.0
    for i in range(labels.shape[0]):
        for j in range(labels.shape[0]):
            if i != j:
                diff = consequents[i] - consequents[j]
                total += graph[i, j] * float(diff @ diff)
    return total


def oracle_consequent_gradient(mixing, consequents, fuzzy_x, labels, alpha, gamma, d_cons):
    """Stationarity residual of the consequent subproblem, term by term.

    The weights d_cons and the soft-label graph are frozen at ``mixing``.
    """
    soft = mixing @ labels
    grad = np.zeros_like(consequents)
    grad += 2.0 * consequents @ (fuzzy_x * d_cons) @ fuzzy_x.T
    grad -= 2.0 * (soft * d_cons) @ fuzzy_x.T
    grad += 2.0 * alpha * consequents
    graph = oracle_label_graph(mixing, labels)
    for i in range(labels.shape[0]):
        for j in range(labels.shape[0]):
            grad[i] += 4.0 * gamma * graph[i, j] * (consequents[i] - consequents[j])
    return grad


def oracle_mixing_gradient(mixing, consequents, fuzzy_x, labels, beta, d_fit, d_soft):
    """Stationarity residual of the mixing subproblem.

    With the soft-label graph frozen, the correlation term does not depend
    on the mixing transform, so only the two weighted residuals enter.
    """
    grad = np.zeros_like(mixing)
    grad += 2.0 * mixing @ (labels * d_fit) @ labels.T
    grad -= 2.0 * (consequents @ fuzzy_x * d_fit) @ labels.T
    grad += 2.0 * beta * mixing @ (labels * d_soft) @ labels.T
    grad -= 2.0 * beta * (labels * d_soft) @ labels.T
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
