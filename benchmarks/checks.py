"""Correctness checks run on every timed operation, outside the timed region.

Each check returns a list of failure messages; an empty list passes.
The references share no code with the package: the fuzzy map below is an
independent vectorized implementation, and the metrics are compared with
the brute-force oracles in ``tests/oracles.py``.

Tolerances:

* ``score``: scores match ``consequents @ fuzzy map`` to 1e-9 of the
  largest score magnitude (floor 1); both sides are float64 and differ
  only in summation order.
* ``evaluate``: AP, HL, RL and coverage match the oracles to 1e-12 on a
  fixed subsample of held-out columns.
* ``train``: parameters are finite and the stop reason is a documented one.
* duplicated labels: README promises that duplicated labels receive
  identical mixing columns. The check allows a gap of 1e-6 of the largest
  mixing magnitude (floor 1), i.e. the columns must agree to six
  significant digits.
"""

import numpy as np

import oracles

SCORE_RTOL = 1e-9
METRIC_ATOL = 1e-12
DUPLICATE_RTOL = 1e-6
ORACLE_COLUMNS = 200
STOP_REASONS = ("margin", "max_iters", "nonpositive_loss")


def reference_scores(model, features) -> np.ndarray:
    """Scores from an independent vectorized normalization and fuzzy map."""
    x = np.asarray(features, dtype=np.float64)
    lo, hi = model.norm.minimum, model.norm.maximum
    span = hi - lo
    scaled = np.divide(x - lo[:, None], span[:, None], out=np.zeros_like(x),
                       where=span[:, None] > 0.0)
    scaled = np.clip(scaled, 0.0, 1.0)
    centers = model.rulebase.centers  # K x D
    widths = model.rulebase.widths
    z = (scaled[None, :, :] - centers[:, :, None]) / widths[:, :, None]  # K x D x N
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # a column whose strengths all underflow falls back to 1/K, as in rules
        log_raw = -0.5 * np.einsum("kdn,kdn->kn", z, z)
        shift = log_raw.max(axis=0)
        finite = np.isfinite(shift)
        raw = np.exp(log_raw - np.where(finite, shift, 0.0)[None, :])
        strengths = np.where(finite[None, :], raw / raw.sum(axis=0)[None, :],
                             1.0 / centers.shape[0])
    augmented = np.vstack([np.ones((1, x.shape[1])), scaled])  # (D+1) x N
    fuzzy = (strengths[:, None, :] * augmented[None, :, :]).reshape(-1, x.shape[1])
    return model.consequents @ fuzzy


def check_score(model, features, scores):
    reference = reference_scores(model, features)
    if scores.shape != reference.shape:
        return ["score: shape %s, expected %s" % (scores.shape, reference.shape)]
    gap = float(np.max(np.abs(scores - reference)))
    limit = SCORE_RTOL * max(1.0, float(np.max(np.abs(reference))))
    if not gap <= limit:
        return ["score: differs from the reference map by %.3g (limit %.3g)" % (gap, limit)]
    return []


def oracle_columns(n_samples: int) -> np.ndarray:
    """The fixed subsample of held-out columns the oracles are run on."""
    take = min(ORACLE_COLUMNS, n_samples)
    return np.sort(np.random.default_rng(0).choice(n_samples, size=take, replace=False))


def check_report_ranges(report):
    values = report.as_dict()
    bad = [k for k in ("ap", "hl", "rl", "cv_norm")
           if not (np.isfinite(values[k]) and 0.0 <= values[k] <= 1.0)]
    return ["evaluate: %s outside [0, 1]" % k for k in bad]


def check_evaluate_oracles(evaluate, scores, truth, tau):
    """Compare the package metrics with the oracles on the fixed subsample."""
    cols = oracle_columns(scores.shape[1])
    s, t = scores[:, cols], truth[:, cols]
    got = evaluate(s, t, tau)
    predicted = (s >= tau).astype(np.float64)
    cv_raw, cv_norm = oracles.oracle_coverage(s, t)
    expected = {
        "ap": oracles.oracle_average_precision(s, t),
        "hl": oracles.oracle_hamming_loss(predicted, t),
        "rl": oracles.oracle_ranking_loss(s, t),
        "cv_raw": cv_raw,
        "cv_norm": cv_norm,
    }
    values = got.as_dict()
    return [
        "evaluate: %s %.17g, oracle %.17g" % (k, values[k], v)
        for k, v in expected.items()
        if not abs(values[k] - v) <= METRIC_ATOL
    ]


def duplicate_gap(mixing, pair) -> float:
    """Largest gap between the two mixing columns, relative to max |mixing|."""
    a, b = pair
    scale = max(1.0, float(np.max(np.abs(mixing))))
    return float(np.max(np.abs(mixing[:, a] - mixing[:, b]))) / scale


def check_train(model, trace, max_iters, pair=None):
    failures = []
    for name in ("mixing", "consequents"):
        if not np.all(np.isfinite(getattr(model, name))):
            failures.append("train: non-finite %s" % name)
    if trace.stop_reason not in STOP_REASONS:
        failures.append("train: unknown stop reason %r" % trace.stop_reason)
    if not 1 <= trace.n_iterations <= max_iters:
        failures.append("train: %d iterations" % trace.n_iterations)
    if pair is not None:
        gap = duplicate_gap(model.mixing, pair)
        if not gap <= DUPLICATE_RTOL:
            failures.append(
                "train: duplicated labels %d and %d got mixing columns %.3g apart "
                "(relative, limit %.0e)" % (pair[0], pair[1], gap, DUPLICATE_RTOL)
            )
    return failures


def check_grid(grid, alphas, rules, folds):
    failures = []
    if grid.best.alpha not in alphas or grid.best.n_rules not in rules:
        failures.append("run_grid: winner outside the grid")
    if len(grid.cells) != len(alphas) * len(rules):
        failures.append("run_grid: %d cells" % len(grid.cells))
    if len(grid.final.results) != folds:
        failures.append("run_grid: final report has %d folds" % len(grid.final.results))
    best_ap = max(c.mean_ap for c in grid.cells)
    winner = [c for c in grid.cells
              if c.alpha == grid.best.alpha and c.n_rules == grid.best.n_rules]
    if not winner or winner[0].mean_ap != best_ap:
        failures.append("run_grid: winner does not have the best mean AP")
    elif abs(grid.final.means["ap"] - best_ap) > METRIC_ATOL:
        failures.append("run_grid: final AP %.17g differs from the winning cell %.17g"
                        % (grid.final.means["ap"], best_ap))
    return failures
