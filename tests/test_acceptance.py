"""Acceptance suite: one test per release criterion, in order.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary
line per criterion. Every tolerance is fixed here, not calibrated.
"""

import math

import numpy as np

from oracles import (
    oracle_average_precision,
    oracle_consequent_gradient,
    oracle_correlation_double_sum,
    oracle_coverage,
    oracle_hamming_loss,
    oracle_mixing_gradient,
    oracle_ranking_loss,
)
from reference_sylvester import kron_oracle

from fuzzml.dataset import Dataset, load_dataset, save_dataset
from fuzzml.metrics import (
    average_precision,
    coverage,
    critical_difference,
    hamming_loss,
    ranking_loss,
)
from fuzzml.optimizer import (
    TrainConfig,
    _Grams,
    _MixingSystem,
    _Point,
    _solve_consequents,
    train,
)
from fuzzml.experiments import ExperimentConfig, run_ablation
from fuzzml.predictor import load_model, predict, save_model
from fuzzml.rules import RuleBase, fit_antecedents, fuzzy_feature_matrix
from fuzzml.sylvester import residual_norm, solve_sylvester
from fuzzml.synthgen import SYNTH_KINDS, SynthSpec, gen_synthetic

# Seed fixing the canonical instances of the three synthetic datasets used
# by the end-to-end criteria.
SYNTH_SEED = 1


def _report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = " (%s)" % detail if detail else ""
    print("[criterion %2d] %s: %s%s" % (number, name, status, suffix))
    assert passed, "criterion %d failed%s" % (number, suffix)


def test_criterion_01_critical_difference():
    value = critical_difference(12, 10, 3.268)
    ok = abs(value - 5.2695) <= 1e-4
    _report(1, "critical difference constant", ok, "CD=%.5f" % value)


def test_criterion_02_sylvester_oracle_equivalence():
    rng = np.random.default_rng(20240202)
    worst_diff = 0.0
    worst_res = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        b = rng.normal(size=(n, n))
        b = 0.5 * (b + b.T)
        a = rng.normal(size=(m, m))
        a = 0.5 * (a + a.T) + 2.0 * np.linalg.norm(b) * np.eye(m)
        z = rng.normal(size=(m, n))
        w = solve_sylvester(a, b, z)
        w_ref = kron_oracle(a, b, z)
        worst_diff = max(worst_diff,
                         float(np.max(np.abs(w - w_ref) / (1.0 + np.abs(w_ref)))))
        worst_res = max(worst_res, residual_norm(a, b, z, w))
    ok = worst_diff <= 1e-10 and worst_res <= 1e-8
    _report(2, "sylvester solve matches dense oracle", ok,
            "max rel diff %.2e, max residual %.2e" % (worst_diff, worst_res))


def test_criterion_03_metrics_oracle_equivalence():
    rng = np.random.default_rng(20240303)
    checked = 0
    worst = 0.0
    for _ in range(1000):
        n_labels = int(rng.integers(2, 7))
        n = int(rng.integers(1, 9))
        scores = np.round(rng.normal(size=(n_labels, n)), 1)
        truth = (rng.random((n_labels, n)) < 0.5).astype(float)
        pred = (rng.random((n_labels, n)) < 0.5).astype(float)
        rel = truth.sum(axis=0)
        if np.all(rel == 0):
            continue
        checked += 1
        worst = max(worst, abs(average_precision(scores, truth)
                               - oracle_average_precision(scores, truth)))
        worst = max(worst, abs(hamming_loss(pred, truth)
                               - oracle_hamming_loss(pred, truth)))
        raw, norm = coverage(scores, truth)
        oracle_raw, oracle_norm = oracle_coverage(scores, truth)
        worst = max(worst, abs(raw - oracle_raw), abs(norm - oracle_norm))
        if np.any((rel > 0) & (rel < n_labels)):
            worst = max(worst, abs(ranking_loss(scores, truth)
                                   - oracle_ranking_loss(scores, truth)))
    scores = np.array([[0.9], [0.5], [0.1]])
    hand = (
        abs(average_precision(scores, np.array([[1.0], [0.0], [1.0]])) - 5 / 6),
        abs(ranking_loss(scores, np.array([[0.0], [1.0], [0.0]])) - 0.5),
        abs(coverage(scores, np.array([[1.0], [0.0], [1.0]]))[0] - 2.0),
    )
    ok = checked >= 900 and worst <= 1e-12 and max(hand) <= 1e-12
    _report(3, "metrics match brute-force evaluator", ok,
            "%d instances, max |diff| %.2e" % (checked, worst))


def test_criterion_04_correlation_trace_identity():
    rng = np.random.default_rng(20240404)
    worst_identity = 0.0
    worst_rowsum = 0.0
    for _ in range(100):
        n_labels = int(rng.integers(2, 6))
        n = int(rng.integers(1, 7))
        mixing = rng.normal(size=(n_labels, n_labels))
        consequents = rng.normal(size=(n_labels, int(rng.integers(1, 7))))
        labels = (rng.random((n_labels, n)) < 0.5).astype(float)
        # the Laplacian train() builds; the fuzzy features do not enter it
        lap = _Point(mixing, consequents, np.zeros((consequents.shape[1], n)), labels,
                     labels @ labels.T).laplacian
        soft = mixing @ labels
        trace_form = 2.0 * float(np.sum(soft * (lap @ soft)))
        double_sum = oracle_correlation_double_sum(mixing, consequents, labels)
        worst_identity = max(worst_identity, abs(trace_form - double_sum))
        worst_rowsum = max(worst_rowsum,
                           float(np.abs(lap @ np.ones(n_labels)).max()))
    ok = worst_identity <= 1e-10 and worst_rowsum <= 1e-10
    _report(4, "pairwise sum equals laplacian trace form", ok,
            "max identity gap %.2e, max row sum %.2e" % (worst_identity, worst_rowsum))


def _random_small_instance(rng):
    n_labels = int(rng.integers(2, 5))
    n_features = int(rng.integers(1, 4))
    n_rules = int(rng.integers(1, 3))
    n = int(rng.integers(n_rules + 2, 11))
    x = rng.random((n_features, n))
    rulebase = fit_antecedents(x, n_rules)
    fuzzy_x = fuzzy_feature_matrix(x, rulebase)
    labels = (rng.random((n_labels, n)) < 0.5).astype(float)
    labels[int(rng.integers(0, n_labels)), int(rng.integers(0, n))] = 1.0
    mixing = rng.normal(size=(n_labels, n_labels))
    consequents = rng.normal(size=(n_labels, fuzzy_x.shape[0]))
    return mixing, consequents, fuzzy_x, labels


def _fd_gradient(fn, point, h=1e-6):
    grad = np.zeros_like(point)
    for a in range(point.shape[0]):
        for b in range(point.shape[1]):
            up, down = point.copy(), point.copy()
            up[a, b] += h
            down[a, b] -= h
            grad[a, b] = (fn(up) - fn(down)) / (2 * h)
    return grad


def test_criterion_05_subproblem_stationarity():
    rng = np.random.default_rng(20240505)
    worst_stat = 0.0
    worst_fd = 0.0
    for _ in range(50):
        mixing, consequents, fuzzy_x, labels = _random_small_instance(rng)
        cfg = TrainConfig(alpha=float(rng.uniform(0.05, 1.0)),
                          beta=float(rng.uniform(0.1, 5.0)),
                          gamma=float(rng.uniform(0.0, 0.2)))
        # the pieces one iteration of train() builds at (mixing, consequents)
        system = _MixingSystem(labels, cfg)
        point = _Point(mixing, consequents, fuzzy_x, labels, system.label_gram)
        w_fit, w_soft = point.weights()
        grams = _Grams(fuzzy_x, labels, (w_fit, w_soft))
        lap = point.laplacian
        shift = system.ridge

        new_cons = _solve_consequents(point, grams, cfg)[0]
        grad_c = oracle_consequent_gradient(mixing, new_cons, fuzzy_x, labels,
                                            cfg.alpha, cfg.gamma, w_fit)
        worst_stat = max(worst_stat, np.linalg.norm(grad_c)
                         / (1.0 + np.linalg.norm(new_cons)))

        new_mix = system.solve(point, grams)[0]
        grad_s = oracle_mixing_gradient(new_mix, consequents, fuzzy_x, labels,
                                        cfg.beta, cfg.gamma, w_fit, w_soft, lap, shift)
        worst_stat = max(worst_stat, np.linalg.norm(grad_s)
                         / (1.0 + np.linalg.norm(new_mix)))

        # frozen-weight analytic gradients against central differences
        soft_gram = (mixing @ labels) @ (mixing @ labels).T

        def surrogate_cons(c):
            fit = sum(w_fit[i] * np.linalg.norm(
                mixing @ labels[:, i] - c @ fuzzy_x[:, i]) ** 2
                for i in range(labels.shape[1]))
            corr = sum(cfg.gamma * (soft_gram[i, i] + soft_gram[j, j]
                                    - 2 * soft_gram[i, j]) * float(c[i] @ c[j])
                       for i in range(labels.shape[0])
                       for j in range(labels.shape[0]))
            return fit + cfg.alpha * np.sum(c ** 2) + corr

        def surrogate_mix(s):
            fit = sum(w_fit[i] * np.linalg.norm(
                s @ labels[:, i] - consequents @ fuzzy_x[:, i]) ** 2
                for i in range(labels.shape[1]))
            soft = sum(w_soft[i] * np.linalg.norm(
                labels[:, i] - s @ labels[:, i]) ** 2
                for i in range(labels.shape[1]))
            corr = 2 * cfg.gamma * (
                np.trace(labels.T @ s.T @ lap @ s @ labels)
                + shift * np.trace(s.T @ lap @ s))
            return fit + cfg.beta * soft + corr

        point_c = rng.normal(size=consequents.shape)
        analytic_c = oracle_consequent_gradient(mixing, point_c, fuzzy_x, labels,
                                                cfg.alpha, cfg.gamma, w_fit)
        fd_c = _fd_gradient(surrogate_cons, point_c)
        worst_fd = max(worst_fd, np.linalg.norm(analytic_c - fd_c)
                       / np.linalg.norm(analytic_c))

        point_s = rng.normal(size=mixing.shape)
        analytic_s = oracle_mixing_gradient(point_s, consequents, fuzzy_x, labels,
                                            cfg.beta, cfg.gamma, w_fit,
                                            w_soft, lap, shift)
        fd_s = _fd_gradient(surrogate_mix, point_s)
        worst_fd = max(worst_fd, np.linalg.norm(analytic_s - fd_s)
                       / np.linalg.norm(analytic_s))
    ok = worst_stat <= 1e-6 and worst_fd <= 1e-5
    _report(5, "subproblem solves reach stationarity", ok,
            "max scaled gradient %.2e, max FD mismatch %.2e" % (worst_stat, worst_fd))


def test_criterion_06_fuzzy_layer_invariants():
    rng = np.random.default_rng(20240606)
    rulebase = RuleBase(rng.random((3, 5)), rng.uniform(0.05, 0.5, size=(3, 5)))
    worst_sum = 0.0
    blocks_exact = True
    for _ in range(1000):
        x = rng.random(5)
        blocks = fuzzy_feature_matrix(x[:, None], rulebase)[:, 0].reshape(3, 6)
        strengths = blocks[:, 0]
        worst_sum = max(worst_sum, abs(float(strengths.sum()) - 1.0))
        x_ext = np.concatenate(([1.0], x))
        expected = strengths[:, None] * x_ext[None, :]
        blocks_exact = blocks_exact and np.array_equal(blocks, expected)
    # rule 0 sits at the input, so the strength ratios s1/s0 and s2/s0 are
    # the Gaussian memberships one and two widths out
    s = fuzzy_feature_matrix([[2.0]], RuleBase([[2.0], [1.0], [0.0]], np.ones((3, 1))))[::2, 0]
    hand = max(abs(s[1] / s[0] - math.exp(-0.5)), abs(s[2] / s[0] - math.exp(-2.0)))
    ok = worst_sum <= 1e-12 and blocks_exact and hand <= 1e-12
    _report(6, "fuzzy layer invariants", ok,
            "max |sum-1| %.2e, blocks exact %s, membership gap %.2e"
            % (worst_sum, blocks_exact, hand))


def test_criterion_07_synthetic_label_logic():
    violations = 0
    total = 0
    for kind in SYNTH_KINDS:
        for seed in range(10):
            data = gen_synthetic(SynthSpec(kind=kind, n_samples=500,
                                           n_features=10, seed=seed))
            y = data.labels
            total += data.n_samples
            bad = np.zeros(data.n_samples, dtype=bool)
            if kind == "equality":
                bad |= (y[0] != y[1]) | (y[2] != y[3])
            elif kind == "union":
                bad |= y[0] != np.max(y[1:4], axis=0)
            bad |= y[4] != np.all(y[0:4] == 0.0, axis=0).astype(float)
            violations += int(bad.sum())
    ok = violations == 0
    _report(7, "synthetic label logic", ok,
            "%d violations over %d samples" % (violations, total))


def test_criterion_08_end_to_end_convergence():
    details = []
    ok = True
    for kind in SYNTH_KINDS:
        data = gen_synthetic(SynthSpec(kind=kind, n_samples=1000,
                                       n_features=20, seed=SYNTH_SEED))
        model, trace = train(data, TrainConfig())
        finite = all(math.isfinite(t.total) for t in trace.iterations) and all(
            math.isfinite(t) for t in trace.stopping_totals)
        good = (trace.stop_reason == "margin" and trace.n_iterations <= 20
                and finite and trace.totals[-1] <= trace.totals[0])
        ok = ok and good
        details.append("%s: %s in %d iters" % (kind, trace.stop_reason,
                                               trace.n_iterations))
    _report(8, "training converges on the synthetic datasets", ok,
            "; ".join(details))


def test_criterion_09_soft_label_symmetry():
    data = gen_synthetic(SynthSpec(kind="equality", n_samples=1000,
                                   n_features=20, seed=SYNTH_SEED))
    model, _ = train(data, TrainConfig())
    mixing = model.mixing
    bound = 0.05 * np.abs(mixing).max()
    d12 = np.abs(mixing[:, 0] - mixing[:, 1]).max()
    d34 = np.abs(mixing[:, 2] - mixing[:, 3]).max()
    ok = d12 <= bound and d34 <= bound
    _report(9, "duplicated labels get equal influence columns", ok,
            "col1-col2 %.2e, col3-col4 %.2e, bound %.4f" % (d12, d34, bound))


def test_criterion_10_soft_label_ablation_direction():
    data = gen_synthetic(SynthSpec(kind="equality", n_samples=1000,
                                   n_features=20, seed=SYNTH_SEED))
    config = ExperimentConfig(train=TrainConfig(), folds=5, seeds=(0, 1, 2, 3, 4))
    disabled, enabled = run_ablation(data, config, ("beta",), noise_ratio=0.2)["beta"]
    ok = enabled.means["ap"] >= disabled.means["ap"] - 0.01
    _report(10, "soft-label learning helps under 20% label noise", ok,
            "AP %.4f with vs %.4f without" % (enabled.means["ap"],
                                              disabled.means["ap"]))


def test_criterion_11_round_trips(tmp_path):
    data = gen_synthetic(SynthSpec(kind="independence", n_samples=50,
                                   n_features=4, seed=SYNTH_SEED))
    model, _ = train(data, TrainConfig(n_rules=2, max_iters=3))
    save_model(model, tmp_path / "model.txt")
    again = load_model(tmp_path / "model.txt")
    x_test = np.random.default_rng(0).random((4, 20))
    model_ok = np.array_equal(predict(again, x_test), predict(model, x_test))

    rng = np.random.default_rng(1)
    raw = Dataset(rng.normal(scale=1e3, size=(3, 7)),
                  (rng.random((2, 7)) < 0.5).astype(float))
    save_dataset(raw, tmp_path / "X.csv", tmp_path / "Y.csv")
    back = load_dataset(tmp_path / "X.csv", tmp_path / "Y.csv")
    data_ok = (np.array_equal(back.features, raw.features)
               and np.array_equal(back.labels, raw.labels))
    ok = model_ok and data_ok
    _report(11, "model and dataset round trips", ok,
            "model bit-identical %s, dataset bit-identical %s" % (model_ok, data_ok))
