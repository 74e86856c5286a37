import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fuzzy_rows import fuzzy_rows
from oracles import (
    oracle_consequent_gradient,
    oracle_correlation_double_sum,
    oracle_fuzzy_feature_matrix,
    oracle_laplacian,
    oracle_mixing_gradient,
)
from reference_sylvester import KRON_GUARD, least_norm_solve, schur_solve
from wide import duplicated_pair, gen_wide

from fuzzml.optimizer import (
    EPSILON_ROW,
    NumericalError,
    TrainConfig,
    _Correlation,
    _Grams,
    _MixingSystem,
    _Point,
    _solve_consequents,
    train,
)
from fuzzml.dataset import Dataset, normalize_features, take_samples
from fuzzml.metrics import evaluate
from fuzzml.predictor import score
from fuzzml.rules import fit_antecedents
from fuzzml.synthgen import SYNTH_KINDS, NoiseSpec, SynthSpec, gen_synthetic, inject_label_noise


def _random_instance(rng, n_labels=None, n_features=None, n_rules=None, n=None):
    """Small training-shaped instance built through the real fuzzy map."""
    n_labels = n_labels or int(rng.integers(2, 5))
    n_features = n_features or int(rng.integers(1, 4))
    n_rules = n_rules or int(rng.integers(1, 3))
    n = n or int(rng.integers(n_rules + 2, 11))
    x = rng.random((n_features, n))
    rulebase = fit_antecedents(x, n_rules)
    fuzzy_x = fuzzy_rows(x, rulebase)
    labels = (rng.random((n_labels, n)) < 0.5).astype(float)
    labels[rng.integers(0, n_labels), rng.integers(0, n)] = 1.0
    mixing = rng.normal(size=(n_labels, n_labels))
    consequents = rng.normal(size=(n_labels, fuzzy_x.shape[0]))
    return mixing, consequents, fuzzy_x, labels


class _MixingOnLabels:
    """A :class:`_MixingSystem` whose solve returns M = V H', as train() returns it."""

    def __init__(self, system):
        self.system = system

    def solve(self, point, grams):
        reduced, lowest = self.system.solve(point, grams)
        return reduced @ self.system.range_half.T, lowest


def _frozen(mixing, consequents, fuzzy_x, labels, cfg=TrainConfig()):
    """What one iteration of train() builds at (mixing, consequents).

    Returns the mixing system, the point and the weighted Grams:
    ``point.losses()`` gives the loss terms and the stopping loss by name,
    ``point.weights()`` the (fit, soft) weights, ``point.correlation`` the
    correlation term's loss and the consequent solve's left coefficient, and
    ``_solve_consequents(point, grams)[0]`` and ``system.solve(point, grams)[0]``
    the two subproblem solutions. The mixing transform M is converted at
    this boundary: the point reads V = M G, and ``system.solve`` returns
    M = V H'.
    """
    system = _MixingSystem(labels, cfg)
    ones = np.ones(labels.shape[1])  # the rule rows are Xg itself
    range_labels = system.range_labels
    point = _Point(mixing @ system.range_root, consequents, fuzzy_x, ones, labels,
                   range_labels, cfg)
    grams = _Grams(np.vstack([fuzzy_x, range_labels]), ones, range_labels, point.weights())
    return _MixingOnLabels(system), point, grams


class TestObjective:
    def test_identity_mixing_zero_consequents(self):
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        fuzzy_x = np.ones((3, 2))
        cfg = TrainConfig(alpha=0.7, beta=4.0, gamma=9.0)
        _, point, _ = _frozen(np.eye(2), np.zeros((2, 3)), fuzzy_x, labels, cfg)
        loss = point.losses()
        assert loss["total"] == pytest.approx(2.0, abs=1e-14)
        assert loss["soft"] == 0.0 and loss["corr"] == 0.0 and loss["ridge"] == 0.0

    def test_ridge_term_is_frobenius(self):
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        cfg = TrainConfig(alpha=0.25, beta=0.0, gamma=0.0)
        _, point, _ = _frozen(np.eye(2), np.ones((2, 3)), np.zeros((3, 2)), labels, cfg)
        assert point.losses()["ridge"] == pytest.approx(0.25 * 6.0, abs=1e-14)

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            mixing, consequents, fuzzy_x, labels = _random_instance(rng)
            cfg = TrainConfig(alpha=rng.uniform(0, 2), beta=rng.uniform(0, 3),
                              gamma=rng.uniform(0, 1))
            _, point, _ = _frozen(mixing, consequents, fuzzy_x, labels, cfg)
            loss = point.losses()
            fit = sum(np.linalg.norm(mixing @ labels[:, i] - consequents @ fuzzy_x[:, i])
                      for i in range(labels.shape[1]))
            soft = sum(np.linalg.norm(labels[:, i] - mixing @ labels[:, i])
                       for i in range(labels.shape[1]))
            corr = cfg.gamma * oracle_correlation_double_sum(mixing, consequents, labels)
            expected = fit + cfg.alpha * np.sum(consequents ** 2) + cfg.beta * soft + corr
            assert loss["total"] == pytest.approx(expected, rel=1e-12)


class TestReweightDiagonals:
    def test_zero_residual_hits_floor(self):
        labels = np.array([[1.0], [0.0]])
        _, point, _ = _frozen(np.eye(2), np.zeros((2, 3)), np.zeros((3, 1)), labels)
        _, soft = point.weights()
        assert soft[0] == pytest.approx(1.0 / (2e-8), rel=1e-12)

    def test_half_norm_gives_unit_weight(self):
        labels = np.array([[1.0], [0.0]])
        consequents = np.array([[0.5], [0.0]])
        _, point, _ = _frozen(np.eye(2), consequents, np.ones((1, 1)), labels)
        fit, _ = point.weights()
        assert fit[0] == pytest.approx(1.0, rel=1e-12)

    def test_matches_direct_column_norms(self):
        rng = np.random.default_rng(2)
        mixing, consequents, fuzzy_x, labels = _random_instance(rng)
        _, point, _ = _frozen(mixing, consequents, fuzzy_x, labels)
        fit, soft = point.weights()
        for i in range(labels.shape[1]):
            fit_norm = np.linalg.norm(mixing @ labels[:, i] - consequents @ fuzzy_x[:, i])
            soft_norm = np.linalg.norm(labels[:, i] - mixing @ labels[:, i])
            assert fit[i] == pytest.approx(1 / (2 * max(fit_norm, 1e-8)), rel=1e-12)
            assert soft[i] == pytest.approx(1 / (2 * max(soft_norm, 1e-8)), rel=1e-12)


class TestGrams:
    """The weighted Grams, formed in place in a buffer holding [Xg; Yr],
    against the same Grams formed from a separate fuzzy feature matrix and
    the range labels Yr = H' Y."""

    @pytest.mark.parametrize("kind", SYNTH_KINDS)
    @pytest.mark.parametrize("n_rules,case", [(1, "plain"), (3, "plain"), (3, "constant_feature"),
                                              (3, "weights_at_floor"), (20, "terms_near_n")])
    def test_blocks_equal_grams_of_the_fuzzy_matrix(self, kind, n_rules, case):
        n = 430 if case == "terms_near_n" else 300  # K(D+1) = 420 terms
        data = gen_synthetic(SynthSpec(kind, n_samples=n, seed=5))
        x = normalize_features(data.features)[0]
        if case == "constant_feature":
            x[3] = 0.0
        fuzzy_x = fuzzy_rows(x, fit_antecedents(x, n_rules))
        labels = data.labels
        rng = np.random.default_rng(23)
        mixing = np.eye(5) + 0.1 * rng.normal(size=(5, 5))
        consequents = 0.1 * rng.normal(size=(5, fuzzy_x.shape[0]))
        if case == "weights_at_floor":  # these fit residual columns vanish
            labels = labels.copy()
            labels[:, : n // 3] = 0.0
            consequents[:] = 0.0
        _, point, grams = _frozen(mixing, consequents, fuzzy_x, labels)
        w_fit, w_soft = point.weights()
        n_terms = fuzzy_x.shape[0]
        ranged = _MixingSystem(labels, TrainConfig()).range_labels
        stacked = np.vstack([fuzzy_x * np.sqrt(w_fit), ranged * np.sqrt(w_fit)])
        gram = stacked @ stacked.T  # R R' with R formed out of place
        np.testing.assert_array_equal(grams.terms, gram[:n_terms, :n_terms])
        np.testing.assert_array_equal(grams.cross, gram[n_terms:, :n_terms])
        np.testing.assert_array_equal(grams.fit, gram[n_terms:, n_terms:])
        want = dict(terms=(fuzzy_x * w_fit) @ fuzzy_x.T, cross=(ranged * w_fit) @ fuzzy_x.T,
                    fit=(ranged * w_fit) @ ranged.T, soft=(ranged * w_soft) @ ranged.T)
        for name, block in want.items():
            got = getattr(grams, name)
            assert np.abs(got - block).max() <= 1e-12 * np.abs(block).max(), name


class TestTrainBuffer:
    def test_peak_stays_near_one_gram_buffer(self):
        # train holds one (K(D+1) + L) x N buffer for the run, and the
        # D x N features and K x N strengths only until the buffer is filled
        # (1.45 buffers at the peak); a second array of the buffer's size,
        # such as a K(D+1) x N fuzzy matrix kept for the run, crosses the bound
        data = gen_synthetic(SynthSpec("union", n_samples=4000, n_features=20, seed=1))
        cfg = TrainConfig(n_rules=3, max_iters=3)
        buffer_bytes = (cfg.n_rules * 21 + data.labels.shape[0]) * 4000 * 8
        tracemalloc.start()
        try:
            train(data, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.8 * buffer_bytes, peak / buffer_bytes

    @pytest.mark.parametrize("kind", SYNTH_KINDS)
    def test_iterates_equal_those_of_a_stored_fuzzy_matrix(self, kind):
        # train writes Xg once and rescales the rows in place by the ratio of
        # successive root weights: the first iterate is the bits a stored Xg
        # gives, later ones differ by the ratios' rounding (1e-6 is 100 times
        # the spread between OpenBLAS CPU kernels)
        data = gen_synthetic(SynthSpec(kind, n_samples=300, seed=9))
        cfg = TrainConfig(n_rules=3, max_iters=4, min_loss_margin=0.0)
        x = normalize_features(data.features)[0]
        fuzzy_x = fuzzy_rows(x, fit_antecedents(x, cfg.n_rules))
        labels = data.labels
        mixing = np.ones((5, 5))
        consequents = np.full((5, fuzzy_x.shape[0]), 0.2)
        want = []
        for _ in range(cfg.max_iters):
            system, point, grams = _frozen(mixing, consequents, fuzzy_x, labels, cfg)
            consequents = _solve_consequents(point, grams)[0]
            mixing = system.solve(point, grams)[0]
            _, point, _ = _frozen(mixing, consequents, fuzzy_x, labels, cfg)
            want.append((consequents, mixing, point.losses()["total"]))

        first, _ = train(data, replace(cfg, max_iters=1))
        np.testing.assert_array_equal(first.consequents, want[0][0])
        np.testing.assert_array_equal(first.mixing, want[0][1])

        model, trace = train(data, cfg)
        assert trace.n_iterations == 4
        totals = np.array([total for _, _, total in want])
        for got, ref in ((model.consequents, consequents), (model.mixing, mixing),
                         (np.array(trace.totals), totals)):
            assert np.abs(got - ref).max() <= 1e-6 * np.abs(ref).max()

    def test_fuzzy_rows_are_written_once_per_run(self, monkeypatch):
        import fuzzml.optimizer as opt

        fill = opt._fill_fuzzy_rows
        calls = []

        def counted(*args):
            calls.append(None)
            return fill(*args)

        monkeypatch.setattr(opt, "_fill_fuzzy_rows", counted)
        data = gen_synthetic(SynthSpec("union", n_samples=300, seed=9))
        _, trace = train(data, TrainConfig(max_iters=6, min_loss_margin=0.0))
        assert trace.n_iterations == 6 and len(calls) == 1

    @pytest.mark.parametrize("gamma", [0.0, TrainConfig().gamma])
    @pytest.mark.parametrize("kind", SYNTH_KINDS)
    def test_fit_term_after_the_iteration_budget(self, kind, gamma):
        # 50 rescalings of the rule rows leave the fit term read back from them
        # at the fit term of a fresh Xg
        data = gen_synthetic(SynthSpec(kind, n_samples=2000, seed=2))
        cfg = TrainConfig(gamma=gamma, min_loss_margin=0.0)
        model, trace = train(data, cfg)
        assert trace.n_iterations == cfg.max_iters == 50
        x = normalize_features(data.features)[0]
        fuzzy_x = fuzzy_rows(x, model.rulebase)
        residual = model.mixing @ data.labels - model.consequents @ fuzzy_x
        fit = np.sqrt((residual * residual).sum(axis=0)).sum()
        assert trace.iterations[-1].fit == pytest.approx(fit, rel=1e-12)


def _correlation(mixing, consequents, labels, cfg=TrainConfig()):
    """The correlation term train() builds at (mixing, consequents), read at V = M G."""
    return _Correlation(mixing @ _MixingSystem(labels, cfg).range_root, consequents, cfg)


class TestCorrelationLaplacian:
    def test_zero_consequents(self):
        corr = _correlation(np.eye(3), np.zeros((3, 4)), np.ones((3, 1)), TrainConfig(gamma=1.0))
        assert corr.loss == 0.0

    def test_orthogonal_soft_labels_have_no_edges(self):
        # labels that never co-occur: every clipped cosine is 0, so A = alpha I
        labels = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        cfg = TrainConfig(alpha=0.3, gamma=1.0)
        corr = _correlation(np.eye(3), np.eye(3), labels, cfg)
        np.testing.assert_array_equal(corr.consequent_left, 0.3 * np.eye(3))
        assert corr.loss == 0.0

    def test_zero_soft_label_row_has_no_edges(self):
        # S_ii = 0 for the label whose mixing row is zero: its weights are 0, not nan
        rng = np.random.default_rng(20)
        mixing = rng.normal(size=(4, 4))
        mixing[2] = 0.0
        labels = (rng.random((4, 6)) < 0.5).astype(float)
        cfg = TrainConfig(alpha=0.3, gamma=1.0)
        corr = _correlation(mixing, rng.normal(size=(4, 3)), labels, cfg)
        assert np.isfinite(corr.consequent_left).all() and math.isfinite(corr.loss)
        np.testing.assert_array_equal(corr.consequent_left[2], 0.3 * np.eye(4)[2])
        np.testing.assert_array_equal(corr.consequent_left[:, 2], 0.3 * np.eye(4)[2])

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(3)
        cfg = TrainConfig(alpha=0.0, gamma=0.5)  # A = Lap
        for _ in range(100):
            n_labels = int(rng.integers(2, 6))
            mixing = rng.normal(size=(n_labels, n_labels))
            labels = (rng.random((n_labels, 5)) < 0.5).astype(float)
            lap = _correlation(mixing, rng.normal(size=(n_labels, 7)), labels,
                               cfg).consequent_left
            ones = np.ones(n_labels)
            assert np.abs(lap @ ones).max() <= 1e-12 * max(1.0, np.abs(lap).max())

    def test_spectrum_lies_between_alpha_and_its_bound(self):
        # Lap is positive semidefinite with eigenvalues at most 2 (L - 1)
        rng = np.random.default_rng(21)
        for _ in range(100):
            n_labels = int(rng.integers(1, 9))
            cfg = TrainConfig(alpha=rng.uniform(0, 2), gamma=rng.uniform(0, 10))
            mixing = rng.normal(size=(n_labels, n_labels))
            labels = (rng.random((n_labels, 6)) < 0.5).astype(float)
            corr = _correlation(mixing, rng.normal(size=(n_labels, 4)), labels, cfg)
            eigs = np.linalg.eigvalsh(corr.consequent_left)
            upper = cfg.alpha + 4.0 * cfg.gamma * (n_labels - 1)
            assert cfg.alpha - 1e-12 * upper <= eigs[0] and eigs[-1] <= upper * (1 + 1e-12)
            assert corr.loss >= -1e-12 * max(1.0, upper)

    def test_double_sum_equals_trace_form(self):
        rng = np.random.default_rng(4)
        cfg = TrainConfig(gamma=1.0)
        for _ in range(100):
            n_labels = int(rng.integers(2, 6))
            n = int(rng.integers(1, 7))
            mixing = rng.normal(size=(n_labels, n_labels))
            consequents = rng.normal(size=(n_labels, 4))
            labels = (rng.random((n_labels, n)) < 0.5).astype(float)
            loss = _correlation(mixing, consequents, labels, cfg).loss
            double_sum = oracle_correlation_double_sum(mixing, consequents, labels)
            assert loss == pytest.approx(cfg.gamma * double_sum, abs=1e-10)

    def test_consequent_left_is_formed_from_the_soft_labels(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n_labels = int(rng.integers(1, 6))
            n = int(rng.integers(1, 7))
            cfg = TrainConfig(alpha=rng.uniform(0, 2), gamma=rng.uniform(0, 1))
            mixing = rng.normal(size=(n_labels, n_labels))
            labels = (rng.random((n_labels, n)) < 0.5).astype(float)
            got = _correlation(mixing, rng.normal(size=(n_labels, 4)), labels, cfg)
            want = (cfg.alpha * np.eye(n_labels)
                    + 2.0 * cfg.gamma * oracle_laplacian(mixing, labels))
            assert np.abs(got.consequent_left - want).max() <= 1e-12 * np.abs(want).max()

    def test_gamma_zero_leaves_only_the_ridge(self):
        rng = np.random.default_rng(18)
        mixing, consequents, _, labels = _random_instance(rng)
        corr = _correlation(mixing, consequents, labels, TrainConfig(alpha=0.3, gamma=0.0))
        n_labels = labels.shape[0]
        assert corr.loss == 0.0
        np.testing.assert_array_equal(corr.consequent_left, 0.3 * np.eye(n_labels))


class TestUpdateConsequents:
    def test_huge_ridge_crushes_consequents(self):
        rng = np.random.default_rng(5)
        mixing, consequents, fuzzy_x, labels = _random_instance(rng)
        cfg = TrainConfig(alpha=1e6, gamma=0.0)
        _, point, grams = _frozen(mixing, consequents, fuzzy_x, labels, cfg)
        new = _solve_consequents(point, grams)[0]
        assert np.linalg.norm(new) <= 1e-3

    def test_gamma_zero_reduces_to_plain_sylvester(self):
        rng = np.random.default_rng(6)
        mixing, consequents, fuzzy_x, labels = _random_instance(rng)
        cfg = TrainConfig(alpha=0.4, gamma=0.0)
        _, point, grams = _frozen(mixing, consequents, fuzzy_x, labels, cfg)
        new = _solve_consequents(point, grams)[0]
        w_fit, _ = point.weights()
        b = (fuzzy_x * w_fit) @ fuzzy_x.T
        z = (mixing @ labels * w_fit) @ fuzzy_x.T
        residual = cfg.alpha * new + new @ b - z
        assert np.abs(residual).max() <= 1e-9 * (1 + np.abs(z).max())

    @staticmethod
    def _reference(mixing, consequents, fuzzy_x, labels, cfg):
        """Schur solve of the consequent equation with B and Z formed directly."""
        soft = mixing @ labels
        norms = np.linalg.norm(soft - consequents @ fuzzy_x, axis=0)
        w = 1.0 / (2.0 * np.maximum(norms, EPSILON_ROW))
        a = (cfg.alpha * np.eye(labels.shape[0])
             + 2.0 * cfg.gamma * oracle_laplacian(mixing, labels))
        b = (fuzzy_x * w) @ fuzzy_x.T
        z = (soft * w) @ fuzzy_x.T
        return schur_solve(a, b, z), w

    @pytest.mark.parametrize("n_labels,n_features,n_rules,n,case", [
        (1, 3, 2, 40, "plain"),
        (5, 4, 2, 60, "plain"),
        (64, 3, 2, 150, "plain"),
        (5, 6, 3, 23, "terms_near_n"),
        (5, 4, 2, 60, "constant_feature"),
        (64, 3, 2, 150, "absent_and_duplicated_labels"),
        (5, 4, 2, 60, "weights_at_floor"),
    ])
    def test_matches_directly_formed_coefficients(self, n_labels, n_features, n_rules,
                                                   n, case):
        rng = np.random.default_rng(19)
        x = rng.random((n_features, n))
        if case == "constant_feature":
            x[1] = 0.4
        fuzzy_x = fuzzy_rows(x, fit_antecedents(x, n_rules))
        if case == "terms_near_n":
            assert n - 2 <= fuzzy_x.shape[0] < n
        labels = (rng.random((n_labels, n)) < 0.4).astype(float)
        mixing = np.eye(n_labels) + 0.1 * rng.normal(size=(n_labels, n_labels))
        consequents = 0.1 * rng.normal(size=(n_labels, fuzzy_x.shape[0]))
        if case == "absent_and_duplicated_labels":
            labels[-1] = 0.0
            labels[1] = labels[0]
        if case == "weights_at_floor":
            # no labels and zero consequents: these residual columns vanish
            labels[:, : n // 3] = 0.0
            consequents[:] = 0.0
        cfg = TrainConfig(alpha=0.1, gamma=0.001)
        _, point, grams = _frozen(mixing, consequents, fuzzy_x, labels, cfg)
        got = _solve_consequents(point, grams)[0]
        want, w = self._reference(mixing, consequents, fuzzy_x, labels, cfg)
        if case == "weights_at_floor":
            assert w.max() == 1.0 / (2.0 * EPSILON_ROW) and w.min() < 10.0
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())

    def test_stationarity_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            mixing, consequents, fuzzy_x, labels = _random_instance(rng)
            cfg = TrainConfig(alpha=rng.uniform(0.05, 1.0), beta=rng.uniform(0, 3),
                              gamma=rng.uniform(0, 0.2))
            _, point, grams = _frozen(mixing, consequents, fuzzy_x, labels, cfg)
            new = _solve_consequents(point, grams)[0]
            w_fit, _ = point.weights()
            grad = oracle_consequent_gradient(mixing, new, fuzzy_x, labels,
                                              cfg.alpha, cfg.gamma, w_fit)
            assert np.linalg.norm(grad) <= 1e-6 * (1 + np.linalg.norm(new))


class TestUpdateMixing:
    def test_huge_beta_recovers_identity(self):
        rng = np.random.default_rng(8)
        labels = np.array([
            [1.0, 0.0, 0.0, 1.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0, 1.0, 1.0],
        ])
        fuzzy_x = rng.normal(size=(4, 6))
        mixing = rng.normal(size=(3, 3))
        consequents = rng.normal(size=(3, 4))
        cfg = TrainConfig(beta=1e6, gamma=0.0)
        system, point, grams = _frozen(mixing, consequents, fuzzy_x, labels, cfg)
        new = system.solve(point, grams)[0]
        assert np.abs(new - np.eye(3)).max() <= 1e-3

    def test_zero_consequents_zero_gamma_substitution(self):
        rng = np.random.default_rng(9)
        mixing, _, fuzzy_x, labels = _random_instance(rng)
        n_labels = labels.shape[0]
        consequents = np.zeros((n_labels, fuzzy_x.shape[0]))
        cfg = TrainConfig(beta=3.0, gamma=0.0)
        system, point, grams = _frozen(mixing, consequents, fuzzy_x, labels, cfg)
        new = system.solve(point, grams)[0]
        w_fit, w_soft = point.weights()
        b_raw = (labels * (w_fit + cfg.beta * w_soft)) @ labels.T
        z_raw = cfg.beta * (labels * w_soft) @ labels.T
        assert np.abs(new @ b_raw - z_raw).max() <= 1e-8 * (1 + np.abs(z_raw).max())

    def test_stationarity_on_random_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            mixing, consequents, fuzzy_x, labels = _random_instance(rng)
            cfg = TrainConfig(alpha=0.2, beta=rng.uniform(0.1, 5.0),
                              gamma=rng.uniform(0, 0.2))
            system, point, grams = _frozen(mixing, consequents, fuzzy_x, labels, cfg)
            new = system.solve(point, grams)[0]
            w_fit, w_soft = point.weights()
            grad = oracle_mixing_gradient(new, consequents, fuzzy_x, labels, cfg.beta,
                                          w_fit, w_soft)
            assert np.linalg.norm(grad) <= 1e-6 * (1 + np.linalg.norm(new))

    def test_stationarity_above_the_dense_guard(self):
        # L^2 > KRON_GUARD: sizes the dense reference cannot check
        rng = np.random.default_rng(16)
        for n_labels in (65, 80):
            mixing, consequents, fuzzy_x, labels = _random_instance(
                rng, n_labels=n_labels, n_features=3, n_rules=2, n=2 * n_labels)
            assert n_labels * n_labels > KRON_GUARD
            cfg = TrainConfig(beta=rng.uniform(0.1, 5.0), gamma=0.001)
            system, point, grams = _frozen(mixing, consequents, fuzzy_x, labels, cfg)
            new = system.solve(point, grams)[0]
            w_fit, w_soft = point.weights()
            grad = oracle_mixing_gradient(new, consequents, fuzzy_x, labels, cfg.beta,
                                          w_fit, w_soft)
            assert np.linalg.norm(grad) <= 1e-6 * (1 + np.linalg.norm(new))

    def test_handles_duplicated_label_rows(self):
        # duplicated rows make the label Gram and the Sylvester operator
        # rank deficient; the minimum-norm path must still solve it
        rng = np.random.default_rng(11)
        base = (rng.random((2, 8)) < 0.5).astype(float)
        labels = np.vstack([base[0], base[0], base[1]])
        fuzzy_x = rng.normal(size=(4, 8))
        mixing = np.ones((3, 3))
        consequents = rng.normal(size=(3, 4))
        cfg = TrainConfig()
        system, point, grams = _frozen(mixing, consequents, fuzzy_x, labels, cfg)
        new = system.solve(point, grams)[0]
        assert np.all(np.isfinite(new))
        # symmetric inputs give symmetric columns for the duplicated labels
        assert np.abs(new[:, 0] - new[:, 1]).max() <= 1e-6


def _degenerate_label_instance(rng, n_labels):
    """Labels 0 and 1 coincide and the last label never occurs."""
    n = 2 * n_labels
    x = rng.random((3, n))
    fuzzy_x = fuzzy_rows(x, fit_antecedents(x, 2))
    labels = (rng.random((n_labels, n)) < 0.3).astype(float)
    labels[1] = labels[0]
    labels[-1] = 0.0
    mixing = rng.normal(size=(n_labels, n_labels))
    consequents = rng.normal(size=(n_labels, fuzzy_x.shape[0]))
    return mixing, consequents, fuzzy_x, labels


def _dense_least_norm_mixing(mixing, consequents, fuzzy_x, labels, cfg):
    """The minimum-norm mixing by the dense least-squares solve on the range of Y.

    Stationarity reads M B_raw = Z_raw with B_raw = Y diag(w_fit + beta w_soft) Y'
    and Z_raw = P Y', where P = C Xg diag(w_fit) + beta Y diag(w_soft). On a
    direction w with Y' w = 0 both sides vanish, so the minimum-norm M has
    M w = 0 and is N U' for the range basis U of Y's thin SVD Y = U S V'.
    Then N solves N (U' B_raw U) D^-1 = (Z_raw U) D^-1 with D = S^2.
    Dividing by the diagonal D rounds once per entry at any condition,
    where a solve with Y Y' would lose about its condition number times eps.
    """
    _, point, _ = _frozen(mixing, consequents, fuzzy_x, labels, cfg)
    w_fit, w_soft = point.weights()
    basis, values, _ = np.linalg.svd(labels, full_matrices=False)
    keep = values > max(labels.shape) * np.finfo(np.float64).eps * values[0]
    basis = basis[:, keep]
    diag = values[keep] ** 2
    projected = labels.T @ basis  # V S
    b_range = (projected.T * (w_fit + cfg.beta * w_soft)) @ projected
    z_range = ((consequents @ fuzzy_x) * w_fit + cfg.beta * labels * w_soft) @ projected
    reduced = least_norm_solve(np.zeros((labels.shape[0],) * 2), b_range / diag, z_range / diag)
    return reduced @ basis.T


class TestMixingAcrossLabelCounts:
    """One mixing route at every L, with a duplicated pair and an absent label."""

    @pytest.mark.parametrize("gamma", [0.0, 0.001, 0.05])
    @pytest.mark.parametrize("n_labels", [8, 24, 64, 65, 96, 200])
    def test_stationary_with_equal_duplicated_columns(self, n_labels, gamma):
        rng = np.random.default_rng(100 + n_labels)
        mixing, consequents, fuzzy_x, labels = _degenerate_label_instance(rng, n_labels)
        cfg = TrainConfig(beta=2.0, gamma=gamma)
        system, point, grams = _frozen(mixing, consequents, fuzzy_x, labels, cfg)
        new = system.solve(point, grams)[0]
        w_fit, w_soft = point.weights()
        grad = oracle_mixing_gradient(new, consequents, fuzzy_x, labels, cfg.beta,
                                      w_fit, w_soft)
        assert np.linalg.norm(grad) <= 1e-6 * (1 + np.linalg.norm(new))
        scale = np.abs(new).max()
        assert np.abs(new[:, 0] - new[:, 1]).max() <= 1e-10 * scale
        # minimum norm: nothing flows out of a label that never occurs
        assert np.abs(new[:, -1]).max() <= 1e-10 * scale

    @pytest.mark.parametrize("gamma", [0.0, 0.001, 0.05])
    @pytest.mark.parametrize("n_labels", [8, 24])
    def test_equals_the_dense_least_norm_solution(self, n_labels, gamma):
        rng = np.random.default_rng(100 + n_labels)
        mixing, consequents, fuzzy_x, labels = _degenerate_label_instance(rng, n_labels)
        cfg = TrainConfig(beta=2.0, gamma=gamma)
        system, point, grams = _frozen(mixing, consequents, fuzzy_x, labels, cfg)
        new = system.solve(point, grams)[0]
        want = _dense_least_norm_mixing(mixing, consequents, fuzzy_x, labels, cfg)
        # at most 7.3e-14 on SkylakeX, Haswell, Sandybridge, Nehalem and Prescott
        assert np.linalg.norm(new - want) <= 1e-9 * np.linalg.norm(want)


def _surrogate_consequents(candidate, mixing, fuzzy_x, labels, cfg, weights):
    w_fit, _ = weights
    fit = sum(w_fit[i] * np.linalg.norm(
        mixing @ labels[:, i] - candidate @ fuzzy_x[:, i]) ** 2
        for i in range(labels.shape[1]))
    corr = cfg.gamma * oracle_correlation_double_sum(mixing, candidate, labels)
    return fit + cfg.alpha * np.sum(candidate ** 2) + corr


def _surrogate_mixing(candidate, consequents, fuzzy_x, labels, cfg, weights):
    """The mixing subproblem's objective, less the correlation term: frozen, it is constant."""
    w_fit, w_soft = weights
    fit = sum(w_fit[i] * np.linalg.norm(
        candidate @ labels[:, i] - consequents @ fuzzy_x[:, i]) ** 2
        for i in range(labels.shape[1]))
    soft = sum(w_soft[i] * np.linalg.norm(
        labels[:, i] - candidate @ labels[:, i]) ** 2
        for i in range(labels.shape[1]))
    return fit + cfg.beta * soft


class TestFrozenWeightGradients:
    def test_consequent_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            mixing, consequents, fuzzy_x, labels = _random_instance(rng)
            cfg = TrainConfig(alpha=0.3, beta=1.0, gamma=0.1)
            weights = _frozen(mixing, consequents, fuzzy_x, labels, cfg)[1].weights()
            point = rng.normal(size=consequents.shape)
            grad = oracle_consequent_gradient(mixing, point, fuzzy_x, labels,
                                              cfg.alpha, cfg.gamma, weights[0])
            fd = np.zeros_like(point)
            h = 1e-6
            for a in range(point.shape[0]):
                for b in range(point.shape[1]):
                    up, down = point.copy(), point.copy()
                    up[a, b] += h
                    down[a, b] -= h
                    fd[a, b] = (
                        _surrogate_consequents(up, mixing, fuzzy_x, labels, cfg, weights)
                        - _surrogate_consequents(down, mixing, fuzzy_x, labels, cfg, weights)
                    ) / (2 * h)
            assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(grad)

    def test_mixing_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            mixing, consequents, fuzzy_x, labels = _random_instance(rng)
            cfg = TrainConfig(alpha=0.3, beta=2.0, gamma=0.1)
            weights = _frozen(mixing, consequents, fuzzy_x, labels, cfg)[1].weights()
            point = rng.normal(size=mixing.shape)
            grad = oracle_mixing_gradient(point, consequents, fuzzy_x, labels, cfg.beta,
                                          *weights)
            fd = np.zeros_like(point)
            h = 1e-6
            for a in range(point.shape[0]):
                for b in range(point.shape[1]):
                    up, down = point.copy(), point.copy()
                    up[a, b] += h
                    down[a, b] -= h
                    fd[a, b] = (
                        _surrogate_mixing(up, consequents, fuzzy_x, labels, cfg, weights)
                        - _surrogate_mixing(down, consequents, fuzzy_x, labels, cfg, weights)
                    ) / (2 * h)
            assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(grad)


class TestExactMinimizerProperty:
    def test_solves_do_not_increase_convex_surrogates(self):
        # with the weights and the graph frozen, both surrogates are convex
        rng = np.random.default_rng(14)
        for _ in range(40):
            mixing, consequents, fuzzy_x, labels = _random_instance(rng)
            cfg = TrainConfig(alpha=0.5, beta=1.0, gamma=0.01)
            system, point, grams = _frozen(mixing, consequents, fuzzy_x, labels, cfg)
            weights = point.weights()
            w_fit, w_soft = weights
            n_labels = labels.shape[0]

            b_cons = (fuzzy_x * w_fit) @ fuzzy_x.T
            hess_cons = (2 * np.kron(b_cons, np.eye(n_labels))
                         + 2 * cfg.alpha * np.eye(n_labels * b_cons.shape[0])
                         + 4 * cfg.gamma * np.kron(np.eye(b_cons.shape[0]),
                                                   oracle_laplacian(mixing, labels)))
            b_mix = (labels * (w_fit + cfg.beta * w_soft)) @ labels.T
            hess_mix = 2 * np.kron(b_mix, np.eye(n_labels))
            for hess in (hess_cons, hess_mix):
                assert np.linalg.eigvalsh((hess + hess.T) / 2).min() >= -1e-8

            new_cons = _solve_consequents(point, grams)[0]
            assert (_surrogate_consequents(new_cons, mixing, fuzzy_x, labels, cfg, weights)
                    <= _surrogate_consequents(consequents, mixing, fuzzy_x, labels, cfg, weights)
                    + 1e-9)
            new_mix = system.solve(point, grams)[0]
            assert (_surrogate_mixing(new_mix, consequents, fuzzy_x, labels, cfg, weights)
                    <= _surrogate_mixing(mixing, consequents, fuzzy_x, labels, cfg, weights)
                    + 1e-9)


class TestTrain:
    def _small_data(self, seed=0, n=60):
        return gen_synthetic(SynthSpec(kind="union", n_samples=n, n_features=5,
                                       seed=seed))

    def test_single_iteration_budget(self):
        model, trace = train(self._small_data(), TrainConfig(max_iters=1))
        assert trace.n_iterations == 1
        assert trace.stop_reason in ("margin", "nonpositive_loss", "max_iters")

    def test_infinite_margin_stops_after_first_iteration(self):
        model, trace = train(self._small_data(),
                             TrainConfig(min_loss_margin=math.inf, max_iters=9))
        assert trace.n_iterations == 1
        assert trace.stop_reason == "margin"

    def test_deterministic(self):
        cfg = TrainConfig(max_iters=6)
        m1, t1 = train(self._small_data(), cfg)
        m2, t2 = train(self._small_data(), cfg)
        assert t1.totals == t2.totals
        assert t1.stopping_totals == t2.stopping_totals
        np.testing.assert_array_equal(m1.consequents, m2.consequents)
        np.testing.assert_array_equal(m1.mixing, m2.mixing)

    def test_trace_components_consistent(self):
        data = self._small_data()
        cfg = TrainConfig(max_iters=4)
        _, trace = train(data, cfg)
        for it in trace.iterations:
            assert it.total == pytest.approx(
                it.fit + it.ridge + it.soft + it.corr, rel=1e-12)

    def test_trace_fields_the_benchmark_reads(self):
        # benchmarks/tracer.py reads these three and slices stopping_totals
        _, trace = train(self._small_data(), TrainConfig(max_iters=4, min_loss_margin=0.0))
        assert trace.stop_reason == "max_iters"
        assert trace.n_iterations == 4
        totals = trace.stopping_totals
        assert len(totals) == 4 and all(isinstance(t, float) for t in totals)
        assert list(totals[1:]) == [r.stopping_total for r in trace.iterations[1:]]

    @staticmethod
    def _plant_losses(monkeypatch, iteration, **planted):
        """Make ``_Point.losses`` return ``planted`` over its values at ``iteration``."""
        import fuzzml.optimizer as opt

        losses = opt._Point.losses
        calls = []

        def planted_losses(point):
            calls.append(None)
            out = losses(point)
            return {**out, **planted} if len(calls) == iteration else out

        monkeypatch.setattr(opt._Point, "losses", planted_losses)

    def test_nonpositive_stopping_loss_stops_and_keeps_its_record(self, monkeypatch):
        self._plant_losses(monkeypatch, 3, stopping_total=-2.5)
        _, trace = train(self._small_data(), TrainConfig(max_iters=9, min_loss_margin=0.0))
        assert trace.stop_reason == "nonpositive_loss"
        assert trace.n_iterations == 3
        assert trace.iterations[-1].stopping_total == -2.5
        assert all(t > 0.0 for t in trace.stopping_totals[:2])

    @pytest.mark.parametrize("planted", [dict(total=math.inf),
                                         dict(stopping_total=math.nan)])
    def test_non_finite_loss_names_the_iteration_and_every_term(self, monkeypatch, planted):
        self._plant_losses(monkeypatch, 2, fit=1.5, ridge=0.25, soft=-0.0, corr=-3e-7,
                           **planted)
        with pytest.raises(NumericalError) as info:
            train(self._small_data(), TrainConfig(max_iters=9, min_loss_margin=0.0))
        assert str(info.value) == ("non-finite loss at iteration 2: "
                                   "fit=1.5 ridge=0.25 soft=-0.0 corr=-3e-07")

    def test_rejects_more_rules_than_samples(self):
        data = self._small_data(n=6)
        with pytest.raises(ValueError):
            train(data, TrainConfig(n_rules=7))

    def test_singular_failure_reports_iteration(self, monkeypatch):
        import fuzzml.optimizer as opt

        def boom(*args, **kwargs):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(opt, "_solve_sylvester", boom)
        with pytest.raises(NumericalError, match="iteration 1, consequent solve"):
            train(self._small_data(), TrainConfig())

    def test_gamma_zero_with_many_labels_and_an_absent_one(self):
        # the left mixing coefficient is 0, so only the range restriction
        # keeps the never-occurring label's zero gaps out of the solve
        rng = np.random.default_rng(18)
        labels = (rng.random((96, 300)) < 0.3).astype(float)
        labels[-1] = 0.0
        model, _ = train(Dataset(rng.random((4, 300)), labels),
                         TrainConfig(gamma=0.0, max_iters=3))
        assert np.all(np.isfinite(model.mixing))
        assert np.abs(model.mixing[:, -1]).max() <= 1e-10 * np.abs(model.mixing).max()

    def test_singular_label_gram_with_duplicated_labels(self):
        # equality synth duplicates labels, so Y Y' is singular
        data = gen_synthetic(SynthSpec(kind="equality", n_samples=200, n_features=5,
                                       seed=4))
        model, _ = train(data, TrainConfig(max_iters=5))
        mixing = model.mixing
        assert np.all(np.isfinite(mixing))
        scale = np.abs(mixing).max()
        assert np.abs(mixing[:, 0] - mixing[:, 1]).max() <= 1e-10 * scale
        assert np.abs(mixing[:, 2] - mixing[:, 3]).max() <= 1e-10 * scale

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(alpha=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(max_iters=0)
        with pytest.raises(ValueError, match="n_rules must be at least 1"):
            TrainConfig(n_rules=0)
        with pytest.raises(ValueError):
            TrainConfig(min_loss_margin=-0.5)

    @pytest.mark.parametrize("field", ["n_rules", "max_iters"])
    @pytest.mark.parametrize("value", [2.5, 2.0, np.float64(3.0)])
    def test_config_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=r"^%s must be an integer, got " % field):
            TrainConfig(**{field: value})
        assert getattr(TrainConfig(**{field: np.int64(2)}), field) == 2

    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "min_loss_margin", "tau"])
    def test_config_rejects_nan(self, field):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: math.nan})

    def test_phase_times_fit_in_the_wall_time(self):
        started = time.perf_counter()
        _, trace = train(self._small_data(), TrainConfig(max_iters=5, min_loss_margin=0.0))
        wall = time.perf_counter() - started
        assert trace.n_iterations == 5
        spent = 0.0
        for record in trace.iterations:
            parts = (record.weights_s, record.consequent_s, record.mixing_s,
                     record.point_s)
            assert all(p >= 0.0 for p in parts)
            spent += sum(parts)
        assert spent <= wall

    def test_operator_minima_are_recorded_per_iteration(self):
        # the consequent operator is alpha I + 2 gamma Lap + Xg W Xg', and Lap is
        # positive semidefinite; the reduced mixing operator is positive definite
        cfg = TrainConfig(gamma=1.0, max_iters=6, min_loss_margin=0.0)
        _, trace = train(self._small_data(), cfg)
        assert trace.n_iterations == 6
        for record in trace.iterations:
            assert record.consequent_min >= cfg.alpha
            assert 0.0 < record.mixing_min < math.inf

    def test_stopping_loss_squares_the_residual_norms(self):
        rng = np.random.default_rng(15)
        mixing, consequents, fuzzy_x, labels = _random_instance(rng)
        cfg = TrainConfig(alpha=0.2, beta=1.5, gamma=0.05)
        lo = _frozen(mixing, consequents, fuzzy_x, labels, cfg)[1].losses()
        fit = np.linalg.norm(mixing @ labels - consequents @ fuzzy_x, axis=0).sum()
        soft = np.linalg.norm(labels - mixing @ labels, axis=0).sum()
        expected = fit ** 2 + lo["ridge"] + cfg.beta * soft ** 2 + lo["corr"]
        assert lo["stopping_total"] == pytest.approx(expected, rel=1e-12)

    def test_mixing_failure_names_the_subproblem(self, monkeypatch):
        import fuzzml.optimizer as opt

        solve = opt._solve_sylvester
        calls = []

        def consequent_then_boom(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                return solve(*args, **kwargs)
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(opt, "_solve_sylvester", consequent_then_boom)
        data = gen_synthetic(SynthSpec(kind="union", n_samples=60, n_features=5, seed=0))
        with pytest.raises(NumericalError, match="iteration 1, mixing solve"):
            train(data, TrainConfig())


class TestManyLabels:
    """Training at the north star's label counts, L = 64 and 200, at the default config."""

    @staticmethod
    def _train_wide(n_labels, seed):
        data = gen_wide(n_labels, 2000, 20, seed)
        train_set = take_samples(data, np.arange(1000))
        held_out = take_samples(data, np.arange(1000, 2000))
        model, trace = train(train_set, TrainConfig())
        return model, trace, train_set, held_out

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n_labels", [64, 200])
    def test_margin_stop_with_equal_duplicated_and_zero_absent_columns(self, n_labels, seed):
        model, trace, _, _ = self._train_wide(n_labels, seed)
        assert trace.stop_reason == "margin"
        mixing = model.mixing
        first, copy = duplicated_pair(n_labels)
        assert np.abs(mixing[:, first] - mixing[:, copy]).max() <= 1e-6 * np.abs(mixing).max()
        assert np.all(mixing[:, -1] == 0.0)  # label L-1 never occurs

    @pytest.mark.parametrize("seed", [1, 3])
    def test_as_many_labels_as_samples(self, seed):
        # the reduced mixing coefficient's rounding asymmetry once exceeded the
        # solver's symmetry tolerance on these seeds
        data = gen_wide(500, 500, 20, seed)
        model, trace = train(data, TrainConfig(gamma=0.0))
        assert trace.stop_reason == "margin"
        mixing = model.mixing
        first, copy = duplicated_pair(500)
        assert np.abs(mixing[:, first] - mixing[:, copy]).max() <= 1e-6 * np.abs(mixing).max()
        assert np.all(mixing[:, -1] == 0.0)

    def test_reduced_mixing_coefficient_is_exactly_symmetric(self, monkeypatch):
        # a sum of two symmetric products; at L = N = 500 a product with H
        # in its place fails the solver's symmetry tolerance
        import fuzzml.optimizer as opt

        solve = opt._solve_sylvester
        rights = []

        def keep_right(a, b, z):
            if a is None:  # the mixing solve has no left coefficient
                rights.append(b)
            return solve(a, b, z)

        monkeypatch.setattr(opt, "_solve_sylvester", keep_right)
        for n_labels, n in ((64, 300), (500, 500)):
            rights.clear()
            _, trace = train(gen_wide(n_labels, n, 20, 1),
                             TrainConfig(max_iters=3, min_loss_margin=0.0))
            assert len(rights) == trace.n_iterations == 3
            for right in rights:
                np.testing.assert_array_equal(right, right.T)

    def test_eigendecompositions_per_iteration(self, monkeypatch):
        # one of Y Y' per run, then A, Xg W Xg' and the r x r mixing
        # coefficient per iteration: no zero left coefficient is diagonalized
        data = gen_wide(64, 300, 20, 1)
        cfg = TrainConfig(max_iters=4, min_loss_margin=0.0)
        n_terms = cfg.n_rules * (data.features.shape[0] + 1)
        rank = np.linalg.matrix_rank(data.labels @ data.labels.T, hermitian=True)
        eigh = np.linalg.eigh
        calls = []

        def counted(m):
            calls.append((m.shape[0], bool(m.any())))
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        _, trace = train(data, cfg)
        assert all(nonzero for _, nonzero in calls)
        assert [size for size, _ in calls] == [64] + [64, n_terms, rank] * trace.n_iterations

    # not at L = 200, where held-out AP and the prior agree to 0.01
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n_labels", [24, 64])
    def test_held_out_ap_beats_the_label_prior(self, n_labels, seed):
        model, _, train_set, held_out = self._train_wide(n_labels, seed)
        prior = np.repeat(train_set.labels.mean(axis=1)[:, None], held_out.n_samples, axis=1)
        ap = evaluate(score(model, held_out.features), held_out.labels).ap
        assert ap > evaluate(prior, held_out.labels).ap


class TestDegenerateInputs:
    """The default config trains to a margin stop on the inputs ROADMAP aim 3 names."""

    @staticmethod
    def _case(name):
        data = gen_synthetic(SynthSpec(kind="union", n_samples=30, n_features=4, seed=0))
        constant = np.full_like(data.features, 0.5)
        features, labels, n_rules = {
            "rules_equal_samples": (data.features, data.labels, 30),
            "constant_features": (constant, data.labels, 3),
            "constant_features_rules_equal_samples": (constant, data.labels, 30),
            "all_zero_labels": (data.features, np.zeros_like(data.labels), 3),
            "all_one_labels": (data.features, np.ones_like(data.labels), 3),
            "one_sample_one_rule": (data.features[:, :1], data.labels[:, :1], 1),
        }[name]
        return (Dataset(features, labels, data.feature_names, data.label_names),
                TrainConfig(n_rules=n_rules))

    @pytest.mark.parametrize("name", [
        "rules_equal_samples", "constant_features", "constant_features_rules_equal_samples",
        "all_zero_labels", "all_one_labels", "one_sample_one_rule"])
    def test_margin_stop_with_finite_scores(self, name):
        data, cfg = self._case(name)
        model, trace = train(data, cfg)
        assert trace.stop_reason == "margin"
        assert trace.n_iterations <= 11
        assert np.isfinite(score(model, data.features)).all()

    def test_all_zero_labels_give_exactly_zero(self):
        data, cfg = self._case("all_zero_labels")
        model, _ = train(data, cfg)
        assert not model.mixing.any() and not model.consequents.any()
        assert not score(model, data.features).any()

    def test_all_one_labels_mix_to_the_projector(self):
        # Y = 1 1', whose range projector is 1 1' / L
        data, cfg = self._case("all_one_labels")
        model, _ = train(data, cfg)
        assert np.abs(model.mixing - 1.0 / data.labels.shape[0]).max() <= 1e-6


def _range_projector(labels):
    """Orthogonal projector onto the span of the columns of Y, of rank rank(Y)."""
    basis = np.linalg.svd(labels, full_matrices=False)[0][:, :np.linalg.matrix_rank(labels)]
    return basis @ basis.T


@pytest.mark.parametrize("kind", SYNTH_KINDS)
def test_default_mixing_is_the_projector_onto_the_label_range(kind):
    """At the default beta the soft labels are the noisy labels: M = P, so SY = Y.

    ROADMAP item 7, which makes the soft-label mechanism do something, must
    update this test and README's account of the soft-label transform. At
    N = 300, a run that stopped at max_iters read 1.1e-5, so N stays at 600.
    """
    data = inject_label_noise(gen_synthetic(SynthSpec(kind=kind, n_samples=600, seed=0)),
                              NoiseSpec(0.2, seed=1))
    model, _ = train(data, TrainConfig())
    assert np.linalg.norm(model.mixing - _range_projector(data.labels)) <= 1e-6


class TestIterationAgainstTheOracles:
    """Iterate t of train() is stationary for the subproblems frozen at iterate t - 1.

    Shares no code with the package's iteration: the fuzzy features come
    from the per-sample oracle map, and the weights, the soft-label graph
    and both gradients are formed here and in ``oracles.py``
    from the models of two deterministic runs, of t - 1 and t iterations.
    The loss terms and the stopping loss the trace records for iterate t
    are checked against per-sample sums formed here.
    """

    ITERATION = 3

    @staticmethod
    def _data(n_labels, n=300, n_features=4):
        rng = np.random.default_rng(200 + n_labels)
        features = rng.random((n_features, n))
        features[:, 0] = 0.0  # min-max normalization is then the identity
        features[:, 1] = 1.0
        labels = (rng.random((n_labels, n)) < 0.3).astype(float)
        labels[1] = labels[0]
        labels[-1] = 0.0
        return Dataset(features, labels)

    @staticmethod
    def _frozen(model, fuzzy_x, labels, cfg):
        soft = model.mixing @ labels
        fit_norms = np.sqrt(((soft - model.consequents @ fuzzy_x) ** 2).sum(axis=0))
        soft_norms = np.sqrt(((labels - soft) ** 2).sum(axis=0))
        d_fit = 1.0 / (2.0 * np.maximum(fit_norms, EPSILON_ROW))
        d_soft = 1.0 / (2.0 * np.maximum(soft_norms, EPSILON_ROW))
        return d_fit, d_soft

    @pytest.mark.parametrize("n_labels", [5, 24, 65])
    def test_iterate_is_stationary_for_the_previous_snapshot(self, n_labels):
        data = self._data(n_labels)
        cfg = TrainConfig(max_iters=self.ITERATION - 1, min_loss_margin=0.0)
        prev, prev_trace = train(data, cfg)
        cur, cur_trace = train(data, replace(cfg, max_iters=self.ITERATION))
        assert (prev_trace.n_iterations, cur_trace.n_iterations) == (
            self.ITERATION - 1, self.ITERATION)
        labels = data.labels
        fuzzy_x = oracle_fuzzy_feature_matrix(data.features, cur.rulebase.centers,
                                              cur.rulebase.widths)
        d_fit, d_soft = self._frozen(prev, fuzzy_x, labels, cfg)

        def consequent_gradient(consequents):
            return oracle_consequent_gradient(prev.mixing, consequents, fuzzy_x, labels,
                                              cfg.alpha, cfg.gamma, d_fit)

        grad = consequent_gradient(cur.consequents)
        scale = np.linalg.norm(consequent_gradient(np.zeros_like(cur.consequents)))
        assert np.linalg.norm(grad) <= 1e-6 * scale

        def mixing_gradient(mixing):
            return oracle_mixing_gradient(mixing, prev.consequents, fuzzy_x, labels,
                                          cfg.beta, d_fit, d_soft)

        grad = mixing_gradient(cur.mixing)
        scale = np.linalg.norm(mixing_gradient(np.zeros_like(cur.mixing)))
        assert np.linalg.norm(grad) <= 1e-6 * scale

        corr = cfg.gamma * oracle_correlation_double_sum(cur.mixing, cur.consequents, labels)
        assert cur_trace.iterations[-1].corr == pytest.approx(corr, rel=1e-6)
        _, point, _ = _frozen(cur.mixing, cur.consequents, fuzzy_x, labels, cfg)
        assert point.losses()["corr"] == pytest.approx(corr, rel=1e-6)

        # every loss term of the last iteration, from per-sample sums
        fit = sum(np.linalg.norm(cur.mixing @ labels[:, i] - cur.consequents @ fuzzy_x[:, i])
                  for i in range(labels.shape[1]))
        soft = sum(np.linalg.norm(labels[:, i] - cur.mixing @ labels[:, i])
                   for i in range(labels.shape[1]))
        ridge = cfg.alpha * np.sum(cur.consequents ** 2)
        want = dict(fit=fit, ridge=ridge, soft=cfg.beta * soft, corr=corr,
                    total=fit + ridge + cfg.beta * soft + corr)
        for term, value in want.items():
            assert getattr(cur_trace.iterations[-1], term) == pytest.approx(
                value, rel=1e-10), term
        assert cur_trace.stopping_totals[-1] == pytest.approx(
            fit ** 2 + ridge + cfg.beta * soft ** 2 + corr, rel=1e-10)
