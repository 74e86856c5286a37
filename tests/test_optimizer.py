import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    oracle_consequent_gradient,
    oracle_correlation_double_sum,
    oracle_fuzzy_feature_matrix,
    oracle_mixing_gradient,
)
from reference_sylvester import KRON_GUARD, least_norm_solve, schur_solve

from fuzzml.optimizer import (
    EPSILON_ROW,
    LABEL_GRAM_RIDGE,
    TrainConfig,
    _Grams,
    _MixingSystem,
    _Point,
    _solve_consequents,
    train,
)
from fuzzml.dataset import Dataset
from fuzzml.rules import fit_antecedents, fuzzy_feature_matrix
from fuzzml.sylvester import SingularProblemError
from fuzzml.synthgen import SynthSpec, gen_synthetic


def _random_instance(rng, n_labels=None, n_features=None, n_rules=None, n=None):
    """Small training-shaped instance built through the real fuzzy map."""
    n_labels = n_labels or int(rng.integers(2, 5))
    n_features = n_features or int(rng.integers(1, 4))
    n_rules = n_rules or int(rng.integers(1, 3))
    n = n or int(rng.integers(n_rules + 2, 11))
    x = rng.random((n_features, n))
    rulebase = fit_antecedents(x, n_rules)
    fuzzy_x = fuzzy_feature_matrix(x, rulebase)
    labels = (rng.random((n_labels, n)) < 0.5).astype(float)
    labels[rng.integers(0, n_labels), rng.integers(0, n)] = 1.0
    mixing = rng.normal(size=(n_labels, n_labels))
    consequents = rng.normal(size=(n_labels, fuzzy_x.shape[0]))
    return mixing, consequents, fuzzy_x, labels


def _frozen(mixing, consequents, fuzzy_x, labels, cfg=TrainConfig()):
    """What one iteration of train() builds at (mixing, consequents).

    Returns the mixing system, the point and the weighted Grams:
    ``point.losses(cfg)`` gives the loss and the stopping loss,
    ``point.weights()`` the (fit, soft) weights, ``point.laplacian``
    the Laplacian, and ``_solve_consequents(point, grams, cfg)[0]`` and
    ``system.solve(point, grams)[0]`` the two subproblem solutions.
    """
    system = _MixingSystem(labels, cfg)
    point = _Point(mixing, consequents, fuzzy_x, labels, system.label_gram)
    return system, point, _Grams(fuzzy_x, labels, point.weights())


class TestObjective:
    def test_identity_mixing_zero_consequents(self):
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        fuzzy_x = np.ones((3, 2))
        cfg = TrainConfig(alpha=0.7, beta=4.0, gamma=9.0)
        _, point, _ = _frozen(np.eye(2), np.zeros((2, 3)), fuzzy_x, labels, cfg)
        loss = point.losses(cfg)[0]
        assert loss.total == pytest.approx(2.0, abs=1e-14)
        assert loss.soft == 0.0 and loss.corr == 0.0 and loss.ridge == 0.0

    def test_ridge_term_is_frobenius(self):
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        cfg = TrainConfig(alpha=0.25, beta=0.0, gamma=0.0)
        _, point, _ = _frozen(np.eye(2), np.ones((2, 3)), np.zeros((3, 2)), labels, cfg)
        assert point.losses(cfg)[0].ridge == pytest.approx(0.25 * 6.0, abs=1e-14)

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            mixing, consequents, fuzzy_x, labels = _random_instance(rng)
            cfg = TrainConfig(alpha=rng.uniform(0, 2), beta=rng.uniform(0, 3),
                              gamma=rng.uniform(0, 1))
            _, point, _ = _frozen(mixing, consequents, fuzzy_x, labels, cfg)
            loss = point.losses(cfg)[0]
            fit = sum(np.linalg.norm(mixing @ labels[:, i] - consequents @ fuzzy_x[:, i])
                      for i in range(labels.shape[1]))
            soft = sum(np.linalg.norm(labels[:, i] - mixing @ labels[:, i])
                       for i in range(labels.shape[1]))
            corr = cfg.gamma * oracle_correlation_double_sum(mixing, consequents, labels)
            expected = fit + cfg.alpha * np.sum(consequents ** 2) + cfg.beta * soft + corr
            assert loss.total == pytest.approx(expected, rel=1e-12)


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


class TestCorrelationLaplacian:
    def test_zero_consequents(self):
        _, point, _ = _frozen(np.eye(3), np.zeros((3, 4)), np.zeros((4, 1)), np.ones((3, 1)))
        np.testing.assert_array_equal(point.laplacian, np.zeros((3, 3)))

    def test_orthonormal_rows_cancel(self):
        _, point, _ = _frozen(np.eye(3), np.eye(3), np.zeros((3, 1)), np.ones((3, 1)))
        np.testing.assert_allclose(point.laplacian, np.zeros((3, 3)), atol=1e-15)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n_labels = int(rng.integers(2, 6))
            consequents = rng.normal(size=(n_labels, 7))
            lap = _frozen(np.eye(n_labels), consequents, np.zeros((7, 1)),
                          np.ones((n_labels, 1)))[1].laplacian
            ones = np.ones(n_labels)
            assert np.abs(lap @ ones).max() <= 1e-12 * max(1.0, np.abs(lap).max())

    def test_double_sum_equals_trace_form(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n_labels = int(rng.integers(2, 6))
            n = int(rng.integers(1, 7))
            mixing = rng.normal(size=(n_labels, n_labels))
            consequents = rng.normal(size=(n_labels, 4))
            labels = (rng.random((n_labels, n)) < 0.5).astype(float)
            lap = _frozen(mixing, consequents, np.zeros((4, n)), labels)[1].laplacian
            soft = mixing @ labels
            trace_form = 2.0 * np.sum(soft * (lap @ soft))
            double_sum = oracle_correlation_double_sum(mixing, consequents, labels)
            assert trace_form == pytest.approx(double_sum, abs=1e-10)


class TestUpdateConsequents:
    def test_huge_ridge_crushes_consequents(self):
        rng = np.random.default_rng(5)
        mixing, consequents, fuzzy_x, labels = _random_instance(rng)
        cfg = TrainConfig(alpha=1e6, gamma=0.0)
        _, point, grams = _frozen(mixing, consequents, fuzzy_x, labels, cfg)
        new = _solve_consequents(point, grams, cfg)[0]
        assert np.linalg.norm(new) <= 1e-3

    def test_gamma_zero_reduces_to_plain_sylvester(self):
        rng = np.random.default_rng(6)
        mixing, consequents, fuzzy_x, labels = _random_instance(rng)
        cfg = TrainConfig(alpha=0.4, gamma=0.0)
        _, point, grams = _frozen(mixing, consequents, fuzzy_x, labels, cfg)
        new = _solve_consequents(point, grams, cfg)[0]
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
        sq = np.sum(soft ** 2, axis=1)
        a = (cfg.alpha * np.eye(labels.shape[0])
             + cfg.gamma * (sq[:, None] + sq[None, :] - 2.0 * soft @ soft.T))
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
        fuzzy_x = fuzzy_feature_matrix(x, fit_antecedents(x, n_rules))
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
        got = _solve_consequents(point, grams, cfg)[0]
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
            new = _solve_consequents(point, grams, cfg)[0]
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

    def test_stationarity_with_ridged_gram(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            mixing, consequents, fuzzy_x, labels = _random_instance(rng)
            cfg = TrainConfig(alpha=0.2, beta=rng.uniform(0.1, 5.0),
                              gamma=rng.uniform(0, 0.2))
            system, point, grams = _frozen(mixing, consequents, fuzzy_x, labels, cfg)
            new = system.solve(point, grams)[0]
            w_fit, w_soft = point.weights()
            grad = oracle_mixing_gradient(
                new, consequents, fuzzy_x, labels, cfg.beta, cfg.gamma,
                w_fit, w_soft, point.laplacian, system.ridge)
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
            grad = oracle_mixing_gradient(
                new, consequents, fuzzy_x, labels, cfg.beta, cfg.gamma,
                w_fit, w_soft, point.laplacian, system.ridge)
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
    fuzzy_x = fuzzy_feature_matrix(x, fit_antecedents(x, 2))
    labels = (rng.random((n_labels, n)) < 0.3).astype(float)
    labels[1] = labels[0]
    labels[-1] = 0.0
    mixing = rng.normal(size=(n_labels, n_labels))
    consequents = rng.normal(size=(n_labels, fuzzy_x.shape[0]))
    return mixing, consequents, fuzzy_x, labels


def _dense_least_norm_mixing(mixing, consequents, fuzzy_x, labels, cfg):
    """The mixing stationarity condition times G^-1, by the dense minimum-norm solve."""
    system, point, _ = _frozen(mixing, consequents, fuzzy_x, labels, cfg)
    w_fit, w_soft = point.weights()
    n_labels = labels.shape[0]
    gram = labels @ labels.T + system.ridge * np.eye(n_labels)
    b_raw = (labels * (w_fit + cfg.beta * w_soft)) @ labels.T
    z_raw = ((consequents @ fuzzy_x) * w_fit
             + cfg.beta * labels * w_soft) @ labels.T
    return least_norm_solve(2.0 * cfg.gamma * point.laplacian, np.linalg.solve(gram, b_raw.T).T,
                            np.linalg.solve(gram, z_raw.T).T)


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
        grad = oracle_mixing_gradient(
            new, consequents, fuzzy_x, labels, cfg.beta, cfg.gamma, w_fit, w_soft,
            point.laplacian, system.ridge)
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
        assert np.linalg.norm(new - want) <= 1e-9 * np.linalg.norm(want)


def _surrogate_consequents(candidate, mixing, fuzzy_x, labels, cfg, weights):
    w_fit, _ = weights
    fit = sum(w_fit[i] * np.linalg.norm(
        mixing @ labels[:, i] - candidate @ fuzzy_x[:, i]) ** 2
        for i in range(labels.shape[1]))
    soft_gram = (mixing @ labels) @ (mixing @ labels).T
    corr = sum(
        cfg.gamma * (soft_gram[i, i] + soft_gram[j, j] - 2 * soft_gram[i, j])
        * float(candidate[i] @ candidate[j])
        for i in range(labels.shape[0]) for j in range(labels.shape[0]))
    return fit + cfg.alpha * np.sum(candidate ** 2) + corr


def _surrogate_mixing(candidate, consequents, fuzzy_x, labels, cfg, weights, lap):
    w_fit, w_soft = weights
    fit = sum(w_fit[i] * np.linalg.norm(
        candidate @ labels[:, i] - consequents @ fuzzy_x[:, i]) ** 2
        for i in range(labels.shape[1]))
    soft = sum(w_soft[i] * np.linalg.norm(
        labels[:, i] - candidate @ labels[:, i]) ** 2
        for i in range(labels.shape[1]))
    shift = _MixingSystem(labels, cfg).ridge
    corr = 2 * cfg.gamma * (np.trace(labels.T @ candidate.T @ lap @ candidate @ labels)
                            + shift * np.trace(candidate.T @ lap @ candidate))
    return fit + cfg.beta * soft + corr


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
            system, frozen, _ = _frozen(mixing, consequents, fuzzy_x, labels, cfg)
            weights = frozen.weights()
            lap = frozen.laplacian
            point = rng.normal(size=mixing.shape)
            grad = oracle_mixing_gradient(
                point, consequents, fuzzy_x, labels, cfg.beta, cfg.gamma,
                *weights, lap, system.ridge)
            fd = np.zeros_like(point)
            h = 1e-6
            for a in range(point.shape[0]):
                for b in range(point.shape[1]):
                    up, down = point.copy(), point.copy()
                    up[a, b] += h
                    down[a, b] -= h
                    fd[a, b] = (
                        _surrogate_mixing(up, consequents, fuzzy_x, labels, cfg, weights, lap)
                        - _surrogate_mixing(down, consequents, fuzzy_x, labels, cfg, weights, lap)
                    ) / (2 * h)
            assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(grad)


class TestExactMinimizerProperty:
    def test_solves_do_not_increase_convex_surrogates(self):
        rng = np.random.default_rng(14)
        certified = 0
        for _ in range(40):
            mixing, consequents, fuzzy_x, labels = _random_instance(rng)
            cfg = TrainConfig(alpha=0.5, beta=1.0, gamma=0.01)
            system, point, grams = _frozen(mixing, consequents, fuzzy_x, labels, cfg)
            weights = point.weights()
            w_fit, w_soft = weights
            n_labels = labels.shape[0]

            soft_gram = (mixing @ labels) @ (mixing @ labels).T
            dm = np.diag(soft_gram)
            coupling = (dm[:, None] + dm[None, :]) - 2 * soft_gram
            b_cons = (fuzzy_x * w_fit) @ fuzzy_x.T
            hess_cons = (2 * np.kron(b_cons, np.eye(n_labels))
                         + 2 * cfg.alpha * np.eye(n_labels * b_cons.shape[0])
                         + 2 * cfg.gamma * np.kron(np.eye(b_cons.shape[0]), coupling))
            lap = point.laplacian
            gram_r = labels @ labels.T + system.ridge * np.eye(n_labels)
            b_mix = (labels * (w_fit + cfg.beta * w_soft)) @ labels.T
            hess_mix = (2 * np.kron(b_mix, np.eye(n_labels))
                        + 4 * cfg.gamma * np.kron(gram_r, lap))

            if min(np.linalg.eigvalsh((hess_cons + hess_cons.T) / 2).min(),
                   np.linalg.eigvalsh((hess_mix + hess_mix.T) / 2).min()) <= 1e-8:
                continue
            certified += 1
            new_cons = _solve_consequents(point, grams, cfg)[0]
            assert (_surrogate_consequents(new_cons, mixing, fuzzy_x, labels, cfg, weights)
                    <= _surrogate_consequents(consequents, mixing, fuzzy_x, labels, cfg, weights)
                    + 1e-9)
            new_mix = system.solve(point, grams)[0]
            assert (_surrogate_mixing(new_mix, consequents, fuzzy_x, labels, cfg, weights, lap)
                    <= _surrogate_mixing(mixing, consequents, fuzzy_x, labels, cfg, weights, lap)
                    + 1e-9)
        assert certified >= 10


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
        assert len(trace.stopping_totals) == trace.n_iterations

    def test_rejects_more_rules_than_samples(self):
        data = self._small_data(n=6)
        with pytest.raises(ValueError):
            train(data, TrainConfig(n_rules=7))

    def test_singular_failure_reports_iteration(self, monkeypatch):
        import fuzzml.optimizer as opt

        def boom(*args, **kwargs):
            raise SingularProblemError("synthetic failure")

        monkeypatch.setattr(opt, "_solve_sylvester", boom)
        with pytest.raises(SingularProblemError, match="iteration 1, consequent solve"):
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
        assert len(trace.phases) == trace.n_iterations == 5
        spent = 0.0
        for phase in trace.phases:
            parts = (phase.weights, phase.consequent, phase.mixing, phase.point)
            assert all(p >= 0.0 for p in parts)
            spent += sum(parts)
        assert spent <= wall

    def test_operator_minima_are_recorded_per_iteration(self):
        # with gamma = 0 the consequent operator is alpha I + Xg W Xg'
        cfg = TrainConfig(gamma=0.0, max_iters=6, min_loss_margin=0.0)
        _, trace = train(self._small_data(), cfg)
        assert len(trace.operator_minima) == trace.n_iterations == 6
        for minima in trace.operator_minima:
            assert minima.consequent >= cfg.alpha
            assert math.isfinite(minima.mixing)

    def test_stopping_loss_squares_the_residual_norms(self):
        rng = np.random.default_rng(15)
        mixing, consequents, fuzzy_x, labels = _random_instance(rng)
        cfg = TrainConfig(alpha=0.2, beta=1.5, gamma=0.05)
        lo, stopping = _frozen(mixing, consequents, fuzzy_x, labels, cfg)[1].losses(cfg)
        fit = np.linalg.norm(mixing @ labels - consequents @ fuzzy_x, axis=0).sum()
        soft = np.linalg.norm(labels - mixing @ labels, axis=0).sum()
        expected = fit ** 2 + lo.ridge + cfg.beta * soft ** 2 + lo.corr
        assert stopping == pytest.approx(expected, rel=1e-12)

    def test_mixing_failure_names_the_subproblem(self, monkeypatch):
        import fuzzml.optimizer as opt

        solve = opt._solve_sylvester
        calls = []

        def consequent_then_boom(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                return solve(*args, **kwargs)
            raise SingularProblemError("synthetic failure")

        monkeypatch.setattr(opt, "_solve_sylvester", consequent_then_boom)
        data = gen_synthetic(SynthSpec(kind="union", n_samples=60, n_features=5, seed=0))
        with pytest.raises(SingularProblemError, match="iteration 1, mixing solve"):
            train(data, TrainConfig())


class TestIterationAgainstTheOracles:
    """Iterate t of train() is stationary for the subproblems frozen at iterate t - 1.

    Shares no code with the package's iteration: the fuzzy features come
    from the per-sample oracle map, and the weights, the Laplacian, the
    Gram shift and both gradients are formed here and in ``oracles.py``
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
        similarity = model.consequents @ model.consequents.T
        laplacian = np.diag(similarity.sum(axis=1)) - similarity
        return d_fit, d_soft, laplacian

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
        d_fit, d_soft, laplacian = self._frozen(prev, fuzzy_x, labels, cfg)

        def consequent_gradient(consequents):
            return oracle_consequent_gradient(prev.mixing, consequents, fuzzy_x, labels,
                                              cfg.alpha, cfg.gamma, d_fit)

        grad = consequent_gradient(cur.consequents)
        scale = np.linalg.norm(consequent_gradient(np.zeros_like(cur.consequents)))
        assert np.linalg.norm(grad) <= 1e-6 * scale

        shift = LABEL_GRAM_RIDGE * (labels ** 2).sum() / n_labels

        def mixing_gradient(mixing):
            return oracle_mixing_gradient(mixing, prev.consequents, fuzzy_x, labels,
                                          cfg.beta, cfg.gamma, d_fit, d_soft, laplacian,
                                          shift)

        grad = mixing_gradient(cur.mixing)
        scale = np.linalg.norm(mixing_gradient(np.zeros_like(cur.mixing)))
        assert np.linalg.norm(grad) <= 1e-6 * scale

        corr = cfg.gamma * oracle_correlation_double_sum(cur.mixing, cur.consequents, labels)
        assert cur_trace.iterations[-1].corr == pytest.approx(corr, rel=1e-6)
        _, point, _ = _frozen(cur.mixing, cur.consequents, fuzzy_x, labels, cfg)
        assert point.losses(cfg)[0].corr == pytest.approx(corr, rel=1e-6)

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
