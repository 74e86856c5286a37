import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest

import fuzzml.experiments as exp
from fuzzml.dataset import Dataset, kfold_split
from fuzzml.experiments import (
    ExperimentConfig,
    derive_seed,
    run_ablation,
    run_cv,
    run_grid,
    run_noise_curve,
)
from fuzzml.metrics import average_precision
from fuzzml.optimizer import OperatorMinima, TrainConfig
from fuzzml.sylvester import SingularProblemError
from fuzzml.synthgen import SynthSpec, gen_synthetic

FAST = TrainConfig(n_rules=2, max_iters=3)


def _data(kind="union", n=100, seed=0):
    return gen_synthetic(SynthSpec(kind=kind, n_samples=n, n_features=4, seed=seed))


def _report_answers(report):
    """Everything a report states except its timings."""
    return (report.config, report.folds, report.seeds, report.means, report.stds,
            [(r.seed, r.fold, r.metrics, r.stop_reason, r.n_iterations, r.indefinite_steps)
             for r in report.results])


def _cv_answers(data, workers):
    config = ExperimentConfig(train=FAST, folds=3, seeds=(5,), workers=workers)
    return _report_answers(run_cv(data, config))


def _grid_answers(data, workers):
    config = ExperimentConfig(train=FAST, folds=3, seeds=(5, 6), grid_alpha=(0.1, 1.0),
                              grid_rules=(1, 2), workers=workers)
    result = run_grid(data, config)
    return result.cells, result.best, _report_answers(result.final)


def _noise_answers(data, workers):
    config = ExperimentConfig(train=FAST, folds=3, seeds=(5,), workers=workers)
    return [(p.ratio, p.mean_ap, p.sd_ap, _report_answers(p.report))
            for p in run_noise_curve(data, config, (0.3, 0.0))]


def _ablation_answers(data, workers):
    config = ExperimentConfig(train=FAST, folds=3, seeds=(5,), workers=workers)
    pairs = run_ablation(data, config, ("beta", "gamma"), noise_ratio=0.2)
    return {term: [_report_answers(r) for r in pair] for term, pair in pairs.items()}


ANSWERS = {
    "run_cv": _cv_answers,
    "run_grid": _grid_answers,
    "run_noise_curve": _noise_answers,
    "run_ablation": _ablation_answers,
}


def _counting_train(monkeypatch):
    """Replace experiments.train with a wrapper that records each config it trains."""
    original = exp.train
    calls = []

    def counting_train(data, cfg):
        calls.append(cfg)
        return original(data, cfg)

    monkeypatch.setattr(exp, "train", counting_train)
    return calls


class TestRunCV:
    def test_five_folds_of_twenty(self):
        report = run_cv(_data(n=100), ExperimentConfig(train=FAST, folds=5, seeds=(3,)))
        assert len(report.results) == 5
        fold_of = kfold_split(100, 5, 3)
        for r in report.results:
            assert np.count_nonzero(fold_of == r.fold) == 20

    def test_deterministic(self):
        config = ExperimentConfig(train=FAST, folds=3, seeds=(1, 2))
        a = run_cv(_data(), config)
        b = run_cv(_data(), config)
        assert a.means == b.means
        assert a.stds == b.stds
        for ra, rb in zip(a.results, b.results):
            assert ra.metrics == rb.metrics

    def test_beats_constant_zero_scorer(self):
        data = _data(kind="union", n=120)
        config = ExperimentConfig(train=TrainConfig(), folds=4, seeds=(0,))
        report = run_cv(data, config)
        fold_of = kfold_split(120, 4, 0)
        baseline_terms = []
        for fold in range(4):
            test = np.flatnonzero(fold_of == fold)
            zero_scores = np.zeros((5, len(test)))
            baseline_terms.append(average_precision(zero_scores, data.labels[:, test]))
        assert report.means["ap"] > np.mean(baseline_terms)


    def test_multiple_seeds_multiply_results(self):
        report = run_cv(_data(n=40), ExperimentConfig(train=FAST, folds=2, seeds=(0, 1, 2)))
        assert len(report.results) == 6
        assert report.seeds == (0, 1, 2)


class TestRunGrid:
    def test_singleton_grid_returns_that_cell(self):
        config = ExperimentConfig(train=FAST, folds=2, seeds=(0,),
                                  grid_alpha=(0.7,))
        result = run_grid(_data(n=40), config)
        assert result.best.alpha == 0.7
        assert len(result.cells) == 1

    def test_duplicate_cells_are_harmless(self, monkeypatch):
        data = _data(n=40)
        base = ExperimentConfig(train=FAST, folds=2, seeds=(0,),
                                grid_alpha=(0.5, 0.1))
        doubled = ExperimentConfig(train=FAST, folds=2, seeds=(0,),
                                   grid_alpha=(0.5, 0.1, 0.5))
        single = run_grid(data, base)
        calls = _counting_train(monkeypatch)
        result = run_grid(data, doubled)
        assert len(calls) == 4  # the repeated value trains once per fold
        assert result.cells == single.cells + single.cells[:1]
        assert result.best == single.best

    def test_crushing_ridge_loses(self):
        config = ExperimentConfig(train=TrainConfig(n_rules=2, max_iters=5),
                                  folds=3, seeds=(1,),
                                  grid_alpha=(0.1, 1e6))
        result = run_grid(_data(n=90), config)
        assert result.best.alpha == 0.1

    def test_empty_grid_raises(self):
        with pytest.raises(ValueError, match="empty grid"):
            run_grid(_data(n=30), ExperimentConfig(train=FAST, folds=2, seeds=(0,)))

    def test_tie_break_prefers_smaller_values(self):
        # duplicate values in a dimension produce exact ties; the smaller
        # alpha must win
        config = ExperimentConfig(train=FAST, folds=2, seeds=(0,),
                                  grid_alpha=(0.3, 0.3))
        result = run_grid(_data(n=30), config)
        assert result.best.alpha == 0.3

    def test_final_report_is_the_winning_cell_without_a_rerun(self, monkeypatch):
        calls = _counting_train(monkeypatch)
        config = ExperimentConfig(train=FAST, folds=3, seeds=(0,), grid_alpha=(0.01, 1.0),
                                  grid_rules=(1, 2))
        data = _data(n=60)
        result = run_grid(data, config)
        assert len(calls) == 4 * 3  # one train per cell and fold
        assert result.final.config == result.best
        assert len(result.final.results) == 3
        winner = [c for c in result.cells
                  if (c.alpha, c.n_rules) == (result.best.alpha, result.best.n_rules)]
        assert result.final.means["ap"] == winner[0].mean_ap
        rerun = run_cv(data, ExperimentConfig(train=result.best, folds=3, seeds=(0,)))
        assert rerun.means == result.final.means
        assert [r.metrics for r in rerun.results] == [r.metrics for r in result.final.results]


class TestNoiseCurve:
    def test_zero_ratio_matches_plain_cv(self):
        data = _data(n=60)
        config = ExperimentConfig(train=FAST, folds=3, seeds=(2,))
        points = run_noise_curve(data, config, (0.0, 0.3))
        plain = run_cv(data, config)
        assert points[0].ratio == 0.0
        assert points[0].mean_ap == plain.means["ap"]

    def test_output_sorted_ascending(self):
        config = ExperimentConfig(train=FAST, folds=2, seeds=(0,))
        points = run_noise_curve(_data(n=40), config, (0.4, 0.0, 0.2, 0.0))
        assert [p.ratio for p in points] == [0.0, 0.2, 0.4]

    def test_requires_ratios(self):
        with pytest.raises(ValueError, match="no noise ratios given"):
            run_noise_curve(_data(n=30), ExperimentConfig(train=FAST, folds=2, seeds=(0,)), ())

    @pytest.mark.parametrize("ratio", [-0.2, math.nan, 1.5, 1.2])
    def test_bad_noise_ratio_raises_before_any_fold_trains(self, monkeypatch, ratio):
        calls = _counting_train(monkeypatch)
        config = ExperimentConfig(train=FAST, folds=2, seeds=(0,))
        with pytest.raises(ValueError, match="noise ratio must lie in"):
            run_noise_curve(_data(n=30), config, (0.0, ratio))
        assert calls == []


class TestAblation:
    def test_zero_beta_groups_identical(self, monkeypatch):
        calls = _counting_train(monkeypatch)
        cfg = TrainConfig(n_rules=2, max_iters=3, beta=0.0)
        config = ExperimentConfig(train=cfg, folds=2, seeds=(0,))
        disabled, enabled = run_ablation(_data(n=40), config, ("beta",))["beta"]
        assert disabled.means == enabled.means
        assert len(calls) == 2  # both groups read the same folds

    def test_groups_share_fold_plans(self):
        config = ExperimentConfig(train=FAST, folds=3, seeds=(4,))
        disabled, enabled = run_ablation(_data(n=60), config, ("gamma",))["gamma"]
        assert [(r.seed, r.fold) for r in disabled.results] == \
               [(r.seed, r.fold) for r in enabled.results]

    @pytest.mark.parametrize("terms", [(), ("alpha",), ("beta", "alpha"), "beta"])
    def test_bad_terms_raise_before_any_fold_trains(self, monkeypatch, terms):
        calls = _counting_train(monkeypatch)
        config = ExperimentConfig(train=FAST, folds=2, seeds=(0,))
        with pytest.raises(ValueError, match="terms must be a non-empty selection of "
                                             "'beta' and 'gamma', got "):
            run_ablation(_data(n=30), config, terms)
        assert calls == []

    def test_both_terms_give_both_pairs(self, monkeypatch):
        data = _data(n=40)
        config = ExperimentConfig(train=FAST, folds=2, seeds=(0,))
        calls = _counting_train(monkeypatch)
        pairs = run_ablation(data, config, ("beta", "gamma"))
        assert set(pairs) == {"beta", "gamma"}
        assert len(calls) == 6  # the enabled arm trains once for both pairs
        for term in ("beta", "gamma"):
            alone = run_ablation(data, config, (term,))[term]
            assert [_report_answers(r) for r in pairs[term]] == \
                   [_report_answers(r) for r in alone]

    @pytest.mark.parametrize("ratio", [-0.2, math.nan, 1.5])
    def test_bad_noise_ratio_raises_before_any_fold_trains(self, monkeypatch, ratio):
        calls = _counting_train(monkeypatch)
        config = ExperimentConfig(train=FAST, folds=2, seeds=(0,))
        with pytest.raises(ValueError, match="noise ratio must lie in"):
            run_ablation(_data(n=30), config, ("beta",), noise_ratio=ratio)
        assert calls == []


class TestSharedPool:
    @pytest.mark.parametrize("runner", sorted(ANSWERS))
    def test_workers_do_not_change_results(self, runner):
        data = _data(n=60)
        assert ANSWERS[runner](data, 1) == ANSWERS[runner](data, 3)

    @pytest.mark.parametrize("runner", ["run_grid", "run_noise_curve", "run_ablation"])
    def test_one_pool_per_call(self, monkeypatch, runner):
        pools = []

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(exp, "ThreadPoolExecutor", CountingPool)
        ANSWERS[runner](_data(n=60), 2)
        assert len(pools) == 1

    def test_oversubscribed_pool_with_frequent_switches(self):
        data = _data(n=60)
        base = _grid_answers(data, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stressed = _grid_answers(data, 4)
        finally:
            sys.setswitchinterval(interval)
        assert stressed == base

    def test_all_reports_of_a_call_share_its_wall_time(self):
        config = ExperimentConfig(train=FAST, folds=2, seeds=(0,))
        points = run_noise_curve(_data(n=40), config, (0.0, 0.2, 0.4))
        assert len({p.report.wall_seconds for p in points}) == 1
        assert points[0].report.wall_seconds >= sum(
            r.train_seconds for p in points for r in p.report.results)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_fold_names_its_job(self, monkeypatch, workers):
        original = exp.train
        lock = threading.Lock()
        started = []

        def failing_train(data, cfg):
            with lock:
                started.append(cfg.alpha)
            if cfg.alpha == 1.0:
                raise SingularProblemError("planted failure")
            return original(data, cfg)

        monkeypatch.setattr(exp, "train", failing_train)
        config = ExperimentConfig(train=FAST, folds=3, seeds=(0,),
                                  grid_alpha=(0.1, 1.0, 0.01), grid_rules=(1, 2),
                                  workers=workers)
        with pytest.raises(SingularProblemError) as info:
            run_grid(_data(n=60), config)
        message = str(info.value)
        assert message.startswith("alpha=1 beta=10 gamma=0.001 rules=")
        assert "noise=0, fold " in message and message.endswith(": planted failure")
        after_failure = len(started) - started.index(1.0) - 1
        assert after_failure <= workers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fold_without_evaluable_samples_names_its_job(self, workers):
        data = _data(n=40)
        labels = data.labels.copy()
        labels[:, kfold_split(40, 4, 0) == 3] = 0.0  # fold 3 holds out no label
        data = Dataset(data.features, labels, data.feature_names, data.label_names)
        config = ExperimentConfig(train=FAST, folds=4, seeds=(0,), workers=workers)
        with pytest.raises(ValueError) as info:
            run_cv(data, config)
        assert str(info.value) == ("alpha=0.1 beta=10 gamma=0.001 rules=2 noise=0, "
                                   "fold 3 (seed 0): no evaluable samples")

    def test_indefinite_steps_count_negative_operator_minima(self, monkeypatch):
        original = exp.train
        minima = (OperatorMinima(-1.0, 1.0), OperatorMinima(1.0, 1.0),
                  OperatorMinima(1.0, -1e-12), OperatorMinima(-1.0, -1.0),
                  OperatorMinima(0.0, 0.0))

        def planted_train(data, cfg):
            model, trace = original(data, cfg)
            return model, replace(trace, operator_minima=minima)

        monkeypatch.setattr(exp, "train", planted_train)
        report = run_cv(_data(n=40), ExperimentConfig(train=FAST, folds=2, seeds=(0,)))
        assert [r.indefinite_steps for r in report.results] == [3, 3]


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ExperimentConfig(folds=1)
        with pytest.raises(ValueError):
            ExperimentConfig(seeds=())
        with pytest.raises(ValueError):
            ExperimentConfig(grid_alpha=(-0.1,))
        with pytest.raises(ValueError):
            ExperimentConfig(workers=0)

    def test_has_only_the_shared_settings_and_the_grid(self):
        assert [f.name for f in fields(ExperimentConfig)] == [
            "train", "folds", "seeds", "grid_alpha", "grid_beta", "grid_gamma",
            "grid_rules", "workers"]

    @pytest.mark.parametrize("field", ["folds", "workers"])
    @pytest.mark.parametrize("value", [2.5, 2.0, np.float64(3.0), "3"])
    def test_rejects_a_non_integer_count(self, field, value):
        with pytest.raises(ValueError, match=r"^%s must be an integer, got " % field):
            ExperimentConfig(**{field: value})

    def test_accepts_numpy_integer_counts(self):
        config = ExperimentConfig(folds=np.int64(3), workers=np.int32(2))
        assert (config.folds, config.workers) == (3, 2)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_rejects_a_bad_seed_before_any_fold_trains(self, monkeypatch, seed):
        calls = _counting_train(monkeypatch)
        with pytest.raises(ValueError, match=r"^seeds must be integers >= 0, got %s$" % seed):
            run_cv(_data(n=30), ExperimentConfig(train=FAST, folds=2, seeds=(0, seed)))
        assert calls == []

    @pytest.mark.parametrize("field", ["grid_alpha", "grid_beta", "grid_gamma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_grid_values(self, field, value):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ExperimentConfig(**{field: (0.1, value)})


def test_derive_seed_is_stable():
    assert derive_seed(3, 1) == derive_seed(3, 1)
    assert derive_seed(3, 1) != derive_seed(1, 3)
    assert 0 <= derive_seed("x", 9) < 2 ** 63
