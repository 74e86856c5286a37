"""Cross-validation, grid search, noise curves and ablation runs.

Every routine is a deterministic function of (dataset, config): fold
plans come from the config seeds, per-fold noise seeds are derived from
(seed, fold) only, and result aggregation sorts work items before
reduction. Normalization stats and the rule base are refit inside each
training split, never on held-out data. Work items run on a bounded
thread pool when ``workers`` exceeds one.
"""

import hashlib
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset, kfold_split, take_samples
from .metrics import MetricsReport, evaluate
from .optimizer import NumericalError, TrainConfig, train
from .predictor import score
from .sylvester import SingularProblemError
from .synthgen import NoiseSpec, inject_label_noise

__all__ = [
    "ExperimentConfig",
    "FoldResult",
    "RunReport",
    "GridCellResult",
    "GridResult",
    "NoisePoint",
    "derive_seed",
    "run_cv",
    "run_grid",
    "run_noise_curve",
    "run_ablation",
]

_METRIC_KEYS = ("ap", "hl", "rl", "cv_raw", "cv_norm")


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings shared by the experiment commands.

    Grid lists that are left empty fall back to the singleton value from
    ``train``; at least one grid dimension must be populated for a grid
    search.
    """

    train: TrainConfig = TrainConfig()
    folds: int = 5
    seeds: tuple = (0,)
    grid_alpha: tuple = ()
    grid_beta: tuple = ()
    grid_gamma: tuple = ()
    grid_rules: tuple = ()
    noise_ratios: tuple = ()
    force_beta_zero: bool = False
    force_gamma_zero: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be at least 2")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        for name, values in (
            ("grid_alpha", self.grid_alpha),
            ("grid_beta", self.grid_beta),
            ("grid_gamma", self.grid_gamma),
        ):
            if any(v < 0 for v in values):
                raise ValueError("%s values must be nonnegative" % name)
        if any(k < 1 for k in self.grid_rules):
            raise ValueError("grid_rules values must be at least 1")
        if any(not 0.0 <= r <= 1.0 for r in self.noise_ratios):
            raise ValueError("noise ratios must lie in [0, 1]")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class FoldResult:
    seed: int
    fold: int
    metrics: MetricsReport
    stop_reason: str
    n_iterations: int
    train_seconds: float


@dataclass(frozen=True)
class RunReport:
    """Per-fold metrics plus mean/SD aggregates for one configuration."""

    config: TrainConfig
    folds: int
    seeds: tuple
    results: tuple
    means: dict
    stds: dict
    wall_seconds: float


@dataclass(frozen=True)
class GridCellResult:
    alpha: float
    beta: float
    gamma: float
    n_rules: int
    mean_ap: float
    sd_ap: float


@dataclass(frozen=True)
class GridResult:
    best: TrainConfig
    cells: tuple
    final: RunReport


@dataclass(frozen=True)
class NoisePoint:
    ratio: float
    mean_ap: float
    sd_ap: float
    report: RunReport


def derive_seed(*parts) -> int:
    """Stable 63-bit seed derived from the given parts."""
    text = "|".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _aggregate(results):
    means = {}
    stds = {}
    for key in _METRIC_KEYS:
        values = np.array([getattr(r.metrics, key) for r in results])
        means[key] = float(values.mean())
        stds[key] = float(values.std())
    return means, stds


def _run_fold(data: Dataset, config: ExperimentConfig, seed: int, fold: int,
              noise_ratio: float) -> FoldResult:
    plan = kfold_split(data.n_samples, config.folds, seed)
    train_ds = take_samples(data, plan.train_indices(fold))
    test_ds = take_samples(data, plan.test_indices(fold))
    if noise_ratio > 0.0:
        # Noise touches the training split only; the seed ignores the ratio
        # so different ratios corrupt comparable sample sets.
        spec = NoiseSpec(ratio=noise_ratio, seed=derive_seed(seed, fold))
        train_ds = inject_label_noise(train_ds, spec)
    started = time.perf_counter()
    try:
        model, trace = train(train_ds, config.train)
    except (SingularProblemError, NumericalError) as exc:
        raise type(exc)("fold %d (seed %d): %s" % (fold, seed, exc)) from exc
    elapsed = time.perf_counter() - started
    metrics = evaluate(score(model, test_ds.features), test_ds.labels, model.tau)
    return FoldResult(
        seed=seed,
        fold=fold,
        metrics=metrics,
        stop_reason=trace.stop_reason,
        n_iterations=trace.n_iterations,
        train_seconds=elapsed,
    )


def _map_items(config: ExperimentConfig, fn, items):
    if config.workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        return list(pool.map(fn, items))


def run_cv(data: Dataset, config: ExperimentConfig, noise_ratio: float = 0.0) -> RunReport:
    """K-fold cross-validation over every configured seed.

    Each (seed, fold) pair trains on the in-fold samples (optionally with
    injected label noise) and evaluates on the clean held-out fold.
    """
    started = time.perf_counter()
    items = [(seed, fold) for seed in config.seeds for fold in range(config.folds)]
    results = _map_items(
        config,
        lambda it: _run_fold(data, config, it[0], it[1], noise_ratio),
        items,
    )
    results.sort(key=lambda r: (r.seed, r.fold))
    means, stds = _aggregate(results)
    return RunReport(
        config=config.train,
        folds=config.folds,
        seeds=tuple(config.seeds),
        results=tuple(results),
        means=means,
        stds=stds,
        wall_seconds=time.perf_counter() - started,
    )


def _grid_cells(config: ExperimentConfig):
    if not (config.grid_alpha or config.grid_beta or config.grid_gamma
            or config.grid_rules):
        raise ValueError("empty grid")
    alphas = config.grid_alpha or (config.train.alpha,)
    betas = config.grid_beta or (config.train.beta,)
    gammas = config.grid_gamma or (config.train.gamma,)
    rules = config.grid_rules or (config.train.n_rules,)
    return list(itertools.product(alphas, betas, gammas, rules))


def run_grid(data: Dataset, config: ExperimentConfig) -> GridResult:
    """Select hyperparameters by cross-validated mean average precision.

    Every cell is scored with the same fold plans, so comparisons are
    paired. Ties go to the smaller alpha, then beta, then gamma, then rule
    count. The final report is the winning cell's own cross-validation
    report: a re-run would repeat the same deterministic folds.
    """
    cells = _grid_cells(config)
    evaluated = []
    for alpha, beta, gamma, n_rules in cells:
        cell_cfg = replace(
            config.train, alpha=alpha, beta=beta, gamma=gamma, n_rules=n_rules
        )
        report = run_cv(data, replace(config, train=cell_cfg))
        cell = GridCellResult(
            alpha=alpha,
            beta=beta,
            gamma=gamma,
            n_rules=n_rules,
            mean_ap=report.means["ap"],
            sd_ap=report.stds["ap"],
        )
        evaluated.append((cell, report))
    _, final = min(
        evaluated,
        key=lambda pair: (-pair[0].mean_ap, pair[0].alpha, pair[0].beta, pair[0].gamma,
                          pair[0].n_rules),
    )
    return GridResult(best=final.config, cells=tuple(c for c, _ in evaluated), final=final)


def run_noise_curve(data: Dataset, config: ExperimentConfig):
    """Cross-validated average precision per noise ratio, sorted ascending."""
    ratios = sorted(set(config.noise_ratios))
    if not ratios:
        raise ValueError("no noise ratios configured")
    points = []
    for ratio in ratios:
        report = run_cv(data, config, noise_ratio=ratio)
        points.append(
            NoisePoint(
                ratio=ratio,
                mean_ap=report.means["ap"],
                sd_ap=report.stds["ap"],
                report=report,
            )
        )
    return tuple(points)


def run_ablation(data: Dataset, config: ExperimentConfig, noise_ratio: float = 0.0) -> dict:
    """Paired runs with a loss term disabled (group A) and enabled (group B).

    Both groups share seeds, fold plans and injected noise, so the
    comparison isolates the ablated term. Returns a mapping from the
    ablated weight name to its (disabled, enabled) report pair.
    """
    pairs = {}
    if config.force_beta_zero:
        ablated = replace(config, train=replace(config.train, beta=0.0))
        pairs["beta"] = (
            run_cv(data, ablated, noise_ratio=noise_ratio),
            run_cv(data, config, noise_ratio=noise_ratio),
        )
    if config.force_gamma_zero:
        ablated = replace(config, train=replace(config.train, gamma=0.0))
        pairs["gamma"] = (
            run_cv(data, ablated, noise_ratio=noise_ratio),
            run_cv(data, config, noise_ratio=noise_ratio),
        )
    if not pairs:
        raise ValueError("no ablation flag set")
    return pairs
