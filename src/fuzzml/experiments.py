"""Cross-validation, grid search, noise curves and ablation runs.

Every routine is a deterministic function of its arguments: fold ids
come from the config seeds, per-fold noise seeds are derived from
(seed, fold) only, and result aggregation sorts work items before
reduction. Normalization stats and the rule base are refit inside each
training split, never on held-out data.

:class:`ExperimentConfig` holds the settings every routine reads, plus
the grid lists of :func:`run_grid`; :func:`run_noise_curve` takes its
noise ratios and :func:`run_ablation` its terms and noise ratio as
arguments. Each routine checks its inputs before any fold trains: grid
values through :class:`~fuzzml.optimizer.TrainConfig`, noise ratios
through :class:`~fuzzml.synthgen.NoiseSpec`, and the fold count against
the sample count.

Each public routine lists every fold job it needs, one per (train
config, noise ratio, seed, fold), and runs them once each, so a job that
two reports share (a repeated grid value, the enabled arm of both
ablations) trains once. When ``workers`` exceeds one, all jobs of the
call share one bounded thread pool; every report of that call carries the
call's wall time. Reports aggregate :data:`fuzzml.metrics.METRICS`.
"""

import itertools
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset, _check_int, _check_seed, kfold_split, take_samples
from .metrics import METRICS, MetricsReport, evaluate
from .optimizer import TrainConfig, train
from .predictor import score
from .sylvester import NumericalError
from .synthgen import NoiseSpec, inject_label_noise

__all__ = [
    "ExperimentConfig",
    "FoldResult",
    "RunReport",
    "GridCellResult",
    "GridResult",
    "run_cv",
    "run_grid",
    "run_noise_curve",
    "run_ablation",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of the experiment routines.

    ``train``, ``folds``, ``seeds`` and ``workers`` apply to every routine;
    the four ``grid_*`` lists are read by :func:`run_grid` only. A grid list
    left empty falls back to the singleton value from ``train``; at least
    one must be populated for a grid search. ``folds`` and ``workers`` must
    be integers and each seed an integer >= 0. Each grid cell must be a
    valid :class:`TrainConfig`; construction builds the cells, so its own
    checks refuse a bad grid value.
    """

    train: TrainConfig = TrainConfig()
    folds: int = 5
    seeds: tuple = (0,)
    grid_alpha: tuple = ()
    grid_beta: tuple = ()
    grid_gamma: tuple = ()
    grid_rules: tuple = ()
    workers: int = 1

    def __post_init__(self):
        _check_int("folds", self.folds)
        if self.folds < 2:
            raise ValueError("folds must be at least 2")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        for seed in self.seeds:
            _check_seed(seed)
        _check_int("workers", self.workers)
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        _grid_configs(self)


@dataclass(frozen=True)
class FoldResult:
    """One trained and evaluated fold.

    ``indefinite_steps`` counts the iterations in which the consequent or
    the mixing operator had a negative smallest eigenvalue: the records of
    the fold's trace whose ``consequent_min`` or ``mixing_min`` is below
    zero (see :class:`~fuzzml.optimizer.IterationRecord`).
    """

    seed: int
    fold: int
    metrics: MetricsReport
    stop_reason: str
    n_iterations: int
    train_seconds: float
    indefinite_steps: int


@dataclass(frozen=True)
class RunReport:
    """Per-fold metrics plus mean/SD aggregates for one configuration.

    ``noise_ratio`` is the label noise injected into every training split
    (0.0 from :func:`run_cv` and :func:`run_grid`). ``wall_seconds`` is
    the wall time of the call that produced the report; all reports of one
    ``run_grid``, ``run_noise_curve`` or ``run_ablation`` call share it.
    """

    config: TrainConfig
    noise_ratio: float
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
    cells: tuple
    final: RunReport

    @property
    def best(self) -> TrainConfig:
        """The winning cell's config, which its final report ran."""
        return self.final.config


def _fold_seed(seed, fold) -> int:
    """The noise seed of one (seed, fold) job: 63 bits of SHA-256 of "seed|fold".

    The integers are written in decimal, so a numpy integer gives the seed
    of the Python int of the same value.
    """
    import hashlib  # here, so that importing the package does not load it

    digest = hashlib.sha256(b"%d|%d" % (seed, fold)).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _aggregate(results):
    means = {}
    stds = {}
    for key in METRICS:
        values = np.array([getattr(r.metrics, key) for r in results])
        means[key] = float(values.mean())
        stds[key] = float(values.std())
    return means, stds


@dataclass(frozen=True)
class _Job:
    train: TrainConfig
    noise_ratio: float
    seed: int
    fold: int


def _run_fold(data: Dataset, folds: int, job: _Job) -> FoldResult:
    """Train and evaluate one fold; a failure's message names the job."""
    try:
        fold_of = kfold_split(data.n_samples, folds, job.seed)
        train_ds = take_samples(data, np.flatnonzero(fold_of != job.fold))
        test_ds = take_samples(data, np.flatnonzero(fold_of == job.fold))
        if job.noise_ratio > 0.0:
            # Noise touches the training split only; the seed ignores the ratio
            # so different ratios corrupt comparable sample sets.
            spec = NoiseSpec(ratio=job.noise_ratio, seed=_fold_seed(job.seed, job.fold))
            train_ds = inject_label_noise(train_ds, spec)
        started = time.perf_counter()
        model, trace = train(train_ds, job.train)
        elapsed = time.perf_counter() - started
        metrics = evaluate(score(model, test_ds.features), test_ds.labels, model.tau)
    except (ValueError, NumericalError) as exc:
        cfg = job.train
        raise type(exc)(
            "alpha=%g beta=%g gamma=%g rules=%d noise=%g, fold %d (seed %d): %s"
            % (cfg.alpha, cfg.beta, cfg.gamma, cfg.n_rules, job.noise_ratio,
               job.fold, job.seed, exc)
        ) from exc
    return FoldResult(
        seed=job.seed,
        fold=job.fold,
        metrics=metrics,
        stop_reason=trace.stop_reason,
        n_iterations=trace.n_iterations,
        train_seconds=elapsed,
        indefinite_steps=sum(r.consequent_min < 0 or r.mixing_min < 0
                             for r in trace.iterations),
    )


def _map_items(config: ExperimentConfig, fn, items):
    """``[fn(item) for item in items]``, on one pool when ``workers`` exceeds one.

    The first failure stops the pool: items not yet started are skipped,
    and the failure of the earliest failing item is raised.
    """
    if config.workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # only a pool needs it

    failed = threading.Event()

    def guarded(item):
        if failed.is_set():
            return None  # skipped; map still reaches the failed item and raises
        try:
            return fn(item)
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        return list(pool.map(guarded, items))


def _run_reports(data: Dataset, config: ExperimentConfig, runs) -> list:
    """One :class:`RunReport` per (train config, noise ratio) in ``runs``.

    Each distinct fold job runs once, and every report that lists it reads
    the same :class:`FoldResult`.
    """
    if config.folds > data.n_samples:
        raise ValueError("folds must not exceed the sample count (%d > %d)"
                         % (config.folds, data.n_samples))
    started = time.perf_counter()
    plans = [
        [_Job(train_cfg, ratio, seed, fold)
         for seed in config.seeds for fold in range(config.folds)]
        for train_cfg, ratio in runs
    ]
    jobs = list(dict.fromkeys(job for plan in plans for job in plan))
    results = _map_items(config, lambda job: _run_fold(data, config.folds, job), jobs)
    done = dict(zip(jobs, results))
    wall_seconds = time.perf_counter() - started
    reports = []
    for (train_cfg, ratio), plan in zip(runs, plans):
        fold_results = sorted((done[job] for job in plan), key=lambda r: (r.seed, r.fold))
        means, stds = _aggregate(fold_results)
        reports.append(RunReport(
            config=train_cfg,
            noise_ratio=ratio,
            folds=config.folds,
            seeds=tuple(config.seeds),
            results=tuple(fold_results),
            means=means,
            stds=stds,
            wall_seconds=wall_seconds,
        ))
    return reports


def run_cv(data: Dataset, config: ExperimentConfig) -> RunReport:
    """K-fold cross-validation over every configured seed.

    Each (seed, fold) pair trains on the in-fold samples and evaluates on
    the held-out fold.
    """
    return _run_reports(data, config, [(config.train, 0.0)])[0]


def _grid_configs(config: ExperimentConfig) -> list:
    """The :class:`TrainConfig` of every grid cell, alpha varying slowest."""
    alphas = config.grid_alpha or (config.train.alpha,)
    betas = config.grid_beta or (config.train.beta,)
    gammas = config.grid_gamma or (config.train.gamma,)
    rules = config.grid_rules or (config.train.n_rules,)
    return [replace(config.train, alpha=alpha, beta=beta, gamma=gamma, n_rules=n_rules)
            for alpha, beta, gamma, n_rules in itertools.product(alphas, betas, gammas, rules)]


def run_grid(data: Dataset, config: ExperimentConfig) -> GridResult:
    """Select hyperparameters by cross-validated mean average precision.

    Every cell is scored on the same folds, so comparisons are
    paired. Ties go to the smaller alpha, then beta, then gamma, then rule
    count. The final report is the winning cell's own cross-validation
    report: a re-run would repeat the same deterministic folds.
    """
    if not (config.grid_alpha or config.grid_beta or config.grid_gamma
            or config.grid_rules):
        raise ValueError("empty grid")
    reports = _run_reports(data, config, [(cfg, 0.0) for cfg in _grid_configs(config)])
    evaluated = [
        (GridCellResult(alpha=report.config.alpha, beta=report.config.beta,
                        gamma=report.config.gamma, n_rules=report.config.n_rules,
                        mean_ap=report.means["ap"], sd_ap=report.stds["ap"]), report)
        for report in reports
    ]
    _, final = min(
        evaluated,
        key=lambda pair: (-pair[0].mean_ap, pair[0].alpha, pair[0].beta, pair[0].gamma,
                          pair[0].n_rules),
    )
    return GridResult(cells=tuple(c for c, _ in evaluated), final=final)


def run_noise_curve(data: Dataset, config: ExperimentConfig, ratios) -> tuple:
    """One cross-validation :class:`RunReport` per noise ratio, sorted ascending.

    Each ratio corrupts the training split of every fold; a repeated ratio
    runs once, and one that :class:`NoiseSpec` refuses raises before any
    fold trains.
    """
    for ratio in ratios:
        NoiseSpec(ratio)
    ratios = sorted(set(ratios))
    if not ratios:
        raise ValueError("no noise ratios given")
    return tuple(_run_reports(data, config, [(config.train, ratio) for ratio in ratios]))


def run_ablation(data: Dataset, config: ExperimentConfig, terms,
                 noise_ratio: float = 0.0) -> dict:
    """Paired runs with a loss term disabled (group A) and enabled (group B).

    ``terms`` is a non-empty selection of ``"beta"`` and ``"gamma"``, the
    weights ablated one at a time. Both groups share seeds, folds and
    injected noise, so the comparison isolates the ablated term. Returns a
    mapping from each term to its (disabled, enabled) report pair. Any
    other term, or a noise ratio that :class:`NoiseSpec` refuses, raises
    before any fold trains.
    """
    NoiseSpec(noise_ratio)
    if not terms or not set(terms) <= {"beta", "gamma"}:
        raise ValueError("terms must be a non-empty selection of 'beta' and 'gamma', "
                         "got %r" % (terms,))
    runs = []
    for term in terms:
        runs.append((replace(config.train, **{term: 0.0}), noise_ratio))
        runs.append((config.train, noise_ratio))
    reports = _run_reports(data, config, runs)
    return {term: (reports[2 * i], reports[2 * i + 1]) for i, term in enumerate(terms)}
