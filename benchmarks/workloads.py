"""Workload definitions: input generation and the timed passes.

Every workload is generated once from the seed, split into a training
part and a held-out part, and then driven through the package's public
API. The package functions are looked up on their modules at call time
(``optimizer.train``, ``predictor.score`` ...), so the traced run can
wrap them from outside the package.

Timed training uses the default hyperparameters with the margin stop
switched off (``min_loss_margin=0``), so every timed ``train`` call runs
the full iteration budget. With the automatic margin the number of
iterations depends on where the oscillating stopping loss happens to
cross the margin: on ``tall`` it ranged from 8 to 50 across seeds, which
would make ``train_s`` measure the seed instead of the code. Under the
timed config the stop reason is always ``max_iters``, so the traced run
takes the iteration count, the non-descending steps and the stop reason
from one untimed ``train`` with the default config instead
(``default_config``).
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from fuzzml import dataset, experiments, metrics, optimizer, predictor, synthgen

import tracer

TIMED_CONFIG = optimizer.TrainConfig(min_loss_margin=0.0)

# Label density of the base labels of the wide generator; synthgen uses
# the same default.
WIDE_BASE_LABEL_PROB = 0.4
WIDE_JITTER_SD = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "fit" (train, score, evaluate) or "grid" (one run_grid)
    n_train: int
    n_heldout: int = 0
    n_labels: int = 5
    n_features: int = 20
    folds: int = 5
    max_iters: int = 50


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tall",
            why="union synth, N=10k train and 10k held-out, L=5: per-sample loops in "
            "fuzzify and metrics dominate; the Sylvester solves have 25 unknowns",
            kind="fit",
            n_train=10_000,
            n_heldout=10_000,
        ),
        Workload(
            name="wide_l24",
            why="correlated labels with a duplicated pair and a never-occurring label, "
            "L=24: below KRON_GUARD, so the mixing solve is the dense least-norm route",
            kind="fit",
            n_train=1_000,
            n_heldout=1_000,
            n_labels=24,
        ),
        Workload(
            name="wide_l96",
            why="the same generator at L=96: above KRON_GUARD, both solves take the "
            "Schur route, and the duplicated-label promise is checked there",
            kind="fit",
            n_train=1_000,
            n_heldout=1_000,
            n_labels=96,
        ),
        Workload(
            name="grid",
            why="run_grid on union synth N=4k, 5 folds, 3 alphas x 2 rule counts, 2 "
            "workers: 35 fold trains, 70 fuzzify calls on 20 distinct inputs; pass_s is "
            "one run_grid, train_s etc. its fold calls",
            kind="grid",
            n_train=4_000,
        ),
    )
}

TINY = {
    "tall": dict(n_train=300, n_heldout=300, max_iters=5),
    "wide_l24": dict(n_train=200, n_heldout=200, max_iters=5),
    "wide_l96": dict(n_train=200, n_heldout=200, max_iters=5),
    "grid": dict(n_train=300, folds=3, max_iters=5),
}

GRID_ALPHA = (0.01, 0.1, 1.0)
GRID_RULES = (2, 3)


def resolve(name: str, tiny: bool = False) -> Workload:
    """The workload of that name, shrunk for smoke tests when ``tiny``."""
    workload = WORKLOADS[name]
    return replace(workload, **TINY[name]) if tiny else workload


def duplicated_pair(n_labels: int):
    """Label indices that the wide generator makes identical."""
    return 0, n_labels - 2


def gen_wide(n_labels, n_samples, n_features, seed) -> dataset.Dataset:
    """Seeded multilabel data with correlated and degenerate labels.

    About three quarters of the labels are independent base labels; a
    quarter are each the union of two base labels. Label ``L-2`` copies
    label 0 (the duplicated pair) and label ``L-1`` never occurs. As in
    ``synthgen``, a sample's features are the mean of the uniform
    prototypes of its active labels (samples without labels use one
    extra prototype) plus Gaussian jitter, clipped to [0, 1].
    """
    if n_labels < 8:
        raise ValueError("the wide generator needs at least 8 labels")
    rng = np.random.default_rng(seed)
    n_union = n_labels // 4
    n_base = n_labels - 2 - n_union
    labels = np.zeros((n_labels, n_samples))
    labels[:n_base] = rng.random((n_base, n_samples)) < WIDE_BASE_LABEL_PROB
    for row in range(n_base, n_base + n_union):
        a, b = rng.choice(n_base, size=2, replace=False)
        labels[row] = np.maximum(labels[a], labels[b])
    first, copy = duplicated_pair(n_labels)
    labels[copy] = labels[first]
    prototypes = rng.random((n_labels + 1, n_features))
    empty = (labels.sum(axis=0) == 0.0).astype(np.float64)
    active = np.vstack([labels, empty[None, :]])
    base = (prototypes.T @ active) / active.sum(axis=0)[None, :]
    features = np.clip(base + rng.normal(0.0, WIDE_JITTER_SD, size=base.shape), 0.0, 1.0)
    return dataset.Dataset(features, labels)


def generate(workload: Workload, seed: int):
    """Generate the workload's data once and split it: (train, held-out).

    The held-out part is None on ``grid``, which tests on its own folds.
    """
    n = workload.n_train + workload.n_heldout
    if workload.n_labels == 5:
        data = synthgen.gen_synthetic(
            synthgen.SynthSpec(kind="union", n_samples=n, n_features=workload.n_features,
                               seed=seed)
        )
    else:
        data = gen_wide(workload.n_labels, n, workload.n_features, seed)
    cut = workload.n_train
    if workload.n_heldout == 0:
        return data, None
    return (dataset.take_samples(data, np.arange(cut)),
            dataset.take_samples(data, np.arange(cut, n)))


def train_config(workload: Workload) -> optimizer.TrainConfig:
    return replace(TIMED_CONFIG, max_iters=workload.max_iters)


def default_config(workload: Workload) -> optimizer.TrainConfig:
    """The default config, with the margin stop on; used untimed."""
    return optimizer.TrainConfig(max_iters=workload.max_iters)


def grid_config(workload: Workload, workers: int) -> experiments.ExperimentConfig:
    return experiments.ExperimentConfig(
        train=train_config(workload),
        folds=workload.folds,
        seeds=(0,),
        grid_alpha=GRID_ALPHA,
        grid_rules=GRID_RULES,
        workers=workers,
    )


# Exceptions a failing operation may raise; they are counted, not fatal.
OP_ERRORS = (ArithmeticError, ValueError, RuntimeError, np.linalg.LinAlgError)


@dataclass
class Op:
    """One timed call: its name, wall seconds, result or the exception.

    ``samples`` is the number of samples a score or evaluate call took.
    ``parts`` holds the fold calls timed inside a run_grid, as Op.
    """

    name: str
    seconds: float
    result: object = None
    error: BaseException = None
    samples: int = 0
    parts: tuple = ()


def _samples_of(position):
    def record(span, args):
        span.data["samples"] = int(np.shape(args[position])[1])

    return record


# The calls run_grid makes for every fold, wrapped from outside as the
# tracer wraps them: score(model, features) and evaluate(scores, ...)
# take their samples as columns.
FOLD_CALLS = (
    (experiments, "train", "train", None, None, False),
    (experiments, "score", "score", _samples_of(1), None, False),
    (experiments, "evaluate", "evaluate", _samples_of(0), None, False),
)


def run_pass(workload: Workload, train_ds, heldout_ds, workers: int):
    """One pass of the workload's user flow; returns its list of Op.

    ``fit``: train on the training part, score and evaluate the held-out
    part. ``grid``: one run_grid, as the grid command runs it. Its fold
    trains, scores and evaluates are timed from outside and kept as the
    run_grid op's parts, so ``train_s`` and the throughputs on ``grid``
    come from the calls run_grid makes, on two worker threads. An
    operation that raises is recorded and ends the pass.
    """
    ops = []

    def call(name, fn, *args, samples=0):
        started = time.perf_counter()
        try:
            result = fn(*args)
        except OP_ERRORS as exc:
            ops.append(Op(name, time.perf_counter() - started, error=exc))
            return None, False
        ops.append(Op(name, time.perf_counter() - started, result, samples=samples))
        return result, True

    if workload.kind == "grid":
        timer = tracer.Tracer()
        timer.install(FOLD_CALLS)
        try:
            _, ok = call("run_grid", experiments.run_grid, train_ds,
                         grid_config(workload, workers))
        finally:
            timer.uninstall()
        if ok:
            selfs = tracer.self_times(timer.spans)  # leaves out the samples hook
            ops[-1].parts = tuple(Op(s.name, selfs[s.span_id],
                                     samples=s.data.get("samples", 0))
                                  for s in timer.spans if s.name in ("train", "score",
                                                                     "evaluate"))
        return ops
    fitted, ok = call("train", optimizer.train, train_ds, train_config(workload))
    if not ok:
        return ops
    model = fitted[0]
    n = heldout_ds.n_samples
    scores, ok = call("score", predictor.score, model, heldout_ds.features, samples=n)
    if not ok:
        return ops
    call("evaluate", metrics.evaluate, scores, heldout_ds.labels, model.tau, samples=n)
    return ops


def warm_up(workload: Workload, train_ds):
    """Run every code path once on a slice, so lazy imports are paid here."""
    n = min(200, train_ds.n_samples)
    small = dataset.take_samples(train_ds, np.arange(n))
    model, _ = optimizer.train(small, replace(train_config(workload), max_iters=2))
    scores = predictor.score(model, small.features)
    metrics.evaluate(scores, small.labels, model.tau)
