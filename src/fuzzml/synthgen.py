"""Synthetic multilabel datasets with controlled label logic, plus label noise.

Three dataset kinds share a five-label layout. The first four labels follow
the kind's logical rule and the fifth is active exactly when the first four
are all inactive. Every Bernoulli draw is active with probability 0.4:

* ``independence``: y1..y4 are independent Bernoulli draws.
* ``equality``: y1 = y2 and y3 = y4, with y1 and y3 drawn independently.
* ``union``: y2..y4 are independent and y1 = y2 or y3 or y4.

Features are built from one uniform prototype vector per label: a sample's
feature column is the mean of the prototypes of its active labels plus
Gaussian jitter (sd 0.1), clipped to [0, 1]. This ties features to labels
so a classifier has signal while keeping every feature inside [0, 1].
"""

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, _check_int, _check_real, _check_seed

__all__ = ["SYNTH_KINDS", "SynthSpec", "NoiseSpec", "gen_synthetic", "inject_label_noise"]

SYNTH_KINDS = ("independence", "equality", "union")

_N_LABELS = 5
_FEATURE_JITTER_SD = 0.1
_BASE_LABEL_PROB = 0.4


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic dataset. Label dimension is fixed at 5.

    ``n_samples`` and ``n_features`` must be positive integers and ``seed``
    an integer >= 0.
    """

    kind: str
    n_samples: int = 1000
    n_features: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SYNTH_KINDS:
            raise ValueError("kind must be one of %s" % (SYNTH_KINDS,))
        _check_int("n_samples", self.n_samples)
        _check_int("n_features", self.n_features)
        _check_seed(self.seed)
        if self.n_samples < 1 or self.n_features < 1:
            raise ValueError("n_samples and n_features must be positive")


@dataclass(frozen=True)
class NoiseSpec:
    """Per-sample label corruption: a seeded fraction of samples is flipped.

    ``ratio`` must be a real number in [0, 1] and ``seed`` an integer >= 0.
    """

    ratio: float
    seed: int = 0

    def __post_init__(self):
        _check_real("ratio", self.ratio)
        if not 0.0 <= self.ratio <= 1.0:
            raise ValueError("noise ratio must lie in [0, 1]")
        _check_seed(self.seed)


def _draw_labels(spec: SynthSpec, rng) -> np.ndarray:
    n = spec.n_samples
    p = _BASE_LABEL_PROB
    y = np.zeros((_N_LABELS, n), dtype=np.float64)
    if spec.kind == "independence":
        y[0:4] = rng.random((4, n)) < p
    elif spec.kind == "equality":
        y[0] = rng.random(n) < p
        y[1] = y[0]
        y[2] = rng.random(n) < p
        y[3] = y[2]
    else:  # union
        y[1:4] = rng.random((3, n)) < p
        y[0] = np.max(y[1:4], axis=0)
    y[4] = np.all(y[0:4] == 0.0, axis=0)
    return y


def gen_synthetic(spec: SynthSpec) -> Dataset:
    """Generate one dataset; identical specs give identical results.

    Draw order is fixed (labels, then prototypes, then feature jitter) so
    the output is a pure function of the spec.
    """
    rng = np.random.default_rng(spec.seed)
    labels = _draw_labels(spec, rng)
    prototypes = rng.random((_N_LABELS, spec.n_features))
    # Every column has at least one active label thanks to the y5 rule.
    active_counts = labels.sum(axis=0)
    base = (prototypes.T @ labels) / active_counts[None, :]
    features = base + rng.normal(0.0, _FEATURE_JITTER_SD, size=base.shape)
    features = np.clip(features, 0.0, 1.0)
    return Dataset(features, labels)


def inject_label_noise(data: Dataset, spec: NoiseSpec) -> Dataset:
    """Flip every label bit of round(ratio * N) distinct samples.

    Sample selection is uniform without replacement under the spec seed.
    Features are untouched and the input dataset is not modified.
    """
    n = data.n_samples
    n_flip = int(round(spec.ratio * n))
    labels = np.array(data.labels)
    if n_flip > 0:
        rng = np.random.default_rng(spec.seed)
        cols = rng.choice(n, size=n_flip, replace=False)
        labels[:, cols] = 1.0 - labels[:, cols]
    return Dataset(data.features, labels, data.feature_names, data.label_names)
