"""A many-label synthetic generator for the tests.

A copy of the benchmark's wide generator, kept here because the tests do
not import the benchmark harness: base labels, unions of two base labels,
one duplicated label and one label that never occurs.
"""

import numpy as np

from fuzzml.dataset import Dataset

BASE_LABEL_PROB = 0.4
JITTER_SD = 0.1


def duplicated_pair(n_labels):
    """Label indices that :func:`gen_wide` makes identical."""
    return 0, n_labels - 2


def gen_wide(n_labels, n_samples, n_features, seed) -> Dataset:
    """Seeded multilabel data with correlated and degenerate labels.

    About three quarters of the labels are independent base labels; a
    quarter are each the union of two base labels. Label ``L-2`` copies
    label 0 (the duplicated pair) and label ``L-1`` never occurs. A
    sample's features are the mean of the uniform prototypes of its active
    labels (samples without labels use one extra prototype) plus Gaussian
    jitter, clipped to [0, 1].
    """
    if n_labels < 8:
        raise ValueError("the wide generator needs at least 8 labels")
    rng = np.random.default_rng(seed)
    n_union = n_labels // 4
    n_base = n_labels - 2 - n_union
    labels = np.zeros((n_labels, n_samples))
    labels[:n_base] = rng.random((n_base, n_samples)) < BASE_LABEL_PROB
    for row in range(n_base, n_base + n_union):
        a, b = rng.choice(n_base, size=2, replace=False)
        labels[row] = np.maximum(labels[a], labels[b])
    first, copy = duplicated_pair(n_labels)
    labels[copy] = labels[first]
    prototypes = rng.random((n_labels + 1, n_features))
    empty = (labels.sum(axis=0) == 0.0).astype(np.float64)
    active = np.vstack([labels, empty[None, :]])
    base = (prototypes.T @ active) / active.sum(axis=0)[None, :]
    features = np.clip(base + rng.normal(0.0, JITTER_SD, size=base.shape), 0.0, 1.0)
    return Dataset(features, labels)
