"""Multilabel dataset container, CSV I/O, normalization and fold splitting.

Matrices are stored column-per-sample: features are D x N, labels are
L x N with entries in {0, 1}. CSV files on disk are sample-major (one
sample per row) with an optional leading ``#`` header naming the columns.
"""

import math

import numpy as np

__all__ = [
    "DataFormatError",
    "Dataset",
    "NormStats",
    "load_dataset",
    "load_labels",
    "load_matrix",
    "save_matrix",
    "save_dataset",
    "normalize_features",
    "apply_norm",
    "kfold_split",
    "take_samples",
]

# 17 significant digits round-trip float64 exactly
FLOAT_FMT = "%.17g"


class DataFormatError(ValueError):
    """Raised when an input file or matrix violates the data contract."""


def _check_int(name, value) -> None:
    """Refuse a ``value`` that is not a Python or numpy integer, naming ``name``."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError("%s must be an integer, got %r" % (name, value))


def _check_names(names, count, kind) -> tuple:
    """``count`` names as strings that CSV headers and model files keep.

    Both join names with "," on one line, and the CSV reader strips the
    whitespace around each header name, so a name may not be empty, hold
    a comma or a line break, or start or end with whitespace.
    """
    names = tuple(str(s) for s in names)
    if len(names) != count:
        raise DataFormatError("%s name count does not match %s rows" % (kind, kind))
    for name in names:
        if "," in name or "".join(name.splitlines()) != name:
            raise DataFormatError("%s name %r contains a comma or a line break"
                                  % (kind, name))
        if not name or name.strip() != name:
            raise DataFormatError("%s name %r is empty or has leading or trailing "
                                  "whitespace" % (kind, name))
    return names


class Dataset:
    """Immutable feature/label pair for N samples.

    Parameters
    ----------
    features : (D, N) array of reals, one column per sample.
    labels : (L, N) array with entries exactly 0 or 1.
    feature_names, label_names : optional sequences of D and L strings;
        defaults are ``f1..fD`` and ``y1..yL``.
    """

    __slots__ = ("features", "labels", "feature_names", "label_names")

    def __init__(self, features, labels, feature_names=None, label_names=None):
        features = np.array(features, dtype=np.float64)
        labels = np.array(labels, dtype=np.float64)
        if features.ndim != 2 or labels.ndim != 2:
            raise DataFormatError("features and labels must be 2-D matrices")
        if features.shape[0] < 1 or labels.shape[0] < 1 or features.shape[1] < 1:
            raise DataFormatError("empty dataset")
        if features.shape[1] != labels.shape[1]:
            raise DataFormatError(
                "sample count mismatch: features have %d samples, labels have %d"
                % (features.shape[1], labels.shape[1])
            )
        if not np.all(np.isfinite(features)):
            raise DataFormatError("non-numeric feature cell")
        if not np.all((labels == 0.0) | (labels == 1.0)):
            raise DataFormatError("non-binary label")
        if feature_names is None:
            feature_names = tuple("f%d" % (d + 1) for d in range(features.shape[0]))
        if label_names is None:
            label_names = tuple("y%d" % (l + 1) for l in range(labels.shape[0]))
        feature_names = _check_names(feature_names, features.shape[0], "feature")
        label_names = _check_names(label_names, labels.shape[0], "label")
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", feature_names)
        object.__setattr__(self, "label_names", label_names)

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    @property
    def n_features(self) -> int:
        return self.features.shape[0]

    @property
    def n_labels(self) -> int:
        return self.labels.shape[0]

    @property
    def n_samples(self) -> int:
        return self.features.shape[1]

    def __repr__(self):
        return "Dataset(D=%d, L=%d, N=%d)" % (
            self.n_features,
            self.n_labels,
            self.n_samples,
        )


class NormStats:
    """Per-feature min/max fitted on training data and reused at test time."""

    __slots__ = ("minimum", "maximum")

    def __init__(self, minimum, maximum):
        minimum = np.asarray(minimum, dtype=np.float64)
        maximum = np.asarray(maximum, dtype=np.float64)
        if minimum.shape != maximum.shape or minimum.ndim != 1:
            raise ValueError("min and max must be 1-D vectors of equal length")
        if not (np.isfinite(minimum).all() and np.isfinite(maximum).all()):
            raise ValueError("per-feature min and max must be finite")
        if np.any(minimum > maximum):
            raise ValueError("per-feature min must not exceed max")
        self.minimum = minimum
        self.maximum = maximum


def load_matrix(path, kind="feature"):
    """Read a sample-major numeric CSV as a matrix with one column per sample.

    Returns the matrix and the header names (None without a header).
    Blank lines are skipped. A non-numeric or non-finite cell, a row whose
    width differs from the first row's, or a file without rows raises
    :class:`DataFormatError` naming the path and the line; ``kind`` names
    the cells in those messages.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    names = None
    first = 0
    if lines and lines[0].lstrip().startswith("#"):
        header = lines[0].lstrip()[1:].strip()
        names = tuple(s.strip() for s in header.split(",")) if header else None
        first = 1
    rows = []
    for lineno, line in enumerate(lines[first:], start=first + 1):
        if not line.strip():
            continue
        try:
            row = [float(c) for c in line.split(",")]
        except ValueError:
            row = None
        if row is None or not all(map(math.isfinite, row)):
            raise DataFormatError("non-numeric %s cell at %s line %d" % (kind, path, lineno))
        if rows and len(row) != len(rows[0]):
            raise DataFormatError("ragged %s row at %s line %d" % (kind, path, lineno))
        rows.append(row)
    if not rows:
        raise DataFormatError("empty file: %s" % path)
    return np.array(rows, dtype=np.float64).T, names


def load_dataset(features_path, labels_path) -> Dataset:
    """Load a dataset from a feature CSV and a label CSV.

    Both files are sample-major (N rows). Files become the transposed
    internal matrices, so row i of each file is sample i.
    """
    features, feat_names = load_matrix(features_path)
    labels, lab_names = load_labels(labels_path)
    return Dataset(features, labels, feature_names=feat_names, label_names=lab_names)


def load_labels(labels_path):
    """Load just a binary label CSV, returning the L x N matrix and names."""
    labels, names = load_matrix(labels_path, "label")
    bad = np.argwhere(~((labels == 0.0) | (labels == 1.0)).T)
    if len(bad):
        sample, label = bad[0]
        raise DataFormatError("non-binary label %r at %s sample %d"
                              % (float(labels[label, sample]), labels_path, sample + 1))
    return labels, names


def save_matrix(path, matrix, names, cell_fmt=FLOAT_FMT) -> None:
    """Write a matrix with one column per sample as a sample-major CSV.

    The inverse of :func:`load_matrix`: a ``#`` header line holds the
    names, then each row is one sample with its cells printed by
    ``cell_fmt``, by default :data:`FLOAT_FMT`.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + ",".join(names) + "\n")
        for col in matrix.T:
            fh.write(",".join(cell_fmt % v for v in col) + "\n")


def save_dataset(data: Dataset, features_path, labels_path) -> None:
    """Write the dataset as two sample-major CSV files with name headers."""
    save_matrix(features_path, data.features, data.feature_names)
    save_matrix(labels_path, data.labels, data.label_names, "%d")


def normalize_features(features):
    """Min-max scale every row of a D x N training matrix into [0, 1].

    Constant features map to 0. Returns the scaled matrix and the fitted
    :class:`NormStats`.
    """
    features = np.asarray(features, dtype=np.float64)
    stats = NormStats(features.min(axis=1), features.max(axis=1))
    return apply_norm(features, stats), stats


def apply_norm(features, stats: NormStats) -> np.ndarray:
    """Scale a D x N matrix by training min-max stats, clipping to [0, 1].

    Returns a new C-ordered D x N matrix; constant features map to 0.
    """
    scaled = np.array(features, dtype=np.float64, order="C")
    if scaled.ndim != 2 or scaled.shape[0] != stats.minimum.shape[0]:
        raise ValueError("features must be a %d x N matrix" % stats.minimum.shape[0])
    if not np.all(np.isfinite(scaled)):
        raise DataFormatError("non-numeric feature cell")
    span = stats.maximum - stats.minimum
    varies = span > 0.0
    scaled -= stats.minimum[:, None]
    scaled /= np.where(varies, span, 1.0)[:, None]
    scaled[~varies] = 0.0
    return np.clip(scaled, 0.0, 1.0, out=scaled)


def kfold_split(n: int, k: int, seed: int) -> np.ndarray:
    """The fold id in [0, k) of each of n samples, by a seeded uniform shuffle.

    Returns an int64 vector of length n: fold f tests on the samples with
    id f and trains on the rest. The shuffle assigns ids ``0, 1, ..., k-1,
    0, ...`` in permuted order, so every fold is non-empty and fold sizes
    differ by at most one. Identical (n, k, seed) always gives the same ids.
    """
    _check_int("n", n)
    _check_int("k", k)
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > n:
        raise ValueError("k must not exceed the sample count")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[rng.permutation(n)] = np.arange(n) % k
    return fold_of


def take_samples(data: Dataset, indices) -> Dataset:
    """Column subset of a dataset, preserving names."""
    idx = np.asarray(indices, dtype=np.int64)
    return Dataset(
        data.features[:, idx],
        data.labels[:, idx],
        data.feature_names,
        data.label_names,
    )
