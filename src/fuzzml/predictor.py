"""Scoring, thresholding and model persistence.

Prediction uses only the consequent matrix: a test column is normalized
with the stored training stats, mapped through the rule base and
multiplied by the consequents. The binary output thresholds the scores at
the model's tau (inclusive).

Models are saved as versioned line-oriented text with named sections and
a content checksum, so files are diffable and corruption is detected.
"""

import dataclasses
import hashlib
import math

import numpy as np

from .dataset import Dataset, NormStats, apply_norm
from .optimizer import ModelParams, TrainConfig
from .rules import RuleBase, fuzzy_feature_matrix

__all__ = ["ModelFormatError", "score", "predict", "save_model", "load_model"]

_MAGIC = "fuzzml-model"
_VERSION = "v1"
_FLOAT_FMT = "%.17g"
# [meta] keys of settings that older files store and that are now fixed or gone
_RETIRED_KEYS = ("epsilon_row", "ridge_y", "width_floor", "seed")


class ModelFormatError(ValueError):
    """Raised when a model file cannot be parsed or verified."""


def _normalized_features(model: ModelParams, features) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != model.rulebase.n_features:
        raise ValueError(
            "test features must be a %d x N matrix" % model.rulebase.n_features
        )
    dummy_labels = np.zeros((1, x.shape[1]))
    return apply_norm(Dataset(x, dummy_labels), model.norm).features


def score(model: ModelParams, features) -> np.ndarray:
    """Continuous label scores, L x N, for raw (unnormalized) test features."""
    normed = _normalized_features(model, features)
    fuzzy_x = fuzzy_feature_matrix(normed, model.rulebase)
    return model.consequents @ fuzzy_x


def predict(model: ModelParams, features, tau: float | None = None) -> np.ndarray:
    """Binary predictions: 1 where the score is at least the threshold.

    ``tau`` overrides the model's threshold and must be finite.
    """
    threshold = model.tau if tau is None else tau
    if not math.isfinite(threshold):
        raise ValueError("tau must be finite")
    return (score(model, features) >= threshold).astype(np.int64)


def _config_value(field, text):
    """Parse one [meta] value of a TrainConfig field; "auto" stands for None."""
    if text == "auto" and field.default is None:
        return None
    return int(text) if field.type is int else float(text)


def _matrix_lines(matrix):
    return [",".join(_FLOAT_FMT % v for v in row) for row in np.atleast_2d(matrix)]


def save_model(model: ModelParams, path) -> None:
    """Write the model to a versioned text file with a payload checksum."""
    k = model.rulebase.n_rules
    d = model.rulebase.n_features
    lines = ["[meta]"]
    lines.append("labels=%d" % model.n_labels)
    lines.append("features=%d" % d)
    lines.append("rules=%d" % k)
    lines.append("feature_names=%s" % ",".join(model.feature_names))
    lines.append("label_names=%s" % ",".join(model.label_names))
    for field in dataclasses.fields(TrainConfig):
        value = getattr(model.config, field.name)
        fmt = "%d" if field.type is int else _FLOAT_FMT
        lines.append("%s=%s" % (field.name, "auto" if value is None else fmt % value))
    lines.append("[norm]")
    lines.extend(_matrix_lines(model.norm.minimum))
    lines.extend(_matrix_lines(model.norm.maximum))
    lines.append("[rulebase]")
    lines.append("width_floor=%s" % (_FLOAT_FMT % model.rulebase.width_floor))
    lines.extend(_matrix_lines(model.rulebase.centers))
    lines.extend(_matrix_lines(model.rulebase.widths))
    lines.append("[S]")
    lines.extend(_matrix_lines(model.mixing))
    lines.append("[C]")
    lines.extend(_matrix_lines(model.consequents))
    payload = "\n".join(lines) + "\n"
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%s %s\n" % (_MAGIC, _VERSION))
        fh.write("checksum=%s\n" % digest)
        fh.write(payload)


def _parse_float_row(line, width, what):
    cells = line.split(",")
    if len(cells) != width:
        raise ModelFormatError("malformed model file: bad %s row" % what)
    try:
        return [float(c) for c in cells]
    except ValueError:
        raise ModelFormatError("malformed model file: bad %s value" % what) from None


class _LineReader:
    def __init__(self, lines):
        self.lines = lines
        self.pos = 0

    def next(self, what):
        if self.pos >= len(self.lines):
            raise ModelFormatError("malformed model file: missing %s" % what)
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, literal):
        if self.next(literal) != literal:
            raise ModelFormatError("malformed model file: expected %s" % literal)

    def skip_keyed(self, keys):
        """Step over the next lines while each is a ``key=`` line of one of ``keys``."""
        while (self.pos < len(self.lines) and "=" in self.lines[self.pos]
               and self.lines[self.pos].partition("=")[0] in keys):
            self.pos += 1

    def keyed(self, key):
        line = self.next(key)
        prefix = key + "="
        if not line.startswith(prefix):
            raise ModelFormatError("malformed model file: expected %s" % key)
        return line[len(prefix):]


def load_model(path) -> ModelParams:
    """Read a model written by :func:`save_model`, verifying the checksum."""
    with open(path, "r", encoding="utf-8") as fh:
        content = fh.read()
    lines = content.splitlines()
    if not lines or not lines[0].startswith(_MAGIC):
        raise ModelFormatError("malformed model file: missing header")
    if lines[0] != "%s %s" % (_MAGIC, _VERSION):
        raise ModelFormatError("unsupported version: %r" % lines[0])
    if len(lines) < 2 or not lines[1].startswith("checksum="):
        raise ModelFormatError("malformed model file: missing checksum")
    stated = lines[1][len("checksum="):]
    header_len = len(lines[0]) + 1 + len(lines[1]) + 1
    payload = content[header_len:]
    if hashlib.sha256(payload.encode("utf-8")).hexdigest() != stated:
        raise ModelFormatError("checksum failure")

    reader = _LineReader(lines[2:])
    reader.expect("[meta]")
    try:
        n_labels = int(reader.keyed("labels"))
        d = int(reader.keyed("features"))
        k = int(reader.keyed("rules"))
    except ValueError:
        raise ModelFormatError("malformed model file: bad dimensions") from None
    feature_names = tuple(reader.keyed("feature_names").split(","))
    label_names = tuple(reader.keyed("label_names").split(","))
    raw = []
    for field in dataclasses.fields(TrainConfig):
        reader.skip_keyed(_RETIRED_KEYS)
        raw.append((field, reader.keyed(field.name)))
    reader.skip_keyed(_RETIRED_KEYS)
    try:
        cfg = TrainConfig(**{field.name: _config_value(field, text) for field, text in raw})
    except ValueError as exc:
        raise ModelFormatError("malformed model file: %s" % exc) from None

    reader.expect("[norm]")
    minimum = _parse_float_row(reader.next("norm min"), d, "norm min")
    maximum = _parse_float_row(reader.next("norm max"), d, "norm max")
    reader.expect("[rulebase]")
    try:
        width_floor = float(reader.keyed("width_floor"))
    except ValueError:
        raise ModelFormatError("malformed model file: bad width_floor") from None
    centers = [_parse_float_row(reader.next("center"), d, "center") for _ in range(k)]
    widths = [_parse_float_row(reader.next("width"), d, "width") for _ in range(k)]
    reader.expect("[S]")
    mixing = [_parse_float_row(reader.next("S"), n_labels, "S") for _ in range(n_labels)]
    reader.expect("[C]")
    consequents = [
        _parse_float_row(reader.next("C"), k * (d + 1), "C") for _ in range(n_labels)
    ]

    try:
        return ModelParams(
            mixing=np.array(mixing),
            consequents=np.array(consequents),
            rulebase=RuleBase(np.array(centers), np.array(widths), width_floor),
            norm=NormStats(np.array(minimum), np.array(maximum)),
            feature_names=feature_names,
            label_names=label_names,
            config=cfg,
        )
    except ValueError as exc:
        raise ModelFormatError("malformed model file: %s" % exc) from None
