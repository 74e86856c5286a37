"""Scoring, thresholding and model persistence.

Prediction uses only the consequent matrix: a test column x is
normalized with the stored training stats and scored as
``sum_k s_k(x) C_k (1, x)``, each rule's normalized firing strength times
that rule's affine consequent, summed rule by rule without forming the
K(D+1) x N fuzzy feature matrix. The binary output thresholds the scores
at the model's tau (inclusive).

Models are saved as versioned line-oriented text with named sections and
a content checksum, so files are diffable and corruption is detected; a
file that cannot be parsed or verified raises ValueError. Each count is
stored once: L and D are the lengths of the name lists and K is the
config's ``n_rules``.
"""

import dataclasses

import numpy as np

from .dataset import FLOAT_FMT, NormStats, apply_norm
from .optimizer import ModelParams, TrainConfig
from .rules import RuleBase, _strength_columns

__all__ = ["score", "predict", "save_model", "load_model"]

_MAGIC = "fuzzml-model"
_VERSION = "v1"
_SECTIONS = ("meta", "norm", "rulebase", "S", "C")
# key lines that older files store: counts now taken from the names and the
# config, and settings that are now fixed or gone
_RETIRED_KEYS = frozenset(
    ("labels", "features", "rules", "width_floor", "epsilon_row", "ridge_y", "seed"))
_META_KEYS = frozenset(["feature_names", "label_names"]
                       + [field.name for field in dataclasses.fields(TrainConfig)])


def score(model: ModelParams, features) -> np.ndarray:
    """Continuous label scores, L x N, for raw (unnormalized) test features.

    The score of a normalized column x is ``sum_k s_k(x) C_k (1, x)``: rule
    k's normalized firing strength times its L x (D+1) consequent block
    applied to (1, x), added rule by rule. No K(D+1) x N fuzzy matrix is
    formed. The block products are BLAS calls, which round a one-column
    call differently from a batch, so a column scored alone agrees with
    the batch to rounding, not bit for bit.
    """
    x = apply_norm(features, model.norm)
    strengths = _strength_columns(x, model.rulebase)
    scores = np.zeros((model.n_labels, x.shape[1]))
    rule_scores = np.empty_like(scores)
    blocks = np.split(model.consequents, model.rulebase.n_rules, axis=1)  # the L x (D+1) C_k
    for strength, block in zip(strengths, blocks):
        np.matmul(block[:, 1:], x, out=rule_scores)
        rule_scores += block[:, :1]
        rule_scores *= strength
        scores += rule_scores
    return scores


def predict(model: ModelParams, features) -> np.ndarray:
    """Binary predictions: 1 where the score is at least the model's tau."""
    return (score(model, features) >= model.tau).astype(np.int64)


def _config_value(field, text):
    """Parse one [meta] value of a TrainConfig field; "auto" stands for None."""
    if text == "auto" and field.default is None:
        return None
    return int(text) if field.type is int else float(text)


def _matrix_lines(matrix):
    return [",".join(FLOAT_FMT % v for v in row) for row in np.atleast_2d(matrix)]


def _checksum(payload: str) -> str:
    import hashlib  # here, so that importing the package does not load it

    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def save_model(model: ModelParams, path) -> None:
    """Write the model to a versioned text file with a payload checksum."""
    lines = ["[meta]"]
    lines.append("feature_names=%s" % ",".join(model.feature_names))
    lines.append("label_names=%s" % ",".join(model.label_names))
    for field in dataclasses.fields(TrainConfig):
        value = getattr(model.config, field.name)
        fmt = "%d" if field.type is int else FLOAT_FMT
        lines.append("%s=%s" % (field.name, "auto" if value is None else fmt % value))
    lines.append("[norm]")
    lines.extend(_matrix_lines(model.norm.minimum))
    lines.extend(_matrix_lines(model.norm.maximum))
    lines.append("[rulebase]")
    lines.extend(_matrix_lines(model.rulebase.centers))
    lines.extend(_matrix_lines(model.rulebase.widths))
    lines.append("[S]")
    lines.extend(_matrix_lines(model.mixing))
    lines.append("[C]")
    lines.extend(_matrix_lines(model.consequents))
    payload = "\n".join(lines) + "\n"
    digest = _checksum(payload)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%s %s\n" % (_MAGIC, _VERSION))
        fh.write("checksum=%s\n" % digest)
        fh.write(payload)


def _sections(lines) -> dict:
    """The payload's lines by ``[name]`` section, without retired key lines."""
    names, bodies = [], []
    for line in lines:
        if line.startswith("[") and line.endswith("]"):
            names.append(line[1:-1])
            bodies.append([])
        elif not bodies:
            raise ValueError("malformed model file: expected [meta]")
        else:
            key, eq, _ = line.partition("=")
            if not (eq and key in _RETIRED_KEYS):
                bodies[-1].append(line)
    if tuple(names) != _SECTIONS:
        raise ValueError("malformed model file: sections %s, expected %s"
                         % (",".join(names), ",".join(_SECTIONS)))
    return dict(zip(names, bodies))


def _meta(rows) -> dict:
    """The [meta] lines as a key -> text map; each key of _META_KEYS once."""
    meta = {}
    for key, _, value in (row.partition("=") for row in rows):
        if key not in _META_KEYS or key in meta:
            raise ValueError("malformed model file: %s [meta] key %r"
                             % ("repeated" if key in meta else "unknown", key))
        meta[key] = value
    missing = sorted(_META_KEYS - meta.keys())
    if missing:
        raise ValueError("malformed model file: missing [meta] keys %s"
                         % ",".join(missing))
    return meta


def _matrix(rows, n_rows, width, what) -> np.ndarray:
    """Parse the rows of a section as an n_rows x width float matrix."""
    if len(rows) != n_rows:
        raise ValueError("malformed model file: %d %s rows, expected %d"
                         % (len(rows), what, n_rows))
    matrix = np.empty((n_rows, width))
    for i, row in enumerate(rows):
        cells = row.split(",")
        if len(cells) != width:
            raise ValueError("malformed model file: bad %s row" % what)
        try:
            matrix[i] = [float(c) for c in cells]
        except ValueError:
            raise ValueError("malformed model file: bad %s value" % what) from None
    return matrix


def load_model(path) -> ModelParams:
    """Read a model written by :func:`save_model`, verifying the checksum."""
    with open(path, "r", encoding="utf-8") as fh:
        content = fh.read()
    lines = content.splitlines()
    if not lines or not lines[0].startswith(_MAGIC):
        raise ValueError("malformed model file: missing header")
    if lines[0] != "%s %s" % (_MAGIC, _VERSION):
        raise ValueError("unsupported version: %r" % lines[0])
    if len(lines) < 2 or not lines[1].startswith("checksum="):
        raise ValueError("malformed model file: missing checksum")
    stated = lines[1][len("checksum="):]
    header_len = len(lines[0]) + 1 + len(lines[1]) + 1
    payload = content[header_len:]
    if _checksum(payload) != stated:
        raise ValueError("checksum failure")

    sections = _sections(lines[2:])
    meta = _meta(sections["meta"])
    feature_names = tuple(meta["feature_names"].split(","))
    label_names = tuple(meta["label_names"].split(","))
    try:
        cfg = TrainConfig(**{field.name: _config_value(field, meta[field.name])
                             for field in dataclasses.fields(TrainConfig)})
    except ValueError as exc:
        raise ValueError("malformed model file: %s" % exc) from None
    n_labels, d, k = len(label_names), len(feature_names), cfg.n_rules
    norm = _matrix(sections["norm"], 2, d, "norm")
    rulebase = _matrix(sections["rulebase"], 2 * k, d, "rulebase")
    mixing = _matrix(sections["S"], n_labels, n_labels, "S")
    consequents = _matrix(sections["C"], n_labels, k * (d + 1), "C")
    try:
        return ModelParams(
            mixing=mixing,
            consequents=consequents,
            rulebase=RuleBase(rulebase[:k], rulebase[k:]),
            norm=NormStats(norm[0], norm[1]),
            feature_names=feature_names,
            label_names=label_names,
            config=cfg,
        )
    except ValueError as exc:
        raise ValueError("malformed model file: %s" % exc) from None
