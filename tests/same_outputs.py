"""Compare the float-printing outputs of README's CLI flow between two runs.

Usage, from the repository root::

    PYTHONPATH=src python tests/same_outputs.py DIR_A DIR_B

Another BLAS kernel moves the last digits of the floats that
``scores.csv``, ``rules.txt`` and ``model.txt`` print (and the checksum
line of ``model.txt`` with them), so these files are not compared as
text. Each is split into a skeleton, compared exactly, and its numbers,
compared to :data:`test_golden.RTOL` times the largest magnitude in the
file, as the golden record is:

* ``rules.txt`` by :func:`test_golden._rules`;
* ``scores.csv`` into its label names and shape, and its scores;
* ``model.txt``, read with :func:`load_model`, into its names, config
  and matrix shapes, and the entries of its matrices.

Prints one line per file and exits 1 if any file differs.
"""

import sys
from pathlib import Path

import numpy as np

from test_golden import RTOL, _rules

from fuzzml.dataset import load_matrix
from fuzzml.predictor import load_model


def _scores(path) -> dict:
    matrix, names = load_matrix(path, "score")
    return {"skeleton": [names, matrix.shape], "numbers": matrix.ravel()}


def _model(path) -> dict:
    model = load_model(path)
    arrays = (model.norm.minimum, model.norm.maximum, model.rulebase.centers,
              model.rulebase.widths, model.mixing, model.consequents)
    return {"skeleton": [model.feature_names, model.label_names, model.config,
                         [a.shape for a in arrays]],
            "numbers": np.concatenate([a.ravel() for a in arrays])}


def _rules_file(path) -> dict:
    return _rules(path.read_text(encoding="utf-8"))


READERS = {"scores.csv": _scores, "rules.txt": _rules_file, "model.txt": _model}


def compare(want_dir, got_dir) -> dict:
    """Per file name, None if the two runs agree, else what differs."""
    found = {}
    for name, read in READERS.items():
        want, got = read(Path(want_dir) / name), read(Path(got_dir) / name)
        if want["skeleton"] != got["skeleton"]:
            found[name] = "the text around the numbers differs"
            continue
        want_n = np.asarray(want["numbers"], dtype=np.float64)
        got_n = np.asarray(got["numbers"], dtype=np.float64)
        scale = np.abs(want_n).max(initial=0.0)
        gap = np.abs(want_n - got_n).max(initial=0.0)
        gap = gap / scale if scale else gap
        found[name] = (None if gap <= RTOL else
                       "largest gap %.3g of the largest magnitude, above %g" % (gap, RTOL))
    return found


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tests/same_outputs.py DIR_A DIR_B")
    found = compare(*sys.argv[1:])
    for name, problem in found.items():
        print("%s: %s" % (name, problem or "same"))
    sys.exit(1 if any(found.values()) else 0)
