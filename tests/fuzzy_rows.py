"""The fuzzy feature matrix Xg, built the way training builds it.

The package has no public function that returns Xg: training writes it
into its Gram buffer. Tests that need its exact bits call
:func:`fuzzy_rows`, which runs the same two kernels.
"""

import numpy as np

from fuzzml.rules import _fill_fuzzy_rows, _strength_columns


def fuzzy_rows(x, rulebase):
    """Xg of a D x N matrix: the strengths, then the rows written into a fresh array."""
    out = np.empty((rulebase.n_rules * (x.shape[0] + 1), x.shape[1]))
    return _fill_fuzzy_rows(x, _strength_columns(x, rulebase), out)
