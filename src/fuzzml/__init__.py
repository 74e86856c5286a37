"""Robust multilabel fuzzy classifier toolkit.

Rule-based fuzzy feature construction, soft-label learning with a
correlation penalty, an alternating Sylvester-equation trainer, standard
multilabel metrics, logic-constrained synthetic datasets and a label-noise
robustness harness.
"""

from .dataset import *
from .experiments import *
from .metrics import *
from .optimizer import *
from .predictor import *
from .rules import *
from .sylvester import *
from .synthgen import *

# each star import above also binds its submodule here, as every import of a submodule does
__all__ = [name for module in (dataset, experiments, metrics, optimizer, predictor, rules,
                               sylvester, synthgen) for name in module.__all__]

__version__ = "0.1.0"
