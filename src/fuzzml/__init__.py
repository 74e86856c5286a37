"""Robust multilabel fuzzy classifier toolkit.

Rule-based fuzzy feature construction, soft-label learning with a
correlation penalty, an alternating Sylvester-equation trainer, standard
multilabel metrics, logic-constrained synthetic datasets and a label-noise
robustness harness.
"""

from .dataset import (
    DataFormatError,
    Dataset,
    NormStats,
    apply_norm,
    kfold_split,
    load_dataset,
    load_labels,
    normalize_features,
    save_dataset,
    take_samples,
)
from .experiments import (
    ExperimentConfig,
    FoldResult,
    GridResult,
    NoisePoint,
    RunReport,
    run_ablation,
    run_cv,
    run_grid,
    run_noise_curve,
)
from .metrics import (
    MetricsReport,
    average_precision,
    coverage,
    critical_difference,
    evaluate,
    hamming_loss,
    ranking_loss,
)
from .optimizer import (
    IterationRecord,
    ModelParams,
    NumericalError,
    TrainConfig,
    TrainTrace,
    train,
)
from .predictor import ModelFormatError, load_model, predict, save_model, score
from .rules import (
    RuleBase,
    export_rules,
    fit_antecedents,
    fuzzy_feature_matrix,
)
from .sylvester import SingularProblemError, solve_sylvester
from .synthgen import NoiseSpec, SynthSpec, gen_synthetic, inject_label_noise

__version__ = "0.1.0"
