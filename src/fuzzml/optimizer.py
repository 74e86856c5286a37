"""Alternating trainer for the robust soft-label fuzzy multilabel model.

The model couples three pieces: a soft-label transform (an L x L matrix
mixing the original labels into soft labels), a consequent matrix mapping
fuzzy features to soft labels, and a correlation penalty tying soft-label
similarity to consequent similarity. The training objective is

    ||(M Y - C Xg)^T||_{2,1} + alpha ||C||_F^2
    + beta ||(Y - M Y)^T||_{2,1} + 2 gamma tr(Y^T M^T Lap M Y)

where M is the mixing transform, C the consequents, Xg the fuzzy feature
matrix, Y the binary label matrix and Lap the correlation Laplacian built
from C. The column-wise L2,1 terms are handled by iterative reweighting:
each outer iteration freezes the inverse column-norm weights, which turns
both subproblems into Sylvester equations solved exactly. Both solves read
the same pre-update (mixing, consequents) snapshot before committing.

Every coefficient of both solves and of the loss is a small Gram matrix.
With W and W_soft the diagonal weights of the two residuals, an
iteration makes one pass over the N samples: the symmetric product of
R = [Xg; Y] W^1/2 gives B = Xg W Xg', K = Y W Xg' and G_fit = Y W Y' as
its blocks, and one L x L product gives G_soft = Y W_soft Y'. Together
with the label Gram Y Y', fixed per run, and the soft-label Gram
S = M (Y Y') M', the consequent solve reads (S, B, M K), the mixing solve
(Lap, G_fit, G_soft, C K') and the correlation term 2 gamma <Lap, S>. The
only other products over N are M Y and C Xg, for the two residual column
norms.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, NormStats, _check_int, _check_names, normalize_features
from .rules import RuleBase, fit_antecedents, fuzzy_feature_matrix
from .sylvester import SingularProblemError, _solve_sylvester

__all__ = [
    "NumericalError",
    "TrainConfig",
    "LossBreakdown",
    "PhaseTimes",
    "OperatorMinima",
    "TrainTrace",
    "ModelParams",
    "train",
]

# Auto stopping margin: this fraction of the first iteration's loss magnitude.
AUTO_MARGIN_SCALE = 1e-5
# Column-norm floor of the L2,1 weights: an exactly fitted sample gets a finite weight.
EPSILON_ROW = 1e-8
# Label Gram shift of the mixing solve, times trace(Y Y') / L. Not needed for
# well-posedness, but at 0 tall seed 2 ran to max_iters (AP 0.9973, not a margin
# stop after 22 iterations at 0.99987) and wide_l96 seed 1 fell from AP 0.573 to 0.476.
LABEL_GRAM_RIDGE = 1e-6


class NumericalError(RuntimeError):
    """Raised when training produces non-finite values."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    ``min_loss_margin=None`` selects the automatic margin
    ``1e-5 * |loss_1|`` fixed after the first iteration. The numerical
    guards are constants: the L2,1 weight floor :data:`EPSILON_ROW`, the
    label Gram shift :data:`LABEL_GRAM_RIDGE` of the mixing solve and the
    rule width floor ``rules.DEFAULT_WIDTH_FLOOR``.
    """

    alpha: float = 0.1
    beta: float = 10.0
    gamma: float = 0.001
    n_rules: int = 3
    max_iters: int = 50
    min_loss_margin: float | None = None
    tau: float = 0.5

    def __post_init__(self):
        # every comparison with NaN is false, so these checks reject it
        if not all(0 <= v < math.inf for v in (self.alpha, self.beta, self.gamma)):
            raise ValueError("alpha, beta and gamma must be finite and nonnegative")
        _check_int("n_rules", self.n_rules)
        _check_int("max_iters", self.max_iters)
        if self.n_rules < 1:
            raise ValueError("n_rules must be at least 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.min_loss_margin is not None and not self.min_loss_margin >= 0:
            raise ValueError("min_loss_margin must be nonnegative")
        if not math.isfinite(self.tau):
            raise ValueError("tau must be finite")


@dataclass(frozen=True)
class LossBreakdown:
    """One evaluation of the training objective, term by term."""

    fit: float
    ridge: float
    soft: float
    corr: float
    total: float


@dataclass(frozen=True)
class PhaseTimes:
    """Wall seconds of one training iteration, phase by phase.

    ``weights`` computes the reweighting diagonals. ``consequent`` holds
    the iteration's one weighted Gram pass over the N samples (see the
    module docstring) and the consequent solve; ``mixing`` is the mixing
    solve, which reads only L x L and L x K(D+1) matrices. ``point``
    evaluates the residual column norms, the soft-label Gram, the
    Laplacian and the losses at the committed pair.
    """

    weights: float
    consequent: float
    mixing: float
    point: float


@dataclass(frozen=True)
class OperatorMinima:
    """Smallest eigenvalue lambda_min(A) + sigma_min(B) of each solve's operator.

    The Sylvester operator W -> A W + W B of a subproblem is positive
    definite exactly when this value is positive; then the solve returns
    the subproblem's minimizer, otherwise a stationary point that is not
    one. The mixing value is that of the operator on the range of Y,
    which is what the mixing solve diagonalizes (see
    :class:`_MixingSystem`). With gamma = 0 the consequent value is at
    least alpha.
    """

    consequent: float
    mixing: float


@dataclass(frozen=True)
class TrainTrace:
    """Per-iteration loss values and the reason training stopped.

    ``iterations`` holds the declared objective term by term.
    ``stopping_totals`` holds the bookkeeping loss the stop rules read;
    its first value fixes the automatic margin. It equals the objective
    except that the two column-norm sums enter squared. The square keeps
    the early iterations (whose residuals are huge under the all-ones
    initialization) far above the converged plateau, so the relative
    stopping margin separates the two regimes cleanly. The declared
    objective itself can dip below zero through the indefinite
    correlation term long before the iterates settle, which would end
    training at an arbitrary point. ``phases`` holds one
    :class:`PhaseTimes` and ``operator_minima`` one
    :class:`OperatorMinima` per iteration.
    """

    iterations: tuple
    stopping_totals: tuple
    stop_reason: str  # "margin", "nonpositive_loss" or "max_iters"
    phases: tuple = ()
    operator_minima: tuple = ()

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    @property
    def totals(self) -> list:
        return [it.total for it in self.iterations]


@dataclass(frozen=True)
class ModelParams:
    """Everything needed to score new samples.

    Only the consequents, rule base and normalization stats take part in
    prediction; the mixing transform is kept for inspection of learned
    label interactions. The decision threshold is ``config.tau``. The
    names and ``config.n_rules`` must agree with the matrices' D, L and K.
    """

    mixing: np.ndarray
    consequents: np.ndarray
    rulebase: RuleBase
    norm: NormStats
    feature_names: tuple
    label_names: tuple
    config: TrainConfig

    def __post_init__(self):
        k = self.rulebase.n_rules
        d = self.rulebase.n_features
        if self.consequents.shape[1] != k * (d + 1):
            raise ValueError("consequent columns must equal K(D+1) of the rule base")
        if self.mixing.shape != (self.consequents.shape[0],) * 2:
            raise ValueError("mixing transform must be L x L")
        if self.norm.minimum.shape != (d,):
            raise ValueError("normalization stats must cover the D features")
        if self.config.n_rules != k:
            raise ValueError("config.n_rules is %d for %d rules" % (self.config.n_rules, k))
        _check_names(self.feature_names, d, "feature")
        _check_names(self.label_names, self.n_labels, "label")
        if not (np.isfinite(self.mixing).all() and np.isfinite(self.consequents).all()):
            raise ValueError("mixing and consequents must be finite")

    @property
    def n_labels(self) -> int:
        return self.consequents.shape[0]

    @property
    def tau(self) -> float:
        return self.config.tau


def _column_norms(m) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->j", m, m))


class _Point:
    """What the loss, the weights and both solves read at one (mixing, consequents) pair.

    :func:`train` evaluates one point per iteration, after committing
    both updates: its loss and stopping loss come from it, and so do the
    next iteration's weights, Laplacian and soft-label Gram. M Y and
    C Xg live only while the two residual column norms are taken, so no
    L x N array outlives the point's construction.
    """

    __slots__ = ("mixing", "consequents", "soft_gram", "fit_norms", "soft_norms",
                 "laplacian")

    def __init__(self, mixing, consequents, fuzzy_x, labels, label_gram):
        self.mixing = mixing
        self.consequents = consequents
        soft_labels = mixing @ labels
        fit_residual = consequents @ fuzzy_x
        np.subtract(soft_labels, fit_residual, out=fit_residual)
        self.fit_norms = _column_norms(fit_residual)
        np.subtract(labels, soft_labels, out=soft_labels)
        self.soft_norms = _column_norms(soft_labels)
        self.soft_gram = mixing @ label_gram @ mixing.T
        # diag(C C' 1) - C C'; its rows sum to zero, and it is indefinite
        # when consequent rows have negative inner products
        similarity = consequents @ consequents.T
        self.laplacian = np.diag(similarity.sum(axis=1)) - similarity

    def weights(self):
        """The L2,1 weights 1 / (2 max(column norm, EPSILON_ROW)), one per sample.

        Returns ``(fit, soft)``: ``fit`` weights the fit residual
        M Y - C Xg in both subproblems, ``soft`` the soft-label residual
        Y - M Y.
        """
        return (1.0 / (2.0 * np.maximum(self.fit_norms, EPSILON_ROW)),
                1.0 / (2.0 * np.maximum(self.soft_norms, EPSILON_ROW)))

    def losses(self, cfg: TrainConfig):
        """The objective term by term and the stopping loss."""
        fit = float(self.fit_norms.sum())
        soft = float(self.soft_norms.sum())
        ridge = cfg.alpha * float((self.consequents * self.consequents).sum())
        # tr(Y'M' Lap M Y) = <Lap, S> with S = M (Y Y') M'
        corr = 2.0 * cfg.gamma * float(np.vdot(self.laplacian, self.soft_gram))
        loss = LossBreakdown(fit=fit, ridge=ridge, soft=cfg.beta * soft, corr=corr,
                             total=fit + ridge + cfg.beta * soft + corr)
        return loss, fit * fit + ridge + cfg.beta * soft * soft + corr


class _Grams:
    """The weighted Grams over the N samples that both solves read.

    With W = diag(w_fit): ``terms`` is Xg W Xg', ``cross`` is Y W Xg' and
    ``fit`` is Y W Y', the blocks of one symmetric product R R' with
    R = [Xg; Y] W^1/2; ``soft`` is Y diag(w_soft) Y'. The stacked R is
    allocated per call and freed on return.
    """

    __slots__ = ("terms", "cross", "fit", "soft")

    def __init__(self, fuzzy_x, labels, weights):
        fit_weights, soft_weights = weights
        n_terms = fuzzy_x.shape[0]
        stacked = np.empty((n_terms + labels.shape[0], fuzzy_x.shape[1]))
        root_w = np.sqrt(fit_weights)
        np.multiply(fuzzy_x, root_w, out=stacked[:n_terms])
        np.multiply(labels, root_w, out=stacked[n_terms:])
        gram = stacked @ stacked.T
        self.terms = gram[:n_terms, :n_terms]
        self.cross = gram[n_terms:, :n_terms]
        self.fit = gram[n_terms:, n_terms:]
        label_rows = stacked[n_terms:]  # reused for Y W_soft^1/2
        np.multiply(labels, np.sqrt(soft_weights), out=label_rows)
        self.soft = label_rows @ label_rows.T


def _solve_consequents(point: _Point, grams: _Grams, cfg: TrainConfig):
    """The consequent subproblem's Sylvester equation A C + C B = Z.

    Both coefficients are symmetric: A = alpha I + gamma (s 1' + 1 s')
    - 2 gamma S from the soft-label Gram S and its diagonal s, and
    B = Xg W Xg'. The right-hand side Z = (M Y) W Xg' is M K. Returns the
    consequents and lambda_min(A) + sigma_min(B). The consequents are a
    stationary point of the subproblem with frozen weights, its minimizer
    when the operator is positive definite; the correlation term can
    make it indefinite.
    """
    soft_gram = point.soft_gram
    diag = np.diag(soft_gram)
    a = (
        cfg.alpha * np.eye(soft_gram.shape[0])
        + cfg.gamma * (diag[:, None] + diag[None, :])
        - 2.0 * cfg.gamma * soft_gram
    )
    return _solve_sylvester(a, grams.terms, point.mixing @ grams.cross)


class _MixingSystem:
    """The label-side terms of the mixing subproblem, fixed during training.

    With G = Y Y' + r I the ridged label Gram, r = LABEL_GRAM_RIDGE
    trace(Y Y') / L (stored as ``ridge``; 1 replaces a zero trace),
    stationarity reads 2 gamma Lap M G + M B_raw = Z_raw, with
    B_raw = G_fit + beta G_soft and Z_raw = C K' + beta G_soft (see
    :class:`_Grams`; C is the pre-update consequents). Both end in Y' on
    the right, so a direction w with Y' w = 0 (a label that never occurs,
    duplicated or dependent label rows) has B_raw w = 0 and Z_raw w = 0:
    M w = 0 satisfies the equation there and is its minimum-norm choice.
    On the range of Y, with Y Y' = Q diag(e) Q', the columns of Q whose
    eigenvalue exceeds the Hermitian rank tolerance L eps max(e) (as in
    ``np.linalg.matrix_rank``) and H = Q_range diag(e_range + r)^-1/2, the
    substitution M = N H' makes both coefficients symmetric,
    2 gamma Lap N + N (H' B_raw H) = Z_raw H, for the eigen solver. The
    label Gram Y Y' and H come from one eigendecomposition per training
    run; a solve reads only L x L and L x K(D+1) matrices.

    The unreduced operator is singular whenever Y is row-rank deficient:
    the Laplacian annihilates the all-ones vector while the right
    coefficient loses rank. The system stays consistent, and M = N H' is
    its minimum-norm solution at every label count. Being zero on the
    null space of Y', it gives duplicated labels identical columns. Like
    the consequents, M is a stationary point of the subproblem, its
    minimizer when the reduced operator is positive definite.
    """

    def __init__(self, labels, cfg: TrainConfig):
        self.cfg = cfg
        self.label_gram = labels @ labels.T
        n_labels = labels.shape[0]
        trace = float((labels * labels).sum())
        self.ridge = LABEL_GRAM_RIDGE * (trace / n_labels if trace > 0.0 else 1.0)
        values, vectors = np.linalg.eigh(self.label_gram)
        keep = values > n_labels * np.finfo(np.float64).eps * values[-1]
        self.range_half = vectors[:, keep] / np.sqrt(values[keep] + self.ridge)[None, :]

    def solve(self, point: _Point, grams: _Grams):
        """The mixing transform and lambda_min + sigma_min of the reduced operator."""
        half = self.range_half
        soft = self.cfg.beta * grams.soft
        reduced, lowest = _solve_sylvester(
            2.0 * self.cfg.gamma * point.laplacian, half.T @ (grams.fit + soft) @ half,
            (point.consequents @ grams.cross.T + soft) @ half)
        return reduced @ half.T, lowest


def train(data: Dataset, cfg: TrainConfig = TrainConfig()):
    """Fit a model on the dataset with the alternating scheme.

    Per iteration, both subproblem solves read the same pre-update pair:
    the consequent solve freezes its weights at (mixing, consequents) and
    the mixing solve freezes its weights and Laplacian at the same pair,
    including the old consequents in its right-hand side. Both results are
    then committed together. Training stops when the change in the
    bookkeeping loss (see :class:`TrainTrace`) drops to the margin, that
    loss becomes nonpositive, or the iteration budget runs out.

    The residuals, weights, soft-label Gram and Laplacian are evaluated
    once per iteration, at the committed pair, and the weighted Grams
    once per iteration, before both solves. A failed solve raises
    :class:`SingularProblemError` naming the iteration and the subproblem.

    Returns
    -------
    (ModelParams, TrainTrace)
    """
    features, stats = normalize_features(data.features)
    rulebase = fit_antecedents(features, cfg.n_rules)
    fuzzy_x = fuzzy_feature_matrix(features, rulebase)
    labels = data.labels
    n_labels = labels.shape[0]
    mixing_system = _MixingSystem(labels, cfg)

    mixing = np.ones((n_labels, n_labels))
    consequents = np.full((n_labels, fuzzy_x.shape[0]), 1.0 / n_labels)
    point = _Point(mixing, consequents, fuzzy_x, labels, mixing_system.label_gram)

    margin = cfg.min_loss_margin
    prev_total = 0.0
    iterations = []
    stopping_totals = []
    phases = []
    operator_minima = []
    stop_reason = "max_iters"
    for t in range(1, cfg.max_iters + 1):
        started = time.perf_counter()
        weights = point.weights()
        weighted = time.perf_counter()
        subproblem = "consequent"
        try:
            grams = _Grams(fuzzy_x, labels, weights)
            consequents, consequent_min = _solve_consequents(point, grams, cfg)
            consequent_done = time.perf_counter()
            subproblem = "mixing"
            mixing, mixing_min = mixing_system.solve(point, grams)
        except SingularProblemError as exc:
            raise SingularProblemError(
                "iteration %d, %s solve: %s" % (t, subproblem, exc)) from exc
        mixing_done = time.perf_counter()

        point = _Point(mixing, consequents, fuzzy_x, labels, mixing_system.label_gram)
        loss, total = point.losses(cfg)
        phases.append(PhaseTimes(weights=weighted - started,
                                 consequent=consequent_done - weighted,
                                 mixing=mixing_done - consequent_done,
                                 point=time.perf_counter() - mixing_done))
        operator_minima.append(OperatorMinima(consequent=consequent_min, mixing=mixing_min))
        if not (math.isfinite(loss.total) and math.isfinite(total)):
            raise NumericalError(
                "non-finite loss at iteration %d: fit=%r ridge=%r soft=%r corr=%r"
                % (t, loss.fit, loss.ridge, loss.soft, loss.corr)
            )
        iterations.append(loss)
        stopping_totals.append(total)
        if margin is None:
            margin = AUTO_MARGIN_SCALE * abs(total)
        if abs(total - prev_total) <= margin:
            stop_reason = "margin"
            break
        if total <= 0.0:
            stop_reason = "nonpositive_loss"
            break
        prev_total = total

    model = ModelParams(
        mixing=mixing,
        consequents=consequents,
        rulebase=rulebase,
        norm=stats,
        feature_names=data.feature_names,
        label_names=data.label_names,
        config=cfg,
    )
    return model, TrainTrace(tuple(iterations), tuple(stopping_totals), stop_reason,
                             tuple(phases), tuple(operator_minima))
