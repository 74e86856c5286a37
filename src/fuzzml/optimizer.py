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
its blocks, and one L x L product gives G_soft = Y W_soft Y'. The
consequent solve reads (A, B, M K) and the mixing solve
(2 gamma Lap, G_fit, G_soft, C K'); :class:`_Correlation` forms A,
2 gamma Lap and the correlation term 2 gamma <Lap, S> from the label Gram
Y Y', fixed per run, and the soft-label Gram S = M (Y Y') M'. The only
other products over N are M Y and C Xg (read back from R, below), for
the two residual column norms.

Training holds one (K(D+1) + L) x N buffer for the run and one N-vector.
The buffer's rule rows are written with Xg once, before the first point,
from the normalized D x N features x and their K x N firing strengths s,
which are released after that fill. The N-vector holds the square roots
of the weights those rows carry, ones at the start. Each iteration,
:class:`_Grams` multiplies the rule rows in place by
sqrt(w_t) / sqrt(w_(t-1)), so they hold Xg W_t^1/2, and writes the label
rows from Y; the point after the solves reads C Xg as (C R_t) / sqrt(w_t).
So Xg and R never take two N-sized arrays. The first iteration's R, and
so its iterates, are the bits a stored Xg would give; later R differ from
them by the rounding of the successive ratios.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .dataset import (
    Dataset,
    NormStats,
    _check_int,
    _check_names,
    _check_real,
    normalize_features,
)
from .rules import RuleBase, _fill_fuzzy_rows, _strength_columns, fit_antecedents
from .sylvester import NumericalError, _solve_sylvester

__all__ = [
    "TrainConfig",
    "IterationRecord",
    "TrainTrace",
    "ModelParams",
    "train",
]

# Auto stopping margin: this fraction of the first iteration's loss magnitude.
AUTO_MARGIN_SCALE = 1e-5
# Column-norm floor of the L2,1 weights: an exactly fitted sample gets a finite weight.
EPSILON_ROW = 1e-8
# Label Gram shift of the mixing solve, times trace(Y Y') / L. Not needed for
# well-posedness, and at gamma = 0 it cancels from the mixing up to rounding. At
# gamma > 0 it enters the correlation term, and so moves where the oscillating
# iteration stops, in both directions (README's "Notable behaviors" has the runs).
LABEL_GRAM_RIDGE = 1e-6


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
        for name in ("alpha", "beta", "gamma", "tau"):
            _check_real(name, getattr(self, name))
        if self.min_loss_margin is not None:
            _check_real("min_loss_margin", self.min_loss_margin)
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
class IterationRecord:
    """What one training iteration produced, read at the committed pair.

    ``fit``, ``ridge``, ``soft`` and ``corr`` are the terms of the declared
    objective and ``total`` their sum. ``stopping_total`` is the
    bookkeeping loss the stop rules read; the first record's fixes the
    automatic margin. It equals the objective except that the two
    column-norm sums enter squared. The square keeps the early iterations
    (whose residuals are huge under the all-ones initialization) far above
    the converged plateau, so the relative stopping margin separates the
    two regimes cleanly. The declared objective itself can dip below zero
    through the indefinite correlation term long before the iterates
    settle, which would end training at an arbitrary point.

    The four ``*_s`` fields are wall seconds per phase. ``weights_s``
    computes the reweighting diagonals. ``consequent_s`` holds the
    iteration's one weighted Gram pass over the N samples, with the
    rescaling of the rule rows to R in place (see the module docstring),
    and the consequent solve; ``mixing_s`` is the mixing solve, which
    reads only L x L and L x K(D+1) matrices. ``point_s`` reads C Xg back
    from R and evaluates the residual column norms, the correlation term
    with the next iteration's A and 2 gamma Lap (:class:`_Correlation`)
    and the losses at the committed pair.

    ``consequent_min`` and ``mixing_min`` are the smallest eigenvalue
    lambda_min(A) + sigma_min(B) of each solve's Sylvester operator
    W -> A W + W B. The operator is positive definite exactly when this
    value is positive; then the solve returns the subproblem's minimizer,
    otherwise a stationary point that is not one. The mixing value is that
    of the operator on the range of Y, which is what the mixing solve
    diagonalizes (see :class:`_MixingSystem`). With gamma = 0 the
    consequent value is at least alpha.
    """

    fit: float
    ridge: float
    soft: float
    corr: float
    total: float
    stopping_total: float
    weights_s: float
    consequent_s: float
    mixing_s: float
    point_s: float
    consequent_min: float
    mixing_min: float


@dataclass(frozen=True)
class TrainTrace:
    """One :class:`IterationRecord` per training iteration and the stop reason."""

    iterations: tuple
    stop_reason: str  # "margin", "nonpositive_loss" or "max_iters"

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    @property
    def totals(self) -> list:
        return [it.total for it in self.iterations]

    @property
    def stopping_totals(self) -> tuple:
        return tuple(it.stopping_total for it in self.iterations)


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


class _Correlation:
    """The correlation term at one (mixing, consequents) pair and its share of both solves.

    With S = M (Y Y') M', s its diagonal and Lap = diag(C C' 1) - C C':
    ``loss`` is 2 gamma tr(Y'M' Lap M Y) = 2 gamma <Lap, S>, and the
    symmetric left coefficients of the two solves are ``consequent_left``,
    A = alpha I + gamma (s 1' + 1 s') - 2 gamma S, and ``mixing_left``,
    2 gamma Lap. Lap's rows sum to zero, and it is indefinite when
    consequent rows have negative inner products.
    """

    __slots__ = ("loss", "consequent_left", "mixing_left")

    def __init__(self, mixing, consequents, label_gram, cfg: TrainConfig):
        soft_gram = mixing @ label_gram @ mixing.T
        similarity = consequents @ consequents.T
        laplacian = np.diag(similarity.sum(axis=1)) - similarity
        self.loss = 2.0 * cfg.gamma * float(np.vdot(laplacian, soft_gram))
        diag = np.diag(soft_gram)
        self.consequent_left = (
            cfg.alpha * np.eye(soft_gram.shape[0])
            + cfg.gamma * (diag[:, None] + diag[None, :])
            - 2.0 * cfg.gamma * soft_gram
        )
        self.mixing_left = 2.0 * cfg.gamma * laplacian


class _Point:
    """What the loss, the weights and both solves read at one (mixing, consequents) pair.

    :func:`train` evaluates one point per iteration, after committing
    both updates: its loss and stopping loss come from it, and so do the
    next iteration's weights and correlation term. ``rows`` are the rule
    rows Xg diag(root_w), and C Xg is read back from them as
    (C rows) / root_w; with ``root_w`` all ones that is C Xg itself, bit
    for bit. M Y and C Xg live only while the two residual column norms
    are taken, so no L x N array outlives the point's construction.
    """

    __slots__ = ("mixing", "consequents", "cfg", "fit_norms", "soft_norms", "correlation")

    def __init__(self, mixing, consequents, rows, root_w, labels, label_gram,
                 cfg: TrainConfig):
        self.mixing = mixing
        self.consequents = consequents
        self.cfg = cfg
        soft_labels = mixing @ labels
        fit_residual = consequents @ rows
        fit_residual /= root_w
        np.subtract(soft_labels, fit_residual, out=fit_residual)
        self.fit_norms = _column_norms(fit_residual)
        np.subtract(labels, soft_labels, out=soft_labels)
        self.soft_norms = _column_norms(soft_labels)
        self.correlation = _Correlation(mixing, consequents, label_gram, cfg)

    def weights(self):
        """The L2,1 weights 1 / (2 max(column norm, EPSILON_ROW)), one per sample.

        Returns ``(fit, soft)``: ``fit`` weights the fit residual
        M Y - C Xg in both subproblems, ``soft`` the soft-label residual
        Y - M Y.
        """
        return (1.0 / (2.0 * np.maximum(self.fit_norms, EPSILON_ROW)),
                1.0 / (2.0 * np.maximum(self.soft_norms, EPSILON_ROW)))

    def losses(self) -> dict:
        """The loss fields of an :class:`IterationRecord`, by name."""
        cfg = self.cfg
        fit = float(self.fit_norms.sum())
        soft = float(self.soft_norms.sum())
        ridge = cfg.alpha * float((self.consequents * self.consequents).sum())
        corr = self.correlation.loss
        return dict(fit=fit, ridge=ridge, soft=cfg.beta * soft, corr=corr,
                    total=fit + ridge + cfg.beta * soft + corr,
                    stopping_total=fit * fit + ridge + cfg.beta * soft * soft + corr)


class _Grams:
    """The weighted Grams over the N samples that both solves read.

    With W = diag(w_fit): ``terms`` is Xg W Xg', ``cross`` is Y W Xg' and
    ``fit`` is Y W Y', the blocks of one symmetric product R R' with
    R = [Xg; Y] W^1/2; ``soft`` is Y diag(w_soft) Y'. ``stacked`` is a
    (K(D+1) + L) x N buffer whose first K(D+1) rows hold Xg diag(root_w),
    ``root_w`` being the square roots of the weights they carry (all ones
    for Xg itself). R is formed in it in place: the rule rows are
    multiplied by sqrt(w_fit) / root_w, ``root_w`` becomes sqrt(w_fit), and
    the label rows are written from Y. On return the rule rows hold
    Xg W^1/2 and the label rows Y diag(w_soft)^1/2.
    """

    __slots__ = ("terms", "cross", "fit", "soft")

    def __init__(self, stacked, root_w, labels, weights):
        fit_weights, soft_weights = weights
        n_terms = stacked.shape[0] - labels.shape[0]
        new_root = np.sqrt(fit_weights)
        stacked[:n_terms] *= new_root / root_w
        root_w[:] = new_root
        np.multiply(labels, new_root, out=stacked[n_terms:])
        gram = stacked @ stacked.T
        self.terms = gram[:n_terms, :n_terms]
        self.cross = gram[n_terms:, :n_terms]
        self.fit = gram[n_terms:, n_terms:]
        label_rows = stacked[n_terms:]  # reused for Y W_soft^1/2
        np.multiply(labels, np.sqrt(soft_weights), out=label_rows)
        self.soft = label_rows @ label_rows.T


def _solve_consequents(point: _Point, grams: _Grams):
    """The consequent subproblem's Sylvester equation A C + C B = Z.

    Both coefficients are symmetric: A is the point's
    ``correlation.consequent_left`` and B = Xg W Xg'. The right-hand side
    Z = (M Y) W Xg' is M K. Returns the consequents and
    lambda_min(A) + sigma_min(B). The consequents are a stationary point
    of the subproblem with frozen weights, its minimizer when the operator
    is positive definite; the correlation term can make it indefinite.
    """
    return _solve_sylvester(point.correlation.consequent_left, grams.terms,
                            point.mixing @ grams.cross)


class _MixingSystem:
    """The label-side terms of the mixing subproblem, fixed during training.

    With G = Y Y' + r I the ridged label Gram, r = LABEL_GRAM_RIDGE
    trace(Y Y') / L (stored as ``ridge``; 1 replaces a zero trace),
    stationarity reads 2 gamma Lap M G + M B_raw = Z_raw, with
    B_raw = G_fit + beta G_soft and Z_raw = C K' + beta G_soft (see
    :class:`_Grams`; C is the pre-update consequents, and 2 gamma Lap is
    the point's ``correlation.mixing_left``). Both end in Y' on
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
        self.upper = np.triu(np.ones((keep.sum(),) * 2, dtype=bool), 1)

    def solve(self, point: _Point, grams: _Grams):
        """The mixing transform and lambda_min + sigma_min of the reduced operator.

        The reduced right coefficient H' B_raw H gets its upper triangle from
        its lower one, which is the triangle the eigen solver reads. The
        product's rounding asymmetry grows as rank(Y) nears N (it passed
        the solver's symmetry tolerance at N = L = 500).
        """
        half = self.range_half
        soft = self.cfg.beta * grams.soft
        right = half.T @ (grams.fit + soft) @ half
        np.copyto(right, right.T, where=self.upper)
        reduced, lowest = _solve_sylvester(
            point.correlation.mixing_left, right,
            (point.consequents @ grams.cross.T + soft) @ half)
        return reduced @ half.T, lowest


def train(data: Dataset, cfg: TrainConfig = TrainConfig()):
    """Fit a model on the dataset with the alternating scheme.

    Per iteration, both subproblem solves read the same pre-update pair:
    the consequent solve freezes its weights at (mixing, consequents) and
    the mixing solve freezes its weights and Laplacian at the same pair,
    including the old consequents in its right-hand side. Both results are
    then committed together. Training stops when the change in the
    bookkeeping loss (see :class:`IterationRecord`) drops to the margin,
    that loss becomes nonpositive, or the iteration budget runs out.

    The residuals, weights and correlation term are evaluated once per
    iteration, at the committed pair, and the weighted Grams
    once per iteration, before both solves; Xg is written once per run
    (see the module docstring). The solver reports every failure as a
    :class:`NumericalError`, which is raised again with the iteration and
    the subproblem in its message.

    Returns
    -------
    (ModelParams, TrainTrace)
    """
    features, stats = normalize_features(data.features)
    rulebase = fit_antecedents(features, cfg.n_rules)
    strengths = _strength_columns(features, rulebase)
    labels = data.labels
    n_labels, n_samples = labels.shape
    n_terms = cfg.n_rules * (features.shape[0] + 1)
    stacked = np.empty((n_terms + n_labels, n_samples))
    rows = _fill_fuzzy_rows(features, strengths, stacked[:n_terms])
    del features, strengths  # not read after the fill, so not held for the run
    root_w = np.ones(n_samples)  # rows = Xg diag(root_w)
    mixing_system = _MixingSystem(labels, cfg)

    mixing = np.ones((n_labels, n_labels))
    consequents = np.full((n_labels, n_terms), 1.0 / n_labels)
    point = _Point(mixing, consequents, rows, root_w, labels, mixing_system.label_gram, cfg)

    margin = cfg.min_loss_margin
    prev_total = 0.0
    records = []
    stop_reason = "max_iters"
    for t in range(1, cfg.max_iters + 1):
        started = time.perf_counter()
        weights = point.weights()
        weighted = time.perf_counter()
        subproblem = "consequent"
        try:
            grams = _Grams(stacked, root_w, labels, weights)
            consequents, consequent_min = _solve_consequents(point, grams)
            consequent_done = time.perf_counter()
            subproblem = "mixing"
            mixing, mixing_min = mixing_system.solve(point, grams)
        except NumericalError as exc:
            raise NumericalError("iteration %d, %s solve: %s" % (t, subproblem, exc)) from exc
        mixing_done = time.perf_counter()

        point = _Point(mixing, consequents, rows, root_w, labels, mixing_system.label_gram, cfg)
        record = IterationRecord(**point.losses(), weights_s=weighted - started,
                                 consequent_s=consequent_done - weighted,
                                 mixing_s=mixing_done - consequent_done,
                                 point_s=time.perf_counter() - mixing_done,
                                 consequent_min=consequent_min, mixing_min=mixing_min)
        total = record.stopping_total
        if not (math.isfinite(record.total) and math.isfinite(total)):
            raise NumericalError(
                "non-finite loss at iteration %d: fit=%r ridge=%r soft=%r corr=%r"
                % (t, record.fit, record.ridge, record.soft, record.corr)
            )
        records.append(record)
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
    return model, TrainTrace(tuple(records), stop_reason)
