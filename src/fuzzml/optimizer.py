"""Alternating trainer for the robust soft-label fuzzy multilabel model.

The model couples three pieces: a soft-label transform (an L x L matrix
mixing the original labels into soft labels), a consequent matrix mapping
fuzzy features to soft labels, and a correlation penalty that pulls
together the consequent rows of labels whose soft labels co-occur. The
training objective is

    ||(M Y - C Xg)^T||_{2,1} + alpha ||C||_F^2
    + beta ||(Y - M Y)^T||_{2,1} + 2 gamma tr(C^T Lap C)

where M is the mixing transform, C the consequents, Xg the fuzzy feature
matrix, Y the binary label matrix and Lap the Laplacian of the soft-label
graph, whose weights are the clipped cosines between the rows of M Y
(:class:`_Correlation`). Every term is nonnegative. The column-wise L2,1
terms are handled by iterative reweighting: each outer iteration freezes
the inverse column-norm weights and the graph, which turns both
subproblems into Sylvester equations solved exactly. Both solves read the
same pre-update (mixing, consequents) snapshot before committing.

The objective reads M only through the soft labels M Y, so training
works in the coordinates of the range of Y (:class:`_MixingSystem`): the
r x N labels Yr have orthonormal rows, Y = G Yr, and the mixing unknown
is V = M G, so M Y = V Yr. Every coefficient of both solves and of the
loss is a small Gram matrix. With W and W_soft the diagonal weights of
the two residuals, an iteration makes one pass over the N samples: the
symmetric product of R = [Xg; Yr] W^1/2 gives B = Xg W Xg',
K = Yr W Xg' and F_fit = Yr W Yr' as its blocks, and one r x r product
gives F_soft = Yr W_soft Yr'. The consequent solve reads (A, B, V K)
and the mixing solve (F_fit, F_soft, C K'); :class:`_Correlation` forms
A and the correlation term from S = V V'. The only other products over
N are V Yr and C Xg (read back from R, below), for the residual norms.

Training holds one (K(D+1) + r) x N buffer for the run and one N-vector.
The buffer's rule rows are written with Xg once, before the first point,
from the normalized D x N features x and their K x N firing strengths s,
which are released after that fill. The N-vector holds the square roots
of the weights those rows carry, ones at the start. Each iteration,
:class:`_Grams` multiplies the rule rows in place by
sqrt(w_t) / sqrt(w_(t-1)), so they hold Xg W_t^1/2, and writes the label
rows from Yr; the point after the solves reads C Xg as (C R_t) / sqrt(w_t).
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


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    ``min_loss_margin=None`` selects the automatic margin
    ``1e-5 * |loss_1|`` fixed after the first iteration. The numerical
    guards are constants: the L2,1 weight floor :data:`EPSILON_ROW` and
    the rule width floor ``rules.DEFAULT_WIDTH_FLOOR``.
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
    two regimes cleanly.

    The four ``*_s`` fields are wall seconds per phase. ``weights_s``
    computes the reweighting diagonals. ``consequent_s`` holds the
    iteration's one weighted Gram pass over the N samples, with the
    rescaling of the rule rows to R in place (see the module docstring),
    and the consequent solve; ``mixing_s`` is the mixing solve, which
    reads only matrices of r or L rows and r or K(D+1) columns. ``point_s``
    reads C Xg back from R and evaluates the residual column norms, the
    correlation term with the next iteration's A (:class:`_Correlation`)
    and the losses at the committed pair.

    ``consequent_min`` and ``mixing_min`` are the smallest eigenvalue
    lambda_min(A) + sigma_min(B) of each solve's Sylvester operator
    W -> A W + W B; the solve returns the subproblem's minimizer when it is
    positive. The consequent value is at least alpha, since the
    correlation Laplacian is positive semidefinite. The mixing value is
    sigma_min(F_fit + beta F_soft), that of the operator on the range of
    Y, where the mixing solve works (see :class:`_MixingSystem`).
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


class _Correlation:
    """The correlation term at one (mixing, consequents) pair and the consequent solve's A.

    The soft-label graph weights labels i != j by the clipped cosine
    a_ij = max(0, S_ij / sqrt(S_ii S_jj)) of their rows of the soft labels
    M Y = V Yr, with S = V V' as Yr has orthonormal rows, and by 0 where
    S_ii S_jj = 0 (Belkin and Niyogi, Neural Computation 2003). ``mixing``
    is V (see :class:`_MixingSystem`). With Lap = diag(a 1) - a, ``loss``
    is gamma sum_{i != j} a_ij ||c_i - c_j||^2 = 2 gamma tr(C' Lap C), and
    ``consequent_left`` is A = alpha I + 2 gamma Lap. Lap is positive
    semidefinite, so A's spectrum lies in [alpha, alpha + 4 gamma (L - 1)].
    Training holds the weights fixed through the next solves, as it holds
    the L2,1 weights (Nie et al., NeurIPS 2010); the mixing solve does not
    read the term.
    """

    __slots__ = ("loss", "consequent_left")

    def __init__(self, mixing, consequents, cfg: TrainConfig):
        soft_gram = mixing @ mixing.T
        diag = np.diag(soft_gram)
        scale = np.sqrt(np.outer(diag, diag))
        weights = np.divide(soft_gram, scale, out=np.zeros_like(soft_gram), where=scale > 0.0)
        np.maximum(weights, 0.0, out=weights)
        np.fill_diagonal(weights, 0.0)
        laplacian = np.diag(weights.sum(axis=1)) - weights
        self.loss = 2.0 * cfg.gamma * float(np.vdot(consequents, laplacian @ consequents))
        self.consequent_left = cfg.alpha * np.eye(len(diag)) + 2.0 * cfg.gamma * laplacian


class _Point:
    """What the loss, the weights and both solves read at one (mixing, consequents) pair.

    :func:`train` evaluates one point per iteration, after committing
    both updates: its loss and stopping loss come from it, and so do the
    next iteration's weights and correlation term. ``mixing`` is V, and the
    soft labels are V Yr (see :class:`_MixingSystem`). ``rows`` are the rule
    rows Xg diag(root_w), and C Xg is read back from them as
    (C rows) / root_w; with ``root_w`` all ones that is C Xg itself, bit
    for bit. The fit and soft-label residuals M Y - C Xg and Y - M Y share
    one 2 x L x N array that lives only while their column norms are
    taken, as the 2 x N ``norms``, fit row first.
    """

    __slots__ = ("mixing", "consequents", "cfg", "norms", "correlation")

    def __init__(self, mixing, consequents, rows, root_w, labels, range_labels,
                 cfg: TrainConfig):
        self.mixing = mixing
        self.consequents = consequents
        self.cfg = cfg
        residuals = np.empty((2,) + labels.shape)
        fit_residual, soft_labels = residuals
        np.matmul(mixing, range_labels, out=soft_labels)
        np.matmul(consequents, rows, out=fit_residual)
        fit_residual /= root_w
        np.subtract(soft_labels, fit_residual, out=fit_residual)
        np.subtract(labels, soft_labels, out=soft_labels)
        self.norms = np.sqrt(np.einsum("gij,gij->gj", residuals, residuals))
        self.correlation = _Correlation(mixing, consequents, cfg)

    def weights(self) -> np.ndarray:
        """The L2,1 weights 1 / (2 max(column norm, EPSILON_ROW)), one per sample.

        One 2 x N array, rows ``(fit, soft)``: ``fit`` weights the fit
        residual M Y - C Xg in both subproblems, ``soft`` Y - M Y.
        """
        return 1.0 / (2.0 * np.maximum(self.norms, EPSILON_ROW))

    def losses(self) -> dict:
        """The loss fields of an :class:`IterationRecord`, by name."""
        cfg = self.cfg
        fit, soft = self.norms.sum(axis=1).tolist()
        ridge = cfg.alpha * float((self.consequents * self.consequents).sum())
        corr = self.correlation.loss
        return dict(fit=fit, ridge=ridge, soft=cfg.beta * soft, corr=corr,
                    total=fit + ridge + cfg.beta * soft + corr,
                    stopping_total=fit * fit + ridge + cfg.beta * soft * soft + corr)


class _Grams:
    """The weighted Grams over the N samples that both solves read.

    ``weights`` holds the rows (w_fit, w_soft) of :meth:`_Point.weights`,
    ``range_labels`` the r x N Yr of :class:`_MixingSystem`. With
    W = diag(w_fit): ``terms`` is Xg W Xg', ``cross`` is K = Yr W Xg' and
    ``fit`` is F_fit = Yr W Yr', the blocks of one symmetric product R R'
    with R = [Xg; Yr] W^1/2; ``soft`` is F_soft = Yr diag(w_soft) Yr'.
    ``stacked`` is a (K(D+1) + r) x N buffer whose first K(D+1) rows hold
    Xg diag(root_w), ``root_w`` being the square roots of the weights they
    carry (all ones for Xg itself). R is formed in it in place: the rule
    rows are multiplied by sqrt(w_fit) / root_w, ``root_w`` becomes
    sqrt(w_fit), and the label rows are written from Yr. On return the rule
    rows hold Xg W^1/2 and the label rows Yr diag(w_soft)^1/2.
    """

    __slots__ = ("terms", "cross", "fit", "soft")

    def __init__(self, stacked, root_w, range_labels, weights):
        n_terms = stacked.shape[0] - range_labels.shape[0]
        fit_root, soft_root = np.sqrt(weights)
        stacked[:n_terms] *= fit_root / root_w
        root_w[:] = fit_root
        np.multiply(range_labels, fit_root, out=stacked[n_terms:])
        gram = stacked @ stacked.T
        self.terms = gram[:n_terms, :n_terms]
        self.cross = gram[n_terms:, :n_terms]
        self.fit = gram[n_terms:, n_terms:]
        label_rows = stacked[n_terms:]  # reused for Yr W_soft^1/2
        np.multiply(range_labels, soft_root, out=label_rows)
        self.soft = label_rows @ label_rows.T


def _solve_consequents(point: _Point, grams: _Grams):
    """The consequent subproblem's Sylvester equation A C + C B = Z.

    Both coefficients are symmetric: A is the point's
    ``correlation.consequent_left`` and B = Xg W Xg'. The right-hand side
    Z = (M Y) W Xg' is V K. Returns the consequents and
    lambda_min(A) + sigma_min(B), which is at least alpha: the consequents
    minimize the subproblem with frozen weights and graph whenever
    alpha > 0.
    """
    return _solve_sylvester(point.correlation.consequent_left, grams.terms,
                            point.mixing @ grams.cross)


class _MixingSystem:
    """The coordinates of the label range, fixed during training, and the mixing solve.

    With Y Y' = Q diag(e) Q' and Q_r, e_r its r eigenpairs above the
    Hermitian rank tolerance L eps max(e) (as in ``np.linalg.matrix_rank``),
    the run's one eigendecomposition gives H = Q_r diag(e_r)^-1/2
    (``range_half``), G = Q_r diag(e_r)^1/2 (``range_root``) and the r x N
    labels Yr = H' Y (``range_labels``), whose rows are orthonormal, with
    Y = G Yr. The mixing unknown is the L x r matrix V = M G, M Y = V Yr,
    and :func:`train` returns M = V H'.

    With K, F_fit and F_soft of :class:`_Grams` and C the pre-update
    consequents, the mixing subproblem is stationary where
    V (F_fit + beta F_soft) = C K' + beta G F_soft; with its graph frozen,
    the correlation term does not depend on M. The coefficient is a sum of
    two symmetric products, so exactly symmetric, and positive definite, as
    Yr has full row rank: V is the minimizer, which the solver finds with
    no left coefficient. M = V H' is zero on the null space of Y' (a label
    that never occurs, duplicated or dependent label rows), which the
    objective does not see. So it is the minimum-norm minimizer at every
    label count, and duplicated labels get identical columns.
    """

    def __init__(self, labels, cfg: TrainConfig):
        self.cfg = cfg
        values, vectors = np.linalg.eigh(labels @ labels.T)
        keep = values > labels.shape[0] * np.finfo(np.float64).eps * values[-1]
        root = np.sqrt(values[keep])
        self.range_half = vectors[:, keep] / root
        self.range_root = vectors[:, keep] * root
        self.range_labels = self.range_half.T @ labels

    def solve(self, point: _Point, grams: _Grams):
        """V and sigma_min(F_fit + beta F_soft)."""
        soft = self.cfg.beta * grams.soft
        return _solve_sylvester(None, grams.fit + soft,
                                point.consequents @ grams.cross.T + self.range_root @ soft)


def train(data: Dataset, cfg: TrainConfig = TrainConfig()):
    """Fit a model on the dataset with the alternating scheme.

    Per iteration, both subproblem solves read the same pre-update pair:
    the consequent solve freezes its weights and the soft-label graph at
    (mixing, consequents), and the mixing solve freezes its weights at the
    same pair, including the old consequents in its right-hand side. Both results are
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
    mixing_system = _MixingSystem(labels, cfg)
    range_labels = mixing_system.range_labels
    n_terms = cfg.n_rules * (features.shape[0] + 1)
    stacked = np.empty((n_terms + range_labels.shape[0], n_samples))
    rows = _fill_fuzzy_rows(features, strengths, stacked[:n_terms])
    del features, strengths  # not read after the fill, so not held for the run
    root_w = np.ones(n_samples)  # rows = Xg diag(root_w)

    mixing = np.ones((n_labels, n_labels)) @ mixing_system.range_root  # V for M = 1 1'
    consequents = np.full((n_labels, n_terms), 1.0 / n_labels)
    point = _Point(mixing, consequents, rows, root_w, labels, range_labels, cfg)

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
            grams = _Grams(stacked, root_w, range_labels, weights)
            consequents, consequent_min = _solve_consequents(point, grams)
            consequent_done = time.perf_counter()
            subproblem = "mixing"
            mixing, mixing_min = mixing_system.solve(point, grams)
        except NumericalError as exc:
            raise NumericalError("iteration %d, %s solve: %s" % (t, subproblem, exc)) from exc
        mixing_done = time.perf_counter()

        point = _Point(mixing, consequents, rows, root_w, labels, range_labels, cfg)
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
        mixing=mixing @ mixing_system.range_half.T,
        consequents=consequents,
        rulebase=rulebase,
        norm=stats,
        feature_names=data.feature_names,
        label_names=data.label_names,
        config=cfg,
    )
    return model, TrainTrace(tuple(records), stop_reason)
