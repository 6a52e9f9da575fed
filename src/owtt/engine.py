"""Sequential open-world test-time training engine.

Per batch: an inference stage (score, threshold, predict-or-reject) followed
by an adaptation stage (prototype expansion, confidence-based sample
selection, clustering and alignment gradients, one optimizer step), which
``Engine.step`` runs on one batch and ``Engine.run`` folds over a stream.
Predictions for a batch are final before the next batch is read, so the
outcomes of any prefix are invariant to later data.

Batches are processed strictly in order. Within a wide batch, ``run`` overlaps
the alignment branch with expansion and self-training on one worker thread
that lives as long as the run; the results are bit-identical to ``step``
called batch by batch, which never starts a thread.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import datagen
from .adapter import embed_backward, embed_batch, init_adapter, sgd_momentum_step
from .datagen import MAX_WORLD_ELEMENTS, Batch, real_array
from .errors import ConfigError, InvalidSpec
from .fields import check_fields
from .metrics import REJECT, MetricsReport, cumulative_accuracies
from .objective import (
    GaussianStats,
    clustering_loss,  # unused here; kept so that a patch of engine.clustering_loss resolves
    clustering_loss_gradient,
    fit_gaussian,
    kl_divergence,
    kl_gradient,
    update_target_stats,
)
from .prototypes import (
    MAX_NOVEL_CAPACITY, PrototypePool, build_source_prototypes, check_source, expand,
    momentum_update_novel,
)
from .scoring import (
    ScoreWindow,
    adaptive_threshold,
    batch_discrete_scores,
    batch_ood_scores,
    clamp_scores,
)

# Threshold forced when OOD detection is disabled: clamped scores never
# reach it, so nothing is rejected.
NO_REJECT_TAU = 1.0 + 1e-6

# Once expansion has populated the novel pool, the extended-score
# distribution turns single-modal (everything sits near some prototype) and
# a split without a floor dives into the weak bulk, flooding the pool with
# ordinary samples. The expansion search therefore starts at this grid point,
# so no adaptive expansion threshold lies below it; expand admits only scores
# strictly above its threshold.
EXPANSION_FLOOR = 0.4

# Fewest values per batch (batch_size x d_in) for which Engine.run overlaps the
# alignment branch with expansion and self-training on a worker thread. The
# overlap pays once numpy's products release the GIL for long enough to cover
# the hand-off to the other CPU: at 2**16 values it wins on every world shape
# timed (+2.5% to +17.5% per batch), at 2**15 it loses on two of three (CHANGES.md).
OVERLAP_BATCH_VALUES = 2**16


@dataclass(frozen=True)
class RunConfig:
    """Engine toggles and hyper-parameters for one run, checked when built:
    field types first, then values (both ConfigError)."""

    # Component toggles (the ablation axes).
    enable_ood_detection: bool = True
    enable_clustering: bool = True
    enable_expansion: bool = True
    enable_alignment: bool = True
    # Optimization.
    learning_rate: float = 0.005
    momentum_coeff: float = 0.9
    lam: float = 0.2
    temperature: float = 0.1
    # Pool / window geometry.
    feature_dim: int = 16
    novel_capacity: int = 100
    window_length: int = 512
    # Sample selection and distribution tracking.
    keep_ratio: float = 0.5
    beta: float = 0.15
    # Threshold handling.
    fixed_threshold: Optional[float] = None
    # Score variant and optional novel-prototype refresh.
    discrete_mode: bool = False
    novel_momentum: Optional[float] = None
    # Stream contract and reproducibility.
    batch_size: Optional[int] = 64
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.enable_expansion and not (self.enable_clustering and self.enable_ood_detection):
            raise ConfigError(
                "enable_expansion requires enable_clustering and enable_ood_detection"
            )
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be positive and finite")
        if not 0.0 <= self.momentum_coeff < 1.0:
            raise ConfigError("momentum_coeff must lie in [0, 1)")
        if not 0.0 < self.temperature < math.inf:
            raise ConfigError("temperature must be positive and finite")
        if not 0.0 <= self.lam < math.inf:
            raise ConfigError("lambda must be non-negative and finite")
        if not 0.0 < self.keep_ratio <= 1.0:
            raise ConfigError("keep_ratio must lie in (0, 1]")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError("beta must lie in (0, 1]")
        if self.feature_dim < 1 or self.novel_capacity < 1 or self.window_length < 1:
            raise ConfigError("feature_dim, novel_capacity, window_length must be positive")
        if self.novel_capacity > MAX_NOVEL_CAPACITY:
            raise ConfigError(f"novel_capacity must be at most {MAX_NOVEL_CAPACITY}")
        if self.fixed_threshold is not None and not 0.0 <= self.fixed_threshold <= 1.0:
            raise ConfigError("fixed_threshold must lie in [0, 1]")
        if self.novel_momentum is not None and not 0.0 < self.novel_momentum <= 1.0:
            raise ConfigError("novel_momentum must lie in (0, 1]")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass(frozen=True, slots=True, eq=False)
class BatchOutcome:
    """One finished batch: per sample its prediction (REJECT when rejected) and
    OOD score; the threshold they were made with; the novel-pool size after
    adaptation; the batch's two losses."""

    batch: int
    predicted: np.ndarray  # (B,) int
    score: np.ndarray  # (B,) float
    tau: float
    pn_size: int
    clustering_loss: float
    alignment_loss: float


COLUMNS = ("batch", "index", "predicted", "score", "tau", "hidden")  # PredictionRecord's order


def prediction_columns(outcomes: Sequence[BatchOutcome],
                       hidden: Sequence[np.ndarray]) -> Dict[str, np.ndarray]:
    """Finished batches as per-sample COLUMNS in stream order; ``index`` counts
    within the batch, and ``tau`` repeats the batch's threshold."""
    if not outcomes:
        return {name: np.empty(0, float if name in ("score", "tau") else int) for name in COLUMNS}
    blocks = zip(*((np.full(len(h), o.batch), np.arange(len(h)), o.predicted, o.score,
                    np.full(len(h), o.tau), h) for o, h in zip(outcomes, hidden)))
    return dict(zip(COLUMNS, map(np.concatenate, blocks)))


class StageFailure(Exception):
    """A stage error aborted the run at ``batch_index``; ``run`` fills in the
    outcomes and hidden labels of the batches before it. The engine is then spent,
    not rolled back: each later ``step`` runs no stage and raises a fresh
    StageFailure with the same ``batch_index`` and ``cause``."""

    def __init__(self, batch_index: int, outcomes, hidden, cause: Exception):
        super().__init__(f"run aborted at batch {batch_index}: {cause}")
        self.batch_index = batch_index
        self.outcomes = outcomes
        self.hidden = hidden
        self.cause = cause

    def __reduce__(self):  # Exception pickles only args; rebuild from the fields
        return type(self), (self.batch_index, self.outcomes, self.hidden, self.cause)


@dataclass(slots=True)
class PredictionRecord:
    """One finalized prediction, as ``RunResult.records`` lists them."""

    timestamp: int
    index: int
    predicted_label: int
    ood_score: float
    threshold_used: float
    hidden_label: int


@dataclass
class RunResult:
    """Per batch: its outcome, hidden labels (the stream's array) and cumulative accuracies."""

    outcomes: List[BatchOutcome]
    hidden: List[np.ndarray]
    accuracies: List[Tuple[Optional[float], Optional[float], Optional[float]]]
    report: MetricsReport
    num_known: int
    engine: "Engine" = field(repr=False)

    @cached_property
    def records(self) -> List[PredictionRecord]:
        """One PredictionRecord per sample, built once, on first access; only the
        benchmark harness (perfbench/harness.py) reads it, until it reads columns."""
        columns = prediction_columns(self.outcomes, self.hidden).values()
        return list(map(PredictionRecord, *(column.tolist() for column in columns)))


def select_confident(scores: np.ndarray, tau: float, keep_ratio: float) -> np.ndarray:
    """Indices of the ceil(keep_ratio * n) samples with scores farthest from tau.

    keep_ratio counts as its decimal: 0.07 * 100, 7.000000000000001 in floats,
    keeps 7 (a relative 1e-12 of slack). Ties break toward the smaller index.
    """
    scores = np.asarray(scores, dtype=float)
    count = math.ceil(keep_ratio * scores.shape[0] * (1.0 - 1e-12))
    chosen = (-np.abs(scores - tau)).argsort(kind="stable")[:count]
    chosen.sort()
    return chosen


def next_threshold(
    window: ScoreWindow,
    scores: np.ndarray,
    floor: float,
    fixed_threshold: Optional[float],
) -> float:
    """Push a batch's scores into its window, then return that window's threshold.

    One policy serves both thresholds: the fixed value when one is set,
    otherwise the minimum-variance split of the window at or above ``floor``.
    """
    window.push(scores)
    if fixed_threshold is not None:
        return fixed_threshold
    return adaptive_threshold(window, floor).tau


class Engine:
    """Holds all mutable state for one sequential run."""

    def __init__(
        self,
        config: RunConfig,
        source_values: np.ndarray,
        source_labels: np.ndarray,
        num_known: int,
    ):
        source_values = real_array(source_values, "source values").astype(float, copy=False)
        source_labels = check_source(source_values, real_array(source_labels, "source labels"),
                                     num_known)
        dim = config.feature_dim
        for shape, size in (("feature_dim x feature_dim", dim * dim),
                            ("feature_dim x d_in", dim * source_values.shape[1]),
                            ("(k_s + novel_capacity) x feature_dim",
                             (num_known + config.novel_capacity) * dim)):
            if size > MAX_WORLD_ELEMENTS:  # the covariances, the adapter, the pool rows
                raise ConfigError(f"feature_dim: {shape} is {size} elements, "
                                  f"above {MAX_WORLD_ELEMENTS}")
        self.config = config
        self.weight = init_adapter(config.feature_dim, source_values.shape[1], config.seed)
        self.momentum_buffer = np.zeros_like(self.weight)
        source_features = embed_batch(source_values, self.weight)
        self.pool = PrototypePool(
            build_source_prototypes(source_features, source_labels, num_known),
            novel_capacity=config.novel_capacity,
        )
        self.source_stats = fit_gaussian(source_features)
        self.target_stats = GaussianStats.empty(config.feature_dim)
        self.plain_window = ScoreWindow(config.window_length)
        self.extended_window = ScoreWindow(config.window_length)
        self.batch_index = 0  # of the next batch step reads
        self._cause: Optional[Exception] = None  # of the StageFailure that spent the engine
        self._worker: Optional[datagen.Worker] = None  # set only while run folds the stream

    # --- inference stage ---------------------------------------------------------

    def inference_stage(self, batch_values: np.ndarray):
        """Score and predict one batch; returns (features, similarities, scores,
        tau, predicted), where similarities is ``features @ pool.all_matrix().T``
        against the pool as the batch found it."""
        cfg = self.config
        features = embed_batch(batch_values, self.weight)
        similarities = features.dot(self.pool.all_matrix().T)
        source_similarities = similarities[:, : self.pool.num_source]
        nearest = source_similarities.argmax(axis=1)
        if cfg.discrete_mode:
            # Its own product: the table's novel columns can differ from it in the last bit.
            novel_similarities = features.dot(self.pool.novel_matrix().T)
            raw = batch_discrete_scores(source_similarities, novel_similarities, nearest)
        else:
            raw = batch_ood_scores(source_similarities, nearest)
        scores = clamp_scores(raw)
        fixed = cfg.fixed_threshold if cfg.enable_ood_detection else NO_REJECT_TAU
        tau = next_threshold(self.plain_window, scores, 0.0, fixed)
        predicted = np.where(scores < tau, nearest, REJECT)
        return features, similarities, scores, tau, predicted

    # --- adaptation stage ----------------------------------------------------------

    def adaptation_stage(
        self,
        batch_values: np.ndarray,
        features: np.ndarray,
        similarities: np.ndarray,
        scores: np.ndarray,
        tau: float,
        predicted: np.ndarray,
    ) -> Tuple[float, float]:
        """Expansion, self-training, and alignment updates for one batch; returns
        (clustering_loss, alignment_loss). Expansion scores the inference stage's
        ``similarities``: nothing changes the pool between the stages.

        Without a fixed threshold, a batch whose extended scores all sit at or
        below EXPANSION_FLOOR only pushes them into the extended window: the
        search cannot return a threshold below the floor, so expand
        would admit nothing, and both are skipped.

        ``alignment_branch`` reads no state that expansion or self-training
        writes. Inside a ``run`` that has a worker, with clustering and alignment
        both on, a batch of at least OVERLAP_BATCH_VALUES values hands it to the
        worker thread before expansion; anywhere else it runs here, after
        self-training. Either way the gradients are summed in the same order, so
        the bits are the same. An error in expansion or self-training is raised
        as in the serial order, and ``run`` joins the worker before it passes the
        error on.
        """
        cfg = self.config
        overlap = (batch_values.size >= OVERLAP_BATCH_VALUES and self._worker is not None
                   and cfg.enable_clustering and cfg.enable_alignment)
        if overlap:
            # numpy's error state is per thread: the worker runs the branch under step's.
            branch = np.errstate(over="ignore", invalid="ignore")(self.alignment_branch)
            self._worker.submit(branch, batch_values, features, predicted, self.weight)
        if cfg.enable_expansion:
            extended = batch_ood_scores(similarities)
            if cfg.fixed_threshold is None and extended.max(initial=-math.inf) <= EXPANSION_FLOOR:
                self.extended_window.push(extended)
            else:
                expansion_tau = next_threshold(
                    self.extended_window, extended, EXPANSION_FLOOR, cfg.fixed_threshold
                )
                expand(self.pool, features, extended, expansion_tau)
        if cfg.novel_momentum is not None and self.pool.novel_count:
            momentum_update_novel(self.pool, features[predicted == REJECT], cfg.novel_momentum)

        clustering_value = 0.0
        gradient = np.zeros(self.weight.shape)

        if cfg.enable_clustering:
            selected = select_confident(scores, tau, cfg.keep_ratio)
            confident = features[selected]
            pseudo_labels = confident.dot(self.pool.all_matrix().T).argmax(axis=1)
            clustering_value, clustering_grad = clustering_loss_gradient(
                confident, pseudo_labels, self.pool, cfg.temperature
            )
            gradient += embed_backward(
                clustering_grad, confident, batch_values[selected], self.weight
            )

        if overlap:
            alignment_value, alignment_grad = self._worker.result()
        elif cfg.enable_alignment:
            alignment_value, alignment_grad = self.alignment_branch(
                batch_values, features, predicted, self.weight
            )
        else:
            alignment_value, alignment_grad = 0.0, None
        if alignment_grad is not None:
            gradient += alignment_grad

        if cfg.enable_clustering or cfg.enable_alignment:
            self.weight, self.momentum_buffer = sgd_momentum_step(
                self.weight, self.momentum_buffer, gradient, cfg.learning_rate, cfg.momentum_coeff
            )
        return clustering_value, alignment_value

    def alignment_branch(
        self,
        batch_values: np.ndarray,
        features: np.ndarray,
        predicted: np.ndarray,
        weight: np.ndarray,
    ) -> Tuple[float, Optional[np.ndarray]]:
        """Blend the accepted samples into the target statistics; returns
        (alignment_loss, lam times the alignment gradient at ``weight``, or None
        while the gradient is off). Reads neither the pool nor the clustering
        branch's results."""
        cfg = self.config
        weak_mask = predicted != REJECT
        weak_features = features[weak_mask]
        if weak_features.shape[0] > 0:
            self.target_stats = update_target_stats(self.target_stats, weak_features, cfg.beta)
        # The gradient stays off until the covariance can be full-rank: a
        # rank-deficient estimate at the regularization floor produces
        # gradients orders of magnitude above the real signal.
        if weak_features.shape[0] and self.target_stats.count >= 2 * cfg.feature_dim:
            value, alignment_grad = kl_gradient(self.source_stats, self.target_stats)
            return value, cfg.lam * embed_backward(
                alignment_grad, weak_features, batch_values[weak_mask], weight
            )
        if self.target_stats.count:
            return kl_divergence(self.source_stats, self.target_stats), None
        return 0.0, None

    # --- one batch, and the run as a fold over batches ------------------------------

    def step(self, batch: Batch) -> BatchOutcome:
        """Predict one batch, then adapt on it. A batch of the wrong size raises
        ConfigError and one of the wrong width InvalidSpec, before any state
        changes; a stage error raises StageFailure, and the engine is spent."""
        t, size, width = self.batch_index, self.config.batch_size, self.weight.shape[1]
        if self._cause is not None:
            raise StageFailure(t, [], [], self._cause) from self._cause
        if size is not None and len(batch) != size:
            raise ConfigError(f"batch {t} has {len(batch)} samples, config expects {size}")
        if batch.values.shape[1:] != (width,):
            raise InvalidSpec(f"batch {t} has rows of width {batch.values.shape[-1]}, "
                              f"the source has width {width}")
        try:
            features, similarities, scores, tau, predicted = self.inference_stage(batch.values)
            # An update that overflows is refused by type, not by warning:
            # sgd_momentum_step raises NonFiniteGradient.
            with np.errstate(over="ignore", invalid="ignore"):
                losses = self.adaptation_stage(batch.values, features, similarities, scores,
                                               tau, predicted)
        except Exception as exc:
            self._cause = exc
            raise StageFailure(t, [], [], exc) from exc
        self.batch_index = t + 1
        return BatchOutcome(t, predicted, scores, tau, self.pool.novel_count, *losses)

    def run(self, stream: Iterable[Batch]) -> RunResult:
        """Fold step over the stream into outcomes and hidden labels; the cumulative
        accuracies and the report are derived from them once, after the last batch.

        On a process that may use two CPUs, the first batch that overlaps its
        alignment branch (see ``adaptation_stage``) starts the run's worker
        thread, kept off the calling thread's CPU; it is joined before this
        returns or raises."""
        outcomes, hidden = [], []
        self._worker = datagen.Worker("owtt-alignment") if datagen._usable_cpus() >= 2 else None
        try:
            for batch in stream:
                try:
                    outcomes.append(self.step(batch))
                except StageFailure as failure:
                    failure.outcomes, failure.hidden = outcomes, hidden
                    raise
                hidden.append(batch.hidden)
        finally:
            if self._worker is not None:
                self._worker.close()
            self._worker = None
        num_known = self.pool.num_source
        accuracies, report = cumulative_accuracies([o.predicted for o in outcomes], hidden,
                                                   num_known)
        return RunResult(outcomes, hidden, accuracies, report, num_known, self)
