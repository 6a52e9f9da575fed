"""Sequential open-world test-time training engine.

Per batch: an inference stage (score, threshold, predict-or-reject) followed
by an adaptation stage (prototype expansion, confidence-based sample
selection, clustering and alignment gradients, one optimizer step).
Predictions for a batch are final before the next batch is read, so the
record stream for any prefix is invariant to later data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .adapter import embed_backward, embed_batch, init_adapter, sgd_momentum_step
from .datagen import Batch
from .errors import ConfigError
from .metrics import REJECT, MetricsReport, RunningMetrics
from .objective import (
    GaussianStats,
    LossBundle,
    clustering_loss,  # unused here; kept so that a patch of engine.clustering_loss resolves
    clustering_loss_gradient,
    fit_gaussian,
    kl_divergence,
    kl_gradient,
    update_target_stats,
)
from .prototypes import (
    PrototypePool, build_source_prototypes, check_source, expand, momentum_update_novel
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
# an unclamped split dives into the weak bulk, flooding the pool with
# ordinary samples. The expansion threshold is therefore clamped by default.
EXPANSION_CLAMP = (0.4, 1.0)


@dataclass
class RunConfig:
    """Engine toggles and hyper-parameters for one run."""

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
    threshold_clamp: Optional[Tuple[float, float]] = None
    fixed_threshold: Optional[float] = None
    # Score variant and optional novel-prototype refresh.
    discrete_mode: bool = False
    novel_momentum: Optional[float] = None
    # Stream contract and reproducibility.
    batch_size: Optional[int] = 64
    seed: int = 0

    def validate(self) -> "RunConfig":
        if self.enable_expansion and not (self.enable_clustering and self.enable_ood_detection):
            raise ConfigError(
                "enable_expansion requires enable_clustering and enable_ood_detection"
            )
        if self.fixed_threshold is not None and self.threshold_clamp is not None:
            raise ConfigError("fixed_threshold and threshold_clamp are mutually exclusive")
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
        if self.fixed_threshold is not None and not 0.0 <= self.fixed_threshold <= 1.0:
            raise ConfigError("fixed_threshold must lie in [0, 1]")
        if self.threshold_clamp is not None:
            lo, hi = self.threshold_clamp
            if not 0.0 <= lo <= hi <= 1.0:
                raise ConfigError("threshold_clamp must satisfy 0 <= lo <= hi <= 1")
        if self.novel_momentum is not None and not 0.0 < self.novel_momentum <= 1.0:
            raise ConfigError("novel_momentum must lie in (0, 1]")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        return self


class StageFailure(Exception):
    """A stage error aborted the run; carries everything finalized so far."""

    def __init__(self, batch_index: int, records, trace, cause: Exception):
        super().__init__(f"run aborted at batch {batch_index}: {cause}")
        self.batch_index = batch_index
        self.records = records
        self.trace = trace
        self.cause = cause


@dataclass(slots=True)
class PredictionRecord:
    """One finalized prediction; append-only once its batch closes."""

    timestamp: int
    index: int
    predicted_label: int
    ood_score: float
    threshold_used: float
    hidden_label: int


@dataclass
class TraceRow:
    """Cumulative metrics and engine state after one batch."""

    batch: int
    acc_s: Optional[float]
    acc_n: Optional[float]
    acc_h: Optional[float]
    pn_size: int
    tau: float


@dataclass
class RunResult:
    records: List[PredictionRecord]
    trace: List[TraceRow]
    report: MetricsReport
    losses: List[LossBundle]
    num_known: int
    engine: "Engine" = field(repr=False)


def select_confident(scores: np.ndarray, tau: float, keep_ratio: float) -> np.ndarray:
    """Indices of the ceil(keep_ratio * n) samples with scores farthest from tau.

    Ties break toward the smaller sample index.
    """
    scores = np.asarray(scores, dtype=float)
    count = math.ceil(keep_ratio * scores.shape[0])
    order = np.argsort(-np.abs(scores - tau), kind="stable")
    return np.sort(order[:count])


def next_threshold(
    window: ScoreWindow,
    scores: np.ndarray,
    clamp_range: Optional[Tuple[float, float]],
    fixed_threshold: Optional[float],
) -> float:
    """Push a batch's scores into its window, then return that window's threshold.

    One policy serves both thresholds: the fixed value when one is set,
    otherwise the (optionally clamped) minimum-variance split of the window.
    """
    window.push(scores)
    if fixed_threshold is not None:
        return fixed_threshold
    return adaptive_threshold(window, clamp_range).tau


class Engine:
    """Holds all mutable state for one sequential run."""

    def __init__(
        self,
        config: RunConfig,
        source_values: np.ndarray,
        source_labels: np.ndarray,
        num_known: int,
    ):
        config.validate()
        source_values = np.asarray(source_values, dtype=float)
        source_labels = check_source(source_values, source_labels, num_known)
        self.config = config
        self.num_known = num_known
        self.adapter = init_adapter(
            feature_dim=config.feature_dim,
            input_dim=source_values.shape[1],
            learning_rate=config.learning_rate,
            momentum_coeff=config.momentum_coeff,
            seed=config.seed,
        )
        source_features = embed_batch(source_values, self.adapter)
        self.pool = PrototypePool(
            build_source_prototypes(source_features, source_labels, num_known),
            novel_capacity=config.novel_capacity,
        )
        self.source_stats = fit_gaussian(source_features, momentum=config.beta)
        self.target_stats = GaussianStats.empty(config.feature_dim, momentum=config.beta)
        self.plain_window = ScoreWindow(config.window_length)
        self.extended_window = ScoreWindow(config.window_length)
        # Samples absorbed into the target estimate so far; the alignment
        # gradient stays off until the covariance can be full-rank, because
        # a rank-deficient estimate at the regularization floor produces
        # gradients orders of magnitude above the real signal.
        self._target_samples = 0

    # --- inference stage ---------------------------------------------------------

    def inference_stage(self, batch_values: np.ndarray):
        """Score and predict one batch; returns (features, scores, tau, predicted)."""
        cfg = self.config
        features = embed_batch(batch_values, self.adapter)
        if cfg.discrete_mode:
            raw = batch_discrete_scores(features, self.pool)
        else:
            raw = batch_ood_scores(features, self.pool.source_matrix())
        scores = clamp_scores(raw)
        fixed = cfg.fixed_threshold if cfg.enable_ood_detection else NO_REJECT_TAU
        tau = next_threshold(self.plain_window, scores, cfg.threshold_clamp, fixed)
        nearest = np.argmax(features @ self.pool.source_matrix().T, axis=1)
        predicted = np.where(scores < tau, nearest, REJECT)
        return features, scores, tau, predicted

    # --- adaptation stage ----------------------------------------------------------

    def adaptation_stage(
        self,
        batch_values: np.ndarray,
        features: np.ndarray,
        scores: np.ndarray,
        tau: float,
        predicted: np.ndarray,
    ) -> LossBundle:
        """Expansion, self-training, and alignment updates for one batch."""
        cfg = self.config
        if cfg.enable_expansion:
            extended = batch_ood_scores(features, self.pool.all_matrix())
            expansion_tau = next_threshold(
                self.extended_window,
                extended,
                cfg.threshold_clamp or EXPANSION_CLAMP,
                cfg.fixed_threshold,
            )
            expand(self.pool, features, extended, expansion_tau)
        if cfg.novel_momentum is not None and self.pool.novel_count:
            momentum_update_novel(self.pool, features[predicted == REJECT], cfg.novel_momentum)

        clustering_value = 0.0
        alignment_value = 0.0
        gradient = np.zeros_like(self.adapter.weight)

        if cfg.enable_clustering:
            selected = select_confident(scores, tau, cfg.keep_ratio)
            confident = features[selected]
            pseudo_labels = np.argmax(confident @ self.pool.all_matrix().T, axis=1)
            clustering_value, clustering_grad = clustering_loss_gradient(
                confident, pseudo_labels, self.pool, cfg.temperature
            )
            gradient += embed_backward(
                clustering_grad, confident, batch_values[selected], self.adapter
            )

        if cfg.enable_alignment:
            weak_mask = predicted != REJECT
            weak_features = features[weak_mask]
            if weak_features.shape[0] > 0:
                self.target_stats = update_target_stats(self.target_stats, weak_features)
                self._target_samples += weak_features.shape[0]
            if weak_features.shape[0] and self._target_samples >= 2 * cfg.feature_dim:
                alignment_value, alignment_grad = kl_gradient(
                    self.source_stats, self.target_stats, weak_features
                )
                gradient += cfg.lam * embed_backward(
                    alignment_grad, weak_features, batch_values[weak_mask], self.adapter
                )
            elif self.target_stats.initialized:
                alignment_value = kl_divergence(self.source_stats, self.target_stats)

        if cfg.enable_clustering or cfg.enable_alignment:
            self.adapter = sgd_momentum_step(self.adapter, gradient)
        return LossBundle(
            clustering_loss=clustering_value,
            alignment_loss=alignment_value,
            lam=cfg.lam,
            temperature=cfg.temperature,
        )

    # --- full run -------------------------------------------------------------------

    def run(self, stream: Iterable[Batch]) -> RunResult:
        """One pass over the stream; inference strictly precedes adaptation."""
        records: List[PredictionRecord] = []
        trace: List[TraceRow] = []
        losses: List[LossBundle] = []
        running = RunningMetrics(self.num_known)

        for t, batch in enumerate(stream):
            if self.config.batch_size is not None and len(batch) != self.config.batch_size:
                raise ConfigError(
                    f"batch {t} has {len(batch)} samples, config expects "
                    f"{self.config.batch_size}"
                )
            try:
                features, scores, tau, predicted = self.inference_stage(batch.values)
                n = len(batch)
                records.extend(map(PredictionRecord, repeat(t, n), range(n), predicted.tolist(),
                                   scores.tolist(), repeat(tau, n), batch.hidden.tolist()))
                losses.append(
                    self.adaptation_stage(batch.values, features, scores, tau, predicted)
                )
            except Exception as exc:
                raise StageFailure(t, records, trace, exc) from exc
            running.update(predicted, batch.hidden)
            acc_s, acc_n, acc_h = running.snapshot()
            trace.append(
                TraceRow(
                    batch=t,
                    acc_s=acc_s,
                    acc_n=acc_n,
                    acc_h=acc_h,
                    pn_size=self.pool.novel_count,
                    tau=tau,
                )
            )

        return RunResult(
            records=records,
            trace=trace,
            report=running.report(),
            losses=losses,
            num_known=self.num_known,
            engine=self,
        )
