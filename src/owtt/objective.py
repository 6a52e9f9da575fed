"""Training objectives: prototype-clustering loss, Gaussian alignment loss,
their analytic gradients with respect to the features, and streaming target
statistics.

Prototypes and source statistics are constants for gradient purposes. Each
gradient is per feature row; `embed_backward` carries it back through the
feature map to the trainable weight.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import EmptyEstimate, NumericalFailure, UnknownLabel
from .prototypes import PrototypePool
from .scoring import row_indices

# Added to covariance diagonals before inversion: early in a stream the
# estimated covariance can be rank-deficient.
COV_EPS = 1e-4


@lru_cache(maxsize=4)
def _ridge(dim: int) -> np.ndarray:
    """``COV_EPS * np.eye(dim)`` as a read-only view, built once per width."""
    return np.broadcast_to(COV_EPS * np.eye(dim), (dim, dim))


def _refuse_factor(error: str, flag: int):
    """np.errstate callback for a failed factor in GaussianStats."""
    raise NumericalFailure("covariance not positive-definite")


@dataclass(frozen=True)
class GaussianStats:
    """Streaming mean/covariance of one feature distribution.

    The regularized covariance (plus COV_EPS on the diagonal), its
    log-determinant and its inverse are computed once, when the estimate is
    built; an estimate that holds no samples has none of them (None). A
    covariance that is not positive-definite after regularization is refused
    when built, with NumericalFailure.
    """

    mean: np.ndarray
    covariance: np.ndarray
    # Feature rows absorbed so far; 0 until the estimate holds any.
    count: int = 0
    # Blend weight applied to the most recent batch (1.0 for the initializing
    # batch, the momentum afterwards) and that batch's rows minus their mean;
    # `kl_gradient` differentiates through them. None on a fitted estimate.
    last_blend: float = 0.0
    last_centered: Optional[np.ndarray] = None
    regularized: Optional[np.ndarray] = field(init=False, repr=False, compare=False)
    logdet: Optional[float] = field(init=False, repr=False, compare=False)
    inverse: Optional[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        regularized = logdet = inverse = None
        if self.count:
            regularized = self.covariance + _ridge(self.mean.shape[0])
            # The LAPACK gufuncs of np.linalg.cholesky and np.linalg.inv, without
            # their wrappers' per-call checks and casts; a factor that fails comes
            # back all NaN with the "invalid" flag set, refused by _refuse_factor.
            with np.errstate(call=_refuse_factor, invalid="call"):
                chol = _umath_linalg.cholesky_lo(regularized, signature="d->d")
                inverse = _umath_linalg.inv(regularized, signature="d->d")
            logdet = 2.0 * float(np.log(chol.diagonal()).sum())
        object.__setattr__(self, "regularized", regularized)
        object.__setattr__(self, "logdet", logdet)
        object.__setattr__(self, "inverse", inverse)

    @classmethod
    def empty(cls, dim: int) -> "GaussianStats":
        return cls(mean=np.zeros(dim), covariance=np.zeros((dim, dim)))


def fit_gaussian(features: np.ndarray) -> GaussianStats:
    """Population mean/covariance of a full feature set (source-domain stats)."""
    features = np.asarray(features, dtype=float)
    mean = features.mean(axis=0)
    centered = features - mean
    cov = centered.T @ centered / features.shape[0]
    return GaussianStats(mean=mean, covariance=cov, count=features.shape[0])


def update_target_stats(
    stats: GaussianStats, batch_features: np.ndarray, momentum: float
) -> GaussianStats:
    """Blend batch mean/covariance into the running estimate (momentum EMA).

    The first non-empty batch initializes the estimate outright; later
    batches blend in with weight `momentum`. An empty batch returns `stats`
    itself. A one-row batch has zero covariance.
    """
    batch_features = np.asarray(batch_features, dtype=float)
    n = batch_features.shape[0]
    if n == 0:
        return stats
    batch_mean = batch_features.sum(axis=0) / n  # np.mean's reduction, unwrapped
    centered = batch_features - batch_mean
    if n > 1:
        batch_cov = centered.T @ centered / (n - 1)
    else:
        batch_cov = np.zeros((centered.shape[1], centered.shape[1]))
    if stats.count == 0:
        mean, cov, blend = batch_mean, batch_cov, 1.0
    else:
        mean = (1.0 - momentum) * stats.mean + momentum * batch_mean
        cov = (1.0 - momentum) * stats.covariance + momentum * batch_cov
        blend = momentum
    return GaussianStats(
        mean=mean,
        covariance=cov,
        count=stats.count + n,
        last_blend=blend,
        last_centered=centered,
    )


def kl_divergence(source: GaussianStats, target: GaussianStats) -> float:
    """Closed-form KL divergence from the source Gaussian to the target Gaussian.

    Both covariances are regularized with COV_EPS on the diagonal before any
    inversion or determinant. Small negative results (round-off) clamp to 0.
    """
    if not (source.count and target.count):
        raise EmptyEstimate("both Gaussian estimates must hold samples")
    t_inv = target.inverse
    delta = source.mean - target.mean
    trace_term = float((t_inv * source.regularized).sum())
    mahal = float(delta.dot(t_inv).dot(delta))
    kl = 0.5 * (trace_term + mahal - delta.shape[0] + target.logdet - source.logdet)
    if kl < 0.0:
        if kl < -1e-8:
            raise NumericalFailure(f"KL divergence {kl:.3e} below round-off tolerance")
        kl = 0.0
    return kl


def kl_gradient(source: GaussianStats, target: GaussianStats) -> Tuple[float, np.ndarray]:
    """KL divergence and its gradient with respect to each row of the batch
    last blended into `target`.

    Differentiates only through that batch's contribution to the target
    mean/covariance; the EMA history and the source statistics are
    constants. A fitted estimate has no such batch: its gradient is (0, d).
    """
    kl = kl_divergence(source, target)
    centered = target.last_centered
    if centered is None:
        return kl, np.zeros((0, target.mean.shape[0]))

    n = centered.shape[0]
    t_inv = target.inverse
    grad_mean = t_inv.dot(target.mean - source.mean)
    grad_features = (grad_mean / n)[None, :]  # the mean term, shared by every row
    if n > 1:
        delta = source.mean - target.mean
        outer = delta[:, None] * delta
        grad_cov = 0.5 * (t_inv - t_inv.dot(source.regularized).dot(t_inv)
                          - t_inv.dot(outer).dot(t_inv))
        grad_features = ((2.0 / (n - 1)) * centered).dot(grad_cov) + grad_features
    grad_features *= target.last_blend
    return kl, grad_features


def _softmax_nll(logits: np.ndarray, picked) -> float:
    """Summed NLL of the targets ``logits[picked]`` under the row softmax; turns
    the C-contiguous ``logits`` into softmax minus one-hot in place."""
    peak = logits[row_indices(len(logits)), logits.argmax(axis=1)]  # the row maxima
    lse = peak + np.log(np.exp(logits - peak[:, None]).sum(axis=1))
    total = float((lse - logits[picked]).sum())
    np.exp(np.subtract(logits, lse[:, None], out=logits), out=logits)
    logits[picked] -= 1.0
    return total


def clustering_loss_gradient(
    features: np.ndarray,
    pseudo_labels: Sequence[int],
    pool: PrototypePool,
    temperature: float,
) -> Tuple[float, np.ndarray]:
    """Mean negative log-likelihood of temperature-scaled cosine logits, and
    its gradient with respect to each feature row, from one set of logits.

    Samples pseudo-labeled with a source class form a softmax over the
    source prototypes only. Samples pseudo-labeled with a novel prototype
    form a softmax over the source prototypes plus that one novel
    prototype, with the novel logit in the numerator.
    """
    features = np.asarray(features, dtype=float)
    n = features.shape[0]
    if n == 0:
        return 0.0, np.zeros_like(features)
    labels = np.asarray(pseudo_labels, dtype=int)
    low, top = int(labels.min()), int(labels.max())
    k_s = pool.num_source
    if low < 0:
        raise UnknownLabel("negative pseudo-label")
    if top >= k_s + pool.novel_count:
        raise UnknownLabel(
            f"novel prototype index {top - k_s} outside pool of {pool.novel_count}"
        )
    protos = pool.source_matrix()
    grad_features = np.empty_like(features)  # every row is source or novel
    total = 0.0
    source = slice(None) if top < k_s else labels < k_s  # a slice copies no rows

    if low < k_s:
        rows = features[source].dot(protos.T) / temperature
        total += _softmax_nll(rows, (row_indices(rows.shape[0]), labels[source]))
        grad_features[source] = rows.dot(protos) / temperature
    if top >= k_s:
        sel = ~source
        subset = features[sel]
        novel = pool.novel_matrix()[labels[sel] - k_s]
        # The source logits, then the novel logit in the last column.
        rows = np.empty((subset.shape[0], k_s + 1))
        np.divide(subset.dot(protos.T), temperature, out=rows[:, :-1])
        np.divide((subset * novel).sum(axis=1), temperature, out=rows[:, -1])
        total += _softmax_nll(rows, (slice(None), -1))
        grad_features[sel] = (rows[:, :-1].dot(protos) + rows[:, -1:] * novel) / temperature

    grad_features /= n
    return total / n, grad_features


def clustering_loss(
    features: np.ndarray,
    pseudo_labels: Sequence[int],
    pool: PrototypePool,
    temperature: float,
) -> float:
    """The loss alone of `clustering_loss_gradient`."""
    return clustering_loss_gradient(features, pseudo_labels, pool, temperature)[0]
