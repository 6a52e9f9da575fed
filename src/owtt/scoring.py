"""Strong-OOD scoring, the rolling score window, and adaptive thresholding.

Scores are one minus the best cosine similarity to a prototype set. The
rejection threshold is re-estimated from a rolling window of recent scores
by exhaustively searching a fixed grid for the split that minimizes the
total intra-cluster variance of the two resulting score groups.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from .errors import EmptyPrototypeSet, EmptyWindow, NonFiniteInput

if TYPE_CHECKING:  # pragma: no cover
    from .prototypes import PrototypePool

# Candidate thresholds: 0.00, 0.01, ..., 1.00.
THRESHOLD_GRID = np.arange(101) / 100.0
_GRID = tuple(THRESHOLD_GRID.tolist())

# Below this many stored scores the two-cluster objective is noise, so the
# estimator reports a degenerate threshold (reject nothing).
MIN_WINDOW_SCORES = 8

# Number of top novel-prototype similarities averaged by the discrete-mode
# score variant.
DEFAULT_TOP_M = 10


@dataclass
class ThresholdEstimate:
    """Result of one grid search over the score window."""

    tau: float
    objective: Optional[float]
    degenerate: bool


def clamp_scores(scores: np.ndarray) -> np.ndarray:
    """``np.clip(scores, 0.0, 1.0)``, bit for bit, without np.clip's Python wrapper.

    The argument order keeps -0.0 as np.clip does: ``np.maximum(0.0, -0.0)``
    is -0.0, while ``np.maximum(-0.0, 0.0)`` is +0.0.
    """
    return np.minimum(np.maximum(0.0, scores), 1.0)


class ScoreWindow:
    """Fixed-capacity FIFO buffer of recent finite scores, clamped to [0, 1]."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("window capacity must be positive")
        self.capacity = capacity
        self._scores = np.empty(0)

    @property
    def count(self) -> int:
        return self._scores.size

    def push(self, scores: Sequence[float]) -> "ScoreWindow":
        """Append scores (oldest evicted at capacity); finite values clamp to [0, 1].

        A NaN or inf score raises NonFiniteInput naming its position, before
        the window changes.
        """
        scores = np.atleast_1d(np.asarray(scores, dtype=float))
        finite = np.isfinite(scores)
        if finite.size:
            i = int(finite.argmin())  # the first NaN or inf, if there is one
            if not finite[i]:
                raise NonFiniteInput(f"score {i} is {scores[i]}")
        self._scores = np.concatenate((self._scores, clamp_scores(scores)))[-self.capacity :]
        return self

    def values(self) -> np.ndarray:
        return self._scores.copy()


def ood_score(feature: np.ndarray, source_prototypes) -> float:
    """Strong-OOD score: one minus the best cosine similarity to a source prototype."""
    mat = np.asarray(source_prototypes, dtype=float)
    if mat.shape[0] == 0:
        raise EmptyPrototypeSet("no source prototypes")
    return float(1.0 - np.max(mat @ np.asarray(feature, dtype=float)))


def batch_ood_scores(features: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """Strong-OOD scores of a batch of unit-norm features against prototype rows."""
    if prototypes.shape[0] == 0:
        raise EmptyPrototypeSet("no source prototypes")
    return 1.0 - (np.asarray(features, dtype=float) @ prototypes.T).max(axis=1)


def batch_discrete_scores(
    features: np.ndarray, pool: "PrototypePool", top_m: int = DEFAULT_TOP_M
) -> np.ndarray:
    """Score variant weighing source affinity against mean top-m novel affinity.

    With similarity s to the best source prototype and u the mean of the
    top-m similarities to novel prototypes, the score is
    (1-s)*s/(s+u) + u*u/(s+u), and 0.5 where s+u < 1e-12 (no evidence
    either way). Falls back to the plain score while the novel pool is
    empty; with fewer than top_m novel prototypes the mean runs over all of
    them. The top-m similarities are summed in descending order.
    """
    if top_m < 1:
        raise ValueError("top_m must be >= 1")
    source = pool.source_matrix()
    if source.shape[0] == 0:
        raise EmptyPrototypeSet("no source prototypes")
    features = np.asarray(features, dtype=float)
    best_source = np.max(features @ source.T, axis=1)
    novel = pool.novel_matrix()
    if novel.shape[0] == 0:
        return 1.0 - best_source
    m = min(top_m, novel.shape[0])
    top = np.sort(features @ novel.T, axis=1)[:, : -m - 1 : -1]
    total_u = top[:, 0].copy()
    for j in range(1, m):
        total_u += top[:, j]
    s_s = np.clip(best_source, 0.0, 1.0)
    s_u = np.clip(total_u / m, 0.0, 1.0)
    total = s_s + s_u
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = (1.0 - s_s) * s_s / total + s_u * s_u / total
    return np.where(total < 1e-12, 0.5, scores)


def adaptive_threshold(
    window: ScoreWindow,
    clamp_range: Optional[Tuple[float, float]] = None,
) -> ThresholdEstimate:
    """Grid-search the split threshold minimizing total intra-cluster variance.

    Every candidate on the 0.00..1.00 grid that leaves at least one score on
    each side is scored; ties break toward the smallest candidate. When no
    candidate is valid (single-mode window, too few scores, or all candidates
    excluded by clamp_range) the estimate is degenerate with tau = 1.0.
    """
    n = window.count
    if n == 0:
        raise EmptyWindow("cannot estimate a threshold from an empty window")
    if n < MIN_WINDOW_SCORES:
        return ThresholdEstimate(tau=1.0, objective=None, degenerate=True)

    scores = np.sort(window.values())
    # Candidate g leaves a score on each side when scores[0] <= g < scores[-1],
    # so the valid candidates are one run of the grid, start..stop-1.
    start = bisect_left(_GRID, scores[0])
    stop = bisect_left(_GRID, scores[-1])
    if clamp_range is not None:
        lo, hi = clamp_range
        start = max(start, bisect_left(_GRID, lo - 1e-12))
        stop = min(stop, bisect_right(_GRID, hi + 1e-12))
    if start >= stop:
        return ThresholdEstimate(tau=1.0, objective=None, degenerate=True)

    csum = np.cumsum(scores)
    csq = np.cumsum(scores * scores)
    k = scores.searchsorted(THRESHOLD_GRID[start:stop], side="right")  # 1..n-1 below
    below = k - 1
    n_lo = k.astype(float)
    n_hi = (n - k).astype(float)
    var_lo = np.maximum(csq[below] / n_lo - (csum[below] / n_lo) ** 2, 0.0)
    var_hi = np.maximum(
        (csq[-1] - csq[below]) / n_hi - ((csum[-1] - csum[below]) / n_hi) ** 2, 0.0
    )
    objective = var_lo + var_hi

    best = int(objective.argmin())  # argmin takes the first (smallest) candidate
    return ThresholdEstimate(
        tau=_GRID[start + best],
        objective=float(objective[best]),
        degenerate=False,
    )
