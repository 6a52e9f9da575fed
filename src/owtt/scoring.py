"""Strong-OOD scoring, the rolling score window, and adaptive thresholding.

Scores are one minus the best cosine similarity to a prototype set. The
rejection threshold is re-estimated from a rolling window of recent scores
by exhaustively searching a fixed grid for the split that minimizes the
total intra-cluster variance of the two resulting score groups.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigError, EmptyPrototypeSet, InvalidSpec, NonFiniteInput

# Candidate thresholds: 0.00, 0.01, ..., 1.00.
THRESHOLD_GRID = np.arange(101) / 100.0
_GRID = tuple(THRESHOLD_GRID.tolist())

# Below this many stored scores the two-cluster objective is noise, so the
# estimator reports a degenerate threshold (reject nothing).
MIN_WINDOW_SCORES = 8

# Number of top novel-prototype similarities averaged by the discrete-mode
# score variant.
TOP_M = 10


@dataclass
class ThresholdEstimate:
    """Result of one grid search over the score window."""

    tau: float
    degenerate: bool


@lru_cache(maxsize=64)
def row_indices(n: int) -> np.ndarray:
    """``np.arange(n)`` as a read-only array, for row-wise gathers. Kept for the
    64 lengths last used: on the default world a batch and the subsets that
    self-training gathers from take about 33 lengths over a run."""
    rows = np.arange(n)
    rows.flags.writeable = False
    return rows


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
            raise ConfigError(f"window capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._scores = np.empty(0)

    @property
    def count(self) -> int:
        return self._scores.size

    def push(self, scores: Sequence[float]) -> "ScoreWindow":
        """Append scores (oldest evicted at capacity); finite values clamp to [0, 1].

        Scores not 1-D (a scalar too) raise InvalidSpec, and a NaN or inf score
        NonFiniteInput naming its position, both before the window changes.
        """
        scores = np.asarray(scores, dtype=float)
        if scores.ndim != 1:
            raise InvalidSpec(f"scores must be 1-D, got shape {scores.shape}")
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


def batch_ood_scores(similarities: np.ndarray, nearest=None) -> np.ndarray:
    """Strong-OOD scores from a batch's cosine similarities to prototype rows,
    ``features @ prototypes.T`` for unit-norm features, one column per prototype;
    each row maximum is read at its argmax, ``nearest`` when the caller has it."""
    if similarities.shape[1] == 0:
        raise EmptyPrototypeSet("no prototypes")
    nearest = similarities.argmax(axis=1) if nearest is None else nearest
    return 1.0 - similarities[row_indices(len(nearest)), nearest]


def batch_discrete_scores(
    source_similarities: np.ndarray, novel_similarities: np.ndarray, nearest: np.ndarray
) -> np.ndarray:
    """Score variant weighing source affinity against mean top-m novel affinity,
    from a batch's similarities to the source and to the novel prototypes.

    With s the similarity to the best source prototype, read at ``nearest``
    (the row argmax of the source similarities), and u the mean of the top-m
    (m = TOP_M) similarities to novel prototypes, the score is
    (1-s)*s/(s+u) + u*u/(s+u), or 0.5 where s+u < 1e-12 (no evidence either
    way); the plain score while the novel pool is empty. The mean runs over
    all novel prototypes when fewer than m, summed in descending order.
    """
    if source_similarities.shape[1] == 0:
        raise EmptyPrototypeSet("no source prototypes")
    best_source = source_similarities[row_indices(len(nearest)), nearest]
    m = min(TOP_M, novel_similarities.shape[1])
    if m == 0:
        return 1.0 - best_source
    top = np.sort(novel_similarities, axis=1)[:, : -m - 1 : -1]
    total_u = top[:, 0].copy()
    for j in range(1, m):
        total_u += top[:, j]
    s_s = np.clip(best_source, 0.0, 1.0)
    s_u = np.clip(total_u / m, 0.0, 1.0)
    total = s_s + s_u
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = (1.0 - s_s) * s_s / total + s_u * s_u / total
    return np.where(total < 1e-12, 0.5, scores)


def adaptive_threshold(window: ScoreWindow, floor: float = 0.0) -> ThresholdEstimate:
    """Grid-search the split threshold minimizing total intra-cluster variance.

    Every candidate on the 0.00..1.00 grid at or above ``floor`` (within
    1e-12) that leaves at least one score on each side is scored; ties break
    toward the smallest candidate. When no candidate is valid (single-mode
    window, too few scores, or every candidate below the floor) the estimate
    is degenerate with tau = 1.0; an empty window is one with too few scores.
    """
    n = window.count
    if n < MIN_WINDOW_SCORES:
        return ThresholdEstimate(tau=1.0, degenerate=True)

    scores = np.sort(window._scores)
    # Candidate g leaves a score on each side when scores[0] <= g < scores[-1],
    # so the valid candidates at or above the floor are one run of the grid,
    # start..stop-1.
    start = max(bisect_left(_GRID, scores[0]), bisect_left(_GRID, floor - 1e-12))
    stop = bisect_left(_GRID, scores[-1])
    if start >= stop:
        return ThresholdEstimate(tau=1.0, degenerate=True)

    csum = scores.cumsum()
    csq = (scores * scores).cumsum()
    k = scores.searchsorted(THRESHOLD_GRID[start:stop], side="right")  # 1..n-1 below
    below = k - 1
    n_lo, n_hi = k, n - k
    sum_lo, sq_lo = csum[below], csq[below]
    var_lo = np.maximum(sq_lo / n_lo - (sum_lo / n_lo) ** 2, 0.0)
    var_hi = np.maximum((csq[-1] - sq_lo) / n_hi - ((csum[-1] - sum_lo) / n_hi) ** 2, 0.0)
    objective = var_lo + var_hi

    best = int(objective.argmin())  # argmin takes the first (smallest) candidate
    return ThresholdEstimate(tau=_GRID[start + best], degenerate=False)
