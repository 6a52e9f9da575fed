"""Open-set evaluation: known-class accuracy, rejection accuracy, harmonic mean.

Hidden labels below the known-class count mark weak-OOD samples (to be
classified); labels at or above it mark strong-OOD samples (to be
rejected). Absent populations report None rather than 0 so a clean stream
is distinguishable from a detector that rejected nothing.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import EmptyRecords, MissingPopulation

# Sentinel predicted label for samples rejected as strong OOD.
REJECT = -1


@dataclass
class MetricsReport:
    acc_s: Optional[float]
    acc_n: Optional[float]
    acc_h: Optional[float]
    n_weak: int
    n_strong: int


def harmonic_mean(acc_s: float, acc_n: float) -> float:
    if acc_s + acc_n <= 0.0:
        return 0.0
    return 2.0 * acc_s * acc_n / (acc_s + acc_n)


class RunningMetrics:
    """Cumulative counters over a stream of (predicted, hidden) label arrays."""

    def __init__(self, num_known: int):
        self.num_known = num_known
        self.n_weak = 0
        self.n_weak_correct = 0
        self.n_strong = 0
        self.n_strong_rejected = 0

    def update(self, predicted: np.ndarray, hidden: np.ndarray) -> None:
        weak = hidden < self.num_known
        n_weak = int(np.count_nonzero(weak))
        self.n_weak += n_weak
        self.n_weak_correct += int(np.count_nonzero(weak & (predicted == hidden)))
        self.n_strong += weak.size - n_weak
        self.n_strong_rejected += int(np.count_nonzero(~weak & (predicted == REJECT)))

    def snapshot(self) -> Tuple[Optional[float], Optional[float], Optional[float]]:
        acc_s = self.n_weak_correct / self.n_weak if self.n_weak else None
        acc_n = self.n_strong_rejected / self.n_strong if self.n_strong else None
        acc_h = None if acc_s is None or acc_n is None else harmonic_mean(acc_s, acc_n)
        return acc_s, acc_n, acc_h

    def report(self) -> MetricsReport:
        """Whole-stream accuracies and population sizes of everything counted."""
        if self.n_weak + self.n_strong == 0:
            raise EmptyRecords("no prediction records")
        return MetricsReport(*self.snapshot(), n_weak=self.n_weak, n_strong=self.n_strong)


def compute_metrics(records: Sequence, num_known: int) -> MetricsReport:
    """Whole-run accuracies recounted from a prediction log."""
    running = RunningMetrics(num_known)
    running.update(
        np.array([r.predicted_label for r in records]),
        np.array([r.hidden_label for r in records]),
    )
    return running.report()


def score_separation(scores: np.ndarray, hidden: np.ndarray,
                     num_known: int) -> Tuple[float, float, float]:
    """Mean scores of the weak and strong populations and their gap (strong - weak)."""
    if not len(scores):
        raise EmptyRecords("no prediction records")
    weak, strong = scores[hidden < num_known], scores[hidden >= num_known]
    if not weak.size or not strong.size:
        raise MissingPopulation("need both weak and strong samples")
    mean_weak, mean_strong = float(np.mean(weak)), float(np.mean(strong))
    return mean_weak, mean_strong, mean_strong - mean_weak


def score_histogram(scores: np.ndarray, hidden: np.ndarray, num_known: int, bins: int = 64):
    """Score histograms over [0, 1] split by hidden population.

    Returns (edges, weak_counts, strong_counts); edges has bins + 1 entries.
    """
    if not len(scores):
        raise EmptyRecords("no prediction records")
    edges = np.linspace(0.0, 1.0, bins + 1)
    weak_counts, _ = np.histogram(scores[hidden < num_known], bins=edges)
    strong_counts, _ = np.histogram(scores[hidden >= num_known], bins=edges)
    return edges, weak_counts, strong_counts
