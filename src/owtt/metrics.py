"""Open-set evaluation: known-class accuracy, rejection accuracy, harmonic mean.

Hidden labels below the known-class count mark weak-OOD samples (to be
classified); labels at or above it mark strong-OOD samples (to be
rejected). Absent populations report None rather than 0 so a clean stream
is distinguishable from a detector that rejected nothing.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import EmptyRecords, MissingPopulation

# Sentinel predicted label for samples rejected as strong OOD.
REJECT = -1

# Most samples cumulative_accuracies counts in one pass. A pass holds up to about
# 30 bytes per sample (the concatenated labels, their flags, the positions of one
# flag), so a run of any length peaks at about 0.5 MB in it; a benchmark stream
# of 12,800 samples is one pass.
PASS_SAMPLES = 2**14


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


def _outcome_flags(predicted: np.ndarray, hidden: np.ndarray, num_known: int):
    """Per sample: weak; weak and classified correctly; strong and rejected."""
    weak = hidden < num_known
    return weak, weak & (predicted == hidden), ~weak & (predicted == REJECT)


class RunningMetrics:
    """Cumulative counters over a stream of (predicted, hidden) label arrays."""

    def __init__(self, num_known: int):
        self.num_known = num_known
        self.n_weak = 0
        self.n_weak_correct = 0
        self.n_strong = 0
        self.n_strong_rejected = 0

    def update(self, predicted: np.ndarray, hidden: np.ndarray) -> None:
        weak, correct, rejected = _outcome_flags(predicted, hidden, self.num_known)
        n_weak = int(np.count_nonzero(weak))
        self.n_weak += n_weak
        self.n_weak_correct += int(np.count_nonzero(correct))
        self.n_strong += weak.size - n_weak
        self.n_strong_rejected += int(np.count_nonzero(rejected))

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


def cumulative_accuracies(
    predicted: Sequence[np.ndarray], hidden: Sequence[np.ndarray], num_known: int
) -> Tuple[List[Tuple[Optional[float], Optional[float], Optional[float]]], MetricsReport]:
    """(the snapshot after each batch, the whole-stream report) of a
    RunningMetrics updated batch by batch with these label arrays, bit for bit.

    The labels of up to PASS_SAMPLES samples at a time are concatenated, and
    each count is read at every batch's end offset by a binary search of the
    flagged positions, so a batch of no rows needs no case of its own. No
    samples at all raise EmptyRecords.
    """
    offsets = np.cumsum([0, *map(len, hidden)])  # batch t spans offsets[t]:offsets[t + 1]
    if not offsets[-1]:
        raise EmptyRecords("no prediction records")
    counts = np.zeros((3, offsets.size), np.int64)  # column t: the counts before batch t
    first = 0
    while first < len(hidden):
        start = offsets[first]
        last = max(first + 1, int(offsets.searchsorted(start + PASS_SAMPLES, "right")) - 1)
        flags = _outcome_flags(np.concatenate(predicted[first:last]),
                               np.concatenate(hidden[first:last]), num_known)
        ends = offsets[first + 1:last + 1] - start
        for count, flag in zip(counts, flags):  # the flagged samples before each end
            count[first + 1:last + 1] = np.flatnonzero(flag).searchsorted(ends) + count[first]
        first = last
    n_weak, n_correct, n_rejected = counts[:, 1:]
    n_strong = offsets[1:] - n_weak
    with np.errstate(divide="ignore", invalid="ignore"):  # absent populations read None
        acc_s, acc_n = n_correct / n_weak, n_rejected / n_strong
        total = acc_s + acc_n
        acc_h = np.where(total > 0.0, 2.0 * acc_s * acc_n / total, 0.0)  # harmonic_mean
    columns = (acc_s, acc_n, acc_h, n_weak, n_strong)
    rows = [(s if w else None, n if r else None, h if w and r else None)
            for s, n, h, w, r in zip(*(column.tolist() for column in columns))]
    return rows, MetricsReport(*rows[-1], n_weak=int(n_weak[-1]), n_strong=int(n_strong[-1]))


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
