"""Independent brute-force oracles used to cross-check the implementation.

Everything here is written definitionally (plain loops, direct formulas)
and deliberately shares no code path with the package.
"""
import math

import numpy as np

REJECT = -1


def brute_force_threshold(scores, clamp_range=None, min_scores=8):
    """Exhaustive 101-candidate search for the minimum-variance split.

    Returns (tau, objective, degenerate); ties resolved toward the smallest
    candidate by visiting candidates in ascending order with a strict
    improvement test.
    """
    scores = list(scores)
    if len(scores) < min_scores:
        return 1.0, None, True
    best_tau, best_obj = None, None
    for step in range(101):
        tau = step / 100.0
        if clamp_range is not None and not (clamp_range[0] <= tau <= clamp_range[1]):
            continue
        upper = [s for s in scores if s > tau]
        lower = [s for s in scores if s <= tau]
        if not upper or not lower:
            continue
        mean_up = sum(upper) / len(upper)
        mean_lo = sum(lower) / len(lower)
        obj = sum((s - mean_up) ** 2 for s in upper) / len(upper) + sum(
            (s - mean_lo) ** 2 for s in lower
        ) / len(lower)
        if best_obj is None or obj < best_obj:
            best_obj, best_tau = obj, tau
    if best_tau is None:
        return 1.0, None, True
    return best_tau, best_obj, False


def grid_split_minimizer(scores, clamp_range=None, min_scores=8):
    """Exhaustive grid minimizer via direct masked means (no sorting).

    Same definitional objective as brute_force_threshold, vectorized over
    the 101 candidates so large batches of windows stay fast. Returns
    (tau, degenerate).
    """
    scores = np.asarray(scores, dtype=float)
    n = scores.size
    if n < min_scores:
        return 1.0, True
    grid = np.arange(101) / 100.0
    upper_mask = scores[None, :] > grid[:, None]  # (101, n)
    n_up = upper_mask.sum(axis=1)
    n_lo = n - n_up
    valid = (n_up >= 1) & (n_lo >= 1)
    if clamp_range is not None:
        valid &= (grid >= clamp_range[0] - 1e-12) & (grid <= clamp_range[1] + 1e-12)
    if not valid.any():
        return 1.0, True
    with np.errstate(invalid="ignore", divide="ignore"):
        sum_up = (upper_mask * scores).sum(axis=1)
        sumsq_up = (upper_mask * scores**2).sum(axis=1)
        mean_up = sum_up / n_up
        var_up = sumsq_up / n_up - mean_up**2
        sum_lo = scores.sum() - sum_up
        sumsq_lo = (scores**2).sum() - sumsq_up
        mean_lo = sum_lo / n_lo
        var_lo = sumsq_lo / n_lo - mean_lo**2
        objective = np.where(valid, var_up + var_lo, np.inf)
    return float(grid[int(np.argmin(objective))]), False


def finite_difference_gradient(func, weight, step=1e-5):
    """Central finite differences of a scalar function of a weight matrix."""
    grad = np.zeros_like(weight)
    for i in range(weight.shape[0]):
        for j in range(weight.shape[1]):
            w_plus = weight.copy()
            w_plus[i, j] += step
            w_minus = weight.copy()
            w_minus[i, j] -= step
            grad[i, j] = (func(w_plus) - func(w_minus)) / (2.0 * step)
    return grad


def relative_error(analytic, reference):
    denom = max(np.linalg.norm(reference), 1e-12)
    return np.linalg.norm(analytic - reference) / denom


def recount_metrics(records, num_known):
    """Naive per-record recount of the open-set accuracies.

    Each record must expose predicted_label and hidden_label. Returns
    (acc_s, acc_n, acc_h) with None for an absent population.
    """
    weak_total = weak_correct = strong_total = strong_rejected = 0
    for rec in records:
        if rec.hidden_label < num_known:
            weak_total += 1
            if rec.predicted_label == rec.hidden_label:
                weak_correct += 1
        else:
            strong_total += 1
            if rec.predicted_label == REJECT:
                strong_rejected += 1
    acc_s = weak_correct / weak_total if weak_total else None
    acc_n = strong_rejected / strong_total if strong_total else None
    if acc_s is None or acc_n is None:
        acc_h = None
    elif acc_s + acc_n > 0:
        acc_h = 2 * acc_s * acc_n / (acc_s + acc_n)
    else:
        acc_h = 0.0
    return acc_s, acc_n, acc_h


def nearest_mean_accuracy(train_x, train_y, test_x, test_y, num_classes):
    """Classify by nearest class mean; returns accuracy."""
    means = [train_x[train_y == k].mean(axis=0) for k in range(num_classes)]
    correct = 0
    for x, y in zip(test_x, test_y):
        dists = [math.dist(x, m) for m in means]
        if int(np.argmin(dists)) == y:
            correct += 1
    return correct / len(test_x)


class ListPool:
    """Definitional prototype pool: source rows plus a Python list of novel
    rows, oldest first, evicting the oldest once the list exceeds capacity."""

    def __init__(self, source, capacity):
        self.source = [np.array(row, dtype=float) for row in source]
        self.novel = []
        self.capacity = capacity

    def push(self, row):
        self.novel.append(np.array(row, dtype=float))
        if len(self.novel) > self.capacity:
            self.novel.pop(0)

    def rows(self):
        return self.source + self.novel

    def matrix(self):
        return np.array(self.rows()).reshape(len(self.rows()), -1)


def list_ood_score(x, rows):
    """One minus the best similarity of x to any row, by a plain loop."""
    best = None
    for row in rows:
        sim = float(np.dot(row, x))
        if best is None or sim > best:
            best = sim
    return 1.0 - best


def brute_force_expand(pool, batch, window, window_capacity, clamp_range=None,
                       fixed_threshold=None):
    """Expansion on a ListPool, written out step by step.

    ``window`` is a list of scores, oldest first, updated in place. The
    batch's scores enter the window clamped to [0, 1]; tau is the fixed
    threshold or the brute-force split of the window. Candidates are visited
    in descending batch-entry score (ties in batch order) and the visit stops
    at the first score <= tau; each visited candidate is re-scored against
    the pool as it stands and pushed when the re-score exceeds tau. Returns
    the number pushed.
    """
    if len(batch) == 0:
        return 0
    initial = [list_ood_score(x, pool.rows()) for x in batch]
    for score in initial:
        window.append(min(max(score, 0.0), 1.0))
    del window[: max(len(window) - window_capacity, 0)]
    if fixed_threshold is not None:
        tau = fixed_threshold
    else:
        tau = brute_force_threshold(window, clamp_range)[0]
    added = 0
    for i in sorted(range(len(batch)), key=lambda j: -initial[j]):
        if initial[i] <= tau:
            break
        if list_ood_score(batch[i], pool.rows()) > tau:
            pool.push(batch[i])
            added += 1
    return added


def list_momentum_update(pool, feature, momentum):
    """Blend the first most similar novel row of a ListPool toward feature."""
    best = 0
    for i, row in enumerate(pool.novel):
        if float(np.dot(row, feature)) > float(np.dot(pool.novel[best], feature)):
            best = i
    blended = (1.0 - momentum) * pool.novel[best] + momentum * feature
    pool.novel[best] = blended / np.linalg.norm(blended)
