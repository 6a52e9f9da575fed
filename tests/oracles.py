"""Independent brute-force oracles used to cross-check the implementation.

Everything here is written definitionally (plain loops, direct formulas)
and deliberately shares no code path with the package.
"""
import math
from types import SimpleNamespace

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


def sorted_cumsum_threshold(scores, clamp_range=None, min_scores=8):
    """The sort-and-cumsum threshold search scored over all 101 candidates.

    The threshold estimator's former body, kept verbatim: every grid point
    is evaluated and invalid ones are masked to inf, where the package
    bisects the run of valid candidates. ``scores`` are the window's
    (already clamped) values. Returns (tau, objective, degenerate).
    """
    grid = np.arange(101) / 100.0
    n = len(scores)
    if n < min_scores:
        return 1.0, None, True

    scores = np.sort(np.asarray(scores, dtype=float))
    csum = np.concatenate(([0.0], np.cumsum(scores)))
    csq = np.concatenate(([0.0], np.cumsum(scores * scores)))

    k = np.searchsorted(scores, grid, side="right")  # lower-side counts
    valid = (k >= 1) & (k <= n - 1)
    if clamp_range is not None:
        lo, hi = clamp_range
        valid &= (grid >= lo - 1e-12) & (grid <= hi + 1e-12)
    if not np.any(valid):
        return 1.0, None, True

    k_safe = np.clip(k, 1, n - 1)
    n_lo = k_safe.astype(float)
    n_hi = (n - k_safe).astype(float)
    var_lo = np.maximum(csq[k_safe] / n_lo - (csum[k_safe] / n_lo) ** 2, 0.0)
    var_hi = np.maximum(
        (csq[n] - csq[k_safe]) / n_hi - ((csum[n] - csum[k_safe]) / n_hi) ** 2, 0.0
    )
    objective = np.where(valid, var_lo + var_hi, np.inf)

    best = int(np.argmin(objective))  # argmin takes the first (smallest) candidate
    return float(grid[best]), float(objective[best]), False


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


def embed(values, weight):
    """One raw input vector mapped through weight and scaled to unit norm."""
    raw = [sum(w * v for w, v in zip(row, values)) for row in weight]
    norm = math.sqrt(sum(r * r for r in raw))
    return np.array([r / norm for r in raw])


def cumulative_trace(records, num_known):
    """Per-batch (batch, acc_s, acc_n, acc_h) rows, each a recount of every
    record up to and including that batch."""
    batches = sorted({r.timestamp for r in records})
    return [
        (t, *recount_metrics([r for r in records if r.timestamp <= t], num_known))
        for t in batches
    ]


def discrete_scores(source_sims, novel_sims, top_m):
    """Discrete-mode scores, one row of similarities at a time.

    source_sims and novel_sims hold each feature's similarities to the
    source and novel prototypes (one row per feature). With s the best
    source similarity and u the mean of the top-m novel similarities, summed
    in descending order and each clamped to [0, 1], the score is
    (1-s)*s/(s+u) + u*u/(s+u), or 0.5 when s+u < 1e-12; with no novel
    prototypes it is one minus the unclamped best source similarity.
    """
    scores = []
    for source_row, novel_row in zip(source_sims.tolist(), novel_sims.tolist()):
        best = max(source_row)
        if not novel_row:
            scores.append(1.0 - best)
            continue
        top = sorted(novel_row, reverse=True)[:top_m]
        total_u = 0.0
        for sim in top:
            total_u += sim
        s = min(max(best, 0.0), 1.0)
        u = min(max(total_u / len(top), 0.0), 1.0)
        total = s + u
        if total < 1e-12:
            scores.append(0.5)
        else:
            scores.append((1.0 - s) * s / total + u * u / total)
    return np.array(scores)


def fifo_window(pushes, capacity):
    """Scores kept by a capacity-bounded FIFO after the given pushes, oldest
    first, each clamped to [0, 1]."""
    kept = []
    for push in pushes:
        for score in push:
            kept.append(min(max(score, 0.0), 1.0))
            if len(kept) > capacity:
                kept.pop(0)
    return kept


# --- unfused objectives ----------------------------------------------------------
#
# The clustering and KL objectives as they were before the loss and its
# gradient shared one pass: each value and each gradient is computed on its
# own, with the same array operations in the same order as the package uses
# for the gradients, so that the package's gradients must equal these
# exactly and its losses agree to round-off.

COV_EPS = 1e-4


def _logsumexp_rows(rows):
    peak = rows.max(axis=1, keepdims=True)
    return (peak + np.log(np.sum(np.exp(rows - peak), axis=1, keepdims=True)))[:, 0]


def _chain_to_weight(grad_features, features, weight, raw):
    """Per-feature gradients through unit normalization to the weight."""
    norms = np.linalg.norm(raw @ weight.T, axis=1)
    radial = np.sum(features * grad_features, axis=1, keepdims=True)
    return ((grad_features - features * radial) / norms[:, None]).T @ raw


def unfused_clustering_loss(features, labels, source, novel, temperature):
    """Mean softmax NLL from one whole-batch product with the source rows.

    Labels below len(source) pick a source row from a softmax over the
    source rows; a label k_s + j picks novel row j from a softmax over the
    source rows plus that one row.
    """
    n = features.shape[0]
    if n == 0:
        return 0.0
    labels = np.asarray(labels, dtype=int)
    k_s = source.shape[0]
    logits = features @ source.T / temperature
    total = 0.0
    src = labels < k_s
    if np.any(src):
        rows = logits[src]
        total += float(np.sum(_logsumexp_rows(rows) - rows[np.arange(rows.shape[0]), labels[src]]))
    if np.any(~src):
        own = np.sum(features[~src] * novel[labels[~src] - k_s], axis=1) / temperature
        rows = np.hstack([logits[~src], own[:, None]])
        total += float(np.sum(_logsumexp_rows(rows) - own))
    return total / n


def unfused_clustering_gradient(features, labels, source, novel, temperature, weight, raw):
    """Gradient of unfused_clustering_loss with respect to the adapter weight,
    each label subset taking its own product with the source rows."""
    n = features.shape[0]
    if n == 0:
        return np.zeros_like(weight)
    labels = np.asarray(labels, dtype=int)
    k_s = source.shape[0]
    grad = np.zeros_like(features)
    src = labels < k_s
    if np.any(src):
        rows = features[src] @ source.T / temperature
        soft = np.exp(rows - _logsumexp_rows(rows)[:, None])
        soft[np.arange(soft.shape[0]), labels[src]] -= 1.0
        grad[src] = soft @ source / temperature
    if np.any(~src):
        own_rows = novel[labels[~src] - k_s]
        rows = features[~src] @ source.T / temperature
        own = np.sum(features[~src] * own_rows, axis=1) / temperature
        rows = np.hstack([rows, own[:, None]])
        soft = np.exp(rows - _logsumexp_rows(rows)[:, None])
        soft[:, -1] -= 1.0
        grad[~src] = (soft[:, :-1] @ source + soft[:, -1:] * own_rows) / temperature
    grad /= n
    return _chain_to_weight(grad, features, weight, raw)


def unfused_kl_divergence(source, target):
    """KL(source || target) of two Gaussians given as objects with mean and
    covariance, each covariance plus COV_EPS on the diagonal; two Cholesky
    factorizations for the log-determinants, two solves for the trace and
    Mahalanobis terms, and small negative results clamped to 0. Raises
    numpy's LinAlgError for a covariance that is not positive-definite."""
    dim = source.mean.shape[0]
    reg_s = source.covariance + COV_EPS * np.eye(dim)
    reg_t = target.covariance + COV_EPS * np.eye(dim)
    logdet_s = 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(reg_s)))))
    logdet_t = 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(reg_t)))))
    trace_term = float(np.trace(np.linalg.solve(reg_t, reg_s)))
    delta = source.mean - target.mean
    mahal = float(delta @ np.linalg.solve(reg_t, delta))
    return max(0.5 * (trace_term + mahal - dim + logdet_t - logdet_s), 0.0)


def unfused_kl_gradient(source, target, batch, weight, raw):
    """Gradient of unfused_kl_divergence with respect to the adapter weight,
    through the batch's share target.last_blend of the target mean and
    covariance only."""
    n = batch.shape[0]
    if n == 0 or target.last_blend == 0.0:
        return np.zeros_like(weight)
    dim = source.mean.shape[0]
    reg_s = source.covariance + COV_EPS * np.eye(dim)
    reg_t = target.covariance + COV_EPS * np.eye(dim)
    np.linalg.cholesky(reg_t)  # raises unless positive-definite
    t_inv = np.linalg.inv(reg_t)
    delta = source.mean - target.mean
    grad_mean = t_inv @ (target.mean - source.mean)
    grad_cov = 0.5 * (t_inv - t_inv @ reg_s @ t_inv - t_inv @ np.outer(delta, delta) @ t_inv)
    grad = np.tile(grad_mean / n, (n, 1))
    if n > 1:
        grad = grad + (2.0 / (n - 1)) * (batch - batch.mean(axis=0)) @ grad_cov
    grad *= target.last_blend
    return _chain_to_weight(grad, batch, weight, raw)


# --- whole-engine reference ------------------------------------------------------
#
# One run composed from the oracles above, stage by stage in the engine's
# order. Matrix products and reductions are written as the package writes
# them, so that every decision, pool row and weight must match it exactly.

# The threshold when detection is off, and the default expansion clamp.
NO_REJECT_TAU = 1.0 + 1e-6
EXPANSION_CLAMP = (0.4, 1.0)
TOP_M = 10


def _unit_rows(values, weight):
    raw = values @ weight.T
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _moments(rows, ddof):
    mean = rows.mean(axis=0)
    centered = rows - mean
    n = rows.shape[0]
    if n - ddof > 0:
        cov = centered.T @ centered / (n - ddof)
    else:
        cov = np.zeros((rows.shape[1], rows.shape[1]))
    return mean, cov


def reference_run(config, source_values, source_labels, num_known, stream, weight):
    """Engine.run rebuilt from the oracles, one batch at a time.

    ``config`` is a RunConfig, read field by field; ``weight`` the adapter's
    initial weight. Per batch: score against the source rows (or the
    discrete score), push the plain window, take tau (fixed, NO_REJECT_TAU
    with detection off, or the brute-force split) and predict; then expand
    (brute_force_expand on its own window), refresh the novel rows with each
    rejected row in turn, take the clustering gradient over the
    ceil(keep_ratio * n) samples farthest from tau, labelled by the nearest
    row of the whole pool, blend the accepted rows into the target
    statistics (plain EMA) and add lam times the alignment gradient once
    the target holds 2 * feature_dim rows; last, one momentum step.

    Returns a namespace of per-batch ``predicted``, ``scores``, ``taus`` and
    ``added`` (admissions), and the final ``pool`` (a ListPool) and ``weight``.
    """
    features = _unit_rows(np.asarray(source_values, dtype=float), weight)
    labels = np.asarray(source_labels)
    protos = []
    for k in range(num_known):
        mean = features[labels == k].mean(axis=0)
        protos.append(mean / np.linalg.norm(mean))
    pool = ListPool(protos, config.novel_capacity)
    source_mean, source_cov = _moments(features, 0)
    source = SimpleNamespace(mean=source_mean, covariance=0.5 * (source_cov + source_cov.T))
    target, target_count = None, 0
    plain, extended = [], []
    buffer = np.zeros_like(weight)
    out = SimpleNamespace(predicted=[], scores=[], taus=[], added=[])

    for batch in stream:
        values = batch.values
        features = _unit_rows(values, weight)
        source_rows = np.array(pool.source)
        source_sims = features @ source_rows.T
        if config.discrete_mode:
            novel_rows = np.array(pool.novel).reshape(len(pool.novel), features.shape[1])
            raw = discrete_scores(source_sims, features @ novel_rows.T, TOP_M)
        else:
            raw = 1.0 - source_sims.max(axis=1)
        scores = np.clip(raw, 0.0, 1.0)
        plain[:] = fifo_window([plain, scores], config.window_length)
        fixed = config.fixed_threshold if config.enable_ood_detection else NO_REJECT_TAU
        if fixed is None:
            tau = brute_force_threshold(plain, config.threshold_clamp)[0]
        else:
            tau = fixed
        predicted = np.where(scores < tau, source_sims.argmax(axis=1), REJECT)

        added = 0
        if config.enable_expansion:
            added = brute_force_expand(
                pool, features, extended, config.window_length,
                config.threshold_clamp or EXPANSION_CLAMP, config.fixed_threshold,
            )
        if config.novel_momentum is not None and pool.novel:
            for row in features[predicted == REJECT]:
                list_momentum_update(pool, row, config.novel_momentum)

        gradient = np.zeros_like(weight)
        if config.enable_clustering:
            count = math.ceil(config.keep_ratio * len(scores))
            farthest = sorted(range(len(scores)), key=lambda i: -abs(scores[i] - tau))
            chosen = sorted(farthest[:count])
            confident = features[chosen]
            pseudo = (confident @ pool.matrix().T).argmax(axis=1)
            gradient += unfused_clustering_gradient(
                confident, pseudo, source_rows, np.array(pool.novel), config.temperature,
                weight, values[chosen],
            )
        if config.enable_alignment:
            weak = predicted != REJECT
            if weak.any():
                batch_mean, batch_cov = _moments(features[weak], 1)
                if target is None:
                    mean, cov, blend = batch_mean, batch_cov, 1.0
                else:
                    keep = 1.0 - config.beta
                    mean = keep * target.mean + config.beta * batch_mean
                    cov = keep * target.covariance + config.beta * batch_cov
                    blend = config.beta
                target = SimpleNamespace(
                    mean=mean, covariance=0.5 * (cov + cov.T), last_blend=blend
                )
                target_count += int(weak.sum())
                if target_count >= 2 * config.feature_dim:
                    gradient += config.lam * unfused_kl_gradient(
                        source, target, features[weak], weight, values[weak]
                    )
        if config.enable_clustering or config.enable_alignment:
            buffer = config.momentum_coeff * buffer + gradient
            weight = weight - config.learning_rate * buffer

        out.predicted.append(predicted)
        out.scores.append(scores)
        out.taus.append(tau)
        out.added.append(added)
    out.pool, out.weight = pool, weight
    return out
