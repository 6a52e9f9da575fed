"""Independent brute-force oracles used to cross-check the implementation.

Everything here is written definitionally (plain loops, direct formulas)
and deliberately shares no code path with the package.
"""
import math
from fractions import Fraction
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


def place_means(rng, count, dim, radius, min_dist, exclude=(), exclude_dist=None,
                max_tries=20_000):
    """Random points on a sphere by a plain loop: each try is compared with every
    excluded vector and every point placed so far by its own ``np.linalg.norm``,
    the per-anchor test that ``datagen._place_means``'s one stacked product must
    match exactly. Returns None where ``max_tries`` tries placed fewer than
    ``count`` points (``_place_means`` raises there)."""
    if exclude_dist is None:
        exclude_dist = min_dist
    placed = []
    anchors = [(np.asarray(e), exclude_dist) for e in exclude]
    tries = 0
    while len(placed) < count:
        tries += 1
        if tries > max_tries:
            return None
        v = rng.standard_normal(dim)
        v *= radius / np.linalg.norm(v)
        if all(np.linalg.norm(v - q) >= dist for q, dist in anchors):
            placed.append(v)
            anchors.append((v, min_dist))
    return np.stack(placed)


def plane_by_plane_rotation(spec):
    """The world's rotation as a product of plane rotations, one full d x d
    matrix product per plane, from the same draws as
    ``datagen.rotation_matrix`` (seed sequence ``[seed, 3]``, 3 being the
    rotation's stream tag) and the same pairing of directions."""
    if spec.rotation_angle == 0.0:
        return np.eye(spec.d_in)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 3]))
    s, d = spec.signal_dims, spec.d_in

    signal_seed = np.zeros((d, s))
    signal_seed[:s, 0] = 1.0 / np.sqrt(s)  # anchor column, kept out of the planes
    signal_seed[:s, 1:] = rng.standard_normal((s, s - 1))
    signal_basis, _ = np.linalg.qr(signal_seed)
    spin_dirs = [signal_basis[:, i] for i in range(1, s)]

    if d > s:
        nuis_seed = np.zeros((d, d - s))
        nuis_seed[s:, :] = rng.standard_normal((d - s, d - s))
        nuis_basis, _ = np.linalg.qr(nuis_seed)
        nuis_basis[:s] = 0.0  # QR's rounding leak into the signal rows
        partners = [nuis_basis[:, i] for i in range(d - s)]
    else:
        half = len(spin_dirs) // 2
        partners = spin_dirs[half : 2 * half]
        spin_dirs = spin_dirs[:half]

    rotation = np.eye(d)
    angle = float(spec.rotation_angle)  # a float field may hold an int past int64
    cos_t, sin_t = np.cos(angle), np.sin(angle)
    for u, v in zip(spin_dirs, partners):
        plane = (
            (cos_t - 1.0) * (np.outer(u, u) + np.outer(v, v))
            + sin_t * (np.outer(v, u) - np.outer(u, v))
        )
        rotation = (np.eye(d) + plane) @ rotation
    return rotation


def _apply_shift(values, rotation, bias, noise_std, rng):
    shifted = values @ rotation.T + bias
    if noise_std > 0.0:
        shifted = shifted + noise_std * rng.standard_normal(values.shape)
    return shifted


def stacked_batch(spec, t, source, means, rotation, bias):
    """One stream batch as (values, labels), drawn the way ``datagen._batch``
    drew it before it wrote into one array: each block out of place, then
    ``np.vstack`` and ``np.concatenate``. The body is that draw's, with the
    seed sequence ``[seed, 6, t]`` (6 being the batch's stream tag), the
    strong:weak counts and the common offset written out. ``source``,
    ``means``, ``rotation`` and ``bias`` are the world's constants."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 6, t]))
    n_strong = int(round(spec.batch_size * spec.ratio / (1.0 + spec.ratio)))
    n_strong = min(max(n_strong, 1), spec.batch_size - 1)
    n_weak = spec.batch_size - n_strong

    weak_labels = rng.integers(0, spec.k_s, size=n_weak)
    weak_raw = source[weak_labels] + spec.within_std * rng.standard_normal(
        (n_weak, spec.d_in)
    )
    weak_values = _apply_shift(weak_raw, rotation, bias, spec.noise_std, rng)

    if spec.strong_mode == "uniform_noise":
        offset = np.zeros(spec.d_in)
        offset[: spec.signal_dims] = 1.0 / np.sqrt(spec.signal_dims)
        offset = spec.offset_scale * spec.class_sep * offset
        strong_values = offset + rng.uniform(
            -spec.class_sep, spec.class_sep, size=(n_strong, spec.d_in)
        )
        strong_labels = np.full(n_strong, spec.k_s)
    else:
        picks = rng.integers(0, spec.k_t, size=n_strong)
        strong_values = means[picks] + spec.within_std * rng.standard_normal(
            (n_strong, spec.d_in)
        )
        strong_labels = spec.k_s + picks

    values = np.vstack([weak_values, strong_values])
    labels = np.concatenate([weak_labels, strong_labels])
    order = rng.permutation(spec.batch_size)
    return values[order], labels[order]


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


def putmask_admissions(close, cap):
    """The admission loop ``expand`` ran before its bitset scan, kept verbatim:
    one Python iteration per candidate, the newest close admission ordinal of
    each candidate kept in an array. Returns the admitted candidate indices."""
    count = len(close)
    latest = np.full(count, -cap - 1)  # newest admission ordinal close to each candidate
    admitted = []
    for i in range(count):
        if latest[i] < len(admitted) - cap:  # no close admission is still live
            np.putmask(latest, close[i], len(admitted))
            admitted.append(i)
    return admitted


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


def scan_first_embed_error(values, weight, norm_eps=1e-12):
    """(error type name, message) that mapping the rows of ``values`` through
    ``weight`` to unit norm must raise, or None, found in the order the checks
    once ran: every input scanned for a NaN or inf first, then the norms (an
    overflowing norm before one below ``norm_eps``)."""
    for i, row in enumerate(values):
        if not all(math.isfinite(v) for v in row):
            return "NonFiniteInput", f"input row {i} holds a NaN or inf value"
    norms = []
    for row in values:
        raw = [sum(w * v for w, v in zip(weight_row, row)) for weight_row in weight]
        norms.append(math.sqrt(sum(r * r for r in raw)))
    for i, norm in enumerate(norms):
        if not math.isfinite(norm):
            return "NonFiniteInput", f"input row {i} overflows: its embedding norm is {norm}"
    if norms and min(norms) < norm_eps:
        i = norms.index(min(norms))
        return ("DegenerateEmbedding",
                f"embedding norm {norms[i]:.3e} below {norm_eps:.0e} at row {i}")
    return None


def scan_first_step_error(weight, buffer, gradient, learning_rate, momentum):
    """(error type name, message) that one classical-momentum step must
    raise, or None, found in the order the checks once ran: the gradient
    scanned for a NaN or inf first, then the stepped weight's squared norm."""
    flat = [g for row in gradient for g in row]
    if not all(math.isfinite(g) for g in flat):
        return "NonFiniteGradient", "gradient contains NaN or inf entries"
    squared = 0.0
    for w_row, b_row, g_row in zip(weight, buffer, gradient):
        for w, b, g in zip(w_row, b_row, g_row):
            stepped = w - learning_rate * (momentum * b + g)
            squared += stepped * stepped
    if not math.isfinite(squared):
        return ("NonFiniteGradient",
                f"the step leaves the weight's squared norm at {squared}: lower learning_rate")
    return None


def cumulative_trace(columns, num_known):
    """Per-batch (batch, acc_s, acc_n, acc_h) rows from prediction columns (the
    ``batch``, ``predicted`` and ``hidden`` arrays, one entry per sample), each a
    recount of every sample up to and including that batch."""
    samples = [
        SimpleNamespace(batch=t, predicted_label=p, hidden_label=h)
        for t, p, h in zip(*(columns[key].tolist() for key in ("batch", "predicted", "hidden")))
    ]
    return [
        (t, *recount_metrics([s for s in samples if s.batch <= t], num_known))
        for t in sorted({s.batch for s in samples})
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


def subset_clustering_objective(features, labels, source, novel, temperature):
    """(unfused_clustering_loss, its gradient per feature row), each label
    subset taking its own product with the source rows."""
    n = features.shape[0]
    if n == 0:
        return 0.0, np.zeros_like(features)
    labels = np.asarray(labels, dtype=int)
    k_s = source.shape[0]
    total = 0.0
    grad = np.zeros_like(features)
    src = labels < k_s
    if np.any(src):
        rows = features[src] @ source.T / temperature
        lse = _logsumexp_rows(rows)
        total += float(np.sum(lse - rows[np.arange(rows.shape[0]), labels[src]]))
        soft = np.exp(rows - lse[:, None])
        soft[np.arange(soft.shape[0]), labels[src]] -= 1.0
        grad[src] = soft @ source / temperature
    if np.any(~src):
        own_rows = novel[labels[~src] - k_s]
        rows = features[~src] @ source.T / temperature
        own = np.sum(features[~src] * own_rows, axis=1) / temperature
        rows = np.hstack([rows, own[:, None]])
        lse = _logsumexp_rows(rows)
        total += float(np.sum(lse - own))
        soft = np.exp(rows - lse[:, None])
        soft[:, -1] -= 1.0
        grad[~src] = (soft[:, :-1] @ source + soft[:, -1:] * own_rows) / temperature
    grad /= n
    return total / n, grad


def unfused_clustering_gradient(features, labels, source, novel, temperature, weight, raw):
    """Gradient of unfused_clustering_loss with respect to the adapter weight,
    each label subset taking its own product with the source rows."""
    if features.shape[0] == 0:
        return np.zeros_like(weight)
    grad = subset_clustering_objective(features, labels, source, novel, temperature)[1]
    return _chain_to_weight(grad, features, weight, raw)


def max_peak_softmax_nll(logits, picked):
    """``objective._softmax_nll`` as it was before it read each row's peak at
    the row's argmax, kept verbatim: the peak is ``logits.max(axis=1)``."""
    peak = logits.max(axis=1)
    lse = peak + np.log(np.exp(logits - peak[:, None]).sum(axis=1))
    total = float((lse - logits[picked]).sum())
    np.exp(np.subtract(logits, lse[:, None], out=logits), out=logits)
    logits[picked] -= 1.0
    return total


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
    ceil(keep_ratio * n) samples farthest from tau (keep_ratio read as its
    decimal), labelled by the nearest
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
            tau = brute_force_threshold(plain)[0]
        else:
            tau = fixed
        predicted = np.where(scores < tau, source_sims.argmax(axis=1), REJECT)

        added = 0
        if config.enable_expansion:
            added = brute_force_expand(
                pool, features, extended, config.window_length,
                EXPANSION_CLAMP, config.fixed_threshold,
            )
        if config.novel_momentum is not None and pool.novel:
            for row in features[predicted == REJECT]:
                list_momentum_update(pool, row, config.novel_momentum)

        gradient = np.zeros_like(weight)
        if config.enable_clustering:
            count = math.ceil(Fraction(repr(config.keep_ratio)) * len(scores))
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
