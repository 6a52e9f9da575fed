import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (
    finite_difference_gradient,
    max_peak_softmax_nll,
    relative_error,
    subset_clustering_objective,
    unfused_clustering_gradient,
    unfused_clustering_loss,
    unfused_kl_divergence,
    unfused_kl_gradient,
)
from owtt import objective
from owtt.adapter import embed_backward, embed_batch
from owtt.errors import EmptyEstimate, NumericalFailure, UnknownLabel
from owtt.objective import (
    COV_EPS,
    GaussianStats,
    clustering_loss,
    clustering_loss_gradient,
    fit_gaussian,
    kl_divergence,
    kl_gradient,
    update_target_stats,
)
from owtt.prototypes import PrototypePool

DELTA = 0.1


def unit_rows(mat):
    mat = np.asarray(mat, dtype=float)
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


def clustering_weight_gradient(feats, labels, pool, temperature, weight, raw):
    """The clustering loss and its feature gradient carried to the weight."""
    loss, grad_features = clustering_loss_gradient(feats, labels, pool, temperature)
    return loss, embed_backward(grad_features, feats, raw, weight)


def kl_weight_gradient(source, target, feats, weight, raw):
    """The KL divergence and its feature gradient carried to the weight;
    feats and raw are the batch last blended into target."""
    kl, grad_features = kl_gradient(source, target)
    return kl, embed_backward(grad_features, feats, raw, weight)


def random_instance(seed, d_in=6, d_out=4, k_s=3, n=8, n_novel=2):
    rng = np.random.default_rng(seed)
    weight = rng.normal(size=(d_out, d_in))
    raw = rng.normal(size=(n, d_in)) * 2.0
    pool = PrototypePool(unit_rows(rng.normal(size=(k_s, d_out))), novel_capacity=10)
    for _ in range(n_novel):
        pool.push_novel(unit_rows(rng.normal(size=(1, d_out)))[0])
    labels = rng.integers(0, k_s + n_novel, size=n)
    return weight, raw, pool, labels


# --- clustering loss -------------------------------------------------------------


def test_loss_zero_for_single_prototype_match():
    pool = PrototypePool(np.array([[1.0, 0.0]]), novel_capacity=4)
    loss = clustering_loss(np.array([[1.0, 0.0]]), [0], pool, DELTA)
    assert loss == pytest.approx(0.0)


def test_loss_hand_softmax_two_prototypes():
    pool = PrototypePool(np.eye(2), novel_capacity=4)
    loss = clustering_loss(np.array([[1.0, 0.0]]), [0], pool, DELTA)
    assert loss == pytest.approx(np.log1p(np.exp(-10.0)))


def test_loss_novel_term_mirrors_source_term():
    pool = PrototypePool(np.array([[1.0, 0.0]]), novel_capacity=4)
    pool.push_novel(np.array([0.0, 1.0]))
    loss = clustering_loss(np.array([[0.0, 1.0]]), [1], pool, DELTA)
    assert loss == pytest.approx(np.log1p(np.exp(-10.0)))


def test_loss_averages_over_samples():
    pool = PrototypePool(np.eye(2), novel_capacity=4)
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    per_sample = clustering_loss(feats[:1], [0], pool, DELTA)
    both = clustering_loss(feats, [0, 1], pool, DELTA)
    assert both == pytest.approx(per_sample)


def test_loss_unknown_novel_index_raises():
    pool = PrototypePool(np.eye(2), novel_capacity=4)
    with pytest.raises(UnknownLabel):
        clustering_loss(np.array([[1.0, 0.0]]), [2], pool, DELTA)


def test_loss_rotation_invariant():
    rng = np.random.default_rng(12)
    weight, raw, pool, labels = random_instance(12)
    feats = embed_batch(raw, weight)
    base = clustering_loss(feats, labels, pool, DELTA)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    rotated_pool = PrototypePool(pool.source_matrix() @ q.T, novel_capacity=10)
    for i in range(pool.novel_count):
        rotated_pool.push_novel(q @ pool.novel_matrix()[i])
    rotated = clustering_loss(feats @ q.T, labels, rotated_pool, DELTA)
    assert rotated == pytest.approx(base, rel=1e-12)


# --- clustering gradient ----------------------------------------------------------


def test_gradient_vanishes_at_exact_minimum():
    weight = np.eye(2)
    raw = np.array([[2.0, 0.0]])
    pool = PrototypePool(np.array([[1.0, 0.0]]), novel_capacity=4)
    feats = embed_batch(raw, weight)
    _, grad = clustering_weight_gradient(feats, [0], pool, DELTA, weight, raw)
    assert np.linalg.norm(grad) < 1e-8


def test_gradient_empty_batch_is_zero_matrix():
    weight = np.eye(2)
    pool = PrototypePool(np.eye(2), novel_capacity=4)
    _, grad_features = clustering_loss_gradient(np.empty((0, 2)), [], pool, DELTA)
    np.testing.assert_array_equal(grad_features, np.zeros((0, 2)))
    _, grad = clustering_weight_gradient(
        np.empty((0, 2)), [], pool, DELTA, weight, np.empty((0, 2))
    )
    np.testing.assert_array_equal(grad, np.zeros((2, 2)))


def test_gradient_matches_finite_differences():
    weight, raw, pool, labels = random_instance(seed=0)
    feats = embed_batch(raw, weight)
    _, analytic = clustering_weight_gradient(feats, labels, pool, DELTA, weight, raw)

    def loss_of(w):
        return clustering_loss(embed_batch(raw, w), labels, pool, DELTA)

    numeric = finite_difference_gradient(loss_of, weight, step=1e-5)
    assert relative_error(analytic, numeric) < 1e-4


# --- streaming target statistics ---------------------------------------------------


def test_first_batch_initializes_stats_exactly():
    rng = np.random.default_rng(3)
    batch = rng.normal(size=(10, 3))
    stats = update_target_stats(GaussianStats.empty(3), batch, 0.1)
    assert stats.count == 10
    assert stats.last_blend == 1.0
    np.testing.assert_allclose(stats.mean, batch.mean(axis=0))
    np.testing.assert_allclose(stats.covariance, np.cov(batch.T, ddof=1))


def test_single_sample_batch_uses_zero_covariance():
    stats = update_target_stats(GaussianStats.empty(2), np.array([[1.0, 2.0]]), 0.1)
    np.testing.assert_array_equal(stats.covariance, np.zeros((2, 2)))


def test_momentum_one_replaces_stats():
    rng = np.random.default_rng(4)
    stats = update_target_stats(GaussianStats.empty(2), rng.normal(size=(6, 2)), 1.0)
    batch = rng.normal(size=(8, 2))
    stats = update_target_stats(stats, batch, 1.0)
    np.testing.assert_allclose(stats.mean, batch.mean(axis=0))
    np.testing.assert_allclose(stats.covariance, np.cov(batch.T, ddof=1))


def test_half_momentum_blends_means():
    stats = update_target_stats(GaussianStats.empty(1), np.array([[0.0], [0.0]]), 0.5)
    stats = update_target_stats(stats, np.array([[2.0], [2.0]]), 0.5)
    assert stats.mean[0] == pytest.approx(1.0)
    assert stats.last_blend == 0.5


def test_empty_batch_is_noop():
    empty = GaussianStats.empty(2)
    stats = update_target_stats(empty, np.empty((0, 2)), 0.2)
    assert stats is empty and stats.count == 0


def test_the_cached_ridge_is_read_only_and_no_estimate_holds_it():
    ridge = objective._ridge(3)
    assert ridge is objective._ridge(3) and not ridge.flags.writeable
    assert ridge.tobytes() == (COV_EPS * np.eye(3)).tobytes()
    with pytest.raises(ValueError):
        ridge[0, 0] = 1.0
    rng = np.random.default_rng(5)
    features = rng.normal(size=(7, 3))
    target = GaussianStats.empty(3)
    estimates = [fit_gaussian(features)]
    for batch in (features, features[:1], features[2:]):
        target = update_target_stats(target, batch, 0.3)
        estimates.append(target)
    assert estimates[1].mean.tobytes() == features.mean(axis=0).tobytes()
    for stats in estimates:
        assert not np.shares_memory(stats.regularized, ridge)
        assert stats.regularized.flags.writeable
        assert stats.regularized.tobytes() == (
            stats.covariance + COV_EPS * np.eye(3)).tobytes()


# Logits with exact ties and signed zeros among the row maxima.
TIED_LOGITS = hnp.arrays(
    np.float64, st.tuples(st.integers(0, 9), st.integers(1, 6)),
    elements=st.sampled_from([-30.0, -1.5, -0.0, 0.0, 2.0, 40.0]) | st.floats(-50.0, 50.0),
)


@settings(max_examples=300, deadline=None)
@given(logits=TIED_LOGITS, data=st.data())
def test_softmax_nll_reads_the_peak_at_the_argmax_bit_for_bit(logits, data):
    n, width = logits.shape
    picked = ((np.arange(n), np.array(data.draw(st.lists(st.integers(0, width - 1),
                                                          min_size=n, max_size=n)), int))
              if data.draw(st.booleans()) else (slice(None), -1))
    ours, theirs = logits.copy(), logits.copy()
    total, expected = objective._softmax_nll(ours, picked), max_peak_softmax_nll(theirs, picked)
    assert np.float64(total).tobytes() == np.float64(expected).tobytes()
    assert ours.tobytes() == theirs.tobytes()


def test_covariance_stays_symmetric_across_updates():
    # Exactly: no estimate re-symmetrizes its covariance, and kl_divergence
    # reads the regularized source covariance in place of its transpose.
    rng = np.random.default_rng(8)
    for dim, sizes in ((4, [7] * 10), (16, [1, 2, 16, 40, 1, 3, 17]), (64, [1, 2, 64, 100, 5])):
        stats = GaussianStats.empty(dim)
        for n in sizes:
            batch = rng.normal(size=(2 * n, dim))
            fitted = fit_gaussian(batch[:n])
            for estimate in (fitted, fit_gaussian(batch[::2]),
                             update_target_stats(stats, batch[1::2], 0.3)):
                assert np.array_equal(estimate.covariance, estimate.covariance.T)
                assert np.array_equal(estimate.regularized, estimate.regularized.T)
            stats = update_target_stats(stats, batch[:n], 0.3)
            assert np.array_equal(stats.covariance, stats.covariance.T)


# --- KL divergence ------------------------------------------------------------------


def gaussian(mean, cov):
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    return GaussianStats(mean=mean, covariance=cov, count=1)


def test_kl_self_divergence_is_zero():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(5, 3))
    stats = fit_gaussian(a)
    assert kl_divergence(stats, stats) == pytest.approx(0.0, abs=1e-10)


def test_kl_one_dimensional_mean_shift():
    source = gaussian([0.0], [[1.0]])
    target = gaussian([1.0], [[1.0]])
    assert kl_divergence(source, target) == pytest.approx(0.5, abs=1e-3)


def test_kl_isotropic_variance_ratio():
    source = gaussian([0.0, 0.0], np.eye(2))
    target = gaussian([0.0, 0.0], 2.0 * np.eye(2))
    expected = 0.5 * (1.0 - 2.0 + np.log(4.0))
    assert kl_divergence(source, target) == pytest.approx(expected, abs=1e-3)


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(21)
    for _ in range(20):
        a = fit_gaussian(rng.normal(size=(30, 4)))
        b = fit_gaussian(rng.normal(size=(30, 4)) * rng.uniform(0.5, 2))
        assert kl_divergence(a, b) >= 0.0


def test_kl_rejects_non_positive_definite():
    with pytest.raises(NumericalFailure):
        gaussian([0.0, 0.0], np.array([[1.0, 0.0], [0.0, -5.0]]))


# --- KL gradient ---------------------------------------------------------------------


def kl_after_update(weight, raw, prev_stats, source, momentum):
    feats = embed_batch(raw, weight)
    updated = update_target_stats(prev_stats, feats, momentum)
    return kl_divergence(source, updated)


def test_kl_gradient_matches_finite_differences_fresh_stats():
    rng = np.random.default_rng(1)
    weight = rng.normal(size=(4, 6))
    raw = rng.normal(size=(8, 6)) * 2.0
    source = fit_gaussian(unit_rows(rng.normal(size=(40, 4))))
    prev = GaussianStats.empty(4)

    feats = embed_batch(raw, weight)
    target = update_target_stats(prev, feats, 0.05)
    _, analytic = kl_weight_gradient(source, target, feats, weight, raw)
    numeric = finite_difference_gradient(
        lambda w: kl_after_update(w, raw, prev, source, 0.05), weight, step=1e-5
    )
    assert relative_error(analytic, numeric) < 1e-4


def test_kl_gradient_matches_finite_differences_running_stats():
    rng = np.random.default_rng(2)
    weight = rng.normal(size=(4, 6))
    raw = rng.normal(size=(8, 6)) * 2.0
    source = fit_gaussian(unit_rows(rng.normal(size=(40, 4))))
    prev = update_target_stats(GaussianStats.empty(4), unit_rows(rng.normal(size=(16, 4))), 0.05)

    feats = embed_batch(raw, weight)
    target = update_target_stats(prev, feats, 0.05)
    assert target.last_blend == 0.05
    _, analytic = kl_weight_gradient(source, target, feats, weight, raw)
    numeric = finite_difference_gradient(
        lambda w: kl_after_update(w, raw, prev, source, 0.05), weight, step=1e-5
    )
    assert relative_error(analytic, numeric) < 1e-4


def test_kl_gradient_zero_when_target_equals_source():
    rng = np.random.default_rng(6)
    weight = rng.normal(size=(3, 5))
    raw = rng.normal(size=(6, 5))
    feats = embed_batch(raw, weight)
    source = fit_gaussian(unit_rows(rng.normal(size=(30, 3))))
    target = GaussianStats(
        mean=source.mean.copy(),
        covariance=source.covariance.copy(),
        count=6,
        last_blend=0.05,
        last_centered=feats - feats.mean(axis=0),
    )
    _, grad = kl_weight_gradient(source, target, feats, weight, raw)
    assert np.linalg.norm(grad) < 1e-6


def test_kl_gradient_of_a_fitted_estimate_is_empty():
    # A fitted estimate has blended no batch, so there are no rows to differentiate.
    rng = np.random.default_rng(7)
    weight = rng.normal(size=(3, 5))
    source = fit_gaussian(unit_rows(rng.normal(size=(30, 3))))
    assert source.count == 30 and source.last_centered is None
    _, grad_features = kl_gradient(source, source)
    np.testing.assert_array_equal(grad_features, np.zeros((0, 3)))
    _, grad = kl_weight_gradient(source, source, np.empty((0, 3)), weight, np.empty((0, 5)))
    np.testing.assert_array_equal(grad, np.zeros((3, 5)))


def test_total_gradient_additivity():
    weight, raw, pool, labels = random_instance(seed=9)
    feats = embed_batch(raw, weight)
    rng = np.random.default_rng(9)
    source = fit_gaussian(unit_rows(rng.normal(size=(40, 4))))
    target = update_target_stats(GaussianStats.empty(4), feats, 0.05)
    _, g_pc = clustering_weight_gradient(feats, labels, pool, DELTA, weight, raw)
    _, g_kl = kl_weight_gradient(source, target, feats, weight, raw)
    lam = 0.7
    np.testing.assert_allclose(g_pc + lam * g_kl, g_pc + lam * g_kl)
    np.testing.assert_array_equal(g_pc + 0.0 * g_kl, g_pc)


# --- fused loss and gradient against the unfused oracles -------------------------------


def agrees_within_1e12(value, reference):
    return abs(value - reference) <= 1e-12 * max(abs(reference), 1.0)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 12),
    k_s=st.integers(1, 4),
    n_novel=st.integers(0, 3),
    mode=st.sampled_from(["source", "novel", "mixed"]),
    temperature=st.sampled_from([0.05, 0.1, 1.0]),
)
@example(seed=0, n=0, k_s=2, n_novel=1, mode="mixed", temperature=0.1)
@example(seed=0, n=1, k_s=2, n_novel=1, mode="source", temperature=0.1)
@example(seed=0, n=1, k_s=2, n_novel=1, mode="novel", temperature=0.1)
def test_fused_clustering_matches_unfused_oracle(seed, n, k_s, n_novel, mode, temperature):
    if mode != "source" and n_novel == 0:
        n_novel = 1
    weight, raw, pool, _ = random_instance(seed, k_s=k_s, n=n, n_novel=n_novel)
    rng = np.random.default_rng(seed)
    low, high = {"source": (0, k_s), "novel": (k_s, k_s + n_novel),
                 "mixed": (0, k_s + n_novel)}[mode]
    labels = rng.integers(low, high, size=n)
    feats = embed_batch(raw, weight)
    source, novel = pool.source_matrix(), pool.novel_matrix()

    loss, grad = clustering_weight_gradient(feats, labels, pool, temperature, weight, raw)
    expected_loss = unfused_clustering_loss(feats, labels, source, novel, temperature)
    expected_grad = unfused_clustering_gradient(
        feats, labels, source, novel, temperature, weight, raw
    )
    assert np.array_equal(grad, expected_grad)
    assert agrees_within_1e12(loss, expected_loss)
    assert clustering_loss(feats, labels, pool, temperature) == loss


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_source_rows=st.integers(0, 5),
    n_novel_rows=st.integers(0, 5),
    k_s=st.integers(1, 4),
    temperature=st.sampled_from([0.05, 0.1, 1.0]),
)
@example(seed=0, n_source_rows=4, n_novel_rows=0, k_s=3, temperature=0.1)
@example(seed=0, n_source_rows=1, n_novel_rows=0, k_s=2, temperature=0.1)
@example(seed=0, n_source_rows=0, n_novel_rows=1, k_s=2, temperature=0.1)
@example(seed=0, n_source_rows=1, n_novel_rows=1, k_s=2, temperature=0.1)
def test_clustering_gradient_writes_none_of_its_inputs(
    seed, n_source_rows, n_novel_rows, k_s, temperature
):
    # Read-only inputs make any write into them raise. With source labels only,
    # the source subset is the caller's own label array, not a copy.
    weight, raw, pool, _ = random_instance(seed, k_s=k_s, n=n_source_rows + n_novel_rows)
    rng = np.random.default_rng(seed)
    labels = np.concatenate([rng.integers(0, k_s, size=n_source_rows),
                             rng.integers(k_s, k_s + pool.novel_count, size=n_novel_rows)])
    rng.shuffle(labels)
    feats = embed_batch(raw, weight)
    for array in (feats, labels, pool._rows):
        array.setflags(write=False)

    loss, grad = clustering_loss_gradient(feats, labels, pool, temperature)
    expected_loss, expected_grad = subset_clustering_objective(
        feats, labels, pool.source_matrix(), pool.novel_matrix(), temperature
    )
    assert loss == expected_loss
    assert np.array_equal(grad, expected_grad)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(0, 12), min_size=1, max_size=4),
    dim=st.integers(1, 6),
    history=st.sampled_from(["fresh", "running", "no_blend"]),
)
@example(seed=0, sizes=[0], dim=3, history="fresh")
@example(seed=0, sizes=[0], dim=3, history="running")
@example(seed=0, sizes=[1], dim=3, history="fresh")
@example(seed=0, sizes=[1], dim=3, history="running")
@example(seed=0, sizes=[5], dim=3, history="no_blend")
@example(seed=0, sizes=[6, 0, 1, 0], dim=3, history="fresh")
def test_fused_kl_matches_unfused_oracle(seed, sizes, dim, history):
    rng = np.random.default_rng(seed)
    weight = rng.normal(size=(dim, 5))
    source = fit_gaussian(unit_rows(rng.normal(size=(30, dim))))
    if history != "fresh":
        sizes = [10] + sizes
    target = GaussianStats.empty(dim)
    absorbed = 0
    last = None  # (features, raw) of the last non-empty batch
    for n in sizes:
        raw = rng.normal(size=(n, 5)) * 2.0
        feats = embed_batch(raw, weight)
        updated = update_target_stats(target, feats, 0.1)
        if n == 0:
            assert updated is target
        else:
            last = feats, raw
        absorbed += n
        assert updated.count == absorbed
        target = updated
    if last is None:
        assert target.last_centered is None
        with pytest.raises(EmptyEstimate):
            kl_gradient(source, target)
        return
    feats, raw = last
    assert np.array_equal(target.last_centered, feats - feats.mean(axis=0))
    if history == "no_blend":
        target = dataclasses.replace(target, last_blend=0.0)

    kl, grad = kl_weight_gradient(source, target, feats, weight, raw)
    expected_kl = unfused_kl_divergence(source, target)
    assert np.array_equal(grad, unfused_kl_gradient(source, target, feats, weight, raw))
    assert agrees_within_1e12(kl, expected_kl)
    assert kl_divergence(source, target) == kl
    if history == "no_blend":
        assert np.array_equal(grad, np.zeros_like(weight))


def test_kl_divergence_against_an_empty_estimate_raises():
    source = fit_gaussian(unit_rows(np.random.default_rng(11).normal(size=(30, 3))))
    with pytest.raises(EmptyEstimate):
        kl_divergence(source, GaussianStats.empty(3))
    with pytest.raises(EmptyEstimate):
        kl_divergence(GaussianStats.empty(3), source)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6), negative=st.floats(-5.0, -0.01))
def test_non_positive_definite_target_raises_in_fused_and_oracle(seed, dim, negative):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigs = rng.uniform(0.1, 2.0, size=dim)
    eigs[rng.integers(dim)] = negative
    source = fit_gaussian(unit_rows(rng.normal(size=(30, dim))))
    mean, cov = rng.normal(size=dim), (q * eigs) @ q.T
    with pytest.raises(NumericalFailure):
        GaussianStats(mean, cov, count=4)
    with pytest.raises(np.linalg.LinAlgError):
        unfused_kl_divergence(source, SimpleNamespace(mean=mean, covariance=cov))


def test_gaussian_factors_are_computed_once_per_object(monkeypatch):
    rng = np.random.default_rng(5)
    weight = rng.normal(size=(4, 6))
    raw = rng.normal(size=(8, 6))
    feats = embed_batch(raw, weight)
    calls = {"cholesky": 0, "inv": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(matrix, name=name, original=original):
            calls[name] += 1
            return original(matrix)

        monkeypatch.setattr(np.linalg, name, counted)
    empty = GaussianStats.empty(4)
    assert calls == {"cholesky": 0, "inv": 0}
    assert empty.regularized is None and empty.logdet is None and empty.inverse is None
    source = fit_gaussian(unit_rows(rng.normal(size=(40, 4))))
    assert calls == {"cholesky": 1, "inv": 1}
    target = update_target_stats(empty, feats, 0.1)
    assert calls == {"cholesky": 2, "inv": 2}
    first = kl_weight_gradient(source, target, feats, weight, raw)
    second = kl_weight_gradient(source, target, feats, weight, raw)
    kl_divergence(source, target)
    assert calls == {"cholesky": 2, "inv": 2}
    assert first[0] == second[0] and np.array_equal(first[1], second[1])
