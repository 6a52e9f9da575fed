import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ListPool, brute_force_expand, list_momentum_update
from owtt.errors import DegenerateEmbedding, EmptyClass, EmptyNovelPool
from owtt.prototypes import (
    PrototypePool,
    build_source_prototypes,
    expand,
    load_pool,
    momentum_update_novel,
    save_pool,
)
from owtt.scoring import ScoreWindow, adaptive_threshold, batch_extended_scores

SQ2 = np.sqrt(2.0) / 2.0


def unit_rows(mat):
    mat = np.asarray(mat, dtype=float)
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


# --- source prototype construction ----------------------------------------------


def test_singleton_classes_reproduce_their_features():
    feats = unit_rows([[1.0, 0.0], [0.0, 1.0]])
    protos = build_source_prototypes(feats, [0, 1], 2)
    np.testing.assert_allclose(protos, feats)


def test_class_mean_is_normalized():
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    protos = build_source_prototypes(feats, [0, 0], 1)
    np.testing.assert_allclose(protos, [[SQ2, SQ2]])


def test_out_of_range_label_rejected():
    feats = np.eye(3)
    with pytest.raises(ValueError):
        build_source_prototypes(feats, [0, 1, 3], 3)


def test_missing_class_raises_empty_class():
    feats = np.eye(2)
    with pytest.raises(EmptyClass) as err:
        build_source_prototypes(feats, [0, 0], 2)
    assert err.value.class_id == 1


# --- expansion -------------------------------------------------------------------


def primed_window(scores):
    return ScoreWindow(512).push(scores)


def test_expand_adds_nothing_for_source_lookalikes():
    pool = PrototypePool(np.eye(3), novel_capacity=10)
    window = primed_window([0.05] * 4 + [0.8] * 4)
    batch = np.eye(3)  # every feature sits exactly on a source prototype
    added = expand(pool, batch, window)
    assert added == 0
    assert pool.novel_count == 0


def test_expand_fifo_eviction_at_capacity():
    pool = PrototypePool(np.array([[1.0, 0.0, 0.0]]), novel_capacity=3)
    for v in ([0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, SQ2, -SQ2]):
        pool.push_novel(np.array(v))
    oldest = pool.novel_at(0).copy()
    window = primed_window([0.0] * 8)
    candidate = unit_rows([[-1.0, 0.0, 0.0]])
    added = expand(pool, candidate, window)
    assert added == 1
    assert pool.novel_count == 3
    for i in range(pool.novel_count):
        assert not np.allclose(pool.novel_at(i), oldest)


def test_expand_adds_exactly_one_of_two_identical_candidates():
    pool = PrototypePool(np.array([[1.0, 0.0]]), novel_capacity=10)
    window = primed_window([0.0] * 8)
    batch = np.array([[0.0, 1.0], [0.0, 1.0]])
    added = expand(pool, batch, window)
    assert added == 1
    assert pool.novel_count == 1
    np.testing.assert_allclose(pool.novel_at(0), [0.0, 1.0])


def test_expand_empty_batch_is_noop():
    pool = PrototypePool(np.eye(2), novel_capacity=4)
    window = primed_window([0.1] * 8)
    assert expand(pool, np.empty((0, 2)), window) == 0
    assert window.count == 8


def test_expand_respects_fixed_threshold():
    pool = PrototypePool(np.array([[1.0, 0.0]]), novel_capacity=4)
    window = primed_window([0.0] * 8)
    batch = unit_rows([[SQ2, SQ2]])  # extended score 1 - sqrt(2)/2 ~ 0.293
    assert expand(pool, batch, window, fixed_threshold=0.5) == 0
    assert expand(pool, batch, window, fixed_threshold=0.2) == 1


def test_added_prototypes_are_mutually_dissimilar():
    rng = np.random.default_rng(5)
    pool = PrototypePool(unit_rows(rng.normal(size=(3, 8))), novel_capacity=50)
    window = primed_window(rng.uniform(0, 0.2, size=16))
    batch = unit_rows(rng.normal(size=(40, 8)))
    scores_before = batch_extended_scores(batch, pool)
    window_preview = ScoreWindow(512).push(window.values()).push(scores_before)
    tau = adaptive_threshold(window_preview).tau
    start = pool.novel_count
    expand(pool, batch, window)
    new = [pool.novel_at(i) for i in range(start, pool.novel_count)]
    for i in range(len(new)):
        for j in range(i + 1, len(new)):
            assert float(new[i] @ new[j]) < 1.0 - tau + 1e-12


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), batches=st.integers(1, 5))
def test_novel_count_never_exceeds_capacity(seed, batches):
    rng = np.random.default_rng(seed)
    pool = PrototypePool(unit_rows(rng.normal(size=(2, 4))), novel_capacity=5)
    window = ScoreWindow(64)
    for _ in range(batches):
        batch = unit_rows(rng.normal(size=(12, 4)))
        expand(pool, batch, window)
        assert pool.novel_count <= 5


def test_expand_early_stop_skips_candidates_an_eviction_would_admit():
    # e2 enters the batch scoring 0 against the pool [e1 | e2], so it is
    # never visited, although adding e3 evicts e2 from the pool and would
    # raise e2's score to 1.
    e1, e2, e3 = np.eye(3)
    pool = PrototypePool(e1[None, :], novel_capacity=1)
    pool.push_novel(e2)
    added = expand(pool, np.stack([e3, e2]), primed_window([0.0] * 8), fixed_threshold=0.5)
    assert added == 1
    np.testing.assert_array_equal(pool.novel_matrix(), [e3])


def test_expand_rescore_ignores_prototypes_evicted_within_the_batch():
    # At capacity 1, e3 evicts e2 before c is re-scored, so c, close to e2,
    # still enters.
    e1, e2, e3, _ = np.eye(4)
    c = np.array([0.0, 0.9, 0.0, 0.43589])
    pool = PrototypePool(e1[None, :], novel_capacity=1)
    added = expand(pool, np.stack([e2, e3, c]), primed_window([0.0] * 8), fixed_threshold=0.5)
    assert added == 3
    np.testing.assert_array_equal(pool.novel_matrix(), [c])


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    capacity=st.integers(1, 5),
    pushes=st.integers(0, 12),
)
def test_pool_matches_list_model(seed, capacity, pushes):
    rng = np.random.default_rng(seed)
    source = unit_rows(rng.normal(size=(2, 3)))
    pool, model = PrototypePool(source, capacity), ListPool(source, capacity)
    for _ in range(pushes):
        row = unit_rows(rng.normal(size=(1, 3)))[0]
        pool.push_novel(row)
        model.push(row)
        assert pool.novel_count == len(model.novel)
        np.testing.assert_array_equal(pool.all_matrix(), model.matrix())
        np.testing.assert_array_equal(pool.source_matrix(), source)
        for i, expected in enumerate(model.novel):
            np.testing.assert_array_equal(pool.novel_at(i), expected)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 5),
    num_source=st.integers(1, 3),
    capacity=st.integers(1, 5),
    prefill=st.integers(0, 7),
    batch_sizes=st.lists(st.integers(0, 10), min_size=1, max_size=4),
    fixed_threshold=st.sampled_from([None, 0.1, 0.3, 0.5, 0.8]),
    clamp_range=st.sampled_from([None, (0.4, 1.0)]),
    momentum=st.sampled_from([None, 0.1, 0.5, 1.0]),
)
def test_expand_matches_brute_force_oracle(
    seed, dim, num_source, capacity, prefill, batch_sizes, fixed_threshold, clamp_range,
    momentum,
):
    rng = np.random.default_rng(seed)
    source = unit_rows(rng.normal(size=(num_source, dim)))
    pool, model = PrototypePool(source, capacity), ListPool(source, capacity)
    for row in unit_rows(rng.normal(size=(prefill, dim))):  # empty, partial or full
        pool.push_novel(row)
        model.push(row)
    window, model_window = ScoreWindow(16), []
    for size in batch_sizes:
        batch = unit_rows(rng.normal(size=(size, dim)))
        if size > 1:
            batch[-1] = batch[0]  # an in-batch duplicate must enter at most once
        added = expand(pool, batch, window, clamp_range, fixed_threshold)
        expected = brute_force_expand(
            model, list(batch), model_window, 16, clamp_range, fixed_threshold
        )
        assert added == expected
        np.testing.assert_array_equal(pool.all_matrix(), model.matrix())
        if momentum is not None and pool.novel_count:
            for feature in batch[: size // 2]:
                momentum_update_novel(pool, feature, momentum)
                list_momentum_update(model, feature, momentum)
            np.testing.assert_array_equal(pool.all_matrix(), model.matrix())


# --- momentum refresh of novel prototypes ----------------------------------------


def test_momentum_one_replaces_prototype():
    pool = PrototypePool(np.array([[1.0, 0.0]]), novel_capacity=4)
    pool.push_novel(np.array([0.0, 1.0]))
    momentum_update_novel(pool, np.array([SQ2, SQ2]), momentum=1.0)
    np.testing.assert_allclose(pool.novel_at(0), [SQ2, SQ2])


def test_momentum_half_blends_and_renormalizes():
    pool = PrototypePool(np.array([[0.0, -1.0]]), novel_capacity=4)
    pool.push_novel(np.array([1.0, 0.0]))
    momentum_update_novel(pool, np.array([0.0, 1.0]), momentum=0.5)
    np.testing.assert_allclose(pool.novel_at(0), [SQ2, SQ2])


def test_momentum_picks_most_similar_prototype():
    pool = PrototypePool(np.array([[1.0, 0.0, 0.0]]), novel_capacity=4)
    pool.push_novel(np.array([0.0, 1.0, 0.0]))
    pool.push_novel(np.array([0.0, 0.0, 1.0]))
    momentum_update_novel(pool, np.array([0.0, 0.9, 0.43589]), momentum=1.0)
    np.testing.assert_allclose(pool.novel_at(0), [0.0, 0.9, 0.43589], atol=1e-6)
    np.testing.assert_allclose(pool.novel_at(1), [0.0, 0.0, 1.0])


def test_momentum_on_empty_pool_raises():
    pool = PrototypePool(np.eye(2), novel_capacity=4)
    with pytest.raises(EmptyNovelPool):
        momentum_update_novel(pool, np.array([1.0, 0.0]), momentum=0.5)


def test_momentum_blend_collapse_raises():
    pool = PrototypePool(np.eye(2), novel_capacity=4)
    pool.push_novel(np.array([1.0, 0.0]))
    with pytest.raises(DegenerateEmbedding):
        momentum_update_novel(pool, np.array([-1.0, 0.0]), momentum=0.5)


# --- checkpoint roundtrip ---------------------------------------------------------


def test_pool_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    pool = PrototypePool(unit_rows(rng.normal(size=(4, 6))), novel_capacity=9)
    for _ in range(3):
        pool.push_novel(unit_rows(rng.normal(size=(1, 6)))[0])
    path = tmp_path / "pool.owtp"
    save_pool(pool, path)
    loaded = load_pool(path)
    assert loaded.novel_capacity == 9
    np.testing.assert_array_equal(loaded.source_matrix(), pool.source_matrix())
    np.testing.assert_array_equal(loaded.novel_matrix(), pool.novel_matrix())


def test_pool_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.owtp"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError):
        load_pool(path)


def saved_pool_bytes(tmp_path):
    pool = PrototypePool(np.eye(3), novel_capacity=4)
    pool.push_novel(np.array([0.0, SQ2, SQ2]))
    path = tmp_path / "pool.owtp"
    save_pool(pool, path)
    return path, path.read_bytes()


def test_pool_checkpoint_rejects_short_header(tmp_path):
    path, data = saved_pool_bytes(tmp_path)
    path.write_bytes(data[:20])
    with pytest.raises(ValueError, match="header truncated"):
        load_pool(path)


@pytest.mark.parametrize("cut", [8, 1])
def test_pool_checkpoint_rejects_truncated_payload(tmp_path, cut):
    path, data = saved_pool_bytes(tmp_path)
    path.write_bytes(data[:-cut])
    with pytest.raises(ValueError, match="header implies"):
        load_pool(path)


@pytest.mark.parametrize("n_novel, capacity", [(2, 1), (0, 0)])
def test_pool_checkpoint_rejects_novel_count_over_capacity(tmp_path, n_novel, capacity):
    path = tmp_path / "pool.owtp"
    header = struct.pack("<4sIIIII", b"OWTP", 1, 3, 1, n_novel, capacity)
    path.write_bytes(header + np.zeros((1 + n_novel) * 3, dtype="<f8").tobytes())
    with pytest.raises(ValueError, match="capacity"):
        load_pool(path)
