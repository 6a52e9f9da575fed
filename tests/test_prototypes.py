import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ListPool, brute_force_expand, list_momentum_update
from owtt.engine import next_threshold
from owtt.errors import (
    DegenerateEmbedding, EmptyClass, EmptyNovelPool, InvalidSpec, NonFiniteInput
)
from owtt.prototypes import (
    PrototypePool,
    build_source_prototypes,
    expand,
    load_pool,
    momentum_update_novel,
    save_pool,
)
from owtt.scoring import ScoreWindow, batch_ood_scores

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
    with pytest.raises(InvalidSpec):
        build_source_prototypes(feats, [0, 1, 3], 3)


def test_missing_class_raises_empty_class():
    feats = np.eye(2)
    with pytest.raises(EmptyClass) as err:
        build_source_prototypes(feats, [0, 0], 2)
    assert err.value.class_id == 1


# --- expansion -------------------------------------------------------------------


def primed_window(scores):
    return ScoreWindow(512).push(scores)


def scored_expand(pool, batch, window, clamp_range=None, fixed_threshold=None):
    """Expansion as the engine runs it: extended scores, the window's tau, then expand."""
    scores = batch_ood_scores(batch, pool.all_matrix())
    tau = next_threshold(window, scores, clamp_range, fixed_threshold)
    return expand(pool, batch, scores, tau)


def test_expand_adds_nothing_for_source_lookalikes():
    pool = PrototypePool(np.eye(3), novel_capacity=10)
    window = primed_window([0.05] * 4 + [0.8] * 4)
    batch = np.eye(3)  # every feature sits exactly on a source prototype
    added = scored_expand(pool, batch, window)
    assert added == 0
    assert pool.novel_count == 0


def test_expand_fifo_eviction_at_capacity():
    pool = PrototypePool(np.array([[1.0, 0.0, 0.0]]), novel_capacity=3)
    for v in ([0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, SQ2, -SQ2]):
        pool.push_novel(np.array(v))
    oldest = pool.novel_matrix()[0].copy()
    window = primed_window([0.0] * 8)
    candidate = unit_rows([[-1.0, 0.0, 0.0]])
    added = scored_expand(pool, candidate, window)
    assert added == 1
    assert pool.novel_count == 3
    for i in range(pool.novel_count):
        assert not np.allclose(pool.novel_matrix()[i], oldest)


def test_expand_adds_exactly_one_of_two_identical_candidates():
    pool = PrototypePool(np.array([[1.0, 0.0]]), novel_capacity=10)
    window = primed_window([0.0] * 8)
    batch = np.array([[0.0, 1.0], [0.0, 1.0]])
    added = scored_expand(pool, batch, window)
    assert added == 1
    assert pool.novel_count == 1
    np.testing.assert_allclose(pool.novel_matrix()[0], [0.0, 1.0])


def test_expand_empty_batch_is_noop():
    pool = PrototypePool(np.eye(2), novel_capacity=4)
    window = primed_window([0.1] * 8)
    assert scored_expand(pool, np.empty((0, 2)), window) == 0
    assert window.count == 8


def test_expand_respects_fixed_threshold():
    pool = PrototypePool(np.array([[1.0, 0.0]]), novel_capacity=4)
    window = primed_window([0.0] * 8)
    batch = unit_rows([[SQ2, SQ2]])  # extended score 1 - sqrt(2)/2 ~ 0.293
    assert scored_expand(pool, batch, window, fixed_threshold=0.5) == 0
    assert scored_expand(pool, batch, window, fixed_threshold=0.2) == 1


def test_expand_skips_a_candidate_scoring_exactly_tau():
    pool = PrototypePool(np.array([[1.0, 0.0]]), novel_capacity=4)
    batch = np.array([[0.6, 0.8]])  # extended score exactly 1 - 0.6 = 0.4
    scores = batch_ood_scores(batch, pool.all_matrix())
    assert scores[0] == 0.4
    assert expand(pool, batch, scores, 0.4) == 0
    assert expand(pool, batch, scores, np.nextafter(0.4, 0.0)) == 1


def test_added_prototypes_are_mutually_dissimilar():
    rng = np.random.default_rng(5)
    pool = PrototypePool(unit_rows(rng.normal(size=(3, 8))), novel_capacity=50)
    window = primed_window(rng.uniform(0, 0.2, size=16))
    batch = unit_rows(rng.normal(size=(40, 8)))
    scores = batch_ood_scores(batch, pool.all_matrix())
    tau = next_threshold(window, scores, None, None)
    start = pool.novel_count
    expand(pool, batch, scores, tau)
    new = [pool.novel_matrix()[i] for i in range(start, pool.novel_count)]
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
        scored_expand(pool, batch, window)
        assert pool.novel_count <= 5


def test_expand_early_stop_skips_candidates_an_eviction_would_admit():
    # e2 enters the batch scoring 0 against the pool [e1 | e2], so it is
    # never visited, although adding e3 evicts e2 from the pool and would
    # raise e2's score to 1.
    e1, e2, e3 = np.eye(3)
    pool = PrototypePool(e1[None, :], novel_capacity=1)
    pool.push_novel(e2)
    added = scored_expand(
        pool, np.stack([e3, e2]), primed_window([0.0] * 8), fixed_threshold=0.5
    )
    assert added == 1
    np.testing.assert_array_equal(pool.novel_matrix(), [e3])


def test_expand_rescore_ignores_prototypes_evicted_within_the_batch():
    # At capacity 1, e3 evicts e2 before c is re-scored, so c, close to e2,
    # still enters.
    e1, e2, e3, _ = np.eye(4)
    c = np.array([0.0, 0.9, 0.0, 0.43589])
    pool = PrototypePool(e1[None, :], novel_capacity=1)
    added = scored_expand(
        pool, np.stack([e2, e3, c]), primed_window([0.0] * 8), fixed_threshold=0.5
    )
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
            np.testing.assert_array_equal(pool.novel_matrix()[i], expected)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), capacity=st.integers(1, 5), data=st.data())
def test_block_push_matches_list_model_pushed_row_by_row(seed, capacity, data):
    rng = np.random.default_rng(seed)
    source = unit_rows(rng.normal(size=(2, 3)))
    pool, model = PrototypePool(source, capacity), ListPool(source, capacity)
    sizes = data.draw(st.lists(st.integers(0, 2 * capacity), min_size=1, max_size=6))
    for size in sizes:  # the pool starts empty and then runs partial or full
        block = unit_rows(rng.normal(size=(size, 3))) if size else np.empty((0, 3))
        if size == 1 and data.draw(st.booleans()):
            block = block[0]  # a single 1-D row
        pool.push_novel(block)
        for row in np.atleast_2d(block):
            model.push(row)
        block[...] = np.nan  # the pool holds copies of the pushed rows
        assert pool.novel_count == len(model.novel)
        assert np.array_equal(pool.all_matrix(), model.matrix())


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
        # The oracle returns 0 for an empty batch before it touches its
        # window; in the engine the inference stage has already raised
        # EmptyWindow for an empty first batch, so one composes nothing.
        added = scored_expand(pool, batch, window, clamp_range, fixed_threshold) if size else 0
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
    np.testing.assert_allclose(pool.novel_matrix()[0], [SQ2, SQ2])


def test_momentum_half_blends_and_renormalizes():
    pool = PrototypePool(np.array([[0.0, -1.0]]), novel_capacity=4)
    pool.push_novel(np.array([1.0, 0.0]))
    momentum_update_novel(pool, np.array([0.0, 1.0]), momentum=0.5)
    np.testing.assert_allclose(pool.novel_matrix()[0], [SQ2, SQ2])


def test_momentum_picks_most_similar_prototype():
    pool = PrototypePool(np.array([[1.0, 0.0, 0.0]]), novel_capacity=4)
    pool.push_novel(np.array([0.0, 1.0, 0.0]))
    pool.push_novel(np.array([0.0, 0.0, 1.0]))
    momentum_update_novel(pool, np.array([0.0, 0.9, 0.43589]), momentum=1.0)
    np.testing.assert_allclose(pool.novel_matrix()[0], [0.0, 0.9, 0.43589], atol=1e-6)
    np.testing.assert_allclose(pool.novel_matrix()[1], [0.0, 0.0, 1.0])


def test_momentum_on_empty_pool_raises():
    pool = PrototypePool(np.eye(2), novel_capacity=4)
    with pytest.raises(EmptyNovelPool):
        momentum_update_novel(pool, np.array([1.0, 0.0]), momentum=0.5)


def test_momentum_blend_collapse_raises():
    pool = PrototypePool(np.eye(2), novel_capacity=4)
    pool.push_novel(np.array([1.0, 0.0]))
    with pytest.raises(DegenerateEmbedding):
        momentum_update_novel(pool, np.array([-1.0, 0.0]), momentum=0.5)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    capacity=st.integers(1, 5),
    dim=st.integers(2, 5),
    blocks=st.lists(
        st.tuples(st.integers(0, 12), st.booleans(), st.booleans()), min_size=1, max_size=4
    ),
    momentum=st.sampled_from([0.1, 0.5, 1.0]),
)
def test_momentum_block_matches_row_by_row_oracle(seed, capacity, dim, blocks, momentum):
    # The random prototypes are distinct: two prototypes an ulp apart can
    # rank differently under the pool's matrix-vector product and the
    # oracle's per-row dot, which is the similarity kernel, not the block
    # logic. Exact ties are pinned by the next test.
    rng = np.random.default_rng(seed)
    source = unit_rows(rng.normal(size=(2, dim)))
    pool, model = PrototypePool(source, capacity), ListPool(source, capacity)
    prefill = unit_rows(rng.normal(size=(capacity, dim)))
    pool.push_novel(prefill)
    for row in prefill:
        model.push(row)
    for size, on_prototype, flat in blocks:
        block = unit_rows(rng.normal(size=(size, dim))) if size else np.empty((0, dim))
        if size > 1:
            block[-1] = block[0]  # a duplicate row sees the update of its first copy
        if size and on_prototype:
            block[size // 2] = pool.novel_matrix()[rng.integers(pool.novel_count)]
        momentum_update_novel(pool, block[0] if size == 1 and flat else block, momentum)
        for row in block:
            list_momentum_update(model, row, momentum)
        assert np.array_equal(pool.all_matrix(), model.matrix())


@pytest.mark.parametrize("momentum", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("repeats", [0, 1, 2])
def test_momentum_tie_refreshes_the_first_equal_prototype(repeats, momentum):
    # Novel rows 0 and 2 are the same prototype and score 0.8 exactly, so
    # the tie goes to row 0; row 2 is left as it was. repeats=0 passes 1-D.
    e0, e1 = np.eye(3)[:2]
    pool = PrototypePool(np.array([[0.0, 0.0, 1.0]]), novel_capacity=3)
    pool.push_novel(np.array([e1, e0, e1]))
    model = ListPool(pool.source_matrix(), 3)
    for row in (e1, e0, e1):
        model.push(row)
    row = np.array([0.6, 0.8, 0.0])
    block = np.array([row] * repeats) if repeats else row
    momentum_update_novel(pool, block, momentum)
    for _ in range(max(repeats, 1)):
        list_momentum_update(model, row, momentum)
    assert np.array_equal(pool.all_matrix(), model.matrix())
    assert not np.array_equal(pool.novel_matrix()[0], e1)
    assert np.array_equal(pool.novel_matrix()[1:], [e0, e1])


def test_momentum_block_updates_each_row_against_the_refreshed_pool():
    # Against the pool as the block found it, row 1 is closest to [1, 0]. Row
    # 0 first moves [0, 1] onto itself at momentum 1, and that prototype is
    # closer to row 1, so row 1 refreshes it again.
    pool = PrototypePool(np.array([[-1.0, 0.0]]), novel_capacity=4)
    pool.push_novel(np.array([[0.0, 1.0], [1.0, 0.0]]))
    momentum_update_novel(pool, np.array([[0.6, 0.8], [0.8, 0.6]]), momentum=1.0)
    np.testing.assert_allclose(pool.novel_matrix(), [[0.8, 0.6], [1.0, 0.0]])


@pytest.mark.parametrize(
    "block, error, message",
    [
        (np.array([np.nan, 0.0]), NonFiniteInput, "momentum row 0 holds a NaN"),
        (np.array([[1.0, 0.0], [0.0, np.inf], [np.nan, 0.0]]), NonFiniteInput, "momentum row 1"),
        (np.array([1.0, 0.0, 0.0]), InvalidSpec, r"shape \(1, 3\) for pool width 2"),
        (np.zeros((2, 1)), InvalidSpec, r"shape \(2, 1\) for pool width 2"),
        (np.zeros((1, 2, 2)), InvalidSpec, r"shape \(1, 2, 2\)"),
    ],
    ids=["nan_row", "inf_after_a_good_row", "wide_row", "narrow_block", "3d_block"],
)
def test_momentum_refuses_a_bad_block_and_leaves_the_pool_unchanged(block, error, message):
    pool = PrototypePool(np.array([[0.0, -1.0]]), novel_capacity=4)
    pool.push_novel(np.array([1.0, 0.0]))
    before = pool.all_matrix().copy()
    with pytest.raises(error, match=message):
        momentum_update_novel(pool, block, momentum=0.5)
    np.testing.assert_array_equal(pool.all_matrix(), before)


def test_momentum_collapse_mid_block_keeps_the_earlier_rows_applied():
    # Row 0 turns the one novel prototype into r; row 1 is -r, so its blend
    # at momentum 0.5 is exactly zero. Row 0 stays applied, row 2 never runs.
    pool = PrototypePool(np.array([[0.0, -1.0]]), novel_capacity=4)
    pool.push_novel(np.array([1.0, 0.0]))
    expected = ListPool(pool.source_matrix(), 4)
    expected.push(np.array([1.0, 0.0]))
    list_momentum_update(expected, np.array([0.0, 1.0]), 0.5)
    block = np.array([[0.0, 1.0], -expected.novel[0], [0.0, 1.0]])
    with pytest.raises(DegenerateEmbedding):
        momentum_update_novel(pool, block, momentum=0.5)
    assert np.array_equal(pool.all_matrix(), expected.matrix())


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
    with pytest.raises(InvalidSpec):
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
    with pytest.raises(InvalidSpec, match="header truncated"):
        load_pool(path)


@pytest.mark.parametrize("cut", [8, 1])
def test_pool_checkpoint_rejects_truncated_payload(tmp_path, cut):
    path, data = saved_pool_bytes(tmp_path)
    path.write_bytes(data[:-cut])
    with pytest.raises(InvalidSpec, match="header implies"):
        load_pool(path)


@pytest.mark.parametrize("n_novel, capacity", [(2, 1), (0, 0)])
def test_pool_checkpoint_rejects_novel_count_over_capacity(tmp_path, n_novel, capacity):
    path = tmp_path / "pool.owtp"
    header = struct.pack("<4sIIIII", b"OWTP", 1, 3, 1, n_novel, capacity)
    path.write_bytes(header + np.zeros((1 + n_novel) * 3, dtype="<f8").tobytes())
    with pytest.raises(InvalidSpec, match="capacity"):
        load_pool(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [1, 3])
def test_pool_checkpoint_rejects_a_non_finite_row(tmp_path, value, row):
    # Rows 0-2 are the source prototypes, row 3 the one novel prototype.
    rows = np.vstack([np.eye(3), [0.0, SQ2, SQ2]])
    rows[row, 2] = value
    path = tmp_path / "pool.owtp"
    header = struct.pack("<4sIIIII", b"OWTP", 1, 3, 3, 1, 4)
    path.write_bytes(header + rows.astype("<f8").tobytes())
    with pytest.raises(InvalidSpec, match=f"row {row} holds a NaN or infinite value"):
        load_pool(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("row", [1, 3])
def test_save_pool_refuses_a_non_finite_row_and_writes_nothing(tmp_path, value, row):
    # Row 1 is a source prototype, row 3 the one novel prototype; neither
    # came from embed_batch, which would have refused a non-finite input.
    pool = PrototypePool(np.eye(3), novel_capacity=4)
    pool.push_novel(np.array([0.0, SQ2, SQ2]))
    pool.all_matrix()[row, 2] = value
    path = tmp_path / "pool.owtp"
    with pytest.raises(InvalidSpec, match=f"pool row {row} holds a NaN or infinite value"):
        save_pool(pool, path)
    assert not path.exists()
