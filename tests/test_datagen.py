import struct

import numpy as np
import pytest

from oracles import nearest_mean_accuracy
from owtt.adapter import embed_batch, init_adapter
from owtt.datagen import (
    WorldSpec,
    base_offset,
    batch_counts,
    bias_vector,
    class_means,
    export_stream,
    generate_batch,
    generate_source,
    generate_stream,
    load_stream,
    rotation_matrix,
    strong_means,
    write_stream_csv,
)
from owtt.errors import InvalidSpec
from owtt.prototypes import build_source_prototypes
from owtt.scoring import batch_ood_scores


def small_spec(**kw):
    defaults = dict(n_source=200, n_batches=5, batch_size=16, seed=0)
    defaults.update(kw)
    return WorldSpec(**defaults)


# --- validation -------------------------------------------------------------------


def test_invalid_ratio_rejected():
    with pytest.raises(InvalidSpec):
        small_spec(ratio=0.0).validate()
    with pytest.raises(InvalidSpec):
        small_spec(ratio=1.5).validate()


def test_invalid_strong_mode_rejected():
    with pytest.raises(InvalidSpec):
        small_spec(strong_mode="bananas").validate()


def test_invalid_interp_rejected():
    with pytest.raises(InvalidSpec):
        small_spec(strong_mode="near_clusters", near_interp=1.5).validate()


@pytest.mark.parametrize("mode", ["uniform_noise", "disjoint_clusters"])
def test_interp_outside_near_clusters_rejected(mode):
    with pytest.raises(InvalidSpec, match=f"near_interp applies only to near_clusters, not {mode}"):
        small_spec(strong_mode=mode, near_interp=0.7).validate()
    small_spec(strong_mode=mode, near_interp=0.0).validate()


def test_signal_dims_bounded_by_input_dims():
    with pytest.raises(InvalidSpec):
        small_spec(d_in=8, signal_dims=16).validate()


def test_negative_seed_rejected():
    with pytest.raises(InvalidSpec, match="seed"):
        small_spec(seed=-1).validate()


# --- source generation --------------------------------------------------------------


def test_single_class_labels_all_zero():
    values, labels = generate_source(small_spec(k_s=1))
    assert set(labels.tolist()) == {0}
    assert values.shape == (200, 32)


def test_source_deterministic_per_seed():
    a = generate_source(small_spec())
    b = generate_source(small_spec())
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = generate_source(small_spec(seed=1))
    assert not np.array_equal(a[0], c[0])


def test_easy_source_regime_nearest_mean_oracle():
    spec = WorldSpec(k_s=5, class_sep=6.0, within_std=1.0, n_source=2000, seed=0)
    train_x, train_y = generate_source(spec)
    held = WorldSpec(k_s=5, class_sep=6.0, within_std=1.0, n_source=2000, seed=0)
    # held-out draw: same world geometry, fresh sample noise via a shifted seed
    # on the sampling stage only is not exposed, so split the one draw instead.
    half = len(train_x) // 2
    acc = nearest_mean_accuracy(
        train_x[:half], train_y[:half], train_x[half:], train_y[half:], spec.k_s
    )
    assert acc > 0.99


def test_every_class_appears():
    values, labels = generate_source(small_spec(k_s=5, n_source=10))
    assert set(labels.tolist()) == set(range(5))


def test_class_means_respect_separation():
    spec = small_spec()
    means = class_means(spec)
    for i in range(spec.k_s):
        for j in range(i + 1, spec.k_s):
            assert np.linalg.norm(means[i] - means[j]) >= spec.class_sep - 1e-9


def test_strong_means_respect_margin():
    spec = small_spec()
    source = class_means(spec)
    strong = strong_means(spec)
    for s in strong:
        for m in source:
            assert np.linalg.norm(s - m) >= spec.strong_margin * spec.class_sep - 1e-9


# --- stream generation ----------------------------------------------------------------


def test_null_shift_transform_is_identity():
    spec = small_spec(rotation_angle=0.0)
    np.testing.assert_array_equal(rotation_matrix(spec), np.eye(spec.d_in))


def test_rotation_matrix_is_orthogonal_and_fixes_offset():
    spec = small_spec(rotation_angle=0.9)
    rot = rotation_matrix(spec)
    np.testing.assert_allclose(rot @ rot.T, np.eye(spec.d_in), atol=1e-10)
    offset = base_offset(spec)
    np.testing.assert_allclose(rot @ offset, offset, atol=1e-9)


def test_null_shift_weak_samples_match_source_distribution():
    spec = small_spec(rotation_angle=0.0, bias_scale=0.0, noise_std=0.0, ratio=0.2)
    means = class_means(spec)
    batch = generate_batch(spec, 0)
    weak = batch.hidden < spec.k_s
    dist = np.linalg.norm(batch.values[weak] - means[batch.hidden[weak]], axis=1)
    # pure within-class draw: distance concentrates near within_std*sqrt(d)
    assert weak.any()
    assert np.all(dist < 6 * spec.within_std * np.sqrt(spec.d_in))


def test_equal_ratio_batch_counts():
    spec = small_spec(batch_size=64, ratio=1.0)
    assert batch_counts(spec) == (32, 32)


def test_ratio_counts_within_one_of_round():
    for rho in (0.2, 0.4, 0.6, 0.8, 1.0):
        spec = small_spec(batch_size=64, ratio=rho)
        n_weak, n_strong = batch_counts(spec)
        assert n_weak + n_strong == 64
        assert abs(n_strong - round(rho * n_weak)) <= 1


def test_stream_bit_reproducible():
    a = generate_stream(small_spec())
    b = generate_stream(small_spec())
    for batch_a, batch_b in zip(a, b):
        assert np.array_equal(batch_a.values, batch_b.values)
        assert np.array_equal(batch_a.hidden, batch_b.hidden)


def test_stream_prefix_independent_of_length():
    short = generate_stream(small_spec(n_batches=3))
    long = generate_stream(small_spec(n_batches=10))
    for batch_s, batch_l in zip(short, long[:3]):
        assert np.array_equal(batch_s.values, batch_l.values)


def test_batches_hold_float_rows_and_int_labels():
    spec = small_spec(n_batches=2)
    for batch in generate_stream(spec):
        assert len(batch) == spec.batch_size
        assert batch.values.shape == (spec.batch_size, spec.d_in)
        assert batch.values.dtype == np.float64
        assert batch.hidden.shape == (spec.batch_size,)
        assert batch.hidden.dtype.kind == "i"


def test_uniform_noise_scores_above_weak():
    spec = WorldSpec(strong_mode="uniform_noise", n_batches=4, seed=0)
    src_x, src_y = generate_source(spec)
    adapter = init_adapter(16, spec.d_in, learning_rate=0.01, seed=0)
    protos = build_source_prototypes(embed_batch(src_x, adapter), src_y, spec.k_s)
    weak_scores, strong_scores = [], []
    for batch in generate_stream(spec):
        scores = batch_ood_scores(embed_batch(batch.values, adapter) @ protos.T)
        weak_scores.extend(scores[batch.hidden < spec.k_s])
        strong_scores.extend(scores[batch.hidden >= spec.k_s])
    assert np.mean(strong_scores) > np.mean(weak_scores)


def test_near_clusters_interp_shrinks_pre_adaptation_gap():
    gaps = []
    for interp in (0.0, 0.5, 0.9):
        spec = WorldSpec(
            strong_mode="near_clusters", near_interp=interp, n_batches=2, seed=0
        )
        src_x, src_y = generate_source(spec)
        adapter = init_adapter(16, spec.d_in, learning_rate=0.01, seed=0)
        protos = build_source_prototypes(embed_batch(src_x, adapter), src_y, spec.k_s)
        weak, strong = [], []
        for batch in generate_stream(spec):
            scores = batch_ood_scores(embed_batch(batch.values, adapter) @ protos.T)
            weak.extend(scores[batch.hidden < spec.k_s])
            strong.extend(scores[batch.hidden >= spec.k_s])
        gaps.append(np.mean(strong) - np.mean(weak))
    assert gaps[0] > gaps[1] > gaps[2]


def test_near_interp_zero_equals_disjoint():
    near = WorldSpec(strong_mode="near_clusters", near_interp=0.0)
    disjoint = WorldSpec(strong_mode="disjoint_clusters")
    np.testing.assert_array_equal(strong_means(near), strong_means(disjoint))


def test_bias_vector_orthogonal_to_offset():
    spec = small_spec()
    assert abs(bias_vector(spec) @ base_offset(spec)) < 1e-9


# --- stream export / ingestion -----------------------------------------------------


def test_stream_roundtrip_binary(tmp_path):
    stream = generate_stream(small_spec(n_batches=3))
    path = tmp_path / "stream.owtt"
    export_stream(stream, path)
    loaded = load_stream(path)
    assert len(loaded) == 3
    for batch_a, batch_b in zip(stream, loaded):
        assert len(batch_a) == len(batch_b)
        np.testing.assert_allclose(batch_a.values, batch_b.values, atol=1e-6)
        assert np.array_equal(batch_a.hidden, batch_b.hidden)
    # A row's first column is the index of the batch it belongs to.
    rows = stream_rows(path)
    assert rows[:, 0].tolist() == [t for t in range(3) for _ in range(16)]


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.owtt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(InvalidSpec):
        load_stream(path)


HEADER = struct.Struct("<4sIIII")


def stream_rows(path):
    """The float32 rows of a stream file, one per sample."""
    data = path.read_bytes()
    d_in = HEADER.unpack_from(data)[2]
    return np.frombuffer(data, "<f4", offset=HEADER.size).reshape(-1, d_in + 2)


def exported(tmp_path, n_batches=3):
    path = tmp_path / "stream.owtt"
    export_stream(generate_stream(small_spec(n_batches=n_batches, batch_size=8)), path)
    return path


def test_load_rejects_a_truncated_header(tmp_path):
    path = exported(tmp_path)
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(InvalidSpec, match="header truncated"):
        load_stream(path)


@pytest.mark.parametrize("change", [-4, 4])
def test_load_rejects_a_payload_the_header_does_not_describe(tmp_path, change):
    path = exported(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[:change] if change < 0 else data + b"\x00" * change)
    with pytest.raises(InvalidSpec, match="header implies"):
        load_stream(path)


def test_load_rejects_a_batch_with_no_rows(tmp_path):
    path = exported(tmp_path)
    data = bytearray(path.read_bytes())
    rows = stream_rows(path).copy()
    rows[rows[:, 0] == 1, 0] = 2  # batch 1 loses every row to batch 2
    data[HEADER.size :] = rows.tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(InvalidSpec, match="batch 1 has no rows"):
        load_stream(path)


@pytest.mark.parametrize("column, value", [(0, 3.0), (0, -1.0), (0, 0.5), (1, np.nan)])
def test_load_rejects_a_bad_batch_index_or_label(tmp_path, column, value):
    path = exported(tmp_path)
    data = bytearray(path.read_bytes())
    rows = stream_rows(path).copy()
    rows[5, column] = value
    data[HEADER.size :] = rows.tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(InvalidSpec, match="stream row 5"):
        load_stream(path)


def test_stream_csv_written(tmp_path):
    stream = generate_stream(small_spec(n_batches=2))
    path = tmp_path / "stream.csv"
    write_stream_csv(stream, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("batch,hidden_label,v0")
    assert len(lines) == 1 + 2 * 16
