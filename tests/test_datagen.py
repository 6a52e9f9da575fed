import dataclasses
import os
import re
import struct
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import (nearest_mean_accuracy, place_means, plane_by_plane_rotation,
                     stacked_batch)
from owtt import datagen
from owtt.adapter import embed_batch, init_adapter
from owtt.datagen import (
    MAX_CLASSES,
    MAX_WORLD_ELEMENTS,
    MAX_WORLD_SCALE,
    Batch,
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


def split_spec(**kw):
    """A world whose batches hold exactly datagen.SPLIT_BATCH_VALUES values, so
    generate_stream draws its later half on a worker thread (given two CPUs)."""
    kw.setdefault("batch_size", datagen.SPLIT_BATCH_VALUES // 128)
    return small_spec(d_in=128, signal_dims=64, **kw)


# --- validation -------------------------------------------------------------------


def test_invalid_ratio_rejected():
    with pytest.raises(InvalidSpec):
        small_spec(ratio=0.0)
    with pytest.raises(InvalidSpec):
        small_spec(ratio=1.5)


def test_invalid_strong_mode_rejected():
    with pytest.raises(InvalidSpec):
        small_spec(strong_mode="bananas")


def test_invalid_interp_rejected():
    with pytest.raises(InvalidSpec):
        small_spec(strong_mode="near_clusters", near_interp=1.5)


@pytest.mark.parametrize("mode", ["uniform_noise", "disjoint_clusters"])
def test_interp_outside_near_clusters_rejected(mode):
    with pytest.raises(InvalidSpec, match=f"near_interp applies only to near_clusters, not {mode}"):
        small_spec(strong_mode=mode, near_interp=0.7)
    small_spec(strong_mode=mode, near_interp=0.0)


def test_signal_dims_bounded_by_input_dims():
    with pytest.raises(InvalidSpec):
        small_spec(d_in=8, signal_dims=16)


def test_negative_seed_rejected():
    with pytest.raises(InvalidSpec, match="seed"):
        small_spec(seed=-1)


@pytest.mark.parametrize("changes, message", [
    (dict(class_sep=float("nan")), "class_sep must be finite, got nan"),
    (dict(k_s=0), "k_s and k_t must lie in 1..1024"),
])
def test_a_world_the_generators_cannot_use_is_never_built(changes, message):
    # generate_batch would make all-NaN rows of the first, and class_means
    # would raise a bare IndexError on the second.
    with pytest.raises(InvalidSpec, match=message):
        WorldSpec(**changes)
    with pytest.raises(InvalidSpec, match=message):
        dataclasses.replace(WorldSpec(), **changes)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("key", [
    "class_sep", "within_std", "offset_scale", "bias_scale", "noise_std", "rotation_angle",
    "strong_margin",
])
def test_non_finite_world_floats_rejected(key, value):
    with pytest.raises(InvalidSpec, match=f"{key} must be finite, got {value}"):
        small_spec(**{key: value})


@pytest.mark.parametrize("sizes, keys", [
    (dict(d_in=2**40), "n_source x d_in"),
    (dict(n_source=2**28), "n_source x d_in"),
    (dict(n_batches=2**22), "n_batches x batch_size x d_in"),
    (dict(batch_size=2**23), "n_batches x batch_size x d_in"),
    (dict(n_source=20, n_batches=1, batch_size=2, d_in=2**14), "d_in x d_in"),
])
def test_a_world_array_above_the_element_budget_is_refused(sizes, keys):
    with pytest.raises(InvalidSpec, match=f"{keys} is [0-9]+ elements, above {MAX_WORLD_ELEMENTS}"):
        small_spec(**sizes)


def test_the_element_budget_admits_a_world_at_it():
    small_spec(n_source=2**14, d_in=2**13, n_batches=2**4, batch_size=2**10)


@pytest.mark.parametrize("key", ["k_s", "k_t"])
@pytest.mark.parametrize("value", [1_025, 2**40])
def test_more_means_than_placement_tries_are_refused(key, value):
    # MAX_CLASSES bounds both counts, far below the placement tries.
    small_spec(**{key: MAX_CLASSES, "n_source": MAX_CLASSES})
    with pytest.raises(InvalidSpec, match=f"k_s and k_t must lie in 1..1024, got {key}={value}$"):
        small_spec(**{key: value})


def test_a_stalling_placement_at_the_bound_gives_up_within_seconds():
    # 1,024 means in 16 signal dims: 0.2-0.4 s on a 2-core Xeon. The slowest stall
    # measured there, 1,024 strong means after 1,024 source means in 56 signal
    # dims, took about 3 s: too long for this suite.
    spec = small_spec(k_s=MAX_CLASSES, n_source=MAX_CLASSES, signal_dims=16)
    start = time.perf_counter()
    with pytest.raises(InvalidSpec, match="could not place source means: [0-9]+ of 1024 placed"):
        class_means(spec)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("key, value", [
    ("class_sep", 1e308), ("class_sep", 1e150), ("within_std", 1e308), ("offset_scale", 1e308),
    ("bias_scale", 1e308), ("noise_std", 1e308), ("strong_margin", 1e308),
    ("strong_margin", -1e308),
])
def test_a_world_scale_above_the_bound_is_refused(key, value):
    # Each generated values whose squared norms overflow, with a RuntimeWarning.
    with pytest.raises(InvalidSpec, match=r"world's scale is \S+, above 1e\+150"):
        small_spec(**{key: value})


@pytest.mark.parametrize("key", ["class_sep", "noise_std", "within_std"])
def test_a_world_at_the_scale_bound_generates_finite_values(key):
    # class_sep * (0.6 + 1.4) is its scale; the other keys add theirs. pytest
    # turns any RuntimeWarning of the generation into an error.
    share = 0.5 if key == "class_sep" else 1.0
    spec = small_spec(**{key: share * MAX_WORLD_SCALE * (1 - 1e-9)}, d_in=64, n_batches=2)
    values, _ = generate_source(spec)
    stream = generate_stream(spec)
    for array in (values, *(batch.values for batch in stream)):
        assert np.isfinite(np.einsum("ij,ij->i", array, array)).all()


def test_an_integer_rotation_angle_past_int64_generates_a_world():
    spec = small_spec(rotation_angle=-(2**63) - 1, n_batches=2)
    np.testing.assert_array_equal(rotation_matrix(spec),
                                  rotation_matrix(small_spec(rotation_angle=-(2.0**63))))


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


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 12), dim=st.integers(1, 6),
       spacing=st.floats(0.0, 2.2), n_exclude=st.integers(0, 4),
       exclude_spacing=st.one_of(st.none(), st.floats(0.0, 2.2)))
def test_place_means_matches_the_loop_oracle(seed, count, dim, spacing, n_exclude,
                                             exclude_spacing):
    # Both sides get 200 tries, so a crowded case runs out of them quickly.
    radius = 3.0
    exclude = np.random.default_rng(seed + 1).standard_normal((n_exclude, dim)) * radius
    exclude_dist = None if exclude_spacing is None else exclude_spacing * radius
    args = (count, dim, radius, spacing * radius, exclude, exclude_dist)
    expected = place_means(np.random.default_rng(seed), *args, max_tries=200)
    with mock.patch.object(datagen, "_MAX_PLACEMENT_TRIES", 200):
        if expected is None:
            with pytest.raises(InvalidSpec, match="could not place"):
                datagen._place_means(np.random.default_rng(seed), *args)
        else:
            np.testing.assert_array_equal(datagen._place_means(np.random.default_rng(seed), *args),
                                          expected)


class CountingRng:
    def __init__(self, seed):
        self.rng, self.tries = np.random.default_rng(seed), 0

    def standard_normal(self, size):
        self.tries += 1
        return self.rng.standard_normal(size)


def test_place_means_takes_one_norm_per_try(monkeypatch):
    # The try's own normalization; its distances to the anchors come from one product.
    norms = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *args, **kw: norms.append(1) or norm(*args, **kw))
    rng = CountingRng(0)
    datagen._place_means(rng, 50, 8, 3.0, 2.0, np.ones((3, 8)), 1.0)
    assert rng.tries > 50 and len(norms) == rng.tries


def test_strong_means_of_a_wide_world_match_the_loop_oracle():
    spec = small_spec(k_t=300, d_in=32, signal_dims=32)
    far = spec.strong_margin * spec.class_sep
    expected = place_means(datagen._rng(spec, datagen._TAG_STRONG_MEANS), 300, 32, far,
                           spec.class_sep, datagen._raw_class_means(spec), far)
    np.testing.assert_array_equal(strong_means(spec), expected + base_offset(spec))


@pytest.mark.parametrize("changes, message", [
    (dict(k_s=8), "source means: 4 of 8 placed in 200 tries; lower k_s or raise signal_dims"),
    (dict(k_s=3, k_t=8),
     "strong means: 1 of 8 placed in 200 tries; lower k_t or k_s, or raise signal_dims"),
], ids=["source", "strong"])
def test_a_placement_refusal_names_the_set_and_how_many_were_placed(changes, message):
    with mock.patch.object(datagen, "_MAX_PLACEMENT_TRIES", 200):
        with pytest.raises(InvalidSpec, match=f"^could not place {message}$"):
            strong_means(small_spec(signal_dims=2, **changes))


@pytest.mark.parametrize("changes", [
    dict(strong_mode="uniform_noise"), dict(strong_mode="disjoint_clusters"),
    dict(strong_mode="near_clusters", near_interp=0.0),
    dict(strong_mode="near_clusters", near_interp=0.5),
])
def test_strong_means_places_the_source_means_once(monkeypatch, changes):
    calls = []
    place = datagen._place_means
    monkeypatch.setattr(datagen, "_place_means", lambda *a, **kw: calls.append(1) or place(*a, **kw))
    strong_means(small_spec(**changes))
    assert len(calls) == 2  # the source means, then the strong means
    calls.clear()
    spec = small_spec(**changes)
    source, strong, *_ = datagen._world_constants(spec)  # what generate_stream uses
    uniform = spec.strong_mode == "uniform_noise"
    assert len(calls) == (1 if uniform else 2)  # the source means once, for both kinds
    assert source.tobytes() == class_means(spec).tobytes()
    if uniform:
        assert strong is None
    else:
        assert strong.tobytes() == strong_means(spec).tobytes()


def test_near_clusters_pull_the_disjoint_means_toward_the_source_means():
    spec = small_spec(k_s=3, k_t=7, strong_mode="near_clusters", near_interp=0.6)
    disjoint = strong_means(dataclasses.replace(spec, near_interp=0.0))
    anchors = class_means(spec)[np.arange(spec.k_t) % spec.k_s]
    direction = disjoint - anchors
    touch = anchors + direction * (spec.class_sep / np.linalg.norm(direction, axis=1, keepdims=True))
    expected = disjoint + spec.near_interp * (touch - disjoint)
    assert strong_means(spec).tobytes() == expected.tobytes()


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


@st.composite
def rotation_specs(draw):
    d_in = draw(st.integers(2, 64))
    angle = draw(st.one_of(st.just(0.0), st.floats(-10.0, 10.0), st.floats(-1e300, 1e300)))
    return small_spec(d_in=d_in, signal_dims=draw(st.integers(2, d_in)),
                      seed=draw(st.integers(0, 2**32 - 1)), rotation_angle=angle)


@settings(max_examples=200, deadline=None)
@given(spec=rotation_specs())
@example(spec=small_spec(d_in=16, signal_dims=16, rotation_angle=1.3))  # d == s
@example(spec=small_spec(d_in=9, signal_dims=2, rotation_angle=-0.7))  # s == 2
@example(spec=small_spec(d_in=20, signal_dims=16, rotation_angle=-2.5))  # d - s < s - 1
@example(spec=small_spec(d_in=64, signal_dims=40, rotation_angle=0.0))
@example(spec=small_spec(d_in=33, signal_dims=7, rotation_angle=-1e300))
# Nuisance QR leaked 5.5e-13 into the signal rows: 2.4e-13 from the oracle.
@example(spec=small_spec(d_in=28, signal_dims=20, seed=28, rotation_angle=2.0))
def test_rotation_matrix_matches_the_plane_by_plane_oracle(spec):
    rot = rotation_matrix(spec)
    assert np.abs(rot - plane_by_plane_rotation(spec)).max() <= 1e-13
    assert np.abs(rot @ rot.T - np.eye(spec.d_in)).max() <= 1e-13
    offset = base_offset(spec)
    assert np.abs(rot @ offset - offset).max() <= 1e-13 * np.linalg.norm(offset)


@pytest.mark.parametrize("d_in, signal_dims", [(20, 16), (16, 16), (17, 17), (128, 64)])
def test_rotation_moves_only_its_planes(d_in, signal_dims):
    # min(s - 1, d - s) planes pair a spin direction with a nuisance one; with
    # d == s, (s - 1) // 2 planes pair spin directions. All else stays fixed.
    if d_in > signal_dims:
        planes = min(signal_dims - 1, d_in - signal_dims)
    else:
        planes = (signal_dims - 1) // 2
    rot = rotation_matrix(small_spec(d_in=d_in, signal_dims=signal_dims, rotation_angle=1.3))
    assert np.linalg.matrix_rank(rot - np.eye(d_in)) == 2 * planes


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
    # Serial, split with an odd and an even batch count, and one batch.
    for spec in (small_spec(), split_spec(n_batches=5), split_spec(n_batches=4),
                 split_spec(n_batches=1)):
        a = generate_stream(spec)
        b = generate_stream(spec)
        assert len(a) == len(b) == spec.n_batches
        for batch_a, batch_b in zip(a, b):
            assert np.array_equal(batch_a.values, batch_b.values)
            assert np.array_equal(batch_a.hidden, batch_b.hidden)


def test_stream_prefix_independent_of_length():
    for spec in (small_spec, split_spec):
        short = generate_stream(spec(n_batches=3))
        long = generate_stream(spec(n_batches=10))
        for batch_s, batch_l in zip(short, long[:3]):
            assert np.array_equal(batch_s.values, batch_l.values)


@pytest.mark.parametrize("batch_size", [datagen.SPLIT_BATCH_VALUES // 128 - 1,
                                        datagen.SPLIT_BATCH_VALUES // 128])
def test_stream_is_its_batches_byte_for_byte(monkeypatch, batch_size):
    monkeypatch.setattr(datagen, "_usable_cpus", lambda: 2)
    spec = split_spec(n_batches=7, batch_size=batch_size)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL over as often as it can go
    try:
        stream = generate_stream(spec)
    finally:
        sys.setswitchinterval(interval)
    assert len(stream) == spec.n_batches
    for t, batch in enumerate(stream):
        alone = generate_batch(spec, t)
        assert batch.values.tobytes() == alone.values.tobytes()
        assert batch.hidden.tobytes() == alone.hidden.tobytes()


DRAW_WORLDS = {
    "disjoint": {},
    "uniform-noise": dict(strong_mode="uniform_noise"),
    "near-clusters": dict(strong_mode="near_clusters", near_interp=0.5),
    "no-noise": dict(noise_std=0.0),
    "one-strong-row": dict(ratio=0.05),
    "batch-2": dict(batch_size=2),
    "batch-3": dict(batch_size=3),
    "no-nuisance": dict(d_in=16, signal_dims=16),
    "no-rotation": dict(rotation_angle=0.0),
    "wide-saturated": dict(d_in=128, signal_dims=64, k_s=10, k_t=10, batch_size=512),
}


@pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "split"])
@pytest.mark.parametrize("seed", [0, 7919, 2**40])
@pytest.mark.parametrize("world", list(DRAW_WORLDS))
def test_stream_draws_the_bits_of_stacked_blocks(monkeypatch, world, seed, cpus):
    monkeypatch.setattr(datagen, "_usable_cpus", lambda: cpus)
    spec = small_spec(n_batches=4, seed=seed, **DRAW_WORLDS[world])
    if world == "one-strong-row":
        assert batch_counts(spec) == (15, 1)
    constants = datagen._world_constants(spec)[:4]
    stream = generate_stream(spec)
    assert len(stream) == spec.n_batches
    for t, batch in enumerate(stream):
        values, labels = stacked_batch(spec, t, *constants)
        assert (batch.values.dtype, batch.hidden.dtype) == (values.dtype, labels.dtype)
        assert batch.values.tobytes() == values.tobytes()
        assert batch.hidden.tobytes() == labels.tobytes()


@pytest.mark.parametrize("batch_size, cpus, split", [
    (datagen.SPLIT_BATCH_VALUES // 128, 2, True),
    (datagen.SPLIT_BATCH_VALUES // 128 - 1, 2, False),  # below the cut-off
    (datagen.SPLIT_BATCH_VALUES // 128, 1, False),  # one usable CPU
])
def test_stream_draws_its_later_half_on_a_worker_only_when_split(monkeypatch, batch_size,
                                                                 cpus, split):
    monkeypatch.setattr(datagen, "_usable_cpus", lambda: cpus)
    threads = {}
    draw = datagen._batch

    def spy(spec, t, *constants):
        threads[t] = threading.get_ident()
        return draw(spec, t, *constants)

    monkeypatch.setattr(datagen, "_batch", spy)
    generate_stream(split_spec(n_batches=5, batch_size=batch_size))
    caller = threading.get_ident()
    assert sorted(threads) == list(range(5))
    assert [threads[t] == caller for t in range(5)] == [True, True] + [not split] * 3


class _DrawFailed(Exception):
    pass


@pytest.mark.parametrize("failing", [0, 1, 4])  # caller's half, its last batch, worker's half
def test_stream_raises_an_error_of_either_half_and_leaves_no_thread(monkeypatch, failing):
    monkeypatch.setattr(datagen, "_usable_cpus", lambda: 2)
    draw = datagen._batch

    def flaky(spec, t, *constants):
        if t == failing:
            raise _DrawFailed(f"batch {t}")
        return draw(spec, t, *constants)

    monkeypatch.setattr(datagen, "_batch", flaky)
    before = threading.active_count()
    with pytest.raises(_DrawFailed, match=f"batch {failing}"):
        generate_stream(split_spec(n_batches=5))
    assert threading.active_count() == before


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.sched_getaffinity and two usable CPUs")


def recording_cpu_lookup(monkeypatch):
    """Patch datagen's CPU lookup to note (thread, CPU) at each call; returns the notes."""
    lookup, calls = datagen._sched_getcpu, []

    def recording():
        calls.append((threading.get_ident(), lookup()))
        return calls[-1][1]

    monkeypatch.setattr(datagen, "_sched_getcpu", recording)
    return calls


@needs_two_cpus
@pytest.mark.parametrize("failing", [None, 0, 4])  # none, the caller's half, the worker's half
def test_the_split_worker_runs_off_the_callers_cpu_and_leaves_its_mask(monkeypatch, failing):
    monkeypatch.setattr(datagen, "_usable_cpus", lambda: 2)
    calls, masks, draw = recording_cpu_lookup(monkeypatch), {}, datagen._batch

    def spy(spec, t, *constants):
        masks[t] = (threading.get_ident(), os.sched_getaffinity(0))
        if t == failing:
            raise _DrawFailed(f"batch {t}")
        return draw(spec, t, *constants)

    monkeypatch.setattr(datagen, "_batch", spy)
    caller, mask = threading.get_ident(), os.sched_getaffinity(0)
    if failing is None:
        generate_stream(split_spec(n_batches=5))
    else:
        with pytest.raises(_DrawFailed):
            generate_stream(split_spec(n_batches=5))
    assert os.sched_getaffinity(0) == mask
    [(looked_up_on, cpu)] = calls
    assert looked_up_on == caller and cpu in mask
    assert masks[4] == (masks[2][0], mask - {cpu}) and masks[2][0] != caller
    assert all(masks[t] == (caller, mask) for t in (0, 1) if t in masks)


def _raise_oserror(*args):
    raise OSError("not here")


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs os.sched_getaffinity")
@pytest.mark.parametrize("failing", ["lookup", "no_cpu", "affinity"])
def test_a_split_whose_pinning_fails_draws_unpinned_with_the_serial_bits(monkeypatch, failing):
    monkeypatch.setattr(datagen, "_usable_cpus", lambda: 2)
    if failing == "lookup":
        monkeypatch.setattr(datagen, "_sched_getcpu", _raise_oserror)
    elif failing == "no_cpu":  # the fallback where the C library has no sched_getcpu
        monkeypatch.setattr(datagen, "_sched_getcpu", lambda: -1)
    else:
        monkeypatch.setattr(os, "sched_setaffinity", _raise_oserror)
    masks, draw = {}, datagen._batch

    def spy(spec, t, *constants):
        masks[t] = (threading.get_ident(), os.sched_getaffinity(0))
        return draw(spec, t, *constants)

    monkeypatch.setattr(datagen, "_batch", spy)
    mask, spec = os.sched_getaffinity(0), split_spec(n_batches=5)
    stream = generate_stream(spec)
    assert masks[4][0] != threading.get_ident()
    assert all(m == mask for _, m in masks.values())
    monkeypatch.setattr(datagen, "_usable_cpus", lambda: 1)
    serial = generate_stream(spec)
    assert [(b.values.tobytes(), b.hidden.tobytes()) for b in stream] == \
        [(b.values.tobytes(), b.hidden.tobytes()) for b in serial]


def test_a_hand_built_batch_keeps_every_check_the_generator_skips():
    batch = generate_batch(small_spec(), 0)
    checked = Batch(batch.values, batch.hidden)  # the checks pass and convert nothing
    assert type(batch) is Batch
    assert checked.values is batch.values and checked.hidden is batch.hidden
    nan_label, negative = batch.hidden.astype(float), batch.hidden.copy()
    nan_label[3], negative[5] = np.nan, -1
    with pytest.raises(InvalidSpec, match="hidden label 3 is nan"):
        Batch(batch.values, nan_label)
    with pytest.raises(InvalidSpec, match="hidden label 5 is -1"):
        Batch(batch.values, negative)
    with pytest.raises(InvalidSpec, match="2-D values and one label per row"):
        Batch(batch.values[:-1], batch.hidden)
    with pytest.raises(InvalidSpec, match="2-D values and one label per row"):
        Batch(batch.values.ravel(), batch.hidden)


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
    weight = init_adapter(16, spec.d_in, seed=0)
    protos = build_source_prototypes(embed_batch(src_x, weight), src_y, spec.k_s)
    weak_scores, strong_scores = [], []
    for batch in generate_stream(spec):
        scores = batch_ood_scores(embed_batch(batch.values, weight) @ protos.T)
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
        weight = init_adapter(16, spec.d_in, seed=0)
        protos = build_source_prototypes(embed_batch(src_x, weight), src_y, spec.k_s)
        weak, strong = [], []
        for batch in generate_stream(spec):
            scores = batch_ood_scores(embed_batch(batch.values, weight) @ protos.T)
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


@pytest.mark.parametrize("value", [1e39, -3.5e38])
def test_export_refuses_a_finite_value_float32_cannot_hold(tmp_path, value):
    batches = generate_stream(small_spec(n_batches=3))
    batches[1].values[2, 5] = value
    batches[2].values[0, 0] = 1e39  # a later row is not named
    path = tmp_path / "stream.owtt"
    message = f"stream batch 1 row 2 holds {value:g}, outside float32's range"
    with pytest.raises(InvalidSpec, match="^" + re.escape(message)):
        export_stream(batches, path)
    assert not path.exists()


@pytest.mark.parametrize("label", [2**24 + 1, 2**24 + 2, 2**40])
def test_export_refuses_a_label_float32_cannot_hold(tmp_path, label):
    # float32 rounds 2**24 + 1 to 2**24, which load_stream would read back
    # without error; 2**24 + 2 would write a file that load_stream refuses.
    batches = generate_stream(small_spec(n_batches=3))
    batches[1].hidden[2] = label
    batches[2].values[0, 0] = 1e39  # a later row is not named
    path = tmp_path / "stream.owtt"
    message = f"stream batch 1 row 2 holds label {label}, above {2**24}"
    with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
        export_stream(batches, path)
    assert not path.exists()
    batches[1].hidden[2] = 2**24  # the largest label float32 holds is kept
    export_stream(batches[:2], path)
    assert load_stream(path)[1].hidden[2] == 2**24


def test_export_writes_a_non_finite_value_as_it_is(tmp_path):
    batches = generate_stream(small_spec(n_batches=2))
    batches[1].values[0, :3] = [np.inf, -np.inf, np.finfo(np.float32).max]
    export_stream(batches, tmp_path / "stream.owtt")
    loaded = load_stream(tmp_path / "stream.owtt")
    assert loaded[1].values[0, :3].tolist() == [np.inf, -np.inf, np.finfo(np.float32).max]


def mixed_width_stream():
    """Batches 0-2 with rows 4 wide, then batch 3 with rows 3 wide."""
    return [Batch(np.ones((2, 4 if t < 3 else 3)), np.zeros(2)) for t in range(4)]


ZERO_ROW_STREAM = [Batch(np.ones((n, 4)), np.zeros(n)) for n in (2, 0, 2)]


@pytest.mark.parametrize("write, name, batches, message", [
    pytest.param(export_stream, "stream.owtt", [], "the stream holds no batch",
                 id="export_stream-stream.owtt"),
    pytest.param(write_stream_csv, "stream.csv", [], "the stream holds no batch",
                 id="write_stream_csv-stream.csv"),
    # load_stream refuses such a file in the same words
    pytest.param(export_stream, "stream.owtt", ZERO_ROW_STREAM, "stream batch 1 has no rows",
                 id="export_stream-zero_rows"),
    pytest.param(write_stream_csv, "stream.csv", ZERO_ROW_STREAM, "stream batch 1 has no rows",
                 id="write_stream_csv-zero_rows"),
])
def test_stream_writers_refuse_an_empty_stream_before_opening_the_file(tmp_path, write, name,
                                                                      batches, message):
    with pytest.raises(InvalidSpec, match=f"^{message}$"):
        write(batches, tmp_path / name)
    assert not (tmp_path / name).exists()


@pytest.mark.parametrize("write, name", [(export_stream, "stream.owtt"),
                                         (write_stream_csv, "stream.csv")])
def test_stream_writers_refuse_mixed_row_widths_naming_the_first_odd_batch(tmp_path, write,
                                                                          name):
    with pytest.raises(InvalidSpec, match="^stream batch 3 has rows of width 3, batch 0 has "
                                          "width 4$"):
        write(mixed_width_stream(), tmp_path / name)
    assert not (tmp_path / name).exists()


STREAM_WRITERS = [(export_stream, "stream.owtt"), (write_stream_csv, "stream.csv")]


@pytest.mark.parametrize("write, name", STREAM_WRITERS)
def test_stream_writers_write_a_new_file_over_an_old_one(tmp_path, write, name):
    # Truncating an old file in place can wait on a flush (ext4); the writer
    # unlinks it first, so a hard link to it keeps the old file.
    stream = generate_stream(small_spec(n_batches=2))
    path = tmp_path / name
    write(stream, path)
    os.link(path, tmp_path / "old")
    inode, data = path.stat().st_ino, path.read_bytes()
    write(stream, path)
    assert path.stat().st_ino != inode
    assert path.read_bytes() == data == (tmp_path / "old").read_bytes()


@pytest.mark.parametrize("write, name", STREAM_WRITERS)
def test_stream_writers_write_through_a_symlink(tmp_path, write, name):
    stream = generate_stream(small_spec(n_batches=2))
    write(stream, tmp_path / name)
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_text("old")
    link.symlink_to(target)
    write(stream, link)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == (tmp_path / name).read_bytes()


@pytest.mark.parametrize("write, name", STREAM_WRITERS)
def test_a_refused_stream_write_leaves_the_old_file(tmp_path, write, name):
    path = tmp_path / name
    write(generate_stream(small_spec(n_batches=2)), path)
    inode, data = path.stat().st_ino, path.read_bytes()
    with pytest.raises(InvalidSpec, match="^stream batch 3 has rows of width 3"):
        write(mixed_width_stream(), path)
    assert path.stat().st_ino == inode and path.read_bytes() == data


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


@pytest.mark.parametrize("column, value", [
    (0, 3.0), (0, -1.0), (0, 0.5), (1, np.nan), (1, -1.0), (1, 3e38), (1, 2.0**24 + 2),
])
def test_load_rejects_a_bad_batch_index_or_label(tmp_path, column, value):
    path = exported(tmp_path)
    data = bytearray(path.read_bytes())
    rows = stream_rows(path).copy()
    rows[5, column] = value
    data[HEADER.size :] = rows.tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(InvalidSpec, match="stream row 5"):
        load_stream(path)


@pytest.mark.parametrize("n_batches", [25, 2**31 + 5])
def test_load_rejects_more_batches_than_rows(tmp_path, n_batches):
    # 24 rows; the check runs before any per-batch array is allocated.
    path = exported(tmp_path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 16, n_batches)
    path.write_bytes(bytes(data))
    with pytest.raises(InvalidSpec, match=f"names {n_batches} batches for 24 rows"):
        load_stream(path)


def test_a_signalling_nan_value_loads_as_a_nan(tmp_path):
    # Widening a float32 signalling NaN sets numpy's invalid flag; the loader
    # leaves the refusal of non-finite rows to the engine.
    path = exported(tmp_path)
    data = bytearray(path.read_bytes())
    data[HEADER.size + 4 * 2 : HEADER.size + 4 * 3] = struct.pack("<I", 0x7FA00000)
    path.write_bytes(bytes(data))
    assert np.isnan(load_stream(path)[0].values[0, 0])


# One mutation of a valid file: truncate it, extend it, flip bits, overwrite a
# header field with any u32, or overwrite a row's batch index or label.
MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=12)),
    st.tuples(st.just("flip"), st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 7)),
                                         min_size=1, max_size=4)),
    st.tuples(st.just("field"), st.integers(0, 4), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("cell"), st.integers(0, 23), st.integers(0, 1), st.floats(width=32)),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=MUTATIONS)
def test_a_mutated_stream_file_loads_or_raises_invalid_spec(tmp_path, mutation):
    # Each example writes new files in its own directory: truncating and
    # rewriting one file per example waits on the disk.
    path = exported(Path(tempfile.mkdtemp(dir=tmp_path)))
    data = bytearray(path.read_bytes())
    kind, *args = mutation
    if kind == "truncate":
        del data[args[0] % len(data):]
    elif kind == "extend":
        data += args[0]
    elif kind == "flip":
        for position, bit in args[0]:
            data[position % len(data)] ^= 1 << bit
    elif kind == "field":
        struct.pack_into("<I", data, 4 * args[0], args[1])
    else:
        row, column, value = args
        width = 2 + HEADER.unpack_from(data)[2]
        struct.pack_into("<f", data, HEADER.size + 4 * (row * width + column), value)
    path = path.with_name("mutated.owtt")
    path.write_bytes(bytes(data))
    try:
        batches = load_stream(path)
    except InvalidSpec:
        return
    assert all(batch.hidden.min() >= 0 for batch in batches)


def test_stream_csv_written(tmp_path):
    stream = generate_stream(small_spec(n_batches=2))
    path = tmp_path / "stream.csv"
    write_stream_csv(stream, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("batch,hidden_label,v0")
    assert len(lines) == 1 + 2 * 16


def test_a_batch_with_fewer_labels_than_rows_is_refused():
    batch = generate_stream(WorldSpec(n_batches=3))[1]  # an engine run would drop 63 records
    with pytest.raises(InvalidSpec, match=r"one label per row, got values of shape \(64, 32\) "
                                          r"and labels of shape \(1,\)"):
        Batch(batch.values, batch.hidden[:1])


@pytest.mark.parametrize("values, hidden", [
    (np.zeros(4), np.zeros(4)),
    (np.zeros((2, 2, 2)), np.zeros(2)),
    (np.zeros((2, 3)), np.zeros((2, 1))),
    (np.zeros((2, 3)), np.zeros(3)),
    (np.zeros((2, 3)), 0),
])
def test_a_batch_of_another_shape_is_refused(values, hidden):
    with pytest.raises(InvalidSpec, match="2-D values and one label per row"):
        Batch(values, hidden)


@pytest.mark.parametrize("hidden, shown", [
    (np.array([0, 1, -1, -2]), "-1"), (np.array([0, 1, -1.0, 2.5]), "-1"),
    (np.array([0, 1, 2.7, -1]), "2.7"), (np.array([0, 1, np.nan, -1]), "nan"),
    (np.array([0, 1, np.inf, -1]), "inf"), (np.array([0, 1, 2.0**63, -1]), "9.22337e+18"),
    (np.array([0, 1, 2**64 - 1, 3], dtype=np.uint64), "1.84467e+19"),
])
def test_a_batch_refuses_a_negative_or_non_integral_label(hidden, shown):
    # A -1 label would count as a weak sample, and as a correct one whenever
    # the engine rejects it (REJECT is -1).
    message = f"hidden label 2 is {shown}, not a non-negative integer"
    with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
        Batch(np.zeros((4, 3)), hidden)


@pytest.mark.parametrize("action", ["ignore", "error"])
@pytest.mark.parametrize("values, hidden, what", [
    (np.ones((2, 3)) * (1 + 2j), [0, 1], "batch values"),
    (np.ones((2, 3)) + 0j, [0, 1], "batch values"),
    (np.ones((2, 3)), [1 + 1j, 0], "hidden labels"),
    (np.ones((2, 3)), np.array([1, 0], dtype=np.complex64), "hidden labels"),
])
def test_a_batch_refuses_complex_values_or_labels(action, values, hidden, what):
    # A float cast keeps only the real part (a label of 1+1j becomes 1), with
    # no more than a ComplexWarning.
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with pytest.raises(InvalidSpec, match=f"^{what} are complex, not real$"):
            Batch(values, hidden)


@pytest.mark.parametrize("hidden", [
    [0, 1, 7], np.array([0.0, 1.0, 7.0]), np.array([0, 1, 7], dtype=np.uint8),
    np.array([0, 1, 7], dtype=np.float32), np.array([False, True, True]),
])
def test_a_batch_takes_non_negative_integral_labels_of_any_dtype_as_ints(hidden):
    batch = Batch(np.zeros((3, 2)), hidden)
    assert batch.hidden.dtype == int
    assert batch.hidden.tolist() == np.asarray(hidden).astype(int).tolist()
